"""Exact sheaf cohomology of homogeneous bundles on Gr(2, n).

The Bott algorithm: add ``rho``, vanish if the result has a repeated
entry, otherwise sort to dominant order counting inversions; the number
of inversions is the unique cohomological degree and the sorted weight
minus ``rho`` labels the resulting GL(n) representation (with respect to
the dual of the standard one, matching the dual-bundle convention of
:mod:`grpf.weights`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import IntegrityError
from .schur import KClass
from .weights import GLWeight, rho, weyl_dimension


@dataclass(frozen=True)
class BwbResult:
    """Outcome of the Bott algorithm on one irreducible bundle.

    Either everything vanishes, or there is a single nonzero cohomology
    group; ``degree <= 2(n-2)`` always.
    """

    vanishes: bool
    degree: int | None = None
    rep: tuple[int, ...] | None = None
    dimension: int = 0


class TermCohomology(NamedTuple):
    s_weight: tuple[int, int]
    q_weight: tuple[int, ...]
    multiplicity: int
    result: BwbResult


@dataclass(frozen=True)
class KClassCohomology:
    """Cohomology of a K-class, positive and negative parts kept apart.

    A signed table would be meaningless as cohomology; consumers that
    need actual dimensions must certify that ``negative`` is empty.
    """

    positive: dict
    negative: dict
    terms: tuple[TermCohomology, ...]

    def is_genuine(self):
        return not self.negative

    def euler_characteristic(self):
        """Alternating sum of the table: sum of (-1)^d (positive[d] - negative[d])."""
        return sum((-1) ** d * v for d, v in self.positive.items()) - sum(
            (-1) ** d * v for d, v in self.negative.items()
        )


def _count_inversions(v):
    """Stable insertion sort to descending order, counting moves."""
    arr = list(v)
    inversions = 0
    for i in range(1, len(arr)):
        x = arr[i]
        j = i - 1
        while j >= 0 and arr[j] < x:
            arr[j + 1] = arr[j]
            j -= 1
            inversions += 1
        arr[j + 1] = x
    return inversions, tuple(arr)


def _bott(weight, n):
    """The Bott algorithm on a Levi-dominant weight tuple, unvalidated."""
    shift = rho(n)
    v = tuple(a + b for a, b in zip(weight, shift))
    if len(set(v)) < len(v):
        return BwbResult(vanishes=True)
    degree, ordered = _count_inversions(v)
    rep = tuple(a - b for a, b in zip(ordered, shift))
    dim = weyl_dimension(rep, n)
    if degree > 2 * (n - 2):
        raise IntegrityError(f"degree {degree} exceeds dim Gr(2, {n}) for {weight}")
    return BwbResult(False, degree, rep, dim)


def bwb_cohomology(w: GLWeight) -> BwbResult:
    """All sheaf cohomology of the irreducible bundle with weight ``w``."""
    return _bott(w.vector(), w.n)


def serre_dual_weight(w: GLWeight) -> GLWeight:
    """Weight of the dual bundle tensored with the canonical bundle O(-n)."""
    d = w.dual()
    return GLWeight(
        w.n, (d.s_block[0] - w.n, d.s_block[1] - w.n), d.q_block
    )


def cohomology_of_kclass(c: KClass, twist=0) -> KClassCohomology:
    """Termwise Bott cohomology of ``c`` twisted by O(twist).

    Dimensions attached to positive and negative multiplicities are
    accumulated in separate tables; per-term outcomes are kept for audit.
    Their :meth:`KClassCohomology.euler_characteristic` is chi(c(twist)).
    """
    positive = {}
    negative = {}
    records = []
    for s, q, mult in c.terms():
        s = (s[0] + twist, s[1] + twist)
        res = _bott(s + q, c.n)
        records.append(TermCohomology(s, q, mult, res))
        if res.vanishes:
            continue
        table = positive if mult > 0 else negative
        table[res.degree] = table.get(res.degree, 0) + abs(mult) * res.dimension
    return KClassCohomology(positive, negative, tuple(records))

