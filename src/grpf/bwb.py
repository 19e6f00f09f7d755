"""Exact sheaf cohomology of homogeneous bundles on Gr(2, n).

The Bott algorithm: add ``rho``, vanish if the result has a repeated
entry, otherwise sort to dominant order counting inversions; the number
of inversions is the unique cohomological degree and the sorted weight
minus ``rho`` labels the resulting GL(n) representation (with respect to
the dual of the standard one, matching the dual-bundle convention of
:mod:`grpf.weights`).  On Gr(2, n) the shifted q-block is already
strictly decreasing, so the sort is the insertion of two entries.

Weights over a Cauchy q-block (2^j, 1^(m-2j), 0^rest), the q-block of
term j of the Cauchy class of Wedge^m of the cotangent bundle, get a
closed form that builds no length-n tuple (:func:`_bott_cauchy`): their
shifted q-block is 1..n with two gaps.  It serves the Hodge numbers of
sections (twisted Cauchy terms) and the Hom summands of the window
verifiers (the zero q-block, j = m = 0).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add, neg, sub

from .errors import IntegrityError
from .schur import KClass
from .weights import GLWeight, rho, weyl_dimension, weyl_dimension_of_runs


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


@dataclass(frozen=True)
class KClassCohomology:
    """Cohomology of a K-class, positive and negative parts kept apart.

    A signed table would be meaningless as cohomology; consumers that
    need actual dimensions must certify that ``negative`` is empty.
    """

    positive: dict
    negative: dict

    def euler_characteristic(self):
        """Alternating sum of the table: sum of (-1)^d (positive[d] - negative[d])."""
        return sum((-1) ** d * v for d, v in self.positive.items()) - sum(
            (-1) ** d * v for d, v in self.negative.items()
        )


def _bott(weight, n):
    """The Bott algorithm on a Levi-dominant weight tuple, unvalidated.

    After the shift the tail q + rho[2:] is strictly decreasing, so the
    shifted weight is that tail with the two shifted s-entries u1 > u2
    inserted: it has a repeat when u1 or u2 is a tail entry, and its
    inversions are the tail entries above u1 plus those above u2, two
    bisections of the tail.
    """
    shift = rho(n)
    u1 = weight[0] + shift[0]
    u2 = weight[1] + shift[1]
    tail = list(map(add, weight[2:], shift[2:]))
    p1 = bisect_left(tail, -u1, key=neg)
    p2 = bisect_left(tail, -u2, key=neg)
    if (p1 < len(tail) and tail[p1] == u1) or (p2 < len(tail) and tail[p2] == u2):
        return BwbResult(vanishes=True)
    degree = p1 + p2
    if degree > 2 * (n - 2):
        raise IntegrityError(f"degree {degree} exceeds dim Gr(2, {n}) for {weight}")
    tail.insert(p2, u2)
    tail.insert(p1, u1)
    rep = tuple(map(sub, tail, shift))
    return BwbResult(False, degree, rep, weyl_dimension(rep, n))


def _cauchy_gaps(j, m, n):
    """The two entries g1 > g2 of 1..n missing from the shifted Cauchy q-block.

    Cauchy term j of Wedge^m of the cotangent bundle has q-block
    (2^j, 1^(m-2j), 0^(n-2-m+j)); after adding rho[2:] = (n-2, ..., 1) the
    2s fill n..n-j+1, the 1s fill n-j-1..n-m+j and the 0s fill n-m+j-2..1.
    """
    return n - j, n - m + j - 1


def _bott_cauchy(a1, a2, j, m, n):
    """(degree, dimension) of the Bott outcome of (a1, a2 | Cauchy q-block), or None.

    The q-block is that of Cauchy term j of Wedge^m of the cotangent
    bundle (:func:`_cauchy_gaps`); its shifted tail is 1..n without the
    gaps g1 > g2.  The zero q-block is j = m = 0, with gaps n and n - 1.
    The s-block is any a1 >= a2, shifted to u1 = a1 + n > u2 = a2 + n - 1.
    A shifted s-entry u vanishes the weight when it is a tail entry;
    otherwise it lies above n (no tail entry above it), below 1 (all n - 2
    above it) or in a gap g (n - g entries of 1..n above it, one of them
    the gap g1 when g = g2).  The sorted shifted weight is then at most
    five blocks of consecutive integers: entries above n, the pieces of
    1..n between unfilled gaps, entries below 1.  Each block is one run of
    the sorted weight minus rho: an entry above n keeps its a, the pieces
    of 1..n step down by one per unfilled gap from the number of entries
    above n, and an entry below 1 becomes a + n - 2.
    """
    g1, g2 = _cauchy_gaps(j, m, n)
    u1 = a1 + n
    u2 = a2 + n - 1
    if (0 < u1 <= n and u1 != g1 and u1 != g2) or (0 < u2 <= n and u2 != g1 and u2 != g2):
        return None
    runs = []
    below = []
    degree = 0
    for a, u in ((a1, u1), (a2, u2)):
        if u > n:
            runs.append((a, 1))
        elif u < 1:
            below.append((a + n - 2, 1))
            degree += n - 2
        else:
            degree += n - u - (u == g2)
    if degree > 2 * (n - 2):
        raise IntegrityError(
            f"degree {degree} exceeds dim Gr(2, {n}) for {(a1, a2)} over term {(j, m)}"
        )
    value = len(runs)
    top = n
    for g in (g1, g2):
        if g != u1 and g != u2:
            if top > g:
                runs.append((value, top - g))
            value -= 1
            top = g - 1
    if top > 0:
        runs.append((value, top))
    return degree, weyl_dimension_of_runs(runs + below)


def _cauchy_twists(j, m, n, lo, hi):
    """The twists t in lo..hi, ascending, at which Cauchy term j of Wedge^m survives.

    Twisted by O(-t) the term has s-block (-j - t, j - m - t), whose
    outcome is ``_bott_cauchy(-j - t, j - m - t, j, m, n)``; its shifted
    s-entries are g1 - t and g2 - t.  Both lie above n for
    t <= g2 - n - 1, both lie below 1 from t = g1 on, and both fill the
    gaps at t = 0.  Otherwise one entry must fill a gap while the other
    leaves 1..n: only t = g2 - g1 (when g1 + (g1 - g2) > n) and
    t = g1 - g2 (when g1 - g2 >= g2) do so.
    """
    g1, g2 = _cauchy_gaps(j, m, n)
    gap = g1 - g2
    middle = [
        t
        for t, survives in ((-gap, g1 + gap > n), (0, True), (gap, gap >= g2))
        if survives and lo <= t <= hi
    ]
    return [*range(lo, min(hi, g2 - n - 1) + 1), *middle, *range(max(lo, g1), hi + 1)]


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
    accumulated in separate tables, one general Bott run per term.  Their
    :meth:`KClassCohomology.euler_characteristic` is chi(c(twist)).
    """
    positive = {}
    negative = {}
    for s, q, mult in c.terms():
        res = _bott((s[0] + twist, s[1] + twist) + q, c.n)
        if res.vanishes:
            continue
        table = positive if mult > 0 else negative
        table[res.degree] = table.get(res.degree, 0) + abs(mult) * res.dimension
    return KClassCohomology(positive, negative)

