"""Model bookkeeping: parameters, dimensions, trichotomies and window sets.

A model is a pair (n, k): V of dimension n, a k-dimensional space U of
2-forms on V.  The two associated varieties are a codimension-k linear
section of Gr(2, n) and the degeneracy locus of the family of 2-forms
inside P(U), which is a linear section of the Pfaffian variety.

A window is a frozenset of labels (l, m) naming the bundles
Sym^l S (det S)^m used by the restriction functors: a large one adapted
to the Grassmannian side and a smaller one adapted to the Pfaffian side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IntegrityError, ParityError
from .weights import _integer


@dataclass(frozen=True)
class ModelParams:
    """Dimensions (n, k) of the pair of vector spaces V and U.

    k = 0 is allowed as the degenerate "no section taken" case; the
    Pfaffian-side variety is then empty.
    """

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if not 0 <= self.k <= math.comb(self.n, 2):
            raise ValueError(
                f"need 0 <= k <= C(n,2) = {math.comb(self.n, 2)}, got k={self.k}"
            )

    @property
    def dim_y1(self):
        """Dimension 2(n - 2) - k of the linear section; negative when it is empty."""
        return 2 * (self.n - 2) - self.k


def half_rank(n):
    """The symmetric-power cutoff L: n/2 for even n, (n-1)/2 for odd."""
    return n // 2


def rank_drop_codim(n):
    """Ambient codimension of the first degeneracy locus in P(U)."""
    return 1 if n % 2 == 0 else 3


def _variety_type(index):
    """The type of a section whose canonical class is -index times the hyperplane class."""
    if index > 0:
        return "Fano"
    return "CalabiYau" if index == 0 else "GeneralType"


def theorem_range(n, k):
    """The numerical hypotheses of the embedding theorem."""
    if n % 2 == 1:
        return k <= min(n, 10)
    return k <= min(n // 2, 6)


def window_inclusion_closed_form(n, k):
    """Closed-form test for the Pfaffian-side window to sit in the other."""
    return k <= n if n % 2 == 1 else k <= n // 2


def classify(params: ModelParams):
    """The ``classify`` report of (n, k), a dict of nine fields.

    ``dim_y1`` and ``dim_y2`` are the dimensions of the two sections, and
    ``y1_empty`` and ``y2_empty`` say they are negative.  ``y1_type`` and
    ``y2_type`` are "Fano", "CalabiYau" or "GeneralType" by the sign of
    the index: n - k for Y1, and for Y2 k - n/2 (even n) or k - n (odd n).
    ``y2_smoothable`` is k <= 6 (even n) or k <= 10 (odd n), and
    ``theorem_applies`` and ``window_inclusion`` are :func:`theorem_range`
    and :func:`window_inclusion_closed_form`.
    """
    n, k = params.n, params.k
    dim_y2 = k - 1 - rank_drop_codim(n)
    return {
        "dim_y1": params.dim_y1,
        "dim_y2": dim_y2,
        "y1_type": _variety_type(n - k),
        "y2_type": _variety_type(k - (n // 2 if n % 2 == 0 else n)),
        "y1_empty": params.dim_y1 < 0,
        "y2_empty": dim_y2 < 0,
        "y2_smoothable": k <= 6 if n % 2 == 0 else k <= 10,
        "theorem_applies": theorem_range(n, k),
        "window_inclusion": window_inclusion_closed_form(n, k),
    }


def pfaffian_stratum_codim(n, r):
    """Codimension of {rank <= r} in the space of skew forms on V.

    Equals C(n - r, 2).  The singular locus of the Pfaffian variety is the
    r = n - 4 (n even) or r = n - 5 (n odd) stratum, of ambient codimension
    6 and 10 respectively.  Note this is codimension in the ambient
    projective space of 2-forms, not inside the Pfaffian variety itself.
    """
    if r % 2 != 0:
        raise ParityError(f"skew forms have even rank, got r={r}")
    if not 0 <= r <= n - 1:
        raise ValueError(f"need 0 <= r <= n-1, got r={r}")
    return math.comb(n - r, 2)


def grassmannian_window(n):
    """The window adapted to the Grassmannian side.

    For odd n all (l, m) with l < L and m < n; for even n the top row
    l = L - 1 is restricted to m < n/2.
    """
    L = half_rank(n)
    if n % 2 == 1:
        return frozenset((l, m) for l in range(L) for m in range(n))
    labels = [(l, m) for l in range(L - 1) for m in range(n)]
    labels += [(L - 1, m) for m in range(n // 2)]
    return frozenset(labels)


def pfaffian_window(n, k):
    """The window adapted to the Pfaffian side: l < L and m < k."""
    L = half_rank(n)
    return frozenset((l, m) for l in range(L) for m in range(k))


def window_sets(params: ModelParams):
    """Both windows plus their inclusion, tested two independent ways.

    The literal subset test and the closed-form inequality must agree;
    disagreement would mean a bug and raises.
    """
    s = grassmannian_window(params.n)
    t = pfaffian_window(params.n, params.k)
    literal = t <= s
    closed = window_inclusion_closed_form(params.n, params.k)
    if literal != closed:
        raise IntegrityError(
            f"window inclusion mismatch at (n,k)=({params.n},{params.k}): "
            f"subset test {literal}, closed form {closed}"
        )
    return s, t, literal


def orthogonal_rectangle(params: ModelParams) -> frozenset:
    """Labels (l, m) whose whole twist range (l, m..m+k) stays in the window.

    These are the bundles orthogonal to the Pfaffian-side subcategory; the
    set is computed by the literal membership test.
    """
    s = grassmannian_window(params.n)
    return frozenset(
        (l, m) for (l, m) in s if all((l, m + t) in s for t in range(params.k + 1))
    )
