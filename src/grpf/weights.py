"""Weight combinatorics for GL(n): parabolic weights and dimensions.

Conventions fixed here and shared by every other module:

* The Bott algorithm shifts by rho = ``(n, n-1, ..., 1)``, the strictly
  decreasing vector of length n.
* The weight of an irreducible homogeneous bundle on Gr(2, V), dim V = n,
  is the pair of int tuples (s, q), checked by :func:`check_weight`:
  dominant blocks of lengths 2 and n - 2 for the Levi subgroup
  GL(2) x GL(n-2), whose concatenation is the GL(n) weight fed to Bott.
  Both blocks are taken with respect to the *duals* of the tautological
  sub- and quotient bundles, so O(1) = det(S dual) is ``s = (1, 1)`` with
  zero tail, and the bundle Sym^l S (det S)^m is ``s = (-m, -l-m)``.
* Entries may be negative (duals and twists produce them); only dominance
  within each block is enforced.  All arithmetic is exact.
* A polynomial in q is the tuple of its coefficients, indexed by degree.
"""

from __future__ import annotations

import math
import operator
from itertools import groupby

from .errors import DominanceError, IntegrityError, InvalidRankError


def _integer(x, what):
    """x as an int; 1.5, Fraction(3, 2) or 2.0 raise ValueError, not truncate."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def _integers(entries, what):
    """The entries as ints, each checked by :func:`_integer`."""
    entries = tuple(entries)
    try:
        return tuple(map(operator.index, entries))
    except TypeError:  # name the first entry that is not an integer
        what += " entry"
        return tuple(_integer(x, what) for x in entries)


def check_weight(n, s, q):
    """(n, s, q) with every entry an int, checked as the weight (s | q) on Gr(2, n).

    n >= 3, ``s`` is an ordered pair (a1 >= a2) and ``q`` a weakly
    decreasing tuple of length n - 2; each violation raises a ValueError
    subclass naming it.
    """
    n = _integer(n, "n")
    if n < 3:
        raise InvalidRankError(f"need n >= 3, got n={n}")
    s, q = _integers(s, "s_block"), _integers(q, "q_block")
    if len(s) != 2:
        raise ValueError(f"s_block must have length 2: {s}")
    if len(q) != n - 2:
        raise ValueError(f"q_block must have length n-2={n - 2}: {q}")
    if s[0] < s[1]:
        raise DominanceError(f"s_block not dominant: {s}")
    if q != tuple(sorted(q, reverse=True)):
        raise DominanceError(f"q_block not dominant: {q}")
    return n, s, q


def check_class(c, n=None):
    """(n, terms) of the class c = {(s, q): multiplicity}, each term checked once.

    Each term, checked by :func:`check_weight` against n (by default the first
    term's), comes back as (a1, a2, (value, length) runs of q, nonzero int multiplicity).
    """
    sizes = {len(q) + 2 for _, q in c}
    if n is None and len(sizes) > 1:
        raise ValueError(f"class mixes terms of Gr(2, n) for n in {sorted(sizes)}")
    terms = []
    for (s, q), mult in c.items():
        n, (a1, a2), q = check_weight(len(q) + 2 if n is None else n, s, q)
        mult = _integer(mult, "multiplicity")
        if not mult:
            raise ValueError(f"multiplicity of {(s, q)} is zero")
        terms.append((a1, a2, [(b, len(list(group))) for b, group in groupby(q)], mult))
    return n, terms


def weyl_dimension_of_runs(runs):
    """Weyl dimension of the dominant weight written as (value, length) runs.

    A pair of equal entries contributes 1.  A run of length r starting at a
    with value x and a later run of length s starting at b with value y
    contribute prod_{i<r, j<s} (c + h + 1 + i + j) / (h + 1 + i + j), with
    c = x - y and h = b - a - r entries between them.  That is
    prod_{i<r, j<s, l<c} (h + 2 + i + j + l) / (h + 1 + i + j + l),
    symmetric in r, s and c; with lo <= mid <= hi those three sorted, it is
    prod perm(v + hi, mid) / perm(v, mid) over h + mid <= v < h + mid + lo.
    Values must be weakly decreasing; runs may be empty.
    """
    num = 1
    den = 1
    a = 0
    for p, (x, r) in enumerate(runs):
        b = a + r
        for y, s in runs[p + 1:]:
            lo, mid, hi = sorted((r, s, x - y))
            h = b - a - r
            for v in range(h + mid, h + mid + lo):
                num *= math.perm(v + hi, mid)
                den *= math.perm(v, mid)
            b += s
        a += r
    dim, rem = divmod(num, den)
    if rem:
        raise IntegrityError(f"Weyl product not integral for runs {runs}")
    return dim


def gaussian_binomial(n, k):
    """Coefficient tuple of the Gaussian binomial [n choose k]_q."""
    if not 0 <= k <= n:
        return (0,)
    # row[j] = [a choose j]_q, stepped from a = 0 to n by the q-Pascal rule
    # [a j] = [a-1 j-1] + q^j [a-1 j]; j runs down so row[j-1] is still a-1
    row = [(1,)] + [()] * k
    for a in range(1, n + 1):
        for j in range(min(a, k), 0, -1):
            out = list(row[j - 1]) + [0] * (j * (a - j) + 1 - len(row[j - 1]))
            for i, c in enumerate(row[j]):
                out[i + j] += c
            row[j] = tuple(out)
    return row[k]


def grassmannian_poincare(n):
    """Poincare polynomial of Gr(2, n) as a tuple: coefficient p is h^{p,p}.

    All off-diagonal Hodge numbers of the Grassmannian are zero; consumers
    rely on that convention.
    """
    if n < 3:
        raise InvalidRankError(f"need n >= 3, got n={n}")
    poly = gaussian_binomial(n, 2)
    if sum(poly) != math.comb(n, 2):
        raise IntegrityError(f"Schubert cell count failed for n={n}")
    if poly != poly[::-1]:
        raise IntegrityError(f"Poincare polynomial not palindromic for n={n}: {poly}")
    return poly
