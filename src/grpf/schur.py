"""Schur-functor calculus for the tautological bundles on Gr(2, n).

The decomposition needed downstream is the Cauchy identity for exterior
powers of the cotangent bundle, Wedge^m (S x Q*) = sum over lam of
S_lam(S) x S_lam'(Q*), lam running over partitions of m with at most 2
rows and n-2 columns (Q* the dual of Q).

A class of bundles is a formal integer combination of irreducible
homogeneous bundles, the dict {(s_weight, q_weight): nonzero multiplicity}
keyed by the weight (s, q) of :mod:`grpf.weights`, a pair of dominant
blocks (weights with respect to the dual tautological bundles); n is
len(q_weight) + 2, the same for every term.  :func:`grpf.weights.check_class`
checks all of this once where a class enters.
"""

from __future__ import annotations

import math

from .errors import IntegrityError
from .weights import check_class, weyl_dimension_of_runs


def virtual_rank(c):
    """Rank of a class {(s_weight, q_weight): multiplicity} on Gr(2, n), checked once."""
    _, terms = check_class(c)
    return sum(m * (a1 - a2 + 1) * weyl_dimension_of_runs(q_runs) for a1, a2, q_runs, m in terms)


def cauchy_exterior_cotangent(n, m):
    """Class of Wedge^m of the cotangent bundle of Gr(2, n).

    Every partition of m with at most 2 rows and at most n-2 columns
    contributes one term S_lam(S) x S_lam'(Q dual).  Out-of-range m yields the
    empty class.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    dim = 2 * (n - 2)
    if m < 0 or m > dim:
        return {}
    terms, rank = {}, 0
    for j in range(max(0, m - (n - 2)), m // 2 + 1):
        # lam' for lam = (m - j, j): j columns of height 2, m - 2j of height 1
        s_weight = (-j, -(m - j))
        q_weight = (2,) * j + (1,) * (m - 2 * j) + (0,) * (n - 2 - m + j)
        terms[(s_weight, q_weight)] = 1
        # its rank, as virtual_rank counts it, from the runs of q_weight
        runs = ((2, j), (1, m - 2 * j), (0, n - 2 - m + j))
        rank += (m - 2 * j + 1) * weyl_dimension_of_runs(runs)
    if rank != math.comb(dim, m):
        raise IntegrityError(f"Cauchy rank check failed at n={n}, m={m}")
    return terms
