"""Schur-functor calculus for the tautological bundles on Gr(2, n).

The two decompositions needed downstream:

* the rank-2 Clebsch-Gordan rule Sym^l x Sym^l' = sum_i Sym^{l+l'-2i} det^i,
* the Cauchy identity for exterior powers of the cotangent bundle
  Wedge^m (S x Q*) = sum over lam of S_lam(S) x S_lam'(Q*), lam running over
  partitions of m with at most 2 rows and n-2 columns (Q* the dual of Q).

:class:`KClass` carries formal integer combinations of irreducible
homogeneous bundles; each term is keyed by the pair of dominant blocks of
:class:`~grpf.weights.GLWeight` (weights with respect to the dual
tautological bundles).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import DominanceError, IntegrityError, RankMismatchError
from .weights import weyl_dimension


class SchurTerm(NamedTuple):
    s_weight: tuple[int, int]
    q_weight: tuple[int, ...]
    multiplicity: int


class KClass:
    """Normalized formal integer combination of irreducible bundles.

    Terms with zero multiplicity are dropped and like terms merged on every
    operation, so equality and virtual ranks are well defined.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        clean = {}
        for key, mult in (terms or {}).items():
            s, q = key
            s = tuple(int(x) for x in s)
            q = tuple(int(x) for x in q)
            if len(s) != 2 or s[0] < s[1]:
                raise DominanceError(f"bad s_weight {s}")
            if len(q) != self.n - 2 or any(
                a < b for a, b in zip(q, q[1:])
            ):
                raise DominanceError(f"bad q_weight {q} for n={self.n}")
            mult = int(mult)
            if mult:
                clean[(s, q)] = clean.get((s, q), 0) + mult
        self._terms = {k: v for k, v in sorted(clean.items()) if v}

    @classmethod
    def trivial(cls, n):
        return cls(n, {((0, 0), (0,) * (n - 2)): 1})

    @classmethod
    def line(cls, n, t):
        """The line bundle O(t)."""
        return cls(n, {((t, t), (0,) * (n - 2)): 1})

    @classmethod
    def tangent(cls, n):
        """The tangent bundle Hom(S, Q) of Gr(2, n)."""
        return cls(n, {((1, 0), (0,) * (n - 3) + (-1,)): 1})

    def terms(self):
        """Deterministically ordered list of :class:`SchurTerm`."""
        return [SchurTerm(s, q, m) for (s, q), m in self._terms.items()]

    def _check(self, other):
        if not isinstance(other, KClass):
            raise TypeError(f"not a KClass: {other!r}")
        if other.n != self.n:
            raise RankMismatchError(f"mixed ranks {self.n} and {other.n}")

    def __add__(self, other):
        self._check(other)
        merged = Counter(self._terms)
        merged.update(other._terms)
        return KClass(self.n, merged)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return KClass(self.n, {k: c * v for k, v in self._terms.items()})

    def tensor_by_line(self, t):
        """Twist by O(t): add t to both entries of every s_weight."""
        return KClass(
            self.n,
            {
                ((s[0] + t, s[1] + t), q): m
                for (s, q), m in self._terms.items()
            },
        )

    def virtual_rank(self):
        total = 0
        for (s, q), m in self._terms.items():
            total += m * (s[0] - s[1] + 1) * weyl_dimension(q, self.n - 2)
        return total

    def is_effective(self):
        return all(m > 0 for m in self._terms.values())

    def __eq__(self, other):
        if isinstance(other, KClass):
            return self.n == other.n and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, tuple(self._terms.items())))

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        return f"KClass(n={self.n}, {len(self._terms)} terms)"


def clebsch_gordan_rank2(l, lp):
    """Decompose Sym^l x Sym^l' of a rank-2 bundle.

    Returns (exponent, det-power) pairs; every multiplicity is 1.
    """
    if l < 0 or lp < 0:
        raise ValueError(f"need l, l' >= 0, got {l}, {lp}")
    return [(l + lp - 2 * i, i) for i in range(min(l, lp) + 1)]


def cauchy_exterior_cotangent(n, m):
    """K-class of Wedge^m of the cotangent bundle of Gr(2, n).

    Every partition of m with at most 2 rows and at most n-2 columns
    contributes one term S_lam(S) x S_lam'(Q dual).  Out-of-range m yields the
    empty class.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    dim = 2 * (n - 2)
    if m < 0 or m > dim:
        return KClass(n, {})
    terms = {}
    for j in range(max(0, m - (n - 2)), m // 2 + 1):
        # lam' for lam = (m - j, j): j columns of height 2, m - 2j of height 1
        s_weight = (-j, -(m - j))
        q_weight = (2,) * j + (1,) * (m - 2 * j) + (0,) * (n - 2 - m + j)
        terms[(s_weight, q_weight)] = 1
    kc = KClass(n, terms)
    if kc.virtual_rank() != math.comb(dim, m):
        raise IntegrityError(f"Cauchy rank check failed at n={n}, m={m}")
    return kc
