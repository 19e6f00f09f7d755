"""Exact scalar fields and dense multivariate polynomials.

Two coefficient fields are supported: the rationals (elements are
``fractions.Fraction``) and prime fields (elements are ints in [0, p)).
Polynomials are dicts mapping exponent tuples to nonzero coefficients;
the instance sizes here are tiny, so clarity beats sparsity tricks.
"""

from __future__ import annotations

import functools
from fractions import Fraction


@functools.lru_cache(maxsize=64)  # every rank_mod call builds a PrimeField
def is_prime(p):
    """Deterministic Miller-Rabin for the word-sized inputs used here."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q; elements are Fractions."""

    name = "Q"

    def coerce(self, x):
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def to_json(self, a):
        return int(a) if a.denominator == 1 else str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        p = int(p)
        if p == 2 or not is_prime(p):
            raise ValueError(f"need an odd prime, got {p}")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        return int(x) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def to_json(self, a):
        return int(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Poly:
    """Polynomial in ``nvars`` variables u1..u_nvars over a fixed field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = int(nvars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            if not field.is_zero(coeff):
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def const(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: field.coerce(value)})

    @classmethod
    def variable(cls, field, nvars, index, coeff=1):
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {exps: field.coerce(coeff)})

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Top total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"not a Poly: {other!r}")
        if other.field != self.field or other.nvars != self.nvars:
            raise ValueError("polynomial rings differ")

    def __add__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out.get(e, f.zero), c)
        return Poly(f, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Poly(f, self.nvars, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = f.mul(c1, c2)
                out[e] = f.add(out.get(e, f.zero), prod)
        return Poly(f, self.nvars, out)

    def scale(self, value):
        f = self.field
        v = f.coerce(value)
        return Poly(f, self.nvars, {e: f.mul(c, v) for e, c in self.terms.items()})

    def partial(self, index):
        f = self.field
        out = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            de = tuple(x - 1 if i == index else x for i, x in enumerate(e))
            out[de] = f.add(out.get(de, f.zero), f.mul(c, f.coerce(e[index])))
        return Poly(f, self.nvars, out)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(point)}")
        f = self.field
        point = [f.coerce(x) for x in point]
        total = f.zero
        for e, c in self.terms.items():
            val = c
            for x, exp in zip(point, e):
                for _ in range(exp):
                    val = f.mul(val, x)
            total = f.add(total, val)
        return total

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (
                self.field == other.field
                and self.nvars == other.nvars
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(sorted(self.terms.items(), key=repr))))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(
            self.terms.items(), key=lambda t: (-sum(t[0]), t[0])
        ):
            mono = "*".join(
                f"u{i + 1}" + (f"^{x}" if x > 1 else "")
                for i, x in enumerate(e)
                if x
            )
            if not mono:
                bits.append(str(c))
            elif c == self.field.one:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Poly({self.field.name}, {self.nvars} vars, {len(self.terms)} terms)"
