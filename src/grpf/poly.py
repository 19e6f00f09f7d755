"""Dense multivariate polynomials over Q or F_p, and the primes that name F_p.

A coefficient field is named by its modulus: ``None`` for Q, whose
elements are ``fractions.Fraction``, or an odd prime p for F_p, whose
elements are ints in [0, p).  The prime is checked once, where it enters
(:func:`check_prime`); inside, arithmetic is plain ``+`` and ``*``, and a
polynomial reduces its coefficients mod p once, when it is built.
Polynomials are dicts mapping exponent tuples to nonzero coefficients;
the instance sizes here are tiny, so clarity beats sparsity tricks.
"""

from __future__ import annotations

from fractions import Fraction

from .modp import inv_mod


def is_prime(p):
    """Miller-Rabin to the prime bases up to 41, exact below their least
    strong pseudoprime 3317044064679887385961981; larger p raise ValueError."""
    if p >= 3317044064679887385961981:
        raise ValueError(f"primality is decided only below 3317044064679887385961981, got {p}")
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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


def check_prime(p):
    """The modulus p of F_p, once it is known to be an odd prime; else ValueError."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return p


def coerce(x, p):
    """The int or Fraction x as an element of Q (p None) or of F_p."""
    if p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
        return x.numerator * inv_mod(x.denominator, p) % p
    return int(x) % p


class Poly:
    """Polynomial in ``nvars`` variables u1..u_nvars over Q (p None) or F_p."""

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p, nvars, terms=None):
        self.p = p
        self.nvars = int(nvars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(int, exps))
            if len(exps) != self.nvars or min(exps, default=0) < 0:
                raise ValueError(f"bad exponent tuple {exps}")
            if p is not None:
                coeff %= p
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, p, nvars):
        return cls(p, nvars)

    @classmethod
    def const(cls, p, nvars, value):
        return cls(p, nvars, {(0,) * nvars: coerce(value, p)})

    @classmethod
    def variable(cls, p, nvars, index, coeff=1):
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(p, nvars, {exps: coerce(coeff, p)})

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
        if other.p != self.p or other.nvars != self.nvars:
            raise ValueError("polynomial rings differ")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.p, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.p, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.p, self.nvars, out)

    def scale(self, value):
        v = coerce(value, self.p)
        return Poly(self.p, self.nvars, {e: c * v for e, c in self.terms.items()})

    def partial(self, index):
        out = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            de = tuple(x - 1 if i == index else x for i, x in enumerate(e))
            out[de] = out.get(de, 0) + c * e[index]
        return Poly(self.p, self.nvars, out)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(point)}")
        p = self.p
        point = [coerce(x, p) for x in point]
        total = coerce(0, p)
        for e, c in self.terms.items():
            for x, exp in zip(point, e):
                c *= x**exp
            total += c
        return total if p is None else total % p

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (
                self.p == other.p
                and self.nvars == other.nvars
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.nvars, tuple(sorted(self.terms.items(), key=repr))))

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
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Poly(p={self.p}, {self.nvars} vars, {len(self.terms)} terms)"
