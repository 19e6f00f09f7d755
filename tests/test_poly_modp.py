import random
from fractions import Fraction

import pytest

from grpf.modp import (
    _powmod,
    _rref,
    det_mod,
    inv_mod,
    nullspace_mod,
    pfaffian_mod,
    random_skew_mod,
    rank_mod,
    roots_mod,
)
from grpf.poly import Poly, PrimeField, Rationals, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 10007, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for c in (1, 4, 9, 10001, 10007 * 3):
        assert not is_prime(c)


def test_prime_field_ops():
    f = PrimeField(13)
    assert f.add(7, 9) == 3
    assert f.mul(5, 8) == 1
    assert f.inv(5) == 8
    assert f.coerce(-1) == 12
    assert f.coerce(Fraction(1, 2)) == 7
    with pytest.raises(ValueError):
        PrimeField(12)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_rationals_ops():
    f = Rationals()
    assert f.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert f.to_json(Fraction(4, 2)) == 2
    assert f.to_json(Fraction(1, 3)) == "1/3"


def test_poly_arithmetic_and_eval():
    f = Rationals()
    u1 = Poly.variable(f, 2, 0)
    u2 = Poly.variable(f, 2, 1)
    p = (u1 + u2) * (u1 - u2)
    q = u1 * u1 - u2 * u2
    assert p == q
    assert p.evaluate((3, 2)) == 5
    assert p.total_degree() == 2
    assert (p - q).is_zero()
    assert (p - q).total_degree() == -1


def test_poly_partial_derivatives():
    f = PrimeField(101)
    u1 = Poly.variable(f, 2, 0)
    u2 = Poly.variable(f, 2, 1)
    p = u1 * u1 * u2 + u2.scale(3)
    assert p.partial(0) == (u1 * u2).scale(2)
    assert p.partial(1) == u1 * u1 + Poly.const(f, 2, 3)


def test_poly_str_readable():
    f = Rationals()
    u1 = Poly.variable(f, 2, 0)
    u2 = Poly.variable(f, 2, 1)
    assert str(u1 * u1 + u2.scale(2)) == "u1^2 + 2*u2"
    assert str(Poly.zero(f, 2)) == "0"


def test_inv_and_rank_and_det():
    p = 10007
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 7)
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        d = det_mod(m, p)
        assert (rank_mod(m, p) == n) == (d != 0)
    assert inv_mod(3, p) * 3 % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, p)


def test_nullspace_dimensions():
    p = 101
    m = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace_mod(m, p)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


def test_rref_over_q_and_fp():
    # det = 7: full rank over Q, rank 1 over F_7
    m = [[1, 2], [3, 13]]
    q = [[Fraction(x) for x in row] for row in m]
    assert _rref(q, Rationals()) == (2, [[1, 0], [0, 1]], [0, 1])
    assert _rref(m, PrimeField(7)) == (1, [[1, 2], [0, 0]], [0])
    assert rank_mod(m, 7) == 1 and rank_mod(m, 11) == 2
    half = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert _rref(half, Rationals()) == (1, [[1, Fraction(2, 3)], [0, 0]], [0])


# --- roots of univariate polynomials over F_p --------------------------------

def brute_roots(coeffs, p):
    if not any(c % p for c in coeffs):
        return []
    return [x for x in range(p)
            if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0]


def from_roots(roots, lead, p):
    """Ascending coefficients of lead * prod (x - r)."""
    coeffs = [lead % p]
    for r in roots:
        coeffs = [(lo - r * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_roots_mod_matches_brute_force(p):
    rng = random.Random(p)
    for d in range(25):  # includes degree >= p
        for _ in range(8):
            coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
            assert roots_mod(coeffs, p) == brute_roots(coeffs, p), coeffs
        # repeated roots, often the root 0, and trailing zero coefficients
        roots = [rng.randrange(p) for _ in range(rng.randrange(d + 1))]
        roots += roots[: rng.randrange(len(roots) + 1)] + [0] * rng.randrange(3)
        coeffs = from_roots(roots, rng.randrange(1, p), p) + [0] * rng.randrange(3)
        assert roots_mod(coeffs, p) == sorted(set(roots)) == brute_roots(coeffs, p)
    # x^p - x vanishes on all of F_p; x^(p-1) - 1 everywhere but 0
    assert roots_mod([0, -1] + [0] * (p - 2) + [1], p) == list(range(p))
    assert roots_mod([-1] + [0] * (p - 2) + [1], p) == list(range(1, p))
    assert roots_mod([0, 0, 0, 2], p) == [0]
    for zero_or_constant in ([], [0], [0, 0, 0], [p], [3], [3, 0, p]):
        assert roots_mod(zero_or_constant, p) == []


def test_powmod_matches_naive_product():
    # shifts a close to p give the largest packed slots
    def mulmod(u, v, f, p):
        prod = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] += x * y
        for k in range(len(prod) - 1, len(f) - 2, -1):  # f is monic
            c = prod[k]
            for i, y in enumerate(f):
                prod[k - len(f) + 1 + i] -= c * y
        return [x % p for x in prod[: len(f) - 1]]

    rng = random.Random(4)
    for p in (3, 101, 10007, 2**61 - 1):
        for d in (1, 2, 5, 18):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            a = p - 1 - rng.randrange(2)
            expected = [1]
            for e in range(40):
                assert _powmod(a, e, f, p) == (expected + [0] * d)[:d]
                expected = mulmod(expected, [a, 1], f, p)


def test_roots_mod_large_primes():
    for p in (3037000507, 2**61 - 1, 2**127 - 1):
        roots = [0, 1, 5, p - 1, 123456789 % p, 2**40 % p]
        coeffs = from_roots(roots + [5, p - 1], 7, p)
        assert roots_mod(coeffs, p) == sorted(set(roots))
        # an irreducible quadratic: x^2 - c for a non-residue c
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        assert roots_mod([-c, 0, 1], p) == []


# --- independent Pfaffian oracle: perfect matchings ---------------------------

def matchings_with_sign(indices):
    """(sign, pairs) for all perfect matchings, by first-index expansion."""
    if not indices:
        yield 1, []
        return
    i0 = indices[0]
    for t in range(1, len(indices)):
        rest = indices[1:t] + indices[t + 1 :]
        sign = (-1) ** (t - 1)
        for s, pairs in matchings_with_sign(rest):
            yield sign * s, [(i0, indices[t])] + pairs


def pfaffian_by_matchings(m, p):
    n = len(m)
    total = 0
    for sign, pairs in matchings_with_sign(tuple(range(n))):
        prod = sign
        for i, j in pairs:
            prod = prod * m[i][j] % p
        total = (total + prod) % p
    return total % p


def test_pfaffian_mod_against_matchings():
    p = 10007
    rng = random.Random(1)
    for n in (2, 4, 6, 8):
        for _ in range(20):
            m = random_skew_mod(n, p, rng)
            assert pfaffian_mod(m, p) == pfaffian_by_matchings(m, p)


def test_pfaffian_mod_odd_and_empty():
    p = 101
    assert pfaffian_mod([], p) == 1
    assert pfaffian_mod([[0]], p) == 0


def test_pfaffian_squared_is_det_mod():
    p = 10007
    rng = random.Random(2)
    for n in (4, 6, 8, 10, 12):
        for _ in range(10):
            m = random_skew_mod(n, p, rng)
            assert pfaffian_mod(m, p) ** 2 % p == det_mod(m, p)


def test_skew_rank_is_even():
    p = 10007
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 9)
        m = random_skew_mod(n, p, rng)
        assert rank_mod(m, p) % 2 == 0
