import itertools
import random
import re
from fractions import Fraction

import pytest

from grpf.modp import (
    _powmod,
    _rref,
    _sqrt_mod,
    check_prime,
    coerce,
    inv_mod,
    is_prime,
    nullspace_mod,
    pfaffian_mod,
    rank_mod,
    roots_mod,
)
from grpf.pfaffian import AMap

Q = None  # the modulus that names the rationals


# --- test-side matrices over F_p: random skew ones and an independent determinant

def random_skew_mod(n, p, rng):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randrange(p)
            m[i][j] = x
            m[j][i] = (-x) % p
    return m


def det_mod(rows, p):
    """Determinant over F_p by its own elimination, apart from grpf's row
    reduction: the product of the pivots, negated on each row swap."""
    m = [[x % p for x in row] for row in rows]
    n, det = len(m), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return det % p


def leibniz_det(rows, p):
    """Determinant over F_p as the signed sum over permutations."""
    n, total = len(rows), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j] % p
        total += term
    return total % p


@pytest.mark.parametrize("p", [3, 7, 10007, 2**61 - 1])
def test_det_mod_matches_leibniz(p):
    rng = random.Random(f"det:{p}")
    for n in range(6):
        for _ in range(30):
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            assert det_mod(m, p) == leibniz_det(m, p), (n, m)
            if n > 1:
                m[0][0] = 0  # the first pivot is a row swap
                assert det_mod(m, p) == leibniz_det(m, p), (n, m)
                m[-1] = [(2 * x) % p for x in m[0]]  # a repeated row up to scale
                assert det_mod(m, p) == leibniz_det(m, p) == 0, (n, m)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 10007, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for c in (1, 4, 9, 10001, 10007 * 3):
        assert not is_prime(c)


def test_is_prime_deterministic_range():
    psi_12 = 399165290221 * 798330580441  # strong pseudoprime to bases 2..37
    psi_13 = 3317044064679887385961981  # ... and to 2..41
    assert not is_prime(psi_12)
    assert is_prime(10**24 + 7)
    with pytest.raises(ValueError, match="odd prime"):
        check_prime(psi_12)
    for big in (psi_13, psi_13 + 2, 2**127 - 1):
        with pytest.raises(ValueError, match=str(psi_13)):
            is_prime(big)
        with pytest.raises(ValueError, match=str(psi_13)):
            check_prime(big)


def test_prime_field_ops():
    # F_13 is named by 13: coerce maps into it, reducing sums and products
    assert coerce(7 + 9, 13) == coerce(3, 13) == 3
    assert coerce(5 * 8, 13) == coerce(1, 13) == 1
    assert inv_mod(5, 13) == 8
    assert coerce(-1, 13) == 12
    assert coerce(Fraction(1, 2), 13) == 7
    assert AMap(2, 1, Q, [[-1]]).reduce_mod(13).matrix == ((12,),)
    assert AMap(2, 1, Q, [[Fraction(1, 2)]]).reduce_mod(13).matrix == ((7,),)
    with pytest.raises(ZeroDivisionError, match="vanishes mod 13"):
        coerce(Fraction(1, 26), 13)
    for bad in (12, 2):
        with pytest.raises(ValueError, match=f"need an odd prime, got {bad}"):
            check_prime(bad)
        with pytest.raises(ValueError, match=f"need an odd prime, got {bad}"):
            AMap(2, 1, bad, [[1]])


def test_check_prime_rejects_non_integers():
    # 10007.0 and 3.0 reached is_prime, whose pow(a, d, p) raised a TypeError
    for bad in (10007.0, 3.0, 7.5):
        with pytest.raises(ValueError, match=re.escape(f"prime {bad!r} is not an integer")):
            check_prime(bad)
        with pytest.raises(ValueError, match=re.escape(f"prime {bad!r} is not an integer")):
            AMap(2, 1, bad, [[1]])


@pytest.mark.parametrize("field", [Q, 7], ids=["Q", "F7"])
def test_coerce_refuses_what_is_not_an_int_or_a_fraction(field):
    # a float was truncated over F_p (2.9 -> 2) and taken as its binary
    # fraction over Q, and the string '3' was parsed as 3; the JSON path
    # already refused both, as it refuses bools
    for bad in (1.5, 2.9, 2.0, "3", True, False, None, 1j):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            coerce(bad, field)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            AMap(4, 1, field, [[1, 0, 0, 0, 0, bad]])
    assert coerce(-3, field) == (Fraction(-3) if field is Q else 4)
    assert coerce(Fraction(3, 2), field) == (Fraction(3, 2) if field is Q else 5)


def test_rationals_ops(tmp_path):
    # Q is named by None; its elements are Fractions, written as ints when whole
    assert type(coerce(3, Q)) is Fraction
    assert _rref([[Fraction(2, 3), 1]], Q)[1] == [[1, Fraction(3, 2)]]
    am = AMap(3, 1, Q, [[Fraction(4, 2), Fraction(1, 3), -1]])
    assert am.to_json_dict()["matrix"] == [[2, "1/3", -1]]
    am.save(tmp_path / "a.json")
    assert AMap.load(tmp_path / "a.json").matrix == am.matrix


def test_inv_and_rank_and_det():
    p = 10007
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 7)
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        d = det_mod(m, p)
        assert (rank_mod(m, p) == n) == (d != 0)
    # a row swap flips the sign of the pivot product
    assert det_mod([[0, 2], [3, 5]], 7) == -6 % 7
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
    assert _rref(q, Q) == (2, [[1, 0], [0, 1]], [0, 1])
    assert _rref(m, 7) == (1, [[1, 2], [0, 0]], [0])
    assert rank_mod(m, 7) == 1 and rank_mod(m, 11) == 2
    half = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert _rref(half, Q) == (1, [[1, Fraction(2, 3)], [0, 0]], [0])
    assert _rref([[0, 2], [3, 5]], 7) == (2, [[1, 0], [0, 1]], [0, 1])


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
    # shifts a close to p give the largest packed slots; 3.3e24 - 1 is the
    # largest prime below 3.3e24, and d = 65 is the odd line's degree at n = 13
    def mulmod(u, v, f, p):
        prod = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] += x * y
        for k in range(len(prod) - 1, len(f) - 2, -1):  # f is monic
            c = prod[k] % p
            for i, y in enumerate(f):
                prod[k - len(f) + 1 + i] -= c * y
        return ([x % p for x in prod[: len(f) - 1]] + [0] * len(f))[: len(f) - 1]

    def powmod(a, e, f, p):  # right-to-left square and multiply
        out, base = mulmod([1], [1], f, p), mulmod([a, 1], [1], f, p)
        while e:
            if e & 1:
                out = mulmod(out, base, f, p)
            base, e = mulmod(base, base, f, p), e >> 1
        return out

    big = 3299999999999999999999999
    assert big == 33 * 10**23 - 1 and is_prime(big)
    rng = random.Random(4)
    for p in (3, 101, 10007, 2**61 - 1, big):
        for d in (1, 2, 5, 18, 65):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            a = p - 1 - rng.randrange(2)
            expected = [1]
            for e in range(40):
                assert _powmod(a, e, f, p) == (expected + [0] * d)[:d]
                expected = mulmod(expected, [a, 1], f, p)
            # the exponents that roots_mod takes, x^p and (x + a)^((p-1)/2)
            assert _powmod(0, p, f, p) == powmod(0, p, f, p), (p, d)
            for shift in (1, a):
                assert _powmod(shift, (p - 1) // 2, f, p) == powmod(shift, (p - 1) // 2, f, p)


def test_roots_mod_large_primes():
    for p in (3037000507, 2**61 - 1, 2**127 - 1):
        roots = [0, 1, 5, p - 1, 123456789 % p, 2**40 % p]
        coeffs = from_roots(roots + [5, p - 1], 7, p)
        assert roots_mod(coeffs, p) == sorted(set(roots))
        # an irreducible quadratic: x^2 - c for a non-residue c
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        assert roots_mod([-c, 0, 1], p) == []


@pytest.mark.parametrize("p, e", [(7, 1), (13, 2), (41, 3), (17, 4), (97, 5), (193, 6)])
def test_sqrt_mod_matches_brute_force(p, e):
    # e is the 2-adic valuation of p - 1, the number of Tonelli-Shanks levels
    assert (p - 1) % 2**e == 0 and (p - 1) // 2**e % 2 == 1
    squares = {}
    for x in range(1, p):
        squares.setdefault(x * x % p, set()).add(x)
    assert len(squares) == (p - 1) // 2
    for a, roots in squares.items():
        assert _sqrt_mod(a, p) in roots, (p, a)


@pytest.mark.parametrize(
    "p, e",
    [(65537, 16), (998244353, 23), (2013265921, 27), (1000000009, 3),
     (18446744073709551557, 2)],
)
def test_sqrt_mod_of_random_squares(p, e):
    assert (p - 1) % 2**e == 0 and (p - 1) // 2**e % 2 == 1
    rng = random.Random(p)
    for _ in range(200):
        a = pow(rng.randrange(1, p), 2, p)
        r = _sqrt_mod(a, p)
        assert 0 <= r < p and r * r % p == a


@pytest.mark.parametrize("p", [3, 5, 7, 13, 41, 97, 193, 257])
def test_roots_mod_of_quadratics_matches_brute_force(p):
    # two distinct linear factors reach the quadratic formula straight from
    # gcd(f, x^p - x); a double root leaves one linear factor there
    rng = random.Random(f"quadratic:{p}")
    pairs = list(itertools.combinations(range(p), 2))
    for r1, r2 in pairs if p < 50 else rng.sample(pairs, 300):
        coeffs = from_roots([r1, r2], rng.randrange(1, p), p)
        assert roots_mod(coeffs, p) == [r1, r2] == brute_roots(coeffs, p)
    for r in range(p):
        coeffs = from_roots([r, r], rng.randrange(1, p), p)
        assert roots_mod(coeffs, p) == [r] == brute_roots(coeffs, p)


@pytest.mark.parametrize("p", [2**61 - 1, 3317044064679887385961783])
def test_roots_mod_of_quadratics_at_large_primes(p):
    rng = random.Random(f"quadratic:{p}")
    c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
    for _ in range(50):
        r1 = rng.randrange(p)
        r2 = (r1 + rng.randrange(1, p)) % p
        lead = rng.randrange(1, p)
        g = from_roots([r1, r2], lead, p)
        four = [r1, r2, (r1 + r2) % p, 0]  # splits may leave quadratics
        for roots, coeffs in (
            ([r1, r2], g),
            ([r1], from_roots([r1, r1], lead, p)),
            # (x^2 - c) g: the first gcd leaves g, beside the irreducible x^2 - c
            ([r1, r2], [(b - c * a) % p for a, b in zip(g + [0, 0], [0, 0] + g)]),
            (four, from_roots(four, lead, p)),
        ):
            assert roots_mod(coeffs, p) == sorted(set(roots))
            for x in roots:
                assert sum(a * pow(x, i, p) for i, a in enumerate(coeffs)) % p == 0


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


def singular_skew_mod(n, p, rng):
    """C S C^T for a random skew S of size n - 2: a skew matrix of rank <= n - 2."""
    c = [[rng.randrange(p) for _ in range(n - 2)] for _ in range(n)]
    s = random_skew_mod(n - 2, p, rng)
    cs = [[sum(x * y for x, y in zip(row, col)) for col in zip(*s)] for row in c]
    return [[sum(x * y for x, y in zip(a, b)) % p for b in c] for a in cs]


def test_pfaffian_mod_against_matchings():
    rng = random.Random(1)
    for p in (3, 10007, 2**61 - 1, 3317044064679887385961783):
        for n in (2, 4, 6, 8):
            for _ in range(20):
                m = random_skew_mod(n, p, rng)
                assert pfaffian_mod(m, p) == pfaffian_by_matchings(m, p)
                # a zero A[0][1] makes the first pivot a swap
                m[0][1] = m[1][0] = 0
                assert pfaffian_mod(m, p) == pfaffian_by_matchings(m, p)
                if n > 2:
                    singular = singular_skew_mod(n, p, rng)
                    assert pfaffian_mod(singular, p) == pfaffian_by_matchings(singular, p) == 0


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
