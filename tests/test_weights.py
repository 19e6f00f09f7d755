import math
import random

import pytest

from grpf.errors import DominanceError, InvalidRankError
from grpf.weights import (
    GLWeight,
    PoincarePolynomial,
    gaussian_binomial,
    grassmannian_poincare,
    rho,
    weyl_dimension,
    weyl_dimension_of_runs,
)


def test_rho_values():
    assert rho(4) == (4, 3, 2, 1)
    assert rho(3) == (3, 2, 1)
    assert rho(10) == (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)


def test_rho_shape():
    for n in range(3, 20):
        r = rho(n)
        assert r[0] == n and r[-1] == 1
        assert all(a > b for a, b in zip(r, r[1:]))


def test_rho_rejects_small_rank():
    with pytest.raises(InvalidRankError):
        rho(2)


def test_weyl_dimension_trivial_and_standard():
    assert weyl_dimension((0,) * 10, 10) == 1
    assert weyl_dimension((1,) + (0,) * 9, 10) == 10


def test_weyl_dimension_wedge_two():
    # oracle: dim of the second exterior power is a binomial coefficient
    assert weyl_dimension((1, 1) + (0,) * 8, 10) == math.comb(10, 2)
    for n in range(3, 12):
        assert weyl_dimension((1, 1) + (0,) * (n - 2), n) == math.comb(n, 2)


def test_weyl_dimension_sym_powers():
    # oracle: dim Sym^k of the standard representation is C(n+k-1, k)
    for n in range(3, 8):
        for k in range(5):
            w = (k,) + (0,) * (n - 1)
            assert weyl_dimension(w, n) == math.comb(n + k - 1, k)


def test_weyl_dimension_determinant_shift_invariance():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(3, 9)
        w = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
        c = rng.randint(-5, 5)
        shifted = [x + c for x in w]
        assert weyl_dimension(w, n) == weyl_dimension(shifted, n)


def direct_weyl_product(w):
    """prod_{i<j} (w_i - w_j + j - i) / (j - i), pair by pair."""
    num = den = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def test_weyl_dimension_by_runs_matches_direct_product():
    # few distinct values over many entries give long runs of equal entries
    rng = random.Random(11)
    for trial in range(3000):
        n = rng.randrange(3, 41)
        values = [rng.randint(-40, 40) for _ in range(rng.randint(1, n))]
        w = sorted((rng.choice(values) for _ in range(n)), reverse=True)
        assert weyl_dimension(w, n) == direct_weyl_product(w), w


def test_weyl_dimension_of_runs_allows_empty_and_split_runs():
    w = (3, 3, 1, 0, 0, 0, -2)
    assert weyl_dimension_of_runs([(3, 2), (1, 1), (0, 3), (-2, 1)]) == direct_weyl_product(w)
    assert weyl_dimension_of_runs([(3, 1), (3, 1), (2, 0), (1, 1), (0, 1), (0, 2), (-2, 1)]) == (
        direct_weyl_product(w)
    )


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(DominanceError):
        weyl_dimension((0, 1, 0), 3)


def test_gaussian_binomial_hand_expansions():
    # (q^4-1)(q^3-1) / ((q^2-1)(q-1)) = 1 + q + 2q^2 + q^3 + q^4
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 2) == (1, 1, 1)
    assert gaussian_binomial(3, 1) == (1, 1, 1)
    assert gaussian_binomial(5, 2) == (1, 1, 2, 2, 2, 1, 1)


def test_grassmannian_poincare_shapes():
    assert grassmannian_poincare(4).coefficients == (1, 1, 2, 1, 1)
    assert grassmannian_poincare(3).coefficients == (1, 1, 1)


def test_grassmannian_poincare_cell_count_and_palindrome():
    for n in range(3, 21):
        poly = grassmannian_poincare(n)
        assert poly.total() == math.comb(n, 2)
        assert poly.coefficients == poly.coefficients[::-1]
        assert poly.degree == 2 * (n - 2)


def test_poincare_polynomial_rejects_non_palindromic():
    with pytest.raises(ValueError):
        PoincarePolynomial((1, 2, 3))


def test_glweight_validation():
    w = GLWeight(5, (2, -1), (1, 0, -3))
    assert w.vector() == (2, -1, 1, 0, -3)
    assert w.dual().vector() == (1, -2, 3, 0, -1)
    with pytest.raises(DominanceError):
        GLWeight(5, (-1, 2), (0, 0, 0))
    with pytest.raises(DominanceError):
        GLWeight(5, (0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        GLWeight(5, (0, 0), (0, 0))
