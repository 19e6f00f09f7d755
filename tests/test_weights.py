import math
import random
import re
from fractions import Fraction
from itertools import groupby

import pytest

from grpf.errors import DominanceError
from grpf.weights import (
    check_class,
    check_weight,
    gaussian_binomial,
    grassmannian_poincare,
    weyl_dimension_of_runs,
)


def by_runs(w):
    """The Weyl dimension of the dominant weight w, through its runs of equal entries."""
    return weyl_dimension_of_runs([(x, len(list(group))) for x, group in groupby(w)])


def test_weyl_dimension_trivial_and_standard():
    assert by_runs((0,) * 10) == 1
    assert by_runs((1,) + (0,) * 9) == 10


def test_check_weight_rejects_non_integer_n():
    # a weight on Gr(2, 4.0) was once accepted and kept n = 4.0
    for n in (4.0, 4.5, "4"):
        with pytest.raises(ValueError, match=re.escape(f"n {n!r} is not an integer")):
            check_weight(n, (1, 0), (0, 0))
    assert type(check_weight(4, (1, 0), (0, 0))[0]) is int


def test_weyl_dimension_wedge_two():
    # oracle: dim of the second exterior power is a binomial coefficient
    for n in range(3, 12):
        assert by_runs((1, 1) + (0,) * (n - 2)) == math.comb(n, 2)


def test_weyl_dimension_sym_powers():
    # oracle: dim Sym^k of the standard representation is C(n+k-1, k)
    for n in range(3, 8):
        for k in range(5):
            assert by_runs((k,) + (0,) * (n - 1)) == math.comb(n + k - 1, k)


def test_weyl_dimension_determinant_shift_invariance():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(3, 9)
        w = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
        c = rng.randint(-5, 5)
        assert by_runs(w) == by_runs([x + c for x in w])


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
        assert by_runs(w) == direct_weyl_product(w), w


def test_weyl_dimension_of_runs_allows_empty_and_split_runs():
    w = (3, 3, 1, 0, 0, 0, -2)
    assert weyl_dimension_of_runs([(3, 2), (1, 1), (0, 3), (-2, 1)]) == direct_weyl_product(w)
    assert weyl_dimension_of_runs([(3, 1), (3, 1), (2, 0), (1, 1), (0, 1), (0, 2), (-2, 1)]) == (
        direct_weyl_product(w)
    )


def test_gaussian_binomial_hand_expansions():
    # (q^4-1)(q^3-1) / ((q^2-1)(q-1)) = 1 + q + 2q^2 + q^3 + q^4
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 2) == (1, 1, 1)
    assert gaussian_binomial(3, 1) == (1, 1, 1)
    assert gaussian_binomial(5, 2) == (1, 1, 2, 2, 2, 1, 1)


def evaluate(poly, q):
    return sum(c * q**i for i, c in enumerate(poly))


def test_gaussian_binomial_counts_subspaces_over_finite_fields():
    # [n choose k]_q at a prime power q is the number of k-dimensional
    # subspaces of F_q^n, prod_{i<k} (q^n - q^i) / (q^k - q^i)
    for q in (2, 3):
        for n in range(21):
            for k in range(n + 1):
                num = math.prod(q**n - q**i for i in range(k))
                den = math.prod(q**k - q**i for i in range(k))
                assert num % den == 0
                assert evaluate(gaussian_binomial(n, k), q) == num // den, (q, n, k)


def test_gaussian_binomial_at_one_symmetry_and_palindrome():
    for n in range(21):
        for k in range(n + 1):
            poly = gaussian_binomial(n, k)
            assert sum(poly) == math.comb(n, k)
            assert poly == gaussian_binomial(n, n - k)
            assert poly == poly[::-1]
            assert len(poly) == k * (n - k) + 1


def test_grassmannian_poincare_counts_partitions_in_a_box():
    # h^{p,p} of Gr(2, n) counts partitions of p in a 2 x (n - 2) box
    for n in range(3, 41):
        top = 2 * (n - 2)
        poly = grassmannian_poincare(n)
        assert poly == gaussian_binomial(n, 2)
        assert list(poly) == [min(p, top - p) // 2 + 1 for p in range(top + 1)]


def test_grassmannian_poincare_shapes():
    assert grassmannian_poincare(4) == (1, 1, 2, 1, 1)
    assert grassmannian_poincare(3) == (1, 1, 1)


def test_grassmannian_poincare_cell_count_and_palindrome():
    for n in range(3, 21):
        poly = grassmannian_poincare(n)
        assert sum(poly) == math.comb(n, 2)
        assert poly == poly[::-1]
        assert len(poly) - 1 == 2 * (n - 2)


def test_check_weight_validation():
    assert check_weight(5, [2, -1], [1, 0, -3]) == (5, (2, -1), (1, 0, -3))
    with pytest.raises(DominanceError):
        check_weight(5, (-1, 2), (0, 0, 0))
    with pytest.raises(DominanceError):
        check_weight(5, (0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        check_weight(5, (0, 0), (0, 0))
    # entries are integers, never truncated: (1.5, 0) used to become (1, 0)
    for s_block, q_block, bad in (
        ((1.5, 0), (0, 0), "s_block entry 1.5"),
        ((2, 0), (Fraction(3, 2), 0), "q_block entry Fraction(3, 2)"),
        ((2.0, 0), (0, 0), "s_block entry 2.0"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not an integer")):
            check_weight(4, s_block, q_block)


def test_check_class_returns_int_terms_with_grouped_q_runs():
    # n comes from the first term unless given; the q-block's runs are grouped
    assert check_class({((2, -1), (1, 0, 0)): 3, ((0, 0), (0, 0, 0)): -1}) == (
        5, [(2, -1, [(1, 1), (0, 2)], 3), (0, 0, [(0, 3)], -1)])
    assert check_class({}, 7) == (7, [])
    assert check_class({}) == (None, [])
