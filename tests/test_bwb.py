import math
import random
import re
from itertools import groupby

import pytest

import grpf.bwb as bwb
from grpf.bwb import (
    _bott_cauchy,
    _bott_runs,
    _bott_zero_tail,
    _cauchy_gaps,
    _cauchy_ray,
    bott,
    cohomology_of_kclass,
    euler_characteristic,
)
from grpf.errors import DominanceError, IntegrityError
from grpf.schur import cauchy_exterior_cotangent
from grpf.weights import grassmannian_poincare
from test_weights import direct_weyl_product


def random_levi_dominant(rng, n, span=8):
    s = sorted((rng.randint(-span, span) for _ in range(2)), reverse=True)
    q = tuple(sorted((rng.randint(-span, span) for _ in range(n - 2)), reverse=True))
    return tuple(s), q


def serre_dual(n, s, q):
    """The weight of the dual bundle tensored with the canonical bundle O(-n)."""
    return (-s[1] - n, -s[0] - n), tuple(-x for x in reversed(q))


def test_trivial_bundle():
    for n in (3, 5, 10):
        assert bott(n, (0, 0), (0,) * (n - 2)) == (0, 1, (0,) * n)


def test_hyperplane_bundle_sections():
    assert bott(10, (1, 1), (0,) * 8) == (0, math.comb(10, 2), (1, 1) + (0,) * 8)


def test_negative_second_entry_vanishes():
    # s_block (a1, -1) with zero tail always collides after the shift
    for a1 in range(-1, 4):
        assert bott(10, (a1, -1), (0,) * 8) is None


def test_canonical_bundle_top_cohomology():
    n = 10
    degree, dimension, _ = bott(n, (-n, -n), (0,) * (n - 2))
    assert degree == 2 * (n - 2) == 16
    assert dimension == 1


def test_tangent_bundle_global_sections():
    for n in (4, 7, 10):
        degree, dimension, _ = bott(n, (1, 0), (0,) * (n - 3) + (-1,))
        assert (degree, dimension) == (0, n * n - 1)


def test_rejects_non_dominant():
    with pytest.raises(DominanceError):
        bott(5, (0, 1), (0, 0, 0))


def test_serre_duality_random():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randrange(5, 13)
        s, q = random_levi_dominant(rng, n)
        a = bott(n, s, q)
        b = bott(n, *serre_dual(n, s, q))
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] + b[0] == 2 * (n - 2)
            assert a[1] == b[1]


def test_bwb_single_degree_in_range():
    # the algorithm yields at most one degree; check it lands in [0, dim Gr]
    rng = random.Random(43)
    for _ in range(10000):
        n = rng.randrange(5, 13)
        res = bott(n, *random_levi_dominant(rng, n))
        if res is not None:
            assert 0 <= res[0] <= 2 * (n - 2)


def sorting_reference(weight, n):
    """Reference Bott: shift by rho, sort, count inversions pair by pair."""
    v = [x + n - i for i, x in enumerate(weight)]
    if len(set(v)) < n:
        return None
    degree = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
    ordered = sorted(v, reverse=True)
    return degree, tuple(x - (n - i) for i, x in enumerate(ordered))


def test_bott_insertion_matches_sorting_reference():
    # random weights, and every twisted Cauchy q-block for n <= 12 (those
    # also through the Cauchy entry point)
    rng = random.Random(45)
    cases = []
    for _ in range(4000):
        n = rng.randrange(3, 31)
        s, q = random_levi_dominant(rng, n, span=rng.choice((2, n, 3 * n)))
        cases.append((s + q, n, None))
    for n in range(3, 13):
        for m in range(2 * (n - 2) + 1):
            for s, q in cauchy_exterior_cotangent(n, m):
                for t in range(-3 * n, 3 * n + 1):
                    cases.append(((s[0] - t, s[1] - t) + q, n, (-s[0], m)))
    outcomes = {True: 0, False: 0}
    for weight, n, term in cases:
        res = bott(n, weight[:2], weight[2:])
        expected = sorting_reference(weight, n)
        outcomes[res is None] += 1
        if expected is None:
            assert res is None, weight
        else:
            degree, dimension, rep = res
            assert (degree, rep) == expected, weight
            assert dimension == direct_weyl_product(rep)
        if term is not None:
            cauchy = None if expected is None else (expected[0], dimension)
            assert _bott_cauchy(weight[0], weight[1], *term, n) == cauchy, (weight, term)
    assert min(outcomes.values()) > 500


def test_zero_tail_bott_matches_bott():
    # every Levi-dominant (a1, a2) in [-3n, 3n), through the generic run
    # walk and through the closed form of the Hom and Ext summands (the
    # Cauchy entry at j = m = 0 is this same walk; it is checked against
    # the sorting reference above)
    for n in range(3, 41):
        for a1 in range(-3 * n, 3 * n):
            for a2 in range(-3 * n, a1 + 1):
                res = _bott_runs(a1, a2, [(0, n - 2)], n)
                assert _bott_zero_tail(a1, a2, n) == (res and res[:2]), (n, a1, a2)


def _cauchy_twists(j, m, n, lo, hi):
    """The twists t in lo..hi, ascending, at which Cauchy term j of Wedge^m survives.

    Twisted by O(-t) the term has s-block (-j - t, j - m - t), whose
    outcome is ``_bott_cauchy(-j - t, j - m - t, j, m, n)``; its shifted
    s-entries are g1 - t and g2 - t.  Both lie above n for
    t <= g2 - n - 1, both lie below 1 from t = g1 on, and both fill the
    gaps at t = 0.  Otherwise one entry must fill a gap while the other
    leaves 1..n: only t = g2 - g1 (when g1 + (g1 - g2) > n) and
    t = g1 - g2 (when g1 - g2 >= g2) do so.
    """
    g1, g2 = _cauchy_gaps(j, m, n)
    gap = g1 - g2
    middle = [
        t
        for t, survives in ((-gap, g1 + gap > n), (0, True), (gap, gap >= g2))
        if survives and lo <= t <= hi
    ]
    return [*range(lo, min(hi, g2 - n - 1) + 1), *middle, *range(max(lo, g1), hi + 1)]


def cauchy_term_mismatches(ns):
    """Twisted Cauchy terms where the closed forms disagree with ``_bott_runs``.

    Covers every m in 0..2(n-2), every term j of its Cauchy class and every
    total twist t in [-3n, 3n]; compares the twists at which the run walk
    survives against :func:`_cauchy_twists`, and its degree and dimension
    at the survivors with t >= 0 against ``_cauchy_ray`` up to 3n.
    ``_bott_cauchy`` is this same walk over the term's runs, so it is not
    called a second time here; the sorting reference above checks it.
    """
    bad = []
    for n in ns:
        for m in range(2 * (n - 2) + 1):
            for s, q in cauchy_exterior_cotangent(n, m):
                j = -s[0]
                q_runs = [(b, len(list(group))) for b, group in groupby(q)]
                survivors = []
                ray = []
                for t in range(-3 * n, 3 * n + 1):
                    res = _bott_runs(s[0] - t, s[1] - t, q_runs, n)
                    if res is not None:
                        survivors.append(t)
                        if t >= 0:
                            ray.append((t, *res[:2]))
                if _cauchy_twists(j, m, n, -3 * n, 3 * n) != survivors:
                    bad.append((n, m, j, "twists"))
                try:
                    if _cauchy_ray(j, m, n, 3 * n) != ray:
                        bad.append((n, m, j, "ray"))
                except TypeError:  # a vanishing outcome where the ray expects one
                    bad.append((n, m, j, "ray vanishes"))
    return bad


def test_cauchy_term_bott_matches_bott():
    assert cauchy_term_mismatches(range(3, 31)) == []


@pytest.mark.parametrize(
    "gaps",
    [lambda j, m, n: (n - j - 1, n - m + j - 1), lambda j, m, n: (n - j, n - m + j)],
    ids=["g1-1", "g2+1"],
)
def test_cauchy_term_oracle_catches_an_off_by_one_gap(monkeypatch, gaps):
    monkeypatch.setattr(bwb, "_cauchy_gaps", gaps)
    assert cauchy_term_mismatches(range(3, 9))


def test_untwisted_cauchy_term_sorts_to_rho_in_degree_m():
    # the closed t = 0 outcome of _cauchy_ray: the shifted s-entries fill
    # the two gaps of the shifted q-block, so the weight sorts to rho
    # (dimension 1) after m inversions
    terms = 0
    for n in range(3, 41):
        for m in range(2 * (n - 2) + 1):
            for s, _ in cauchy_exterior_cotangent(n, m):
                j = -s[0]
                assert _bott_cauchy(-j, j - m, j, m, n) == (m, 1), (n, m, j)
                terms += 1
    assert terms == sum(math.comb(n, 2) for n in range(3, 41))


def test_perturbed_shift_entry_breaks_serre_duality(monkeypatch):
    # mutation check: an off-by-one in the shift of the first s-entry
    # (u1 = a1 + n + 1) must make the duality invariant fail somewhere
    # (possibly as a hard error)
    bott_runs = bwb._bott_runs
    monkeypatch.setattr(
        bwb, "_bott_runs", lambda a1, a2, q_runs, n: bott_runs(a1 + 1, a2, q_runs, n)
    )
    broken = []
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randrange(5, 9)
        s, q = random_levi_dominant(rng, n)
        try:
            a = bott(n, s, q)
            b = bott(n, *serre_dual(n, s, q))
        except (ValueError, IntegrityError):
            broken.append((n, s, q))
            continue
        if (a is None) != (b is None):
            broken.append((n, s, q))
        elif a is not None and (a[0] + b[0] != 2 * (n - 2) or a[1] != b[1]):
            broken.append((n, s, q))
    assert broken, "perturbing the shift must break the duality invariant"


def test_hodge_diagonal_matches_poincare():
    for n in range(4, 13):
        gp = grassmannian_poincare(n)
        for p in range(2 * (n - 2) + 1):
            positive, negative = cohomology_of_kclass(cauchy_exterior_cotangent(n, p))
            assert not negative
            expected = {p: gp[p]} if gp[p] else {}
            assert positive == expected, (n, p)


def line(n, t):
    """The class of O(t) on Gr(2, n)."""
    return {((t, t), (0,) * (n - 2)): 1}


def test_virtual_class_tables_stay_separate():
    c = {((1, 1), (0,) * 8): 1, ((0, 0), (0,) * 8): -2}  # O(1) - 2 O
    positive, negative = cohomology_of_kclass(c)
    assert positive == {0: 45}
    assert negative == {0: 2}
    assert negative


def test_class_terms_are_checked():
    # a non-dominant s-block gave ({0: 3}, {}), a third s-entry was dropped
    # silently, and a fractional twist ended in a TypeError
    with pytest.raises(DominanceError, match=re.escape("s_block not dominant: (0, 1)")):
        cohomology_of_kclass({((0, 1), (0, 0)): 1})
    with pytest.raises(ValueError, match=re.escape("s_block must have length 2: (1, 1, 1)")):
        cohomology_of_kclass({((1, 1, 1), (0, 0)): 1})
    with pytest.raises(ValueError, match=re.escape("twist 0.5 is not an integer")):
        cohomology_of_kclass(line(4, 0), twist=0.5)


def chi(c):
    return euler_characteristic(cohomology_of_kclass(c))


def test_euler_characteristic_examples():
    assert chi(line(10, 0)) == 1
    assert chi(line(10, 1)) == 45
    for n in range(3, 13):
        assert chi(line(n, -1)) == 0


def test_euler_characteristic_additive():
    a = cauchy_exterior_cotangent(6, 2)
    b = {((2, 2), (0,) * 4): 3, ((1, 0), (0, 0, 0, -1)): -1}  # 3 O(2) - T
    assert a.keys().isdisjoint(b)
    assert chi({**a, **b}) == chi(a) + chi(b)
