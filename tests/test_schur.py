import math
import random
from collections import Counter

import pytest

from grpf.errors import RankMismatchError
from grpf.schur import (
    KClass,
    cauchy_exterior_cotangent,
    clebsch_gordan_rank2,
    label_weight,
    littlewood_richardson,
)
from grpf.verify import _lr_by_monomials
from grpf.weights import Partition


# --- independent oracles -----------------------------------------------------

def sym_character(l):
    """Character of Sym^l of a rank-2 space as a dict over (i, j) exponents."""
    return Counter({(l - i, i): 1 for i in range(l + 1)})


def char_product(a, b):
    out = Counter()
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[(e1[0] + e2[0], e1[1] + e2[1])] += c1 * c2
    return out


def partitions_of(size, max_len):
    if size == 0:
        yield Partition()
        return

    def rec(prefix, remaining, cap):
        if remaining == 0:
            yield Partition(prefix)
            return
        if len(prefix) >= max_len:
            return
        for v in range(min(cap, remaining), 0, -1):
            yield from rec(prefix + [v], remaining - v, v)

    yield from rec([], size, size)


# --- Clebsch-Gordan ----------------------------------------------------------

def test_clebsch_gordan_trivial_factor():
    for l in range(6):
        assert clebsch_gordan_rank2(l, 0) == [(l, 0)]


def test_clebsch_gordan_small_against_characters():
    assert clebsch_gordan_rank2(1, 1) == [(2, 0), (0, 1)]
    assert clebsch_gordan_rank2(2, 1) == [(3, 0), (1, 1)]
    for l in range(7):
        for lp in range(7):
            # oracle: multiply bivariate characters; det contributes (1, 1)
            expected = char_product(sym_character(l), sym_character(lp))
            got = Counter()
            for e, d in clebsch_gordan_rank2(l, lp):
                got += char_product(sym_character(e), Counter({(d, d): 1}))
            assert got == expected, (l, lp)


def test_clebsch_gordan_dimension_identity():
    for l in range(31):
        for lp in range(31):
            assert sum(e + 1 for e, _ in clebsch_gordan_rank2(l, lp)) == (l + 1) * (lp + 1)


# --- Littlewood-Richardson ---------------------------------------------------

def test_lr_pieri_smallest():
    assert littlewood_richardson((1,), (1,), 4) == [
        (Partition((1, 1)), 1),
        (Partition((2,)), 1),
    ]


def test_lr_pieri_hand():
    got = littlewood_richardson((2, 1), (1,), 4)
    assert got == [
        (Partition((2, 1, 1)), 1),
        (Partition((2, 2)), 1),
        (Partition((3, 1)), 1),
    ]


def test_lr_classic_multiplicity_two():
    got = dict(littlewood_richardson((2, 1), (2, 1), 6))
    assert got[Partition((3, 2, 1))] == 2


def test_lr_max_rows_truncation():
    full = dict(littlewood_richardson((1, 1), (1, 1), 4))
    assert Partition((1, 1, 1, 1)) in full
    cut = dict(littlewood_richardson((1, 1), (1, 1), 3))
    assert Partition((1, 1, 1, 1)) not in cut
    assert all(len(nu) <= 3 for nu in cut)


def test_lr_dimension_identity():
    # evaluate Weyl dimensions in exactly max_rows variables: truncation exact
    from grpf.weights import weyl_dimension

    rng = random.Random(11)
    shapes = [p for s in range(5) for p in partitions_of(s, 4)]
    for _ in range(40):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        m = 4
        total = sum(
            c * weyl_dimension(nu.padded(m), m)
            for nu, c in littlewood_richardson(lam, mu, m)
        )
        assert total == weyl_dimension(lam.padded(m), m) * weyl_dimension(mu.padded(m), m)


def test_lr_against_monomial_oracle_exhaustive_small():
    cache = {}
    for total in range(0, 7):
        for a in range(total + 1):
            for lam in partitions_of(a, 3):
                for mu in partitions_of(total - a, 3):
                    ours = dict(littlewood_richardson(lam, mu, 5))
                    oracle = _lr_by_monomials(lam, mu, 5, cache)
                    assert ours == oracle, (lam, mu)


def test_lr_symmetry_random():
    rng = random.Random(5)
    shapes = [p for s in range(7) for p in partitions_of(s, 5)]
    for _ in range(60):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        assert littlewood_richardson(lam, mu, 6) == littlewood_richardson(mu, lam, 6)


# --- Cauchy identity ---------------------------------------------------------

def test_cauchy_trivial_and_cotangent():
    kc = cauchy_exterior_cotangent(6, 0)
    assert kc.virtual_rank() == 1
    assert kc.terms()[0].s_weight == (0, 0)
    kc = cauchy_exterior_cotangent(6, 1)
    assert len(kc) == 1
    term = kc.terms()[0]
    assert term.s_weight == (0, -1)
    assert term.q_weight == (1, 0, 0, 0)
    assert kc.virtual_rank() == 2 * (6 - 2)


def test_cauchy_top_wedge():
    kc = cauchy_exterior_cotangent(4, 4)
    assert len(kc) == 1
    assert kc.virtual_rank() == math.comb(4, 4)
    term = kc.terms()[0]
    assert term.s_weight == (-2, -2)
    assert term.q_weight == (2, 2)


def test_cauchy_rank_conservation():
    for n in range(3, 13):
        for m in range(-1, 2 * (n - 2) + 2):
            kc = cauchy_exterior_cotangent(n, m)
            if 0 <= m <= 2 * (n - 2):
                assert kc.virtual_rank() == math.comb(2 * (n - 2), m)
            else:
                assert len(kc) == 0


# --- KClass ring operations --------------------------------------------------

def test_kclass_twist_identity_and_dual_involution():
    c = cauchy_exterior_cotangent(6, 2) + KClass.line(6, -1).scale(3)
    assert c.tensor_by_line(0) == c
    assert c.dual().dual() == c


def test_kclass_twist_shifts_s_weight():
    c = cauchy_exterior_cotangent(6, 1).tensor_by_line(1)
    assert c.terms()[0].s_weight == (1, 0)


def test_kclass_rank_additive_and_twist_invariant():
    a = cauchy_exterior_cotangent(5, 2)
    b = KClass.line(5, 4)
    assert (a + b).virtual_rank() == a.virtual_rank() + b.virtual_rank()
    assert a.tensor_by_line(-3).virtual_rank() == a.virtual_rank()
    assert (a - a).virtual_rank() == 0
    assert len(a - a) == 0


def test_kclass_twist_distributes_and_dual_additive():
    a = cauchy_exterior_cotangent(5, 1)
    b = cauchy_exterior_cotangent(5, 2).scale(-2)
    assert (a + b).tensor_by_line(2) == a.tensor_by_line(2) + b.tensor_by_line(2)
    assert (a + b).dual() == a.dual() + b.dual()


def test_kclass_mixed_rank_rejected():
    with pytest.raises(RankMismatchError):
        KClass.trivial(5) + KClass.trivial(6)


def test_label_weight_convention():
    # Sym^l S (det S)^m recorded against the dual of S
    assert label_weight(0, 0) == (0, 0)
    assert label_weight(3, 0) == (0, -3)
    assert label_weight(1, 2) == (-2, -3)
    assert KClass.from_label(6, 2, 1).terms()[0].s_weight == (-1, -3)
