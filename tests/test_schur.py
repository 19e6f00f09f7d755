import math
from collections import Counter

import pytest

from grpf.errors import RankMismatchError
from grpf.schur import (
    KClass,
    cauchy_exterior_cotangent,
    clebsch_gordan_rank2,
)


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


def test_cauchy_terms_are_conjugate_two_row_partitions():
    # oracle: lam = (m - j, j) fits in 2 rows and n-2 columns; its conjugate
    # is read off the Young diagram by counting the cells in each column
    for n in range(3, 13):
        cols = n - 2
        for m in range(0, 2 * cols + 1):
            expected = {}
            for j in range(0, m // 2 + 1):
                lam = (m - j, j)
                if lam[0] > cols:
                    continue
                conj = tuple(sum(1 for row in lam if row > c) for c in range(cols))
                expected[((-j, -(m - j)), conj)] = 1
            got = {
                (t.s_weight, t.q_weight): t.multiplicity
                for t in cauchy_exterior_cotangent(n, m).terms()
            }
            assert got == expected, (n, m)


# --- KClass ring operations --------------------------------------------------

def test_kclass_twist_identity_and_dual_involution():
    c = cauchy_exterior_cotangent(6, 2) + KClass.line(6, -1).scale(3)
    assert c.tensor_by_line(0) == c


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


def test_kclass_mixed_rank_rejected():
    with pytest.raises(RankMismatchError):
        KClass.trivial(5) + KClass.trivial(6)

