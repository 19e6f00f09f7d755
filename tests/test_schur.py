import math
import re
from collections import Counter

import pytest

from grpf.errors import DominanceError
from grpf.schur import cauchy_exterior_cotangent, virtual_rank


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

def clebsch_gordan_rank2(l, lp):
    """Decompose Sym^l x Sym^l' of a rank-2 bundle.

    Returns (exponent, det-power) pairs; every multiplicity is 1.
    """
    if l < 0 or lp < 0:
        raise ValueError(f"need l, l' >= 0, got {l}, {lp}")
    return [(l + lp - 2 * i, i) for i in range(min(l, lp) + 1)]


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
    assert virtual_rank(kc) == 1
    assert kc == {((0, 0), (0, 0, 0, 0)): 1}
    kc = cauchy_exterior_cotangent(6, 1)
    assert kc == {((0, -1), (1, 0, 0, 0)): 1}
    assert virtual_rank(kc) == 2 * (6 - 2)


def test_cauchy_top_wedge():
    kc = cauchy_exterior_cotangent(4, 4)
    assert kc == {((-2, -2), (2, 2)): 1}
    assert virtual_rank(kc) == math.comb(4, 4)


def test_virtual_rank_checks_its_terms():
    # the non-dominant (0, 2 | 0, 0) had rank -1
    with pytest.raises(DominanceError, match=re.escape("s_block not dominant: (0, 2)")):
        virtual_rank({((0, 2), (0, 0)): 1})


def test_cauchy_rank_conservation():
    for n in range(3, 13):
        for m in range(-1, 2 * (n - 2) + 2):
            kc = cauchy_exterior_cotangent(n, m)
            if 0 <= m <= 2 * (n - 2):
                assert virtual_rank(kc) == math.comb(2 * (n - 2), m)
            else:
                assert kc == {}


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
            assert cauchy_exterior_cotangent(n, m) == expected, (n, m)
