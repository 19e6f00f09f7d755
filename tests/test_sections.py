import dataclasses
import math
import random
import re
from collections import Counter

import pytest

import grpf.bwb as bwb
import grpf.sections as sections
from grpf.bwb import (
    _bott_zero_tail,
    bott,
    cohomology_of_kclass,
    euler_characteristic,
)
from grpf.cli import run
from grpf.errors import DominanceError, IntegrityError
from grpf.geometry import ModelParams, classify, grassmannian_window, pfaffian_window
from grpf.schur import cauchy_exterior_cotangent, clebsch_gordan_rank2, virtual_rank
from grpf.sections import (
    PairVerdict,
    h1_tangent_y1,
    hodge_diamond_y1,
    koszul_restricted_cohomology,
    omega_p_class,
    pair_twisted_vanishing,
    restricted_euler,
    twisted_ext_vanishing,
    verify_strong_exceptional,
)
from test_golden_reports import audit_rows
from test_weights import direct_weyl_product


def line(n, t):
    """The class of O(t) on Gr(2, n)."""
    return {((t, t), (0,) * (n - 2)): 1}


def tangent(n):
    """The class of the tangent bundle Hom(S, Q) of Gr(2, n)."""
    return {((1, 0), (0,) * (n - 3) + (-1,)): 1}


# --- Euler characteristics on the section -------------------------------------

def test_restricted_euler_structure_sheaf_fano():
    # Fano section: chi(O) = 1
    assert restricted_euler(ModelParams(10, 5), line(10, 0)) == 1
    assert restricted_euler(ModelParams(10, 3), line(10, 0)) == 1


def test_restricted_euler_structure_sheaf_cy3():
    # odd-dimensional Calabi-Yau sections: chi(O) = 0
    assert restricted_euler(ModelParams(7, 7), line(7, 0)) == 0
    assert restricted_euler(ModelParams(9, 9), line(9, 0)) == 0


def test_restricted_euler_no_section():
    c = line(8, 2)
    assert restricted_euler(ModelParams(8, 0), c) == euler_characteristic(cohomology_of_kclass(c))


def test_omega_p_rank_bookkeeping():
    params = ModelParams(10, 5)
    for p in range(12):
        assert virtual_rank(omega_p_class(params, p)) == math.comb(11, p)
    params = ModelParams(4, 1)
    for p in range(4):
        assert virtual_rank(omega_p_class(params, p)) == math.comb(3, p)


def folded_omega_p_class(params, deg):
    """Wedge^deg Omega_Y as a running sum of twisted, scaled Cauchy classes.

    Entries that cancel to zero are dropped, negative ones kept.
    """
    n, k = params.n, params.k
    out = {}
    for i in range(deg + 1):
        mult = math.comb(k + i - 1, i) if k else int(i == 0)
        for (s, q), m in cauchy_exterior_cotangent(n, deg - i).items():
            key = ((s[0] - i, s[1] - i), q)
            out[key] = out.get(key, 0) + (-1) ** i * mult * m
    return {key: m for key, m in out.items() if m}


def test_omega_p_class_equals_the_folded_sum():
    cases = 0
    for n in range(3, 13):
        for k in range(2 * (n - 2) + 1):
            params = ModelParams(n, k)
            for deg in range(2 * (n - 2) - k + 1):
                assert omega_p_class(params, deg) == folded_omega_p_class(params, deg)
                cases += 1
    assert cases == sum((2 * m + 1) * (2 * m + 2) // 2 for m in range(1, 11))


def test_chi_p_matches_the_koszul_tables_of_omega_p_class():
    # the Cauchy-term path of hodge_diamond_y1 against the general one:
    # termwise Bott tables of the K-class of Omega^p, one per Koszul twist
    for n in range(3, 13):
        for k in range(2 * (n - 2) + 1):
            params = ModelParams(n, k)
            chi_p = hodge_diamond_y1(params).chi_p
            assert list(chi_p) == [
                restricted_euler(params, omega_p_class(params, p))
                for p in range(len(chi_p))
            ], (n, k)


def test_omega_zero_is_trivial():
    assert omega_p_class(ModelParams(10, 5), 0) == line(10, 0)


# --- Hodge diamonds of sections -----------------------------------------------

def dim(h):
    """d of a diamond {(p, q): h} keyed by 0 <= p, q <= d."""
    d = math.isqrt(len(h)) - 1
    assert sorted(h) == [(p, q) for p in range(d + 1) for q in range(d + 1)]
    return d


def middle_row(h):
    d = dim(h)
    return [h[p, d - p] for p in range(d + 1)]


def euler(h):
    return sum((-1) ** (p + q) * v for (p, q), v in h.items())


def test_hodge_diamond_quadric_threefold():
    # oracle: (n, k) = (4, 1) is a smooth quadric threefold, whose diamond
    # is diagonal with h^{p,p} = 1 and empty middle row
    res = hodge_diamond_y1(ModelParams(4, 1))
    dia = res.diamond
    assert dim(dia) == 3
    assert middle_row(dia) == [0, 0, 0, 0]
    for p in range(4):
        assert dia[p, p] == 1
    assert euler(dia) == 4


def test_hodge_diamond_elevenfold():
    res = hodge_diamond_y1(ModelParams(10, 5))
    dia = res.diamond
    assert dim(dia) == 11
    row = middle_row(dia)
    assert dia[7, 4] == 1 and dia[4, 7] == 1
    assert dia[6, 5] == 101 and dia[5, 6] == 101
    for p in range(12):
        if p not in (4, 5, 6, 7):
            assert dia[p, 11 - p] == 0
    assert row == [0, 0, 0, 0, 1, 101, 101, 1, 0, 0, 0, 0]
    assert dia[1, 1] == 1
    assert classify(ModelParams(10, 5)).theorem_applies


def test_section_hodge_holds_only_what_it_computes():
    res = hodge_diamond_y1(ModelParams(7, 7))
    assert [f.name for f in dataclasses.fields(res)] == ["diamond", "chi_p", "audit"]
    assert list(res.audit) == ["outcomes"]  # the rows follow from (n, k) and the outcomes


def test_hodge_diamond_lefschetz_rows_follow_ambient():
    from grpf.weights import grassmannian_poincare

    res = hodge_diamond_y1(ModelParams(10, 5))
    gp = grassmannian_poincare(10)
    for p in range(12):
        for q in range(12):
            if p + q < 11:
                assert res.diamond[p, q] == (gp[p] if p == q else 0)


def test_hodge_diamond_threefold_pair():
    # the pipeline's own output, pinned and cross-checked against the
    # deformation computation below
    res = hodge_diamond_y1(ModelParams(7, 7))
    assert middle_row(res.diamond) == [1, 50, 50, 1]
    tan = h1_tangent_y1(ModelParams(7, 7))
    assert tan.h1 == res.diamond[1, 2]


def test_hodge_diamond_k3_type_section():
    res = hodge_diamond_y1(ModelParams(8, 4))
    dia = res.diamond
    assert dim(dia) == 8
    assert dia[0, 0] == 1
    # integrity invariants are checked where the diamond is built; also
    # check topological consistency explicitly
    assert euler(dia) == sum(
        (-1) ** p * res.chi_p[p] for p in range(dim(dia) + 1)
    )


def test_hodge_diamond_no_section_is_grassmannian():
    # k = 0 cuts nothing: the diamond is that of Gr(2, 10), diagonal with
    # h^{p,p} the Poincare coefficients
    from grpf.weights import grassmannian_poincare

    dia = hodge_diamond_y1(ModelParams(10, 0)).diamond
    gp = grassmannian_poincare(10)
    assert dim(dia) == len(gp) - 1 == 16
    for p in range(17):
        for q in range(17):
            assert dia[p, q] == (gp[p] if p == q else 0)


def test_hodge_diamond_zero_dimensional_sections():
    # k = dim Gr(2, n) leaves deg Gr(2, n) = Catalan(n - 2) points
    for n, k, points in ((4, 4, 2), (5, 6, 5)):
        assert points == math.comb(2 * (n - 2), n - 2) // (n - 1)
        dia = hodge_diamond_y1(ModelParams(n, k)).diamond
        assert dia == {(0, 0): points}


def test_hodge_diamond_rejects_empty_section():
    with pytest.raises(ValueError):
        hodge_diamond_y1(ModelParams(5, 7))


def catalan(m):
    """deg Gr(2, m + 2)."""
    return math.comb(2 * m, m) // (m + 1)


GRID = [(n, k) for n in range(3, 13) for k in range(2 * (n - 2) + 1)]


@pytest.mark.parametrize("n, k", GRID, ids=[f"{n}-{k}" for n, k in GRID])
def test_hodge_diamond_grid(n, k):
    # every section of Gr(2, n), n <= 12, gets a diamond (an IntegrityError
    # here would fail the test) that agrees with the closed forms
    res = hodge_diamond_y1(ModelParams(n, k))
    dia = res.diamond
    assert dim(dia) == 2 * (n - 2) - k
    assert euler(dia) == sum(
        (-1) ** p * chi for p, chi in enumerate(res.chi_p)
    )
    if dim(dia) == 0:
        assert dia[0, 0] == catalan(n - 2)
    if dim(dia) == 1:
        assert 2 * dia[1, 0] - 2 == (k - n) * catalan(n - 2)


@pytest.mark.parametrize("n, k", [(10, 5), (12, 0), (9, 9), (5, 5)])
def test_hodge_diamond_computes_each_cauchy_class_and_outcome_once(monkeypatch, n, k):
    # the Cauchy class of Wedge^m Omega_Gr is built once per m, and the
    # outcomes of term (j, m) under every total twist t once per ray (j, m),
    # with at most three Bott runs (t = 0, t = gap, the first tail twist)
    # and none where the term vanishes; the tables are local to the call,
    # so the next call builds them again
    cauchy, bott_cauchy = sections.cauchy_exterior_cotangent, bwb._bott_cauchy
    built = []
    evaluated = []

    def counted_cauchy(n, m):
        built.append(m)
        return cauchy(n, m)

    def counted_outcome(a1, a2, j, m, n):
        evaluated.append((j, m, -j - a1))
        res = bott_cauchy(a1, a2, j, m, n)
        assert res is not None, "only surviving twists are evaluated"
        return res

    monkeypatch.setattr(sections, "cauchy_exterior_cotangent", counted_cauchy)
    monkeypatch.setattr(bwb, "_bott_cauchy", counted_outcome)
    d = 2 * (n - 2) - k
    for _ in range(2):
        built.clear()
        evaluated.clear()
        res = hodge_diamond_y1(ModelParams(n, k))
        assert built == list(range(d + 1))
        assert len(evaluated) == len(set(evaluated)) > 0
        assert max(Counter((j, m) for j, m, _ in evaluated).values()) <= 3
        # every outcome backs a row: row (i, j, a) of degree p reads (j, p - i, i + a)
        outcomes = res.audit["outcomes"]
        rows = {
            (j, p - i, i + a)
            for p, entries in enumerate(audit_rows(n, k, outcomes))
            for i, j, a in entries
        }
        assert [tuple(o[:3]) for o in outcomes] == sorted(rows)
        assert set(evaluated) <= rows
        # and each reported outcome is Bott on its key
        for j, m, t, degree, dim in outcomes:
            assert bott_cauchy(-j - t, j - m - t, j, m, n) == (degree, dim), (j, m, t)


@pytest.mark.parametrize("n", range(3, 17))
def test_audit_rows_follow_the_sorted_terms_of_omega_p(n):
    # the rows rebuilt from the outcomes walk the terms (i, j) of Omega^p
    # without sorting; they must still come in the order of the sorted
    # class, whose term (i, j) has s_weight (-(i + j), j - p)
    for k in range(2 * (n - 2) + 1):
        params = ModelParams(n, k)
        res = hodge_diamond_y1(params)
        outcomes = {tuple(o[:3]) for o in res.audit["outcomes"]}
        rebuilt = audit_rows(n, k, res.audit["outcomes"])
        assert len(rebuilt) == params.dim_y1 + 1, (n, k)
        for p, rows in enumerate(rebuilt):
            terms = [(-s[0] - p - s[1], p + s[1]) for s, _ in sorted(omega_p_class(params, p))]
            expected = [[i, j, a] for a in range(k + 1) for i, j in terms
                        if (j, p - i, i + a) in outcomes]
            assert rows == expected, (n, k, p)


SECTIONS = [(n, k) for n in range(3, 13) for k in range(2 * (n - 2) + 1)]


def audit_sign(k, i, a):
    """Sign of audit row (i, j, a): (-1)^i C(k+i-1, i) (-1)^a C(k, a)."""
    return (-1) ** (i + a) * math.comb(k + i - 1, i) * math.comb(k, a) if k else 1


def resum_audit(res, n, k, sign):
    """chi^p re-summed from the rebuilt audit rows, each signed by ``sign(k, i, a)``."""
    outcomes = {(j, m, t): (degree, dim) for j, m, t, degree, dim in res.audit["outcomes"]}
    chi = []
    for p, rows in enumerate(audit_rows(n, k, res.audit["outcomes"])):
        total = 0
        for i, j, a in rows:
            degree, dim = outcomes[j, p - i, i + a]
            total += (-1) ** degree * sign(k, i, a) * dim
        chi.append(total)
    return chi


def test_audit_outcome_table_is_bott_and_resums_chi_p():
    # each [j, m, t, degree, dimension] is Bott on the explicit weight
    # (-j - t, j - m - t | 2^j, 1^(m-2j), 0^(n-2-m+j)); the rows rebuilt from
    # it read all of it, and re-summed with the documented sign give chi^p
    for n, k in SECTIONS:
        res = hodge_diamond_y1(ModelParams(n, k))
        table = res.audit["outcomes"]
        keys = [(j, m, t) for j, m, t, _, _ in table]
        assert keys == sorted(set(keys)), (n, k)
        for j, m, t, degree, dim in table:
            q = (2,) * j + (1,) * (m - 2 * j) + (0,) * (n - 2 - m + j)
            assert bott(n, (-j - t, j - m - t), q)[:2] == (degree, dim), (n, k)
        rebuilt = audit_rows(n, k, table)
        read = [(j, p - i, i + a) for p, rows in enumerate(rebuilt) for i, j, a in rows]
        assert set(read) == set(keys), (n, k)
        if k == 0:
            assert all(i == a == 0 for rows in rebuilt for i, _, a in rows)
        assert resum_audit(res, n, k, audit_sign) == list(res.chi_p), (n, k)
        # the same without rows: outcome (j, m, t) enters chi^p for each
        # p <= d with i = p - m >= 0 and a = t - i in 0..k
        chi = [0] * len(res.chi_p)
        for j, m, t, degree, dim in table:
            for p in range(m, len(chi)):
                if 0 <= t - (p - m) <= k:
                    chi[p] += (-1) ** degree * audit_sign(k, p - m, t - p + m) * dim
        assert chi == list(res.chi_p), (n, k)


def test_audit_resum_fails_without_the_koszul_sign():
    # dropping (-1)^a from the row sign must break the re-sum; it survives
    # only where the odd-a rows cancel anyway (k = 0, and some k <= 4)
    def no_koszul_sign(k, i, a):
        return (-1) ** a * audit_sign(k, i, a)

    broken = {
        (n, k)
        for n, k in SECTIONS
        for res in [hodge_diamond_y1(ModelParams(n, k))]
        if resum_audit(res, n, k, no_koszul_sign) != list(res.chi_p)
    }
    assert {(10, 5), (7, 7), (12, 6)} <= broken
    assert len(broken) > 3 * len(SECTIONS) // 4


# --- tangent cohomology --------------------------------------------------------

def test_h1_tangent_quintic_partner():
    res = h1_tangent_y1(ModelParams(10, 5))
    assert res.mode == "exact-generic"
    assert res.h1 == 101


def test_h1_tangent_threefold_pair():
    res = h1_tangent_y1(ModelParams(7, 7))
    assert res.mode == "exact-generic"
    assert res.h1 == 50


def test_h1_tangent_no_section():
    res = h1_tangent_y1(ModelParams(10, 0))
    assert res.mode == "exact"
    assert res.h1 == 0


def test_koszul_restriction_tangent_tables():
    restricted = koszul_restricted_cohomology(ModelParams(10, 5), tangent(10))
    assert restricted.table == {0: 99}
    normal = koszul_restricted_cohomology(
        ModelParams(10, 5), {((1, 1), (0,) * 8): 5}  # O(1)^5
    )
    assert normal.table == {0: 200}


def test_koszul_restriction_forced_cancellation():
    # sections of O(1) on the section: C(n,2) minus the k cut equations
    for n, k in ((10, 5), (7, 7), (8, 4)):
        res = koszul_restricted_cohomology(ModelParams(n, k), line(n, 1))
        assert res.table == {0: math.comb(n, 2) - k}


def test_koszul_restriction_rejects_virtual_classes():
    with pytest.raises(ValueError):
        koszul_restricted_cohomology(
            ModelParams(6, 2), {((0, 0), (0,) * 4): 1, ((-1, -1), (0,) * 4): -1}
        )  # O - O(-1)


def test_koszul_restriction_checks_the_class():
    # a class on Gr(2, 5) read against n = 10 gave chi = 0, and a
    # non-dominant q-block ended in IntegrityError, the mark of a bug
    # upstream; both are bad input
    with pytest.raises(ValueError, match=re.escape("q_block must have length n-2=8: (0, 0, 0)")):
        restricted_euler(ModelParams(10, 5), {((0, 0), (0, 0, 0)): 1})
    with pytest.raises(DominanceError, match=re.escape("q_block not dominant: (0, 1, 0)")):
        koszul_restricted_cohomology(ModelParams(5, 2), {((1, 0), (0, 1, 0)): 1})


def test_a_class_mixing_two_grassmannians_is_refused():
    # (0, 0 | 0) lives on Gr(2, 3) and (1, 0 | 0, 0) on Gr(2, 4); their sum
    # gave the tables ({0: 5}, {}) and rank 3
    mixed = {((0, 0), (0,)): 1, ((1, 0), (0, 0)): 1}
    for entry in (cohomology_of_kclass, virtual_rank):
        with pytest.raises(ValueError, match=re.escape("class mixes terms of Gr(2, n) for n in [3, 4]")):
            entry(mixed)
    with pytest.raises(ValueError, match=re.escape("q_block must have length n-2=2: (0,)")):
        restricted_euler(ModelParams(4, 1), mixed)


def test_a_fractional_multiplicity_is_refused():
    # 1.5 O(1) on Gr(2, 10) gave the tables ({0: 67.5}, {}), chi 60.0 on
    # the elevenfold and rank 1.5
    c = {((1, 1), (0,) * 8): 1.5}
    entries = (
        cohomology_of_kclass,
        virtual_rank,
        lambda c: restricted_euler(ModelParams(10, 5), c),
        lambda c: koszul_restricted_cohomology(ModelParams(10, 5), c),
    )
    for entry in entries:
        with pytest.raises(ValueError, match=re.escape("multiplicity 1.5 is not an integer")):
            entry(c)
    # a multiplicity that is no number ended in a TypeError from the effectiveness test
    with pytest.raises(ValueError, match=re.escape("multiplicity '1' is not an integer")):
        koszul_restricted_cohomology(ModelParams(10, 5), {((1, 1), (0,) * 8): "1"})


def test_a_zero_multiplicity_is_refused():
    # 0 O(1) gave the spurious negative table {0: 0}
    c = {((1, 1), (0,) * 8): 0}
    message = re.escape("multiplicity of ((1, 1), (0, 0, 0, 0, 0, 0, 0, 0)) is zero")
    for entry in (cohomology_of_kclass, virtual_rank, lambda c: restricted_euler(ModelParams(10, 5), c)):
        with pytest.raises(ValueError, match=message):
            entry(c)
    # a negative one is a class, but the Koszul restriction needs an effective one
    with pytest.raises(ValueError, match="needs an effective class"):
        koszul_restricted_cohomology(ModelParams(10, 5), {((1, 1), (0,) * 8): -1})


def test_h1_tangent_sweep_is_exact_everywhere():
    # every nonempty section up to n = 30 resolves without a raise, and
    # only k = 0 and curves need no genericity
    for n in range(3, 31):
        for k in range(2 * n - 3):
            res = h1_tangent_y1(ModelParams(n, k))
            curve = 2 * (n - 2) - k == 1
            assert res.mode == ("exact" if k == 0 or curve else "exact-generic"), (n, k)


def test_h1_tangent_matches_the_parameter_count():
    # h^1(T) - h^0(T) = dim Gr(k, Wedge^2 V^dual) - dim PGL(V) when
    # H^0(T_Gr|_Y) = sl(V) and H^1(T_Gr|_Y) = H^1(O_Y(1)) = 0; the cases
    # where it fails are named by the hypothesis they break, read off the
    # engine's own restricted tables
    broken = {}
    cases = 0
    for n in range(4, 13):
        for k in range(1, 2 * n - 4):
            res = h1_tangent_y1(ModelParams(n, k))
            table = res.tangent_restricted.table
            t0, t1 = table.get(0, 0), table.get(1, 0)
            n1 = res.normal_restricted.table.get(1, 0)
            count = k * (math.comb(n, 2) - k) - (n * n - 1)
            cases += 1
            if (t0, t1, n1) == (n * n - 1, 0, 0):
                assert res.h1 - res.h0 == count, (n, k)
            elif res.h1 - res.h0 != count:
                broken[n, k] = (
                    f"t0 = {t0}" if t0 != n * n - 1
                    else "H^1(O_Y(1)) != 0" if n1 else f"t1 = {t1}"
                )
    assert broken == {
        (4, 2): "t0 = 14",
        (4, 3): "t0 = 12",
        (5, 5): "t0 = 25",
        (6, 6): "t1 = 1",
        **{(n, 2 * n - 5): "H^1(O_Y(1)) != 0" for n in range(7, 13)},
    }
    assert (cases, cases - len(broken)) == (99, 89)
    # the quintic's partner and Mukai's genus-8 curve both match
    assert h1_tangent_y1(ModelParams(10, 5)).h1 == 101 == 5 * (45 - 5) - 99
    assert h1_tangent_y1(ModelParams(6, 7)).h1 == 21 == 7 * (15 - 7) - 35


def _plant_page(monkeypatch, plant):
    real = sections._koszul_page
    monkeypatch.setattr(
        sections, "_koszul_page", lambda params, c: plant(real(params, c), c)
    )


@pytest.mark.parametrize(
    "planted",
    [
        {(0, 1): 3, (1, 1): 2},  # two survivors in range, linked by d_1
        {(0, 12): 1, (1, 12): 1, (2, 13): 1},  # total degree 12 > 11, two partners
        {(0, 12): 1},  # total degree 12 > 11, no partner
    ],
    ids=["linked-survivors", "out-of-range-two-partners", "out-of-range-alone"],
)
def test_ambiguous_koszul_page_raises(monkeypatch, capsys, planted):
    _plant_page(monkeypatch, lambda page, c: dict(planted))
    with pytest.raises(IntegrityError):
        koszul_restricted_cohomology(ModelParams(10, 5), line(10, 1))
    with pytest.raises(IntegrityError):
        h1_tangent_y1(ModelParams(10, 5))
    assert run(["hodge", "grass-section", "--n", "10", "--k", "5"]) == 1
    assert "integrity error" in capsys.readouterr().err


def test_nonzero_h1_of_hyperplane_class_off_curves_raises(monkeypatch, capsys):
    # plant H^1(O_Y(1)^5) = 3 on the elevenfold's normal page, unlinked
    def plant(page, c):
        return {**page, (0, 1): 3} if next(iter(c))[0] == (1, 1) else page

    _plant_page(monkeypatch, plant)
    normal = koszul_restricted_cohomology(ModelParams(10, 5), {((1, 1), (0,) * 8): 5})
    assert normal.table == {0: 200, 1: 3}
    with pytest.raises(IntegrityError, match="H\\^1"):
        h1_tangent_y1(ModelParams(10, 5))
    assert run(["hodge", "grass-section", "--n", "10", "--k", "5"]) == 1
    assert "integrity error" in capsys.readouterr().err


def test_class_arguments_are_left_unchanged():
    # a class is a plain dict: reading it must not edit the caller's copy
    params = ModelParams(10, 5)
    classes = [tangent(10), omega_p_class(params, 3), {((1, 1), (0,) * 8): 5}]
    snapshots = [dict(c) for c in classes]
    for c in classes:
        cohomology_of_kclass(c, twist=-2)
        restricted_euler(params, c)
    for c in (classes[0], classes[2]):
        koszul_restricted_cohomology(params, c)
    assert classes == snapshots


# --- exceptional collections ----------------------------------------------------

# The per-summand oracle: RHom(E, F) as the plain sum of Bott outcomes over
# the Clebsch-Gordan summands of Hom(E, F), one pair at a time.


def hom_s_blocks(e, f):
    """s_blocks of the Clebsch-Gordan summands of Hom(E, F) on Gr(2, n).

    E = Sym^l S (det S)^m and F = Sym^l' S (det S)^m'; with d = m - m',
    S = S dual x det S gives Hom(E, F) = Sym^l x Sym^l' of S dual, times
    (det S dual)^(d - l').  The summand (x, i) of
    :func:`~grpf.schur.clebsch_gordan_rank2` then has s_block
    (d - l' + x + i, d - l' + i) and a zero q_block.  The twist F(t) is
    the label (l', m' - t).
    """
    (l, m), (lp, mp) = e, f
    c = m - mp - lp
    return [(c + x + i, c + i) for x, i in clebsch_gordan_rank2(l, lp)]


def rhom_dimensions(e, f, n):
    """Map degree -> dim Ext^degree(E, F) by summing Bott outcomes."""
    table = {}
    for a1, a2 in hom_s_blocks(e, f):
        res = _bott_zero_tail(a1, a2, n)
        if res is not None:
            degree, dim = res
            table[degree] = table.get(degree, 0) + dim
    return table


def test_hom_summand_weights_match_clebsch_gordan():
    ws = hom_s_blocks((2, 1), (1, 3))
    assert len(ws) == 2
    assert ws[0] == (1 - 3 + 2, 1 - 3 - 1)  # i = 0
    assert ws[1] == (-1, -2)  # i = 1


def test_rhom_self_is_one_dimensional():
    for n, label in ((10, (4, 2)), (7, (2, 5)), (8, (3, 1))):
        table = rhom_dimensions(label, label, n)
        assert table == {0: 1}


def test_collection_verification_passes():
    rep = verify_strong_exceptional(10, grassmannian_window(10))
    assert rep.passed
    assert rep.pair_count == 45 * 45
    rep7 = verify_strong_exceptional(7, grassmannian_window(7))
    assert rep7.passed
    assert rep7.pair_count == 21 * 21


def test_collection_hom_matrix_diagonal_and_order():
    rep = verify_strong_exceptional(7, grassmannian_window(7))
    size = len(rep.order)
    for i in range(size):
        assert rep.hom_matrix[i][i] == 1
        for j in range(i):
            assert rep.hom_matrix[i][j] == 0


def test_collection_failure_is_detected():
    # the Pfaffian-side window with too many twists is not exceptional on
    # the Grassmannian: it leaves the safe range and higher Ext appears
    rep = verify_strong_exceptional(6, pfaffian_window(6, 9))
    assert not rep.passed
    assert rep.ext_failures


def test_collection_refuses_negative_symmetric_powers():
    # Sym^l with l < 0 is no bundle: the verifier refuses such a label
    for window in ({(-1, 0), (0, 0)}, {(-2, 3)}):
        with pytest.raises(ValueError):
            verify_strong_exceptional(5, frozenset(window))


@pytest.mark.parametrize("n", [0, 1, 2, 10.0])
def test_verifiers_refuse_a_bad_n(n):
    # n < 3 is no Gr(2, n) and 10.0 no integer: a ValueError that names n,
    # not a verdict or an error from deep inside the Bott code
    with pytest.raises(ValueError, match=f"\\b{n}\\b"):
        verify_strong_exceptional(n, frozenset({(0, 0), (0, 1)}))
    with pytest.raises(ValueError, match=f"\\b{n}\\b"):
        twisted_ext_vanishing(n)


def pair_walk_failures(n, window, rhom=rhom_dimensions):
    """Ext failures, order violations and diagonal failures, pair by pair.

    One ``rhom`` call (the oracle by default) per ordered pair of the
    window, in the verifier's order, with no table shared between pairs.
    """
    order = sorted(window, key=lambda lm: (-lm[1], -lm[0]))
    ext, violations, diagonal = [], [], []
    for i, e in enumerate(order):
        for j, f in enumerate(order):
            table = rhom(e, f, n)
            ext += [(e, f, d, v) for d, v in sorted(table.items()) if d > 0]
            hom = table.get(0, 0)
            if i == j and hom != 1:
                diagonal.append((e, hom))
            if i > j and hom != 0:
                violations.append((e, f, hom))
    return tuple(ext), tuple(violations), tuple(diagonal)


def report_failures(rep):
    return rep.ext_failures, rep.order_violations, rep.diagonal_failures


def test_failure_lists_match_a_pair_walk_on_failing_windows():
    # every failing Pfaffian-side window with n <= 12 and k <= 2n (95 of
    # them, both parities of n); the natural ones fail on Ext only
    failing = 0
    for n in range(3, 13):
        for k in range(1, 2 * n + 1):
            window = pfaffian_window(n, k)
            rep = verify_strong_exceptional(n, window)
            if rep.passed:
                assert report_failures(rep) == ((), (), ())
                continue
            failing += 1
            assert rep.ext_failures
            assert report_failures(rep) == pair_walk_failures(n, window), (n, k)
    assert failing == 95


@pytest.mark.parametrize(
    "planted, kind",
    [
        ({(1, 0, -1): 2}, "order"),  # Hom against the twist order
        ({(0, 2, 0): 1}, "order"),  # same twist, smaller l first
        ({(1, 1, 0): 2}, "diagonal"),  # a bundle that is not simple
        ({(0, 0, 0): 0}, "diagonal"),
        ({(2, 0, 0): 3, (0, 1, -2): 1, (2, 2, 0): 4}, "both"),
    ],
)
def test_failure_lists_match_a_pair_walk_on_planted_homs(monkeypatch, planted, kind):
    # no natural window with n <= 14 has an order violation or a diagonal
    # failure, so plant them: dim Hom at the given keys (l, l', m - m'),
    # in the verifier's per-call table and in the oracle of the pair walk
    rhom_by_key = sections._rhom_by_key

    def planted_table(keys, n):
        table = rhom_by_key(keys, n)
        for key, dim in planted.items():
            if key in table:
                table[key] = (dim,) + table[key][1:]
        return table

    def planted_rhom(e, f, n):
        table = dict(rhom_dimensions(e, f, n))
        dim = planted.get((e[0], f[0], e[1] - f[1]))
        if dim is not None:
            table[0] = dim
        return table

    monkeypatch.setattr(sections, "_rhom_by_key", planted_table)
    for n, window, has_ext in ((7, grassmannian_window(7), False),
                               (8, grassmannian_window(8), False),
                               (8, pfaffian_window(8, 7), True)):
        rep = verify_strong_exceptional(n, window)
        assert not rep.passed
        ext, violations, diagonal = pair_walk_failures(n, window, planted_rhom)
        assert report_failures(rep) == (ext, violations, diagonal)
        assert bool(violations) == (kind in ("order", "both"))
        assert bool(diagonal) == (kind in ("diagonal", "both"))
        assert bool(ext) == has_ext
        index = {label: i for i, label in enumerate(rep.order)}
        for e, f, dim in violations:
            assert rep.hom_matrix[index[e]][index[f]] == dim


def test_hom_summands_never_reach_the_run_walk(monkeypatch):
    # the zero q-block of every Hom and Ext summand has a closed form
    import grpf.bwb as bwb

    def refuse(*args):
        raise AssertionError(f"_bott_runs{args}")

    monkeypatch.setattr(bwb, "_bott_runs", refuse)
    assert verify_strong_exceptional(10, grassmannian_window(10)).passed
    assert not verify_strong_exceptional(6, pfaffian_window(6, 9)).passed
    assert twisted_ext_vanishing(12).all_vanish
    assert not pair_twisted_vanishing(5, (2, 0), (2, 3)).vanishes_for_all_t


def least_row_pair_keys(n):
    """(l, min m) against (l', max m') for every row pair of the window."""
    rows = {}
    for l, m in grassmannian_window(n):
        rows.setdefault(l, []).append(m)
    return sorted(
        ((l, min(ms)), (lp, max(mps))) for l, ms in rows.items() for lp, mps in rows.items()
    )


def test_verifiers_compute_each_hom_key_once_per_call(monkeypatch):
    # each Bott summand (a1, a2) of a collection check reaches
    # _bott_zero_tail once, and the next call evaluates it again, because
    # the table is local to the call.  The lemma decides each row pair
    # (l, l') by one verdict at its least m - m', on every call
    zero_tail, pair = sections._bott_zero_tail, sections.pair_twisted_vanishing
    summands, computed = [], []

    def counted_zero_tail(a1, a2, n):
        summands.append((a1, a2))
        return zero_tail(a1, a2, n)

    def counted_pair(n, e, f):
        computed.append((e, f))
        return pair(n, e, f)

    monkeypatch.setattr(sections, "_bott_zero_tail", counted_zero_tail)
    monkeypatch.setattr(sections, "pair_twisted_vanishing", counted_pair)
    window = grassmannian_window(16)
    labels = sorted(window)
    distinct = sorted({ab for e in labels for f in labels for ab in hom_s_blocks(e, f)})
    assert len(distinct) == 484
    for _ in range(2):
        summands.clear()
        verify_strong_exceptional(16, window)
        assert sorted(summands) == distinct
        computed.clear()
        twisted_ext_vanishing(8)
        assert sorted(computed) == least_row_pair_keys(8)
    computed.clear()
    twisted_ext_vanishing(200)
    assert len(computed) == 100 * 100
    assert sorted(computed) == least_row_pair_keys(200)


def window_keys(window):
    """The keys (l, l', m - m') of a window's ordered pairs."""
    rows = {}
    for l, m in window:
        rows.setdefault(l, []).append(m)
    return {
        (l, lp, d)
        for l, ms in rows.items()
        for lp, mps in rows.items()
        for d in {m - mp for m in ms for mp in mps}
    }


def oracle_triples(keys, n, memo):
    """Key -> (Hom, Ext^(n-2), Ext^(2(n-2))) by the oracle, memoized in ``memo``."""
    for key in keys - memo.keys():
        l, lp, d = key
        table = rhom_dimensions((l, d), (lp, 0), n)
        memo[key] = (table.pop(0, 0), table.pop(n - 2, 0), table.pop(2 * (n - 2), 0))
        assert not table, (n, key, table)
    return {key: memo[key] for key in keys}


def record_tables(monkeypatch):
    """Make the verifier record each (keys, table) it builds, in a list returned."""
    rhom_by_key, built = sections._rhom_by_key, []

    def recorded(keys, n):
        built.append((keys, rhom_by_key(keys, n)))
        return built[-1][1]

    monkeypatch.setattr(sections, "_rhom_by_key", recorded)
    return built


@pytest.mark.parametrize("n", range(3, 27))
def test_antidiagonal_table_matches_the_oracle_on_windows(monkeypatch, n):
    # the verifier builds its table from exactly the keys of the window's
    # pairs; the table of every S window and every T window with k <= 2n
    # equals the per-summand oracle at every key
    rhom_by_key = sections._rhom_by_key
    built = record_tables(monkeypatch)
    windows = [grassmannian_window(n)] + [pfaffian_window(n, k) for k in range(1, 2 * n + 1)]
    memo = {}
    for window in windows[:1] + windows[-1:]:
        verify_strong_exceptional(n, window)
    assert [keys for keys, _ in built] == [window_keys(w) for w in windows[:1] + windows[-1:]]
    for window in windows:
        keys = window_keys(window)
        assert rhom_by_key(keys, n) == oracle_triples(keys, n, memo), (n, len(window))


def has_gapped_span(window):
    """Whether on some antidiagonal s the a2 of the window's summands leave a gap."""
    covered = {}
    for e in window:
        for f in window:
            covered.setdefault(2 * (e[1] - f[1]) + e[0] - f[0], set()).update(
                a2 for _, a2 in hom_s_blocks(e, f)
            )
    return any(len(a2s) <= max(a2s) - min(a2s) for a2s in covered.values())


def test_antidiagonal_table_matches_the_oracle_on_gapped_label_sets(monkeypatch):
    # on sparse random label sets the span of an antidiagonal (its least to
    # its greatest a2) can hold summands of no key; draw until 40 such sets
    rng = random.Random(29)
    built = record_tables(monkeypatch)
    gapped = 0
    for _ in range(500):
        n = rng.randint(3, 11)
        window = frozenset(
            (rng.randint(0, n), rng.randint(-4, n + 2)) for _ in range(rng.randint(1, 12))
        )
        built.clear()
        verify_strong_exceptional(n, window)
        ((keys, table),) = built
        assert keys == window_keys(window)
        assert table == oracle_triples(keys, n, {})
        gapped += has_gapped_span(window)
        if gapped == 40:
            break
    assert gapped == 40


# --- twisted vanishing for all t -----------------------------------------------

def test_twisted_vanishing_even_cases():
    for n in (8, 10, 12):
        rep = twisted_ext_vanishing(n)
        assert rep.all_vanish
        size = len(grassmannian_window(n))
        assert rep.pair_count == size * size


def covered_set_verdict(n, e, f):
    """The all-t verdict from explicit sets of covered twists per summand."""
    for i, (a1, a2) in enumerate(hom_s_blocks(e, f)):
        covered = set(range(max(0, 2 - n - a2), -a2))
        covered.update(range(max(0, 1 - n - a1), -1 - a1))
        for t in range(max(0, -a2)):
            if t in covered:
                continue
            res = bott(n, (a1 + t, a2 + t), (0,) * (n - 2))
            if res is not None and res[0] > 0:
                return PairVerdict(False, (i, t) + res[:2])
    return PairVerdict(True, None)


def test_pair_verdict_residual_twists_in_closed_form():
    verdicts = set()
    for n in range(4, 15):
        for l in range(n):
            for lp in range(n):
                passed = False
                for d in range(-3 * n, 2 * n):
                    e, f = (l, d), (lp, 0)
                    verdict = pair_twisted_vanishing(n, e, f)
                    assert verdict == covered_set_verdict(n, e, f), (n, e, f)
                    verdicts.add(verdict.vanishes_for_all_t)
                    # the failing m - m' of a row pair form a down-set
                    assert verdict.vanishes_for_all_t or not passed, (n, e, f)
                    passed = verdict.vanishes_for_all_t
    # a residual twist (neither dominant nor a repeat) is in positive
    # degree, so the oracle's first one is the closed form's counterexample
    assert verdicts == {True, False}


def brute_twisted_ext_vanishing(n):
    """The lemma's counts and counterexamples, walking every label pair."""
    labels = sorted(grassmannian_window(n))
    verdicts = {}
    summands = 0
    counterexamples = []
    for e in labels:
        for f in labels:
            key = (e[0], f[0], e[1] - f[1])
            if key not in verdicts:
                verdicts[key] = sections.pair_twisted_vanishing(n, e, f)
            verdict = verdicts[key]
            summands += min(e[0], f[0]) + 1
            if not verdict.vanishes_for_all_t:
                counterexamples.append((e, f) + verdict.counterexample)
    return len(labels) ** 2, summands, tuple(counterexamples)


@pytest.mark.parametrize("n", range(4, 31, 2))
def test_twisted_vanishing_counts_match_every_pair(n):
    rep = twisted_ext_vanishing(n)
    counts = (rep.pair_count, rep.summand_count, rep.counterexamples)
    assert counts == brute_twisted_ext_vanishing(n)
    assert rep.all_vanish


@pytest.mark.parametrize("n, bad_key", [(8, (1, 2, -3)), (12, (0, 0, 0)), (12, (5, 3, 4))])
def test_twisted_vanishing_counterexamples_keep_pair_order(monkeypatch, n, bad_key):
    # bad_key = (l, l', d0): a verdict that fails on every key of the row
    # pair (l, l') with m - m' <= d0, a down-set like every real failure,
    # must be listed for every label pair with such a key, in the order of
    # the label walk
    pair = sections.pair_twisted_vanishing
    l, lp, d0 = bad_key

    def failing_below_d0(n, e, f):
        if (e[0], f[0]) == (l, lp) and e[1] - f[1] <= d0:
            return PairVerdict(False, (0, 7, 1, 3))
        return pair(n, e, f)

    monkeypatch.setattr(sections, "pair_twisted_vanishing", failing_below_d0)
    rep = twisted_ext_vanishing(n)
    pairs, summands, counterexamples = brute_twisted_ext_vanishing(n)
    assert len(counterexamples) > 1
    assert rep.counterexamples == counterexamples
    assert (rep.pair_count, rep.summand_count) == (pairs, summands)


def test_twisted_vanishing_requires_even_n():
    with pytest.raises(ValueError):
        twisted_ext_vanishing(7)


def test_twisted_vanishing_negative_control():
    # a target outside the window produces a concrete failing twist: the
    # first twist below the dominant regime that no repeat window covers
    verdict = pair_twisted_vanishing(10, (4, 0), (5, 9))
    assert not verdict.vanishes_for_all_t
    i, t, degree, dim = verdict.counterexample
    assert degree > 0 and dim > 0
    # confirm by direct computation at the reported twist
    table = rhom_dimensions((4, 0), (5, 9 - t), 10)
    assert table.get(degree, 0) >= dim


def test_twisted_vanishing_pair_level_inside_window():
    window = sorted(grassmannian_window(8))
    for e in window:
        for f in window:
            assert pair_twisted_vanishing(8, e, f).vanishes_for_all_t


def test_enumerative_matches_symbolic_at_small_twists():
    # if Ext^{>0}(E, F(t)) vanishes for all t, the direct computation at
    # t = 0..k must agree
    labels = sorted(grassmannian_window(10))
    sample = labels[:: 9]
    for e in sample:
        for f in sample:
            assert pair_twisted_vanishing(10, e, f).vanishes_for_all_t
            for t in range(6):
                table = rhom_dimensions(e, (f[0], f[1] - t), 10)
                assert all(deg == 0 for deg in table), (e, f, t)


@pytest.mark.parametrize(
    "n, k, genus, h1",
    [(3, 1, 0, 0), (4, 3, 0, 0), (5, 5, 1, 1), (6, 7, 8, 21), (7, 9, 43, 126)],
)
def test_h1_tangent_on_curve_sections(n, k, genus, h1):
    # adjunction: 2g - 2 = (k - n) deg Gr(2, n); h^1(T) = h^0(T) - chi(T)
    # with chi(T) = 3 - 3g and h^0(T) = 3, 1, 0 for g = 0, 1, >= 2
    assert 2 * genus - 2 == (k - n) * catalan(n - 2)
    res = h1_tangent_y1(ModelParams(n, k))
    assert (res.mode, res.h1) == ("exact", h1)
    assert res.h0 == {0: 3, 1: 1}.get(genus, 0)
    assert res.h1 == res.h0 - (3 - 3 * genus)
    assert res.tangent_restricted.page and res.normal_restricted.page


def test_hom_dimensions_match_symbolic_regimes():
    # the enumerative path (Bott at each twist) must reproduce the
    # dimension data implied by the interval analysis: a summand
    # contributes to Hom exactly when its shifted weight is dominant, with
    # the Weyl dimension of that weight
    n = 10
    labels = sorted(grassmannian_window(n))[::7]
    for e in labels:
        for f in labels:
            for t in range(0, 7):
                expected = 0
                ft = (f[0], f[1] - t)  # F(t)
                for a1, a2 in hom_s_blocks(e, ft):
                    if a2 >= 0:
                        expected += direct_weyl_product((a1, a2) + (0,) * (n - 2))
                table = rhom_dimensions(e, ft, n)
                assert table.get(0, 0) == expected, (e, f, t)
