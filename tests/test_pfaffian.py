import itertools
import json
import math
import random

import numpy as np
import pytest

from grpf.errors import DegenerateFamilyError, ParityError
from grpf.modp import rank_mod
from grpf.pfaffian import (
    AMap,
    _point_at,
    build_skew_matrix,
    hypersurface_hodge,
    jacobian_ring_dimension,
    lg_ext_profile,
    lg_hom_shift,
    pair_index,
    pair_of_index,
    pfaffian_polynomial,
    sample_y2,
    submaximal_pfaffians,
)
from grpf.poly import Poly, PrimeField, Rationals


# --- column indexing and family construction ----------------------------------

def test_pair_index_roundtrip():
    for n in (3, 5, 8):
        cols = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for idx, (i, j) in enumerate(cols):
            assert pair_index(n, i, j) == idx
            assert pair_of_index(n, idx) == (i, j)


def test_build_skew_matrix_minimal():
    am = AMap(2, 1, Rationals(), [[1]])
    slm = build_skew_matrix(am)
    u1 = Poly.variable(Rationals(), 1, 0)
    assert slm.entries[0][1] == u1
    assert slm.entries[1][0] == -u1
    assert slm.entries[0][0].is_zero()


def test_build_skew_matrix_basis_evaluation():
    # evaluating at a standard basis vector recovers the corresponding row
    am = AMap.random(6, 4, seed=3, p=10007)
    slm = build_skew_matrix(am)
    for r in range(4):
        e = [0] * 4
        e[r] = 1
        mat = slm.evaluate(e)
        for i in range(6):
            for j in range(i + 1, 6):
                assert mat[i][j] == am.matrix[r][pair_index(6, i, j)]
                assert mat[j][i] == (-mat[i][j]) % 10007


def test_degenerate_family_rejected():
    with pytest.raises(DegenerateFamilyError):
        AMap(4, 2, Rationals(), [[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])


def test_amap_json_roundtrip(tmp_path):
    am = AMap.random(5, 3, seed=9, p=10007)
    path = tmp_path / "a.json"
    am.save(path)
    loaded = AMap.load(path)
    assert loaded.to_json_dict() == am.to_json_dict()
    # canonical serialization is byte-stable
    am.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_amap_json_rational_field(tmp_path):
    am = AMap.random(4, 2, seed=1)
    d = am.to_json_dict()
    assert d["field"] == "Q"
    loaded = AMap.from_json_dict(json.loads(json.dumps(d)))
    assert loaded.matrix == am.matrix


# --- Pfaffians ------------------------------------------------------------------

def test_pfaffian_2x2_and_4x4():
    assert pfaffian_polynomial([[0, 7], [-7, 0]]) == 7
    m = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    # a12 a34 - a13 a24 + a14 a23
    assert pfaffian_polynomial(m) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_squares_to_det_symbolic():
    # fully generic skew matrices with one variable per upper entry
    f = Rationals()
    for n in (2, 4, 6):
        nv = n * (n - 1) // 2
        mat = [[Poly.zero(f, nv) for _ in range(n)] for _ in range(n)]
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                v = Poly.variable(f, nv, idx)
                idx += 1
                mat[i][j] = v
                mat[j][i] = -v
        # symbolic determinant by cofactor expansion along the first column
        def det(rows, cols):
            if not rows:
                return Poly.const(f, nv, 1)
            out = Poly.zero(f, nv)
            r0 = rows[0]
            for t, c in enumerate(cols):
                term = mat[r0][c] * det(rows[1:], cols[:t] + cols[t + 1 :])
                out = out + term if t % 2 == 0 else out - term
            return out

        from grpf.pfaffian import SkewLinearMatrix

        slm = SkewLinearMatrix(n, nv, f, mat)
        pf = pfaffian_polynomial(slm)
        assert pf * pf == det(tuple(range(n)), tuple(range(n)))


def test_pfaffian_rejects_odd_and_nonskew():
    with pytest.raises(ParityError):
        pfaffian_polynomial([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    with pytest.raises(ValueError):
        pfaffian_polynomial([[0, 1], [1, 0]])


def test_symbolic_family_pfaffian_degree():
    am = AMap.random(10, 5, seed=42, p=10007)
    pf = pfaffian_polynomial(build_skew_matrix(am))
    assert pf.total_degree() == 5
    # interior sanity: evaluating the polynomial agrees with the numeric route
    from grpf.modp import pfaffian_mod

    slm = build_skew_matrix(am)
    rng = random.Random(0)
    for _ in range(20):
        u = [rng.randrange(10007) for _ in range(5)]
        assert pf.evaluate(u) == pfaffian_mod(slm.evaluate(u), 10007)


def test_submaximal_pfaffians_n3():
    f = Rationals()
    am = AMap(3, 3, f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    slm = build_skew_matrix(am)
    subs = submaximal_pfaffians(slm)
    # deleting row/column i leaves the single entry m_{jk}
    assert [str(s) for s in subs] == ["u3", "u2", "u1"]
    with pytest.raises(ParityError):
        submaximal_pfaffians(build_skew_matrix(AMap(4, 1, f, [[1, 0, 0, 0, 0, 0]])))


def test_submaximal_vanishing_matches_rank_drop():
    # a point annihilates every submaximal Pfaffian iff the rank drops to n-3
    am = AMap.random(7, 7, seed=5, p=10007)
    slm = build_skew_matrix(am)
    subs = submaximal_pfaffians(slm)
    res = sample_y2(am, 10007, 5, seed=7)
    assert res.points
    for q in res.points:
        mat = slm.evaluate(q.coordinates)
        assert rank_mod(mat, 10007) <= 4
        assert all(s.evaluate(q.coordinates) == 0 for s in subs)
    rng = random.Random(8)
    hits = 0
    for _ in range(30):
        u = [rng.randrange(10007) for _ in range(7)]
        mat = slm.evaluate(u)
        vanishes = all(s.evaluate(u) == 0 for s in subs)
        assert vanishes == (rank_mod(mat, 10007) <= 4)
        hits += vanishes
    assert hits == 0  # random points essentially never land on the locus


# --- sampling -------------------------------------------------------------------

def test_sampling_even_case_small():
    am = AMap.random(10, 5, seed=42, p=10007)
    res = sample_y2(am, 10007, 40, seed=42)
    assert len(res.points) == 40
    assert not res.exhausted
    for q in res.points:
        assert q.rank == 8 and q.kernel_dim == 2
        assert q.smooth_at
        assert q.rank % 2 == 0
        assert q.coordinates[next(i for i, x in enumerate(q.coordinates) if x)] == 1


def test_sampling_odd_case_small():
    am = AMap.random(7, 7, seed=42, p=10007)
    res = sample_y2(am, 10007, 40, seed=42)
    assert len(res.points) == 40
    for q in res.points:
        assert q.rank == 4 and q.kernel_dim == 3
        assert q.smooth_at


def test_sampling_deterministic():
    am = AMap.random(8, 4, seed=11, p=10007)
    a = sample_y2(am, 10007, 25, seed=3)
    b = sample_y2(am, 10007, 25, seed=3)
    assert a == b
    c = sample_y2(am, 10007, 25, seed=4)
    assert a.points != c.points


def test_sampling_rational_family_reduces_mod_p():
    am = AMap.random(6, 3, seed=2)  # over Q
    res = sample_y2(am, 101, 10, seed=1)
    assert res.prime == 101
    for q in res.points:
        assert q.kernel_dim in (2, 4)


def test_sampling_forced_singular_point():
    # plant a rank-4 form as a family member: that point of the quartic
    # surface lies on the deeper stratum and must be flagged singular
    p = 10007
    n, k = 8, 4
    rng = random.Random(13)
    f = PrimeField(p)
    while True:
        rows = [[rng.randrange(p) for _ in range(math.comb(n, 2))] for _ in range(k)]
        # first member: a rank-4 skew form supported on coordinates 0..3
        row0 = [0] * math.comb(n, 2)
        for (i, j, v) in ((0, 1, 1), (2, 3, 1)):
            row0[pair_index(n, i, j)] = v
        rows[0] = row0
        try:
            am = AMap(n, k, f, rows)
            break
        except DegenerateFamilyError:
            continue
    slm = build_skew_matrix(am)
    e0 = (1, 0, 0, 0)
    assert rank_mod(slm.evaluate(e0), p) == 4
    pf = pfaffian_polynomial(slm)
    assert pf.evaluate(e0) == 0
    grads = [pf.partial(r).evaluate(e0) for r in range(k)]
    assert all(g == 0 for g in grads)  # Jacobian criterion fails there
    point = _point_at(am.basis_forms(), e0, p)
    assert (point.rank, point.kernel_dim, point.smooth_at) == (4, 4, False)


def symbolic_jacobian_test(am):
    """Reference verdict u -> bool: the Jacobian criterion on the symbolic
    Pfaffian (even n, codimension 1) or submaximal Pfaffians (odd n, 3)."""
    slm = build_skew_matrix(am)
    if am.n % 2 == 0:
        polys, codim = [pfaffian_polynomial(slm)], 1
    else:
        polys, codim = submaximal_pfaffians(slm), 3
    partials = [[poly.partial(r) for r in range(am.k)] for poly in polys]
    p = am.field.p
    return lambda u: rank_mod([[d.evaluate(u) for d in row] for row in partials], p) == codim


@pytest.mark.parametrize(
    "n, k, p, seeds, count, max_lines, verdicts",
    [
        (10, 5, 10007, (1, 2), 10, None, {True}),  # even, line sweep
        (8, 4, 10007, (1, 2), 20, None, {True}),
        (6, 3, 101, (9, 13), 100, None, {True, False}),  # singular points
        (6, 1, 3, (1, 2), 1, None, {False}),  # even, k = 1
        (7, 7, 10007, (1, 2), 10, None, {True}),  # odd square
        (7, 8, 10007, (1, 2), 8, None, {True}),  # odd sliced
        (5, 3, 5, (3,), 4, 40, {False}),  # odd trials, excess points only
        (7, 5, 5, (3,), 4, 40, {True, False}),  # odd trials
    ],
    ids=["even-10-5", "even-8-4", "even-6-3", "even-k1", "odd-square-7-7",
         "odd-sliced-7-8", "odd-trials-5-3", "odd-trials-7-5"],
)
def test_point_verdict_matches_symbolic_jacobian(n, k, p, seeds, count, max_lines, verdicts):
    seen = set()
    for seed in seeds:
        am = AMap.random(n, k, seed=seed, p=p)
        reference = symbolic_jacobian_test(am)
        res = sample_y2(am, p, count, seed=seed, max_lines=max_lines)
        for q in res.points:
            assert q == _point_at(am.basis_forms(), q.coordinates, p)
            assert q.smooth_at == reference(q.coordinates), q
            seen.add(q.smooth_at)
    assert seen == verdicts


def planted_family(n, k, p, seed, support, vanishing=()):
    """A family whose first member is sum of e_i ^ e_j over ``support``.

    Every member is zero on the pairs listed in ``vanishing``.
    """
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(p) for _ in range(math.comb(n, 2))] for _ in range(k)]
        rows[0] = [0] * math.comb(n, 2)
        for i, j in support:
            rows[0][pair_index(n, i, j)] = 1
        for row in rows:
            for i, j in vanishing:
                row[pair_index(n, i, j)] = 0
        try:
            return AMap(n, k, PrimeField(p), rows)
        except DegenerateFamilyError:
            continue


def test_planted_odd_corank_three_points():
    # n = 7, first member of rank 4 with kernel e4, e5, e6; when every
    # member vanishes on (e4, e5) the map U -> Wedge^2 K* misses a direction
    p = 10007
    e0 = (1, 0, 0, 0)
    for vanishing, smooth in ((((4, 5),), False), ((), True)):
        am = planted_family(7, 4, p, 31, ((0, 1), (2, 3)), vanishing)
        point = _point_at(am.basis_forms(), e0, p)
        assert (point.rank, point.kernel_dim) == (4, 3)
        assert point.smooth_at is smooth
        assert symbolic_jacobian_test(am)(e0) is smooth


def test_planted_deep_corank_points_are_singular():
    # corank 4 (even n) or 5 (odd n): the Pfaffians vanish to order two,
    # even when k is large enough for the pairings on K to have full rank
    p = 10007
    for n, k in ((6, 7), (7, 11)):
        am = planted_family(n, k, p, 32, ((0, 1),))
        e0 = (1,) + (0,) * (k - 1)
        point = _point_at(am.basis_forms(), e0, p)
        assert (point.rank, point.kernel_dim, point.smooth_at) == (2, n - 2, False)
        assert symbolic_jacobian_test(am)(e0) is False


def test_sampler_builds_no_symbolic_pfaffian(monkeypatch):
    import grpf.pfaffian as pf_mod

    def forbidden(*args):
        raise AssertionError("symbolic Pfaffian on the sampling path")

    monkeypatch.setattr(pf_mod, "pfaffian_polynomial", forbidden)
    monkeypatch.setattr(pf_mod, "submaximal_pfaffians", forbidden)
    monkeypatch.setattr(Poly, "partial", forbidden)
    for n, k, p in ((8, 4, 10007), (6, 1, 3), (7, 7, 10007), (7, 8, 10007), (7, 5, 5)):
        am = AMap.random(n, k, seed=2, p=p)
        sample_y2(am, p, 2, seed=2, max_lines=40)


def test_sampling_beyond_symbolic_reach():
    # (14, 7): the symbolic Pfaffian has about 2^14 memoized subsets; the
    # sampler no longer builds it
    am = AMap.random(14, 7, seed=1, p=10007)
    res = sample_y2(am, 10007, 5, seed=1)
    assert len(res.points) == 5
    for q in res.points:
        assert (q.rank, q.kernel_dim, q.smooth_at) == (12, 2, True)


def test_sampling_exhaustion_report_not_exception():
    # an empty locus: generic 2-dimensional family for n = 7 has no
    # rank <= 4 members; the search must report exhaustion gracefully
    am = AMap.random(7, 2, seed=21, p=101)
    res = sample_y2(am, 101, 5, seed=1, max_lines=20)
    assert res.exhausted
    assert res.points == ()


def test_trial_search_stops_when_every_point_is_drawn():
    # odd n with k < n samples by trials; at p = 3 the 13 points of
    # P^2(F_3) are far fewer than the budget of 50 * 1150 trials, so the
    # search must return exactly the locus points of an exhaustive scan
    # and stop once it has drawn every point
    p = 3
    plane = [u for u in itertools.product(range(p), repeat=3)
             if any(u) and next(x for x in u if x) == 1]
    assert len(plane) == 13
    sizes = set()
    for seed in (1, 2, 10):
        am = AMap.random(5, 3, seed=seed, p=p)
        scan = [_point_at(am.basis_forms(), u, p) for u in plane]
        res = sample_y2(am, p, 13, seed=seed)
        assert res.points == tuple(q for q in scan if q is not None)
        assert res.exhausted
        assert res.attempts < 1000
        sizes.add(len(res.points))
    assert sizes == {0, 1, 2}


def test_sampling_validates_prime():
    am = AMap.random(6, 3, seed=2)
    with pytest.raises(ValueError):
        sample_y2(am, 10006, 5, seed=1)


@pytest.mark.parametrize("p", [3037000507, 2**61 - 1])
def test_sampling_at_large_primes(p):
    # far beyond the reach of any scan of F_p
    am = AMap.random(6, 3, seed=2)
    res = sample_y2(am, p, 5, seed=1)
    assert len(res.points) == 5 and not res.exhausted
    slm = build_skew_matrix(am.reduce_mod(p))
    for q in res.points:
        assert rank_mod(slm.evaluate(q.coordinates), p) == q.rank == 4
    with pytest.raises(ValueError, match="count"):
        sample_y2(am, p, 0, seed=1)
    with pytest.raises(ValueError, match="odd prime"):
        sample_y2(am, p + 2, 5, seed=1)


# --- rank census over finite fields ----------------------------------------------

def matchings_with_sign(indices):
    if not indices:
        yield 1, []
        return
    i0 = indices[0]
    for t in range(1, len(indices)):
        rest = indices[1:t] + indices[t + 1 :]
        sign = (-1) ** (t - 1)
        for s, pairs in matchings_with_sign(rest):
            yield sign * s, [(i0, indices[t])] + pairs


def vector_pfaffians(n, batch, p, rng_seed):
    """Vectorized Pfaffians of random skew matrices via perfect matchings."""
    rng = np.random.default_rng(rng_seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entries = {pair: rng.integers(0, p, size=batch, dtype=np.int64) for pair in pairs}
    total = np.zeros(batch, dtype=np.int64)
    for sign, matching in matchings_with_sign(tuple(range(n))):
        prod = np.full(batch, sign % p, dtype=np.int64)
        for pair in matching:
            prod = prod * entries[pair] % p
        total = (total + prod) % p
    return total


def test_rank_census_codimension_one():
    # {rank <= n-2} has codimension 1: the zero locus of the Pfaffian, so
    # the hit frequency over F_p is about 1/p
    p = 10007
    for n, batch, seed in ((4, 300_000, 10), (6, 300_000, 11), (8, 200_000, 12)):
        hits = int(np.count_nonzero(vector_pfaffians(n, batch, p, seed) == 0))
        expected = batch / p
        assert expected / 3 <= hits <= expected * 3, (n, hits, expected)


def test_rank_census_codimension_three():
    # odd n: {rank <= n-3} has codimension C(3,2) = 3; at a small prime the
    # frequency ~ q^{-3} is observable
    q = 11
    n = 5
    rng = random.Random(123)
    from grpf.modp import random_skew_mod

    batch = 150_000
    hits = 0
    for _ in range(batch):
        m = random_skew_mod(n, q, rng)
        if rank_mod(m, q) <= 2:
            hits += 1
    expected = batch / q**3
    assert expected / 3 <= hits <= expected * 3, (hits, expected)


def test_rank_census_deep_strata_rare():
    # at p = 10007 a codimension-3 stratum has frequency ~ 1e-12: a modest
    # sample must contain (essentially) no hits
    p = 10007
    n = 7
    rng = random.Random(124)
    from grpf.modp import random_skew_mod

    hits = 0
    for _ in range(20_000):
        if rank_mod(random_skew_mod(n, p, rng), p) <= 4:
            hits += 1
    assert hits == 0


# --- hypersurface Hodge numbers ---------------------------------------------------

def test_jacobian_ring_dimensions_quintic():
    # (1 + t + t^2 + t^3)^5: degree-5 coefficient is 101
    assert jacobian_ring_dimension(4, 5, 0) == 1
    assert jacobian_ring_dimension(4, 5, 5) == 101
    assert jacobian_ring_dimension(4, 5, 10) == 101
    assert jacobian_ring_dimension(4, 5, 15) == 1
    assert jacobian_ring_dimension(4, 5, 16) == 0
    assert jacobian_ring_dimension(4, 5, -1) == 0


def test_hypersurface_quintic_threefold():
    dia = hypersurface_hodge(4, 5)
    assert dia.middle_row() == [1, 101, 101, 1]
    assert dia.h[(1, 1)] == 1
    assert dia.euler_characteristic() == -200


def test_hypersurface_quartic_surface():
    dia = hypersurface_hodge(3, 4)
    assert dia.h[(2, 0)] == 1
    assert dia.h[(1, 1)] == 20
    assert dia.euler_characteristic() == 24


def test_hypersurface_plane_curves():
    # genus (d-1)(d-2)/2, with the elliptic curve at d = 3
    for d in range(1, 8):
        dia = hypersurface_hodge(2, d)
        assert dia.h[(1, 0)] == (d - 1) * (d - 2) // 2
    assert hypersurface_hodge(2, 3).h[(1, 0)] == 1


def test_hypersurface_low_degree_is_ambient():
    # degree 1: a hyperplane, i.e. projective space one dimension down
    dia = hypersurface_hodge(4, 1)
    for p in range(4):
        for q in range(4):
            assert dia.h[(p, q)] == (1 if p == q else 0)
    # quadric surface has h^{1,1} = 2
    assert hypersurface_hodge(3, 2).h[(1, 1)] == 2


def test_hypersurface_cubic_fourfold():
    dia = hypersurface_hodge(5, 3)
    assert dia.middle_row() == [0, 1, 21, 1, 0]


def test_hypersurface_validation():
    with pytest.raises(ValueError):
        hypersurface_hodge(1, 3)
    with pytest.raises(ValueError):
        hypersurface_hodge(4, 0)


# --- morphism-sheaf shadows -------------------------------------------------------

def test_lg_ext_profile_transverse():
    assert lg_ext_profile(10, 7, 3, 0) == [(3, 1)]


def test_lg_ext_profile_self_intersection_limit():
    # B inside A (here A = B): codimension equals excess rank and the
    # profile is a full binomial row in degrees 0..a, total 2^a
    profile = lg_ext_profile(10, 6, 6, 6)
    assert profile == [(i, math.comb(4, 4 - i)) for i in range(5)]
    assert sum(rank for _, rank in profile) == 2**4


def test_lg_ext_profile_total_rank():
    rng = random.Random(17)
    for _ in range(200):
        dim_x = rng.randrange(2, 12)
        dim_a = rng.randrange(0, dim_x + 1)
        dim_b = rng.randrange(0, dim_x + 1)
        lo = max(0, dim_a + dim_b - dim_x)
        dim_ab = rng.randrange(lo, min(dim_a, dim_b) + 1)
        profile = lg_ext_profile(dim_x, dim_a, dim_b, dim_ab)
        r = dim_x - dim_a - dim_b + dim_ab
        assert sum(rank for _, rank in profile) == 2**r
        degrees = [i for i, _ in profile]
        assert degrees == list(range(dim_x - dim_a - r, dim_x - dim_a + 1))


def test_lg_ext_profile_errors():
    with pytest.raises(ValueError):
        lg_ext_profile(10, 8, 8, 0)  # excess rank would be -6
    with pytest.raises(ValueError):
        lg_ext_profile(10, 4, 4, 5)  # intersection bigger than a factor


def test_lg_hom_shift():
    assert lg_hom_shift(3, 7) == -4
    assert lg_hom_shift(5, 5) == 0
    # the rank-2 bundle pairing: shift equals minus half the big rank
    for rk_v in (4, 10, 14):
        lgr_dim = 1
        dim_ab = lgr_dim + rk_v // 2
        dim_b = lgr_dim + rk_v
        assert lg_hom_shift(dim_ab, dim_b) == -rk_v // 2
        assert lg_hom_shift(dim_ab, dim_b) == -(2 * rk_v) // 4


def test_generic_rank_census_of_family_members():
    # a random member of a generic family has full rank (even n) or
    # corank one (odd n) essentially always
    p = 10007
    rng = random.Random(6)
    for n, k in ((6, 3), (7, 4)):
        am = AMap.random(n, k, seed=14, p=p)
        slm = build_skew_matrix(am)
        expected = n if n % 2 == 0 else n - 1
        hits = 0
        trials = 1000
        for _ in range(trials):
            u = [rng.randrange(p) for _ in range(k)]
            if rank_mod(slm.evaluate(u), p) == expected:
                hits += 1
        assert hits >= trials * 99 // 100, (n, k, hits)


def test_symbolic_family_degree_across_seeds():
    for seed in (1, 7, 42):
        am = AMap.random(10, 5, seed=seed, p=10007)
        pf = pfaffian_polynomial(build_skew_matrix(am))
        assert pf.total_degree() == 5
