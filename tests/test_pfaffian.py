import hashlib
import itertools
import json
import math
import operator
import os
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import grpf.modp
import grpf.pfaffian
from grpf.errors import DegenerateFamilyError, ParityError
from grpf.modp import (
    _barrett,
    _divmod,
    _pack,
    _pfaffian_series,
    _unpack,
    coerce,
    det_mod,
    nullspace_mod,
    pfaffian_mod,
    rank_mod,
    roots_mod,
)
from grpf.pfaffian import (
    AMap,
    _combine_forms,
    _kernel_incidence,
    _kernel_line_drawer,
    _point_at,
    _series_cofactors,
    _taylor_shift,
    hypersurface_hodge,
    jacobian_ring_dimension,
    pair_index,
    pfaffian_polynomial,
    sample_y2,
    submaximal_pfaffians,
)

Q = None  # the modulus that names the rationals


# A polynomial in u1..uk is the dict {exponent tuple: nonzero coefficient}.

def _add(f, g, sign=1):
    """f + sign * g over Q."""
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _mul(f, g):
    """f * g over Q."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _lagrange_mod(xs, ys, p):
    """Interpolating polynomial (ascending coefficients) through the points,
    with distinct xs mod p: Newton divided differences, then a Horner
    expansion of the Newton form, O(d^2) for d + 1 points."""
    npts = len(xs)
    c = [y % p for y in ys]
    for j in range(1, npts):
        for i in range(npts - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    coeffs = [0] * npts
    for i in range(npts - 1, -1, -1):
        # coeffs <- coeffs * (x - xs[i]) + c[i]
        for d in range(npts - 1, 0, -1):
            coeffs[d] = (coeffs[d - 1] - coeffs[d] * xs[i]) % p
        coeffs[0] = (c[i] - coeffs[0] * xs[i]) % p
    return coeffs


def _value(f, u, p=None):
    """f at the point u, exact over Q (p None), reduced mod p over F_p."""
    total = sum(c * math.prod(x**a for x, a in zip(u, e)) for e, c in f.items())
    return total if p is None else total % p


def _partial(f, r, p):
    """The derivative of f in u_(r+1), over Q (p None) or F_p."""
    out = {}
    for e, c in f.items():
        c = c * e[r] if p is None else c * e[r] % p
        if c:
            out[e[:r] + (e[r] - 1,) + e[r + 1:]] = c
    return out


# --- column indexing and family construction ----------------------------------

def test_pair_index_roundtrip():
    for n in (3, 5, 8):
        cols = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # the column order of AMap.matrix and of the Pfaffian expansion
        assert list(itertools.combinations(range(n), 2)) == cols
        for idx, (i, j) in enumerate(cols):
            assert pair_index(n, i, j) == idx


def test_family_skew_matrix_minimal():
    am = AMap(2, 1, Q, [[1]])
    assert _combine_forms(am.reduce_mod(5), [1], 5) == [[0, 1], [4, 0]]
    assert pfaffian_polynomial(am) == {(1,): 1}


def test_family_basis_evaluation():
    # evaluating at a standard basis vector recovers the corresponding row
    am = AMap.random(6, 4, seed=3, p=10007)
    fam = am.reduce_mod(10007)
    for r in range(4):
        e = [0] * 4
        e[r] = 1
        mat = _combine_forms(fam, e, 10007)
        for i in range(6):
            for j in range(i + 1, 6):
                assert mat[i][j] == am.matrix[r][pair_index(6, i, j)]
                assert mat[j][i] == (-mat[i][j]) % 10007


BIG_P = 3317044064679887385961783


def skew_of_row(row, n, p):
    """The skew matrix M over F_p whose upper triangle is ``row`` in lex order."""
    m = [[0] * n for _ in range(n)]
    for (i, j), c in zip(itertools.combinations(range(n), 2), row):
        m[i][j], m[j][i] = c % p, -c % p
    return m


@pytest.mark.parametrize("p", [10007, 2**61 - 1, BIG_P])
def test_combine_forms_matches_the_dot_products(p):
    # slots of one limb at p = 10007 even for k = C(n, 2), of two and three
    # limbs at the larger primes; u may hold any ints
    rng = random.Random(f"combine:{p}")
    for n in (2, 3, 6, 9, 12):
        ks = sorted({k for k in (1, 2, n) if k < math.comb(n, 2)} | {math.comb(n, 2)})
        fams = [AMap.random(n, k, 1, p) for k in ks]
        # every entry and every u_r p - 1: each slot reaches k (p - 1)^2
        fams += [SimpleNamespace(n=n, matrix=[[p - 1] * math.comb(n, 2)] * k) for k in ks]
        for fam in fams:
            k = len(fam.matrix)
            for u in ([p - 1] * k, [-1] * k, [rng.randrange(-3 * p, 3 * p) for _ in range(k)],
                      [rng.randrange(p) for _ in range(k)]):
                columns = zip(*fam.matrix)
                expected = skew_of_row([sum(map(operator.mul, u, col)) for col in columns], n, p)
                assert _combine_forms(fam, u, p) == expected, (n, k, u)


@pytest.mark.parametrize("p", [5, 10007, 2**61 - 1, BIG_P])
def test_kernel_incidence_stacks_the_members_times_v(p):
    # B_v = [M_1 v | ... | M_n v], and v^T B_v = 0 as each M_r is skew
    rng = random.Random(f"incidence:{p}")
    for n in (3, 5, 7, 9):
        square = AMap.random(n, n, 2, p)
        b_of = _kernel_incidence(square, p)
        forms = [skew_of_row(row, n, p) for row in square.matrix]
        for v in ([p - 1] * n, [rng.randrange(p) for _ in range(n)],
                  [rng.randrange(-2 * p, 2 * p) for _ in range(n)]):
            b = b_of(v)
            assert b == [[sum(map(operator.mul, form[i], v)) % p for form in forms]
                         for i in range(n)], (n, v)
            assert all(sum(x * row[r] for x, row in zip(v, b)) % p == 0 for r in range(n))


def test_degenerate_family_rejected():
    with pytest.raises(DegenerateFamilyError):
        AMap(4, 2, Q, [[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])


def test_q_family_rank_is_not_decided_modulo_one_prime():
    # over Q full rank is first checked modulo 2^30 - 35, where rank can only
    # drop; a short rank there falls back to exact elimination over Q
    prime = 2**30 - 35
    am = AMap(3, 2, Q, [[1, 0, 0], [0, prime, 0]])
    assert am.matrix[1][1] == prime
    assert AMap(3, 2, Q, [[Fraction(1, prime), 0, 0], [0, Fraction(prime, 3), 0]]).k == 2
    for rows in ([[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)]],
                 [[prime, 0, 0], [1, 0, 0]],
                 [[1, 1, 0], [2, 2, 0], [0, 0, 5]]):
        with pytest.raises(DegenerateFamilyError):
            AMap(3, len(rows), Q, rows)


def test_amap_json_roundtrip(tmp_path):
    am = AMap.random(5, 3, seed=9, p=10007)
    path = tmp_path / "a.json"
    am.save(path)
    loaded = AMap.load(path)
    assert loaded.to_json_dict() == am.to_json_dict()
    # canonical serialization is byte-stable
    am.save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_amap_rejects_non_integer_sizes():
    # int() truncated these: AMap(4.7, 1.9, ...) became the family n = 4, k = 1
    row = [[1, 0, 0, 0, 0, 1]]
    for n, k, bad in ((4.7, 1.9, "n 4.7"), (4.0, 1, "n 4.0"), (4, 1.0, "k 1.0")):
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not an integer")):
            AMap(n, k, None, row)
    assert (AMap(4, 1, None, row).n, AMap(4, 1, None, row).k) == (4, 1)


def test_amap_json_rational_field(tmp_path):
    am = AMap.random(4, 2, seed=1)
    d = am.to_json_dict()
    assert d["field"] == "Q"
    loaded = AMap.from_json_dict(json.loads(json.dumps(d)))
    assert loaded.matrix == am.matrix


# --- Pfaffians ------------------------------------------------------------------

def _numeric_pfaffian(m):
    """Pf(A) of a numeric skew A: the one-variable family whose row is A's
    upper triangle has Pfaffian Pf(A) u1^(n/2)."""
    n = len(m)
    row = [m[i][j] for i, j in itertools.combinations(range(n), 2)]
    pf = pfaffian_polynomial(AMap(n, 1, Q, [row]))
    assert set(pf) <= {(n // 2,)}
    return pf.get((n // 2,), 0)


def test_pfaffian_2x2_and_4x4():
    assert _numeric_pfaffian([[0, 7], [-7, 0]]) == 7
    m = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    # a12 a34 - a13 a24 + a14 a23
    assert _numeric_pfaffian(m) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_squares_to_det_symbolic():
    # fully generic families: one variable per upper entry
    for n in (2, 4, 6):
        nv = n * (n - 1) // 2
        mat = [[{} for _ in range(n)] for _ in range(n)]
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                v = tuple(int(s == idx) for s in range(nv))
                idx += 1
                mat[i][j] = {v: 1}
                mat[j][i] = {v: -1}
        # symbolic determinant by cofactor expansion along the first column
        def det(rows, cols):
            if not rows:
                return {(0,) * nv: 1}
            out = {}
            r0 = rows[0]
            for t, c in enumerate(cols):
                term = _mul(mat[r0][c], det(rows[1:], cols[:t] + cols[t + 1 :]))
                out = _add(out, term, (-1) ** t)
            return out

        pf = pfaffian_polynomial(_one_variable_per_entry(n))
        assert _mul(pf, pf) == det(tuple(range(n)), tuple(range(n)))


def test_pfaffian_rejects_odd_n():
    with pytest.raises(ParityError):
        pfaffian_polynomial(AMap(3, 1, Q, [[1, 1, 1]]))


def test_symbolic_family_pfaffian_degree():
    am = AMap.random(10, 5, seed=42, p=10007)
    pf = pfaffian_polynomial(am)
    assert max(map(sum, pf)) == 5
    # interior sanity: evaluating the polynomial agrees with the numeric route
    fam = am.reduce_mod(10007)
    rng = random.Random(0)
    for _ in range(20):
        u = [rng.randrange(10007) for _ in range(5)]
        assert _value(pf, u, 10007) == pfaffian_mod(_combine_forms(fam, u, 10007), 10007)


def test_submaximal_pfaffians_n3():
    am = AMap(3, 3, Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    subs = submaximal_pfaffians(am)
    # deleting row/column i leaves the single entry m_{jk}
    assert subs == [{(0, 0, 1): 1}, {(0, 1, 0): 1}, {(1, 0, 0): 1}]
    with pytest.raises(ParityError):
        submaximal_pfaffians(AMap(4, 1, Q, [[1, 0, 0, 0, 0, 0]]))


def test_submaximal_vanishing_matches_rank_drop():
    # a point annihilates every submaximal Pfaffian iff the rank drops to n-3
    am = AMap.random(7, 7, seed=5, p=10007)
    fam = am.reduce_mod(10007)
    subs = submaximal_pfaffians(am)
    res = sample_y2(am, 10007, 5, seed=7)
    assert res.points
    for q in res.points:
        mat = _combine_forms(fam, q["coordinates"], 10007)
        assert rank_mod(mat, 10007) <= 4
        assert all(_value(s, q["coordinates"], 10007) == 0 for s in subs)
    rng = random.Random(8)
    hits = 0
    for _ in range(30):
        u = [rng.randrange(10007) for _ in range(7)]
        mat = _combine_forms(fam, u, 10007)
        vanishes = all(_value(s, u, 10007) == 0 for s in subs)
        assert vanishes == (rank_mod(mat, 10007) <= 4)
        hits += vanishes
    assert hits == 0  # random points essentially never land on the locus


def _terms_digest(poly):
    return hashlib.sha256(repr(sorted(poly.items())).encode()).hexdigest()


# sha256 of the sorted (exponents, coeff) list of each Pfaffian, recorded
# from the term-by-term expansion that predates the shared memo
FROZEN_PFAFFIANS = {
    (10, 5, 42, 10007): "5d9d3182f572080137f758c2c9e63e740edae17091d4d2f88df362dfc4110c0f",
    (12, 6, 1, 10007): "d4078358ee8543c0d65f2696e9b1f052d3584fd4f740547d52f3e87b44e7cabb",
    (8, 4, 1, None): "2a09353fbbe7dab57fd2b423d5ba2e992e7207d2919f6f135c14696572ced7f7",
}
FROZEN_SUBMAXIMAL = {
    (7, 7, 42, 10007): [
        "d170fca52e12ef5b6f3643c5b0c49b89dfada40c15e3aaf11f66158ce1ed9bbd",
        "c38d9b5294694ff21beeadf8fd48449795b2bc2d891d23d11167ff8cdbc244e9",
        "7afc03ccd4893a24cc11b9e4a64c881c02bbf8cd85aebaef6990f44090d5cf39",
        "ef2f19985abb4aa891c101c19bea5eaa983bf005a65682c51dcb30dca95d15fe",
        "5d7aada3e05d219b703f530e9a1d4de8468ca125760d2a9a06faf570482ce6f7",
        "5af2b6f05bc81e29e32d6ceac9f99fffa30c81d5cf4e227d3e3c5e3f43017cb7",
        "c1ba4cb37dd3f5d18b9dff3a056e1b09a369a2c52181b6cad16b36961d29c4ae",
    ],
    (9, 9, 1, 10007): [
        "0a56d4cc00ea10fde4ff4d2ede668d8c10bd6a560b2bcfd16a79db38eb08dc1a",
        "54b431e0be9319e26c8c6f96e6bbfe96e57313449e9cd6255c6c0d77121d7448",
        "2c75dc0027c4aa15ba5cb2ab91587fe03149e27a50364d8dc55f496bad3db8b0",
        "9326b12d630295678fede331a41c98b1644b27f60f2687c5219fad5e72a8add0",
        "ca1a9d8b3983c131a226f0709451d1ad8b3a0c5f22c6d934a5a51ef202f9a050",
        "b46cc1b825912fe8d4fd2b800c086127425ee8bf62253f538bb92d6277e067e4",
        "9c3e99ca70435d0c116ae0de3a6e425b677eed7a5f59befed578ddcd916277e4",
        "76245047459b28eb51f130d56c5488a146138c695a7c4c3d3f0e5e22b0690bbd",
        "5b92383a6c55d0c91198a727b65d40a24de004066581d125cbfd2208b97851a3",
    ],
    (9, 5, 1, None): [
        "bbde56ac7a5b0924d74ba5e8d9ca4d234c0fbe53b094d7fcffcbfce92f5ed6c7",
        "5c28192a5d17c009dd4d14e97a1d2fb2e10cc34c9b99dfdd663da1a5ffda0257",
        "d3446144fce31f37ed1e16dbf27ccecf16316635dba4c283099107476e7ab465",
        "09b5940ec90f06eee43754c9b0687d9846129b2e872e086a0c45ff00499188e5",
        "db3bc3019983136c830628d5a668ec8fe2efd5c13fd04bde34e8a405eb5cbf62",
        "6de4a41f4e0d6c5120c296dde46bb80e748ae415ed91fd6cd09ae4be50354e8c",
        "b900409acbd185defb52c76cbc31618f9a2393231201d640fc8dd647e799a6bf",
        "bdd846bc3d931caa94b96523e66f88d69deeab0496b503a7cacb56bee22721b8",
        "fe5bd2d2b2d1c72529875ca3f495bb7a72b7cb00a3d1cdb2dbe6d14eb9df4c97",
    ],
}


@pytest.mark.parametrize("n, k, seed, p", list(FROZEN_PFAFFIANS))
def test_pfaffian_terms_frozen(n, k, seed, p):
    am = AMap.random(n, k, seed=seed, p=p)
    expected = FROZEN_PFAFFIANS[n, k, seed, p]
    assert _terms_digest(pfaffian_polynomial(am)) == expected


@pytest.mark.parametrize("n, k, seed, p", list(FROZEN_SUBMAXIMAL))
def test_submaximal_terms_frozen(n, k, seed, p):
    am = AMap.random(n, k, seed=seed, p=p)
    digests = [_terms_digest(s) for s in submaximal_pfaffians(am)]
    assert digests == FROZEN_SUBMAXIMAL[n, k, seed, p]


def _one_variable_per_entry(n):
    """The family with one variable per upper entry: k = C(n, 2), M = identity."""
    nv = math.comb(n, 2)
    return AMap(n, nv, Q, [[int(r == c) for c in range(nv)] for r in range(nv)])


def _sparse_columns(n, k, per_column, p, seed):
    """A family over F_p with exactly ``per_column`` nonzero entries in each column."""
    rng = random.Random(f"sparse:{n}:{k}:{per_column}:{p}:{seed}")
    rows = [[0] * math.comb(n, 2) for _ in range(k)]
    for c in range(math.comb(n, 2)):
        for r in rng.sample(range(k), per_column):
            rows[r][c] = rng.randrange(1, p)
    return AMap(n, k, p, rows)


def _with_fractions(am, count, seed):
    """The family over Q with ``count`` entries rewritten as "a/b" strings."""
    data = am.to_json_dict()
    rng = random.Random(f"fractions:{seed}")
    for _ in range(count):
        r, c = rng.randrange(am.k), rng.randrange(len(data["matrix"][0]))
        data["matrix"][r][c] = f"{rng.randint(-9, 9)}/{rng.randint(2, 7)}"
    return AMap.from_json_dict(data)


# Families the digests above do not reach, recorded from the expansion that
# stored every memo node as a dict: the first two have more monomials of
# their degree than a term bound (one variable per entry; two nonzeros per
# column at (10, 20)), the last two are wide, one over Q with "a/b" entries.
FROZEN_FAMILIES = {
    "one-variable-per-entry-8": (
        lambda: [pfaffian_polynomial(_one_variable_per_entry(8))],
        ["b57586de2c2c311d161c28de9a32776aaabf7d8003ab8098b49fd66e0bea2880"],
    ),
    "two-per-column-10-20-F7": (
        lambda: [pfaffian_polynomial(_sparse_columns(10, 20, 2, 7, 1))],
        ["94daafc7677f254ed95d6e2b95f45a4e3e5e3c3fef15f4a0f9c72da5b9a17656"],
    ),
    "fractions-14-7-Q": (
        lambda: [pfaffian_polynomial(_with_fractions(AMap.random(14, 7, 1), 6, 1))],
        ["b5847d31ec346e52c75ebe8a6e38b570e6dff34f2f0f3c87f313960b06c5b869"],
    ),
    "submaximal-11-11-F10007": (
        lambda: submaximal_pfaffians(AMap.random(11, 11, 1, 10007)),
        [
            "607fdc0a94fbca97607fe7af6a049434147d065300100cad7ff905c66c883d41",
            "88453c2cfa6f3228e0a45def4ea26fbf89767d54ad35e597cf6ec48e0bf06fea",
            "f5174f99b381bcd90ab2bfcb2d4c12cc4c628c13034a7fc598bf9ff144c1522a",
            "1f2b9280c591eec7b60c2029a4e7fbfb51b311d665459837de8f604558b144f5",
            "7351005061832ea7b6b476db45a0873eb2b04ec9fb52e35679ebba40023eac7d",
            "ede68705e207e1e49131dc270c4db0f9ea61f5c37edb883cd24992343b999780",
            "3a342410a5b50fa6b377bc2df68a239d3fd73cdc7149970bef067fa7073ecd49",
            "6dc67134939652dae83a65c169ce34610180792f93ad3818c2f1c2923b8f4f07",
            "b41a8fa1bed1ec3a4d5c2b32aa14357e418b6c3fd697bc06632bf91ae2ab87d0",
            "55193b511ad0b460880c8c8e8ae25d9d5dd12d02b1ca44c256308843bf32fbe8",
            "f46c0aaaa2d024b91cd36d4dda0cffa03540aa918968a41450e1338dbb4a536b",
        ],
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_FAMILIES))
def test_family_terms_frozen(name):
    expand, expected = FROZEN_FAMILIES[name]
    assert [_terms_digest(poly) for poly in expand()] == expected




def _delete(am, i):
    """The principal sub-family of am without row and column i."""
    keep = [j for j in range(am.n) if j != i]
    rows = [
        [row[pair_index(am.n, a, b)] for a, b in itertools.combinations(keep, 2)]
        for row in am.matrix
    ]
    return AMap(am.n - 1, am.k, am.p, rows)


@pytest.mark.parametrize("n, k, seed, p", [(7, 7, 42, 10007), (9, 5, 1, None)])
def test_submaximal_equals_pfaffian_of_each_deletion(n, k, seed, p):
    # the memo shared across index sets must not leak one minor into another
    am = AMap.random(n, k, seed=seed, p=p)
    subs = submaximal_pfaffians(am)
    for i in range(n):
        assert subs[i] == pfaffian_polynomial(_delete(am, i))


def test_pfaffians_are_fresh_dicts():
    # no memo outlives a call: mutating one result leaves the next call's alone
    even, odd = AMap.random(6, 3, seed=1), AMap.random(5, 3, seed=1, p=10007)
    first, expected = pfaffian_polynomial(even), pfaffian_polynomial(even)
    assert first == expected and first is not expected
    first.clear()
    first[0, 0, 0] = 1
    assert pfaffian_polynomial(even) == expected
    subs, expected = submaximal_pfaffians(odd), submaximal_pfaffians(odd)
    assert subs == expected and all(a is not b for a, b in zip(subs, expected))
    for s in subs:
        s.popitem()
        s[9, 9, 9] = 5
    assert submaximal_pfaffians(odd) == expected


def test_submaximal_pfaffians_agree_with_numeric_pfaffian():
    p = 10007
    am = AMap.random(9, 9, seed=1, p=p)
    fam = am.reduce_mod(p)
    subs = submaximal_pfaffians(am)
    rng = random.Random(11)
    for _ in range(20):
        u = [rng.randrange(p) for _ in range(9)]
        mat = _combine_forms(fam, u, p)
        for i, s in enumerate(subs):
            keep = [j for j in range(9) if j != i]
            minor = [[mat[a][b] for b in keep] for a in keep]
            assert _value(s, u, p) == pfaffian_mod(minor, p)


def test_pfaffians_over_q_with_denominators():
    # over Q the expansion runs on the integer matrix D m and divides by
    # D^d at the end; check against the numeric Pfaffian mod p
    p = 10007
    rng = random.Random(5)
    for n, k in ((8, 4), (7, 3)):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(math.comb(n, 2))]
            for _ in range(k)
        ]
        am = AMap(n, k, Q, rows)
        if n % 2 == 0:
            polys, deleted = [pfaffian_polynomial(am)], [None]
        else:
            polys, deleted = submaximal_pfaffians(am), range(n)
        fam = am.reduce_mod(p)
        for _ in range(5):
            u = [rng.randint(-20, 20) for _ in range(k)]
            mat = _combine_forms(fam, u, p)
            for poly, i in zip(polys, deleted):
                keep = [j for j in range(n) if j != i]
                minor = [[mat[a][b] for b in keep] for a in keep]
                assert coerce(_value(poly, u), p) == pfaffian_mod(minor, p)
    a = [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4),
         Fraction(4, 5), Fraction(5, 6), Fraction(-6, 7)]
    m = [[0, a[0], a[1], a[2]], [-a[0], 0, a[3], a[4]],
         [-a[1], -a[3], 0, a[5]], [-a[2], -a[4], -a[5], 0]]
    assert _numeric_pfaffian(m) == a[0] * a[5] - a[1] * a[4] + a[2] * a[3]


def _perfect_matchings(idx):
    if not idx:
        yield []
        return
    for t in range(1, len(idx)):
        for rest in _perfect_matchings(idx[1:t] + idx[t + 1:]):
            yield [(idx[0], idx[t])] + rest


def _matching_pfaffian(am, idx):
    """Pf of the principal submatrix on ``idx``: the sum over perfect matchings
    {(i1, j1), ...} of sgn(i1 j1 i2 j2 ...) times the product of the linear
    entries (i, j), each product expanded term by term, with no memo."""
    k = am.k
    variable = [tuple(int(s == r) for s in range(k)) for r in range(k)]
    total = {}
    for matching in _perfect_matchings(tuple(idx)):
        order = [i for pair in matching for i in pair]
        inversions = sum(a > b for a, b in itertools.combinations(order, 2))
        term = {(0,) * k: (-1) ** inversions}
        for i, j in matching:
            column = [row[pair_index(am.n, i, j)] for row in am.matrix]
            term = _mul(term, {variable[r]: c for r, c in enumerate(column) if c})
        total = _add(total, term)
    if am.p is None:
        return total
    return {e: c % am.p for e, c in total.items() if c % am.p}


def _zero_columns(n, k, seed):
    """A full-rank family over Q with every third column zero."""
    rng = random.Random(f"zero-columns:{n}:{k}:{seed}")
    while True:
        rows = [[0 if c % 3 == 1 else rng.randint(-9, 9) for c in range(math.comb(n, 2))]
                for _ in range(k)]
        try:
            return AMap(n, k, Q, rows)
        except DegenerateFamilyError:
            continue


def _monomial_family(n, seed):
    """k = C(n, 2) and one nonzero entry per column, in a random row: s = 1."""
    rng = random.Random(f"monomial:{n}:{seed}")
    nv = math.comb(n, 2)
    rows = [[0] * nv for _ in range(nv)]
    for c, r in enumerate(rng.sample(range(nv), nv)):
        rows[r][c] = rng.choice([-3, -2, -1, 1, 2, 3])
    return AMap(n, nv, Q, rows)


def _big_fractions(n, k, seed):
    """A family over Q with 16-digit numerators over 6-digit denominators."""
    rng = random.Random(f"big-fractions:{n}:{k}:{seed}")
    rows = [[Fraction(rng.randrange(-10**16, 10**16), rng.randrange(10**5, 10**6))
             for _ in range(math.comb(n, 2))] for _ in range(k)]
    return AMap(n, k, Q, rows)


def _no_zero_entries(n, k, seed):
    """A family over Q none of whose entries is zero: s = k."""
    rng = random.Random(f"no-zero:{n}:{k}:{seed}")
    rows = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(math.comb(n, 2))]
            for _ in range(k)]
    return AMap(n, k, Q, rows)


# (family, store): the store is the memo node the expansion must choose,
# "dense" when C(d+k-1, k-1) <= (2d-1)!! s^d, else "dict"
ORACLE_FAMILIES = {
    **{f"fractions-{n}-{k}": (lambda n=n, k=k: _with_fractions(AMap.random(n, k, 3), 4, n),
                              "dense")
       for n, k in ((4, 3), (5, 4), (6, 5), (7, 3), (8, 4))},
    **{f"F{p}-{n}-{k}": (lambda n=n, k=k, p=p: AMap.random(n, k, 2, p), "dense")
       for n, k, p in ((6, 4, 3), (7, 5, 3), (8, 3, 3), (6, 6, 7), (7, 4, 7), (8, 5, 7),
                       (6, 4, 2**61 - 1), (7, 5, 2**61 - 1),
                       (8, 3, 3317044064679887385961783), (7, 4, 3317044064679887385961783))},
    **{f"big-fractions-{n}-{k}": (lambda n=n, k=k: _big_fractions(n, k, 1), "dense")
       for n, k in ((7, 3), (8, 4))},
    **{f"zero-columns-{n}-{k}": (lambda n=n, k=k: _zero_columns(n, k, 1), "dense")
       for n, k in ((6, 3), (7, 4), (8, 5))},
    **{f"k1-{n}": (lambda n=n: AMap.random(n, 1, 4), "dense") for n in (2, 3, 4, 5, 6, 7, 8)},
    **{f"k1-{n}-F{p}": (lambda n=n, p=p: AMap.random(n, 1, 4, p), "dense")
       for n, p in ((6, 2**61 - 1), (7, 3317044064679887385961783))},
    "one-variable-per-entry-4": (lambda: _one_variable_per_entry(4), "dict"),
    "one-variable-per-entry-6": (lambda: _one_variable_per_entry(6), "dict"),
    "monomial-6-15": (lambda: _monomial_family(6, 1), "dict"),
    "no-zero-6-15": (lambda: _no_zero_entries(6, 15, 1), "dense"),
}


@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_pfaffians_equal_matching_sums(monkeypatch, name):
    # both memo stores against the definition of the Pfaffian; the store each
    # family takes is checked, so each side of the store rule is reached
    import grpf.pfaffian as pf_mod

    make, store = ORACLE_FAMILIES[name]
    am = make()
    used = []
    for which in ("dense", "dict"):
        expand = getattr(pf_mod, f"_{which}_expansions")
        monkeypatch.setattr(pf_mod, f"_{which}_expansions",
                            lambda *args, which=which, expand=expand:
                            used.append(which) or expand(*args))
    if am.n % 2 == 0:
        assert pfaffian_polynomial(am) == _matching_pfaffian(am, range(am.n))
    else:
        subs = submaximal_pfaffians(am)
        assert subs == [_matching_pfaffian(am, [j for j in range(am.n) if j != i])
                        for i in range(am.n)]
    assert used == [store]


@pytest.mark.parametrize("p", [Q, 10007, 2**61 - 1, 3317044064679887385961783])
@pytest.mark.parametrize("blocks", [(4,), (5,), (8,), (9,), (16,), (4, 6), (4, 5)])
def test_pfaffians_of_scaled_blocks_in_closed_form(blocks, p):
    # entry (i, j) is c_i c_j u_b inside block b and 0 across blocks: with J
    # all ones above the diagonal, Pf(D J D^T) = det D Pf J and Pf J = 1, so
    # a block of even size m has Pfaffian prod c_i u_b^(m/2), one of odd size
    # has none, and a block sum has the product of its blocks' Pfaffians
    rng = random.Random(f"scaled-blocks:{blocks}")
    n = sum(blocks)
    cs = [rng.choice((-1, 1)) * rng.randrange(10**15, 10**16) for _ in range(n)]
    owner = [b for b, size in enumerate(blocks) for _ in range(size)]
    rows = [[cs[i] * cs[j] if owner[i] == owner[j] == b else 0
             for i, j in itertools.combinations(range(n), 2)] for b in range(len(blocks))]
    am = AMap(n, len(blocks), p, rows)

    def closed_form(idx):
        counts = Counter(owner[i] for i in idx)
        c = coerce(math.prod(cs[i] for i in idx), p)
        if c == 0 or any(m % 2 for m in counts.values()):
            return {}
        return {tuple(counts[b] // 2 for b in range(len(blocks))): c}

    if n % 2 == 0:
        assert pfaffian_polynomial(am) == closed_form(range(n))
    else:
        assert submaximal_pfaffians(am) == [closed_form([j for j in range(n) if j != i])
                                            for i in range(n)]


@pytest.mark.parametrize("s", [2 * 10**9, 10**19, 4 * 10**28])
def test_pfaffian_at_its_coefficient_bound(s):
    # all three matchings of a12 a34 - a13 a24 + a14 a23 add up to 3 s^2 =
    # (2d-1)!! s^d, the bound that sizes the dense store's slots over Q; with
    # 64, 128 and 192 bits it fills whole limbs, so a slot with no room for
    # the sign overflows
    am = AMap(4, 1, Q, [[s, s, s, s, -s, s]])
    assert (3 * s * s).bit_length() % 64 == 0
    assert pfaffian_polynomial(am) == {(2,): 3 * s * s}
    assert submaximal_pfaffians(AMap(5, 1, Q, [[s, s, s, 0, s, -s, 0, s, 0, 0]])) == [
        {}, {}, {}, {}, {(2,): 3 * s * s}]


def _slot_bound_family(p):
    """The row of a 20 x 20 family in one variable whose node on 2..19, a
    child of the whole matrix, sums 17 products (p - 1)(2^28 - 128).

    0 meets only 1, and 2 meets each of 3..19 with weight p - 1 (entry c at
    an odd position of the node, p - c at an even one).  Inside 3..19 the
    pairs (4, 5), ..., (18, 19) carry 2, except (4, 5), which carries
    2^21 - 1, and 3 meets every vertex of 4..19.  Removing 2 and one more
    vertex v leaves a node with one perfect matching: the pairs, if v = 3;
    otherwise 3 with the partner of v, and the other seven pairs.  Its
    products stay below p except the last: the pairs give 128 or
    64 (2^21 - 1) = 2^27 - 64, and 3 meets the partner of v with 2^21 - 1
    or 2, which puts each of the 17 values at 2^28 - 128, a lazy Barrett
    output in [p, 2p) for p = 2^27 + 29.
    """
    entries = {}

    def weigh(node, a, b, w):  # b contributes w at its position in the node led by a
        entries[a, b] = w if sorted(node).index(b) % 2 else p - w

    weigh(range(20), 0, 1, p - 1)
    for v in range(3, 20):
        weigh(range(2, 20), 2, v, p - 1)
    big = 2**21 - 1
    for a in range(4, 20, 2):
        w = big if a == 4 else 2
        entries[a, a + 1] = w
        for v, partner in ((a, a + 1), (a + 1, a)):
            weigh([u for u in range(3, 20) if u != v], 3, partner, w)
    row = [0] * math.comb(20, 2)
    for (i, j), c in entries.items():
        row[pair_index(20, i, j)] = c
    return row


def test_pfaffian_at_the_fp_slot_bound():
    # over F_p a dense node is reduced lazily into [0, 3p), so its slots hold
    # sums below 3 p^2 k (2d - 1); at p = 2^27 + 29 with n = 20 and k = 1 that
    # bound has 60 bits, 32 more than p, and the Barrett shift rounds up from
    # 33 to 64 bits.  The node on 2..19 sums 17 (p - 1)(2^28 - 128), 0.6 of
    # the bound and above 2^59, so a slot sized from one bit less, or for
    # p^2 k (2d - 1) as if the lazy outputs were below p, is misreduced and
    # overflows its parent.  The family over Q, reduced mod p, is the oracle
    p = 2**27 + 29
    assert (3 * p * p * 19).bit_length() == p.bit_length() + 32
    row = _slot_bound_family(p)
    exact = pfaffian_polynomial(AMap(20, 1, Q, [row]))
    assert exact and all(c.denominator == 1 for c in exact.values())
    expected = {e: int(c) % p for e, c in exact.items() if c % p}
    assert expected
    assert pfaffian_polynomial(AMap(20, 1, p, [row])) == expected


def test_fraction_families_have_fractions():
    families = [_with_fractions(AMap.random(14, 7, 1), 6, 1)]
    families += [make() for name, (make, _) in ORACLE_FAMILIES.items()
                 if name.startswith("fractions")]
    for am in families:
        assert any(c.denominator > 1 for row in am.matrix for c in row), am


def test_matching_oracle_sees_cancellations_mod_p():
    # over F_3 and F_7 some coefficients of the integer expansion vanish mod p,
    # and the oracle comparison above requires them absent from the dict
    cancelled = 0
    for name, (make, _) in ORACLE_FAMILIES.items():
        if name.startswith("F"):
            am = make()
            lifted = AMap(am.n, am.k, Q, am.matrix)
            sets = [range(am.n)] if am.n % 2 == 0 else [range(1, am.n)]
            for idx in sets:
                expanded = _matching_pfaffian(lifted, idx)
                cancelled += sum(c % am.p == 0 for c in expanded.values())
    assert cancelled > 0


def test_one_variable_per_entry_stays_sparse():
    # k = C(10, 2) = 45: a dense degree-5 node would hold C(49, 5) = 1906884
    # coefficients for 945 terms; the dict store answers in milliseconds
    script = """
import math
from grpf.pfaffian import AMap, pfaffian_polynomial
nv = math.comb(10, 2)
am = AMap(10, nv, None, [[int(r == c) for c in range(nv)] for r in range(nv)])
print(len(pfaffian_polynomial(am)))
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["945"]


# --- sampling -------------------------------------------------------------------

def test_sampling_even_case_small():
    am = AMap.random(10, 5, seed=42, p=10007)
    res = sample_y2(am, 10007, 40, seed=42)
    assert len(res.points) == 40
    assert not res.exhausted
    for q in res.points:
        assert q["rank"] == 8 and q["kernel_dim"] == 2
        assert q["smooth_at"]
        assert q["rank"] % 2 == 0
        assert q["coordinates"][next(i for i, x in enumerate(q["coordinates"]) if x)] == 1


def test_sampling_odd_case_small():
    am = AMap.random(7, 7, seed=42, p=10007)
    res = sample_y2(am, 10007, 40, seed=42)
    assert len(res.points) == 40
    for q in res.points:
        assert q["rank"] == 4 and q["kernel_dim"] == 3
        assert q["smooth_at"]


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
    fam = am.reduce_mod(101)
    for q in res.points:
        assert q == _point_at(fam, q["coordinates"], 101)
        assert all(0 <= x < 101 for x in q["coordinates"])
        assert q["kernel_dim"] in (2, 4)


def test_prime_is_checked_only_at_the_boundary(monkeypatch):
    # the modulus is checked where it enters (sample_y2, reduce_mod, AMap),
    # not once per elimination
    calls = []
    is_prime = grpf.modp.is_prime

    def counted(p):
        calls.append(p)
        return is_prime(p)

    for module in (grpf.modp, grpf.pfaffian):
        if hasattr(module, "is_prime"):
            monkeypatch.setattr(module, "is_prime", counted)
    res = sample_y2(AMap.random(7, 7, 1), 10007, 20, 1)
    assert len(res.points) == 20
    assert 1 <= len(calls) <= 3


def test_sampling_forced_singular_point():
    # plant a rank-4 form as a family member: that point of the quartic
    # surface lies on the deeper stratum and must be flagged singular
    p = 10007
    n, k = 8, 4
    rng = random.Random(13)
    while True:
        rows = [[rng.randrange(p) for _ in range(math.comb(n, 2))] for _ in range(k)]
        # first member: a rank-4 skew form supported on coordinates 0..3
        row0 = [0] * math.comb(n, 2)
        for (i, j, v) in ((0, 1, 1), (2, 3, 1)):
            row0[pair_index(n, i, j)] = v
        rows[0] = row0
        try:
            am = AMap(n, k, p, rows)
            break
        except DegenerateFamilyError:
            continue
    e0 = (1, 0, 0, 0)
    assert rank_mod(_combine_forms(am.reduce_mod(p), e0, p), p) == 4
    pf = pfaffian_polynomial(am)
    assert _value(pf, e0, p) == 0
    grads = [_value(_partial(pf, r, p), e0, p) for r in range(k)]
    assert all(g == 0 for g in grads)  # Jacobian criterion fails there
    point = _point_at(am.reduce_mod(p), e0, p)
    assert (point["rank"], point["kernel_dim"], point["smooth_at"]) == (4, 4, False)


def symbolic_jacobian_test(am):
    """Reference verdict u -> bool: the Jacobian criterion on the symbolic
    Pfaffian (even n, codimension 1) or submaximal Pfaffians (odd n, 3)."""
    if am.n % 2 == 0:
        polys, codim = [pfaffian_polynomial(am)], 1
    else:
        polys, codim = submaximal_pfaffians(am), 3
    p = am.p
    partials = [[_partial(poly, r, p) for r in range(am.k)] for poly in polys]
    return lambda u: rank_mod([[_value(d, u, p) for d in row] for row in partials], p) == codim


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
            assert q == _point_at(am.reduce_mod(p), q["coordinates"], p)
            assert q["smooth_at"] == reference(q["coordinates"]), q
            seen.add(q["smooth_at"])
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
            return AMap(n, k, p, rows)
        except DegenerateFamilyError:
            continue


def test_planted_odd_corank_three_points():
    # n = 7, first member of rank 4 with kernel e4, e5, e6; when every
    # member vanishes on (e4, e5) the map U -> Wedge^2 K* misses a direction
    p = 10007
    e0 = (1, 0, 0, 0)
    for vanishing, smooth in ((((4, 5),), False), ((), True)):
        am = planted_family(7, 4, p, 31, ((0, 1), (2, 3)), vanishing)
        point = _point_at(am.reduce_mod(p), e0, p)
        assert (point["rank"], point["kernel_dim"]) == (4, 3)
        assert point["smooth_at"] is smooth
        assert symbolic_jacobian_test(am)(e0) is smooth


def test_planted_deep_corank_points_are_singular():
    # corank 4 (even n) or 5 (odd n): the Pfaffians vanish to order two,
    # even when k is large enough for the pairings on K to have full rank
    p = 10007
    for n, k in ((6, 7), (7, 11)):
        am = planted_family(n, k, p, 32, ((0, 1),))
        e0 = (1,) + (0,) * (k - 1)
        point = _point_at(am.reduce_mod(p), e0, p)
        assert (point["rank"], point["kernel_dim"], point["smooth_at"]) == (2, n - 2, False)
        assert symbolic_jacobian_test(am)(e0) is False


def _even_line_sweeper(monkeypatch, am, p):
    """(sweep, decided): sweep(p0, p1) runs the even path's sweep on the one
    line p0 + x p1 of ``am`` and returns its points; ``decided`` lists every
    u that reached the kernel test."""
    import grpf.pfaffian as pf_mod

    sweep, point_at, args, decided = pf_mod._sweep_lines, pf_mod._point_at, [], []
    monkeypatch.setattr(pf_mod, "_sweep_lines", lambda *a: args.append(a) or ({}, 0))
    sample_y2(am, p, 1, 1)
    monkeypatch.setattr(pf_mod, "_sweep_lines", sweep)
    monkeypatch.setattr(pf_mod, "_point_at",
                        lambda fam, u, q: decided.append(u) or point_at(fam, u, q))
    fam, _, _, stream, _, dim, deg, draw_line = args.pop()

    def sweep_line(p0, p1):
        return sweep(fam, p, deg + 1, stream, 1, dim, deg,
                     lambda rng: draw_line(_Draws(list(p0) + list(p1))))[0]

    return sweep_line, decided


def test_even_line_through_a_deep_corank_point_is_singular(monkeypatch):
    # at the corank-4 member e0 every (n-2)-sub-Pfaffian vanishes, and with
    # them the gradient of Pf: g has a multiple root at x = 0, which must go
    # to the kernel test, not be taken as a smooth point of corank 2
    p = 10007
    am = planted_family(6, 7, p, 32, ((0, 1),))
    e0 = (1,) + (0,) * 6
    rng = random.Random(7)
    sweep_line, decided = _even_line_sweeper(monkeypatch, am, p)
    found = sweep_line(e0, [rng.randrange(p) for _ in e0])
    point = found[e0]
    assert (point["rank"], point["kernel_dim"], point["smooth_at"]) == (2, 4, False)
    assert e0 in decided
    fam = am.reduce_mod(p)
    assert all(q == _point_at(fam, u, p) for u, q in found.items())


def test_even_line_tangent_at_a_smooth_point_stays_smooth(monkeypatch):
    # p1 orthogonal to the pairings (k1^T M_r k2)_r, a nonzero multiple of
    # the gradient of Pf at a smooth point u: the line touches Pf = 0 at u,
    # a double root of g, and u is still smooth
    p = 10007
    am = AMap.random(8, 4, 1, p=p)
    u = tuple(sample_y2(am, p, 1, 1).points[0]["coordinates"])
    k1, k2 = nullspace_mod(_combine_forms(am, u, p), p)
    pairing = []
    for r in range(am.k):
        m = _combine_forms(am, [int(s == r) for s in range(am.k)], p)
        pairing.append(sum(a * m[i][j] * b for i, a in enumerate(k1)
                           for j, b in enumerate(k2)) % p)
    assert pairing[0]
    rng = random.Random(7)
    p1 = [0] + [rng.randrange(p) for _ in range(am.k - 1)]
    p1[0] = -sum(a * b for a, b in zip(p1, pairing)) * pow(pairing[0], -1, p) % p
    sweep_line, decided = _even_line_sweeper(monkeypatch, am, p)
    found = sweep_line(u, p1)
    assert found[u] == {"coordinates": list(u), "rank": 6, "kernel_dim": 2, "smooth_at": True}
    assert u in decided


def test_even_simple_roots_agree_with_the_kernel_test(monkeypatch):
    # every point of the even path equals the kernel test at its u, and the
    # candidates that still take that test, the multiple roots of g, hold
    # both smooth tangencies and singular points
    import grpf.pfaffian as pf_mod

    point_at, fallbacks, shortcuts = pf_mod._point_at, [], 0
    monkeypatch.setattr(pf_mod, "_point_at",
                        lambda fam, u, q: fallbacks.append(point_at(fam, u, q)) or fallbacks[-1])
    shapes = ((4, 3), (4, 5), (6, 2), (6, 3), (6, 5), (8, 3), (8, 4), (10, 3), (10, 5),
              (12, 3), (12, 6))
    for (n, k), p, seed in itertools.product(shapes, (5, 7, 11, 101, 10007, 2**61 - 1),
                                             (1, 2, 3)):
        if p <= n // 2:
            continue
        am, before = AMap.random(n, k, seed, p=p), len(fallbacks)
        res = sample_y2(am, p, 10, seed, max_lines=40)
        for q in res.points:
            assert q == point_at(am, q["coordinates"], p), (n, k, p, seed)
        shortcuts += len(res.points) - (len(fallbacks) - before)
    verdicts = Counter(q and q["smooth_at"] for q in fallbacks)
    assert set(verdicts) == {True, False}
    assert shortcuts > 10 * len(fallbacks), (shortcuts, verdicts)


@pytest.mark.parametrize("n, k, p, count", [(10, 5, 10007, 20), (8, 4, 5, 20)])
def test_even_line_takes_the_kernel_test_at_multiple_roots_only(monkeypatch, n, k, p, count):
    # the sweep normalizes each root's u in turn; replaying that order, the
    # kernel test must run exactly on the new candidates with g'(x) = 0
    import grpf.pfaffian as pf_mod

    roots_mod, normalize, point_at = (pf_mod._roots_mod, pf_mod._normalize_projective,
                                      pf_mod._point_at)
    roots, us, decided = [], [], []

    def recorded_roots(g, q):
        xs = roots_mod(g, q)
        roots.extend((g, x) for x in xs)
        return xs

    monkeypatch.setattr(pf_mod, "_roots_mod", recorded_roots)
    monkeypatch.setattr(pf_mod, "_normalize_projective",
                        lambda u, q: us.append(normalize(u, q)) or us[-1])
    monkeypatch.setattr(pf_mod, "_point_at",
                        lambda fam, u, q: decided.append(u) or point_at(fam, u, q))
    res = sample_y2(AMap.random(n, k, 1), p, count, 1)
    assert len(res.points) == count
    seen, multiple = set(), []
    for (g, x), u in zip(roots, us):
        if u is None or u in seen:
            continue
        seen.add(u)
        if not _evaluate([e * a for e, a in enumerate(g)][1:], x, p):
            multiple.append(u)
    assert decided == multiple
    assert len(seen) > len(multiple)


def test_sampler_builds_no_symbolic_pfaffian(monkeypatch):
    import grpf.pfaffian as pf_mod

    def forbidden(*args):
        raise AssertionError("symbolic Pfaffian on the sampling path")

    monkeypatch.setattr(pf_mod, "pfaffian_polynomial", forbidden)
    monkeypatch.setattr(pf_mod, "submaximal_pfaffians", forbidden)
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
        assert (q["rank"], q["kernel_dim"], q["smooth_at"]) == (12, 2, True)


def test_sampling_exhaustion_report_not_exception():
    # an empty locus: generic 2-dimensional family for n = 7 has no
    # rank <= 4 members; the search must report exhaustion gracefully
    am = AMap.random(7, 2, seed=21, p=101)
    res = sample_y2(am, 101, 5, seed=1, max_lines=20)
    assert res.exhausted
    assert res.points == []


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
        scan = [_point_at(am.reduce_mod(p), u, p) for u in plane]
        res = sample_y2(am, p, 13, seed=seed)
        assert res.points == [q for q in scan if q is not None]
        assert res.exhausted
        assert res.attempts < 1000
        sizes.add(len(res.points))
    assert sizes == {0, 1, 2}


def test_sampling_validates_prime():
    am = AMap.random(6, 3, seed=2)
    with pytest.raises(ValueError):
        sample_y2(am, 10006, 5, seed=1)
    # a strong pseudoprime to bases 2..37, once taken for a prime: root
    # finding then never finished its split
    with pytest.raises(ValueError, match="odd prime"):
        sample_y2(am, 399165290221 * 798330580441, 5, seed=1)


def test_sampling_rejects_a_non_integer_prime():
    # 10007.0 reached is_prime, whose pow(a, d, p) raised a TypeError
    am = AMap.random(6, 3, seed=2)
    with pytest.raises(ValueError, match=re.escape("prime 10007.0 is not an integer")):
        sample_y2(am, 10007.0, 5, seed=1)


def test_sampling_rejects_a_non_integer_count():
    # 2.0 was answered, with requested=2.0 in the result
    am = AMap.random(6, 3, seed=2)
    for bad in (2.0, 1.5, "2"):
        with pytest.raises(ValueError, match=re.escape(f"count {bad!r} is not an integer")):
            sample_y2(am, 10007, bad, seed=1)
    assert sample_y2(am, 10007, 2, seed=1).requested == 2


def test_sampling_rejects_a_non_integer_max_lines():
    am = AMap.random(6, 3, seed=2)
    for bad in (60.0, 0.5):
        with pytest.raises(ValueError, match=re.escape(f"max_lines {bad!r} is not an integer")):
            sample_y2(am, 10007, 2, seed=1, max_lines=bad)
    assert sample_y2(am, 10007, 2, seed=1, max_lines=60).attempts <= 60


def test_sampling_rejects_a_line_budget_below_one():
    # max_lines = 0 or -5 returned an empty exhausted report after 0 attempts
    for am in (AMap.random(6, 3, seed=2), AMap.random(7, 7, seed=2), AMap.random(5, 3, seed=2)):
        for bad in (0, -5):
            with pytest.raises(ValueError, match=re.escape(f"need max_lines >= 1, got {bad}")):
                sample_y2(am, 10007, 2, seed=1, max_lines=bad)
    assert sample_y2(AMap.random(6, 3, seed=2), 10007, 1, seed=1, max_lines=1).attempts == 1


@pytest.mark.parametrize("p", [3037000507, 2**61 - 1])
def test_sampling_at_large_primes(p):
    # far beyond the reach of any scan of F_p
    am = AMap.random(6, 3, seed=2)
    res = sample_y2(am, p, 5, seed=1)
    assert len(res.points) == 5 and not res.exhausted
    fam = am.reduce_mod(p)
    for q in res.points:
        assert rank_mod(_combine_forms(fam, q["coordinates"], p), p) == q["rank"] == 4
    with pytest.raises(ValueError, match="count"):
        sample_y2(am, p, 0, seed=1)
    with pytest.raises(ValueError, match="odd prime"):
        sample_y2(am, p + 2, 5, seed=1)


# Digests of repr(sample_y2(AMap.random(n, k, s), p, count, seed)), frozen
# from the sampler that computed each cofactor vector as n separate minors
# and interpolated by Lagrange basis polynomials.  The last three pin the
# line paths at p <= d, where every x in F_p is a candidate; they were
# frozen from the sampler that swept each path in a loop of its own.
FROZEN_SAMPLES = {
    (7, 7, 1, 10007, 20, 1): "7c02c0e5ff488c69a69b25096ae439e1e2f723cf8dd6e90f73ffd4b582955bb3",
    (7, 8, 1, 10007, 10, 1): "6df86cacebd0023c966630704641e0d8d2e09b5ec5fc43b104194525ffda3051",
    (9, 9, 2, 2**61 - 1, 3, 2): "12b9d285cbf88f6e0f8dede321ee0630fd1d2a9a4fea60513a6069340365d4f8",
    (10, 5, 1, 10007, 20, 1): "34239219ea3544c70ba06ee89077aab4ed6aacc9d0ef60624fe4a3c9a4353754",
    (8, 4, 1, 2**61 - 1, 10, 1): "4a09f388cb20a1700c2fe960ec715019631077190039f8ef2285169e410ec422",
    (11, 12, 1, 10007, 3, 1): "14387d3ffa8e86c21313294e285ff05cddc54e765c60ed2997e42a164b175749",
    (5, 5, 1, 5, 6, 1): "af35ecacf370b722b2e0bbd0c76b4fbf80210f1136714da290d5de411eb74001",
    (7, 8, 1, 5, 5, 1): "6d49e23d026a6976ecc8b096170d8d12f49cb9081524e38c26d35e9ee7e16290",
    (10, 5, 1, 3, 60, 1): "40f3d8765373b5a74587d688439f9686302e6d34c7ad65a4d428404af713c7fa",
    # p > d on the odd paths with the nodes 0..d nearly filling F_p, frozen
    # from the sampler that eliminated once per interpolation node
    (7, 7, 1, 19, 5, 1): "8991a7e15e6a69b7f10040e71bc8813b83c25760426b711655af22da61faacd7",
    (7, 8, 1, 23, 5, 1): "21b7337d902a031637fb953b1fafa3ef1fd39fe590cf549c412ff56d84cbe682",
    (9, 9, 1, 37, 3, 1): "83ec3dfe0127777dd7697bff6b7fcaf6d4332734b4e0d4ac230849e1f87b0e59",
    (5, 5, 1, 11, 5, 1): "219395bc54dba43e0b78b10d74dc161b775c525427e2e573cbdf54ee3babcb98",
    # even lines with multiple roots, where a candidate still takes the
    # kernel test: one singular point and one smooth tangency among the 100
    # points of (6, 3, 105) at p = 101, six and one tangencies at p = 5 and 7;
    # frozen from the sampler that took the kernel test at every candidate
    (6, 3, 105, 101, 100, 1): "80a8234067126685b24aaa8e65411d9262847bb005cc8ffaf7a8dbec0bb62b6e",
    (8, 4, 1, 5, 20, 1): "d1b4881cbb825e373a4f0af726eb1ada457eb416c43010e949e40ccb32ef9bd8",
    (8, 4, 1, 7, 20, 1): "58cb8448c9adb460bc371144d2d770e9e5c6e6494b833aa95cd07f88d25298a1",
}


def frozen_repr(res, p, seed):
    """The repr the digests were frozen from, rebuilt from the sampler's result:
    each point was a SamplePoint(coordinates, rank, kernel_dim, smooth_at)
    with tuple coordinates, and the result also held the prime and seed."""
    points = [
        f"SamplePoint(coordinates={tuple(q['coordinates'])!r}, rank={q['rank']!r}, "
        f"kernel_dim={q['kernel_dim']!r}, smooth_at={q['smooth_at']!r})"
        for q in res.points
    ]
    points = "(" + ", ".join(points) + ("," if len(points) == 1 else "") + ")"
    return (f"SampleResult(points={points}, requested={res.requested!r}, "
            f"attempts={res.attempts!r}, prime={p!r}, seed={seed!r}, "
            f"exhausted={res.exhausted!r})")


@pytest.mark.parametrize("n, k, s, p, count, seed", list(FROZEN_SAMPLES))
def test_sample_results_frozen(n, k, s, p, count, seed):
    res = sample_y2(AMap.random(n, k, s), p, count, seed)
    digest = hashlib.sha256(frozen_repr(res, p, seed).encode()).hexdigest()
    assert digest == FROZEN_SAMPLES[n, k, s, p, count, seed]


def _rows_of_rank(m, n, r, p, rng):
    """A random m x n matrix over F_p, the product of m x r and r x n factors."""
    a = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    return [[sum(a[i][t] * b[t][j] for t in range(r)) % p for j in range(n)]
            for i in range(m)]


def _line_rows(rows, v, p):
    """R_v, rows 1..n-1 of B_v = [M_1 v | ... | M_n v], for the family ``rows``."""
    n = len(v)
    b = [[0] * len(rows) for _ in range(n)]
    for r, row in enumerate(rows):
        for (i, j), c in zip(itertools.combinations(range(n), 2), row):
            b[i][r] += c * v[j]
            b[j][r] -= c * v[i]
    return [[x % p for x in row] for row in b[1:]]


def _cofactor_minors(rows, p):
    """((-1)^i det(R minus column i))_i, R the (n-1) x n ``rows``."""
    return [(-1) ** i * det_mod([row[:i] + row[i + 1:] for row in rows], p) % p
            for i in range(len(rows) + 1)]


@pytest.mark.parametrize("p", [3, 5, 10007, 2**61 - 1])
def test_kernel_cofactor_vector_equals_minors(p):
    # an odd line's member u(x) is ((-1)^i det(R(x) minus column i))_i at
    # every x, R(x) = R_v(x) on v(x) = e_0 + x v1, where R_(e_0) = R is any
    # (n-1) x n matrix (-R[i-1][r] at the coordinate (0, i) of form r): R
    # of full rank n - 1, of rank n - 2 (the zero vector at x = 0, and a
    # centre shift), with its first column zero (column 0 free), or with
    # R[0][0] = 0 (a pivot swap).  Small primes check every x in F_p, large
    # ones the centres 0 and 1 and a random x.
    rng = random.Random(f"cofactor:{p}")
    for n in range(1, 10):
        seen = set()
        coordinates = list(itertools.combinations(range(n), 2))
        for case in ("full", "rank-drop", "zero-first-column", "swap"):
            for _ in range(12):
                if case == "zero-first-column":
                    rows = [[0] + row for row in _rows_of_rank(n - 1, n - 1, n - 1, p, rng)]
                else:
                    rank = n - 2 if case == "rank-drop" else n - 1
                    rows = _rows_of_rank(n - 1, n, max(rank, 0), p, rng)
                    if case == "swap" and rows:
                        rows[0][0] = 0
                family = [[-rows[j - 1][r] % p if i == 0 else rng.randrange(p)
                           for i, j in coordinates] for r in range(n)]
                v1 = [rng.randrange(p) for _ in range(n)]
                draw_line = _kernel_line_drawer(SimpleNamespace(n=n, matrix=family), p)
                u_at = draw_line(_Draws([1] + [0] * (n - 1) + v1))[0]
                for x in range(p) if p < 10 else (0, 1, rng.randrange(p)):
                    v = [(int(i == 0) + x * b) % p for i, b in enumerate(v1)]
                    assert u_at(x) == _cofactor_minors(_line_rows(family, v, p), p), (n, case, x)
                full = n == 1 or rank_mod(rows, p) == n - 1
                swapped = full and n > 2 and rows[0][0] == 0 and any(row[0] for row in rows)
                seen.add((case, full, swapped))
        if n > 2:
            expected = {("full", True, False), ("rank-drop", False, False),
                        ("zero-first-column", True, False), ("swap", True, True)}
            assert expected <= seen, (n, seen)


@pytest.mark.parametrize("p", [10007, 2**61 - 1, 3317044064679887385961783])
def test_series_cofactors_equal_minors(p):
    # one elimination over F_p[x]/(x^n) gives the first-row cofactors of b
    # along R(x) = R0 + x R1 whole, of degree <= n - 1, as the numeric
    # minors give them at each x; with R(0) of rank n - 2 it returns None at
    # the centre 0 and takes u(1 + y) about the centre 1
    rng = random.Random(f"series-cofactors:{p}")
    for n in range(2, 10):
        w, reduce = _barrett(9 * p * p * n * n, p, n)
        for case in ("full", "swap", "rank-drop"):
            r0 = _rows_of_rank(n - 1, n, n - 2 if case == "rank-drop" else n - 1, p, rng)
            r1 = _rows_of_rank(n - 1, n, n - 1, p, rng)
            if case == "swap" and n > 2:
                r0[0][0] = 0

            def packed(c):
                return [[(a + c * b) % p | b << w for a, b in zip(x0, x1)]
                        for x0, x1 in zip(r0, r1)]

            centre = 0
            if case == "rank-drop":
                assert _series_cofactors(packed(0), p, n, w, reduce) is None
                centre = 1
            u = [_unpack(e, w, n, p) for e in _series_cofactors(packed(centre), p, n, w, reduce)]
            for x in range(n + 3):
                rows = [[(a + x * b) % p for a, b in zip(x0, x1)] for x0, x1 in zip(r0, r1)]
                minors = [(-1) ** i * det_mod([row[:i] + row[i + 1:] for row in rows], p) % p
                          for i in range(n)]
                assert [_evaluate(c, x - centre, p) for c in u] == minors, (n, case, x)


def test_series_slots_hold_the_largest_sums():
    # every slot p - 1, at the largest prime the sampler takes and the odd
    # line's slot width at n = 13, where Pf_0 runs at length need = 66: with
    # s = p - 1 in every slot, -1/(1 - x), the upper triangle all s has
    # Pfaffian s^6 = (1 - x)^-6, as the all-ones upper triangle has Pf 1
    p, n = 3317044064679887385961783, 13
    need = n * (n - 3) // 2 + 1
    w, reduce = _barrett(9 * p * p * max(n * (n - 1), 3 * need, 1), p, need)
    s = _pack([p - 1] * need, w)
    pf = _pfaffian_series([[s] * (n - 1) for _ in range(n - 1)], p, need, w, reduce)
    assert _unpack(pf, w, need, p) == [math.comb(e + 5, 5) % p for e in range(need)]
    # the cofactors at length n: R0 = (p - 1)(all ones but R0[i][i] = 0), R1 all p - 1
    r0 = [[(p - 1) * (i != j) for j in range(n)] for i in range(n - 1)]
    u = _series_cofactors([[a | (p - 1) << w for a in row] for row in r0], p, n, w, reduce)
    u = [_unpack(e, w, n, p) for e in u]
    for x in range(n + 3):
        rows = [[(a + x * (p - 1)) % p for a in row] for row in r0]
        minors = [(-1) ** i * det_mod([row[:i] + row[i + 1:] for row in rows], p) % p
                  for i in range(n)]
        assert [_evaluate(c, x, p) for c in u] == minors, x


def _series_pfaffian_by_matchings(entries, p, length):
    """Pf of the skew matrix with upper triangle ``entries`` (ascending
    coefficient lists) over F_p[x]/(x^length), as a sum over matchings."""
    from test_poly_modp import matchings_with_sign

    total = [0] * length
    for sign, pairs in matchings_with_sign(tuple(range(len(entries)))):
        prod = [sign % p] + [0] * (length - 1)
        for i, j in pairs:
            e = entries[i][j]
            prod = [sum(prod[a] * e[t - a] for a in range(t + 1)) % p for t in range(length)]
        total = [(x + y) % p for x, y in zip(total, prod)]
    return total


@pytest.mark.parametrize("n, p", [(6, 10007), (7, 9221)])
def test_sampler_slot_widths_hold_the_division_free_update(n, p, monkeypatch):
    # The update a m[r][c] - m[i][r] m[i+1][c] + m[i+1][r] m[i][c] of slots
    # in [0, 3p] reaches 27 p^2 L in slot L - 1: on a 6 x 6 upper triangle
    # with every slot 3p but the constant terms, 3p - 1 (units), and with
    # m[0][2] = 0, row 2's first update sums to 27 p^2 L - 15 p there.  The
    # even line at n = 6 (L = 4) and the odd line's Pf_0 at n = 7 (L = 15)
    # take the slot width from the bound their caller passes to _barrett;
    # at these primes the old bounds 9 p^2 (2 L + 1) and 9 p^2 n (n - 1)
    # have one bit less than that sum, and their widths give a wrong Pf.
    import grpf.pfaffian as pf_mod

    bounds, barrett = [], pf_mod._barrett
    monkeypatch.setattr(pf_mod, "_barrett",
                        lambda bound, q, slots: bounds.append(bound) or barrett(bound, q, slots))
    if n % 2 == 0:
        length, old = n // 2 + 1, 9 * p * p * (n + 3)
        sample_y2(AMap.random(n, 2, 1, p), p, 1, 1)
    else:
        length, old = n * (n - 3) // 2 + 1, 9 * p * p * n * (n - 1)
        _kernel_line_drawer(AMap.random(n, n, 1, p), p)
    largest = 27 * p * p * length - 15 * p
    assert bounds and largest.bit_length() > old.bit_length()
    entries = [[None] * 6 for _ in range(6)]
    for i, j in itertools.combinations(range(6), 2):
        entries[i][j] = [3 * p - 1] + [3 * p] * (length - 1)
    entries[0][2] = [0] * length
    expected = _series_pfaffian_by_matchings(entries, p, length)
    for bound, holds in ((bounds[0], True), (old, False)):
        w, reduce = barrett(bound, p, length)
        rows = [[0] * 6 for _ in range(6)]
        for i, j in itertools.combinations(range(6), 2):
            rows[i][j] = _pack(entries[i][j], w)
        pf = _pfaffian_series(rows, p, length, w, reduce)
        assert (_unpack(pf, w, length, p) == expected) == holds, (n, bound)


def test_taylor_shift_matches_evaluation():
    p = 10007
    rng = random.Random("taylor")
    for length in (1, 2, 5, 30):
        g = [rng.randrange(p) for _ in range(length)]
        assert _taylor_shift(g, 0, p) == g
        for c in (1, 2, rng.randrange(p)):
            f = _taylor_shift(g, c, p)
            assert len(f) == length
            for x in [0, c, p - 1] + [rng.randrange(p) for _ in range(5)]:
                assert _evaluate(f, x, p) == _evaluate(g, x - c, p), (length, c, x)


@pytest.mark.parametrize("p", [7, 11, 13, 10007, 2**61 - 1, 3317044064679887385961783])
def test_even_line_polynomial_is_the_pencil_pfaffian(p, monkeypatch):
    # on the family with one variable per entry the line p0 + x p1 has
    # M(p0) = A and M(p1) = B, the skew matrices with upper triangles p0 and
    # p1, so the even line's polynomial must be Pf(A + x B).  Small primes
    # compare every x in F_p with the sum over perfect matchings, large
    # ones the interpolation through x = 0..d of the numeric Pfaffian.
    # A[0][1] = 0 makes a pivot swap at the centre 0; a zero row 0 of A, or
    # A of rank n - 2, makes Pf(A) = 0 and a centre shift; zero rows 0 of A
    # and B make Pf(A + x B) = 0, and the line None.
    from test_poly_modp import pfaffian_by_matchings

    import grpf.pfaffian as pf_mod

    lines, centres = [], []
    monkeypatch.setattr(pf_mod, "_sweep_lines", lambda *args: lines.append(args[-1]) or ({}, 0))
    monkeypatch.setattr(pf_mod, "_taylor_shift",
                        lambda g, c, p: centres.append(c) or _taylor_shift(g, c, p))
    rng = random.Random(f"pencil:{p}")
    # n = 2 has k = 1 and no lines: its pencil goes to the elimination itself
    w, reduce = _barrett(9 * p * p * 5, p, 2)
    a, b = rng.randrange(1, p), rng.randrange(p)
    assert _unpack(_pfaffian_series([[0, a | b << w], [0, 0]], p, 2, w, reduce), w, 2, p) == [a, b]
    assert _pfaffian_series([[0, b << w], [0, 0]], p, 2, w, reduce) is None
    for n in range(4, 15, 2):
        d, pairs = n // 2, list(itertools.combinations(range(n), 2))
        if p <= d:
            continue
        sample_y2(_one_variable_per_entry(n), p, 1, 1)
        draw_line = lines.pop()
        for case in ("generic", "swap", "zero-row", "rank-drop", "zero"):
            a = [rng.randrange(p) for _ in pairs]
            b = [rng.randrange(p) for _ in pairs]
            if case == "swap":
                a[0] = 0
            elif case in ("zero-row", "zero"):
                a[:n - 1] = [0] * (n - 1)  # the pairs (0, j) come first
                if case == "zero":
                    b[:n - 1] = [0] * (n - 1)
            elif case == "rank-drop":
                vs = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 2)]
                a = [sum(u[i] * v[j] - u[j] * v[i] for u, v in zip(vs[::2], vs[1::2])) % p
                     for i, j in pairs]

            def pencil(x):
                m = [[0] * n for _ in range(n)]
                for (i, j), s, t in zip(pairs, a, b):
                    m[i][j], m[j][i] = (s + x * t) % p, -(s + x * t) % p
                return m

            poly = draw_line(_Draws(a + b))[1]()
            if p < 100 and n <= 10:
                xs, values = range(p), [pfaffian_by_matchings(pencil(x), p) for x in range(p)]
            else:
                xs, values = range(d + 1), [pfaffian_mod(pencil(x), p) for x in range(d + 1)]
            assert (poly is None) == (not any(values)), (n, case)
            if poly is None:
                continue
            assert len(poly) == d + 1
            assert [_evaluate(poly, x, p) for x in xs] == values, (n, case)
            assert poly == _lagrange_mod(list(range(d + 1)), values[:d + 1], p), (n, case)
    assert any(centres), centres


@pytest.mark.parametrize("p", [11, 19, 10007])
def test_cofactor_vector_has_vanishing_nth_difference(p):
    # along a line v0 + x v1 the first-row cofactors of B_v are (n-1)-minors
    # of a matrix linear in x, of degree <= n - 1, so their n-th finite
    # difference vanishes at every x >= n; on that degree bound the odd line
    # takes u over F_p[x]/(x^n) about one centre and a candidate evaluates
    # it, here out to x = (n-1)^2/2.  It also holds through the zero vector
    # where R_v has rank < n - 1: on a line that meets v_0 = 0 at one x, or
    # one inside v_0 = 0, where u vanishes all along the line.
    rng = random.Random(f"difference:{p}")
    for n in (3, 5, 7, 9):
        deg = (n - 1) ** 2 // 2
        top = max(deg, 2 * n)
        am = AMap.random(n, n, 1, p)
        family, draw_line = am.matrix, _kernel_line_drawer(am, p)
        lines = [(None, [rng.randrange(p) for _ in range(n)])]
        for x0 in (1, deg):  # v(x0) = w with w_0 = 0
            w = [0] + [rng.randrange(p) for _ in range(n - 1)]
            lines.append((x0, w))
        lines.append(("all", [0] + [rng.randrange(p) for _ in range(n - 1)]))
        for drop, w in lines:
            v1 = [0 if drop == "all" else rng.randrange(1, p)]
            v1 += [rng.randrange(p) for _ in range(n - 1)]
            v0 = w if drop in (None, "all") else [(a - drop * b) % p for a, b in zip(w, v1)]
            u_at = draw_line(_Draws(v0 + v1))[0]
            vs = [[(a + x * b) % p for a, b in zip(v0, v1)] for x in range(top + 1)]
            us = [_cofactor_minors(_line_rows(family, v, p), p) for v in vs]
            for x in range(n, top + 1):
                assert us[x] == [
                    sum((-1) ** (i + 1) * math.comb(n, i) * us[x - i][e]
                        for i in range(1, n + 1)) % p
                    for e in range(n)
                ], (n, drop, x)
            assert [u_at(x) for x in range(top + 1)] == us, (n, drop)
            zeros = {x for x, u in enumerate(us) if not any(u)}
            if drop == "all":
                assert zeros == set(range(top + 1))
            elif drop is not None:
                assert drop in zeros and len(zeros) < n, (n, drop, zeros)


def test_odd_line_eliminates_once_and_at_each_candidate(monkeypatch):
    # an odd line takes u(x) whole from one cofactor elimination over
    # F_p[x]/(x^n), and each candidate evaluates that series with no
    # elimination of its own.  One elimination per interpolation node made
    # 43 * 19 + 82 = 899 calls here, n per line plus one per candidate
    # 43 * 7 + 40 = 341, and one per line plus one per candidate 43 + 40.
    import grpf.pfaffian as pf_mod

    calls = {"series": 0, "candidates": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pf_mod, "_series_cofactors",
                        counted("series", pf_mod._series_cofactors))
    monkeypatch.setattr(pf_mod, "_normalize_projective",
                        counted("candidates", pf_mod._normalize_projective))
    res = sample_y2(AMap.random(7, 7, 1), 10007, 40, 1)
    assert len(res.points) == 40
    assert calls["series"] == res.attempts
    assert (calls["series"], res.attempts, calls["candidates"]) == (43, 43, 40)


def test_small_prime_odd_line_keeps_one_series(monkeypatch):
    # at p <= deg every x in F_p is a candidate and no line polynomial is
    # taken: the line's first candidate tries the centres c = 0, 1, ... up to
    # min(p, n) and keeps the first series, where u(c) != 0, and every
    # candidate evaluates it.  A line keeps at most one series, and the 69
    # candidates here cost 19 eliminations, 6 of them at a centre where u
    # vanishes (13 series kept over 14 lines: on one line u = 0 on F_5).
    import grpf.pfaffian as pf_mod

    results, candidates = [], []
    series, normalize = pf_mod._series_cofactors, pf_mod._normalize_projective
    monkeypatch.setattr(pf_mod, "_series_cofactors",
                        lambda *args: results.append(series(*args)) or results[-1])
    monkeypatch.setattr(pf_mod, "_normalize_projective",
                        lambda *args: candidates.append(args) or normalize(*args))
    res = sample_y2(AMap.random(5, 5, 1), 5, 3, 1)
    kept = sum(u is not None for u in results)
    assert len(res.points) == 3 and kept <= res.attempts
    assert (len(results), kept, res.attempts, len(candidates)) == (19, 13, 14, 69)


class _Draws:
    """An rng stand-in whose randrange returns the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, p):
        return next(self.values)


def _polynomial_pfaffians(mat, p):
    """The n submaximal Pfaffians of an odd skew matrix of polynomials in x
    over F_p (ascending coefficient lists), by first-row expansion."""
    memo = {(): [1]}

    def pf(idx):
        if idx not in memo:
            acc = [0]
            for t in range(1, len(idx)):
                term = _trim(_mul_poly(mat[idx[0]][idx[t]], pf(idx[1:t] + idx[t + 1:]), p), p)
                sign = -1 if t % 2 == 0 else 1
                acc = [a + sign * b for a, b in itertools.zip_longest(acc, term, fillvalue=0)]
            memo[idx] = _trim(acc, p)
        return memo[idx]

    n = len(mat)
    return [pf(tuple(j for j in range(n) if j != s)) for s in range(n)]


def _evaluate(poly, x, p):
    return sum(c * pow(x, e, p) for e, c in enumerate(poly)) % p


def _trim(a, p):
    """The coefficients mod p without their top zeros."""
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _mul_poly(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", [19, 37, 10007])
@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_line_pfaffian_has_the_known_v0_factor(n, p):
    # on the odd line v(x) = v0 + x v1 the member u(x) vanishes where v_0 = 0,
    # and the signed submaximal Pfaffians of M(u) are lambda(x) v(x), so
    # Pf_0 = v_0^((n+1)/2) h with deg h <= n(n-3)/2; Pf_0 = 0 forces every
    # Pf_s = 0.  The Pfaffians are expanded exactly as polynomials in x, so
    # p need not exceed their degree (n-1)^2/2; where it does, the line's
    # polynomial is exactly h.
    from grpf.pfaffian import _kernel_line_drawer

    fam = AMap.random(n, n, 1, p=p)
    deg, half = (n - 1) ** 2 // 2, (n + 1) // 2
    rng = random.Random(f"v0-factor:{n}:{p}")
    rank_drops = 0
    for line in range(12):
        v0, v1 = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
        if line == 0:
            v0[0] = v1[0] = 0
        elif line == 1:
            v1[0] = 0
        elif line == 2:
            v1 = [c * 3 % p for c in v0]  # v(x) = (1 + 3x) v0
        u_at, line_polynomial = _kernel_line_drawer(fam, p)(_Draws(v0 + v1))
        members = [u_at(x) for x in range(n)]
        u = [_lagrange_mod(list(range(n)), [m[r] for m in members], p) for r in range(n)]
        mat = [[[0] for _ in range(n)] for _ in range(n)]
        for (i, j), column in zip(itertools.combinations(range(n), 2), zip(*fam.matrix)):
            entry = [sum(c * ur[e] for c, ur in zip(column, u)) % p for e in range(n)]
            mat[i][j], mat[j][i] = entry, [-c % p for c in entry]
        pfs = _polynomial_pfaffians(mat, p)
        v_0, v = [v0[0], v1[0]], [[a, b] for a, b in zip(v0, v1)]
        for s in range(n):
            lhs = _mul_poly([(-1) ** s * c for c in pfs[s]], v_0, p)
            assert _trim(lhs, p) == _trim(_mul_poly(pfs[0], v[s], p), p), (n, line, s)
        if not pfs[0]:
            assert not any(pfs), (n, line)
        # pointwise too: Pf_s = lambda v_s off v_0 = 0, and u = 0 on it
        for x in range(p) if p < 100 else roots_mod(pfs[0], p):
            if _evaluate(pfs[0], x, p) == 0:
                assert all(_evaluate(pf, x, p) == 0 for pf in pfs), (n, line, x)
                rank_drops += (v0[0] + x * v1[0]) % p != 0
        if not any(v_0):
            assert not pfs[0]
            h = []
        else:
            factor = _trim(v_0, p)
            for _ in range(half - 1):
                factor = _mul_poly(factor, _trim(v_0, p), p)
            h, rem = _divmod(pfs[0], factor, p) if pfs[0] else ([], [])
            assert not _trim(rem, p) and len(_trim(h, p)) <= n * (n - 3) // 2 + 1, (n, line)
            assert len(pfs[0]) <= deg + 1
        if p > deg:
            poly = line_polynomial()
            if not _trim(h, p):
                assert poly is None, (n, line)
            else:
                assert len(poly) == n * (n - 3) // 2 + 1
                assert _trim(poly, p) == _trim(h, p), (n, line)
    assert rank_drops >= (n > 3)  # the (3, 3) locus is empty


@pytest.mark.parametrize("p", [10007, 2**61 - 1])
def test_lagrange_mod_recovers_polynomials(p):
    rng = random.Random(f"lagrange:{p}")
    for d in range(26):
        coeffs = [rng.randrange(p) for _ in range(d + 1)]
        for xs in (list(range(d + 1)), rng.sample(range(p), d + 1)):
            ys = [sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p for x in xs]
            assert _lagrange_mod(xs, ys, p) == coeffs


def test_one_determinant_per_cofactor_vector(monkeypatch):
    # the scale of each cofactor vector comes out of its own elimination.
    # The per-layer tracer swaps the sampler's layers in grpf.pfaffian, so
    # each line path must reach them there, not through a captured alias.
    import grpf.modp as modp_mod
    import grpf.pfaffian as pf_mod

    layers = ["_series_cofactors", "_combiner", "_roots_mod"]
    calls = dict.fromkeys(["det"] + layers, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (modp_mod, pf_mod):
        monkeypatch.setattr(module, "det_mod", counted("det", modp_mod.det_mod),
                            raising=False)
    for name in layers:
        monkeypatch.setattr(pf_mod, name, counted(name, getattr(pf_mod, name)))
    sample_y2(AMap.random(7, 7, seed=42, p=10007), 10007, 10, 42)
    assert calls["det"] == 0
    assert all(calls[name] > 0 for name in layers), calls
    for n, k in ((7, 8), (8, 4)):  # the odd sliced and the even path
        used = layers if n % 2 else layers[1:]
        calls.update(dict.fromkeys(used, 0))
        sample_y2(AMap.random(n, k, seed=1), 10007, 3, 1)
        assert all(calls[name] > 0 for name in used), (n, k, calls)


@pytest.mark.parametrize(
    "n, k, p, count", [(5, 5, 5, 6), (7, 8, 10007, 20)]
)
def test_line_paths_decide_each_candidate_once(monkeypatch, n, k, p, count):
    # misses are remembered, and a sliced candidate is decided on the full
    # family only, not first on its slice
    import grpf.pfaffian as pf_mod

    seen = []
    point_at = pf_mod._point_at

    def counted(fam, u, q):
        seen.append((fam.k, tuple(u)))
        return point_at(fam, u, q)

    monkeypatch.setattr(pf_mod, "_point_at", counted)
    sample_y2(AMap.random(n, k, 1), p, count, 1)
    assert seen
    assert {fam_k for fam_k, _ in seen} == {k}
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize(
    "n, k, p", [(10, 5, 3), (10, 4, 3), (8, 4, 3), (12, 4, 5), (5, 5, 5), (5, 5, 7)]
)
def test_small_prime_sampling_equals_exhaustive_scan(n, k, p):
    # p <= d, the degree along a line (n/2 even, (n-1)^2/2 odd square): the
    # interpolation nodes collide mod p, so every x in F_p is a candidate.
    # (5, 5) at p = 3 is left out: its singular point (1, 1, 0, 1, 1) has its
    # kernel in v_0 = 0, where the first-row cofactor vector u(v) vanishes,
    # so the odd square path cannot reach it at any p.
    am = AMap.random(n, k, 1)
    fam = am.reduce_mod(p)
    space = [u for u in itertools.product(range(p), repeat=k)
             if any(u) and next(x for x in u if x) == 1]
    scan = [q for q in (_point_at(fam, u, p) for u in space) if q is not None]
    assert scan
    res = sample_y2(am, p, len(scan) + 1, seed=1, max_lines=400)
    assert res.points == scan


@pytest.mark.parametrize("n, k, p", [(10, 5, 3), (12, 4, 5)])
def test_small_prime_even_search_stops_when_every_point_is_drawn(n, k, p):
    # asking for more points than the locus has used to run the whole line
    # budget (50 * count + 500 lines); the misses are remembered, so the
    # search ends once all of P^(k-1)(F_p) has been drawn
    am = AMap.random(n, k, 1)
    fam = am.reduce_mod(p)
    space = [u for u in itertools.product(range(p), repeat=k)
             if any(u) and next(x for x in u if x) == 1]
    scan = [q for q in (_point_at(fam, u, p) for u in space) if q is not None]
    res = sample_y2(am, p, len(scan) + 1, seed=1)
    assert res.points == scan and res.exhausted
    assert res.attempts < 1000


@pytest.mark.parametrize("n, k, p", [(7, 7, 7), (7, 8, 5)])
def test_small_prime_odd_square_finds_points(n, k, p):
    # d = 18 on the odd square and sliced paths; P^(k-1)(F_p) is too large
    # for a scan, so each point is checked on its own
    am = AMap.random(n, k, 1)
    res = sample_y2(am, p, 5, seed=1)
    assert len(res.points) == 5 and not res.exhausted
    fam = am.reduce_mod(p)
    for q in res.points:
        assert q == _point_at(fam, q["coordinates"], p)


# --- rank census over finite fields ----------------------------------------------

def macwilliams_skew_count(n, s, q):
    """The number of n x n skew matrices of rank 2s over F_q (MacWilliams, 1969)."""
    num = q ** (s * (s - 1))
    for i in range(2 * s):
        num *= q ** (n - i) - 1
    den = 1
    for i in range(1, s + 1):
        den *= q ** (2 * i) - 1
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("n, q", [(3, 3), (4, 3), (5, 3), (4, 5)])
def test_skew_rank_counts_match_macwilliams(n, q):
    # every n x n skew matrix over F_q, one per upper triangle: rank_mod
    # must give rank 2s exactly as often as MacWilliams' closed form says,
    # and for even n pfaffian_mod must vanish exactly on the rank < n ones
    pairs = list(itertools.combinations(range(n), 2))
    ranks = Counter()
    pf_zero = 0
    for upper in itertools.product(range(q), repeat=len(pairs)):
        m = [[0] * n for _ in range(n)]
        for (i, j), x in zip(pairs, upper):
            m[i][j], m[j][i] = x, -x % q
        ranks[rank_mod(m, q)] += 1
        if n % 2 == 0:
            pf_zero += pfaffian_mod(m, q) == 0
    assert ranks == {2 * s: macwilliams_skew_count(n, s, q) for s in range(n // 2 + 1)}
    if n % 2 == 0:
        assert pf_zero == q ** len(pairs) - ranks[n] == {(4, 3): 261, (4, 5): 3225}[n, q]


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


def middle_row(h):
    """The row h^{p,d-p} of a diamond {(p, q): h} keyed by 0 <= p, q <= d."""
    d = math.isqrt(len(h)) - 1
    return [h[p, d - p] for p in range(d + 1)]


def euler(h):
    return sum((-1) ** (p + q) * v for (p, q), v in h.items())


def test_hypersurface_quintic_threefold():
    dia = hypersurface_hodge(4, 5)
    assert middle_row(dia) == [1, 101, 101, 1]
    assert dia[1, 1] == 1
    assert euler(dia) == -200


def test_hypersurface_quartic_surface():
    dia = hypersurface_hodge(3, 4)
    assert dia[2, 0] == 1
    assert dia[1, 1] == 20
    assert euler(dia) == 24


def test_hypersurface_plane_curves():
    # genus (d-1)(d-2)/2, with the elliptic curve at d = 3
    for d in range(1, 8):
        dia = hypersurface_hodge(2, d)
        assert dia[1, 0] == (d - 1) * (d - 2) // 2
    assert hypersurface_hodge(2, 3)[1, 0] == 1


def test_hypersurface_low_degree_is_ambient():
    # degree 1: a hyperplane, i.e. projective space one dimension down
    dia = hypersurface_hodge(4, 1)
    for p in range(4):
        for q in range(4):
            assert dia[p, q] == (1 if p == q else 0)
    # quadric surface has h^{1,1} = 2
    assert hypersurface_hodge(3, 2)[1, 1] == 2


def test_hypersurface_cubic_fourfold():
    dia = hypersurface_hodge(5, 3)
    assert middle_row(dia) == [0, 1, 21, 1, 0]


def test_hypersurface_validation():
    with pytest.raises(ValueError):
        hypersurface_hodge(1, 3)
    with pytest.raises(ValueError):
        hypersurface_hodge(4, 0)


def test_generic_rank_census_of_family_members():
    # a random member of a generic family has full rank (even n) or
    # corank one (odd n) essentially always
    p = 10007
    rng = random.Random(6)
    for n, k in ((6, 3), (7, 4)):
        am = AMap.random(n, k, seed=14, p=p)
        fam = am.reduce_mod(p)
        expected = n if n % 2 == 0 else n - 1
        hits = 0
        trials = 1000
        for _ in range(trials):
            u = [rng.randrange(p) for _ in range(k)]
            if rank_mod(_combine_forms(fam, u, p), p) == expected:
                hits += 1
        assert hits >= trials * 99 // 100, (n, k, hits)


def test_symbolic_family_degree_across_seeds():
    for seed in (1, 7, 42):
        am = AMap.random(10, 5, seed=seed, p=10007)
        pf = pfaffian_polynomial(am)
        assert max(map(sum, pf)) == 5
