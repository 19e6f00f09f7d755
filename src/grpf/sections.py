"""Cohomology of linear sections of Gr(2, n) and window verifiers.

The section Y cut out by k hyperplanes is the zero locus of a regular
section of O(1)^k, so its structure sheaf has the Koszul resolution by
O(-a)^{C(k,a)} and every Euler characteristic on Y is an alternating
binomial sum of Euler characteristics upstairs.  For Wedge^p Omega_Y
every term is a Cauchy term of Wedge^m Omega_Gr twisted by O(-t), so
:func:`hodge_diamond_y1` sums chi^p over one ray of Bott outcomes per
Cauchy term, and its audit is the table of those outcomes; other classes,
checked once, get one Bott table per Koszul twist
(:func:`_koszul_tables`).  Middle Hodge numbers come from these exact
Euler characteristics plus the Lefschetz hyperplane theorem.  Koszul
spectral sequences for restricted bundles are resolved by forced
cancellations (degrees that must vanish force their differentials); an
outcome that stays ambiguous raises :class:`~grpf.errors.IntegrityError`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby
from operator import sub

from .bwb import _bott_zero_tail, _cauchy_ray, _class_tables, euler_characteristic
from .diamond import hodge_diamond
from .errors import IntegrityError
from .geometry import ModelParams, grassmannian_window
from .schur import cauchy_exterior_cotangent
from .weights import _integer, check_class, grassmannian_poincare


def _koszul_tables(params: ModelParams, c):
    """(positive, negative) Bott tables of c(-a) for the Koszul twists a = 0..k.

    ``c`` is a class {(s_weight, q_weight): multiplicity} as in
    :mod:`grpf.schur`, checked once; the tables come in order of a.

    They serve :func:`restricted_euler` and the first Koszul page; the
    Hodge numbers of the section read one ray per Cauchy term instead.
    """
    n, terms = check_class(c, params.n)
    return [_class_tables(n, terms, -a) for a in range(params.k + 1)]


def restricted_euler(params: ModelParams, c):
    """chi(Y, c|_Y) via the Koszul resolution of the structure sheaf of Y."""
    return sum(
        (-1) ** a * math.comb(params.k, a) * euler_characteristic(tables)
        for a, tables in enumerate(_koszul_tables(params, c))
    )


def omega_p_class(params: ModelParams, deg):
    """Class on the Grassmannian restricting to Wedge^deg of Omega_Y.

    The conormal bundle of Y is O(-1)^k, so in K-theory
    Wedge^deg(Omega_Y) = lambda^deg([Omega_Gr] - [O(-1)^k]), expanded by
    the lambda-ring rule into Cauchy classes twisted by O(-i) with
    alternating multiplicities C(k+i-1, i), the coefficients of (1-t)^-k.
    Cauchy term j of Wedge^(deg-i) Omega_Gr twisted by O(-i) keeps its
    q-block, which fixes j and deg - i, so no two terms coincide.
    """
    terms = {}
    for i in range(deg + 1 if params.k else 1):
        mult = (-1) ** i * math.comb(params.k + i - 1, i) if i else 1
        for (s, q), m in cauchy_exterior_cotangent(params.n, deg - i).items():
            terms[(s[0] - i, s[1] - i), q] = mult * m
    return terms


@dataclass(frozen=True)
class SectionHodge:
    """Hodge data of a smooth codimension-k linear section of Gr(2, n).

    ``diamond`` is the dict {(p, q): h^{p,q}} of :func:`grpf.diamond.hodge_diamond`
    and ``chi_p[p]`` the exact Euler characteristic chi(Wedge^p Omega_Y).
    """

    diamond: dict
    chi_p: tuple[int, ...]
    # {"outcomes": the surviving Bott outcomes (j, m, t, degree, dimension), sorted};
    # chi^p sums those with m <= p, 0 <= p - m <= t <= p - m + k
    audit: dict


def hodge_diamond_y1(params: ModelParams) -> SectionHodge:
    """Full Hodge diamond of the linear section of Gr(2, n).

    Rows away from the middle come from the ambient Grassmannian (Lefschetz
    below the middle, duality above); the middle row is solved from the
    exact Euler characteristics chi^p.  The Cauchy class of Wedge^m Omega_Gr
    is built once per m, for its rank check and its number of terms, which
    fixes the least j.  Term (j, m) of Omega^p enters with twist O(-i),
    i = p - m, and the Koszul twist O(-a) adds to it, so its Bott outcome
    depends on (j, m, t) with t = i + a only.  The first term to need (j, m)
    builds its ray (:func:`grpf.bwb._cauchy_ray`) up to the largest twist
    d - m + k (0 if k = 0), and term (i, j) reads it at i <= t <= i + k:
    outcome (j, m, t) enters chi^p, p = m + i, with Koszul twist a = t - i
    and sign (-1)^i C(k+i-1, i) (-1)^a C(k, a) (a Cauchy term has
    multiplicity one).  The audit lists each outcome once; which p reads
    it, and with what sign, follows from (n, k) alone, so no row is kept.
    A negative or non-symmetric middle row means an upstream bug, and
    :func:`grpf.diamond.hodge_diamond` raises on it.
    """
    n, k, d = params.n, params.k, params.dim_y1
    if d < 0:
        raise ValueError(f"empty section: dim = {d} for (n,k)=({n},{k})")
    gp = grassmannian_poincare(n)
    # Cauchy term j of Wedge^m Omega_Gr runs over least[m] <= j <= m // 2
    least = [m // 2 + 1 - len(cauchy_exterior_cotangent(n, m)) for m in range(d + 1)]
    omega = [(-1) ** i * math.comb(k + i - 1, i) for i in range(d + 1)] if k else [1]
    koszul = [(-1) ** a * math.comb(k, a) for a in range(k + 1)]
    rays = {}  # (j, m) -> its surviving (t, degree, dimension), ascending
    chi = []
    for p in range(d + 1):
        total = 0
        for i, mult in enumerate(omega[:p + 1]):
            m = p - i
            for j in range(least[m], m // 2 + 1):
                ray = rays.get((j, m))
                if ray is None:
                    ray = rays[j, m] = _cauchy_ray(j, m, n, d - m + k if k else 0)
                lo = bisect_left(ray, (i,))
                for t, degree, dim in ray[lo:bisect_left(ray, (i + k + 1,), lo)]:
                    total += (-1) ** degree * mult * koszul[t - i] * dim
        chi.append(total)

    middle = [
        (-1) ** (d - p) * (chi[p] - (0 if d == 2 * p else (-1) ** p * gp[min(p, d - p)]))
        for p in range(d + 1)
    ]

    h = hodge_diamond(gp, middle)
    for p in range(d + 1):
        if sum((-1) ** q * h[p, q] for q in range(d + 1)) != chi[p]:
            raise IntegrityError(f"chi^{p} mismatch in diamond assembly")
    return SectionHodge(
        diamond=h,
        chi_p=tuple(chi),
        audit={"outcomes": sorted(key + value for key, ray in rays.items() for value in ray)},
    )


# ---------------------------------------------------------------------------
# Koszul hypercohomology by forced cancellation


def _koszul_page(params: ModelParams, c):
    """First-page entries (a, b) -> dim H^b(c(-a))^{C(k,a)} of the Koszul complex."""
    tables = _koszul_tables(params, c)  # checks the class first
    if not all(m > 0 for m in c.values()):
        raise ValueError("Koszul restriction needs an effective class")
    return {
        (a, b): math.comb(params.k, a) * dim
        for a, (positive, _) in enumerate(tables)
        for b, dim in positive.items()
    }


def _partners(entry, entries, k):
    """Entries linked to ``entry`` by a possibly nonzero differential d_r."""
    a, b = entry
    out = []
    for r in range(1, k + 1):
        tgt = (a - r, b - r + 1)
        src = (a + r, b + r - 1)
        if tgt[0] >= 0 and entries.get(tgt, 0) > 0:
            out.append(tgt)
        if src[0] <= k and entries.get(src, 0) > 0:
            out.append(src)
    return out


@dataclass(frozen=True)
class RestrictedCohomology:
    """H^*(Y, E|_Y) for an effective class E, read off the Koszul spectral sequence.

    ``table`` maps each degree to its dimension, unconditionally;
    ``page`` is the first page {(a, b): dim H^b(E(-a))^{C(k,a)}}.
    """

    table: dict
    page: dict


def koszul_restricted_cohomology(params: ModelParams, c):
    """Resolve the Koszul spectral sequence for c|_Y; its outcome is exact.

    Entries contributing to total degrees outside [0, dim Y] must die;
    when a doomed entry has a single live partner the cancellation is
    forced and unconditional.  A doomed entry that survives this, or two
    survivors linked by a differential, raises IntegrityError.
    """
    d = params.dim_y1
    page = _koszul_page(params, c)
    entries = dict(page)

    def bad(e):
        a, b = e
        return not 0 <= b - a <= d

    progress = True
    while progress:
        progress = False
        for e in sorted(entries):
            if entries.get(e, 0) <= 0 or not bad(e):
                continue
            partners = _partners(e, entries, params.k)
            if len(partners) == 1:
                other = partners[0]
                if entries[other] < entries[e]:
                    raise IntegrityError(
                        f"entry {e} larger than its only partner {other}"
                    )
                entries[other] -= entries[e]
                entries[e] = 0
                progress = True
    entries = {e: v for e, v in entries.items() if v}

    totals = {}
    for (a, b), v in entries.items():
        if bad((a, b)) or _partners((a, b), entries, params.k):
            raise IntegrityError(f"entry {(a, b)} of dimension {v} survives unresolved")
        totals[b - a] = totals.get(b - a, 0) + v
    return RestrictedCohomology(totals, page)


@dataclass(frozen=True)
class TangentCohomology:
    """First-order deformations of the section, from the normal sequence.

    mode is "exact" when no genericity is needed, "exact-generic" when the
    connecting map between degree-0 cohomology groups is assumed to have
    maximal rank (true for a generic family).  ``h0`` is h^0 of the
    tangent bundle of the section.
    """

    mode: str
    h1: int
    h0: int
    tangent_restricted: RestrictedCohomology | None
    normal_restricted: RestrictedCohomology | None


def h1_tangent_y1(params: ModelParams) -> TangentCohomology:
    """h^1 of the tangent bundle of the section of Gr(2, n).

    Uses 0 -> T_Y -> T_Gr|_Y -> O(1)^k|_Y -> 0 after computing both
    restricted cohomologies through the Koszul complex.  On a curve the
    connecting map need not have maximal rank (H^0(T_Y) != 0 in genus 0
    and 1), so there h^0(T_Y) comes from the genus and h^1 from the exact
    Euler characteristic chi(T_Y) = chi(T_Gr|_Y) - k chi(O_Y(1)), read off
    the two first Koszul pages.

    Off curves H^1(O_Y(1)) = 0: O(1 - a) has only H^0 for a <= 1 and only
    H^{2(n-2)} for a >= n + 1, so total degree 1 needs a = 2n - 5 > k when
    dim Y >= 2, and at dim Y = 0 that entry lies outside [0, 0] and cancels.
    So h^1(T_Y) is h^1(T_Gr|_Y) plus the cokernel of H^0 T_Gr|_Y -> H^0 O(1)^k
    at maximal rank; a nonzero H^1 of O(1)^k there raises IntegrityError.
    """
    n, k = params.n, params.k
    zeros = (0,) * (n - 2)
    tangent_class = {((1, 0), zeros[1:] + (-1,)): 1}  # Hom(S, Q)
    if k == 0:
        table = _koszul_tables(params, tangent_class)[0][0]  # H^* of T, the one twist a = 0
        return TangentCohomology("exact", table.get(1, 0), table.get(0, 0), None, None)
    tangent = koszul_restricted_cohomology(params, tangent_class)
    normal = koszul_restricted_cohomology(params, {((1, 1), zeros): k})  # O(1)^k
    if params.dim_y1 == 1:
        genus = 1 - restricted_euler(params, {((0, 0), zeros): 1})
        h0 = 3 if genus == 0 else 1 if genus == 1 else 0
        chi = sum(
            sign * (-1) ** (a + b) * v
            for sign, restricted in ((1, tangent), (-1, normal))
            for (a, b), v in restricted.page.items()
        )
        return TangentCohomology("exact", h0 - chi, h0, tangent, normal)
    if normal.table.get(1, 0):
        raise IntegrityError(f"H^1(O_Y(1)^{k}) = {normal.table[1]} off a curve")
    t0 = tangent.table.get(0, 0)
    n0 = normal.table.get(0, 0)
    rank = min(t0, n0)
    return TangentCohomology(
        "exact-generic", n0 - rank + tangent.table.get(1, 0), t0 - rank, tangent, normal
    )


# ---------------------------------------------------------------------------
# Exceptional-collection verification


def _rhom_by_key(keys, n):
    """Key -> (dim Hom, dim Ext^(n-2), dim Ext^(2(n-2))), the only degrees of RHom.

    A key (l, l', d) stands for E = Sym^l S (det S)^m against
    F = Sym^l' S (det S)^m' with d = m - m'.  With c = d - l',
    Clebsch-Gordan summand i <= min(l, l') of Hom(E, F) is the bundle of
    s-block (a1, a2) = (c + l + l' - i, c + i) over a zero q-block, so a
    key's summands run over a2 in [c, c + min(l, l')] on the antidiagonal
    a1 + a2 = s = 2d + l - l'.  Along each antidiagonal a key meets, the
    outcomes ``_bott_zero_tail(s - a2, a2, n)`` are summed cumulatively by
    degree once, from the least a2 of those keys to the greatest; a key
    reads the difference of two of these sums.
    """
    spans = {}  # s -> least and greatest a2 of the keys on the antidiagonal s
    for l, lp, d in keys:
        s, c = 2 * d + l - lp, d - lp
        top = c + (l if l < lp else lp)
        lo, hi = spans.get(s, (c, top))
        spans[s] = (c if c < lo else lo, top if top > hi else hi)
    sums = {}  # s -> (least a2, by j the sums by degree over a2 < least a2 + j)
    for s, (lo, hi) in spans.items():
        total = [0, 0, 0]
        line = [(0, 0, 0)]
        for a2 in range(lo, hi + 1):
            res = _bott_zero_tail(s - a2, a2, n)
            if res:
                degree, dim = res
                total[degree and degree // (n - 2)] += dim
            line.append(tuple(total))
        sums[s] = lo, line
    table = {}
    for key in keys:
        l, lp, d = key
        lo, line = sums[2 * d + l - lp]
        j = d - lp - lo
        table[key] = tuple(map(sub, line[j + (l if l < lp else lp) + 1], line[j]))
    return table


@dataclass(frozen=True)
class ExceptionalReport:
    """Outcome of the strong-exceptionality verification for a label set.

    ``order`` lists the labels with all nonzero morphisms flowing forward;
    ``hom_matrix[i][j]`` is dim Hom(order[i], order[j]).
    """

    n: int
    order: tuple
    hom_matrix: tuple
    ext_failures: tuple
    order_violations: tuple
    diagonal_failures: tuple

    @property
    def passed(self):
        return not (
            self.ext_failures or self.order_violations or self.diagonal_failures
        )

    @property
    def pair_count(self):
        return len(self.order) ** 2


def verify_strong_exceptional(n, window: frozenset) -> ExceptionalReport:
    """Check that a window's bundles form a strong exceptional collection.

    For every ordered pair all positive-degree Ext groups must vanish; in
    the order "larger twist first, larger symmetric power first within a
    twist" every Hom must flow forward; each bundle must be simple.
    RHom(E, F) depends only on the key (l, l', m - m'), and each key is
    read in O(1) from the sums along antidiagonals of :func:`_rhom_by_key`,
    built for the call, so each Bott summand is evaluated once.  The labels
    of one twist m' are consecutive in the order, so row (l, m) of the Hom
    matrix joins one block per twist, the Hom dimensions over that twist's
    l' at m - m', and a block serves every row and twist with the same l,
    m - m' and l'.  The verdict is read off the keys: a key fails on a
    nonzero Ext^{>0}, on Hom != 1 at (l, l, 0), and on a nonzero Hom at a
    backward key (m - m' < 0, or m - m' = 0 with l < l').  Only when some key fails are the pairs
    walked, reading the same table, to list the failures in pair order.
    Failures are collected, not raised; n < 3 or a label l < 0 is refused.
    """
    n = _integer(n, "n")
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if any(l < 0 for l, _ in window):
        raise ValueError(f"need l >= 0, got {sorted(lm for lm in window if lm[0] < 0)}")
    order = sorted(window, key=lambda lm: (-lm[1], -lm[0]))
    groups = []  # (m', index of its shape) for each twist, in order
    index = {}  # shape: the l' of a twist, in order -> its index
    for m, labels in groupby(order, key=lambda lm: lm[1]):
        shape = tuple(l for l, _ in labels)
        groups.append((m, index.setdefault(shape, len(index))))
    shapes = list(index)
    # (l, m - m', shape index) -> Hom dimensions over the shape
    blocks = dict.fromkeys((l, m - mp, g) for l, m in order for mp, g in groups)
    table = _rhom_by_key({(l, lp, d) for l, d, g in blocks for lp in shapes[g]}, n)
    for l, d, g in blocks:
        blocks[l, d, g] = tuple(table[l, lp, d][0] for lp in shapes[g])
    hom = tuple(
        tuple(chain.from_iterable(blocks[l, m - mp, g] for mp, g in groups))
        for l, m in order
    )
    failing = set()
    for (l, lp, d), (dim, ext, top_ext) in table.items():
        if l == lp and d == 0:
            bad = dim != 1
        else:
            bad = dim and (d < 0 or d == 0 and l < lp)
        if bad or ext or top_ext:
            failing.add((l, lp, d))
    ext_failures = []
    diagonal_failures = []
    order_violations = []
    if failing:
        for i, e in enumerate(order):
            for j, f in enumerate(order):
                key = (e[0], f[0], e[1] - f[1])
                if key not in failing:
                    continue
                hom_dim, *exts = table[key]
                for degree, dim in zip((n - 2, 2 * (n - 2)), exts):
                    if dim:
                        ext_failures.append((e, f, degree, dim))
                if i == j and hom_dim != 1:
                    diagonal_failures.append((e, hom_dim))
                if i > j and hom_dim != 0:
                    order_violations.append((e, f, hom_dim))
    return ExceptionalReport(
        n=n,
        order=tuple(order),
        hom_matrix=hom,
        ext_failures=tuple(ext_failures),
        order_violations=tuple(order_violations),
        diagonal_failures=tuple(diagonal_failures),
    )


# ---------------------------------------------------------------------------
# Twisted Ext vanishing for all twists t >= 0, decided symbolically


@dataclass(frozen=True)
class PairVerdict:
    vanishes_for_all_t: bool
    counterexample: tuple | None  # (summand index, t, degree, dimension)


def pair_twisted_vanishing(n, e, f) -> PairVerdict:
    """Decide Ext^{>0}(E, F(t)) = 0 for every integer t >= 0 at once.

    E = Sym^l S (det S)^m and F(t) = Sym^l' S (det S)^(m' - t); with
    c = m - m' - l', Hom(E, F(t)) is Sym^l x Sym^l' of S dual times
    (det S dual)^(c + t), whose Clebsch-Gordan summand
    i = 0..min(l, l') is Sym^(l + l' - 2i) x det^i of S dual.  So summand
    i has s_block (a1 + t, a2 + t), (a1, a2) = (c + l + l' - i, c + i),
    over a zero q-block, affine-linear in t of slope one.  Its shifted
    entries are u1 = a1 + t + n and u2 = a2 + t + n - 1 over the tail
    1..n-2.  From t = 2 - n - a2 on, u2 is a tail entry or above
    the tail, so the weight has a repeat or only degree 0 survives: only
    the summands i <= top = min(l, l', 1 - n - c) can fail.  Below that,
    u2 < 1 and the weight vanishes exactly on the window
    [1 - n - a1, -2 - a1] where u1 is a tail entry; anywhere else Bott
    puts it in degree n - 2 or 2(n - 2).  So summand i fails when
    [0, 2 - n - a2) leaves the window: at its bottom when
    i >= c + l + l' + n, at its top when 2i < l + l' + 3 - n.  The first
    failing candidate is i = 0 when l + l' > n - 3 and
    max(0, c + l + l' + n) otherwise; the key fails iff it is <= top.
    Bott runs only at that summand's first twist outside the window, for
    its degree and dimension.
    """
    (l, m), (lp, mp) = e, f
    c = m - mp - lp
    i = 0 if l + lp > n - 3 else max(0, c + l + lp + n)
    if i > min(l, lp, 1 - n - c):
        return PairVerdict(True, None)
    a1, a2 = c + l + lp - i, c + i
    t = 0 if a1 < 1 - n else max(0, -1 - a1)
    return PairVerdict(False, (i, t) + _bott_zero_tail(a1 + t, a2 + t, n))


@dataclass(frozen=True)
class VanishingReport:
    n: int
    pair_count: int
    summand_count: int
    counterexamples: tuple

    @property
    def all_vanish(self):
        return not self.counterexamples


def twisted_ext_vanishing(n) -> VanishingReport:
    """Run the all-t vanishing decision over the full Grassmannian window.

    The verdict depends only on the key (l, l', m - m').  In
    :func:`pair_twisted_vanishing` the first failing candidate never
    decreases as m - m' grows and the last summand that can fail never
    increases, so the failing keys of a row pair (l, l') form a down-set
    {m - m' <= D}: one call at the row pair's least m - m', (l, min m)
    against (l', max m'), decides all of it.  Label pairs are walked, in
    the order of the sorted labels, only to list the counterexamples of
    failing row pairs.
    """
    n = _integer(n, "n")
    if n % 2 != 0 or n < 4:
        raise ValueError(f"the all-t decision is for even n >= 4, got {n}")
    labels = sorted(grassmannian_window(n))
    rows = {}  # l -> the m of row l, ascending
    for l, m in labels:
        rows.setdefault(l, []).append(m)
    summands = 0
    failing = set()
    for l, ms in rows.items():
        for lp, mps in rows.items():
            summands += len(ms) * len(mps) * (min(l, lp) + 1)
            if not pair_twisted_vanishing(n, (l, ms[0]), (lp, mps[-1])).vanishes_for_all_t:
                failing.add((l, lp))
    counterexamples = []
    if failing:
        for e in labels:
            for f in labels:
                if (e[0], f[0]) in failing:
                    verdict = pair_twisted_vanishing(n, e, f)
                    if not verdict.vanishes_for_all_t:
                        counterexamples.append((e, f) + verdict.counterexample)
    return VanishingReport(
        n=n,
        pair_count=len(labels) ** 2,
        summand_count=summands,
        counterexamples=tuple(counterexamples),
    )
