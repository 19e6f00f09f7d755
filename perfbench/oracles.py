"""Computations made apart from grpf, and the checks of its reports.

Nothing here imports grpf.  Every check recomputes what a report claims
from a closed form, from a first-principles enumeration, or from a
property the method must have; none compares against stored output.
Each ``check_*`` function returns a list of problems, empty when the
report is right.
"""

from __future__ import annotations

import json
import math

# ---------------------------------------------------------------------------
# Closed forms and small enumerations


def catalan(m):
    """The m-th Catalan number; deg Gr(2, n) = catalan(n - 2)."""
    return math.comb(2 * m, m) // (m + 1)


def schur_dim(parts, n):
    """dim S_lambda(C^n) by the hook-content formula.

    ``parts`` is a partition (weakly decreasing, non-negative); the
    result is 0 when it has more than n nonzero parts.
    """
    rows = [p for p in parts if p > 0]
    num = den = 1
    for r, length in enumerate(rows):
        for c in range(length):
            num *= n + c - r
            leg = sum(1 for below in rows[r + 1:] if below > c)
            den *= (length - c - 1) + leg + 1
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"hook-content quotient not integral for {parts}")
    return dim


def schubert_cells(n, p):
    """Schubert cells of complex dimension p in Gr(2, n).

    They are the partitions (a, b), n - 2 >= a >= b >= 0, with a + b = p.
    """
    return sum(1 for b in range(p // 2 + 1) if p - b <= n - 2)


def bott(weight):
    """Bott's algorithm on a GL(n) weight (dominant within the Levi blocks).

    Returns None when every cohomology group vanishes, else the pair
    (degree, dimension) of the one nonzero group.
    """
    n = len(weight)
    shifted = [w + n - i for i, w in enumerate(weight)]
    if len(set(shifted)) < n:
        return None
    degree = sum(
        1 for i in range(n) for j in range(i + 1, n) if shifted[i] < shifted[j]
    )
    ordered = sorted(shifted, reverse=True)
    rep = [v - (n - i) for i, v in enumerate(ordered)]
    low = rep[-1]
    return degree, schur_dim([v - low for v in rep], n)


def hom_summands(e, f):
    """The s-blocks (a1, a2) of Hom(Sym^l S det^m, Sym^l' S det^m').

    Sym^l S^v (x) Sym^l' S = Sym^l S^v (x) Sym^l' S^v (x) det(S^v)^(-l'),
    and Clebsch-Gordan splits the product of symmetric powers.
    """
    (l, m), (lp, mp) = e, f
    return [
        (m - mp + l - i, m - mp - lp + i) for i in range(min(l, lp) + 1)
    ]


def hom_dim(e, f, n):
    """dim Hom(E, F) on Gr(2, n): Borel-Weil on each summand, 0 if a2 < 0."""
    return sum(
        schur_dim((a1, a2), n) for a1, a2 in hom_summands(e, f) if a2 >= 0
    )


def higher_ext_free(window, n, t_max):
    """True when Ext^{>0}(E, F(t)) = 0 for E, F in the window and 0 <= t <= t_max.

    Decided by running :func:`bott` on every distinct summand weight.
    """
    keys = {(l, lp, m - mp) for l, m in window for lp, mp in window}
    blocks = {
        (a1 + t, a2 + t)
        for l, lp, d in keys
        for a1, a2 in hom_summands((l, d), (lp, 0))
        for t in range(t_max + 1)
    }
    tail = [0] * (n - 2)
    for a1, a2 in blocks:
        outcome = bott([a1, a2] + tail)
        if outcome is not None and outcome[0] > 0:
            return False
    return True


def grassmannian_window(n):
    """Labels (l, m) of the Grassmannian-side window S.

    l < L = floor(n/2) and m < n, except that for even n the top row
    l = L - 1 stops at m < n/2.
    """
    half = n // 2
    labels = [(l, m) for l in range(half) for m in range(n)]
    if n % 2 == 0:
        labels = [(l, m) for l, m in labels if l < half - 1 or m < n // 2]
    return labels


def pfaffian_window(n, k):
    """Labels (l, m) of the Pfaffian-side window T: l < floor(n/2), m < k."""
    return [(l, m) for l in range(n // 2) for m in range(k)]


def pair_index(n, i, j):
    """Column of the coordinate (i, j), i < j, in lexicographic order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def skew_at(matrix, n, u, p):
    """The skew matrix sum_r u_r A_r over F_p for a family matrix."""
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            idx = pair_index(n, i, j)
            v = sum(c * row[idx] for c, row in zip(u, matrix)) % p
            out[i][j] = v
            out[j][i] = -v % p
    return out


def rank_mod(rows, p):
    """Rank over F_p by Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Report checks


def _load(code, text):
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(text)["result"], []
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable report: {exc}"]


def check_collection(code, text, n, window, cache):
    """Strong exceptionality report of a window against hook-content Homs."""
    res, problems = _load(code, text)
    if res is None:
        return problems
    if res.get("passed") is not True:
        problems.append("passed is not true")
    if res.get("pairs") != len(window) ** 2:
        problems.append(f"pairs {res.get('pairs')} != |window|^2 = {len(window) ** 2}")
    order = [tuple(x) for x in res.get("order", [])]
    if sorted(order) != sorted(window):
        return problems + ["order is not the window"]
    hom = res.get("hom_matrix", [])
    if len(hom) != len(order) or any(len(row) != len(order) for row in hom):
        return problems + ["hom_matrix has the wrong shape"]
    for i, e in enumerate(order):
        for j, f in enumerate(order):
            key = (n,) + e + f
            if key not in cache:
                cache[key] = hom_dim(e, f, n)
            if hom[i][j] != cache[key]:
                problems.append(f"Hom{e}->{f} = {hom[i][j]}, expected {cache[key]}")
                return problems
    return problems


def check_lemma(code, text, n, window, t_max, cache):
    """All-twists vanishing report; at ``t_max`` given, re-decided by Bott."""
    res, problems = _load(code, text)
    if res is None:
        return problems
    if res.get("all_vanish") is not True:
        problems.append("all_vanish is not true")
    if res.get("pairs") != len(window) ** 2:
        problems.append(f"pairs {res.get('pairs')} != |window|^2 = {len(window) ** 2}")
    if t_max is not None:
        key = ("lemma", n, t_max)
        if key not in cache:
            cache[key] = higher_ext_free(window, n, t_max)
        if not cache[key]:
            problems.append(f"independent Bott run finds Ext^>0 for t <= {t_max}")
    return problems


def expected_rows_off_middle(n, dim):
    """Diamond rows by total degree s != dim, from Schubert cells of Gr(2, n)."""
    rows = {}
    for s in range(2 * dim + 1):
        if s == dim:
            continue
        low = min(s, 2 * dim - s)
        row = [0] * (low + 1)
        if low % 2 == 0:
            row[low // 2] = schubert_cells(n, low // 2)
        rows[s] = row
    return rows


def check_hodge(code, text, n, k):
    """Hodge report of the section of Gr(2, n) by k hyperplanes."""
    res, problems = _load(code, text)
    if res is None:
        return problems
    dim = 2 * (n - 2) - k
    if res.get("dim") != dim:
        return problems + [f"dim {res.get('dim')} != {dim}"]
    rows = res.get("rows", [])
    if len(rows) != 2 * dim + 1:
        return problems + ["wrong number of rows"]
    for s, row in expected_rows_off_middle(n, dim).items():
        if rows[s] != row:
            problems.append(f"row {s} = {rows[s]}, Schubert cells give {row}")
    middle = res.get("middle_row", [])
    if middle != rows[dim] or middle != middle[::-1]:
        problems.append("middle row inconsistent or not symmetric")
    tangent = res.get("tangent_h1", {})
    h1t = tangent.get("value")
    if dim == 0 and rows[0] != [catalan(n - 2)]:
        problems.append(f"h00 = {rows[0]}, expected deg Gr = {catalan(n - 2)}")
    if k == 0 and middle != [schubert_cells(n, dim // 2) if 2 * p == dim else 0
                             for p in range(dim + 1)]:
        problems.append("middle row differs from the Grassmannian's")
    if dim == 1:
        g = middle[0]
        if 2 * g - 2 != (k - n) * catalan(n - 2):
            problems.append(f"genus {g} breaks 2g-2 = (k-n) deg Gr")
        expected = 1 if g == 1 else 3 * g - 3
        bounds = tangent.get("bounds")
        if tangent.get("mode") == "bounds":
            if not (bounds and bounds[0] <= expected <= bounds[1]):
                problems.append(f"h1(T) bounds {bounds} exclude {expected}")
        elif h1t != expected:
            problems.append(f"h1(T) = {h1t} for a genus-{g} curve")
    closed = {
        (10, 5): lambda: (middle == [0] * 4 + [1, 101, 101, 1] + [0] * 4 and h1t == 101),
        (7, 7): lambda: (res.get("h11") == 1 and middle[1:3] == [50, 50]),
        (6, 6): lambda: res.get("h11") == 20,
        (5, 4): lambda: res.get("h11") == 5,
    }
    if (n, k) in closed and not closed[(n, k)]():
        problems.append(f"closed form for ({n}, {k}) not met")
    return problems


def check_sample(code, text, n, k, matrix, prime, points):
    """Sampled points: normalised, distinct, of low rank, mostly smooth."""
    res, problems = _load(code, text)
    if res is None:
        return problems
    found = res.get("points", [])
    if res.get("exhausted") or res.get("found") != points or len(found) != points:
        return problems + [f"found {len(found)} of {points} points"]
    max_rank = n - 2 if n % 2 == 0 else n - 3
    seen = set()
    smooth = 0
    for pt in found:
        u = tuple(pt["coordinates"])
        lead = next((x for x in u if x), None)
        if len(u) != k or lead != 1 or not all(0 <= x < prime for x in u):
            return problems + [f"point {u} not normalised"]
        if u in seen:
            return problems + [f"point {u} repeated"]
        seen.add(u)
        rank = rank_mod(skew_at(matrix, n, u, prime), prime)
        if rank != pt["rank"] or rank > max_rank or pt["kernel_dim"] != n - rank:
            return problems + [f"point {u}: rank {pt['rank']}, recomputed {rank}"]
        smooth += bool(pt["smooth_at"])
    if smooth < 0.95 * points:
        problems.append(f"smooth share {smooth}/{points} below 0.95")
    return problems


def check_build(code, text, n, k):
    """Symbolic Pfaffian (even n) or submaximal Pfaffians (odd n)."""
    res, problems = _load(code, text)
    if res is None:
        return problems
    if (res.get("n"), res.get("k")) != (n, k):
        return problems + ["report is for another family"]
    if n % 2 == 0:
        pf = res.get("pfaffian", {})
        if pf.get("degree") != n // 2 or not pf.get("terms"):
            problems.append(f"Pfaffian degree {pf.get('degree')} != {n // 2}")
    else:
        sub = res.get("submaximal_pfaffians", {})
        if sub.get("count") != n or sub.get("degrees") != [(n - 1) // 2] * n:
            problems.append("submaximal Pfaffians not n of degree (n-1)/2")
    return problems
