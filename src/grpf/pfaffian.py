"""Exact Pfaffian-side geometry: skew families, point sampling, Hodge data.

A family is a k x C(n,2) matrix over an exact field: row r holds the
coefficients of the r-th skew 2-form on V in lexicographic (i < j)
coordinates.  From it we build the n x n skew matrix of linear forms in
u1..uk, whose rank-drop locus inside P(U) is the Pfaffian-side variety:
the vanishing of the Pfaffian itself for even n, of all principal
submaximal Pfaffians for odd n.

Point sampling works over F_p: random lines are swept and the restricted
locus is solved by interpolation plus exact root finding for any odd p,
which avoids Groebner machinery entirely.  Smoothness at a sample point u is
the tangent-space test of a rank locus (no symbolic Pfaffian): with K
the kernel of M_u and c = 2 (even n) or 3 (odd n), u is smooth iff
dim K = c and the pairings k_a^T M_r k_b on K have rank C(c, 2).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .diamond import HodgeDiamond
from .errors import DegenerateFamilyError, ParityError
from .modp import _rref, det_mod, nullspace_mod, pfaffian_mod, rank_mod
from .modp import roots_mod as _roots_mod  # the name perfbench traces
from .poly import Poly, PrimeField, Rationals, is_prime


def pair_index(n, i, j):
    """Column index of the coordinate (i, j), i < j, in lex order (0-based)."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j})")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_of_index(n, idx):
    for i in range(n - 1):
        width = n - 1 - i
        if idx < width:
            return (i, i + 1 + idx)
        idx -= width
    raise ValueError("index out of range")


class AMap:
    """A k-dimensional family of skew 2-forms on an n-dimensional space.

    The defining matrix must have full rank k (the family is embedded,
    equivalently the dual map is surjective); anything less raises
    :class:`DegenerateFamilyError`.
    """

    __slots__ = ("n", "k", "field", "matrix")

    def __init__(self, n, k, field, matrix):
        self.n = int(n)
        self.k = int(k)
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        ncols = math.comb(self.n, 2)
        if not 1 <= self.k <= ncols:
            raise ValueError(f"need 1 <= k <= C(n,2)={ncols}, got k={k}")
        self.field = field
        rows = []
        for row in matrix:
            row = tuple(field.coerce(x) for x in row)
            if len(row) != ncols:
                raise ValueError(f"row length {len(row)} != C(n,2) = {ncols}")
            rows.append(row)
        if len(rows) != self.k:
            raise ValueError(f"{len(rows)} rows != k = {self.k}")
        self.matrix = tuple(rows)
        if _rref(self.matrix, field)[0] < self.k:
            raise DegenerateFamilyError(
                f"family matrix has rank < k = {self.k}"
            )

    def basis_forms(self):
        """The k skew n x n coefficient matrices, one per row."""
        forms = []
        for row in self.matrix:
            m = [[self.field.zero] * self.n for _ in range(self.n)]
            for idx, c in enumerate(row):
                i, j = pair_of_index(self.n, idx)
                m[i][j] = c
                m[j][i] = self.field.neg(c)
            forms.append(m)
        return forms

    def reduce_mod(self, p):
        if isinstance(self.field, PrimeField):
            if self.field.p != p:
                raise ValueError(
                    f"family is over F_{self.field.p}, cannot reduce mod {p}"
                )
            return self
        fp = PrimeField(p)
        try:
            rows = [[fp.coerce(x) for x in row] for row in self.matrix]
        except ZeroDivisionError as exc:
            raise ValueError(f"cannot reduce family mod {p}: {exc}") from None
        return AMap(self.n, self.k, fp, rows)

    @classmethod
    def random(cls, n, k, seed, p=None):
        """A random family with full rank, reproducible from the seed."""
        rng = random.Random(f"amap:{n}:{k}:{seed}:{p}")
        field = PrimeField(p) if p else Rationals()
        ncols = math.comb(n, 2)
        for _ in range(64):
            if p:
                rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
            else:
                rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(k)]
            try:
                return cls(n, k, field, rows)
            except DegenerateFamilyError:
                continue
        raise DegenerateFamilyError("could not draw a full-rank family")

    def to_json_dict(self):
        field = "Q" if isinstance(self.field, Rationals) else {"p": self.field.p}
        return {
            "n": self.n,
            "k": self.k,
            "field": field,
            "matrix": [[self.field.to_json(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json_dict(cls, data):
        field = data["field"]
        if field == "Q":
            f = Rationals()
        elif isinstance(field, dict) and "p" in field:
            f = PrimeField(field["p"])
        else:
            raise ValueError(f"bad field descriptor {field!r}")
        return cls(data["n"], data["k"], f, data["matrix"])

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return f"AMap(n={self.n}, k={self.k}, {self.field.name})"


class SkewLinearMatrix:
    """n x n skew matrix of linear forms in u1..uk over an exact field."""

    __slots__ = ("n", "k", "field", "entries")

    def __init__(self, n, k, field, entries):
        self.n = int(n)
        self.k = int(k)
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        zero = Poly.zero(field, k)
        for i in range(self.n):
            if self.entries[i][i] != zero:
                raise ValueError(f"nonzero diagonal entry at {i}")
            for j in range(i + 1, self.n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ValueError(f"matrix not skew at ({i},{j})")

    def evaluate(self, u):
        """Numeric skew matrix at the point u of the parameter space."""
        return [
            [e.evaluate(u) for e in row]
            for row in self.entries
        ]

    def __repr__(self):
        return f"SkewLinearMatrix(n={self.n}, k={self.k}, {self.field.name})"


def build_skew_matrix(a: AMap) -> SkewLinearMatrix:
    """The skew matrix whose (i, j) entry is sum_r matrix[r][(i,j)] u_r."""
    f = a.field
    zero = Poly.zero(f, a.k)
    rows = [[zero for _ in range(a.n)] for _ in range(a.n)]
    for i in range(a.n):
        for j in range(i + 1, a.n):
            idx = pair_index(a.n, i, j)
            terms = {}
            for r in range(a.k):
                c = a.matrix[r][idx]
                if not f.is_zero(c):
                    exps = tuple(1 if s == r else 0 for s in range(a.k))
                    terms[exps] = c
            entry = Poly(f, a.k, terms)
            rows[i][j] = entry
            rows[j][i] = -entry
    return SkewLinearMatrix(a.n, a.k, f, rows)


def _pfaffian_expand(entry, indices, zero, one):
    """Pfaffian by expansion along the first row, memoized on index subsets.

    ``entry(i, j)`` must be defined for i < j; works over any commutative
    ring whose elements support +, - and *.
    """
    memo = {}

    def pf(idx):
        if not idx:
            return one
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        acc = zero
        for t in range(1, len(idx)):
            rest = idx[1:t] + idx[t + 1 :]
            term = entry(i0, idx[t]) * pf(rest)
            acc = acc + term if t % 2 == 1 else acc - term
        memo[idx] = acc
        return acc

    return pf(tuple(indices))


def pfaffian_polynomial(m):
    """Pfaffian of a skew matrix with linear-form or exact numeric entries.

    Squares to the determinant identically.  Even size only; odd sizes
    have all submaximal Pfaffians instead.
    """
    if isinstance(m, SkewLinearMatrix):
        if m.n % 2:
            raise ParityError(
                f"n = {m.n} is odd; use submaximal_pfaffians instead"
            )
        zero = Poly.zero(m.field, m.k)
        one = Poly.const(m.field, m.k, 1)
        return _pfaffian_expand(
            lambda i, j: m.entries[i][j], range(m.n), zero, one
        )
    rows = [list(r) for r in m]
    n = len(rows)
    if n % 2:
        raise ParityError(f"n = {n} is odd; use submaximal_pfaffians instead")
    for i in range(n):
        for j in range(n):
            if rows[i][j] != -rows[j][i]:
                raise ValueError(f"matrix not skew at ({i},{j})")
    return _pfaffian_expand(
        lambda i, j: Fraction(rows[i][j]), range(n), Fraction(0), Fraction(1)
    )


def submaximal_pfaffians(m: SkewLinearMatrix):
    """The n principal Pfaffians deleting row and column i, for odd n.

    Their common zero locus is the rank <= n-3 locus of the family.
    """
    if m.n % 2 == 0:
        raise ParityError(f"n = {m.n} is even; use pfaffian_polynomial instead")
    zero = Poly.zero(m.field, m.k)
    one = Poly.const(m.field, m.k, 1)
    out = []
    for i in range(m.n):
        idx = tuple(j for j in range(m.n) if j != i)
        out.append(
            _pfaffian_expand(lambda a, b: m.entries[a][b], idx, zero, one)
        )
    return out


# ---------------------------------------------------------------------------
# Point sampling over a prime field


@dataclass(frozen=True)
class SamplePoint:
    """One projective point of the degeneracy locus over F_p."""

    coordinates: tuple[int, ...]
    rank: int
    kernel_dim: int
    smooth_at: bool


@dataclass(frozen=True)
class SampleResult:
    points: tuple[SamplePoint, ...]
    requested: int
    attempts: int
    prime: int
    seed: int
    exhausted: bool

    @property
    def smooth_fraction(self):
        if not self.points:
            return 0.0
        return sum(1 for q in self.points if q.smooth_at) / len(self.points)


def _normalize_projective(u, p):
    lead = next((x for x in u if x), None)
    if lead is None:
        return None
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in u)


def _lagrange_mod(xs, ys, p):
    """Interpolating polynomial (ascending coefficients) through the points."""
    npts = len(xs)
    coeffs = [0] * npts
    for i in range(npts):
        denom = 1
        basis = [1]
        for j in range(npts):
            if j == i:
                continue
            denom = denom * (xs[i] - xs[j]) % p
            new = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] = (new[d] - c * xs[j]) % p
                new[d + 1] = (new[d + 1] + c) % p
            basis = new
        scale = ys[i] * pow(denom, p - 2, p) % p
        for d, c in enumerate(basis):
            coeffs[d] = (coeffs[d] + c * scale) % p
    return coeffs


def _combine_forms(forms, u, p):
    """The numeric skew matrix sum_r u_r * forms[r] over F_p."""
    n = len(forms[0])
    out = [[0] * n for _ in range(n)]
    for coeff, form in zip(u, forms):
        if not coeff:
            continue
        for i in range(n):
            row = form[i]
            orow = out[i]
            for j in range(i + 1, n):
                if row[j]:
                    orow[j] = (orow[j] + coeff * row[j]) % p
    for i in range(n):
        for j in range(i + 1, n):
            out[j][i] = -out[i][j] % p
    return out


def _point_at(forms, u, p):
    """The sample point at u, or None when M_u lies off the degeneracy locus.

    This is the Jacobian criterion: at corank 2 the gradient of Pf is a
    nonzero multiple of (k1^T M_r k2)_r, at corank 3 the Jacobian of the
    submaximal Pfaffians is contraction with k1 ^ k2 ^ k3, and at any
    larger corank both vanish.
    """
    n = len(forms[0])
    corank = 2 if n % 2 == 0 else 3
    kernel = nullspace_mod(_combine_forms(forms, u, p), p)
    if len(kernel) < corank:
        return None
    pairs = list(itertools.combinations(kernel, 2))
    pairings = [
        [sum(x * f * y for x, row in zip(a, form) for f, y in zip(row, b)) % p
         for a, b in pairs]
        for form in forms
    ]
    smooth = len(kernel) == corank and rank_mod(pairings, p) == len(pairs)
    return SamplePoint(tuple(u), n - len(kernel), len(kernel), smooth)


def _sample_even(am, p, count, seed, max_lines):
    n, k = am.n, am.k
    forms = am.basis_forms()
    deg = n // 2
    if k == 1:
        # P(U) is a single point; no lines to sweep.
        point = _point_at(forms, (1,), p)
        return ({(1,): point} if point else {}), 1
    found = {}
    line = 0
    while len(found) < count and line < max_lines:
        rng = random.Random(f"{seed}:even:{line}")
        line += 1
        p0 = [rng.randrange(p) for _ in range(k)]
        p1 = [rng.randrange(p) for _ in range(k)]
        xs = list(range(deg + 1))
        ys = [
            pfaffian_mod(
                _combine_forms(forms, [(a + x * b) % p for a, b in zip(p0, p1)], p), p
            )
            for x in xs
        ]
        if all(y == 0 for y in ys):
            continue  # line inside the hypersurface or junk; resample
        coeffs = _lagrange_mod(xs, ys, p)
        for x in _roots_mod(coeffs, p):
            u = _normalize_projective(
                [(a + x * b) % p for a, b in zip(p0, p1)], p
            )
            if u is None or u in found:
                continue
            point = _point_at(forms, u, p)
            if point is None:
                continue
            found[u] = point
            if len(found) >= count:
                break
    return found, line


def _kernel_cofactor_vector(b, p, drop_row=0):
    """A kernel vector of a square singular matrix by cofactors of one row.

    Entries are (-1)^i det(b minus drop_row minus column i): a polynomial
    formula in the matrix entries, so sweeping a parameter keeps the
    result on a single polynomial curve (no elimination rescaling).
    """
    n = len(b)
    rows = [b[r] for r in range(n) if r != drop_row]
    out = []
    sign = 1
    for i in range(n):
        minor = [[row[c] for c in range(n) if c != i] for row in rows]
        out.append(sign * det_mod(minor, p) % p)
        sign = -sign
    return out


def _sample_odd_square(am, p, count, seed, max_lines):
    """Sampling for odd n with k = n via the kernel-incidence line trick.

    For v in V the matrix B_v = [M_1 v | ... | M_n v] is square and
    singular (its columns pair to zero against v), and its kernel vector
    u(v) is generically the unique family member with v in its kernel.
    The locus where u(v) lands on the degeneracy variety is a hypersurface
    in P(V), so random lines in P(V) meet it; along a line the relevant
    submaximal Pfaffian of M(u(v)) is a polynomial in the line parameter,
    recovered by interpolation and solved for its roots.
    """
    n = am.n
    forms = am.basis_forms()
    gdeg = (n - 1) * (n - 1) // 2  # deg u(v) = n-1 per entry, times (n-1)/2
    found = {}
    line = 0
    while len(found) < count and line < max_lines:
        rng = random.Random(f"{seed}:odd:{line}")
        line += 1
        v0 = [rng.randrange(p) for _ in range(n)]
        v1 = [rng.randrange(p) for _ in range(n)]

        def u_at(x):
            v = [(a + x * b) % p for a, b in zip(v0, v1)]
            bmat = [
                [sum(form[i][j] * v[j] for j in range(n)) % p for form in forms]
                for i in range(n)
            ]
            return _kernel_cofactor_vector(bmat, p)

        xs = list(range(gdeg + 1))
        mats = [_combine_forms(forms, u_at(x), p) for x in xs]
        candidates = None
        for s in range(n):
            idx = tuple(j for j in range(n) if j != s)
            ys = [
                pfaffian_mod([[mat[a][b] for b in idx] for a in idx], p)
                for mat in mats
            ]
            if any(ys):
                candidates = _roots_mod(_lagrange_mod(xs, ys, p), p)
                break
        if candidates is None:
            continue
        for x in candidates:
            u = _normalize_projective(u_at(x), p)
            if u is None or u in found:
                continue
            point = _point_at(forms, u, p)
            if point is None:
                continue
            found[u] = point
            if len(found) >= count:
                break
    return found, line


def _sample_odd(am, p, count, seed, max_lines):
    n, k = am.n, am.k
    if k == n:
        return _sample_odd_square(am, p, count, seed, max_lines)
    forms = am.basis_forms()
    if k > n:
        # Slice the parameter space down to an n-dimensional subfamily;
        # points of the sliced locus are points of the full one.
        found = {}
        lines = 0
        attempt = 0
        while len(found) < count and lines < max_lines:
            rng = random.Random(f"{seed}:slice:{attempt}")
            attempt += 1
            emb = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            sliced_rows = [
                [sum(emb[s][r] * am.matrix[s][c] for s in range(k)) % p
                 for c in range(math.comb(n, 2))]
                for r in range(n)
            ]
            try:
                sliced = AMap(n, n, PrimeField(p), sliced_rows)
            except DegenerateFamilyError:
                continue
            sub, sub_lines = _sample_odd_square(
                sliced, p, count - len(found), f"{seed}:{attempt}",
                max_lines - lines,
            )
            lines += sub_lines
            for uprime in sub:
                u = _normalize_projective(
                    [sum(e * x for e, x in zip(row, uprime)) % p for row in emb], p
                )
                if u is None or u in found:
                    continue
                found[u] = _point_at(forms, u, p)
        return found, lines
    # k < n leaves no linear handle on the kernel; honest trial search.
    # When the budget could cover all of P^{k-1}(F_p), off-locus draws are
    # remembered and the search stops once every point has been drawn.
    found = {}
    rng = random.Random(f"{seed}:trials")
    trials = 0
    budget = max_lines * 50
    space = (p**k - 1) // (p - 1)
    off_locus = set()
    while (
        len(found) < count
        and trials < budget
        and len(found) + len(off_locus) < space
    ):
        trials += 1
        u = _normalize_projective([rng.randrange(p) for _ in range(k)], p)
        if u is None or u in found or u in off_locus:
            continue
        point = _point_at(forms, u, p)
        if point is not None:
            found[u] = point
        elif space <= budget:
            off_locus.add(u)
    return found, trials


def sample_y2(a: AMap, p, count, seed, max_lines=None) -> SampleResult:
    """Search for F_p-points of the degeneracy locus of the family.

    Returns up to ``count`` distinct projective points with their rank,
    kernel dimension and the tangent-space smoothness verdict.  Running
    out of budget yields an exhausted report, not an exception.  Every
    random draw comes from a stream derived from (seed, line index), so
    results are reproducible and independent of how lines would be
    scheduled.  Any odd prime works; memory does not grow with p.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    am = a.reduce_mod(p)
    if max_lines is None:
        max_lines = 50 * count + 500
        if am.n % 2 == 1:
            max_lines = min(max_lines, 3000)
    if am.n % 2 == 0:
        found, attempts = _sample_even(am, p, count, seed, max_lines)
    else:
        found, attempts = _sample_odd(am, p, count, seed, max_lines)
    points = tuple(found[u] for u in sorted(found))
    return SampleResult(
        points=points,
        requested=count,
        attempts=attempts,
        prime=p,
        seed=seed,
        exhausted=len(points) < count,
    )


# ---------------------------------------------------------------------------
# Hodge numbers of smooth hypersurfaces (Jacobian-ring dimension count)


def jacobian_ring_dimension(ambient_dim, degree, m):
    """dim of the degree-m piece of the Jacobian ring of a smooth
    degree-``degree`` hypersurface in P^ambient_dim.

    The partials form a regular sequence of N+1 forms of degree d-1, so
    the Hilbert function is the coefficient in (1 + t + .. + t^{d-2})^{N+1},
    computed by inclusion-exclusion.
    """
    if m < 0:
        return 0
    npow = ambient_dim + 1
    total = 0
    for i in range(npow + 1):
        arg = m - i * (degree - 1)
        if arg < 0:
            continue
        total += (-1) ** i * math.comb(npow, i) * math.comb(arg + ambient_dim, ambient_dim)
    return total


def hypersurface_hodge(ambient_dim, degree) -> HodgeDiamond:
    """Hodge diamond of a smooth hypersurface of given degree in P^ambient_dim.

    Primitive middle Hodge numbers are graded pieces of the Jacobian
    ring; everything off the middle row comes from the ambient projective
    space.
    """
    if ambient_dim < 2:
        raise ValueError(f"need ambient dimension >= 2, got {ambient_dim}")
    if degree < 1:
        raise ValueError(f"need degree >= 1, got {degree}")
    dim = ambient_dim - 1
    middle = []
    for p in range(dim + 1):
        q = dim - p
        prim = jacobian_ring_dimension(
            ambient_dim, degree, (q + 1) * degree - ambient_dim - 1
        )
        if dim % 2 == 0 and p == q:
            prim += 1
        middle.append(prim)
    return HodgeDiamond.assemble(dim, lambda p: 1, middle)


# ---------------------------------------------------------------------------
# Numerical shadows of morphism sheaves between clean intersections


def lg_ext_profile(dim_x, dim_a, dim_b, dim_ab):
    """Degreewise ranks of the Ext sheaves between two clean intersections.

    With codimension a = dim_x - dim_a and excess rank
    r = dim_x - dim_a - dim_b + dim_ab, the profile is C(r, a - i) in
    degrees a - r .. a; the total rank is 2^r.
    """
    for name, v in (("dim_x", dim_x), ("dim_a", dim_a), ("dim_b", dim_b),
                    ("dim_ab", dim_ab)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative, got {v}")
    if dim_a > dim_x or dim_b > dim_x:
        raise ValueError("submanifold dimension exceeds ambient dimension")
    if dim_ab > min(dim_a, dim_b):
        raise ValueError("intersection larger than a factor")
    a = dim_x - dim_a
    r = dim_x - dim_a - dim_b + dim_ab
    if r < 0:
        raise ValueError(
            f"inconsistent dimensions: excess rank {r} is negative"
        )
    return [(i, math.comb(r, a - i)) for i in range(a - r, a + 1)]


def lg_hom_shift(dim_ab, dim_b):
    """Homological shift of the surviving morphism sheaf: dim A∩B - dim B."""
    return dim_ab - dim_b
