"""Exact Pfaffian-side geometry: skew families, point sampling, Hodge data.

A family is a k x C(n,2) matrix over Q or F_p, the field named by its
modulus as in :mod:`grpf.modp` (``None`` for Q): row r holds the
coefficients of the r-th skew 2-form M_r on V in lexicographic (i < j)
coordinates, the order :func:`pair_index` numbers.  The family is the
n x n skew matrix of linear forms sum_r u_r M_r in u1..uk, and its
rank-drop locus inside P(U) is the Pfaffian-side variety: the vanishing
of the Pfaffian itself for even n, of all principal submaximal
Pfaffians for odd n.  Both expand straight from the family's
coefficients into dicts {exponent tuple: nonzero coefficient}.  A member
at a point u is the numeric matrix :func:`_combine_forms` builds with
:func:`_combiner`: each row of the family is one packed int, so all the
coordinates (i, j) come from one multiply-add per row and one unpack.

Point sampling works over F_p.  The even, odd square and odd sliced paths
differ only in how they draw a line; a line's polynomial comes from one
elimination over truncated power series in the line parameter, and one
sweep solves it by exact root finding for any odd p below 3.3e24, which
avoids Groebner machinery entirely, and decides each candidate once on the
full family.  An odd line divides its first submaximal Pfaffian, of degree
(n-1)^2/2, by a factor v_0^((n+1)/2) known in advance and solves the
quotient, of degree n(n-3)/2; a candidate evaluates the member u(x) that
the line's elimination also gives.  Odd n with k < n falls back to trials.
Smoothness at a sample point u is the tangent-space test of a rank locus
(no symbolic Pfaffian): with K the kernel of M_u and c = 2 (even n) or
3 (odd n), u is smooth iff dim K = c and the pairings k_a^T M_r k_b on K
have rank C(c, 2).  An even line's polynomial g is the Pfaffian on the
line, so a simple root, g'(x) != 0, is already a smooth point of corank 2
(a nonzero gradient rules out corank >= 4, where every (n-2)-sub-Pfaffian
vanishes) and skips the test; multiple roots take it.  The odd paths
have no such rule: a simple root there shows one direction of the three
that the codimension-3 locus needs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from struct import Struct

from .diamond import hodge_diamond
from .errors import DegenerateFamilyError, ParityError
from .modp import _barrett, _pack, _pfaffian_series, _rref, _series_inverse, _unpack
from .modp import check_prime, coerce, inv_mod, nullspace_mod, rank_mod
from .modp import roots_mod as _roots_mod  # the name perfbench traces
from .weights import _integer


def pair_index(n, i, j):
    """Column index of the coordinate (i, j), i < j, in lex order (0-based)."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j})")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _json_int(name, x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def _json_entry(x, p):
    """A family entry: an integer, or over Q an "a/b" string."""
    if isinstance(x, str) and p is None:
        m = re.fullmatch(r"(-?[0-9]+)/([0-9]+)", x)
        if m and int(m[2]):
            return Fraction(int(m[1]), int(m[2]))
        raise ValueError(f"matrix entry must be an integer or 'a/b', got {x!r}")
    return _json_int("matrix entry", x)


class AMap:
    """A k-dimensional family of skew 2-forms on an n-dimensional space.

    The defining matrix must have full rank k (the family is embedded,
    equivalently the dual map is surjective); anything less raises
    :class:`DegenerateFamilyError`.
    """

    __slots__ = ("n", "k", "p", "matrix")

    def __init__(self, n, k, p, matrix):
        self.p = p if p is None else check_prime(p)
        self.n = _integer(n, "n")
        self.k = _integer(k, "k")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        ncols = math.comb(self.n, 2)
        if not 1 <= self.k <= ncols:
            raise ValueError(f"need 1 <= k <= C(n,2)={ncols}, got k={k}")
        rows = []
        for row in matrix:
            row = tuple(coerce(x, p) for x in row)
            if len(row) != ncols:
                raise ValueError(f"row length {len(row)} != C(n,2) = {ncols}")
            rows.append(row)
        if len(rows) != self.k:
            raise ValueError(f"{len(rows)} rows != k = {self.k}")
        self.matrix = tuple(rows)
        # Rank only drops modulo a prime, so over Q full rank of the rows
        # cleared of denominators modulo 2^30 - 35, a prime whose residues
        # are one-digit ints, proves it without Fractions.
        if p is None:
            dens = [math.lcm(*(x.denominator for x in row)) for row in rows]
            ints = [[x.numerator * (d // x.denominator) for x in row]
                    for row, d in zip(rows, dens)]
            if rank_mod(ints, 2**30 - 35) == self.k:
                return
        if _rref(self.matrix, p)[0] < self.k:
            raise DegenerateFamilyError(
                f"family matrix has rank < k = {self.k}"
            )

    def reduce_mod(self, p):
        if self.p is not None:
            if self.p != p:
                raise ValueError(f"family is over F_{self.p}, cannot reduce mod {p}")
            return self
        check_prime(p)
        try:
            rows = [[coerce(x, p) for x in row] for row in self.matrix]
        except ZeroDivisionError as exc:
            raise ValueError(f"cannot reduce family mod {p}: {exc}") from None
        return AMap(self.n, self.k, p, rows)

    @classmethod
    def random(cls, n, k, seed, p=None):
        """A random family with full rank, reproducible from the seed; p None or 0 is Q."""
        rng = random.Random(f"amap:{n}:{k}:{seed}:{p}")
        ncols = math.comb(n, 2)
        for _ in range(64):
            if p:
                rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
            else:
                rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(k)]
            try:
                return cls(n, k, p or None, rows)
            except DegenerateFamilyError:
                continue
        raise DegenerateFamilyError("could not draw a full-rank family")

    def to_json_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "field": "Q" if self.p is None else {"p": self.p},
            "matrix": [
                [int(x) if x.denominator == 1 else str(x) for x in row]
                for row in self.matrix
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of :meth:`to_json_dict`; a malformed document raises ValueError.

        n, k, p and the entries must be JSON integers (not bools or floats);
        over Q an entry may also be an "a/b" string.
        """
        if not isinstance(data, dict):
            raise ValueError(f"family must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("n", "k", "field", "matrix") if key not in data]
        if missing:
            raise ValueError(f"family has no {', '.join(missing)}")
        field = data["field"]
        if field == "Q":
            p = None
        elif isinstance(field, dict) and "p" in field:
            p = check_prime(_json_int("p", field["p"]))
        else:
            raise ValueError(f"bad field descriptor {field!r}")
        matrix = data["matrix"]
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ValueError("matrix must be a list of rows")
        rows = [[_json_entry(x, p) for x in row] for row in matrix]
        return cls(_json_int("n", data["n"]), _json_int("k", data["k"]), p, rows)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return f"AMap(n={self.n}, k={self.k}, p={self.p})"


def _principal_pfaffians(am, index_sets):
    """The Pfaffians of the principal submatrices on ``index_sets``, all of
    one size 2d, of the skew matrix of linear forms sum_r u_r M_r of the
    family ``am``, each the dict {exponent tuple: nonzero coefficient}.

    Expansion along the first row, memoized by index tuple in one memo that
    all the index sets share for the length of the call, so the n
    submaximal Pfaffians of an odd matrix reuse each other's minors.  A
    monomial u^e is packed as the int sum_r e_r b^r with b = n // 2 + 1:
    the entries are linear forms, so no exponent of a Pfaffian reaches b.
    Coefficients are plain ints, reduced at every memo node over F_p; over
    Q the expansion runs on the integer matrix D m, D the common
    denominator of the family's entries, and a Pfaffian of size 2d is
    divided by D^d at the end.

    A memo node is stored one of two ways, fixed once per call.  The dense
    store packs the coefficients of the node of an index set of size 2j
    over the C(j+k-1, k-1) monomials of degree j into one int, in slots
    of whole 64-bit limbs sized by a bound (:func:`_dense_expansions`); it
    is taken when that count at j = d is at most (2d-1)!! s^d, s the most
    nonzero coefficients in any column of the family, which bounds the
    terms any expansion can produce.  Otherwise, as for one variable per
    entry (k = C(n, 2)), the slots would be mostly zeros, and each node is
    the dict {packed monomial: nonzero coefficient}.
    """
    p, k, n = am.p, am.k, am.n
    base = n // 2 + 1
    den = 1
    if p is None:
        den = math.lcm(*(c.denominator for row in am.matrix for c in row))
    # the term c u_r of entry (i, j), c = am.matrix[r][pair_index(n, i, j)], is (r, c)
    forms = {}
    for i, j in itertools.combinations(range(n), 2):
        column = [row[pair_index(n, i, j)] for row in am.matrix]
        forms[i, j] = [(r, int(c * den)) for r, c in enumerate(column) if c]
    index_sets = [tuple(idx) for idx in index_sets]
    d = len(index_sets[0]) // 2
    s = max(map(len, forms.values()))
    if math.comb(d + k - 1, k - 1) <= math.prod(range(1, 2 * d, 2)) * s**d:
        expansions = _dense_expansions(forms, index_sets, k, base, p)
    else:
        expansions = _dict_expansions(forms, index_sets, k, base, p)
    if p is not None:  # den = 1
        return [dict(terms) for terms in expansions]
    scale = Fraction(1, den**d)
    return [{e: c * scale for e, c in terms} for terms in expansions]


def _decode(mono, k, base):
    """The exponent tuple of the packed monomial sum_r e_r base^r in k variables."""
    exps = []
    for _ in range(k):
        mono, e = divmod(mono, base)
        exps.append(e)
    return tuple(exps)


def _dense_expansions(forms, index_sets, k, base, p):
    """The (exponent tuple, nonzero coefficient) pairs of each Pfaffian, on
    memo nodes that pack their coefficients into one int.

    Slot i of a node of degree j, w bits from bit i w, w a whole number of
    64-bit limbs, holds the coefficient of the i-th monomial of degree j
    in ascending sum_r e_r base^r.  A node adds its children into one
    packed sum per variable u_r, one multiply-add per (child, term), and
    moves each sum onto the degree-j slots in C: ``to_bytes``, a ``struct``
    unpack into the runs of m whose multiples u_r m are adjacent too, a
    ``struct`` pack with zero bytes between the runs, ``from_bytes``.

    Over F_p one slot-parallel Barrett step (:func:`grpf.modp._barrett`)
    reduces a node lazily into [0, 3p); it adds at most k (2d - 1)
    products of a child and a coefficient below p, so slots stay below
    3 p^2 k (2d - 1).  Over Q slots hold signed ints, offset by 2^(w-1)
    for ``to_bytes``: a Pfaffian of size 2j sums (2j-1)!! products of j
    entries whose coefficients add up to at most S in absolute value, S
    the most over the columns, so no partial sum reaches (2j-1)!! S^j.  A
    node of degree j is sized for that bound at j + 1, where its
    multiples are summed, and a move pads its slots with zero bytes.
    """
    d = len(index_sets[0]) // 2
    minus = {pair: [(r, p - c if p else -c) for r, c in form] for pair, form in forms.items()}
    if p is None:
        top = max(sum(abs(c) for _, c in form) for form in forms.values())
        bounds = [math.prod(range(1, 2 * j, 2)) * top**j for j in range(1, d + 1)]
        limbs = [bound.bit_length() // 64 + 1 for bound in bounds + bounds[-1:]]
    else:
        # _barrett's slots are 2 s bits wide, s = t - bits(p) + 1 for a bound
        # of t bits; s rounded up to a multiple of 32 makes them whole limbs
        bits = p.bit_length()
        s = -(-((3 * p * p * k * (2 * d - 1)).bit_length() - bits + 1) // 32) * 32
        _, reduce = _barrett((1 << bits - 1 + s) - 1, p, math.comb(d + k - 1, k - 1))
        limbs = [s // 32] * (d + 1)

    def zeros(j, slots):  # over Q, 2^(w-1) in each slot of degree j
        return 0 if p else int.from_bytes((bytes(8 * limbs[j] - 1) + b"\x80") * slots, "little")

    shifts = [base**r for r in range(k)]
    monos, steps = [0], [None]
    for j in range(1, d + 1):
        prev = monos
        monos = sorted(set(itertools.chain.from_iterable(map(b.__add__, prev) for b in shifts)))
        index = dict(zip(monos, itertools.count()))
        narrow, wide = 8 * limbs[j - 1], 8 * limbs[j]
        size, lift, moves, drop = narrow * len(prev), zeros(j - 1, len(prev)), [], 0
        for b in shifts:
            # u_r m sits at slot i + key for the m at slot i: key never falls,
            # and grows by the slots of degree j that u_r does not divide
            at = map(index.__getitem__, map(b.__add__, prev))
            runs = Counter(map(sub, at, itertools.count()))
            gaps = map(sub, runs, [0, *runs])
            if narrow == wide:
                source = "".join(f"{narrow * c}s" for c in runs.values())
                target = "".join(f"{wide * g}x{narrow * c}s" for g, c in zip(gaps, runs.values()))
            else:
                source = f"{narrow}s" * len(prev)
                target = "".join(f"{wide * g}x" + f"{narrow}s{wide - narrow}x" * c
                                 for g, c in zip(gaps, runs.values()))
            unpack = Struct(source).unpack
            pack = Struct(target + f"{wide * (len(monos) - len(prev) - max(runs))}x").pack
            moves.append((unpack, pack))
            drop += int.from_bytes(pack(*unpack(lift.to_bytes(size, "little"))), "little")
        steps.append((moves, size, lift, drop))
    memo = {(): 1}

    def pf(idx):
        node = memo.get(idx)
        if node is not None:
            return node
        moves, size, lift, drop = steps[len(idx) // 2]
        sums = [lift] * k
        for t in range(1, len(idx)):
            pair = idx[0], idx[t]
            if forms[pair]:
                child = pf(idx[1:t] + idx[t + 1 :])
                for r, c in forms[pair] if t % 2 else minus[pair]:
                    sums[r] += c * child
        node = -drop
        for (unpack, pack), acc in zip(moves, sums):
            if acc:
                node += int.from_bytes(pack(*unpack(acc.to_bytes(size, "little"))), "little")
        if p is not None:
            node = reduce(node)
        memo[idx] = node
        return node

    exponents = list(zip(*([m // b % base for m in monos] for b in shifts)))
    wide, half, lift = 8 * limbs[d], zeros(d, 1), zeros(d, len(monos))
    unpack = Struct(f"<{len(monos)}Q" if wide == 8 else f"{wide}s" * len(monos)).unpack
    for idx in index_sets:
        coeffs = unpack((pf(idx) + lift).to_bytes(wide * len(monos), "little"))
        if wide > 8:
            coeffs = map(int.from_bytes, coeffs, itertools.repeat("little"))
        coeffs = [c - half for c in coeffs] if p is None else [c % p for c in coeffs]
        yield [(e, c) for e, c in zip(exponents, coeffs) if c]


def _dict_expansions(forms, index_sets, k, base, p):
    """The (exponent tuple, nonzero coefficient) pairs of each Pfaffian, on
    memo nodes that are dicts {packed monomial: nonzero coefficient}.

    A term c u_r of an entry becomes the pair (b^r, c), so multiplying a
    monomial by it is one int add.
    """
    forms = {pair: [(base**r, c) for r, c in form] for pair, form in forms.items()}
    memo = {(): {0: 1}}

    def pf(idx):
        node = memo.get(idx)
        if node is not None:
            return node
        acc = {}
        get = acc.get
        for t in range(1, len(idx)):
            form = forms[idx[0], idx[t]]
            if not form:
                continue
            rest = pf(idx[1:t] + idx[t + 1 :])
            for shift, c in form:
                if t % 2 == 0:
                    c = -c
                for mono, d in rest.items():
                    mono += shift
                    acc[mono] = get(mono, 0) + c * d
        if p is None:
            node = {mono: c for mono, c in acc.items() if c}
        else:
            node = {mono: c % p for mono, c in acc.items() if c % p}
        memo[idx] = node
        return node

    exponents = {}  # each distinct monomial is decoded once
    for idx in index_sets:
        node = pf(idx)
        for mono in node.keys() - exponents.keys():
            exponents[mono] = _decode(mono, k, base)
        yield [(exponents[mono], c) for mono, c in node.items()]


def pfaffian_polynomial(am: AMap):
    """The Pfaffian of the family's skew matrix of linear forms in u1..uk.

    Squares to the determinant identically.  Even n only; odd n has all
    submaximal Pfaffians instead.  Like :func:`submaximal_pfaffians`, it
    expands along the first row over one memo of principal index sets,
    each node a sparse dict or, by the rule of :func:`_principal_pfaffians`,
    one int packing its coefficients in slots of 64-bit limbs that no sum
    outgrows: below (n-1)!! S^(n/2) in absolute value over Q, S the
    largest sum of |c_r| in a column, and below 3 p^2 k (n - 1) over F_p
    (:func:`_dense_expansions`).  ``pfaffian build`` at (14, 7) over Q
    takes about 0.13 s (Python 3.11, a shared 2-core host).  A numeric
    skew matrix A is the one-variable family with A's upper triangle as
    its row, whose Pfaffian is Pf(A) u1^(n/2); modulo p,
    :func:`grpf.modp.pfaffian_mod` takes A directly.
    """
    if am.n % 2:
        raise ParityError(f"n = {am.n} is odd; use submaximal_pfaffians instead")
    return _principal_pfaffians(am, [range(am.n)])[0]


def submaximal_pfaffians(am: AMap):
    """The n principal Pfaffians deleting row and column i, for odd n.

    Their common zero locus is the rank <= n-3 locus of the family.  The
    n first-row expansions share one memo of principal index sets, so
    they reuse each other's minors ((9, 9) needs 88 memo nodes in all),
    stored as in :func:`pfaffian_polynomial` with n - 1 for n: packed
    slots stay below (n-2)!! S^((n-1)/2) over Q and 3 p^2 k (n - 2) over
    F_p.  ``pfaffian build`` at (11, 11) over F_10007 takes about 0.14 s
    on the same host.
    """
    if am.n % 2 == 0:
        raise ParityError(f"n = {am.n} is even; use pfaffian_polynomial instead")
    return _principal_pfaffians(
        am, [[j for j in range(am.n) if j != i] for i in range(am.n)]
    )


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
    inv = inv_mod(lead, p)
    return tuple(x * inv % p for x in u)


def _combiner(rows, p):
    """The map u -> [sum_r u_r rows[r][c] mod p for each column c] for k rows
    of ints in [0, p): each row is packed once into one int, entry c in a
    slot of the fewest whole 64-bit limbs that hold k (p - 1)^2, so a
    combination is u reduced into [0, p), one multiply-add per row, one
    ``to_bytes``, one ``struct`` unpack and one ``% p`` per entry."""
    width, cols = 8 * -(-(len(rows) * (p - 1) ** 2).bit_length() // 64), len(rows[0])
    packed = [_pack(row, 8 * width) for row in rows]
    unpack = Struct(f"<{cols}Q" if width == 8 else f"{width}s" * cols).unpack

    def combine(u):
        slots = unpack(sum(map(mul, [x % p for x in u], packed)).to_bytes(width * cols, "little"))
        if width > 8:
            slots = map(int.from_bytes, slots, itertools.repeat("little"))
        return [c % p for c in slots]

    return combine


def _combine_forms(am, u, p):
    """The numeric skew matrix sum_r u_r M_r of the family ``am`` over F_p.

    ``am`` is reduced mod p; its entries (i, j), i < j, in lex order are
    :func:`_combiner` on the family's rows.
    """
    n = am.n
    out = [[0] * n for _ in range(n)]
    for (i, j), c in zip(itertools.combinations(range(n), 2), _combiner(am.matrix, p)(u)):
        out[i][j] = c
        out[j][i] = -c % p
    return out


def _point_at(am, u, p):
    """The sample point at u, or None when M_u lies off the degeneracy locus.

    This is the Jacobian criterion: at corank 2 the gradient of Pf is a
    nonzero multiple of (k1^T M_r k2)_r, at corank 3 the Jacobian of the
    submaximal Pfaffians is contraction with k1 ^ k2 ^ k3, and at any
    larger corank both vanish.  The pairing k_a^T M_r k_b is row r of the
    family (``am`` reduced mod p) dotted with the Pluecker coordinates
    a_i b_j - a_j b_i, i < j, of the kernel vectors k_a and k_b.

    An even line skips this test at a simple root.  Its polynomial is
    g(x) = Pf(M(p0 + x p1)) exactly, so g'(x) = sum_r p1_r dPf/du_r there.
    Each dPf/du_r is a signed sum of m_r,ij Pf_ij over the (n-2)-sub-
    Pfaffians Pf_ij, which all vanish at corank >= 4; so g(x) = 0 and
    g'(x) != 0 force corank exactly 2 and a nonzero gradient, a nonzero
    multiple of the pairings, whose rank is then 1 = C(2, 2): the point is
    smooth, as this test would find (normalizing u scales the gradient by a
    unit).  A multiple root, smooth tangency or singular point, comes here.
    """
    n = am.n
    corank = 2 if n % 2 == 0 else 3
    kernel = nullspace_mod(_combine_forms(am, u, p), p)
    if len(kernel) < corank:
        return None
    pairs = list(itertools.combinations(kernel, 2))
    coordinates = list(itertools.combinations(range(n), 2))
    plucker = [[a[i] * b[j] - a[j] * b[i] for i, j in coordinates] for a, b in pairs]
    # the pairing matrix transposed, C(corank, 2) x k: its rank takes at most 3 pivots
    pairings = [[sum(map(mul, row, w)) % p for row in am.matrix] for w in plucker]
    smooth = len(kernel) == corank and rank_mod(pairings, p) == len(pairs)
    return SamplePoint(tuple(u), n - len(kernel), len(kernel), smooth)


def _taylor_shift(g, c, p):
    """The ascending coefficients of g(x - c) over F_p, by Horner in O(len(g)^2)."""
    if not c:
        return g
    f = []
    for a in reversed(g):
        f = [(lo - c * hi) % p for lo, hi in zip([0] + f, f + [0])]  # f (x - c)
        f[0] = (f[0] + a) % p
    return f


def _sweep_lines(am, p, count, stream, max_lines, dim, deg, draw_line):
    """Sweep random lines for points of the locus; returns (found, lines).

    Line i draws from ``f"{stream}:{i}"``.  ``draw_line(rng)`` returns
    u(x), the family member at the line parameter x, and a function giving
    the ascending coefficients of a polynomial of degree at most deg whose
    roots hold the locus points of the line, or None when it vanishes
    identically (the line is resampled).  That function works over
    F_p[x]/(x^L) about a centre x = c with c <= deg, so it needs p > deg;
    for p <= deg every x in F_p is a candidate instead.  Each distinct
    candidate is decided once on the family ``am``; a line yields at most
    deg, which bounds the misses kept.  For even n the polynomial is the
    Pfaffian g on the line, and a root with g'(x) != 0 is a smooth point of
    corank 2 without :func:`_point_at` (the proof is there); a multiple
    root, every x at p <= deg, and every odd-n candidate go to it.  It
    stops at ``count`` points, at ``max_lines`` lines, or once every point
    of P^(dim-1)(F_p) has been drawn.
    """
    found, missed = {}, set()
    space = (p**dim - 1) // (p - 1)
    line = 0
    while len(found) < count and line < max_lines and len(found) + len(missed) < space:
        u_at, line_polynomial = draw_line(random.Random(f"{stream}:{line}"))
        line += 1
        slope = []  # g' from the top coefficient down, on an even line
        if p > deg:
            poly = line_polynomial()
            if poly is None:
                continue
            candidates = _roots_mod(poly, p)
            if am.n % 2 == 0:
                slope = [e * a % p for e, a in enumerate(poly)][:0:-1]
        else:
            candidates = range(p)
        for x in candidates:
            u = _normalize_projective(u_at(x), p)
            if u is None or u in found or u in missed:
                continue
            dg = 0
            for a in slope:  # Horner
                dg = (dg * x + a) % p
            point = SamplePoint(u, am.n - 2, 2, True) if dg else _point_at(am, u, p)
            if point is None:
                missed.add(u)
            else:
                found[u] = point
                if len(found) >= count:
                    break
    return found, line


# A line's polynomial g is computed over F_p[x]/(x^L) as g(c + y), about the
# first centre c where the elimination has unit pivots at y = 0, and shifted
# back.  A centre fails exactly where g(c) = 0: unit pivots multiply to a
# unit, and an elimination stops where its Schur complement has a zero row
# at x = c.  Even lines: then Pf(M(c)) = 0.  Odd lines: the cofactors stop
# where rank R(c) < n - 1, so u(c) = 0 and Pf_0(c) = 0, the Pfaffian where
# Pf_0(c) = 0, and either way h(c) = 0 as v_0(c) != 0.  So with more centres
# than deg g, all fail exactly when g = 0, and only then is the line None.


def _sample_even(am, p, count, seed, max_lines):
    """Sampling for even n: the Pfaffian, of degree d = n/2, on random lines.

    M(p0 + x p1) = M(p0) + x M(p1), so a line combines the family twice
    (:func:`_combiner`, on rows packed once per sweep) and takes
    Pf(M(p0) + x M(p1)) by one skew elimination over F_p[x]/(x^(d+1)),
    about the first centre c in 0..d where it is a unit.  The elimination
    is division free (:func:`grpf.modp._pfaffian_series`): each pivot
    multiplies the rows below instead of dividing them, the Pfaffian is
    the last pivot over one product of pivot powers, inverted once, and
    its sums reach 27 p^2 (d + 1), the bound of the slot width here.  Only
    the upper triangle, which the elimination reads, is built.
    """
    n, k = am.n, am.k
    deg = n // 2
    if k == 1:
        # P(U) is a single point; no lines to sweep.
        point = _point_at(am, (1,), p)
        return ({(1,): point} if point else {}), 1
    w, reduce = _barrett(27 * p * p * (deg + 1), p, deg + 1)
    combine = _combiner(am.matrix, p)
    # row i of the upper triangle: the entries (i, i + 1..n - 1) in lex order
    cuts = list(itertools.accumulate(range(n - 1, -1, -1), initial=0))

    def draw_line(rng):
        p0 = [rng.randrange(p) for _ in range(k)]
        p1 = [rng.randrange(p) for _ in range(k)]

        def line_polynomial():
            e0, e1 = combine(p0), combine(p1)
            for c in range(deg + 1):
                entries = [(a + c * b) % p | b << w for a, b in zip(e0, e1)]
                rows = [[0] * (i + 1) + entries[cuts[i]:cuts[i + 1]] for i in range(n)]
                pf = _pfaffian_series(rows, p, deg + 1, w, reduce)
                if pf is not None:
                    return _taylor_shift(_unpack(pf, w, deg + 1, p), c, p)
            return None  # inside the hypersurface, or junk

        return (lambda x: [(a + x * b) % p for a, b in zip(p0, p1)]), line_polynomial

    return _sweep_lines(am, p, count, f"{seed}:even", max_lines, k, deg, draw_line)


def _series_cofactors(rows, p, length, w, reduce):
    """The first-row cofactors ((-1)^i det(R minus column i))_i of an n x n
    matrix over F_p[x]/(x^length), R the n - 1 packed ``rows`` below row 0;
    None when R has rank < n - 1 at x = 0.

    They span the kernel of R, so at rank n - 1 they are its kernel vector
    with (-1)^f det(R minus column f), the signed product of the pivots of
    forward elimination on R, at the free column f, and one back-substitution
    with the same pivot inverses gives the other entries.  Series are packed
    as for :func:`grpf.modp._pfaffian_series`, pivots are units, and the
    largest sum reduced, the back-substitution's, is at most 9 p^2 (n - 1)
    length.
    """
    n = len(rows) + 1
    mask, slot = (1 << w * length) - 1, (1 << w) - 1
    three_p = _pack([3 * p] * length, w)
    m = [list(row) for row in rows]
    pivots, inverses = [], []
    det, negate = 1, False
    for col in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, n - 1) if (m[r][col] & slot) % p), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            negate = not negate
        row = m[rank]
        det = reduce(det * row[col] & mask)
        inv = _series_inverse(row[col], p, length, w, reduce)
        for r in range(rank + 1, n - 1):
            f = reduce(m[r][col] * inv & mask)
            if f:
                f = three_p - f
                m[r] = [reduce((a + f * c) & mask) for a, c in zip(m[r], row)]
        pivots.append(col)
        inverses.append(inv)
        if rank + 1 == n - 1:
            break
    if len(pivots) < n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [0] * n
    vec[free] = three_p - det if negate != free % 2 else det
    for row, c, inv in zip(reversed(m), reversed(pivots), reversed(inverses)):
        vec[c] = reduce((three_p - reduce(sum(map(mul, row, vec)) & mask)) * inv & mask)
    return vec


def _kernel_incidence(square, p):
    """The map v -> B_v = [M_1 v | ... | M_n v] over F_p for a square family
    (n forms, reduced mod p), as sum_j v_j T_j by :func:`_combiner` on the
    T_j flattened: (M_r v)_i = sum_{j>i} m_r,ij v_j - sum_{j<i} m_r,ji v_j,
    so entry (i, r) of T_j is m_r,ij for i < j and -m_r,ji for i > j."""
    n = square.n
    t = [[0] * (n * n) for _ in range(n)]
    for r, row in enumerate(square.matrix):
        for (i, j), c in zip(itertools.combinations(range(n), 2), row):
            t[j][i * n + r], t[i][j * n + r] = c, -c % p
    combine = _combiner(t, p)

    def b_of(v):
        flat = combine(v)
        return [flat[i : i + n] for i in range(0, n * n, n)]

    return b_of


def _kernel_line_drawer(square, p, emb=None):
    """``draw_line`` for odd n on a square family (n forms, reduced mod p).

    This is the kernel-incidence line trick.  For v in V the matrix
    B_v = [M_1 v | ... | M_n v] is square and singular (its columns pair
    to zero against v), and its kernel vector u(v) is generically the
    unique family member with v in its kernel.  The locus where u(v)
    lands on the degeneracy variety is a hypersurface in P(V), so random
    lines in P(V) meet it.  B_v is linear in v, so each line builds its
    two endpoint matrices once.  The entries of u(v) are (n-1)-minors of
    B_v, polynomials of degree <= n-1 in the line parameter x, so the line
    takes u(x) whole by one elimination over F_p[x]/(x^n)
    (:func:`_series_cofactors`) about a centre c, and a candidate x
    evaluates that series at y = x - c.  A slice's member u(v) is lifted
    to the full family as emb u(v), which has the same skew matrix.

    Along the line v(x) = v0 + x v1, the first submaximal Pfaffian Pf_0 of
    M(u(v)) has degree (n-1)^2/2, and a known factor.  u(v) vanishes where
    v_0 = 0, since v^T B_v = 0 then makes rows 1..n-1 of B_v, whose minors
    u(v) are, dependent.  And the signed submaximal Pfaffians of M(u) are
    lambda(x) v(x), since v spans the kernel of M(u) wherever its rank is
    n-1.  So Pf_0 = v_0^((n+1)/2) h with deg h <= n(n-3)/2, and the line's
    polynomial is h = Pf_0 v_0^(-(n+1)/2) mod x^need, need = n(n-3)/2 + 1,
    about a centre with v_0 != 0, the second factor a binomial series; the
    root it drops is the x where u(v) = 0.  Only the (n-1) x (n-1) upper
    triangle of M(u) that Pf_0 reads is built.  If h vanishes identically,
    so does lambda or u, and with them every Pf_s; so does a line with
    v0_0 = v1_0 = 0, on which u(v) = 0.
    """
    n = square.n
    half, need = (n + 1) // 2, n * (n - 3) // 2 + 1
    coordinates = list(itertools.combinations(range(n), 2))
    inner = [(i - 1, j - 1, column)
             for (i, j), column in zip(coordinates, zip(*square.matrix)) if i]
    # the largest sum reduced: the cofactors' back-substitution, or Pf_0's
    # division-free update; both are 0 at n = 1, and _barrett needs p^2 at least
    w, reduce = _barrett(9 * p * p * max(n * (n - 1), 3 * need, 1), p, max(n, need))
    mask = (1 << w * need) - 1

    b_of = _kernel_incidence(square, p)

    def draw_line(rng):
        v0 = [rng.randrange(p) for _ in range(n)]
        v1 = [rng.randrange(p) for _ in range(n)]
        b0, b1 = b_of(v0), b_of(v1)
        centre, terms = 0, None  # u(centre + y) = sum_e terms[e] y^e, from the first series

        def cofactors(c):
            nonlocal centre, terms
            rows = [[(x + c * y) % p | y << w for x, y in zip(r0, r1)]
                    for r0, r1 in zip(b0[1:], b1[1:])]
            u = _series_cofactors(rows, p, n, w, reduce)
            if u is not None and terms is None:
                centre, terms = c, list(zip(*(_unpack(e, w, n, p) for e in u)))
            return u

        def u_at(x):
            nonlocal terms
            # p <= deg takes no line polynomial; if every centre fails, u(c) = 0
            # at n centres or on all of F_p, so u = 0 on F_p
            if terms is None and all(cofactors(c) is None for c in range(min(p, n))):
                terms = []
            y, u = (x - centre) % p, [0] * n
            for t in reversed(terms):  # Horner
                u = [(a * y + b) % p for a, b in zip(u, t)]
            return u if emb is None else [sum(map(mul, row, u)) % p for row in emb]

        def line_polynomial():
            if not (v0[0] or v1[0]):
                return None
            for c in range(need + 1):
                a = (v0[0] + c * v1[0]) % p
                if not a:
                    continue
                u = cofactors(c)
                if u is None:
                    continue
                mat = [[0] * (n - 1) for _ in range(n - 1)]
                for i, j, column in inner:
                    mat[i][j] = reduce(sum(map(mul, column, u)))
                pf = _pfaffian_series(mat, p, need, w, reduce)
                if pf is None:
                    continue
                # (a + v1_0 y)^(-half) = a^(-half) sum_e C(half + e - 1, e) (-v1_0 / a)^e y^e
                ratio, scale = -v1[0] * pow(a, -1, p) % p, pow(a, -half, p)
                binomial = [math.comb(half + e - 1, e) * pow(ratio, e, p) * scale % p
                            for e in range(need)]
                h = reduce(pf * _pack(binomial, w) & mask)
                return _taylor_shift(_unpack(h, w, need, p), c, p)
            return None

        return u_at, line_polynomial

    return draw_line


def _sample_odd(am, p, count, seed, max_lines):
    """Sampling for odd n: kernel-incidence lines for k >= n, trials for k < n."""
    n, k = am.n, am.k
    deg = (n - 1) * (n - 1) // 2  # deg u(v) = n-1 per entry, times (n-1)/2
    if k == n:
        return _sweep_lines(am, p, count, f"{seed}:odd", max_lines, n, deg,
                            _kernel_line_drawer(am, p))
    if k > n:
        # Pick a slice: an n-dimensional subfamily of full rank, swept with
        # its members lifted to the full family, where each point is decided.
        for a in itertools.count(1):
            rng = random.Random(f"{seed}:slice:{a - 1}")
            emb = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            sliced_rows = [
                [sum(emb[s][r] * am.matrix[s][c] for s in range(k)) % p
                 for c in range(math.comb(n, 2))]
                for r in range(n)
            ]
            try:
                sliced = AMap(n, n, p, sliced_rows)
            except DegenerateFamilyError:
                continue
            return _sweep_lines(am, p, count, f"{seed}:{a}:odd", max_lines, n, deg,
                                _kernel_line_drawer(sliced, p, emb))
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
        point = _point_at(am, u, p)
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
    random draw comes from a stream named by the seed: line i of the
    even path from ``"{seed}:even:{i}"``, of the odd square path from
    ``"{seed}:odd:{i}"``; the odd sliced path draws slice a from
    ``"{seed}:slice:{a}"`` until one has full rank, then line i from
    ``"{seed}:{a + 1}:odd:{i}"``; the trial path (odd n, k < n) draws
    every point from ``"{seed}:trials"``.  So results are reproducible
    and independent of how lines would be scheduled.  Any odd prime below
    3.3e24 works; memory does not grow with p.
    """
    p, count = check_prime(p), _integer(count, "count")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    am = a.reduce_mod(p)
    if max_lines is None:
        max_lines = 50 * count + 500
        if am.n % 2 == 1:
            max_lines = min(max_lines, 3000)
    else:
        max_lines = _integer(max_lines, "max_lines")
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


def hypersurface_hodge(ambient_dim, degree):
    """Hodge diamond {(p, q): h^{p,q}} of a smooth degree hypersurface in P^ambient_dim.

    Primitive middle Hodge numbers are graded pieces of the Jacobian
    ring; everything off the middle row comes from the ambient projective
    space: 1 on the diagonal, 0 elsewhere.
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
    return hodge_diamond((1,) * (dim + 1), middle)
