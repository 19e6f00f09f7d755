"""Exact arithmetic in a field named by its modulus: ``None`` for Q, with
``fractions.Fraction`` elements, or an odd prime p for F_p, with ints in
[0, p).  The prime is checked once, where it enters (:func:`check_prime`).
:func:`coerce` and :func:`_rref` take either field; the matrices, Pfaffians
and polynomial roots below work over F_p on int lists."""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .weights import _integer


def is_prime(p):
    """Miller-Rabin to the prime bases up to 41, exact below their least
    strong pseudoprime 3317044064679887385961981; larger p raise ValueError."""
    if p >= 3317044064679887385961981:
        raise ValueError(f"primality is decided only below 3317044064679887385961981, got {p}")
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """The modulus p of F_p, once it is known to be an odd prime; else ValueError."""
    p = _integer(p, "prime")
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def coerce(x, p):
    """The int or Fraction x as an element of Q (p None) or of F_p.

    Anything else, a bool, a float or a string included, is refused with a
    ValueError rather than truncated or parsed.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"need an int or a Fraction, got {type(x).__name__} {x!r}")
    if p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator % p
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
        return x.numerator * inv_mod(x.denominator, p) % p
    return x % p


def _rref(rows, p):
    """RREF over F_p, or over Q when p is None; (rank, matrix, pivot columns, det).

    Entries are ints in [0, p) over F_p, Fractions over Q.  ``det``, the
    product of the pivots before scaling with its sign flipped on each row
    swap, is the determinant of the pivot columns when the rank equals the
    number of rows.
    """
    m = list(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    pivots = []
    det = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        pivot = m[rank][col]
        det = det * pivot % p if p else det * pivot
        inv = inv_mod(pivot, p) if p else 1 / pivot
        m[rank] = [x * inv % p for x in m[rank]] if p else [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col]
                pairs = zip(m[r], m[rank])
                m[r] = [(a - f * b) % p for a, b in pairs] if p else [a - f * b for a, b in pairs]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, m, pivots, det


def rank_mod(rows, p):
    return _rref([[x % p for x in row] for row in rows], p)[0]


def nullspace_mod(rows, p):
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    _, m, pivots, _ = _rref([[x % p for x in row] for row in rows], p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r][fc]) % p
        basis.append(v)
    return basis


def det_mod(rows, p):
    rank, _, _, det = _rref([[x % p for x in row] for row in rows], p)
    return det if rank == len(rows) else 0


def _pack(coeffs, w):
    """The coefficients as one int, coefficient i in bits [i w, (i + 1) w)."""
    x = 0
    for c in reversed(coeffs):
        x = x << w | c
    return x


def _unpack(x, w, length, p):
    slot = (1 << w) - 1
    return [(x >> w * i & slot) % p for i in range(length)]


def _barrett(bound, p, slots):
    """Slot width w and the slot-parallel Barrett reduction mod p of ``slots``
    packed slots, each an int in [0, bound], bound >= p^2.

    A slot z < 2^t, t the bit length of ``bound``, becomes
    z - floor(floor(z / 2^(k-1)) m / 2^s) p, in [0, 3p), with k the bit
    length of p, s = t - k + 1 and m = floor(2^t / p).  Both factors of that
    product are below 2^s, so w = 2s >= t bits hold it; no slot borrows.
    """
    k, t = p.bit_length(), bound.bit_length()
    s = t - k + 1
    w, m = 2 * s, (1 << t) // p
    low_bits = ((1 << s) - 1) * ((1 << w * slots) - 1) // ((1 << w) - 1)  # s ones per slot

    def reduce(z):
        return z - (((z >> k - 1 & low_bits) * m >> s) & low_bits) * p

    return w, reduce


def _series_inverse(a, p, length, w, reduce):
    """1/a in F_p[x]/(x^length) for a packed unit a, by Newton's
    b <- b (2 - a b), which doubles the correct coefficients per step."""
    mask, b = (1 << w * length) - 1, pow(a & ((1 << w) - 1), -1, p)
    two = _pack([3 * p] * length, w) + 2  # 2 - ab = (3p in every slot, + 2) - ab
    correct = 1
    while correct < length:
        b = reduce(b * (two - reduce(a * b & mask)) & mask)
        correct *= 2
    return b


def _pfaffian_series(rows, p, length, w, reduce):
    """Pfaffian of a skew matrix over F_p[x]/(x^length) by division-free skew
    elimination; None when a pivot row has no unit entry (constant term
    nonzero mod p).

    Entries are packed series with slots in [0, 3p]; only the upper triangle
    is read.  The pivot b_j = m[i][i+1], i = 2j, updates the rows below
    without dividing, m[r][c] <- b_j m[r][c] - m[i][r] m[i+1][c] +
    m[i+1][r] m[i][c]: the Schur complement times b_j, so the rows below
    carry the factor b_0 ... b_j.  Of d = n/2 pivots, b_j then holds the
    true pivot times b_0 ... b_(j-1), and Pf = prod_j b_j^(1 - (d - 1 - j))
    = b_(d-1) / prod_(j <= d-3) b_0 ... b_j; that one denominator is
    inverted once, by :func:`_series_inverse`.  The largest
    sum reduced, an entry times the pivot plus two products, is at most
    27 p^2 length, which ``w`` and ``reduce`` (:func:`_barrett`) must allow.
    Pivots are units, so the elimination mirrors the one at x = 0, and
    where it stops Pf vanishes at x = 0.
    """
    n = len(rows)
    mask, slot = (1 << w * length) - 1, (1 << w) - 1
    three_p = _pack([3 * p] * length, w)
    m = [list(row) for row in rows]
    a, scale, den, negate = 1, 1, 1, False
    for i in range(0, n, 2):
        top = m[i]
        piv = next((j for j in range(i + 1, n) if (top[j] & slot) % p), None)
        if piv is None:
            return None
        if piv != i + 1:
            for r in range(i, n):
                for c in range(r + 1, n):
                    m[c][r] = three_p - m[r][c]
            m[piv], m[i + 1] = m[i + 1], m[piv]
            for row in m[i:]:
                row[piv], row[i + 1] = row[i + 1], row[piv]
            negate = not negate
        nxt = m[i + 1]
        a = top[i + 1]
        if i + 2 == n:
            break
        for r in range(i + 2, n):
            x, y, row = three_p - top[r], nxt[r], m[r]
            for c in range(r + 1, n):
                row[c] = reduce((a * row[c] + x * nxt[c] + y * top[c]) & mask)
        if i + 4 < n:  # j <= d - 3: the denominator gains b_0 ... b_j
            scale = reduce(scale * a & mask)
            den = reduce(den * scale & mask)
    if den != 1:
        a = reduce(a * _series_inverse(den, p, length, w, reduce) & mask)
    return three_p - a if negate else a


def pfaffian_mod(rows, p):
    """Pfaffian of a skew matrix over F_p: :func:`_pfaffian_series` at length 1,
    where a plain ``% p`` reduces the one slot of :func:`_barrett`'s width
    for that elimination's bound 27 p^2."""
    w, _ = _barrett(27 * p * p, p, 1)
    pf = _pfaffian_series([[x % p for x in row] for row in rows], p, 1, w, p.__rmod__)
    return 0 if pf is None else pf % p


def _divmod(a, b, p):
    """Quotient and (untrimmed) remainder of a by b, whose top coefficient is nonzero."""
    r, db = list(a), len(b) - 1
    inv = inv_mod(b[-1], p)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        c = q[k - db] = r[k] * inv % p
        r[k - db:k] = [x - c * y for x, y in zip(r[k - db:k], b)]
    return q, r[:db]


def _gcd(a, b, p):
    """The monic gcd of a and b; [] when both are zero.  Euclid on monic
    remainders: dividing by a monic g needs no inverse, so each remainder
    is reduced mod p and made monic in one pass, when it becomes g."""
    if not any(x % p for x in a):  # gcd(0, b) = gcd(b, 0)
        a, b = b, []
    g = []
    while True:
        d = len(a) - 1
        while d >= 0 and not a[d] % p:
            d -= 1
        if d < 0:
            return g
        inv = pow(a[d], -1, p)
        g, r = [x * inv % p for x in a[:d + 1]], list(b)
        for k in range(len(r) - 1, d - 1, -1):
            c = r[k] % p
            if c:
                r[k - d:k] = [x - c * y for x, y in zip(r[k - d:k], g)]
        a, b = r[:d], g


def _powmod(a, e, f, p):
    """(x + a)^e mod the monic f of degree d >= 1, by square and multiply on one
    packed integer.

    The remainder stays packed, coefficient i in bits [i w, (i + 1) w)
    (Kronecker substitution, :func:`_pack`), so a step squares with one
    multiplication; only the result is unpacked.  Slots hold residues
    lazily in [0, 3p), and two reductions keep every slot below
    9 d p^2 (1 + a mod p):

    - mod p, the slot-parallel Barrett step of :func:`_barrett`;
    - mod f, the exact polynomial Barrett quotient
      q = floor(floor(X / x^d) mu / x^d), mu = floor(x^(2d) / f), of an X
      of degree < 2d.  X mod f is then the low d slots of X plus those of
      q g, g = -f mod p, so no slot borrows from another.

    That bound holds a square times x + a, its top d slots times mu, and
    that sum.  So w is about 2k + 2 log2(9d) + 2 bits at a = 0, k the bit
    length of p, for any odd p and any d.
    """
    d = len(f) - 1
    a %= p
    w, reduce = _barrett(9 * d * p * p * (1 + a), p, 2 * d)
    low = (1 << w * d) - 1
    mu = [0] * d + [1]  # x^(2d) = mu f + r: mu_(d-i) = -sum_(j=1..i) f_(d-j) mu_(d-i+j)
    for i in range(1, d + 1):
        mu[d - i] = -sum(map(mul, f[d - i:d], reversed(mu[d - i + 1:]))) % p
    mu = _pack(mu, w)
    g, shift = _pack([-c % p for c in f[:d]], w), (1 << w) + a
    r = 1
    for bit in bin(e)[2:]:
        x = reduce(r * r * shift if bit == "1" else r * r)
        q = reduce((x >> w * d) * mu) >> w * d
        r = reduce((x & low) + (q * g & low))
    return _unpack(r, w, d, p)


def _sqrt_mod(a, p):
    """A square root of the nonzero square a mod p, by Tonelli-Shanks: with
    p - 1 = q 2^e, q odd, x = a^((q+1)/2) and t = a^q keep x^2 = a t while
    b = c^(2^(m-i-1)) takes x to x b and t, of order 2^i, to t b^2 of lower
    order; c, of order 2^m > 2^i, starts as z^q, z a non-residue.  At e = 1,
    t = 1 at once."""
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return x
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, m = pow(z, q, p), e
    while t != 1:
        i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << m - i - 1, p)
        x, c, m = x * b % p, b * b % p, i
        t = t * c % p
    return x


def roots_mod(coeffs, p):
    """The distinct roots in F_p (p an odd prime), ascending, of the polynomial with
    ascending coefficients ``coeffs``; none for the zero one.  gcd(f, x^p - x) keeps
    one linear factor per root, and Cantor-Zassenhaus splitting parts a factor g
    by gcd(g, (x + a)^((p-1)/2) - 1), a = 0, 1, ...; some a in F_p parts any two.
    A factor x^2 + b x + c, whose two roots are distinct and in F_p, is solved as
    (-b +- r) / 2 with r a square root of b^2 - 4c (:func:`_sqrt_mod`)."""
    f = _gcd(coeffs, [], p)
    if len(f) < 2:
        return []
    h = _powmod(0, p, f, p) + [0]
    roots, factors, a = [], [_gcd([h[0], h[1] - 1, *h[2:]], f, p)], 0
    while factors:
        g = factors.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) == 3:
            r, half = _sqrt_mod((g[1] * g[1] - 4 * g[0]) % p, p), (p + 1) // 2
            roots += [(r - g[1]) * half % p, (-r - g[1]) * half % p]
        elif len(g) > 3:
            h = _powmod(a, (p - 1) // 2, g, p)
            d = _gcd([h[0] - 1, *h[1:]], g, p)
            a += 1
            factors += [d, _divmod(g, d, p)[0]] if 1 < len(d) < len(g) else [g]
    return sorted(roots)


def random_skew_mod(n, p, rng):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randrange(p)
            m[i][j] = x
            m[j][i] = (-x) % p
    return m
