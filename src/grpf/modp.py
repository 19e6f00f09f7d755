"""Exact F_p arithmetic: int-list matrices (row reduction also over Q), polynomial roots."""

from __future__ import annotations

from .poly import PrimeField


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def _rref(rows, field):
    """RREF over the ``poly`` field of the entries; (rank, matrix, pivot columns)."""
    p = getattr(field, "p", None)
    m = list(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
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
    return rank, m, pivots


def rank_mod(rows, p):
    return _rref([[x % p for x in row] for row in rows], PrimeField(p))[0]


def nullspace_mod(rows, p):
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    rank, m, pivots = _rref([[x % p for x in row] for row in rows], PrimeField(p))
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
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = inv_mod(m[col][col], p)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[col])]
    return det % p


def pfaffian_mod(rows, p):
    """Pfaffian of a skew matrix over F_p by skew elimination, O(n^3)."""
    n = len(rows)
    if n % 2:
        return 0
    if n == 0:
        return 1
    m = [[x % p for x in row] for row in rows]
    result = 1
    for i in range(0, n, 2):
        piv = next((j for j in range(i + 1, n) if m[i][j]), None)
        if piv is None:
            return 0
        if piv != i + 1:
            m[piv], m[i + 1] = m[i + 1], m[piv]
            for row in m:
                row[piv], row[i + 1] = row[i + 1], row[piv]
            result = -result % p
        a = m[i][i + 1]
        result = result * a % p
        ainv = inv_mod(a, p)
        for r in range(i + 2, n):
            mir = m[i][r]
            mi1r = m[i + 1][r]
            if mir == 0 and mi1r == 0:
                continue
            for c in range(r + 1, n):
                delta = (mir * m[i + 1][c] - m[i][c] * mi1r) % p
                if delta:
                    val = (m[r][c] - delta * ainv) % p
                    m[r][c] = val
                    m[c][r] = -val % p
    return result % p


def _trim(a, p):
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


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
    """The monic gcd of a and b; [] when both are zero."""
    a, b = _trim(a, p), _trim(b, p)
    while b:
        a, b = b, _trim(_divmod(a, b, p)[1], p)
    inv = inv_mod(a[-1], p) if a else 0
    return [c * inv % p for c in a]


def _powmod(a, e, f, p):
    """(x + a)^e mod the monic f of degree d >= 1.  Polynomials are packed into
    integers with w-byte slots (Kronecker substitution); no slot reaches 2 d p^3."""
    d = len(f) - 1
    w = (3 * p.bit_length() + d.bit_length() + 9) // 8
    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")
    def unpack(x, lo, hi):
        b = x.to_bytes(hi * w, "little")
        return [int.from_bytes(b[i * w:i * w + w], "little") % p for i in range(lo, hi)]
    row, table = [-c % p for c in f[:d]], []  # x^d, ..., x^(2d-1) mod f
    for _ in range(d):
        table.append(pack(row))
        row = [(lo - row[-1] * c) % p for lo, c in zip([0] + row, f[:d])]
    low, shift, r = (1 << 8 * w * d) - 1, (1 << 8 * w) + a % p, [1]
    for bit in bin(e)[2:]:
        x = pack(r) ** 2 * (shift if bit == "1" else 1)
        r = unpack((x & low) + sum(h * t for h, t in zip(unpack(x, d, 2 * d), table)), 0, d)
    return r


def roots_mod(coeffs, p):
    """The distinct roots in F_p (p an odd prime), ascending, of the polynomial with
    ascending coefficients ``coeffs``; none for the zero one.  gcd(f, x^p - x) keeps
    one linear factor per root, and Cantor-Zassenhaus splitting parts a factor g
    by gcd(g, (x + a)^((p-1)/2) - 1), a = 0, 1, ...; some a in F_p parts any two."""
    f = _gcd(coeffs, [], p)
    if len(f) < 2:
        return []
    h = _powmod(0, p, f, p) + [0]
    roots, factors, a = [], [_gcd(f, [h[0], h[1] - 1, *h[2:]], p)], 0
    while factors:
        g = factors.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            h = _powmod(a, (p - 1) // 2, g, p)
            d = _gcd(g, [h[0] - 1, *h[1:]], p)
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
