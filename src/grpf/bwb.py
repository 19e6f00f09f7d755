"""Exact sheaf cohomology of homogeneous bundles on Gr(2, n).

The Bott algorithm: add ``rho``, vanish if the result has a repeated
entry, otherwise sort to dominant order counting inversions; the number
of inversions is the unique cohomological degree and the sorted weight
minus ``rho`` labels the resulting GL(n) representation (with respect to
the dual of the standard one, matching the dual-bundle convention of
:mod:`grpf.weights`).  On Gr(2, n) the shifted q-block is strictly
decreasing, one block of consecutive integers per run of equal entries,
so the sort inserts the two shifted s-entries between blocks.
:func:`_bott_runs` does that on the runs of the q-block and hands the
runs of the result to the Weyl product; no length-n tuple is built.
General weights (:func:`bott`, the one checked entry, which spells the
resulting weight out), the terms of a class, checked once per call
(:func:`_class_tables`), and the Cauchy q-blocks of the Hodge terms
(:func:`_bott_cauchy`) go through it; :func:`_cauchy_ray` steps a
twisted Cauchy term along its twists by a telescoped Weyl ratio.  The
Hom and Ext summands have a zero q-block, whose outcome is one of five
closed forms (:func:`_bott_zero_tail`).
"""

from __future__ import annotations

import math
from itertools import groupby

from .errors import IntegrityError
from .weights import _integer, check_class, check_weight, weyl_dimension_of_runs


def _bott_runs(a1, a2, q_runs, n):
    """(degree, dimension, runs) of the Bott outcome of (a1, a2 | q-block), or None.

    ``runs`` is the resulting GL(n) weight as (value, length) runs.  The
    q-block is given the same way, weakly decreasing runs of total length
    n - 2; empty runs are skipped.  Adding rho[2:] turns a run (b, r) into
    a block of r consecutive integers, blocks at least one apart, so a
    shifted s-entry (u1 = a1 + n > u2 = a2 + n - 1) either falls inside a
    block, a repeat that vanishes the weight, or lands between blocks and
    splits none.  The sorted weight minus rho is then a merge from the
    top: with ``above`` tail entries and 2 - c s-entries placed, the next
    s-entry a would become a + above and the next run (b, r) would become
    r entries b - c.  The s-entry comes first, adding ``above``
    inversions, when a + above > b - c; it falls inside the block when
    b - c - r < a + above <= b - c.  Equal neighbouring runs are merged
    before the Weyl product.
    """
    pending = [a2, a1]  # s-entries not yet placed, the next one last
    runs = []
    above = degree = 0
    for b, r in q_runs:
        if not r:
            continue
        value = b - len(pending)
        while pending and pending[-1] + above > value:
            a = pending.pop() + above
            if runs and runs[-1][0] == a:
                runs[-1] = (a, runs[-1][1] + 1)
            else:
                runs.append((a, 1))
            degree += above
            value += 1
        if pending and pending[-1] + above > value - r:
            return None
        if runs and runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1] + r)
        else:
            runs.append((value, r))
        above += r
    for a in reversed(pending):
        a += above
        if runs[-1][0] == a:
            runs[-1] = (a, runs[-1][1] + 1)
        else:
            runs.append((a, 1))
        degree += above
    if degree > 2 * (n - 2):
        raise IntegrityError(
            f"degree {degree} exceeds dim Gr(2, {n}) for {(a1, a2)} over {q_runs}"
        )
    return degree, weyl_dimension_of_runs(runs), runs


def bott(n, s, q):
    """Bott on the weight (s | q) of Gr(2, n), checked by :func:`check_weight`:
    None when every group vanishes, else (degree, dimension, weight) of the
    one nonzero group H^degree, weight that of its GL(n) representation."""
    n, (a1, a2), q = check_weight(n, s, q)
    res = _bott_runs(a1, a2, [(b, len(list(group))) for b, group in groupby(q)], n)
    if res is None:
        return None
    degree, dimension, runs = res
    weight = []
    for x, r in runs:
        weight += [x] * r
    return degree, dimension, tuple(weight)


def _cauchy_gaps(j, m, n):
    """The two entries g1 > g2 of 1..n missing from the shifted Cauchy q-block.

    Cauchy term j of Wedge^m of the cotangent bundle has q-block
    (2^j, 1^(m-2j), 0^(n-2-m+j)); after adding rho[2:] = (n-2, ..., 1) the
    2s fill n..n-j+1, the 1s fill n-j-1..n-m+j and the 0s fill n-m+j-2..1.
    """
    return n - j, n - m + j - 1


def _bott_cauchy(a1, a2, j, m, n):
    """(degree, dimension) of Bott on (a1, a2) over Cauchy term j of Wedge^m, or None."""
    res = _bott_runs(a1, a2, ((2, j), (1, m - 2 * j), (0, n - 2 - m + j)), n)
    return res and res[:2]


def _two_row_dimension(a, b, n):
    """Weyl dimension of (a, b, 0^(n-2)) for GL(n), a >= b >= 0."""
    return (a - b + 1) * math.comb(a + n - 1, a) * math.comb(b + n - 2, b) // (a + 1)


def _bott_zero_tail(a1, a2, n):
    """(degree, dimension) of Bott on (a1, a2 | 0^(n-2)), a1 >= a2, or None.

    The shifted tail is n-2..1 and the shifted s-entries are
    u1 = a1 + n > u2 = a2 + n - 1.  Both above the tail (a2 >= 0) gives
    degree 0 and (a1, a2, 0...).  Either entry inside the tail vanishes
    the weight.  u1 above and u2 below it (a1 >= -1, a2 <= 1 - n) gives
    degree n - 2 and (alpha, 0..., -beta) with alpha = a1 + 1 and
    beta = 1 - n - a2, of dimension dim Sym^alpha x Sym^beta of the dual
    minus the same at alpha - 1, beta - 1.  Both below (a1 <= -n) gives
    degree 2(n - 2) and the dual of (-a2 - n, -a1 - n, 0...) up to a
    twist.
    """
    if a2 >= 0:
        return 0, _two_row_dimension(a1, a2, n)
    if a2 > 1 - n:
        return None
    if a1 >= -1:
        alpha, beta = a1 + 1, 1 - n - a2
        dim = math.comb(alpha + n - 1, alpha) * math.comb(beta + n - 1, beta)
        if alpha and beta:
            dim -= math.comb(alpha + n - 2, alpha - 1) * math.comb(beta + n - 2, beta - 1)
        return n - 2, dim
    if a1 > -n:
        return None
    return 2 * (n - 2), _two_row_dimension(-a2 - n, -a1 - n, n)


def _cauchy_ray(j, m, n, hi):
    """Surviving (t, degree, dimension), t = 0..hi, of Cauchy term j of Wedge^m under O(-t).

    The shifted s-entries g1 - t, g2 - t fill the gaps at t = 0; one fills
    a gap, the other leaves 1..n only at t = gap = g1 - g2 if gap >= g2;
    both are below 1 from t = g1 on.  Bott runs at these three twists.  On
    that tail the degree is 2(n - 2) and the weight is, up to a constant,
    the q-block, y1 = g1 - t at P = n - 2 and y2 = g2 + 1 - t at P = n - 1.
    A q-run (value v, start a, length r) puts X(X - 1)...(X - r + 1),
    X = v - y + P - a, in the Weyl product, so t -> t + 1 multiplies the
    dimension by six factors (X + 1)/(X - r + 1), dividing exactly.
    """
    g1, g2 = _cauchy_gaps(j, m, n)
    twists = (0, g1 - g2, g1) if g1 - g2 >= g2 else (0, g1)
    ray = [(t, *_bott_cauchy(-j - t, j - m - t, j, m, n)) for t in twists if t <= hi]
    runs = ((2, 0, j), (1, j, m - 2 * j), (0, m - j, n - 2 - m + j))
    xs = [(v - y + pos - a, r) for y, pos in ((g1, n - 2), (g2 + 1, n - 1)) for v, a, r in runs]
    for t in range(g1, hi):  # X = x + t
        num = den = 1
        for x, r in xs:
            num *= x + t + 1
            den *= x + t - r + 1
        ray.append((t + 1, ray[-1][1], ray[-1][2] * num // den))
    return ray


def _class_tables(n, terms, twist):
    """:func:`cohomology_of_kclass` on the terms of :func:`grpf.weights.check_class`, unchecked."""
    positive, negative = {}, {}
    for a1, a2, q_runs, mult in terms:
        res = _bott_runs(a1 + twist, a2 + twist, q_runs, n)
        if res is not None:
            table = positive if mult > 0 else negative
            table[res[0]] = table.get(res[0], 0) + abs(mult) * res[1]
    return positive, negative


def cohomology_of_kclass(c, twist=0):
    """Termwise Bott cohomology of the class ``c`` twisted by O(twist).

    ``c`` is a class {(s_weight, q_weight): multiplicity} as in
    :mod:`grpf.schur`, checked once.  Dimensions attached to positive and
    negative multiplicities are accumulated in separate tables, one Bott
    run per term, and returned as the pair (positive, negative): a signed
    table would be meaningless as cohomology, so consumers that need actual
    dimensions must certify that ``negative`` is empty.  Their
    :func:`euler_characteristic` is chi(c(twist)).
    """
    return _class_tables(*check_class(c), _integer(twist, "twist"))


def euler_characteristic(tables):
    """Alternating sum of a (positive, negative) pair of cohomology tables."""
    positive, negative = tables
    return sum((-1) ** d * v for d, v in positive.items()) - sum(
        (-1) ** d * v for d, v in negative.items()
    )
