"""Hodge diamonds as dicts {(p, q): h^{p,q}}, checked where they are built."""

from __future__ import annotations

from .errors import IntegrityError


def hodge_diamond(diagonal, middle):
    """The diamond {(p, q): h^{p,q}} for 0 <= p, q <= d = len(middle) - 1.

    The middle row is h^{p,d-p} = middle[p].  Below it h^{p,p} =
    diagonal[p]; above it Serre duality gives h^{p,p} = diagonal[d-p];
    every other entry is 0.  Raises IntegrityError, naming the entry,
    unless every entry is non-negative and invariant under Hodge symmetry
    (p, q) -> (q, p) and Serre duality (p, q) -> (d-p, d-q), and h^{0,0} = 1
    in positive dimension (in dimension 0, h^{0,0} counts the points).
    """
    d = len(middle) - 1
    h = {
        (p, q): middle[p] if p + q == d else diagonal[min(p, d - p)] if p == q else 0
        for p in range(d + 1)
        for q in range(d + 1)
    }
    for (p, q), v in h.items():
        if v < 0:
            raise IntegrityError(f"negative Hodge number h^{{{p},{q}}} = {v}")
        if v != h[q, p]:
            raise IntegrityError(f"Hodge symmetry fails at ({p},{q})")
        if v != h[d - p, d - q]:
            raise IntegrityError(f"Serre duality fails at ({p},{q})")
    if d > 0 and h[0, 0] != 1:
        raise IntegrityError(f"h^{{0,0}} = {h[0, 0]}, expected 1")
    return h


def diamond_rows(h):
    """Rows of the diamond by total degree p + q, p decreasing left to right."""
    d, _ = max(h)
    return [[h[p, s - p] for p in range(d, -1, -1) if 0 <= s - p <= d] for s in range(2 * d + 1)]
