"""Hodge diamonds: (p, q)-indexed tables with their symmetry invariants."""

from __future__ import annotations

from .errors import IntegrityError


class HodgeDiamond:
    """The table h^{p,q} of a smooth projective variety of given dimension.

    Construction validates Hodge symmetry h^{p,q} = h^{q,p}, the duality
    h^{p,q} = h^{d-p,d-q}, non-negativity and, in positive dimension,
    h^{0,0} = 1 (in dimension 0, h^{0,0} counts the points).
    """

    __slots__ = ("dim", "h")

    def __init__(self, dim, h):
        self.dim = int(dim)
        if self.dim < 0:
            raise ValueError(f"negative dimension {dim}")
        table = {}
        for p in range(self.dim + 1):
            for q in range(self.dim + 1):
                table[(p, q)] = int(h.get((p, q), 0))
        self.h = table
        self.validate()

    @classmethod
    def assemble(cls, dim, diagonal, middle_row):
        """Build a diamond from sub-middle diagonal values and the middle row.

        ``diagonal(p)`` gives h^{p,p} for 2p < dim (all off-diagonal values
        below the middle are zero); ``middle_row[p]`` gives h^{p, dim-p}.
        Everything above the middle is filled in by duality.
        """
        h = {}
        for p in range(dim + 1):
            for q in range(dim + 1):
                if p + q < dim:
                    h[(p, q)] = diagonal(p) if p == q else 0
                elif p + q == dim:
                    h[(p, q)] = middle_row[p]
        for p in range(dim + 1):
            for q in range(dim + 1):
                if p + q > dim:
                    h[(p, q)] = h[(dim - p, dim - q)]
        return cls(dim, h)

    def validate(self):
        d = self.dim
        for (p, q), v in self.h.items():
            if v < 0:
                raise IntegrityError(f"negative Hodge number h^{{{p},{q}}} = {v}")
            if v != self.h[(q, p)]:
                raise IntegrityError(f"Hodge symmetry fails at ({p},{q})")
            if v != self.h[(d - p, d - q)]:
                raise IntegrityError(f"Serre duality fails at ({p},{q})")
        if d > 0 and self.h[(0, 0)] != 1:
            raise IntegrityError(f"h^{{0,0}} = {self.h[(0, 0)]}, expected 1")

    def middle_row(self):
        return [self.h[(p, self.dim - p)] for p in range(self.dim + 1)]

    def euler_characteristic(self):
        return sum((-1) ** (p + q) * v for (p, q), v in self.h.items())

    def chi_p(self, p):
        """Alternating column sum sum_q (-1)^q h^{p,q}."""
        return sum((-1) ** q * self.h[(p, q)] for q in range(self.dim + 1))

    def to_rows(self):
        """Rows of the diamond by total degree, p decreasing left to right."""
        rows = []
        for s in range(2 * self.dim + 1):
            row = [
                self.h[(p, s - p)]
                for p in range(self.dim, -1, -1)
                if 0 <= s - p <= self.dim
            ]
            rows.append(row)
        return rows

    def __eq__(self, other):
        if isinstance(other, HodgeDiamond):
            return self.dim == other.dim and self.h == other.h
        return NotImplemented

    def __str__(self):
        rows = self.to_rows()
        cells = [" ".join(str(v) for v in row) for row in rows]
        width = max(len(c) for c in cells)
        return "\n".join(c.center(width).rstrip() for c in cells)

    def __repr__(self):
        return f"HodgeDiamond(dim={self.dim})"
