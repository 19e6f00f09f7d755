#!/usr/bin/env python3
"""Hodge diamonds and deformations of linear sections of Gr(2, n).

The headline pair: the 11-dimensional section of Gr(2, 10) carries the
middle-degree Hodge numbers 1, 101, 101, 1 of a quintic threefold, and
both have 101 first-order deformations.
"""

from grpf import ModelParams, classify, h1_tangent_y1, hodge_diamond_y1
from grpf.diamond import diamond_rows
from grpf.pfaffian import hypersurface_hodge


def centred(h):
    """The diamond {(p, q): h} as text, one centred line per row."""
    cells = [" ".join(map(str, row)) for row in diamond_rows(h)]
    width = max(map(len, cells))
    return "\n".join(c.center(width).rstrip() for c in cells)


params = ModelParams(10, 5)
info = classify(params)
print(f"(n, k) = (10, 5): section of Gr(2,10) has dimension {info.dim_y1}",
      f"and is {info.y1_type.value}")
print(f"the dual degeneracy locus has dimension {info.dim_y2}",
      f"and is {info.y2_type.value}")

dia = hodge_diamond_y1(params).diamond
print("\nmiddle row of the elevenfold:", [dia[p, 11 - p] for p in range(12)])
print("h^{1,1} =", dia[1, 1])

quintic = hypersurface_hodge(4, 5)
print("\nquintic threefold diamond:")
print(centred(quintic))
print("its middle row:", [quintic[p, 3 - p] for p in range(4)], "- the same 1 101 101 1")

tan = h1_tangent_y1(params)
print(f"\nfirst-order deformations of the elevenfold: {tan.h1} ({tan.mode})")
print(f"deformations of the quintic: {quintic[2, 1]} = h^(2,1)")

# The k = n = 7 pair: two Calabi-Yau threefolds with matching invariants.
print("\n== the (7, 7) Calabi-Yau pair ==")
dia77 = hodge_diamond_y1(ModelParams(7, 7)).diamond
print("diamond of the Gr(2,7) section:")
print(centred(dia77))
tan77 = h1_tangent_y1(ModelParams(7, 7))
print(f"h^1(T) = {tan77.h1} ({tan77.mode}), equal to h^(1,2) =",
      dia77[1, 2])

# A sanity anchor with a classical answer: one hyperplane cut of Gr(2, 4)
# is the three-dimensional quadric, whose diamond is purely diagonal.
print("\n== quadric threefold check ==")
print(centred(hodge_diamond_y1(ModelParams(4, 1)).diamond))
