#!/usr/bin/env python3
"""Window sets: inclusion, the orthogonal rectangle, and Ext vanishing.

The two label sets attach the bundles Sym^l S (det S)^m to each side of
the story; everything here is decided exactly.
"""

from grpf import ModelParams, orthogonal_rectangle, window_sets
from grpf.geometry import grassmannian_window, window_inclusion_closed_form
from grpf.sections import (
    pair_twisted_vanishing,
    twisted_ext_vanishing,
    verify_strong_exceptional,
)

s, t, inclusion = window_sets(ModelParams(10, 5))
print(f"Grassmannian-side window for n=10: {len(s)} labels")
print(f"Pfaffian-side window for k=5: {len(t)} labels; included: {inclusion}")

# The inclusion criterion is a clean inequality; the literal subset test
# agrees with it across the whole parameter grid.
import math

mismatches = 0
for n in range(3, 15):
    for k in range(1, math.comb(n, 2) + 1):
        _, _, literal = window_sets(ModelParams(n, k))
        mismatches += literal != window_inclusion_closed_form(n, k)
print(f"inclusion grid sweep n <= 14: {mismatches} mismatches")

rect = orthogonal_rectangle(ModelParams(10, 5))
print(f"\nlabels whose whole twist range stays inside the window: {len(rect)}")
print(sorted(rect))

# Strong exceptionality of the window on the Grassmannian: all positive
# Ext groups between the 45 bundles vanish and morphisms flow one way.
rep = verify_strong_exceptional(10, grassmannian_window(10))
print(f"\nstrong exceptionality for n=10: passed={rep['passed']}",
      f"over {rep['pairs']} ordered pairs")
print("first few labels in collection order:", rep["order"][:6])

# The same vanishing holds after twisting by O(t) for every t >= 0 at
# once: entries are affine in t, so finitely many intervals decide it.
for n in (8, 10, 12):
    rep = twisted_ext_vanishing(n)
    print(f"all-twists vanishing for n={n}: {rep['all_vanish']}",
          f"({rep['pairs']} pairs, {rep['summands']} summands)")

# Negative control: pushing the target outside the window produces a
# concrete twist with nonvanishing higher cohomology.
i, t, degree, dim = pair_twisted_vanishing(10, (4, 0), (5, 9))
print(f"\nout-of-window pair (4,0) -> (5,9): fails at twist t={t}",
      f"with H^{degree} of dimension {dim}")
