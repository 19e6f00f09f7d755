#!/usr/bin/env python3
"""Families of skew 2-forms: exact Pfaffians and finite-field sampling.

A random 5-dimensional family of 2-forms on a 10-dimensional space cuts
a quintic threefold out of projective 4-space; its points over F_p have
2-dimensional kernels, and smoothness at each is the tangent-space test
of the rank locus: the pairings k_a^T M_r k_b on the kernel have full rank.
A sampled point that is a simple root of its line's Pfaffian g needs no
test: g'(x) is the gradient of Pf along the line, which vanishes at every
kernel dimension >= 4 and at kernel dimension 2 is a nonzero multiple of
the pairings, so g'(x) != 0 already means a smooth point of corank 2.
A family is its own skew matrix of linear forms, so the symbolic
Pfaffians take the family itself, and a polynomial in u1..uk is the dict
{exponent tuple: nonzero coefficient}.
"""

from grpf import AMap, pfaffian_polynomial, sample_y2, submaximal_pfaffians

p = 10007

print("== the (10, 5) family ==")
am = AMap.random(10, 5, seed=42, p=p)
pf = pfaffian_polynomial(am)
print(f"symbolic Pfaffian: degree {max(map(sum, pf))}, {len(pf)} monomials")

res = sample_y2(am, p, 200, seed=42)
kernels = sorted({q.kernel_dim for q in res.points})
print(f"sampled {len(res.points)} points over F_{p} in {res.attempts} lines;")
print(f"kernel dimensions {kernels}, smooth fraction {res.smooth_fraction:.3f}")

print("\n== the (7, 7) family: odd case ==")
am77 = AMap.random(7, 7, seed=42, p=p)
subs = submaximal_pfaffians(am77)
print(f"{len(subs)} submaximal Pfaffians of degree {max(map(sum, subs[0]))}",
      "cut the locus")
res77 = sample_y2(am77, p, 200, seed=42)
kernels = sorted({q.kernel_dim for q in res77.points})
print(f"sampled {len(res77.points)} points;",
      f"kernel dimensions {kernels}, smooth fraction {res77.smooth_fraction:.3f}")

print("\n== the (8, 4) family: a quartic surface ==")
am84 = AMap.random(8, 4, seed=42, p=p)
res84 = sample_y2(am84, p, 200, seed=42)
print(f"sampled {len(res84.points)} points, smooth fraction",
      f"{res84.smooth_fraction:.3f}")

# The families round-trip through their JSON format byte-exactly.
import json

blob = json.dumps(am.to_json_dict(), sort_keys=True)
again = AMap.from_json_dict(json.loads(blob))
print("\nJSON round trip preserves the family:",
      again.to_json_dict() == am.to_json_dict())
