#!/usr/bin/env python3
"""A walk through the Bott cohomology engine on Gr(2, n).

Weights are recorded against the duals of the tautological bundles:
the hyperplane bundle O(1) = det(S dual) is the pair (1, 1) with zero
tail, and Sym^l S (det S)^m is (-m, -l-m).
"""

from grpf import GLWeight, bwb_cohomology, grassmannian_poincare
from grpf.bwb import cohomology_of_kclass, serre_dual_weight
from grpf.schur import cauchy_exterior_cotangent

n = 10
zeros = (0,) * (n - 2)

print("== basic bundles on Gr(2, 10) ==")
for name, w in [
    ("O", GLWeight(n, (0, 0), zeros)),
    ("O(1)", GLWeight(n, (1, 1), zeros)),
    ("O(-1)", GLWeight(n, (-1, -1), zeros)),
    ("Sym^2 S dual", GLWeight(n, (2, 0), zeros)),
    ("tangent bundle", GLWeight(n, (1, 0), (0,) * (n - 3) + (-1,))),
    ("canonical O(-10)", GLWeight(n, (-n, -n), zeros)),
]:
    res = bwb_cohomology(w)
    if res.vanishes:
        print(f"{name:18} -> no cohomology at all")
    else:
        print(f"{name:18} -> H^{res.degree} of dimension {res.dimension}")

# Serre duality is a sharp internal check: the dual weight twisted by the
# canonical bundle must produce the complementary degree, same dimension.
print("\n== Serre duality spot check ==")
w = GLWeight(n, (3, 1), (1,) + (0,) * (n - 4) + (-2,))
a = bwb_cohomology(w)
b = bwb_cohomology(serre_dual_weight(w))
print(f"weight {w.vector()}: degrees {a.degree} + {b.degree} = {2 * (n - 2)},",
      f"dimensions {a.dimension} = {b.dimension}")

# Summing Bott outcomes over the Cauchy decomposition of the p-th wedge of
# the cotangent bundle recovers the diagonal Hodge numbers of the
# Grassmannian, i.e. the Gaussian binomial coefficients.
print("\n== Hodge diagonal of Gr(2, 10) two ways ==")
gp = grassmannian_poincare(n)
diag = []
for p in range(2 * (n - 2) + 1):
    positive, _ = cohomology_of_kclass(cauchy_exterior_cotangent(n, p))
    diag.append(positive.get(p, 0))
print("from Bott cohomology:  ", diag)
print("from Gaussian binomial:", list(gp))

# A class of bundles is a dict {(s_weight, q_weight): multiplicity}.  A
# virtual class keeps its positive and negative contributions apart; only
# genuinely effective classes produce honest cohomology tables.
print("\n== virtual classes stay two-sided ==")
virt = {((1, 1), zeros): 1, ((0, 0), zeros): -2}  # O(1) - 2 O
positive, negative = cohomology_of_kclass(virt)
print("positive part:", positive, " negative part:", negative)
