#!/usr/bin/env python3
"""A walk through the Bott cohomology engine on Gr(2, n).

Weights are recorded against the duals of the tautological bundles:
the hyperplane bundle O(1) = det(S dual) is the pair (1, 1) with zero
tail, and Sym^l S (det S)^m is (-m, -l-m).
"""

from grpf import bott, grassmannian_poincare
from grpf.bwb import cohomology_of_kclass
from grpf.schur import cauchy_exterior_cotangent

n = 10
zeros = (0,) * (n - 2)

print("== basic bundles on Gr(2, 10) ==")
for name, s, q in [
    ("O", (0, 0), zeros),
    ("O(1)", (1, 1), zeros),
    ("O(-1)", (-1, -1), zeros),
    ("Sym^2 S dual", (2, 0), zeros),
    ("tangent bundle", (1, 0), (0,) * (n - 3) + (-1,)),
    ("canonical O(-10)", (-n, -n), zeros),
]:
    res = bott(n, s, q)
    if res is None:
        print(f"{name:18} -> no cohomology at all")
    else:
        print(f"{name:18} -> H^{res[0]} of dimension {res[1]}")

# Serre duality is a sharp internal check: the dual weight twisted by the
# canonical bundle O(-n), (-s2 - n, -s1 - n | -q reversed), must produce
# the complementary degree, same dimension.
print("\n== Serre duality spot check ==")
s, q = (3, 1), (1,) + (0,) * (n - 4) + (-2,)
a = bott(n, s, q)
b = bott(n, (-s[1] - n, -s[0] - n), tuple(-x for x in reversed(q)))
print(f"weight {s + q}: degrees {a[0]} + {b[0]} = {2 * (n - 2)},",
      f"dimensions {a[1]} = {b[1]}")

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
