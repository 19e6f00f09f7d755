"""One-shot verification suite: every headline claim, re-runnable from the CLI.

Each item is a named check returning (passed, detail).  The fast profile
skips the items marked slow (finite-field sampling and the larger
property sweeps); the full profile runs everything.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bwb import bott
from .geometry import (
    ModelParams,
    grassmannian_window,
    orthogonal_rectangle,
    window_sets,
)
from .modp import det_mod, pfaffian_mod, random_skew_mod
from .pfaffian import AMap, hypersurface_hodge, pfaffian_polynomial, sample_y2
from .schur import cauchy_exterior_cotangent, clebsch_gordan_rank2, virtual_rank
from .sections import (
    h1_tangent_y1,
    hodge_diamond_y1,
    twisted_ext_vanishing,
    verify_strong_exceptional,
)


def _check_hypersurface_quintic():
    h = hypersurface_hodge(4, 5)
    row = [h[p, 3 - p] for p in range(4)]
    ok = row == [1, 101, 101, 1]
    return ok, f"middle row {row}"


def _check_section_hodge_10_5():
    h = hodge_diamond_y1(ModelParams(10, 5)).diamond
    row = [h[p, 11 - p] for p in range(12)]
    expected = [0] * 12
    expected[4:8] = [1, 101, 101, 1]
    ok = row == expected and h[1, 1] == 1
    return ok, f"middle row {row}"


def _check_tangent_10_5():
    res = h1_tangent_y1(ModelParams(10, 5))
    ok = res.mode == "exact-generic" and res.h1 == 101
    return ok, f"h1 = {res.h1} ({res.mode})"


def _check_collection(n):
    rep = verify_strong_exceptional(n, grassmannian_window(n))
    return rep.passed, f"{rep.pair_count} ordered pairs"


def _check_lemma(n):
    rep = twisted_ext_vanishing(n)
    detail = f"{rep.pair_count} pairs, {rep.summand_count} summands"
    if not rep.all_vanish:
        detail += f"; counterexamples {rep.counterexamples[:3]}"
    return rep.all_vanish, detail


def _check_window_grid():
    grid = [(n, k) for n in range(3, 15) for k in range(1, math.comb(n, 2) + 1)]
    for n, k in grid:
        window_sets(ModelParams(n, k))  # raises IntegrityError on a mismatch
    return True, f"{len(grid)} grid points"


def _check_rectangle():
    rect = orthogonal_rectangle(ModelParams(10, 5))
    expected = {(l, m) for l in range(4) for m in range(5)}
    ok = rect == expected
    return ok, f"{len(rect)} labels"


def _check_pfaffian_degree():
    am = AMap.random(10, 5, seed=42, p=10007)
    pf = pfaffian_polynomial(am)
    degree = max(map(sum, pf), default=-1)
    return degree == 5, f"degree {degree}, {len(pf)} terms"


def _random_levi_dominant(rng, n, span=8):
    raw = sorted((rng.randint(-span, span) for _ in range(2)), reverse=True)
    q = tuple(sorted((rng.randint(-span, span) for _ in range(n - 2)), reverse=True))
    return tuple(raw), q


def _check_serre_duality(samples=1000, seed=2024):
    rng = random.Random(seed)
    for i in range(samples):
        n = rng.randrange(5, 13)
        s, q = _random_levi_dominant(rng, n)
        a = bott(n, s, q)
        # the dual bundle tensored with the canonical bundle O(-n)
        b = bott(n, (-s[1] - n, -s[0] - n), tuple(-x for x in reversed(q)))
        if (a is None) != (b is None):
            return False, f"vanishing mismatch at {n, s, q}"
        if a and (a[0] + b[0] != 2 * (n - 2) or a[1] != b[1]):
            return False, f"duality fails at {n, s, q}"
    return True, f"{samples} random weights"


def _check_dichotomy(samples=10000, seed=2025):
    rng = random.Random(seed)
    for i in range(samples):
        n = rng.randrange(5, 13)
        s, q = _random_levi_dominant(rng, n)
        res = bott(n, s, q)
        if res and not 0 <= res[0] <= 2 * (n - 2):
            return False, f"degree out of range at {n, s, q}"
    return True, f"{samples} random weights"


def _check_cauchy_ranks():
    for n in range(3, 13):
        for m in range(0, 2 * (n - 2) + 1):
            if virtual_rank(cauchy_exterior_cotangent(n, m)) != math.comb(2 * (n - 2), m):
                return False, f"rank off at (n,m)=({n},{m})"
    return True, "all n <= 12"


def _check_clebsch_gordan_dims():
    for l in range(31):
        for lp in range(31):
            total = sum(e + 1 for e, _ in clebsch_gordan_rank2(l, lp))
            if total != (l + 1) * (lp + 1):
                return False, f"dimension off at ({l},{lp})"
    return True, "l, l' <= 30"


def _check_diamond_integrity():
    cases = [(10, 5), (7, 7), (9, 9), (8, 4), (4, 1), (6, 3)]
    for n, k in cases:
        res = hodge_diamond_y1(ModelParams(n, k))
        euler = sum((-1) ** (p + q) * v for (p, q), v in res.diamond.items())
        if euler != sum((-1) ** p * chi for p, chi in enumerate(res.chi_p)):
            return False, f"Euler mismatch at ({n},{k})"
    return True, f"{len(cases)} diamonds"


def _check_pf_square_det(per_size=334, seed=2026):
    rng = random.Random(seed)
    p = 10007
    total = 0
    for n in (8, 10, 12):
        for _ in range(per_size):
            m = random_skew_mod(n, p, rng)
            if pfaffian_mod(m, p) ** 2 % p != det_mod(m, p):
                return False, f"Pf^2 != det at n={n}"
            total += 1
    return True, f"{total} random matrices"


def _check_sampling():
    details = []
    for n, k in ((10, 5), (7, 7), (8, 4)):
        am = AMap.random(n, k, seed=42, p=10007)
        res = sample_y2(am, 10007, 200, seed=42)
        expected_kernel = 2 if n % 2 == 0 else 3
        smooth = [q for q in res.points if q.smooth_at]
        ok = (
            len(res.points) >= 100
            and all(q.kernel_dim == expected_kernel for q in smooth)
            and res.smooth_fraction >= 0.95
        )
        details.append(f"({n},{k}): {len(res.points)} pts")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


@dataclass(frozen=True)
class VerifyItem:
    name: str
    slow: bool
    run: object


ITEMS = (
    VerifyItem("hypersurface-quintic", False, _check_hypersurface_quintic),
    VerifyItem("section-hodge-10-5", False, _check_section_hodge_10_5),
    VerifyItem("tangent-deformations-10-5", False, _check_tangent_10_5),
    VerifyItem("collection-n10", False, lambda: _check_collection(10)),
    VerifyItem("collection-n7", False, lambda: _check_collection(7)),
    VerifyItem("lemma-n8", False, lambda: _check_lemma(8)),
    VerifyItem("lemma-n10", False, lambda: _check_lemma(10)),
    VerifyItem("lemma-n12", False, lambda: _check_lemma(12)),
    VerifyItem("window-inclusion-grid", False, _check_window_grid),
    VerifyItem("orthogonal-rectangle-10-5", False, _check_rectangle),
    VerifyItem("pfaffian-degree-10-5", False, _check_pfaffian_degree),
    VerifyItem("serre-duality-random", False, _check_serre_duality),
    VerifyItem("bwb-degree-range-random", False, _check_dichotomy),
    VerifyItem("cauchy-rank-conservation", False, _check_cauchy_ranks),
    VerifyItem("clebsch-gordan-dimensions", False, _check_clebsch_gordan_dims),
    VerifyItem("diamond-integrity", False, _check_diamond_integrity),
    VerifyItem("pfaffian-square-is-det", True, _check_pf_square_det),
    VerifyItem("pfaffian-sampling", True, _check_sampling),
)


def run_profile(profile="fast"):
    """Run the suite; returns a list of (name, passed, detail, seconds)."""
    import time

    if profile not in ("fast", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    results = []
    for item in ITEMS:
        if profile == "fast" and item.slow:
            continue
        t0 = time.perf_counter()
        passed, detail = item.run()
        results.append((item.name, passed, detail, time.perf_counter() - t0))
    return results
