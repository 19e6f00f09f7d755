"""The paper's stated numbers, rechecked by ``grpf verify-all``.

Each item of ITEMS is a (name, check) pair; a check returns (passed,
detail).  The items are the quintic's and the elevenfold's middle rows,
h^1(T) = 101, the window collections, the lemma, the rectangle, the
Pfaffian degree and the sampler.  The engine's self-checks live in the
tests.
"""

from __future__ import annotations

from .geometry import ModelParams, grassmannian_window, orthogonal_rectangle
from .pfaffian import AMap, hypersurface_hodge, pfaffian_polynomial, sample_y2
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
    return rep["passed"], f"{rep['pairs']} ordered pairs"


def _check_lemma(n):
    rep = twisted_ext_vanishing(n)
    detail = f"{rep['pairs']} pairs, {rep['summands']} summands"
    if not rep["all_vanish"]:
        detail += f"; counterexamples {rep['counterexamples'][:3]}"
    return rep["all_vanish"], detail


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


def _check_sampling():
    details = []
    for n, k in ((10, 5), (7, 7), (8, 4)):
        am = AMap.random(n, k, seed=42, p=10007)
        res = sample_y2(am, 10007, 200, seed=42)
        expected_kernel = 2 if n % 2 == 0 else 3
        smooth = [q for q in res.points if q["smooth_at"]]
        ok = (
            len(res.points) >= 100
            and all(q["kernel_dim"] == expected_kernel for q in smooth)
            and res.smooth_fraction >= 0.95
        )
        details.append(f"({n},{k}): {len(res.points)} pts")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


ITEMS = (
    ("hypersurface-quintic", _check_hypersurface_quintic),
    ("section-hodge-10-5", _check_section_hodge_10_5),
    ("tangent-deformations-10-5", _check_tangent_10_5),
    ("collection-n10", lambda: _check_collection(10)),
    ("collection-n7", lambda: _check_collection(7)),
    ("lemma-n8", lambda: _check_lemma(8)),
    ("lemma-n10", lambda: _check_lemma(10)),
    ("lemma-n12", lambda: _check_lemma(12)),
    ("orthogonal-rectangle-10-5", _check_rectangle),
    ("pfaffian-degree-10-5", _check_pfaffian_degree),
    ("pfaffian-sampling", _check_sampling),
)
