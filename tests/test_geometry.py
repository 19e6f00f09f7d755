import math
import re

import pytest

from grpf.errors import ParityError
from grpf.geometry import (
    ModelParams,
    VarietyType,
    classify,
    grassmannian_window,
    half_rank,
    orthogonal_rectangle,
    pfaffian_stratum_codim,
    pfaffian_window,
    window_inclusion_closed_form,
    window_sets,
)


def test_classify_quintic_case():
    c = classify(ModelParams(10, 5))
    assert c.dim_y1 == 11
    assert c.y1_type is VarietyType.FANO
    assert c.dim_y2 == 3
    assert c.y2_type is VarietyType.CALABI_YAU
    assert c.theorem_applies
    assert c.window_inclusion


def test_classify_threefold_pair():
    c = classify(ModelParams(7, 7))
    assert (c.dim_y1, c.dim_y2) == (3, 3)
    assert c.y1_type is VarietyType.CALABI_YAU
    assert c.y2_type is VarietyType.CALABI_YAU


def test_classify_fivefold_pair():
    c = classify(ModelParams(9, 9))
    assert (c.dim_y1, c.dim_y2) == (5, 5)
    assert c.y1_type is VarietyType.CALABI_YAU
    assert c.y2_type is VarietyType.CALABI_YAU


def test_classify_k3_case():
    c = classify(ModelParams(8, 4))
    assert c.dim_y2 == 2
    assert c.y2_type is VarietyType.CALABI_YAU


def test_classify_trichotomy_sweep():
    for n in range(4, 12, 2):
        assert classify(ModelParams(n, n // 2)).y2_type is VarietyType.CALABI_YAU
        assert classify(ModelParams(n, n // 2 + 1)).y2_type is VarietyType.FANO
        assert classify(ModelParams(n, n // 2 - 1)).y2_type is VarietyType.GENERAL_TYPE
    for n in range(5, 12, 2):
        assert classify(ModelParams(n, n)).y2_type is VarietyType.CALABI_YAU
        assert classify(ModelParams(n, n + 1)).y2_type is VarietyType.FANO
        assert classify(ModelParams(n, n - 1)).y2_type is VarietyType.GENERAL_TYPE


def test_classify_smoothable_thresholds():
    assert classify(ModelParams(10, 6)).y2_smoothable
    assert not classify(ModelParams(10, 7)).y2_smoothable
    assert classify(ModelParams(9, 10)).y2_smoothable
    assert not classify(ModelParams(9, 11)).y2_smoothable


def test_classify_empty_flags():
    c = classify(ModelParams(5, 10))
    assert c.dim_y1 < 0 and c.y1_empty
    c = classify(ModelParams(9, 2))
    assert c.dim_y2 < 0 and c.y2_empty


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(10, 46)
    with pytest.raises(ValueError):
        ModelParams(2, 1)
    ModelParams(10, 0)  # degenerate "no section" case is allowed


def test_params_reject_non_integers():
    # ModelParams(10, 5.0) used to be accepted with k = 5.0
    for n, k, bad in ((10, 5.0, "k 5.0"), (10.0, 5, "n 10.0"), (10, 2.5, "k 2.5"), (10, None, "k None")):
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not an integer")):
            ModelParams(n, k)


def test_stratum_codims():
    assert pfaffian_stratum_codim(10, 6) == 6
    assert pfaffian_stratum_codim(7, 2) == 10
    for n in range(4, 14, 2):
        assert pfaffian_stratum_codim(n, n - 2) == 1
    assert pfaffian_stratum_codim(9, 4) == 10
    with pytest.raises(ParityError):
        pfaffian_stratum_codim(8, 3)
    with pytest.raises(ValueError):
        pfaffian_stratum_codim(8, 8)


def test_window_sizes_quintic_case():
    s, t, inclusion = window_sets(ModelParams(10, 5))
    assert len(s) == 45
    assert len(t) == 25
    assert inclusion
    # top symmetric power is clipped to half the twists
    assert (4, 4) in s and (4, 5) not in s
    assert (3, 9) in s


def test_window_membership_odd():
    s = grassmannian_window(7)
    assert len(s) == 3 * 7
    assert (2, 6) in s and (3, 0) not in s


def test_half_rank():
    assert half_rank(10) == 5
    assert half_rank(7) == 3


def test_window_inclusion_examples():
    assert window_sets(ModelParams(7, 7))[2] is True
    assert window_sets(ModelParams(10, 6))[2] is False


def test_window_inclusion_grid_matches_closed_form():
    # window_sets raises internally on any mismatch; sweep the whole grid
    for n in range(3, 15):
        for k in range(1, math.comb(n, 2) + 1):
            _, _, literal = window_sets(ModelParams(n, k))
            assert literal == window_inclusion_closed_form(n, k)


def test_orthogonal_rectangle_quintic_case():
    rect = orthogonal_rectangle(ModelParams(10, 5))
    assert rect == {(l, m) for l in range(4) for m in range(5)}
    assert len(rect) == 20


def test_orthogonal_rectangle_literal_odd():
    # for odd n the literal computation gives m + k <= n - 1; for even n
    # the same on every row but the top one, where it gives m + k < n/2
    for n in (7, 9, *range(4, 15, 2)):
        L = half_rank(n)
        for k in range(1, n + 3):
            rect = orthogonal_rectangle(ModelParams(n, k))
            expected = {
                (l, m)
                for l in range(L)
                for m in range((n // 2 if n % 2 == 0 and l == L - 1 else n) - k)
            }
            assert rect == expected
            assert (len(rect) > 0) == (k <= n - 1)


def test_orthogonal_rectangle_empty_for_large_k():
    assert len(orthogonal_rectangle(ModelParams(7, 8))) == 0
    assert len(orthogonal_rectangle(ModelParams(10, 11))) == 0


def test_orthogonal_rectangle_monotone_in_k():
    for n in (8, 9, 10):
        sizes = [len(orthogonal_rectangle(ModelParams(n, k))) for k in range(1, 12)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        for k in range(1, 12):
            assert orthogonal_rectangle(ModelParams(n, k)) <= grassmannian_window(n)


def test_pfaffian_window_shape():
    t = pfaffian_window(10, 5)
    assert t == {(l, m) for l in range(5) for m in range(5)}
