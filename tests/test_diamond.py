"""A Hodge diamond is the dict {(p, q): h}; its invariants are checked where it is built."""

import pytest

from grpf.diamond import diamond_rows, hodge_diamond
from grpf.errors import IntegrityError


def test_middle_row_that_is_no_palindrome_raises():
    with pytest.raises(IntegrityError, match=r"Hodge symmetry fails at \(0,2\)"):
        hodge_diamond((1, 1, 1), [1, 2, 3])


def test_negative_entry_raises():
    with pytest.raises(IntegrityError, match=r"negative Hodge number h\^\{1,1\} = -1"):
        hodge_diamond((1, 1, 1), [1, -1, 1])


def test_h00_other_than_one_in_positive_dimension_raises():
    with pytest.raises(IntegrityError, match=r"h\^\{0,0\} = 2, expected 1"):
        hodge_diamond((2, 1), [0, 0])
    with pytest.raises(IntegrityError, match=r"h\^\{0,0\} = 0, expected 1"):
        hodge_diamond((0, 1, 1, 0), [0, 0, 0, 0])


def test_zero_dimensional_diamond_counts_points():
    # in dimension 0, h^{0,0} is the number of points, so 5 is allowed
    assert hodge_diamond((), [5]) == {(0, 0): 5}
    assert diamond_rows({(0, 0): 5}) == [[5]]


def test_quadric_threefold():
    # diagonal 1 1 1 1 and an empty middle row; rows by p + q, p decreasing
    h = hodge_diamond((1, 1, 1, 1), [0, 0, 0, 0])
    assert h == {(p, q): int(p == q) for p in range(4) for q in range(4)}
    assert diamond_rows(h) == [[1], [0, 0], [0, 1, 0], [0, 0, 0, 0], [0, 1, 0], [0, 0], [1]]


def test_serre_duality_fills_above_the_middle():
    # the quintic threefold: h^{p,p} above the middle comes from diagonal[d - p]
    h = hodge_diamond((1, 1, 7, 7), [1, 101, 101, 1])
    assert [h[p, p] for p in range(4)] == [1, 1, 1, 1]
    assert h[2, 1] == h[1, 2] == 101 and h[3, 0] == h[0, 3] == 1
    assert diamond_rows(h)[3] == [1, 101, 101, 1]
