"""Polynomial matrix helpers."""

import pytest

from olmcheck.fields import QQ
from olmcheck.matrices import PolyMatrix
from olmcheck.orders import GRLEX
from olmcheck.rings import Ring
from oracles import antidiag, constant_matrix, det, diagonal, minors2


def _ring():
    return Ring(["a", "b", "c", "d"], QQ, GRLEX)


def test_product_transpose_trace():
    R = _ring()
    a, b, c, d = R.gens()
    M = PolyMatrix(R, [[a, b], [c, d]])
    N = M @ M.T
    assert N[0, 0] == a**2 + b**2
    assert N[0, 1] == a * c + b * d
    assert M.trace() == a + d
    assert (M.T).T.rows == M.rows


def test_antidiag_and_reversal():
    R = _ring()
    a, b, c, d = R.gens()
    J = antidiag(R, 2)
    M = PolyMatrix(R, [[a, b], [c, d]])
    assert (M @ J).rows == [[b, a], [d, c]]
    assert (J @ M).rows == [[c, d], [a, b]]
    assert (J @ J).rows == [[R.one(), R.zero()], [R.zero(), R.one()]]


def test_minors2_count_and_values():
    R = _ring()
    a, b, c, d = R.gens()
    M = PolyMatrix(R, [[a, b], [c, d]])
    minors = minors2(M)
    assert len(minors) == 1
    assert minors[0] == a * d - b * c
    wide = PolyMatrix(R, [[a, b, c], [b, c, d]])
    assert len(minors2(wide)) == 3


def test_det_matches_minor_for_2x2_and_known_3x3():
    R = _ring()
    a, b, c, d = R.gens()
    M = PolyMatrix(R, [[a, b], [c, d]])
    assert det(M) == a * d - b * c
    I3 = constant_matrix(R, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert det(I3) == R.one()
    P = constant_matrix(R, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert det(P) == R.one()
    J3 = antidiag(R, 3)
    assert det(J3) == -R.one()


def test_diagonal_mask():
    R = _ring()
    a, b, c, d = R.gens()
    H = diagonal(R, [R.one(), R.zero(), R.one()])
    M = PolyMatrix(R, [[a, a, a], [b, b, b], [c, c, c]])
    masked = H @ M @ H
    assert masked[1, 0].is_zero() and masked[0, 1].is_zero()
    assert masked[0, 0] == a and masked[2, 2] == c


def test_shape_errors():
    R = _ring()
    M = PolyMatrix(R, [[R.one(), R.zero()]])
    with pytest.raises(ValueError):
        M @ M
    with pytest.raises(ValueError):
        M.trace()
    with pytest.raises(ValueError):
        PolyMatrix(R, [[R.one()], [R.one(), R.zero()]])


def test_sums_and_products_check_shapes():
    # a 2x2 plus a 1x3 matrix used to zip down to 1x2, and a 1x3 times a
    # 2x0 product skipped its check because the right factor has no column
    R = _ring()
    a, b, c, d = R.gens()
    square = PolyMatrix(R, [[a, b], [c, d]])
    row = PolyMatrix(R, [[a, b, c]])
    for x, y in ((square, row), (row, square)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y
    with pytest.raises(ValueError):
        row @ PolyMatrix(R, [[], []])
    assert (square + square.T)[0, 1] == b + c
    assert (square - square)[1, 1].is_zero()
    assert (row @ PolyMatrix(R, [[], [], []])).rows == [[]]
