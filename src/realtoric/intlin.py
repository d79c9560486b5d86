"""Exact linear algebra over the integers.

Matrices are lists of rows; entries are Python ints, so everything is
arbitrary precision.  Where an empty generating set makes the shape
ambiguous the ambient rank is passed explicitly.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from typing import List, Sequence, Tuple

IntMatrix = List[List[int]]

__all__ = [
    "identity",
    "span_elimination",
    "primitive_vector",
]


def identity(n: int) -> IntMatrix:
    out = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        out.append(row)
    return out


def _column_step(u: IntMatrix, r: int, vec: Sequence[int]) -> Tuple[List[int], IntMatrix, int]:
    """Extend the elimination (U, r) of some columns by the column vec.

    Returns (col, U', r') with col = U' @ vec, the new column of H:
    rows r.. of col are cleared below the pivot by Euclid's algorithm on
    the entry of least magnitude, each row operation applied to U.  The
    given list is not changed, so the state (U, r) can be extended again
    by another column.  If vec has one non-zero entry, U @ vec is read off
    a column of U.
    """
    if vec.count(0) == len(vec) - 1:
        x = next(filter(None, vec))
        k = vec.index(x)
        col = [row[k] * x for row in u]
    else:
        col = [sum(map(mul, row, vec)) for row in u]
    u = u[:]
    nrows = len(u)
    while True:
        piv, val = -1, 0
        for i in range(r, nrows):
            x = col[i]
            if x and (not val or abs(x) < abs(val)):
                piv, val = i, x
        if piv < 0:
            return col, u, r
        if piv != r:
            # move the pivot row up, keeping the order of the others:
            # rows no pivot touches stay in input order, so cones on
            # coordinate vectors get the same projection rows whatever
            # the order of their rays, and induced projections repeat
            col.insert(r, col.pop(piv))
            u.insert(r, u.pop(piv))
        ur = u[r]
        done = True
        for i in range(r + 1, nrows):
            q = col[i] // val
            if q:
                col[i] -= q * val
                u[i] = [x - q * y for x, y in zip(u[i], ur)]
            if col[i]:
                done = False
        if done:
            return col, u, r + 1


def _echelon(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, int]:
    """Unimodular row elimination of the matrix a (a list of rows), one
    `_column_step` per column.

    Returns (H, U, r) with U @ a = H, U unimodular and H in row echelon
    form whose first r rows are its non-zero ones, so r is the rank of a.
    """
    u = identity(len(a))
    r = 0
    cols = []
    for vec in zip(*a):
        col, u, r = _column_step(u, r, vec)
        cols.append(col)
    h = [list(row) for row in zip(*cols)] if cols else [[] for _ in a]
    return h, u, r


def span_elimination(
    rank: int, vectors: Sequence[Sequence[int]]
) -> Tuple[IntMatrix, IntMatrix, IntMatrix, int]:
    """One unimodular elimination U @ A = [H; 0] of the rank x len(vectors)
    matrix A whose columns are the vectors.

    Returns (H, U, P, r): r is the rank of the vectors, rows ..r of U are
    coordinates on their span (in which the vectors are the columns of H)
    and P is rows r.. of U (the left kernel of A, whose kernel is exactly
    the saturation of the span).
    """
    assert all(len(vec) == rank for vec in vectors), "vector length must match ambient rank"
    h, u, r = _echelon(list(zip(*vectors)) or [()] * rank)
    return h, u, u[r:], r


def primitive_vector(vec: Sequence[int]) -> Tuple[int, ...]:
    """Divide out the gcd of the entries; the zero vector is returned as is."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)
