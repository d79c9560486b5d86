"""Exact integer linear algebra, checked against sympy and brute force."""
from __future__ import annotations

from math import gcd

import hypothesis.strategies as st
from conftest import mat_mul, mat_vec
from hypothesis import given
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from realtoric.intlin import (
    determinant,
    identity,
    lin_rank,
    primitive_vector,
    quotient_with_section,
)

entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrix(draw, max_rows: int = 5, max_cols: int = 5, bound: int = 9):
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    box = st.integers(min_value=-bound, max_value=bound)
    return [[draw(box) for _ in range(m)] for _ in range(n)]


@st.composite
def square_matrix(draw, max_n: int = 5, bound: int = 9):
    n = draw(st.integers(1, max_n))
    box = st.integers(min_value=-bound, max_value=bound)
    return [[draw(box) for _ in range(n)] for _ in range(n)]


@given(square_matrix())
def test_determinant_matches_sympy(a):
    assert determinant(a) == Matrix(a).det()


@given(square_matrix(max_n=3, bound=5), square_matrix(max_n=3, bound=5))
def test_determinant_multiplicative(a, b):
    n = max(len(a), len(b))
    a = [row + [0] * (n - len(a)) for row in a] + [
        [1 if i == j else 0 for j in range(n)] for i in range(len(a), n)
    ]
    b = [row + [0] * (n - len(b)) for row in b] + [
        [1 if i == j else 0 for j in range(n)] for i in range(len(b), n)
    ]
    assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


@given(int_matrix())
def test_lin_rank_matches_sympy(a):
    assert lin_rank(a) == Matrix(a).rank()


@given(
    st.integers(1, 5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(
                st.lists(st.integers(-6, 6), min_size=r, max_size=r),
                max_size=5,
            ),
        )
    )
)
def test_quotient_with_section(case):
    """P @ R = I makes P onto Z^k, so ker P is saturated of rank
    rank - k = r; P kills the vectors, so ker P holds their span.  A
    saturated lattice of rank r holding the span is its saturation."""
    rank, vectors = case
    proj, sect = quotient_with_section(rank, vectors)
    r = lin_rank(vectors) if vectors else 0
    k = rank - r
    assert len(proj) == k and all(len(row) == rank for row in proj)
    assert len(sect) == rank and all(len(row) == k for row in sect)
    assert mat_mul(proj, sect) == identity(k)
    for v in vectors:
        assert mat_vec(proj, v) == [0] * k
    if k:
        ref = sympy_snf(Matrix(proj))
        assert [abs(ref[i, i]) for i in range(min(ref.shape))] == [1] * k


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
def test_primitive_vector(v):
    p = primitive_vector(v)
    if not any(v):
        assert p == tuple(v)
        return
    g = 0
    for x in p:
        g = gcd(g, x)
    assert g == 1
    # parallel with a positive ratio
    for a, b in zip(v, p):
        for c, d in zip(v, p):
            assert a * d == c * b
    assert primitive_vector(p) == p
