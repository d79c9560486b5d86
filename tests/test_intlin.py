"""Exact integer linear algebra, checked against sympy and brute force."""
from __future__ import annotations

import random
from math import gcd

import hypothesis.strategies as st
import realtoric.fan
from conftest import mat_mul, mat_vec
from hypothesis import given
from oracles import determinant, echelon_with_inverse, lin_rank, quotient_with_section
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from realtoric.fan import _bits, _elimination
from realtoric.intlin import (
    _column_step,
    _echelon,
    identity,
    primitive_vector,
    span_elimination,
)


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
    saturated lattice of rank r holding the span is its saturation.  P is
    that of `span_elimination`, and R the reference's integer section."""
    rank, vectors = case
    proj, sect = quotient_with_section(rank, vectors)
    assert span_elimination(rank, vectors)[2] == proj
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


def _echelon_by_rows(a):
    """The elimination of `_echelon` done on whole rows of H: each row
    operation is applied to every column of H at once, as it is applied
    to U and W, rather than to one new column U @ v at a time."""
    h = [list(row) for row in a]
    nrows, ncols = len(h), len(h[0]) if h else 0
    u = identity(nrows)
    w = identity(nrows)
    r = 0
    for c in range(ncols):
        while True:
            piv, val = -1, 0
            for i in range(r, nrows):
                if h[i][c] and (not val or abs(h[i][c]) < abs(val)):
                    piv, val = i, h[i][c]
            if piv < 0:
                break
            for m in (h, u, w):
                m.insert(r, m.pop(piv))
            done = True
            for i in range(r + 1, nrows):
                q = h[i][c] // val
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                w[r] = [x + q * y for x, y in zip(w[r], w[i])]
                done = done and not h[i][c]
            if done:
                r += 1
                break
    return h, u, w, r


def _random_matrix(rng):
    """A random integer matrix of 1-6 rows and 0-6 columns, entries in
    [-9, 9].  In a third of the cases a column is a combination of two
    others, in another third a row is: the rank is then deficient."""
    nrows, ncols = rng.randint(1, 6), rng.randint(0, 6)
    a = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    kind = rng.randrange(3)
    if kind == 1 and ncols >= 3:
        i, j, k = rng.sample(range(ncols), 3)
        for row in a:
            row[k] = 2 * row[i] - row[j]
    elif kind == 2 and nrows >= 3:
        i, j, k = rng.sample(range(nrows), 3)
        a[k] = [x + y for x, y in zip(a[i], a[j])]
    return a


def test_echelon_is_a_fold_of_column_steps():
    """(H, U, r) of `_echelon` is that of column steps folded over the
    columns, H being the steps' columns, and equals the elimination on
    whole rows; no step changes the state it extends.  The reference that
    also tracks W (`echelon_with_inverse`) makes the same (H, U, r), and
    its W is that of the elimination on whole rows: U @ W^T = I."""
    rng = random.Random(1709)
    deficient = 0
    for _ in range(400):
        a = _random_matrix(rng)
        state = (identity(len(a)), 0)
        cols = []
        for vec in zip(*a):
            kept = repr(state)
            col, *new = _column_step(*state, vec)
            assert repr(state) == kept
            state = new
            cols.append(col)
        h = [list(row) for row in zip(*cols)] if cols else [[] for _ in a]
        assert _echelon(a) == (h, *state), a
        h, u, w, r = _echelon_by_rows(a)
        assert _echelon(a) == (h, u, r), a
        assert echelon_with_inverse(a) == (h, u, w, r), a
        assert mat_mul(u, [list(col) for col in zip(*w)]) == identity(len(a)), a
        assert r == Matrix(a).rank() if a[0] else r == 0
        deficient += r < min(len(a), len(a[0]))
    assert deficient >= 50


def test_prefix_table_matches_the_elimination_of_each_tuple(monkeypatch):
    """The build's table of prefix eliminations (`fan._elimination`), fed
    the masks in random order, some left out: every state it stores, the
    visited masks' and their prefixes', is that of eliminating the tuple's
    vectors afresh, H's columns included, and each costs one column step.
    A third of the vectors have one non-zero entry, read off U's column."""
    steps = []
    monkeypatch.setattr(
        realtoric.fan, "_column_step", lambda *args: steps.append(1) or _column_step(*args)
    )
    rng = random.Random(2203)
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        vectors = []
        for _ in range(k):
            if rng.randrange(3):
                vectors.append([rng.randint(-5, 5) for _ in range(n)])
            else:
                vectors.append([0] * n)
                vectors[-1][rng.randrange(n)] = rng.choice((-3, -1, 1, 2))
        states = {0: ((), identity(n), 0)}
        del steps[:]
        for mask in rng.sample(range(1 << k), rng.randint(1, 1 << k)):
            assert _elimination(states, mask, vectors) == states[mask]
        assert len(steps) == len(states) - 1
        for mask, (cols, u, r) in states.items():
            chosen = [vectors[i] for i in _bits(mask)]
            a = [list(row) for row in zip(*chosen)] if chosen else [[] for _ in range(n)]
            h, u_fresh, r_fresh = _echelon(a)
            assert (list(cols), u, r) == ([list(c) for c in zip(*h)], u_fresh, r_fresh), mask
