"""Bit-packed GF(2) linear algebra against list-based brute force."""
from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import List, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import minors_mod2
from oracles import (
    assemble_blocks,
    dense_d_o_d,
    determinant,
    entry,
    exterior_power,
    from_cols,
    identity,
    is_zero,
    mul_vec,
    submatrix,
    total_dim,
    transpose,
)

from realtoric.gf2 import ChainComplex, Mat2, exterior_powers

bit_rows = st.lists(st.integers(0, 1), min_size=1, max_size=6)


@st.composite
def bit_matrix(draw, max_rows: int = 6, max_cols: int = 6):
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    return [[draw(st.integers(0, 1)) for _ in range(m)] for _ in range(n)]


@st.composite
def wide_matrix(draw, max_rows: int = 40, max_cols: int = 150) -> Mat2:
    """Multi-word rows: each row sums a random subset of a few random
    rows, so ranks fall below the row count; a zero row and a repeat of
    the first row are always included.  The random rows are shifted up by
    random amounts, so that some have no bit in the lowest word."""
    ncols = draw(st.integers(1, max_cols))
    full = (1 << ncols) - 1
    basis = [
        (bits << shift) & full
        for bits, shift in draw(
            st.lists(
                st.tuples(st.integers(0, full), st.integers(0, ncols - 1)),
                min_size=1,
                max_size=12,
            )
        )
    ]
    picks = draw(
        st.lists(st.integers(0, (1 << len(basis)) - 1), min_size=1, max_size=max_rows - 2)
    )
    rows = []
    for pick in picks:
        acc = 0
        for k, b in enumerate(basis):
            if pick >> k & 1:
                acc ^= b
        rows.append(acc)
    rows += [0, rows[0]]
    return Mat2(len(rows), ncols, rows)


def to_lists(m: Mat2) -> List[List[int]]:
    return [[entry(m, i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def brute_rref(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    work = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(work)) if work[i][c]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def brute_kernel(rows: List[List[int]]) -> Mat2:
    """Columns spanning the kernel, read off the brute-force rref: one per
    free column."""
    red, pivots = brute_rref(rows)
    ncols = len(rows[0])
    cols = []
    for f in range(ncols):
        if f not in pivots:
            cols.append((1 << f) | sum(1 << c for r, c in enumerate(pivots) if red[r][f]))
    return from_cols(ncols, cols)


def brute_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) & 1 for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(bit_matrix())
def test_from_rows_entry_col_roundtrip(rows):
    m = Mat2.from_rows(rows)
    assert to_lists(m) == rows
    cols = [m.col(j) for j in range(m.ncols)]
    assert to_lists(from_cols(m.nrows, cols)) == rows


@given(bit_matrix())
def test_transpose_and_add(rows):
    m = Mat2.from_rows(rows)
    t = transpose(m)
    assert to_lists(t) == [[rows[i][j] for i in range(m.nrows)] for j in range(m.ncols)]
    assert is_zero(m + m)


@given(bit_matrix(max_rows=5, max_cols=5), bit_matrix(max_rows=5, max_cols=5))
def test_matmul_matches_brute(a_rows, b_rows):
    inner = len(b_rows)
    a = Mat2.from_rows([r[:inner] + [0] * (inner - len(r)) for r in a_rows], ncols=inner)
    b = Mat2.from_rows(b_rows)
    assert to_lists(a @ b) == brute_mul(to_lists(a), b_rows)


@given(bit_matrix(), st.integers(0, 63))
def test_mul_vec_matches_matmul(rows, vbits):
    m = Mat2.from_rows(rows)
    v = vbits & ((1 << m.ncols) - 1)
    col = from_cols(m.ncols, [v])
    assert mul_vec(m, v) == (m @ col).col(0)


@given(bit_matrix())
def test_rref_rank_kernel_match_brute(rows):
    m = Mat2.from_rows(rows)
    _, pivots = brute_rref(rows)
    assert m.rank() == len(pivots)
    k = brute_kernel(rows)
    assert k.ncols == m.ncols - m.rank()
    assert is_zero(m @ k)
    assert k.rank() == k.ncols


@settings(max_examples=40)
@given(wide_matrix())
def test_rank_matches_rref_pivots_on_wide_matrices(m):
    _, pivots = brute_rref(to_lists(m))
    assert m.rank() == len(pivots)
    assert transpose(m).rank() == m.rank()
    assert submatrix(m, range(m.nrows), pivots).rank() == len(pivots)


@given(wide_matrix(max_rows=12), st.data())
def test_submatrix(m, data):
    # indices in any order, repeats included
    ri = data.draw(st.lists(st.integers(0, m.nrows - 1), max_size=15))
    ci = data.draw(st.lists(st.integers(0, m.ncols - 1), max_size=40))
    ci += ci[:3]
    sub = submatrix(m, ri, ci)
    assert (sub.nrows, sub.ncols) == (len(ri), len(ci))
    assert to_lists(sub) == [[entry(m, i, j) for j in ci] for i in ri]


@settings(max_examples=30)
@given(bit_matrix(max_rows=7, max_cols=7))
@example([[int(i <= j) for j in range(7)] for i in range(7)])
@example([[(2 * i + 3 * j + i * j) % 7 % 2 for j in range(7)] for i in range(7)])  # rank 6
def test_exterior_entries_are_minors(rows):
    m = Mat2.from_rows(rows)
    for q in range(8):
        ext = exterior_power(m, q)
        row_sets = list(combinations(range(m.nrows), q))
        col_sets = list(combinations(range(m.ncols), q))
        assert (ext.nrows, ext.ncols) == (len(row_sets), len(col_sets))
        assert to_lists(ext) == [
            [determinant([[rows[a][b] for b in cs] for a in rs]) % 2 for cs in col_sets]
            for rs in row_sets
        ]


@given(bit_matrix(max_rows=4, max_cols=4), bit_matrix(max_rows=4, max_cols=4), st.integers(0, 3))
def test_exterior_functorial(a_rows, b_rows, q):
    inner = len(b_rows)
    a = Mat2.from_rows([r[:inner] + [0] * (inner - len(r)) for r in a_rows], ncols=inner)
    b = Mat2.from_rows(b_rows)
    assert exterior_power(a @ b, q) == exterior_power(a, q) @ exterior_power(b, q)


def seeded_matrices(rng: random.Random) -> List[Mat2]:
    """Full, rank-deficient and zero-row matrices up to 8 x 8."""
    out = []
    for nrows, ncols in [(8, 8), (7, 8), (8, 6), (5, 5), (3, 7), (6, 2), (1, 8), (0, 4), (4, 0)]:
        full = Mat2(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
        low = rng.randint(0, min(nrows, ncols))  # a product through a rank-`low` space
        thin = Mat2(low, ncols, [rng.getrandbits(ncols) for _ in range(low)])
        picks = Mat2(nrows, low, [rng.getrandbits(low) for _ in range(nrows)])
        holes = list(full.rows)
        for i in rng.sample(range(nrows), nrows // 2):
            holes[i] = 0
        out += [full, picks @ thin, Mat2(nrows, ncols, holes)]
    return out


def test_exterior_powers_are_minors_of_seeded_matrices():
    for m in seeded_matrices(random.Random(13)):
        powers = exterior_powers(m)
        assert len(powers) == max(m.nrows, m.ncols) + 1
        for q in range(max(m.nrows, m.ncols) + 3):  # past both sizes
            power = exterior_power(m, q)
            assert (power.nrows, power.ncols) == (comb(m.nrows, q), comb(m.ncols, q))
            assert to_lists(power) == minors_mod2(m, q), (m, q)
            if q < len(powers):
                assert powers[q] == power


def test_exterior_degenerate_cases():
    m = Mat2.from_rows([[1, 0, 1], [0, 1, 1]])
    assert exterior_power(m, 0) == Mat2.from_rows([[1]])
    assert exterior_power(m, 1) == m
    eye = identity(4)
    assert exterior_power(eye, 2) == identity(6)


def test_exterior_power_rejects_negative_degree():
    # an explicit error, so that python -O cannot let q = -1 index from the end
    with pytest.raises(ValueError, match="negative degree -1"):
        exterior_power(identity(2), -1)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_assemble_blocks_matches_dense(row_dims, col_dims, rng):
    blocks = {}
    for bi, rd in enumerate(row_dims):
        for bj, cd in enumerate(col_dims):
            if rng.random() < 0.6:
                blocks[(bi, bj)] = Mat2.from_rows(
                    [[rng.randint(0, 1) for _ in range(cd)] for _ in range(rd)]
                )
    out = assemble_blocks(row_dims, col_dims, blocks)
    dense = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
    for (bi, bj), blk in blocks.items():
        r0 = sum(row_dims[:bi])
        c0 = sum(col_dims[:bj])
        for i in range(blk.nrows):
            for j in range(blk.ncols):
                dense[r0 + i][c0 + j] = entry(blk, i, j)
    assert to_lists(out) == dense


def test_assemble_blocks_rejects_bad_shape():
    with pytest.raises(AssertionError):
        assemble_blocks([2], [2], {(0, 0): identity(3)})


def test_chain_complex_rejects_nonzero_composition():
    # ChainComplex checks shapes only; the dense reference rejects d o d != 0
    eye = identity(2)
    cc = ChainComplex([2, 2, 2], [eye, eye])
    with pytest.raises(AssertionError, match="^d o d != 0 between degrees 2 and 0$"):
        dense_d_o_d(cc.boundaries)


def test_chain_complex_rejects_bad_shapes():
    with pytest.raises(AssertionError):
        ChainComplex([2, 3], [identity(2)])


def test_chain_complex_known_homology():
    # short exact: 0 -> F2 -> F2^2 -> F2 -> 0 has no homology
    d0 = Mat2.from_rows([[1, 0]])
    d1 = Mat2.from_rows([[0], [1]])
    assert ChainComplex([1, 2, 1], [d0, d1]).homology_dims() == [0, 0, 0]
    # zero boundaries: homology equals the chain dimensions
    zero = Mat2(3, 3)
    cc = ChainComplex([3, 3], [zero])
    assert cc.homology_dims() == [3, 3]
    assert total_dim(cc) == 6
    # identity boundary: acyclic in both degrees
    assert ChainComplex([2, 2], [identity(2)]).homology_dims() == [0, 0]


@given(bit_matrix(max_rows=5, max_cols=5), bit_matrix(max_rows=5, max_cols=5))
def test_chain_complex_euler_characteristic(a_rows, b_rows):
    # build d1 = A and d2 = ker(A) @ B so the composition vanishes
    a = Mat2.from_rows(a_rows)
    k = brute_kernel(a_rows)
    b = Mat2.from_rows(
        [r[: len(b_rows[0])] for r in b_rows[: k.ncols]]
        + [[0] * len(b_rows[0])] * max(0, k.ncols - len(b_rows)),
        ncols=len(b_rows[0]),
    )
    d2 = k @ b
    cc = ChainComplex([a.nrows, a.ncols, d2.ncols], [a, d2])
    h = cc.homology_dims()
    euler_chain = cc.dims[0] - cc.dims[1] + cc.dims[2]
    euler_homology = h[0] - h[1] + h[2]
    assert euler_chain == euler_homology
    assert all(x >= 0 for x in h)
