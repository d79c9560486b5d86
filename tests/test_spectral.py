"""Page tables, the real cellular complex, and the filtered/orbit comparison."""
from __future__ import annotations

import gc
import random
import tracemalloc
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import add

import hypothesis.strategies as st
import pytest
from conftest import (
    FANS,
    apply_unimodular,
    mat_mul,
    minors_mod2,
    oracle_fans,
    perfbench_inputs,
    relabel_rays,
    sampled_fans,
)
from oracles import (
    cone_index,
    cone_vectors,
    dense_d_o_d,
    entry,
    exterior_power,
    induced_projection_mod2,
    is_zero,
    nonzero,
    quotient_with_section,
    rightmost_column_split,
    submatrix,
    y_basis_change,
)
from hypothesis import given, seed, settings

from realtoric import spectral
from realtoric.analysis import m_verdict
from realtoric.constructions import (
    affine_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    same_mod2_surface_fan,
    torus_fan,
    weighted_projective_fan,
)
from realtoric.fan import Fan, read_json
from realtoric.gf2 import CrossCheckFailed, Mat2, exterior_powers
from realtoric.orbitalg import augmentation_filtration_dims, group_algebra_map
from realtoric.spectral import (
    betti_real,
    complex_position_of_real,
    e1_page,
    e2_dims,
    g_pages,
    real_complex,
    real_position_of_complex,
)

SMALL_FANS = lambda: [
    projective_space_fan(1),
    projective_space_fan(2),
    projective_space_fan(3),
    hirzebruch_fan(2),
    weighted_projective_fan(1, 1, 2),
    same_mod2_surface_fan(4),
    torus_fan(2),
    affine_fan(2, [(1, 0), (1, 2)]),
    product_fan(projective_space_fan(1), projective_space_fan(1)),
]


def random_sample(count: int = 24):
    fans = []
    for i in range(count):
        rank = 1 + i % 3
        profile = ("complete", "subfan", "affine")[(i // 3) % 3]
        fans.append(random_fan(rank, 1000 + i, profile))
    return fans


def gate_fans():
    """The fans the blockwise d o d gate and the cleared reduction are
    compared on: oracle_fans() (every fans/*.json among them), the random
    sample, and P^1 to the sixth."""
    return oracle_fans() + random_sample() + [reduce(product_fan, [projective_space_fan(1)] * 6)]


def test_positions_are_inverse_bijections():
    for p in range(-6, 7):
        for q in range(-6, 13):
            assert complex_position_of_real(*real_position_of_complex(p, q)) == (p, q)
            assert real_position_of_complex(*complex_position_of_real(p, q)) == (p, q)


def test_e1_page_of_projective_line():
    fan = projective_space_fan(1)
    table = e1_page(fan)
    assert sorted(table.entries.items()) == [((0, 0), 2), ((1, 0), 1), ((1, 1), 1)]
    assert table.total() == 4
    assert [table.get(p, 0) for p in range(2)] == [2, 1]
    assert [table.get(p, 1) for p in range(2)] == [0, 1]
    # row 0 has one boundary, 2 x 1; row 1 has none with a row
    assert [(p, q, b.nrows, b.ncols) for p, q, b in spectral._e1_boundaries(fan)] == [(1, 0, 2, 1)]


def test_e2_page_of_projective_line():
    table = e2_dims(projective_space_fan(1))
    assert sorted(table.entries.items()) == [((0, 0), 1), ((1, 0), 0), ((1, 1), 1)]
    assert table.total() == 2


def test_e1_dims_formula():
    for fan in SMALL_FANS():
        table = e1_page(fan)
        for p in range(fan.rank + 1):
            for q in range(p + 1):
                assert table.get(p, q) == len(fan.strata[p]) * comb(p, q)


def test_e_page_support_triangle():
    for fan in SMALL_FANS():
        n = fan.rank
        want = {(p, q) for p in range(n + 1) for q in range(p + 1)}
        table = e1_page(fan)
        assert set(table.entries) == want
        assert set(e2_dims(fan).entries) == want


def test_g_page_support_second_quadrant():
    for fan in SMALL_FANS():
        n = fan.rank
        want = {(-k, m + k) for k in range(n + 1) for m in range(k, n + 1)}
        g0, g1 = g_pages(fan)
        assert set(g0.entries) == want
        assert set(g1.entries) == want


def test_real_complex_dimensions_and_blocks():
    fan = projective_space_fan(2)
    rc = real_complex(fan)
    assert rc.dims == [3, 6, 4]
    placed = list(spectral._real_boundaries(fan))
    for b, row_levels, col_levels in placed:
        assert (b.nrows, b.ncols) == (len(row_levels), len(col_levels))
    for p, levels in enumerate([placed[0][1]] + [cols for _, _, cols in placed]):
        assert len(levels) == rc.dims[p]
        assert levels == sorted(levels, reverse=True)
        for k in range(p + 1):
            assert levels.count(k) == len(fan.strata[p]) * comb(p, k)


def test_betti_real_known_values():
    assert betti_real(projective_space_fan(1)) == [1, 1]
    assert betti_real(projective_space_fan(2)) == [1, 1, 1]
    assert betti_real(torus_fan(1)) == [0, 2]
    assert betti_real(torus_fan(2)) == [0, 0, 4]
    assert betti_real(affine_fan(1, [(1,)])) == [0, 1]
    assert betti_real(affine_fan(2, [(1, 0), (0, 1)])) == [0, 0, 1]
    p1 = projective_space_fan(1)
    assert betti_real(product_fan(p1, p1)) == [1, 2, 1]
    assert betti_real(same_mod2_surface_fan(4)) == [1, 3, 2]


def test_q0_row_of_e2_for_complete_fans():
    for fan in SMALL_FANS():
        if not fan.is_complete():
            continue
        e2 = e2_dims(fan)
        assert e2.get(0, 0) == 1
        for p in range(1, fan.rank + 1):
            assert e2.get(p, 0) == 0


def test_transpose_identity_on_examples_and_random_fans():
    for fan in SMALL_FANS() + random_sample():
        e1 = e1_page(fan)
        e2 = e2_dims(fan)
        g0, g1 = g_pages(fan)
        for (p, q), d in e1.entries.items():
            assert g0.get(*real_position_of_complex(p, q)) == d
        for (p, q), d in g1.entries.items():
            assert d == e2.get(*complex_position_of_real(p, q))
        for (p, q), d in e2.entries.items():
            assert d == g1.get(*real_position_of_complex(p, q))
        assert e2.total() == g1.total()


def test_betti_sum_bounded_by_page_total():
    for fan in SMALL_FANS() + random_sample(12):
        _, g1 = g_pages(fan)
        assert sum(betti_real(fan)) <= g1.total()


def test_g0_dims_refine_real_complex_dims():
    for fan in SMALL_FANS():
        rc = real_complex(fan)
        g0, _ = g_pages(fan)
        for m in range(fan.rank + 1):
            total = sum(g0.get(-k, m + k) for k in range(fan.rank + 1))
            assert total == rc.dims[m]


def test_rightmost_column_split_everywhere():
    for fan in SMALL_FANS() + random_sample():
        assert rightmost_column_split(fan)


def test_pages_invariant_under_relabeling_and_unimodular_change():
    rng = random.Random(5150)
    for fan in [projective_space_fan(2), weighted_projective_fan(1, 1, 2), random_fan(3, 77)]:
        base_e2 = e2_dims(fan).entries
        base_g1 = g_pages(fan)[1].entries
        base_b = betti_real(fan)
        for _ in range(3):
            other = relabel_rays(fan, rng)
            assert e2_dims(other).entries == base_e2
            assert g_pages(other)[1].entries == base_g1
            assert betti_real(other) == base_b
        for _ in range(3):
            other = apply_unimodular(fan, rng)
            assert e2_dims(other).entries == base_e2
            assert g_pages(other)[1].entries == base_g1
            assert betti_real(other) == base_b


def _graded(fan):
    """The non-zero entries of betti_real, E2 and G1, each keyed by its
    degree as a tuple."""
    return [
        {(i,): d for i, d in enumerate(betti_real(fan)) if d},
        {k: d for k, d in e2_dims(fan).entries.items() if d},
        {k: d for k, d in g_pages(fan)[1].entries.items() if d},
    ]


def _tensor(a, b):
    """The graded dimensions of a tensor product over GF(2): the
    convolution of the factors', degrees added coordinate by coordinate."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = tuple(map(add, i, j))
            out[k] = out.get(k, 0) + x * y
    return out


def test_products_follow_kunneth(cyclic_fan):
    # The real points of a product are the product of the factors' real
    # points, and the real complex and both filtrations are the tensor
    # products of the factors', so over GF(2) every entry of betti_real, E2
    # and G1 is a convolution of the factors' entries; a product of
    # M-varieties is one.  Each product is moved by a unimodular map and its
    # rays relabelled, so no coordinate or ray order shows its factors.
    profiles = ("complete", "subfan", "affine")
    factors = [random_fan(rank, 700 + 3 * rank + j, profile)
               for rank in (1, 2, 3) for j, profile in enumerate(profiles)]
    factors += [torus_fan(1), torus_fan(2)]
    pairs = list(combinations_with_replacement(factors, 2))
    pairs.append((cyclic_fan, projective_space_fan(1)))
    rng = random.Random(4242)
    for f, g in pairs:
        prod = relabel_rays(apply_unimodular(product_fan(f, g), rng), rng)
        assert _graded(prod) == list(map(_tensor, _graded(f), _graded(g))), prod.name
        assert m_verdict(prod).status == "CertifiedM", prod.name


def test_boundaries_compose_to_zero_explicitly():
    for fan in SMALL_FANS():
        real = [b for b, _, _ in spectral._real_boundaries(fan)]
        for a, b in zip(real, real[1:]):
            assert is_zero(a @ b)
        e1 = {(p, q): b for p, q, b in spectral._e1_boundaries(fan)}
        for (p, q), b in e1.items():
            if (p + 1, q) in e1:
                assert is_zero(b @ e1[p + 1, q])


def test_page_table_interface():
    fan = projective_space_fan(2)
    e2 = e2_dims(fan)
    assert e2.get(99, 99) == 0
    triples = e2.triples()
    assert triples == sorted(triples)
    assert sum(d for _, _, d in triples) == e2.total()
    assert all(d for _, _, d in nonzero(e2))


def per_pair_boundary(fan, p, row_size, col_size, block):
    """Degree-p boundary built entry by entry from block(m) of every facet
    pair, with m the integer induced projection reduced mod 2: the build's
    P of the larger cone times the reference's integer section R of the
    smaller."""
    src, dst = fan.strata[p], fan.strata[p - 1]
    out = Mat2(row_size * len(dst), col_size * len(src))
    for si, ti in fan.facet_pairs():
        if si not in src:
            continue
        proj = fan.orbit_projection(ti)
        sect = quotient_with_section(fan.rank, cone_vectors(fan, si))[1]
        m = Mat2.from_rows(mat_mul(proj, sect), ncols=len(sect[0]))
        b = block(m)
        row0, col0 = dst.index(ti) * row_size, src.index(si) * col_size
        for i in range(b.nrows):
            for j in range(b.ncols):
                if entry(b, i, j):
                    out.rows[row0 + i] |= 1 << (col0 + j)
    return out


def block_diagonal(m, count):
    out = Mat2(m.nrows * count, m.ncols * count)
    for c in range(count):
        for i, r in enumerate(m.rows):
            out.rows[c * m.nrows + i] = r << (c * m.ncols)
    return out


def level_coordinates(fan, p, k):
    """Coordinates of the level-k y-basis elements in the degree-p term of
    the cone-by-cone complex, subset by subset in combinations order, each
    subset's cones in stratum order."""
    return [
        (j << p) + sum(1 << i for i in c)
        for c in combinations(range(p), k)
        for j in range(len(fan.strata[p]))
    ]


def filtration_order(fan, p):
    """The degree-p coordinates of the cone-by-cone complex in the real
    complex's order: level p first, down to level 0."""
    return [i for k in range(p, -1, -1) for i in level_coordinates(fan, p, k)]


def slot_order(fan, p, size):
    """The degree-p coordinates of the cone-by-cone complex with size slots
    per cone in the E1 row complexes' order: slot by slot, then cone."""
    return [c * size + s for s in range(size) for c in range(len(fan.strata[p]))]


def test_shared_blocks_match_per_pair_assembly():
    for fan in oracle_fans():
        n = fan.rank
        e1 = {(p, q): b for p, q, b in spectral._e1_boundaries(fan)}
        real = [b for b, _, _ in spectral._real_boundaries(fan)]
        zeta = [block_diagonal(y_basis_change(p), len(fan.strata[p])) for p in range(n + 1)]
        for p in range(1, n + 1):
            for q in range(n + 1):
                d = per_pair_boundary(
                    fan, p, comb(p - 1, q), comb(p, q), lambda m: exterior_power(m, q)
                )
                want = submatrix(
                    d, slot_order(fan, p - 1, comb(p - 1, q)), slot_order(fan, p, comb(p, q))
                )
                # row q has no degree-p boundary to place unless q < p
                assert e1[p, q] == want if q < p else want.nrows == 0, (fan, p, q)
            d = per_pair_boundary(fan, p, 1 << (p - 1), 1 << p, group_algebra_map)
            conj = zeta[p - 1] @ d @ zeta[p]
            want = submatrix(conj, filtration_order(fan, p - 1), filtration_order(fan, p))
            assert real[p - 1] == want, (fan, p)
        assert len(e1) == n * (n + 1) // 2 and len(real) == n


def test_e2_is_the_homology_of_the_per_pair_rows():
    # E2 is each E1 row's dims less the ranks of its boundaries on either
    # side, here of the rows assembled pair by pair from the integer
    # projections; and each row's Euler characteristic is its E1 terms'
    for fan in SMALL_FANS() + random_sample():
        n = fan.rank
        e1, e2 = e1_page(fan), e2_dims(fan)
        for q in range(n + 1):
            ranks = [0] * (n + 2)
            for p in range(q + 1, n + 1):
                ranks[p] = per_pair_boundary(
                    fan, p, comb(p - 1, q), comb(p, q), lambda m: exterior_power(m, q)
                ).rank()
            for p in range(q, n + 1):
                assert e2.get(p, q) == e1.get(p, q) - ranks[p] - ranks[p + 1], (fan, p, q)
            euler = [sum((-1) ** p * page.get(p, q) for p in range(n + 1)) for page in (e1, e2)]
            assert euler[0] == euler[1], (fan, q)


def level_range(fan, p, q):
    """The level-q coordinates of degree p of the real complex, after the
    cells of the levels above q."""
    n = len(fan.strata[p])
    start = n * augmentation_filtration_dims(p)[q + 1]
    return range(start, start + n * comb(p, q))


def test_each_e1_row_is_a_diagonal_block_of_the_real_complex():
    # the E1 row q in degree p is laid out like the level-q coordinates of
    # the real complex, and its boundary is their diagonal block entry for
    # entry: a statement stronger than E2 = G1, which compares ranks only
    blocks = 0
    for fan in oracle_fans() + [reduce(product_fan, [projective_space_fan(1)] * 6)]:
        e1 = {(p, q): b for p, q, b in spectral._e1_boundaries(fan)}
        real = [b for b, _, _ in spectral._real_boundaries(fan)]
        for p in range(1, fan.rank + 1):
            for q in range(p):
                want = submatrix(real[p - 1], level_range(fan, p - 1, q), level_range(fan, p, q))
                assert e1[p, q] == want, (fan, p, q)
                blocks += 1
    assert blocks > 342  # 342 on oracle_fans() alone


def test_exterior_powers_of_every_distinct_projection_are_minors():
    for fan in oracle_fans():
        for groups in spectral._projection_groups(fan):
            for m, _ in groups:
                for q, power in enumerate(exterior_powers(m)):
                    rows = [[entry(power, i, j) for j in range(power.ncols)] for i in range(power.nrows)]
                    assert rows == minors_mod2(m, q), (fan, m, q)


def test_y_block_is_the_group_algebra_map_in_the_y_basis():
    rng = random.Random(17)
    for nrows in range(8):
        for ncols in range(9):
            m = Mat2(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
            want = y_basis_change(nrows) @ group_algebra_map(m) @ y_basis_change(ncols)
            assert spectral._y_block(m) == want, m


def per_pair_groups(fan):
    """`_projection_groups` rebuilt pair by pair: each pair's projection is
    the integer product of the build's P and the reference's integer
    section R, reduced mod 2, grouped by its rows in order of first
    appearance."""
    pos = {ci: j for stratum in fan.strata for j, ci in enumerate(stratum)}
    quotients = [
        quotient_with_section(fan.rank, cone_vectors(fan, ci)) for ci in range(len(fan.cones))
    ]
    groups = [{} for _ in fan.strata]
    for si, ti in fan.facet_pairs():
        proj, sect = quotients[si]
        m = Mat2.from_rows(mat_mul(fan.orbit_projection(ti), sect), ncols=len(proj))
        groups[len(proj)].setdefault(m, []).append((pos[ti], pos[si]))
    return [list(g.items()) for g in groups]


def test_projection_groups_match_the_per_pair_integer_grouping(cyclic_fan):
    # every cone's mod-2 section R is a right inverse of its P mod 2, and
    # some differ from the integer section mod 2, yet every projection,
    # every group and every position is that of the integer products
    fans = sampled_fans(cyclic_fan) + [
        random_fan(rank, seed, profile)
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(10)
    ] + [perfbench_inputs.build_fan(label) for label in perfbench_inputs.LARGE_FANS]
    assert len(fans) == 384 + 90 + 5
    differs = 0
    for fan in fans:
        assert spectral._projection_groups(fan) == per_pair_groups(fan), fan
        for ci in range(len(fan.cones)):
            proj, sect = quotient_with_section(fan.rank, cone_vectors(fan, ci))
            assert proj == fan.orbit_projection(ci)
            rows = spectral._right_inverse(Mat2.from_rows(proj, ncols=fan.rank).rows, fan.rank)
            mod2 = [[r >> k & 1 for k in range(len(proj))] for r in rows]
            eye = [[int(i == j) for j in range(len(proj))] for i in range(len(proj))]
            assert [[x % 2 for x in row] for row in mat_mul(proj, mod2)] == eye, (fan, ci)
            differs += mod2 != [[x % 2 for x in row] for row in sect]
    assert differs


def test_one_product_per_distinct_projection_and_section(monkeypatch):
    # cyclic57 has 336 facet pairs and p1^6 2,916, but few distinct
    # (P of the larger cone, mod-2 section of the smaller) among them
    mul_rows = spectral._mul_rows
    made = []
    monkeypatch.setattr(spectral, "_mul_rows", lambda a, b: made.append(1) or mul_rows(a, b))
    counts = {}
    for label in perfbench_inputs.LARGE_FANS:
        fan = perfbench_inputs.build_fan(label)
        del made[:]
        spectral._projection_groups(fan)
        counts[label] = (len(fan.facet_pairs()), len(made))
    assert counts == {
        "cyclic57": (336, 10), "p6": (441, 389), "p7": (1016, 925),
        "p2xp2xp1": (476, 125), "p1^6": (2916, 192),
    }


def test_surjectivity_is_checked_once_per_distinct_projection(monkeypatch):
    fan = projective_space_fan(3)
    checked = []
    rank = spectral._rank
    monkeypatch.setattr(spectral, "_rank", lambda rows: checked.append(rows) or rank(rows))
    groups = spectral._projection_groups(fan)
    assert len(checked) == sum(len(g) for g in groups) < len(fan.facet_pairs())
    assert sorted(checked) == sorted(tuple(m.rows) for g in groups for m, _ in g)


def test_shared_projection_that_loses_rank_is_caught():
    # the last ray's mod-2 section has no entry in row 2, so the projection
    # (0, 0, 1), given to the 2-cones on rays {0, 3} and {1, 3}, kills it:
    # their pairs with the ray share one (P, R) key and one zero product,
    # met after the pairs of rays 0 and 1 with those cones were checked
    fan = projective_space_fan(3)
    ray = cone_index(fan, [3])
    assert spectral._right_inverse(Mat2.from_rows(fan.orbit_projection(ray)).rows, 3)[2] == 0
    cones = [cone_index(fan, [0, 3]), cone_index(fan, [1, 3])]
    for ci in cones:
        fan.orbit_projection(ci)[0][:] = [0, 0, 1]
    gate = f"^induced projection {ray} -> {cones[0]} is not surjective$"
    with pytest.raises(CrossCheckFailed, match=gate):
        spectral._projection_groups(fan)


def test_facet_pair_off_the_face_lattice_is_caught(monkeypatch):
    fan = projective_space_fan(2)
    ray, cone = cone_index(fan, [0]), cone_index(fan, [1, 2])
    pairs = fan.facet_pairs() + [(ray, cone)]
    monkeypatch.setattr(Fan, "facet_pairs", lambda self: pairs)
    gate = f"^cone {ray} is not a face of cone {cone}$"
    with pytest.raises(CrossCheckFailed, match=gate):
        spectral._projection_groups(fan)
    with pytest.raises(CrossCheckFailed, match=gate):
        induced_projection_mod2(fan, ray, cone)


def level_block(b, row_levels, col_levels, k):
    """The level-k diagonal block of the boundary b."""
    rows = [i for i, level in enumerate(row_levels) if level == k]
    cols = [i for i, level in enumerate(col_levels) if level == k]
    return submatrix(b, rows, cols)


def test_pivots_count_the_ranks_of_each_boundary_and_graded_piece():
    for fan in oracle_fans() + random_sample():
        rc = real_complex(fan)
        for p, (b, *levels) in enumerate(spectral._real_boundaries(fan), 1):
            pivots = rc.pivot_levels[p - 1]
            assert sum(pivots.values()) == b.rank(), (fan, p)
            for k in range(p + 1):
                assert pivots[k, k] == level_block(b, *levels, k).rank(), (fan, p, k)


def flip_level_raising_entry(monkeypatch, fan):
    """Make the real complex of fan read the y-basis block of its first
    degree-2 projection with its (row level 1, column level 0) entry
    flipped: the filtration allows that entry, and no graded piece holds it."""
    first = spectral._projection_groups(fan)[2][0][0]
    y_block = spectral._y_block

    def flipped(m):
        b = y_block(m)
        if m is first:
            b.rows[1] ^= 1
        return b

    monkeypatch.setattr(spectral, "_y_block", flipped)


def test_off_diagonal_entry_is_checked_by_d_o_d(monkeypatch):
    # only d o d on the full filtered boundaries can see the flipped entry
    fan = projective_space_fan(3)
    flip_level_raising_entry(monkeypatch, fan)
    with pytest.raises(CrossCheckFailed, match="^d o d != 0 between degrees 3 and 1$"):
        real_complex(fan)


def test_off_diagonal_entry_breaks_the_unit_split_only(monkeypatch):
    # in rank 2 the degree-0 rows all have level 0, so the flipped entry
    # keeps d o d = 0; it couples a level-0 column to a level-1 row
    base = projective_space_fan(2)
    betti, g1 = betti_real(base), g_pages(base)[1].entries
    assert rightmost_column_split(base)
    fan = projective_space_fan(2)
    flip_level_raising_entry(monkeypatch, fan)
    assert not rightmost_column_split(fan)
    assert g_pages(fan)[1].entries == g1
    assert betti_real(fan) == betti


def test_reduction_counts_pivots_by_level():
    # rows 0 and 1 have level 1, row 2 level 0; columns 0 and 1 level 1,
    # column 2 level 0.  Row 1's pivot is column 0; row 0 reduced by row 1
    # leaves column 2, a pivot one level down; row 2 is zero.
    b = Mat2.from_rows([[1, 0, 0], [1, 0, 1], [0, 0, 0]])
    assert spectral._reduce(b, [1, 1, 0], [1, 1, 0]) == {(1, 1): 1, (1, 0): 1}


@st.composite
def filtered_matrix(draw):
    """A matrix with row and column levels in decreasing order, in which a
    row of level k has no entry in a column of level above k."""
    top = draw(st.integers(1, 3))
    levels = st.lists(st.integers(0, top), min_size=2, max_size=10)
    row_levels = sorted(draw(levels), reverse=True)
    col_levels = sorted(draw(levels), reverse=True)
    rows = []
    for k in row_levels:
        allowed = sum(1 << j for j, level in enumerate(col_levels) if level <= k)
        rows.append(draw(st.integers(0, (1 << len(col_levels)) - 1)) & allowed)
    return Mat2(len(row_levels), len(col_levels), rows), row_levels, col_levels


@seed(3000)
@settings(max_examples=300)
@given(filtered_matrix(), st.data())
def test_reduction_counts_do_not_depend_on_the_order_within_a_level(filtered, data):
    # the real complex lists each level by subset, then cone; any order
    # inside the levels must give the same pivot counts
    b, row_levels, col_levels = filtered
    within = lambda levels: sorted(
        data.draw(st.permutations(range(len(levels)))), key=lambda i: -levels[i]
    )
    row_order, col_order = within(row_levels), within(col_levels)
    moved = Mat2(b.nrows, b.ncols, [
        sum(1 << j for j, c in enumerate(col_order) if entry(b, i, c)) for i in row_order
    ])
    assert spectral._reduce(moved, row_levels, col_levels) == spectral._reduce(
        b, row_levels, col_levels
    )


def test_blockwise_d_o_d_passes_where_the_dense_reference_does():
    for fan in gate_fans():
        e1 = {(p, q): b for p, q, b in spectral._e1_boundaries(fan)}
        for q in range(fan.rank):
            dense_d_o_d([e1[p, q] for p in range(q + 1, fan.rank + 1)])
        dense_d_o_d([b for b, _, _ in spectral._real_boundaries(fan)])


def test_signature_sums_are_the_blocks_of_the_dense_composition():
    # random blocks of one size per degree: the non-zero sums, one per
    # distinct signature, are the distinct non-zero blocks of the dense
    # product of the boundaries assembled from those blocks
    rng = random.Random(1919)
    for fan in gate_fans():
        groups = spectral._projection_groups(fan)
        size = [rng.randint(1, 3) for _ in range(fan.rank + 1)]
        blocks = [
            [Mat2(size[p - 1], size[p], [rng.getrandbits(size[p]) for _ in range(size[p - 1])])
             for _ in groups[p]] if p else []
            for p in range(fan.rank + 1)
        ]
        # the boundaries, cone-major: block (a, c) at rows a * size[p - 1]
        # and columns c * size[p]
        boundaries = []
        for p in range(1, fan.rank + 1):
            d = Mat2(size[p - 1] * len(fan.strata[p - 1]), size[p] * len(fan.strata[p]))
            for b, (_, where) in zip(blocks[p], groups[p]):
                for a, c in where:
                    for t, r in enumerate(b.rows):
                        d.rows[a * size[p - 1] + t] |= r << c * size[p]
            boundaries.append(d)
        sums = {}
        for p, total in spectral._composition_sums(fan, [[b.rows for b in bs] for bs in blocks]):
            sums.setdefault(p, set()).add(tuple(total))
        for p in range(1, fan.rank):
            dense = boundaries[p - 1] @ boundaries[p]
            want = {
                tuple(r >> (c * size[p + 1]) & ((1 << size[p + 1]) - 1)
                      for r in dense.rows[a * size[p - 1]:(a + 1) * size[p - 1]])
                for a in range(len(fan.strata[p - 1]))
                for c in range(len(fan.strata[p + 1]))
            }
            zero = (0,) * size[p - 1]
            assert sums.get(p, set()) - {zero} == want - {zero}, (fan, p)


MUTATED_FANS = [
    lambda: projective_space_fan(2),
    lambda: projective_space_fan(3),
    lambda: hirzebruch_fan(2),
    lambda: reduce(product_fan, [projective_space_fan(1)] * 3),
    lambda: read_json(str(FANS / "cyclic57.json")),
]


def gate_message(compute):
    """The CrossCheckFailed message of compute(), or None if it passes."""
    try:
        compute()
    except CrossCheckFailed as exc:
        return str(exc)
    return None


def test_flipped_exterior_power_entry_fails_where_the_dense_reference_does(monkeypatch):
    # one entry of one exterior power of one distinct projection, shared by
    # every facet pair with that projection; the reference assembles the
    # boundaries pair by pair from the integer projections
    powers = spectral.exterior_powers
    fired = cases = 0
    for make in MUTATED_FANS:
        base = make()
        for p, groups in enumerate(spectral._projection_groups(base)):
            for g, (target, _) in enumerate(groups):
                for q in range(p):
                    fan = make()
                    first = spectral._projection_groups(fan)[p][g][0]

                    def flipped(m, first=first, q=q):
                        out = powers(m)
                        if m is first:
                            out[q].rows[0] ^= 1
                        return out

                    def reference(m, target=target, q=q):
                        out = exterior_power(m, q)
                        if m == target:
                            out.rows[0] ^= 1
                        return out

                    def dense():
                        for k in range(fan.rank + 1):
                            block = reference if k == q else lambda m, k=k: exterior_power(m, k)
                            dense_d_o_d([
                                per_pair_boundary(fan, d, comb(d - 1, k), comb(d, k), block)
                                for d in range(1, fan.rank + 1)
                            ])

                    want = gate_message(dense)
                    monkeypatch.setattr(spectral, "exterior_powers", flipped)
                    assert gate_message(lambda: e1_page(fan)) == want, (fan, p, g, q)
                    monkeypatch.undo()
                    fired += want is not None
                    cases += 1
    assert fired > 20 and cases - fired > 20


def test_flipped_y_block_entry_fails_where_the_dense_reference_does(monkeypatch):
    # in the level-0 column of one distinct projection's y block, the entry
    # of the level-0 row or of the top row, both allowed by the filtration
    y_block = spectral._y_block
    fired = cases = 0
    for make in MUTATED_FANS:
        base = make()
        for p, groups in enumerate(spectral._projection_groups(base)):
            for (g, (target, _)), row in product(enumerate(groups), (0, -1)):
                fan = make()
                first = spectral._projection_groups(fan)[p][g][0]

                def flipped(m, first=first, row=row):
                    out = y_block(m)
                    if m is first:
                        out.rows[row] ^= 1
                    return out

                def reference(m, target=target, row=row):
                    out = y_block(m)
                    if m == target:
                        out.rows[row] ^= 1
                    return out

                want = gate_message(lambda: dense_d_o_d([
                    per_pair_boundary(fan, d, 1 << (d - 1), 1 << d, reference)
                    for d in range(1, fan.rank + 1)
                ]))
                monkeypatch.setattr(spectral, "_y_block", flipped)
                assert gate_message(lambda: real_complex(fan)) == want, (fan, p, g, row)
                monkeypatch.undo()
                fired += want is not None
                cases += 1
    assert fired > 20 and cases - fired > 20


def test_cleared_reduction_counts_as_the_full_one():
    for fan in gate_fans():
        full = [spectral._reduce(*placed) for placed in spectral._real_boundaries(fan)]
        assert real_complex(fan).pivot_levels == full, fan


def test_the_memo_keeps_counts_not_boundaries():
    # what the pages leave in the per-fan memo of (P^1)^7 is what clearing
    # the memo frees; with every placed boundary kept it was 8.6 MB
    fan = reduce(product_fan, [projective_space_fan(1)] * 7)
    tracemalloc.start()
    try:
        m_verdict(fan)
        g_pages(fan)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        fan._memo.clear()
        gc.collect()
        memo = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert memo <= 2.5e6, memo
