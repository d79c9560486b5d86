"""Orbit lattices and the filtered mod-2 group algebra."""
from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import List

import hypothesis.strategies as st
from conftest import mat_mul, mat_vec, oracle_fans
from hypothesis import given
from oracles import (
    GroupAlgebraElement,
    cone_index,
    cone_vectors,
    diagonal_class_check,
    entry,
    exterior_power,
    faces_of,
    graded_piece_basis,
    identity,
    induced_projection_mod2,
    mul_vec,
    orbit_lattice,
    quotient_with_section,
    submatrix,
    torus_homology_dims,
    y_basis_change,
    y_coords,
)

from realtoric.constructions import projective_space_fan, weighted_projective_fan
from realtoric.gf2 import Mat2
from realtoric.intlin import identity as int_identity
from realtoric.orbitalg import augmentation_filtration_dims, group_algebra_map


def span_dim(vectors: List[int]) -> int:
    """Dimension of the GF(2) span of int-bitset vectors."""
    table = {}
    dim = 0
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in table:
                v ^= table[h]
            else:
                table[h] = v
                dim += 1
                break
    return dim


def reduces_to_zero(v: int, vectors: List[int]) -> bool:
    table = {}
    for w in vectors:
        while w:
            h = w.bit_length() - 1
            if h in table:
                w ^= table[h]
            else:
                table[h] = w
                break
    while v:
        h = v.bit_length() - 1
        if h not in table:
            return False
        v ^= table[h]
    return True


def basis_of(vectors: List[int]) -> List[int]:
    table = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in table:
                v ^= table[h]
            else:
                table[h] = v
                break
    return list(table.values())


def ideal_power_bases(rank: int, top: int) -> List[List[int]]:
    """Bases of I^0..I^top built from products of augmentation generators,
    reduced to a basis after every multiplication round."""
    gens = [GroupAlgebraElement(rank, (1 << g) | 1) for g in range(1, 1 << rank)]
    out = [[1 << g for g in range(1 << rank)]]
    current = [GroupAlgebraElement(rank, b) for b in out[0]]
    for _ in range(top):
        bits = basis_of([(a * b).bits for a in current for b in gens])
        out.append(bits)
        current = [GroupAlgebraElement(rank, b) for b in bits]
    return out


def test_orbit_lattice_basic_properties():
    # the build's P with the reference's integer section R
    fan = projective_space_fan(3)
    for ci in range(len(fan.cones)):
        proj = fan.orbit_projection(ci)
        sect = quotient_with_section(fan.rank, cone_vectors(fan, ci))[1]
        codim = fan.rank - fan.cones[ci].dim
        assert len(proj) == codim
        assert mat_mul(proj, sect) == int_identity(codim)
        for v in cone_vectors(fan, ci):
            assert mat_vec(proj, v) == [0] * codim
        mod2, section_mod2 = orbit_lattice(fan, ci)
        assert mod2 @ section_mod2 == identity(codim)
        # the build's list: the same object comes back
        assert fan.orbit_projection(ci) is proj


def test_induced_projection_composes_along_face_chains():
    for fan in (projective_space_fan(3), weighted_projective_fan(1, 1, 2)):
        for ti, cone in enumerate(fan.cones):
            for mi in faces_of(fan, ti):
                for si in faces_of(fan, mi):
                    if si == mi or mi == ti:
                        continue
                    direct = induced_projection_mod2(fan, si, ti)
                    step = induced_projection_mod2(fan, mi, ti) @ induced_projection_mod2(fan, si, mi)
                    assert direct == step


def test_induced_projection_is_cached_and_surjective():
    fan = projective_space_fan(2)
    si = cone_index(fan, [])
    ti = cone_index(fan, [0])
    m = induced_projection_mod2(fan, si, ti)
    assert m.rank() == m.nrows == 1


def test_induced_projection_matches_integer_product():
    # the build's P and the reference's integer section R; the package's
    # groups are compared with these products in test_spectral.py
    for fan in oracle_fans():
        for si, ti in fan.facet_pairs():
            proj = fan.orbit_projection(ti)
            sect = quotient_with_section(fan.rank, cone_vectors(fan, si))[1]
            want = Mat2.from_rows(mat_mul(proj, sect), ncols=len(sect[0]))
            assert induced_projection_mod2(fan, si, ti) == want, (fan, si, ti)


def test_torus_homology_dims():
    assert torus_homology_dims(0) == [1]
    assert torus_homology_dims(3) == [1, 3, 3, 1]
    assert sum(torus_homology_dims(5)) == 32


@st.composite
def mat2_pair(draw):
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    first = [[draw(st.integers(0, 1)) for _ in range(b)] for _ in range(a)]
    second = [[draw(st.integers(0, 1)) for _ in range(c)] for _ in range(b)]
    return Mat2.from_rows(first, ncols=b), Mat2.from_rows(second, ncols=c)


@given(mat2_pair())
def test_group_algebra_map_functorial(pair):
    f, g = pair
    assert group_algebra_map(f @ g) == group_algebra_map(f) @ group_algebra_map(g)


def test_group_algebra_map_identity_and_zero():
    assert group_algebra_map(identity(3)) == identity(8)
    z = group_algebra_map(Mat2(2, 2))
    # everything lands on the unit point
    assert z.rows[0] == 0b1111 and z.rows[1] == 0 and z.rows[2] == 0


def test_group_algebra_map_matches_point_definition():
    # zero rows and zero-row or zero-column maps included
    rng = random.Random(5)
    for nrows in range(8):
        for ncols in range(9):
            m = Mat2(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
            if nrows > 1:
                m.rows[rng.randrange(nrows)] = 0
            rows = [0] * (1 << nrows)
            for g in range(1 << ncols):
                rows[mul_vec(m, g)] |= 1 << g
            assert group_algebra_map(m) == Mat2(1 << nrows, 1 << ncols, rows), m


def test_y_basis_change_is_involution_small():
    for r in range(7):
        z = y_basis_change(r)
        assert z @ z == identity(1 << r)


@given(st.integers(0, 6), st.integers(0, 2**64 - 1))
def test_y_coords_involution_and_consistency(rank, raw):
    bits = raw & ((1 << (1 << rank)) - 1)
    assert y_coords(rank, y_coords(rank, bits)) == bits
    # the change-of-basis matrix realizes the same transform
    z = y_basis_change(rank)
    assert mul_vec(z, y_coords(rank, bits)) == bits


def test_filtration_dims_match_brute_ideal_powers():
    for rank in range(6):
        dims = augmentation_filtration_dims(rank)
        assert dims[0] == 1 << rank
        assert dims[-1] == 0
        assert len(dims) == rank + 2
        # I^1 generated by the [g] + [0]; I^k by products of k generators
        powers = ideal_power_bases(rank, rank + 1)
        assert [span_dim(p) for p in powers] == dims


def test_graded_piece_basis_matches_generator_products():
    for rank in range(5):
        for k in range(rank + 1):
            basis = graded_piece_basis(rank, k)
            assert basis.ncols == comb(rank, k)
            assert basis.rank() == comb(rank, k)
            for j, subset in enumerate(combinations(range(rank), k)):
                prod = GroupAlgebraElement(rank, 1)
                for i in subset:
                    prod = prod * GroupAlgebraElement(rank, (1 << (1 << i)) | 1)
                assert basis.col(j) == prod.bits
        # all pieces together form a basis of the whole algebra
        cols = []
        for k in range(rank + 1):
            b = graded_piece_basis(rank, k)
            cols.extend(b.col(j) for j in range(b.ncols))
        assert span_dim(cols) == 1 << rank


def test_graded_pieces_span_ideal_powers():
    # I^k = span of the y elements of level >= k
    for rank in range(5):
        powers = ideal_power_bases(rank, rank)
        for k in range(1, rank + 1):
            ideal = powers[k]
            for level in range(k, rank + 1):
                b = graded_piece_basis(rank, level)
                for j in range(b.ncols):
                    assert reduces_to_zero(b.col(j), ideal)


@given(st.integers(0, 5), st.data())
def test_augmentation_ideal_elements_square_to_zero(rank, data):
    bits = data.draw(st.integers(0, (1 << (1 << rank)) - 1))
    el = GroupAlgebraElement(rank, bits)
    if el.augmentation() == 1:
        el = el + GroupAlgebraElement(rank, 1)  # force even support
    assert el.augmentation() == 0
    assert (el * el).bits == 0


@given(st.integers(1, 4), st.data())
def test_convolution_commutative_associative(rank, data):
    top = (1 << (1 << rank)) - 1
    a = GroupAlgebraElement(rank, data.draw(st.integers(0, top)))
    b = GroupAlgebraElement(rank, data.draw(st.integers(0, top)))
    c = GroupAlgebraElement(rank, data.draw(st.integers(0, top)))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = GroupAlgebraElement(rank, 1)
    assert a * one == a


def test_filtration_level_examples():
    assert GroupAlgebraElement(3, 0).filtration_level() == 4
    assert GroupAlgebraElement(3, 1).filtration_level() == 0  # the unit point
    assert GroupAlgebraElement(3, (1 << 5) | 1).filtration_level() == 1
    # a pure y element of level |S|
    rank = 4
    for subset in [(0,), (1, 3), (0, 1, 2), (0, 1, 2, 3)]:
        prod = GroupAlgebraElement(rank, 1)
        for i in subset:
            prod = prod * GroupAlgebraElement(rank, (1 << (1 << i)) | 1)
        assert prod.filtration_level() == len(subset)


def test_group_algebra_map_respects_filtration():
    rng = random.Random(11)
    for _ in range(30):
        b = rng.randint(1, 4)
        a = rng.randint(b, 5)
        m = Mat2.from_rows(
            [[rng.randint(0, 1) for _ in range(a)] for _ in range(b)], ncols=a
        )
        big = group_algebra_map(m)
        za, zb = y_basis_change(a), y_basis_change(b)
        conj = zb @ big @ za
        for t in range(1 << b):
            for s in range(1 << a):
                if entry(conj, t, s):
                    assert t.bit_count() >= s.bit_count()


def test_graded_pieces_of_group_algebra_map_are_exterior_powers():
    rng = random.Random(23)
    done = 0
    while done < 40:
        b = rng.randint(1, 4)
        a = rng.randint(b, 5)
        m = Mat2.from_rows(
            [[rng.randint(0, 1) for _ in range(a)] for _ in range(b)], ncols=a
        )
        if m.rank() != b:
            continue  # surjective maps only: those arise from face relations
        done += 1
        conj = y_basis_change(b) @ group_algebra_map(m) @ y_basis_change(a)
        for k in range(b + 1):
            rows = [sum(1 << i for i in c) for c in combinations(range(b), k)]
            cols = [sum(1 << i for i in c) for c in combinations(range(a), k)]
            block = submatrix(conj, rows, cols)
            assert block == exterior_power(m, k)


def test_diagonal_class_identity():
    assert diagonal_class_check()
