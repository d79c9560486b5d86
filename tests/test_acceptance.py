"""Acceptance gate: one named test per criterion.

Each test states its criterion in the docstring and fails independently,
so a run of this file reads as a per-criterion scoreboard.
"""
from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

from conftest import apply_unimodular, cube_fan, relabel_rays, square_pyramid_fan
from oracles import (
    GroupAlgebraElement,
    diagonal_class_check,
    entry,
    exterior_power,
    graded_piece_basis,
    h_vector,
    identity,
    is_nonsingular,
    is_zero,
    isolated_singularities_shape,
    rightmost_column_split,
    submatrix,
    y_basis_change,
)

from realtoric import spectral
from realtoric.analysis import (
    dim3_theorem_batch,
    m_verdict,
    surface_betti_oracle,
)
from realtoric.cli import EXPECTED_E2, EXPECTED_G1, main
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
from realtoric.gf2 import Mat2
from realtoric.orbitalg import augmentation_filtration_dims, group_algebra_map
from realtoric.spectral import (
    betti_real,
    complex_position_of_real,
    e2_dims,
    g_pages,
    real_position_of_complex,
)


def test_criterion_1_cyclic_polytope_reference_tables(cyclic_fan):
    """The flagship fan reproduces both frozen dimension tables, their
    totals, and the entrywise reindexing identity, well inside the
    two-minute budget."""
    t0 = time.monotonic()
    e2 = e2_dims(cyclic_fan)
    _, g1 = g_pages(cyclic_fan)
    for (p, q), want in EXPECTED_E2.items():
        assert e2.get(p, q) == want, f"E2[{p},{q}]"
    for p in range(6):
        for q in range(p + 1):
            if (p, q) not in EXPECTED_E2:
                assert e2.get(p, q) == 0, f"E2[{p},{q}] should vanish"
    for (p, q), want in EXPECTED_G1.items():
        assert g1.get(p, q) == want, f"G1[{p},{q}]"
    for (p, q), d in g1.entries.items():
        if (p, q) not in EXPECTED_G1:
            assert d == 0, f"G1[{p},{q}] should vanish"
    assert e2.total() == 123
    assert g1.total() == 123
    # entrywise transpose identity, both directions
    for (p, q), d in g1.entries.items():
        assert d == e2.get(*complex_position_of_real(p, q))
    for (p, q), d in e2.entries.items():
        assert d == g1.get(*real_position_of_complex(p, q))
    # the sandwich closes: the real side attains the page total
    b = betti_real(cyclic_fan)
    assert b == [1, 1, 7, 34, 64, 16]
    assert sum(b) == 123
    assert m_verdict(cyclic_fan).status == "CertifiedM"
    # the packaged self-check agrees end to end
    assert main(["reference-tables", "--transpose-check"]) == 0
    assert time.monotonic() - t0 < 120


def test_criterion_2_surface_classification():
    """At least ten complete surfaces across both mod-2 ray classes match
    the closed-form Betti numbers exactly, on both sides."""
    fans = [
        projective_space_fan(2),
        hirzebruch_fan(0),
        hirzebruch_fan(1),
        hirzebruch_fan(2),
        hirzebruch_fan(3),
        product_fan(projective_space_fan(1), projective_space_fan(1)),
        weighted_projective_fan(1, 1, 2),
        weighted_projective_fan(1, 1, 3),
        same_mod2_surface_fan(3),
        same_mod2_surface_fan(4),
        same_mod2_surface_fan(5),
        same_mod2_surface_fan(6),
    ] + [random_fan(2, 600 + s, "complete") for s in range(5)]
    assert len(fans) >= 10
    cases = set()
    for fan in fans:
        rep = surface_betti_oracle(fan)
        cases.add(rep.case)
        assert tuple(betti_real(fan)) == rep.betti_real, fan.name
        verdict = m_verdict(fan)
        assert sum(rep.betti_complex) == verdict.total_e2, fan.name
        assert verdict.status == "CertifiedM", fan.name
    assert cases == {1, 2}


def test_criterion_3_projective_spaces():
    """Real projective n-space has all mod-2 Betti numbers equal to one
    for n up to five, and every page total agrees."""
    for n in range(1, 6):
        fan = projective_space_fan(n)
        assert betti_real(fan) == [1] * (n + 1)
        verdict = m_verdict(fan)
        assert verdict.status == "CertifiedM"
        assert verdict.sum_betti_real == verdict.total_e2 == n + 1


def test_criterion_4_h_vector_identity():
    """For the nonsingular complete examples the real Betti vector equals
    the fan's h-vector degree by degree."""
    p1 = projective_space_fan(1)
    p1xp1 = product_fan(p1, p1)
    fans = [
        projective_space_fan(2),
        p1xp1,
        product_fan(p1xp1, p1, name="p1xp1xp1"),
        hirzebruch_fan(2),
    ]
    for fan in fans:
        assert is_nonsingular(fan)
        assert betti_real(fan) == h_vector(fan), fan.name


def test_criterion_5_dimension_three_batch():
    """Three hundred seeded random fans of rank at most three all certify
    as maximal inside one minute."""
    t0 = time.monotonic()
    report = dim3_theorem_batch(300, seed=20098)
    elapsed = time.monotonic() - t0
    assert report.certified == 300
    assert report.max_gap == 0
    assert set(report.per_rank) == {1, 2, 3}
    assert set(report.per_profile) == {"complete", "subfan", "affine"}
    assert elapsed < 60, f"batch took {elapsed:.1f}s"


def test_criterion_6_group_algebra_suite():
    """Filtered group algebra of 2-torsion tori: basis change is an
    involution, filtration dimensions are binomial tails, graded pieces
    of point maps are exterior powers, squares vanish on the augmentation
    ideal, and the rank-2 diagonal identity holds."""
    for r in range(9):
        z = y_basis_change(r)
        assert z @ z == identity(1 << r), f"involution fails at rank {r}"
        dims = augmentation_filtration_dims(r)
        assert dims == [
            sum(comb(r, j) for j in range(k, r + 1)) for k in range(r + 1)
        ] + [0]
        for k in range(r + 1):
            basis = graded_piece_basis(r, k)
            assert basis.ncols == comb(r, k)
            assert basis.rank() == comb(r, k)

    rng = random.Random(60601)
    for _ in range(200):
        r = rng.randint(1, 8)
        bits = rng.getrandbits(1 << r)
        el = GroupAlgebraElement(r, bits)
        if el.augmentation():
            el = el + GroupAlgebraElement(r, 1)
        assert (el * el).bits == 0

    done = 0
    while done < 100:
        b = rng.randint(1, 5)
        a = rng.randint(b, 6)
        m = Mat2.from_rows(
            [[rng.randint(0, 1) for _ in range(a)] for _ in range(b)], ncols=a
        )
        if m.rank() != b:
            continue
        done += 1
        conj = y_basis_change(b) @ group_algebra_map(m) @ y_basis_change(a)
        for t in range(1 << b):
            for s in range(1 << a):
                if entry(conj, t, s):
                    assert t.bit_count() >= s.bit_count()
        for k in range(b + 1):
            rows = [sum(1 << i for i in c) for c in combinations(range(b), k)]
            cols = [sum(1 << i for i in c) for c in combinations(range(a), k)]
            assert submatrix(conj, rows, cols) == exterior_power(m, k)

    assert diagonal_class_check()


def test_criterion_7_structural_invariants(cyclic_fan):
    """Boundaries square to zero on every constructed complex; page
    tables are invariant under ray relabeling and unimodular ambient
    change; the unit summand splits off; the isolated-singularity shape
    holds on the pyramid example."""
    examples = [
        projective_space_fan(1),
        projective_space_fan(2),
        projective_space_fan(3),
        hirzebruch_fan(0),
        hirzebruch_fan(2),
        weighted_projective_fan(1, 1, 2),
        same_mod2_surface_fan(4),
        torus_fan(2),
        affine_fan(2, [(1, 0), (1, 2)]),
        product_fan(projective_space_fan(1), projective_space_fan(1)),
        square_pyramid_fan(),
        cube_fan(),
        cyclic_fan,
    ]

    for fan in examples:
        real = list(spectral._real_boundaries(fan))
        for (a, _, _), (b, _, _) in zip(real, real[1:]):
            assert is_zero(a @ b)
        e1 = {(p, q): b for p, q, b in spectral._e1_boundaries(fan)}
        for (p, q), b in e1.items():
            if (p + 1, q) in e1:
                assert is_zero(b @ e1[p + 1, q])
        for k in range(fan.rank + 1):
            graded = [
                submatrix(
                    b,
                    [i for i, level in enumerate(row_levels) if level == k],
                    [i for i, level in enumerate(col_levels) if level == k],
                )
                for b, row_levels, col_levels in real
            ]
            for a, b in zip(graded, graded[1:]):
                assert is_zero(a @ b)

    rng = random.Random(70707)
    for fan in examples:
        base_e2 = e2_dims(fan).entries
        base_g1 = g_pages(fan)[1].entries
        base_b = betti_real(fan)
        for _ in range(20):
            other = relabel_rays(fan, rng)
            assert e2_dims(other).entries == base_e2, fan.name
            assert g_pages(other)[1].entries == base_g1, fan.name
            assert betti_real(other) == base_b, fan.name
        for _ in range(20):
            other = apply_unimodular(fan, rng)
            assert e2_dims(other).entries == base_e2, fan.name
            assert g_pages(other)[1].entries == base_g1, fan.name
            assert betti_real(other) == base_b, fan.name

    for fan in examples:
        assert rightmost_column_split(fan), fan.name
    for i in range(30):
        rank = 1 + i % 3
        profile = ("complete", "subfan", "affine")[(i // 3) % 3]
        assert rightmost_column_split(random_fan(rank, 900 + i, profile))

    assert isolated_singularities_shape(square_pyramid_fan())
