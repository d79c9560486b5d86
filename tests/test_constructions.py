"""Named fan builders and the seeded random generator."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path
from typing import List, Tuple

import pytest
from sympy import Matrix

from realtoric import constructions
from realtoric.constructions import (
    affine_fan,
    cyclic_polytope_normal_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    same_mod2_surface_fan,
    torus_fan,
    weighted_projective_fan,
)
from realtoric.fan import NotPointed, ValidationError, fan_to_json, from_maximal_cones
from realtoric.gf2 import CrossCheckFailed
from realtoric.spectral import betti_real, e2_dims

from oracles import f_vector, h_vector, hull3_facets, is_nonsingular, is_simplicial

# primitive inner facet normals of the hull of (k, k^2, ..., k^5), k = 0..6
CYCLIC_RAYS = {
    (24, -50, 35, -10, 1),
    (-36, 72, -47, 12, -1),
    (40, -78, 49, -12, 1),
    (60, -112, 65, -14, 1),
    (-72, 126, -67, 14, -1),
    (-120, 194, -89, 16, -1),
    (120, -154, 71, -14, 1),
    (180, -216, 91, -16, 1),
    (360, -342, 119, -18, 1),
    (-324, 260, -95, 16, -1),
    (-508, 372, -121, 18, -1),
    (-1044, 580, -155, 20, -1),
}


def test_projective_space_family():
    for n in range(1, 6):
        fan = projective_space_fan(n)
        assert fan.name == f"p{n}"
        assert fan.is_complete()
        assert is_nonsingular(fan)
        assert is_simplicial(fan)
        assert f_vector(fan) == [comb(n + 1, k) for k in range(n + 1)]
        assert h_vector(fan) == [1] * (n + 1)
    with pytest.raises(ValueError):
        projective_space_fan(0)


def test_hirzebruch_family():
    for a in range(4):
        fan = hirzebruch_fan(a)
        assert fan.is_complete()
        assert is_nonsingular(fan)
        assert f_vector(fan) == [1, 4, 4]
    with pytest.raises(ValueError):
        hirzebruch_fan(-1)


def test_hirzebruch_zero_matches_product_of_lines():
    h0 = hirzebruch_fan(0)
    p1 = projective_space_fan(1)
    pp = product_fan(p1, p1)
    assert sorted(f_vector(h0)) == sorted(f_vector(pp))
    assert e2_dims(h0).entries == e2_dims(pp).entries
    assert betti_real(h0) == betti_real(pp)


def test_product_fan_counts_and_name():
    p1 = projective_space_fan(1)
    p2 = projective_space_fan(2)
    prod = product_fan(p2, p1)
    assert prod.rank == 3
    assert prod.name == "p2xp1"
    assert len(prod.maximal_cones()) == 6
    # cone counts convolve by dimension
    f2, f1 = f_vector(p2), f_vector(p1)
    expect = [
        sum(f2[i] * f1[k - i] for i in range(max(0, k - 1), min(k, 2) + 1))
        for k in range(4)
    ]
    assert f_vector(prod) == expect
    assert prod.is_complete()


def test_weighted_projective_fan():
    fan = weighted_projective_fan(1, 1, 2)
    assert fan.name == "wp1-1-2"
    assert fan.is_complete()
    assert is_simplicial(fan)
    assert not is_nonsingular(fan)
    # the defining relation: weights pair to zero against the rays
    for i in range(2):
        assert sum(w * r[i] for w, r in zip((1, 1, 2), fan.rays)) == 0
    assert f_vector(weighted_projective_fan(1, 1)) == [1, 2]


def test_weighted_projective_rejections():
    with pytest.raises(ValueError):
        weighted_projective_fan(2, 2)
    with pytest.raises(ValueError):
        weighted_projective_fan(0, 1)
    with pytest.raises(ValueError):
        weighted_projective_fan(5)
    # non-reduced weight systems give imprimitive ray images
    with pytest.raises(ValidationError, match="non-primitive"):
        weighted_projective_fan(1, 2, 4)


def test_torus_and_affine_fans():
    t = torus_fan(3)
    assert len(t.cones) == 1 and t.cones[0].dim == 0
    assert not t.is_complete()
    a = affine_fan(2, [(1, 0), (1, 2)])
    assert len(a.maximal_cones()) == 1
    assert f_vector(a) == [1, 2, 1]
    with pytest.raises(NotPointed):
        affine_fan(2, [(1, 0), (-1, 0)])
    with pytest.raises(ValueError):
        torus_fan(0)


def test_same_mod2_surface_family():
    with pytest.raises(ValueError):
        same_mod2_surface_fan(2)
    assert same_mod2_surface_fan(3).rays == ((1, 0), (1, 2), (-3, -2))
    assert same_mod2_surface_fan(4).rays == ((1, 0), (1, 2), (-1, 0), (-1, -2))
    for s in range(3, 9):
        fan = same_mod2_surface_fan(s)
        assert fan.name == f"samemod2-{s}"
        assert len(fan.rays) == s
        assert fan.is_complete()
        assert len({(x & 1, y & 1) for x, y in fan.rays}) == 1


def _oracle_cyclic_facets() -> List[Tuple[int, ...]]:
    """Gale evenness in block form: a 5-subset of {0..6} is a facet iff
    every maximal run of consecutive members not touching 0 or 6 has even
    length.  Independent of the package's pair-counting formulation."""
    facets = []
    for sub in combinations(range(7), 5):
        runs = []
        cur: List[int] = []
        for i in sub:
            if cur and i == cur[-1] + 1:
                cur.append(i)
            else:
                if cur:
                    runs.append(cur)
                cur = [i]
        runs.append(cur)
        ok = all(
            len(run) % 2 == 0
            for run in runs
            if run[0] != 0 and run[-1] != 6
        )
        if ok:
            facets.append(sub)
    return facets


def _oracle_cyclic_normals(facets) -> List[Tuple[int, ...]]:
    """Primitive inner facet normals from sympy nullspaces over Q, one
    per facet, aligned with the input list."""
    pts = [tuple(k ** e for e in range(1, 6)) for k in range(7)]
    normals = []
    for sub in facets:
        rows = [list(pts[i]) + [1] for i in sub]
        null = Matrix(rows).nullspace()
        assert len(null) == 1
        vec = [Fraction(str(x)) for x in null[0]]
        denom = 1
        for f in vec:
            denom = denom * f.denominator // gcd(denom, f.denominator)
        ints = [int(f * denom) for f in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        normal, c = ints[:5], -ints[5]
        rest = [i for i in range(7) if i not in sub]
        vals = [sum(a * b for a, b in zip(normal, pts[i])) - c for i in rest]
        assert all(v != 0 for v in vals)
        if all(v < 0 for v in vals):
            normal = [-a for a in normal]
        normals.append(tuple(normal))
    return normals


def test_cyclic_fan_against_independent_oracle(cyclic_fan):
    facets = _oracle_cyclic_facets()
    assert len(facets) == 12
    normals = _oracle_cyclic_normals(facets)
    assert set(cyclic_fan.rays) == set(normals) == CYCLIC_RAYS
    # maximal cone k collects the normals of the facets through vertex k
    ray_index = {r: i for i, r in enumerate(cyclic_fan.rays)}
    expected = {
        frozenset(
            ray_index[normals[fi]] for fi, sub in enumerate(facets) if k in sub
        )
        for k in range(7)
    }
    actual = {
        frozenset(cyclic_fan.cones[ci].rays) for ci in cyclic_fan.maximal_cones()
    }
    assert actual == expected


def test_cyclic_fan_structure(cyclic_fan):
    assert cyclic_fan.name == "cyclic57"
    assert cyclic_fan.rank == 5
    assert len(cyclic_fan.rays) == 12
    assert len(cyclic_fan.maximal_cones()) == 7
    assert sorted(
        len(cyclic_fan.cones[ci].rays) for ci in cyclic_fan.maximal_cones()
    ) == [8, 8, 8, 9, 9, 9, 9]
    assert [len(s) for s in cyclic_fan.strata] == [7, 21, 34, 30, 12, 1]
    assert f_vector(cyclic_fan) == [1, 12, 30, 34, 21, 7]
    assert not is_simplicial(cyclic_fan)
    assert cyclic_fan.is_complete()


def test_cyclic_fan_deterministic(cyclic_fan):
    assert fan_to_json(cyclic_polytope_normal_fan()) == fan_to_json(cyclic_fan)


def test_cyclic_fan_refuses_facet_oracles_that_disagree(monkeypatch):
    # Gale evenness and the rational hull cross-check each other: a facet
    # missing from one of them stops the build
    gale = constructions._cyclic_facets_gale()
    assert len(gale) == 12
    monkeypatch.setattr(constructions, "_cyclic_facets_gale", lambda: gale[:-1])
    with pytest.raises(CrossCheckFailed, match="^facet oracles disagree"):
        cyclic_polytope_normal_fan()


def test_random_fan_determinism_and_variation():
    a = random_fan(2, 4, "complete")
    b = random_fan(2, 4, "complete")
    assert fan_to_json(a) == fan_to_json(b)
    assert a.name == "random-complete-r2-s4"
    jsons = {fan_to_json(random_fan(2, s, "complete")) for s in range(8)}
    assert len(jsons) > 1


def test_random_fan_profiles():
    for rank in (1, 2, 3):
        for seed in range(4):
            complete = random_fan(rank, seed, "complete")
            assert complete.rank == rank
            assert complete.is_complete()
            affine = random_fan(rank, seed, "affine")
            assert len(affine.maximal_cones()) == 1
            sub = random_fan(rank, seed, "subfan")
            assert len(sub.maximal_cones()) >= 1
            # at least one maximal cone of the complete fan is dropped
            assert not sub.is_complete()
            # every ray is used after pruning
            used = {
                i for ci in sub.maximal_cones() for i in sub.cones[ci].rays
            }
            assert used == set(range(len(sub.rays)))


def test_random_fan_canonical_json_is_pinned():
    """Canonical JSON, name included, of every rank, profile and seed
    0..9, recorded from the generator when it still rebuilt each fan to
    set its name: naming the fan it built returns the same fans."""
    want = (Path(__file__).parent / "data" / "random_fans.txt").read_text().splitlines()
    got = [
        fan_to_json(random_fan(rank, seed, profile))
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(10)
    ]
    assert got == want


def test_random_fan_builds_each_fan_once(monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return from_maximal_cones(*args, **kwargs)

    monkeypatch.setattr(constructions, "from_maximal_cones", counted)
    for rank in (1, 2, 3):
        for profile in ("complete", "subfan", "affine"):
            for seed in range(10):
                builds.clear()
                random_fan(rank, seed, profile)
                assert len(builds) == 1, (rank, profile, seed)


def test_random_fan_rejections():
    with pytest.raises(ValueError):
        random_fan(4, 0)
    with pytest.raises(ValueError):
        random_fan(2, 0, "bogus")


def test_hull3_facets_match_the_triple_scan():
    """The rank-3 hull from the double description against a scan of every
    triple of points: the same triangles in the same order, or the same
    None, on seeded sets of 4 to 8 distinct primitive points in [-5, 5]^3
    (the generator's draws) and on named degenerate sets."""
    tetrahedron = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    # (points, accepted)
    named = [
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], True),
        (tetrahedron, True),
        # square facets
        ([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)], False),
        # (1, 0, 0) strictly inside, then on the edge from (1, 1, 1) to (1, -1, -1)
        ([(5, -1, -1), (-1, 5, -1), (-1, -1, 5), (-1, -1, -1), (1, 0, 0)], False),
        (tetrahedron + [(1, 0, 0)], False),
        # the origin inside the facet on the first three points, then outside
        ([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], False),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], False),
        # coplanar: a square through the origin, a pentagon in z = 1
        ([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)], False),
        ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1)], False),
    ]
    for points, accepted in named:
        got = constructions._hull3_facets(points)
        assert (got is not None) == accepted, points
        want = hull3_facets(points)
        assert got == (None if want is None else [list(f) for f in want]), points
    assert len(constructions._hull3_facets(named[0][0])) == 8

    rng = random.Random(3017)
    accepted = 0
    for _ in range(2000):
        points: List[Tuple[int, ...]] = []
        for _ in range(rng.randint(4, 8)):
            v = (0, 0, 0)
            while not any(v):
                v = tuple(rng.randint(-5, 5) for _ in range(3))
            v = tuple(x // gcd(*v) for x in v)
            if v not in points:
                points.append(v)
        if len(points) < 4:
            continue
        got = constructions._hull3_facets(points)
        want = hull3_facets(points)
        assert got == (None if want is None else [list(f) for f in want]), points
        accepted += got is not None
    assert accepted >= 300
