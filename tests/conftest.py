"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import importlib.util
import json
import os
import random
from functools import reduce
from itertools import combinations
from pathlib import Path
from typing import List, Sequence

import pytest
from hypothesis import HealthCheck, settings

import realtoric
import realtoric.fan
from realtoric.constructions import (
    cyclic_polytope_normal_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    weighted_projective_fan,
)
from realtoric.fan import Fan, from_maximal_cones, read_json
from realtoric.gf2 import Mat2

from oracles import determinant, entry

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def fallback_verdicts(monkeypatch):
    """The verdicts of the pair check's fallback, `fan._meets_off_face`,
    during the test, in order: True where the cones meet outside the
    shared face; a run that raised leaves None."""
    verdicts = []
    meets_off_face = realtoric.fan._meets_off_face

    def recorded(*args):
        verdicts.append(None)
        verdicts[-1] = meets_off_face(*args)
        return verdicts[-1]

    monkeypatch.setattr(realtoric.fan, "_meets_off_face", recorded)
    return verdicts


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Integer matrix product, the tests' reference for compositions."""
    if a and b:
        assert len(a[0]) == len(b), "inner dimensions must agree"
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    """Integer matrix times vector."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def minors_mod2(m: Mat2, q: int) -> List[List[int]]:
    """The q x q minors of m mod 2, one integer determinant each: rows and
    columns are the q-subsets of m's rows and columns in combinations
    order, the reference for exterior powers."""
    return [
        [determinant([[entry(m, a, b) for b in cs] for a in rs]) % 2
         for cs in combinations(range(m.ncols), q)]
        for rs in combinations(range(m.nrows), q)
    ]


def square_pyramid_fan() -> Fan:
    """Complete rank-3 fan over the faces of a square pyramid: the apex
    cone is singular while every non-maximal cone is mod-2 regular."""
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
    maximal = [[0, 1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    return from_maximal_cones(3, rays, maximal, name="squarepyramid")


def cube_fan() -> Fan:
    """Complete rank-3 fan over the faces of a cube: all eight rays share
    the mod-2 image (1,1,1), so no 2-dimensional cone is mod-2 regular."""
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    maximal = [
        [0, 1, 2, 3],
        [4, 5, 6, 7],
        [0, 1, 4, 5],
        [2, 3, 6, 7],
        [0, 2, 4, 6],
        [1, 3, 5, 7],
    ]
    return from_maximal_cones(3, rays, maximal, name="cubefan")


ROOT = Path(__file__).resolve().parents[1]
FANS = ROOT / "fans"

# the benchmark's list of large fans and the code that builds and relabels
# them, perfbench/inputs.py, loaded from its file
_spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
perfbench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_inputs)


def oracle_fans() -> List[Fan]:
    """Every fans/*.json, 72 seeded random fans of rank 1-3 in all three
    profiles, and P^1 x P^1 x P^1 x P^1."""
    fans = [read_json(str(path)) for path in sorted(FANS.glob("*.json"))]
    assert fans
    fans += [
        random_fan(rank, seed, profile)
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(8)
    ]
    fans.append(reduce(product_fan, [projective_space_fan(1)] * 4))
    return fans


def sampled_fans(cyclic_fan: Fan) -> List[Fan]:
    """The 384 fans of the completeness reference: `oracle_fans()`, 288
    more seeded random fans of rank 1-3, cyclic57 and P(1, 2, 3)."""
    fans = oracle_fans() + [
        random_fan(rank, seed, profile)
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(8, 40)
    ]
    return fans + [cyclic_fan, weighted_projective_fan(1, 2, 3)]


def random_unimodular(rng: random.Random, n: int, ops: int = 8) -> List[List[int]]:
    """Random determinant +-1 integer matrix from elementary row operations."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        if kind == 0 and n > 1:
            j = rng.randrange(n)
            if i != j:
                c = rng.choice((-2, -1, 1, 2))
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif kind == 1 and n > 1:
            j = rng.randrange(n)
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


def apply_unimodular(fan: Fan, rng: random.Random) -> Fan:
    """Transform every ray by a random unimodular matrix; the result is an
    isomorphic fan, so pairwise revalidation is skipped."""
    u = random_unimodular(rng, fan.rank)
    rays = [tuple(mat_vec(u, r)) for r in fan.rays]
    maximal = [list(fan.cones[ci].rays) for ci in fan.maximal_cones()]
    return from_maximal_cones(
        fan.rank, rays, maximal, name=fan.name, validate_pairs=False
    )


def relabel_rays(fan: Fan, rng: random.Random) -> Fan:
    """Permute the ray indices; the fan itself is unchanged."""
    m = len(fan.rays)
    perm = list(range(m))
    rng.shuffle(perm)
    rays: List = [None] * m
    for old, new in enumerate(perm):
        rays[new] = fan.rays[old]
    maximal = [
        [perm[i] for i in fan.cones[ci].rays] for ci in fan.maximal_cones()
    ]
    return from_maximal_cones(
        fan.rank, rays, maximal, name=fan.name, validate_pairs=False
    )


@pytest.fixture(scope="session")
def cyclic_fan() -> Fan:
    return cyclic_polytope_normal_fan()


@pytest.fixture(scope="session")
def pyramid_fan() -> Fan:
    return square_pyramid_fan()


@pytest.fixture(scope="session")
def cubefan() -> Fan:
    return cube_fan()


def moment_cone_json(rank: int, count: int) -> str:
    """Fan JSON of one cone on the rays (1, t, ..., t**(rank - 1)) for
    t = 0 .. count - 1: the cone over a cyclic polytope, every ray extreme
    and primitive."""
    rays = [[t**i for i in range(rank)] for t in range(count)]
    return json.dumps({"rank": rank, "rays": rays, "maximal_cones": [list(range(count))]})


def child_env():
    """Environment for a child interpreter that imports the same realtoric
    tree as this test process, whatever PYTHONPATH pytest was started with."""
    env = dict(os.environ)
    pkg_root = str(Path(realtoric.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return env
