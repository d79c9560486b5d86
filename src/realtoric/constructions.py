"""Builders for the fans used in tests and experiments.

Standard families (projective spaces, Hirzebruch surfaces, weighted
projective spaces, products, tori, affine cones), a complete surface fan
whose rays all share one mod-2 image, the normal fan of the
five-dimensional cyclic polytope on seven vertices, and a seeded random
generator for fans of rank at most 3.
"""
from __future__ import annotations

import random
from functools import cmp_to_key
from itertools import combinations
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .fan import Fan, ValidationError, _cone_geometry, _count_cells, from_maximal_cones
from .gf2 import CrossCheckFailed
from .intlin import determinant, lin_rank, primitive_vector, quotient_with_section

__all__ = [
    "projective_space_fan",
    "hirzebruch_fan",
    "product_fan",
    "weighted_projective_fan",
    "torus_fan",
    "affine_fan",
    "same_mod2_surface_fan",
    "cyclic_polytope_normal_fan",
    "random_fan",
]

Vector = Tuple[int, ...]


def projective_space_fan(n: int) -> Fan:
    """Fan of n-dimensional projective space: rays e_1..e_n and
    -(e_1+...+e_n), maximal cones all n-subsets."""
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    _count_cells(0, n)  # the zero cone, before n rays of length n are built
    rays: List[Vector] = [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    rays.append(tuple([-1] * n))
    maximal = [list(c) for c in combinations(range(n + 1), n)]
    return from_maximal_cones(n, rays, maximal, name=f"p{n}")


def hirzebruch_fan(a: int) -> Fan:
    """Fan of the Hirzebruch surface with twist a >= 0."""
    if a < 0:
        raise ValueError("twist must be nonnegative")
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    maximal = [[0, 1], [1, 2], [2, 3], [3, 0]]
    return from_maximal_cones(2, rays, maximal, name=f"hirzebruch{a}")


def product_fan(f: Fan, g: Fan, *, name: Optional[str] = None) -> Fan:
    """Product fan in the direct sum of the two ambient lattices; maximal
    cones are sums of one maximal cone from each factor."""
    rank = f.rank + g.rank
    rays: List[Vector] = [r + (0,) * g.rank for r in f.rays]
    rays += [(0,) * f.rank + r for r in g.rays]
    off = len(f.rays)
    maximal = []
    for ci in f.maximal_cones():
        for cj in g.maximal_cones():
            maximal.append(
                list(f.cones[ci].rays) + [off + i for i in g.cones[cj].rays]
            )
    if name is None:
        name = f"{f.name or 'fan'}x{g.name or 'fan'}"
    return from_maximal_cones(rank, rays, maximal, name=name)


def weighted_projective_fan(*weights: int) -> Fan:
    """Fan of the weighted projective space with the given positive
    weights (gcd 1): rays are the images of the standard basis in the
    quotient of Z^{n+1} by the weight vector, so that sum(q_i v_i) = 0.

    Raises ValidationError if some image fails to be primitive (the
    weight vector then needs reducing before it names a toric fan).
    """
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if gcd(*weights) != 1:
        raise ValueError("weights must have gcd 1")
    n = len(weights) - 1
    _count_cells(0, n)  # the zero cone, before the (n + 1)-square elimination
    proj, _ = quotient_with_section(n + 1, [tuple(weights)])
    rays = [tuple(row[i] for row in proj) for i in range(n + 1)]
    for i, v in enumerate(rays):
        if gcd(*v) != 1:
            raise ValidationError(
                f"weight vector {weights} gives non-primitive ray image {v} "
                f"for basis vector {i}"
            )
    maximal = [list(c) for c in combinations(range(n + 1), n)]
    name = "wp" + "-".join(str(w) for w in weights)
    return from_maximal_cones(n, rays, maximal, name=name)


def torus_fan(n: int) -> Fan:
    """Fan with only the zero cone: the rank-n torus."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return from_maximal_cones(n, [], [], name=f"torus{n}")


def affine_fan(rank: int, rays: Sequence[Sequence[int]], *, name: Optional[str] = None) -> Fan:
    """Fan of a single pointed cone (and its faces)."""
    return from_maximal_cones(
        rank, rays, [list(range(len(rays)))], name=name or "affine"
    )


def same_mod2_surface_fan(s: int = 4) -> Fan:
    """Complete rank-2 fan with s rays all congruent to (1, 0) mod 2.

    For even s the rays are (1, 2k) on the right and (-1, -2k) on the
    left, k = 0..s/2-1; s = 4 gives (1,0),(1,2),(-1,0),(-1,-2).  Odd
    s >= 5 uses one extra right ray; s = 3 is the triple
    (1,0),(1,2),(-3,-2).  Two rays alone only bound a line, so s = 2 is
    rejected.
    """
    if s < 3:
        raise ValueError(
            "a complete pointed surface fan needs at least 3 rays; "
            "two rays with equal mod-2 image are opposite on a line"
        )
    _count_cells(s, 2)  # the zero cone and one cell per maximal cone, before s rays
    if s == 3:
        rays = [(1, 0), (1, 2), (-3, -2)]
    else:
        a = (s + 1) // 2
        b = s // 2
        rays = [(1, 2 * k) for k in range(a)] + [(-1, -2 * k) for k in range(b)]
    assert len({(x & 1, y & 1) for x, y in rays}) == 1
    m = len(rays)
    order = _ccw_order(rays)
    maximal = [[order[i], order[(i + 1) % m]] for i in range(m)]
    return from_maximal_cones(2, rays, maximal, name=f"samemod2-{s}")


def _ccw_order(rays: Sequence[Vector]) -> List[int]:
    """Indices of the nonzero rank-2 vectors in exact counterclockwise
    order from the positive x-axis: first by half turn ([0, pi) before
    [pi, 2 pi)), then, within a half turn, u before v when the cross
    product u x v is positive."""

    def half(v: Vector) -> int:
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def cmp(i: int, j: int) -> int:
        (ux, uy), (vx, vy) = rays[i], rays[j]
        return half(rays[i]) - half(rays[j]) or uy * vx - ux * vy

    return sorted(range(len(rays)), key=cmp_to_key(cmp))


def _cyclic_facets_gale() -> List[Tuple[int, ...]]:
    """Facets of the cyclic polytope with 7 vertices in dimension 5 by
    Gale's evenness condition on 5-subsets of {0..6}."""
    facets = []
    for sub in combinations(range(7), 5):
        s = set(sub)
        outside = [i for i in range(7) if i not in s]
        ok = True
        for ai in range(len(outside)):
            for bi in range(ai + 1, len(outside)):
                a, b = outside[ai], outside[bi]
                between = sum(1 for k in sub if a < k < b)
                if between & 1:
                    ok = False
        if ok:
            facets.append(sub)
    return facets


def _moment_points() -> List[Vector]:
    return [tuple(k ** e for e in range(1, 6)) for k in range(7)]


def _cyclic_facets_hull() -> List[Tuple[Tuple[int, ...], Vector, int]]:
    """Facets of the same polytope by exact hull enumeration: for every
    5-subset of vertices, the hyperplane through them is a facet iff the
    remaining vertices lie strictly on one side.  Returns (vertex subset,
    primitive inner normal, offset) triples."""
    pts = _moment_points()
    out = []
    for sub in combinations(range(7), 5):
        chosen = [pts[i] for i in sub]
        # homogeneous 6x6 minors give the hyperplane through 5 points
        rows = [list(p) + [1] for p in chosen]
        coeffs = []
        for j in range(6):
            minor = [r[:j] + r[j + 1 :] for r in rows]
            sign = -1 if j & 1 else 1
            coeffs.append(sign * determinant(minor))
        normal, c = tuple(coeffs[:5]), -coeffs[5]
        if all(v == 0 for v in normal):
            continue
        rest = [i for i in range(7) if i not in sub]
        vals = [sum(a * b for a, b in zip(normal, pts[i])) - c for i in rest]
        if all(v > 0 for v in vals):
            pass
        elif all(v < 0 for v in vals):
            normal = tuple(-a for a in normal)
            c = -c
        else:
            continue
        g = gcd(*normal)
        out.append((sub, tuple(a // g for a in normal), c))
    return out


def cyclic_polytope_normal_fan() -> Fan:
    """Normal fan of the 5-dimensional cyclic polytope with vertices
    (k, k^2, k^3, k^4, k^5), k = 0..6.

    Facets are enumerated twice, by Gale's evenness condition and by the
    exact rational hull; the two facet sets must agree.  Rays are the
    primitive inner facet normals; the maximal cone at a vertex is
    spanned by the normals of the facets through it.
    """
    gale = set(_cyclic_facets_gale())
    hull = _cyclic_facets_hull()
    if {sub for sub, _, _ in hull} != gale:
        raise CrossCheckFailed(
            "facet oracles disagree: Gale evenness and rational hull "
            "produced different facet sets"
        )
    rays = [normal for _, normal, _ in hull]
    maximal = [
        [fi for fi, (sub, _, _) in enumerate(hull) if k in sub] for k in range(7)
    ]
    fan = from_maximal_cones(5, rays, maximal, name="cyclic57")
    assert len(fan.maximal_cones()) == 7
    return fan


def _primitive_nonzero(rng: random.Random, rank: int, bound: int = 9) -> Vector:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(v):
            return tuple(primitive_vector(v))


def _random_rank2_complete(rng: random.Random) -> Tuple[List[Vector], List[List[int]]]:
    """Rays and maximal cones of a random complete surface fan."""
    for _ in range(200):
        count = rng.randint(3, 7)
        rays = []
        for _ in range(count):
            v = _primitive_nonzero(rng, 2)
            if v not in rays:
                rays.append(v)
        if len(rays) < 3:
            continue
        order = _ccw_order(rays)
        ordered = [rays[i] for i in order]
        m = len(ordered)
        # complete iff every consecutive gap turns left strictly
        cross = [
            ordered[i][0] * ordered[(i + 1) % m][1]
            - ordered[i][1] * ordered[(i + 1) % m][0]
            for i in range(m)
        ]
        if any(c <= 0 for c in cross):
            continue
        return rays, [[order[i], order[(i + 1) % m]] for i in range(m)]
    raise RuntimeError("random surface generator failed to converge")


def _random_rank3_complete(rng: random.Random) -> Tuple[List[Vector], List[List[int]]]:
    """Rays and maximal cones of a random complete simplicial rank-3 fan."""
    for _ in range(500):
        count = rng.randint(4, 8)
        rays: List[Vector] = []
        for _ in range(count):
            v = _primitive_nonzero(rng, 3, bound=5)
            if v not in rays:
                rays.append(v)
        if len(rays) < 4:
            continue
        facets = _hull3_facets(rays)
        if facets is None:
            continue
        used = sorted({i for f in facets for i in f})
        if len(used) < len(rays):
            continue
        return rays, [list(f) for f in facets]
    raise RuntimeError("random rank-3 generator failed to converge")


def _hull3_facets(rays: Sequence[Vector]) -> Optional[List[Tuple[int, ...]]]:
    """Facet triangles of the convex hull of the given points in rank 3,
    or None when the origin is not strictly interior or some supporting
    plane holds more than 3 of the points (kept simplicial by rejection)."""
    n = len(rays)
    facets = []
    for sub in combinations(range(n), 3):
        a, b, c = (rays[i] for i in sub)
        nrm = (
            (b[1] - a[1]) * (c[2] - a[2]) - (b[2] - a[2]) * (c[1] - a[1]),
            (b[2] - a[2]) * (c[0] - a[0]) - (b[0] - a[0]) * (c[2] - a[2]),
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]),
        )
        if nrm == (0, 0, 0):
            continue
        off = sum(x * y for x, y in zip(nrm, a))
        vals = [
            sum(x * y for x, y in zip(nrm, rays[i]))
            for i in range(n)
            if i not in sub
        ]
        if all(v < off for v in vals):
            pass
        elif all(v > off for v in vals):
            nrm = tuple(-x for x in nrm)
            off = -off
        else:
            continue
        if off <= 0:
            return None  # origin not strictly inside
        facets.append(sub)
    # a simplicial hull of n points in general position has 2n-4 triangles
    if len(facets) != 2 * n - 4:
        return None
    return facets


def _random_affine(rng: random.Random, rank: int) -> Fan:
    for _ in range(300):
        if rank == 3 and rng.random() < 0.3:
            count = 4
        else:
            count = rng.randint(1, rank)
        rays = []
        for _ in range(count):
            v = _primitive_nonzero(rng, rank, bound=6)
            if v not in rays:
                rays.append(v)
        if len(rays) != count:
            continue
        if count <= rank:
            # independent rays span a simplicial cone, pointed with every ray
            # extreme, which affine_fan accepts
            if lin_rank(rays) == count:
                return affine_fan(rank, rays)
            continue
        # the cone's own geometry rejects what affine_fan would, unbuilt
        geo = _cone_geometry(rank, rays)
        if geo.pointed and not geo.nonextreme:
            return affine_fan(rank, rays)
    raise RuntimeError("random affine generator failed to converge")


def _subfan_of(
    rays: Sequence[Vector], cones: Sequence[Sequence[int]], rng: random.Random
) -> Tuple[List[Vector], List[List[int]]]:
    """Keep a random proper, nonempty subset of the given full-dimensional
    maximal cones and prune the unused rays.

    The cones are sampled in the order of their sorted ray tuples, the
    order `Fan.maximal_cones()` gives full-dimensional cones, so no fan
    has to be built for the complete fan they come from.
    """
    maximal = sorted(tuple(sorted(c)) for c in cones)
    keep_count = rng.randint(1, max(1, len(maximal) - 1))
    keep = rng.sample(maximal, keep_count)
    used = sorted({i for c in keep for i in c})
    remap = {old: new for new, old in enumerate(used)}
    return [rays[i] for i in used], [[remap[i] for i in c] for c in keep]


def random_fan(rank: int, seed: int, profile: str = "complete") -> Fan:
    """Deterministic random fan of the given rank (1..3).

    Profiles: "complete" (complete fan), "subfan" (random subset of a
    complete fan's maximal cones with faces), "affine" (one pointed cone
    with faces).  The same (rank, seed, profile) always returns the same
    fan.  Each fan is built, and its pairs validated, once: a subfan is
    cut from the cone list of its complete fan, which is never built.
    """
    if rank not in (1, 2, 3):
        raise ValueError("random_fan supports ranks 1..3")
    if profile not in ("complete", "subfan", "affine"):
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(f"{seed}:{rank}:{profile}")
    if profile == "affine":
        fan = _random_affine(rng, rank)
    else:
        if rank == 1:
            rays, cones = [(1,), (-1,)], [[0], [1]]
        elif rank == 2:
            rays, cones = _random_rank2_complete(rng)
        else:
            rays, cones = _random_rank3_complete(rng)
        if profile == "subfan":
            rays, cones = _subfan_of(rays, cones, rng)
        fan = from_maximal_cones(rank, rays, cones)
    fan.name = f"random-{profile}-r{rank}-s{seed}"
    return fan
