"""Rational fans: construction, validation, combinatorics, JSON input and output.

All geometry is exact: integer arithmetic for cone face enumeration,
rational Fourier-Motzkin elimination for the pairwise intersection check.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .intlin import (
    _snf_full,
    determinant,
    lin_rank,
    mat_vec,
    saturation_index,
)

__all__ = [
    "FanError",
    "ParseError",
    "ValidationError",
    "NonPrimitiveRay",
    "NotPointed",
    "BadIntersection",
    "Cone",
    "Fan",
    "from_maximal_cones",
    "fan_from_json",
    "fan_to_json",
    "read_json",
    "write_json",
]


class FanError(Exception):
    """Base class for fan construction and IO failures."""


class ParseError(FanError):
    """Malformed fan JSON; `location` points at the offending spot."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message}{f' (at {location})' if location else ''}")
        self.location = location


class ValidationError(FanError):
    """The input data does not describe a valid fan."""


class NonPrimitiveRay(ValidationError):
    def __init__(self, ray: Sequence[int]):
        super().__init__(f"ray {tuple(ray)} is zero or not primitive")
        self.ray = tuple(ray)


class NotPointed(ValidationError):
    def __init__(self, ray_indices: Sequence[int]):
        super().__init__(f"cone on rays {sorted(ray_indices)} is not pointed")
        self.ray_indices = tuple(sorted(ray_indices))


class BadIntersection(ValidationError):
    def __init__(self, first: Sequence[int], second: Sequence[int], detail: str = ""):
        msg = (
            f"cones on rays {sorted(first)} and {sorted(second)} do not meet "
            f"in a common face{f': {detail}' if detail else ''}"
        )
        super().__init__(msg)
        self.pair = (tuple(sorted(first)), tuple(sorted(second)))


@dataclass(frozen=True)
class Cone:
    """A cone of the fan, identified by its set of ray indices."""

    rays: Tuple[int, ...]
    dim: int

    def __repr__(self) -> str:
        return f"Cone(rays={list(self.rays)}, dim={self.dim})"


@dataclass
class _ConeGeometry:
    dim: int
    pointed: bool
    coord_map: List[List[int]]          # dim x rank: ambient -> span coordinates
    span_eqs: List[List[int]]           # (rank - dim) x rank: vanish on the span
    facets: List[Tuple[Tuple[int, ...], FrozenSet[int]]]  # (ambient normal, local zero set)
    faces: Set[FrozenSet[int]]          # local ray index sets
    nonextreme: List[int]               # listed rays that are not extreme


def _cross_null(rows: List[List[int]], d: int) -> List[int]:
    """Integer generator of the null space of a (d-1) x d matrix of rank d-1
    (the generalized cross product); zero vector if the rank is lower."""
    out = []
    for i in range(d):
        sub = [[row[j] for j in range(d) if j != i] for row in rows]
        out.append((-1) ** i * determinant(sub))
    return out


def _cone_geometry(rank: int, vectors: List[Tuple[int, ...]]) -> _ConeGeometry:
    """Exact face data for the cone spanned by the given integer vectors."""
    k = len(vectors)
    if k == 0:
        eye = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        return _ConeGeometry(0, True, [], eye, [], {frozenset()}, [])
    cols = [[vec[i] for vec in vectors] for i in range(rank)]
    s, u, _, _, _ = _snf_full(cols, rank, k)
    d = sum(1 for i in range(min(rank, k)) if s[i][i] != 0)
    coord_map = [list(u[i]) for i in range(d)]
    span_eqs = [list(u[i]) for i in range(d, rank)]
    coords = [mat_vec(coord_map, vec) for vec in vectors]

    seen: Dict[FrozenSet[int], Tuple[int, ...]] = {}
    found: List[int] = []  # the zero sets in seen, as bitmasks
    for subset in combinations(range(k), d - 1):
        # inside a facet found already: its hyperplane, if any, is that facet's
        mask = sum(1 << j for j in subset)
        if any(mask & z == mask for z in found):
            continue
        w = _cross_null([coords[j] for j in subset], d)
        if not any(w):
            continue
        vals = [sum(a * b for a, b in zip(w, coords[j])) for j in range(k)]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            w = [-x for x in w]
            vals = [-v for v in vals]
        else:
            continue
        zero = frozenset(j for j in range(k) if vals[j] == 0)
        if zero not in seen:
            g = 0
            for x in w:
                g = gcd(g, x)
            seen[zero] = tuple(x // g for x in w)
            found.append(sum(1 << j for j in zero))

    normals_local = list(seen.values())
    pointed = lin_rank(normals_local) == d
    faces: Set[FrozenSet[int]] = {frozenset(range(k))}
    zero_sets = list(seen.keys())
    frontier = set(zero_sets)
    while frontier:
        faces |= frontier
        nxt: Set[FrozenSet[int]] = set()
        for f in frontier:
            for z in zero_sets:
                g = f & z
                if g not in faces:
                    nxt.add(g)
        frontier = nxt
    nonextreme = [j for j in range(k) if frozenset((j,)) not in faces]

    facets = []
    for zero, w in sorted(seen.items(), key=lambda item: sorted(item[0])):
        w_amb = tuple(
            sum(w[i] * coord_map[i][t] for i in range(d)) for t in range(rank)
        )
        facets.append((w_amb, zero))
    return _ConeGeometry(d, pointed, coord_map, span_eqs, facets, faces, nonextreme)


def _fm_core(nvars: int, constraints: List[Tuple[Tuple[int, ...], int]]) -> bool:
    """Fourier-Motzkin on integer constraints a.x >= c."""
    rows = constraints
    limit = 200000
    while True:
        live = [v for v in range(nvars) if any(a[v] for a, _ in rows)]
        consts = [(a, c) for a, c in rows if not any(a)]
        if any(c > 0 for _, c in consts):
            return False
        if not live:
            return True
        best_v, best_cost = None, None
        for v in live:
            pos = sum(1 for a, _ in rows if a[v] > 0)
            neg = sum(1 for a, _ in rows if a[v] < 0)
            cost = pos * neg
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        v = best_v
        pos = [(a, c) for a, c in rows if a[v] > 0]
        neg = [(a, c) for a, c in rows if a[v] < 0]
        keep = [(a, c) for a, c in rows if a[v] == 0]
        new_rows = dict((key, None) for key in keep)
        for ap, cp in pos:
            for an, cn in neg:
                s, t = -an[v], ap[v]
                b = tuple(s * x + t * y for x, y in zip(ap, an))
                d = s * cp + t * cn
                g = abs(d)
                for x in b:
                    g = gcd(g, x)
                if g > 1:
                    b = tuple(x // g for x in b)
                    d //= g
                new_rows[(b, d)] = None
        rows = list(new_rows.keys())
        if len(rows) > limit:
            raise RuntimeError("Fourier-Motzkin elimination exploded")


def _per_fan(fn):
    """Compute fn(fan, *args) once per Fan object; later calls with the
    same arguments share the first result, which callers must not mutate."""

    @functools.wraps(fn)
    def once(fan, *args):
        key = (once, args)
        if key not in fan._memo:
            fan._memo[key] = fn(fan, *args)
        return fan._memo[key]

    return once


class Fan:
    """A rational fan in a lattice of the given rank.

    Cones are stored explicitly, including the zero cone, sorted by
    (dimension, ray indices).  `strata[p]` lists the indices of the cones
    of codimension p.
    """

    def __init__(
        self,
        rank: int,
        rays: Tuple[Tuple[int, ...], ...],
        cones: Tuple[Cone, ...],
        name: Optional[str],
        hreps: Dict[FrozenSet[int], _ConeGeometry],
        max_faces: Dict[FrozenSet[int], Set[FrozenSet[int]]],
    ):
        self.rank = rank
        self.rays = rays
        self.cones = cones
        self.name = name
        self._hreps = hreps
        self._index = {frozenset(c.rays): i for i, c in enumerate(cones)}
        self.strata: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(i for i, c in enumerate(cones) if rank - c.dim == p)
            for p in range(rank + 1)
        )
        # The faces of a cone are the faces of any maximal cone holding it
        # that lie inside it; they come before it in the (dim, rays) order.
        sets = list(self._index)  # the ray set of each cone, in cone order
        self._faces: List[Tuple[int, ...]] = [()] * len(cones)
        proper: Set[int] = set()
        for mset, faces in max_faces.items():
            members = sorted(self._index[f] for f in faces)
            for k, ci in enumerate(members):
                if not self._faces[ci]:
                    self._faces[ci] = tuple(
                        j for j in members[: k + 1] if sets[j] <= sets[ci]
                    )
            proper.update(self._index[f] for f in faces if f != mset)
        self._maximal = tuple(i for i in range(len(cones)) if i not in proper)
        self._memo: Dict[tuple, object] = {}

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Fan(rank={self.rank}, rays={len(self.rays)}, "
            f"cones={len(self.cones)}{label})"
        )

    def cone_index(self, ray_indices: Sequence[int]) -> int:
        return self._index[frozenset(ray_indices)]

    def cone_vectors(self, ci: int) -> List[Tuple[int, ...]]:
        return [self.rays[i] for i in self.cones[ci].rays]

    def faces_of(self, ci: int) -> Tuple[int, ...]:
        return self._faces[ci]

    def maximal_cones(self) -> Tuple[int, ...]:
        return self._maximal

    def is_simplicial(self) -> bool:
        return all(len(c.rays) == c.dim for c in self.cones)

    def facet_pairs(self) -> List[Tuple[int, int]]:
        """Pairs (si, ti) where cone si is a codimension-one face of cone ti."""
        out = []
        for ti, c in enumerate(self.cones):
            for si in self._faces[ti]:
                if self.cones[si].dim == c.dim - 1:
                    out.append((si, ti))
        out.sort()
        return out

    @_per_fan
    def is_complete(self) -> bool:
        """Completeness check: a full-dimensional cone exists, every wall
        bounds exactly two full-dimensional cones, and a fixed sample of
        rational directions is covered."""
        n = self.rank
        full = [i for i in self._maximal if self.cones[i].dim == n]
        ok = bool(full)
        if ok:
            full_sets = [set(self.cones[i].rays) for i in full]
            for c in self.cones:
                if c.dim != n - 1:
                    continue
                count = sum(1 for s in full_sets if set(c.rays) <= s)
                if count != 2:
                    ok = False
                    break
        if ok:
            rng = random.Random(7509131)
            samples = []
            while len(samples) < 2 * n + 5:
                v = tuple(rng.randint(-9, 9) for _ in range(n))
                if any(v):
                    samples.append(v)
            for v in samples:
                hit = False
                for i in full:
                    geo = self._hreps[frozenset(self.cones[i].rays)]
                    if all(
                        sum(w * x for w, x in zip(normal, v)) >= 0
                        for normal, _ in geo.facets
                    ):
                        hit = True
                        break
                if not hit:
                    ok = False
                    break
        return ok

    def is_nonsingular(self) -> bool:
        """True iff every cone's rays form part of a lattice basis."""
        for c in self.cones:
            if not c.rays:
                continue
            if len(c.rays) != c.dim:
                return False
            vectors = [self.rays[i] for i in c.rays]
            if saturation_index(self.rank, vectors) != 1:
                return False
        return True

    def f_vector(self) -> List[int]:
        """[f_{-1}, f_0, ..., f_{n-1}] where f_{k} counts (k+1)-dimensional cones."""
        counts = [0] * (self.rank + 1)
        for c in self.cones:
            counts[c.dim] += 1
        return counts

    def h_vector(self) -> List[int]:
        """Binomial transform of the f-vector.

        Meaningful as a Betti vector only for complete simplicial fans;
        computed unconditionally.
        """
        f = self.f_vector()
        n = self.rank
        return [
            sum(
                (-1) ** (k - i) * comb(n - i, k - i) * f[i]
                for i in range(k + 1)
            )
            for k in range(n + 1)
        ]

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "maximal_cones": sorted(
                sorted(self.cones[i].rays) for i in self._maximal
            ),
        }
        if self.name is not None:
            out["name"] = self.name
        return out


def _check_pair(
    rank: int,
    rays: Sequence[Tuple[int, ...]],
    set_a: FrozenSet[int],
    geo_a: _ConeGeometry,
    faces_a: Set[FrozenSet[int]],
    set_b: FrozenSet[int],
    geo_b: _ConeGeometry,
    faces_b: Set[FrozenSet[int]],
) -> None:
    common = set_a & set_b
    if common not in faces_a:
        raise BadIntersection(set_a, set_b, "shared rays are not a face of the first")
    if common not in faces_b:
        raise BadIntersection(set_a, set_b, "shared rays are not a face of the second")
    if common == set_a or common == set_b:
        return
    # Supporting functional for the common face inside cone A: the sum of
    # the inward normals of the facets of A containing it.
    order_a = sorted(set_a)
    local_common = frozenset(order_a.index(i) for i in common)
    support = [
        normal for normal, zero in geo_a.facets if local_common <= zero
    ]
    w = tuple(sum(col) for col in zip(*support))
    order_b = sorted(set_b)
    gens_b = [rays[i] for i in order_b]
    nb = len(gens_b)
    ineqs: List[Tuple[List[int], int]] = []
    eqs: List[Tuple[List[int], int]] = []
    for j in range(nb):
        unit = [0] * nb
        unit[j] = 1
        ineqs.append((unit, 0))
    for eq in geo_a.span_eqs:
        row = [sum(e * x for e, x in zip(eq, g)) for g in gens_b]
        eqs.append((row, 0))
    for normal, _ in geo_a.facets:
        row = [sum(n * x for n, x in zip(normal, g)) for g in gens_b]
        ineqs.append((row, 0))
    target = [sum(wx * x for wx, x in zip(w, g)) for g in gens_b]
    ineqs.append((target, 1))
    rows = [(tuple(a), c) for a, c in ineqs]
    for a, c in eqs:
        rows.append((tuple(a), c))
        rows.append((tuple(-x for x in a), -c))
    if _fm_core(nb, rows):
        raise BadIntersection(
            set_a, set_b, "intersection is strictly larger than the shared face"
        )


def from_maximal_cones(
    rank: int,
    rays: Sequence[Sequence[int]],
    maximal_cones: Sequence[Sequence[int]],
    *,
    validate_pairs: Optional[bool] = None,
    name: Optional[str] = None,
) -> Fan:
    """Build a fan from ray vectors and maximal cones given as ray index sets.

    The zero cone is implicit.  Face closure is computed by exact facet
    enumeration per cone.  Pairwise intersection validation runs by default
    for rank <= 4 and can be forced either way with `validate_pairs`.
    """
    if not isinstance(rank, int) or rank < 1:
        raise ValidationError(f"rank must be a positive integer, got {rank!r}")
    ray_list: List[Tuple[int, ...]] = []
    seen_rays: Set[Tuple[int, ...]] = set()
    for r in rays:
        vec = tuple(int(x) for x in r)
        if len(vec) != rank:
            raise ValidationError(f"ray {vec} does not have length {rank}")
        g = 0
        for x in vec:
            g = gcd(g, x)
        if g != 1:
            raise NonPrimitiveRay(vec)
        if vec in seen_rays:
            raise ValidationError(f"duplicate ray {vec}")
        seen_rays.add(vec)
        ray_list.append(vec)

    max_sets: List[FrozenSet[int]] = []
    seen_sets: Set[FrozenSet[int]] = set()
    for mc in maximal_cones:
        s = frozenset(int(i) for i in mc)
        for i in s:
            if not 0 <= i < len(ray_list):
                raise ValidationError(f"cone ray index {i} out of range")
        if s not in seen_sets:
            seen_sets.add(s)
            max_sets.append(s)
    if not max_sets:
        max_sets = [frozenset()]

    used = set().union(*max_sets) if max_sets else set()
    for i in range(len(ray_list)):
        if i not in used:
            raise ValidationError(f"ray {ray_list[i]} not used by any maximal cone")

    geo_by_set: Dict[FrozenSet[int], _ConeGeometry] = {}
    faces_by_set: Dict[FrozenSet[int], Set[FrozenSet[int]]] = {}
    all_sets: Set[FrozenSet[int]] = {frozenset()}
    for mset in max_sets:
        order = sorted(mset)
        vectors = [ray_list[i] for i in order]
        geo = _cone_geometry(rank, vectors)
        if not geo.pointed:
            raise NotPointed(order)
        if geo.nonextreme:
            j = geo.nonextreme[0]
            raise BadIntersection(
                (order[j],), order, "listed ray is not an extreme ray of the cone"
            )
        global_faces = {
            frozenset(order[j] for j in face) for face in geo.faces
        }
        geo_by_set[mset] = geo
        faces_by_set[mset] = global_faces
        all_sets |= global_faces

    dim_cache: Dict[FrozenSet[int], int] = {}

    def set_dim(s: FrozenSet[int]) -> int:
        if s not in dim_cache:
            dim_cache[s] = lin_rank([ray_list[i] for i in s])
        return dim_cache[s]

    cone_list = sorted(all_sets, key=lambda s: (set_dim(s), tuple(sorted(s))))
    cones = tuple(Cone(tuple(sorted(s)), set_dim(s)) for s in cone_list)

    if validate_pairs is None:
        validate_pairs = rank <= 4
    if validate_pairs:
        for ai in range(len(max_sets)):
            for bi in range(ai + 1, len(max_sets)):
                a, b = max_sets[ai], max_sets[bi]
                _check_pair(
                    rank, ray_list, a, geo_by_set[a], faces_by_set[a],
                    b, geo_by_set[b], faces_by_set[b],
                )

    return Fan(rank, tuple(ray_list), cones, name, geo_by_set, faces_by_set)


def fan_from_json(text: str, *, validate_pairs: Optional[bool] = None) -> Fan:
    """Parse a fan from its JSON representation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for key in ("rank", "rays", "maximal_cones"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    rank = data["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ParseError("rank must be an integer", "rank")
    rays = data["rays"]
    if not isinstance(rays, list):
        raise ParseError("rays must be a list", "rays")
    for i, r in enumerate(rays):
        if not isinstance(r, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in r
        ):
            raise ParseError("each ray must be a list of integers", f"rays[{i}]")
    cones = data["maximal_cones"]
    if not isinstance(cones, list):
        raise ParseError("maximal_cones must be a list", "maximal_cones")
    for i, c in enumerate(cones):
        if not isinstance(c, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in c
        ):
            raise ParseError(
                "each maximal cone must be a list of ray indices",
                f"maximal_cones[{i}]",
            )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string", "name")
    return from_maximal_cones(rank, rays, cones, name=name, validate_pairs=validate_pairs)


def fan_to_json(fan: Fan) -> str:
    """Canonical JSON for a fan: stable key order, no whitespace variance."""
    return json.dumps(fan.to_json_dict(), sort_keys=True, separators=(",", ": "))


def read_json(path: str, *, validate_pairs: Optional[bool] = None) -> Fan:
    with open(path, "r", encoding="utf-8") as fh:
        return fan_from_json(fh.read(), validate_pairs=validate_pairs)


def write_json(fan: Fan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fan_to_json(fan) + "\n")
