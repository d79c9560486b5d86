"""Rational fans: construction, validation, combinatorics, JSON input and output.

All geometry is exact: integer arithmetic for cone face enumeration; the
pairwise intersection check tries a separation certificate, then
Fourier-Motzkin elimination for the pairs it cannot certify.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .intlin import (
    IntMatrix,
    _column_matrix,
    _echelon,
    identity,
    lin_rank,
    quotient_with_section,
    span_elimination,
)

__all__ = [
    "FanError",
    "ParseError",
    "ValidationError",
    "NonPrimitiveRay",
    "NotPointed",
    "BadIntersection",
    "ResourceLimitExceeded",
    "FM_ROW_LIMIT",
    "REAL_CELL_LIMIT",
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


class ResourceLimitExceeded(FanError):
    """An exact computation on the input would outgrow a fixed limit."""


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


# Largest number of constraint rows a Fourier-Motzkin elimination of the
# pair check may hold before the input is rejected as too large.
FM_ROW_LIMIT = 200000

# Largest number of cells, the sum over the cones of 2**codimension, that
# the real complex of a fan may have before the fan is rejected as too
# large: p1^8 has 65,536, p1^9 has 262,144.
REAL_CELL_LIMIT = 100000


def _count_cells(cells: int, codim: int) -> int:
    """cells plus the 2**codim cells of one more cone of that codimension
    in the real complex; raise ResourceLimitExceeded past REAL_CELL_LIMIT.
    The shift is capped, so a huge codimension builds no huge integer."""
    cells += 1 << min(codim, REAL_CELL_LIMIT.bit_length())
    if cells > REAL_CELL_LIMIT:
        raise ResourceLimitExceeded(
            f"the real complex would have more than {REAL_CELL_LIMIT} cells"
        )
    return cells


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Cone:
    """A cone of the fan, identified by its set of ray indices."""

    rays: Tuple[int, ...]
    dim: int

    def __repr__(self) -> str:
        return f"Cone(rays={list(self.rays)}, dim={self.dim})"


# (P, R) of a cone: its orbit projection and an integer section of it
_Quotient = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]


@dataclass
class _ConeGeometry:
    dim: int
    pointed: bool
    span_eqs: List[List[int]]           # (rank - dim) x rank: orbit projection, zero on the span
    section: List[List[int]]            # rank x (rank - dim): integer right inverse of span_eqs
    facets: List[Tuple[Tuple[int, ...], FrozenSet[int]]]  # (ambient normal, local zero set)
    face_masks: Set[int]                # faces as bitmasks over the ray labels
    nonextreme: List[int]               # listed rays that are not extreme
    labels: Tuple[int, ...]             # the ray label of each vector, in order

    @property
    def faces(self) -> Set[FrozenSet[int]]:
        """The faces as sets of ray labels."""
        return {frozenset(_bits(m)) for m in self.face_masks}


def _bits(mask: int) -> List[int]:
    """Indices of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _cone_geometry(
    rank: int, vectors: List[Tuple[int, ...]], labels: Optional[Sequence[int]] = None
) -> _ConeGeometry:
    """Exact face data for the cone spanned by the given integer vectors;
    the faces are bitmasks over labels, the ray indices of the vectors
    (default: their positions).

    One `span_elimination` of the vectors gives the dimension d, the span
    coordinates (rows ..d of U, in which the vectors are the columns of H),
    the orbit projection and its section.  The hyperplane through d - 1 of
    them, when they are independent, is row d - 1 of the U of their own
    elimination in those coordinates.
    """
    k = len(vectors)
    labels = tuple(range(k) if labels is None else labels)
    if k == 0:
        return _ConeGeometry(0, True, identity(rank), identity(rank), [], {0}, [], labels)
    bit = [1 << j for j in labels]
    h, u, proj, sect, d = span_elimination(rank, vectors)
    coord_map = u[:d]
    coords = [list(col) for col in zip(*h[:d])]

    # facet zero set bitmask -> (local normal, zero set as local indices)
    seen: Dict[int, Tuple[Tuple[int, ...], FrozenSet[int]]] = {}
    for subset in combinations(range(k), d - 1):
        # inside a facet found already: its hyperplane, if any, is that facet's
        mask = sum(bit[j] for j in subset)
        if any(mask & z == mask for z in seen):
            continue
        _, u_sub, _, r = _echelon(_column_matrix(d, [coords[j] for j in subset]), False)
        if r < d - 1:
            continue
        w_loc = u_sub[d - 1]
        vals = [sum(map(mul, w_loc, coords[j])) for j in range(k)]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            w_loc = [-x for x in w_loc]
            vals = [-v for v in vals]
        else:
            continue
        zero = frozenset(j for j in range(k) if vals[j] == 0)
        zero_mask = sum(bit[j] for j in zero)
        if zero_mask not in seen:
            g = 0
            for x in w_loc:
                g = gcd(g, x)
            seen[zero_mask] = (tuple(x // g for x in w_loc), zero)

    pointed = lin_rank([normal for normal, _ in seen.values()]) == d
    faces = {sum(bit)}
    frontier = set(seen)
    while frontier:
        faces |= frontier
        frontier = {f & z for f in frontier for z in seen} - faces
    nonextreme = [j for j in range(k) if bit[j] not in faces]

    facets = []
    coord_cols = list(zip(*coord_map))
    for w_loc, zero in sorted(seen.values(), key=lambda item: sorted(item[1])):
        facets.append((tuple(sum(map(mul, w_loc, col)) for col in coord_cols), zero))
    return _ConeGeometry(d, pointed, proj, sect, facets, faces, nonextreme, labels)


def _fm_core(nvars: int, constraints: List[Tuple[Tuple[int, ...], int]]) -> bool:
    """Fourier-Motzkin on integer constraints a.x >= c."""
    rows = constraints
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
        if len(rows) > FM_ROW_LIMIT:
            raise ResourceLimitExceeded(
                f"Fourier-Motzkin elimination needs more than {FM_ROW_LIMIT} "
                "constraint rows"
            )


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
        max_faces: Dict[int, Set[int]],
        quotients: Tuple[_Quotient, ...],
    ):
        self.rank = rank
        self.rays = rays
        self.cones = cones
        self.name = name
        self._quotients = quotients
        # the ray set of each cone, as a bitmask over the ray indices
        masks = self.ray_masks = tuple(_mask(c.rays) for c in cones)
        self._index = {m: i for i, m in enumerate(masks)}
        self.strata: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(i for i, c in enumerate(cones) if rank - c.dim == p)
            for p in range(rank + 1)
        )
        # The faces of a cone are the faces of any maximal cone holding it
        # that lie inside it; they come before it in the (dim, rays) order.
        self._faces: List[Tuple[int, ...]] = [()] * len(cones)
        proper: Set[int] = set()
        for mmask, faces in max_faces.items():
            members = sorted(self._index[f] for f in faces)
            member_masks = [masks[j] for j in members]
            for k, ci in enumerate(members):
                if not self._faces[ci]:
                    mc = masks[ci]
                    self._faces[ci] = tuple([
                        j for j, m in zip(members[: k + 1], member_masks) if m | mc == mc
                    ])
            proper.update(self._index[f] for f in faces if f != mmask)
        self._maximal = tuple(i for i in range(len(cones)) if i not in proper)
        self._memo: Dict[tuple, object] = {}

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Fan(rank={self.rank}, rays={len(self.rays)}, "
            f"cones={len(self.cones)}{label})"
        )

    def cone_index(self, ray_indices: Sequence[int]) -> int:
        return self._index[_mask(ray_indices)]

    def cone_vectors(self, ci: int) -> List[Tuple[int, ...]]:
        return [self.rays[i] for i in self.cones[ci].rays]

    def faces_of(self, ci: int) -> Tuple[int, ...]:
        return self._faces[ci]

    def orbit_quotient(self, ci: int) -> _Quotient:
        """(P, R) for cone ci: P maps the lattice onto Z^codim with kernel
        the saturated span of the cone's rays, R is an integer right
        inverse (P @ R = I).  Both come from the cone's one elimination at
        build time."""
        return self._quotients[ci]

    def maximal_cones(self) -> Tuple[int, ...]:
        return self._maximal

    def is_simplicial(self) -> bool:
        return all(len(c.rays) == c.dim for c in self.cones)

    @_per_fan
    def facet_pairs(self) -> List[Tuple[int, int]]:
        """Pairs (si, ti) where cone si is a codimension-one face of cone ti."""
        dims = [c.dim for c in self.cones]
        out = [
            (si, ti)
            for ti, faces in enumerate(self._faces)
            for si in faces
            if dims[si] == dims[ti] - 1
        ]
        out.sort()
        return out

    @_per_fan
    def is_complete(self) -> bool:
        """True iff the cones cover the whole space, decided exactly.

        The rule (Cox, Little & Schenck, *Toric Varieties*, sections 1.2
        and 3.4): (a) every maximal cone is full-dimensional, and (b) every
        wall (a cone of codimension one) is a facet of exactly two full
        cones, which lie on opposite sides of it.  The side of a full cone
        is the sign of the wall's orbit projection, one row whose kernel is
        the wall's span, on any ray of the cone outside the wall.

        The rule is sufficient on any input, validated or not: the union
        of the full cones is closed, and off the codimension-2 skeleton it
        is also open, since near a point inside a wall the two facets'
        half-balls cover both sides.  For rank >= 2 that skeleton cannot
        disconnect the sphere; for rank 1 the rule reads "rays (1) and
        (-1)".  On a fan it is also necessary, so it is exact.
        """
        if any(self.cones[ci].dim != self.rank for ci in self._maximal):
            return False
        sides: Dict[int, List[int]] = {wi: [] for wi in self.strata[1]}
        for wi, ci in self.facet_pairs():
            if wi in sides:
                wall = self.cones[wi].rays
                v = next(self.rays[i] for i in self.cones[ci].rays if i not in wall)
                sides[wi].append(sum(map(mul, self.orbit_quotient(wi)[0][0], v)))
        return all(len(s) == 2 and s[0] * s[1] < 0 for s in sides.values())

    def is_nonsingular(self) -> bool:
        """True iff every cone's rays form part of a lattice basis.

        A subset of a basis is part of a basis, so only the maximal cones
        are checked.  Independent rays span a lattice of index
        |prod of the pivots| in its saturation, read off the diagonal of H
        in their `span_elimination` U @ A = [H; 0].
        """
        for ci in self._maximal:
            c = self.cones[ci]
            if len(c.rays) != c.dim:
                return False
            h = span_elimination(self.rank, self.cone_vectors(ci))[0]
            if any(abs(h[i][i]) != 1 for i in range(c.dim)):
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


def _supporting(geo: _ConeGeometry, face: int) -> Tuple[int, ...]:
    """The sum of the inward normals of the facets containing the face
    (a ray bitmask) of the cone: >= 0 on the cone, and zero on it exactly
    along that face."""
    local = frozenset(j for j, i in enumerate(geo.labels) if face >> i & 1)
    support = [normal for normal, zero in geo.facets if local <= zero]
    return tuple(sum(col) for col in zip(*support))


def _check_pair(
    rays: Sequence[Tuple[int, ...]],
    mask_a: int,
    geo_a: _ConeGeometry,
    mask_b: int,
    geo_b: _ConeGeometry,
) -> None:
    """Raise BadIntersection unless the cones A and B (ray bitmasks, with
    their geometry) meet in the face F spanned by their shared rays.

    F must be a face of both.  Then a separation certificate is tried
    first (Cox, Little & Schenck, *Toric Varieties*, Lemma 1.2.13): w, the
    sum of the inward normals of the facets of A containing F, is >= 0 on A
    and zero on A exactly along F.  If w <= 0 on every ray of B, then A and
    B meet inside w-perp, so in F; F lies in both, so they meet in F.  Any
    extension of w off the span of A will do.  The same test is tried with
    A and B swapped.  Only when neither certifies does Fourier-Motzkin
    decide exactly whether B holds a point of A with w >= 1.
    """
    common = mask_a & mask_b
    order_a, order_b = geo_a.labels, geo_b.labels
    if common not in geo_a.face_masks:
        raise BadIntersection(order_a, order_b, "shared rays are not a face of the first")
    if common not in geo_b.face_masks:
        raise BadIntersection(order_a, order_b, "shared rays are not a face of the second")
    if common == mask_a or common == mask_b:
        return
    w = _supporting(geo_a, common)
    if all(sum(map(mul, w, rays[i])) <= 0 for i in order_b):
        return
    w_b = _supporting(geo_b, common)
    if all(sum(map(mul, w_b, rays[i])) <= 0 for i in order_a):
        return
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
            order_a, order_b, "intersection is strictly larger than the shared face"
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
    enumeration per maximal cone; every cone's dimension, orbit projection
    and section come from one integer elimination of its rays.  Pairwise
    intersection validation (a separation certificate, then Fourier-Motzkin
    for the pairs it cannot certify) runs by default for rank <= 4 and can
    be forced either way with `validate_pairs`.  Ray entries and cone
    indices must be ints; nothing is coerced.  An intersection too large to
    decide within FM_ROW_LIMIT raises ResourceLimitExceeded, and so does a
    real complex of more than REAL_CELL_LIMIT cells: they are counted as
    the cones are found, the zero cone's 2**rank before anything is built.
    """
    if not _is_int(rank) or rank < 1:
        raise ValidationError(f"rank must be a positive integer, got {rank!r}")
    _count_cells(0, rank)
    ray_list: List[Tuple[int, ...]] = []
    seen_rays: Set[Tuple[int, ...]] = set()
    for r in rays:
        vec = tuple(r)
        if not all(map(_is_int, vec)):
            raise ValidationError(f"ray {vec} has an entry that is not an int")
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
        indices = tuple(mc)
        if not all(map(_is_int, indices)):
            raise ValidationError(f"cone {indices} has a ray index that is not an int")
        s = frozenset(indices)
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

    geo_by_mask: Dict[int, _ConeGeometry] = {}
    faces_by_mask: Dict[int, Set[int]] = {}
    quotients: Dict[int, Tuple[IntMatrix, IntMatrix]] = {}
    cells = 0
    for mset in max_sets:
        order = sorted(mset)
        vectors = [ray_list[i] for i in order]
        geo = _cone_geometry(rank, vectors, order)
        if not geo.pointed:
            raise NotPointed(order)
        if geo.nonextreme:
            j = geo.nonextreme[0]
            raise BadIntersection(
                (order[j],), order, "listed ray is not an extreme ray of the cone"
            )
        mask = _mask(order)
        geo_by_mask[mask] = geo
        faces_by_mask[mask] = geo.face_masks
        quotients[mask] = (geo.span_eqs, geo.section)
        cells = _count_cells(cells, rank - geo.dim)
    for faces in faces_by_mask.values():
        for face in faces:
            if face not in quotients:
                vectors = [ray_list[i] for i in _bits(face)]
                quotients[face] = quotient_with_section(rank, vectors)
                cells = _count_cells(cells, len(quotients[face][0]))

    # (dimension, rays) of each cone: the codimension is the number of rows
    # of its projection
    dim_rays = {m: (rank - len(q[0]), tuple(_bits(m))) for m, q in quotients.items()}
    cone_list = sorted(dim_rays, key=dim_rays.__getitem__)
    cones = tuple(Cone(rays, dim) for dim, rays in map(dim_rays.__getitem__, cone_list))
    cone_quotients = tuple(
        (tuple(map(tuple, quotients[m][0])), tuple(map(tuple, quotients[m][1])))
        for m in cone_list
    )

    if validate_pairs is None:
        validate_pairs = rank <= 4
    if validate_pairs:
        for (a, geo_a), (b, geo_b) in combinations(geo_by_mask.items(), 2):
            _check_pair(ray_list, a, geo_a, b, geo_b)

    return Fan(rank, tuple(ray_list), cones, name, faces_by_mask, cone_quotients)


def fan_from_json(text: str, *, validate_pairs: Optional[bool] = None) -> Fan:
    """Parse a fan from its JSON representation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"unreadable number: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for key in ("rank", "rays", "maximal_cones"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    rank = data["rank"]
    if not _is_int(rank):
        raise ParseError("rank must be an integer", "rank")
    rays = data["rays"]
    if not isinstance(rays, list):
        raise ParseError("rays must be a list", "rays")
    for i, r in enumerate(rays):
        if not isinstance(r, list) or not all(map(_is_int, r)):
            raise ParseError("each ray must be a list of integers", f"rays[{i}]")
    cones = data["maximal_cones"]
    if not isinstance(cones, list):
        raise ParseError("maximal_cones must be a list", "maximal_cones")
    for i, c in enumerate(cones):
        if not isinstance(c, list) or not all(map(_is_int, c)):
            raise ParseError(
                "each maximal cone must be a list of ray indices",
                f"maximal_cones[{i}]",
            )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string", "name")
    try:
        (name or "").encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, from a JSON escape such as \ud800
        raise ParseError(f"name is not valid Unicode: {exc.reason}", "name") from exc
    return from_maximal_cones(rank, rays, cones, name=name, validate_pairs=validate_pairs)


def fan_to_json(fan: Fan) -> str:
    """Canonical JSON for a fan: stable key order, no whitespace variance."""
    return json.dumps(fan.to_json_dict(), sort_keys=True, separators=(",", ": "))


def read_json(path: str, *, validate_pairs: Optional[bool] = None) -> Fan:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", f"byte {exc.start}") from exc
    return fan_from_json(text, validate_pairs=validate_pairs)


def write_json(fan: Fan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fan_to_json(fan) + "\n")
