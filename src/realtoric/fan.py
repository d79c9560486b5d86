"""Rational fans: construction, validation, combinatorics, JSON input and output.

All geometry is exact, in integers, with one polyhedral algorithm: the
double description of `_cone_geometry` finds each cone's faces, and it
decides the cone pairs that `_check_pair`'s separation certificate leaves.
A complete input is validated without pairs, by `_check_complete`.
"""
from __future__ import annotations

import functools
import json
from itertools import combinations, count
from math import comb, gcd
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .gf2 import CrossCheckFailed
from .intlin import (
    IntMatrix,
    _prefix_eliminations,
    identity,
    primitive_vector,
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
    "FACET_SUBSET_LIMIT",
    "PAIR_LIMIT",
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


# Largest count, summed over the maximal cones, of the facet searches of
# one build: a cone of k rays spanning d dimensions counts C(k, d - 1), its
# (d - 1)-subsets of rays, a simplicial one too.  A facet holds d - 1
# independent rays, so the count also bounds every facet list of the
# cone's double description.  cyclic57 counts 714, p1^8 2,048.
FACET_SUBSET_LIMIT = 5000

# Largest number of pairs of maximal cones that pair validation may check:
# p1^8 has 32,640.
PAIR_LIMIT = 50000

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


class Cone(NamedTuple):
    """A cone of the fan, identified by its set of ray indices."""

    rays: Tuple[int, ...]
    dim: int

    def __repr__(self) -> str:
        return f"Cone(rays={list(self.rays)}, dim={self.dim})"


class _ConeGeometry(NamedTuple):
    """A cone's face data, every ray set a bitmask over the ray labels."""

    dim: int
    pointed: bool
    span_eqs: List[List[int]]           # (rank - dim) x rank: orbit projection, zero on the span
    facets: List[int]                   # facet zero sets, in order of rays
    face_masks: Set[int]                # every face
    nonextreme: List[int]               # listed rays that are not extreme
    labels: Tuple[int, ...]             # the ray label of each vector, in order
    local: Tuple[dict, IntMatrix, IntMatrix] = ({}, [], [])  # what _facet_normals reads


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


def _opposite_normal(h: IntMatrix, j: int) -> Tuple[int, ...]:
    """The primitive normal of the facet opposite ray j of a simplicial
    cone whose rays are the columns of the square upper triangular h: zero
    on every column but j and positive on column j, by fraction-free back
    substitution from entry j on (the entries before it are zero).  Only
    the nonzero entries, listed in support, enter s; a step with s = 0
    leaves entry i zero and would only scale n by a unit."""
    n = [0] * len(h)
    n[j] = 1
    support = [j]
    for i in range(j + 1, len(h)):
        s = sum(n[m] * h[m][i] for m in support)
        if not s:
            continue
        t = h[i][i]
        g = gcd(s, t)
        n = [x * (t // g) for x in n]
        n[i] = -s // g
        support.append(i)
    if n[j] * h[j][j] < 0:
        n = [-x for x in n]
    return primitive_vector(n)


def _cone_geometry(
    rank: int,
    vectors: List[Tuple[int, ...]],
    labels: Optional[Sequence[int]] = None,
    budget: int = FACET_SUBSET_LIMIT,
) -> _ConeGeometry:
    """Exact face data for the cone spanned by the given integer vectors;
    the faces are bitmasks over labels, the ray indices of the vectors
    (default: their positions).  ResourceLimitExceeded is raised before the
    facet search if C(k, d - 1), for k vectors spanning d dimensions, is
    more than budget; a simplicial cone counts C(d, d - 1) = d.  The count
    bounds the facets of the cone on any of the vectors, so every facet
    list of the search.

    One `span_elimination` of the vectors gives the dimension d, the span
    coordinates (rows ..d of U, in which the vectors are the columns of H)
    and the orbit projection.  For k = d the facets are the
    sets of all vectors but one, and no normal is computed here.
    Otherwise the pivot columns of H[:d] are d independent vectors whose
    square part is upper triangular; each facet normal of their simplicial
    cone comes from its back substitution, and the other vectors are added
    one at a time by double description in exact integers (Motzkin et al.
    1953; Fukuda & Prodon, "Double description method revisited", 1996): a
    facet >= 0 on the new vector stays, and each adjacent pair of a facet
    > 0 and a facet < 0 on it is combined into the facet through the
    vector and the ridge they share.  Two facets are adjacent when no third
    facet's zero set holds their common one.  The work follows the facet
    lists, not the C(k, d - 1) subsets.  The faces are the intersections of
    facet zero sets, and the cone is pointed iff the empty set is one of
    them: the rays on every facet span the lineality space, which is {0}
    iff no ray lies on every facet.  The normals in lattice coordinates are
    left to `_facet_normals`, which only their readers call.
    """
    k = len(vectors)
    labels = tuple(range(k) if labels is None else labels)
    if k == 0:
        return _ConeGeometry(0, True, identity(rank), [], {0}, [], labels)
    bit = [1 << j for j in labels]
    h, u, proj, d = span_elimination(rank, vectors)
    h, u = h[:d], u[:d]
    if comb(k, d - 1) > budget:
        raise ResourceLimitExceeded(
            f"the facet searches would count more than {FACET_SUBSET_LIMIT} ray subsets"
        )

    # facet zero set -> local normal, or for k = d the vector it misses
    full = sum(bit)
    if k == d:
        seen = {full ^ bit[j]: j for j in range(k)}
        # every ray subset spans a face
        faces, sub = {0}, full
        while sub:
            faces.add(sub)
            sub = (sub - 1) & full
        pointed, nonextreme = True, []
    else:
        # first the simplicial cone on the pivot columns of H, whose square
        # part is upper triangular, then the other vectors one at a time
        pivots = [row.index(next(filter(None, row))) for row in h]
        square = [[row[j] for j in pivots] for row in h]
        base = sum(bit[j] for j in pivots)
        seen = {base ^ bit[j]: _opposite_normal(square, i) for i, j in enumerate(pivots)}
        coords = list(zip(*h))
        for j in (j for j in range(k) if j not in pivots):
            kept: Dict[int, Tuple[int, ...]] = {}
            pos, neg = [], []
            for zero, normal in seen.items():
                s = sum(map(mul, normal, coords[j]))
                if s > 0:
                    kept[zero] = normal
                    pos.append((zero, normal, s))
                elif s < 0:
                    neg.append((zero, normal, s))
                else:
                    kept[zero | bit[j]] = normal
            for zero_a, normal_a, s_a in pos:
                for zero_b, normal_b, s_b in neg:
                    common = zero_a & zero_b
                    # the zero set of a ridge spans d - 2 dimensions, so it
                    # holds d - 2 vectors at least
                    if common.bit_count() < d - 2 or any(
                        common & z == common for z in seen if z != zero_a and z != zero_b
                    ):
                        continue
                    kept[common | bit[j]] = primitive_vector(
                        [s_a * y - s_b * x for x, y in zip(normal_a, normal_b)]
                    )
            seen = kept

        faces = {full}
        frontier = set(seen)
        while frontier:
            faces |= frontier
            frontier = {f & z for f in frontier for z in seen} - faces
        pointed = 0 in faces
        nonextreme = [j for j in range(k) if bit[j] not in faces]

    facets = sorted(seen, key=_bits)
    return _ConeGeometry(d, pointed, proj, facets, faces, nonextreme, labels, (seen, h, u))


def _facet_normals(geo: _ConeGeometry) -> List[Tuple[Tuple[int, ...], int]]:
    """(primitive inward normal in lattice coordinates, zero set) of each
    facet of the cone, in the order of geo.facets.  Only the readers of
    normals call this: the pair check, the hulls of `constructions`, and
    tests.  For a simplicial cone the normals come from back substitution
    in H here."""
    seen, h, u = geo.local
    simplicial = geo.dim == len(geo.labels)
    local = (_opposite_normal(h, seen[z]) if simplicial else seen[z] for z in geo.facets)
    # n @ u as a sum of the rows of u at the nonzero entries of n
    return [
        (tuple(map(sum, zip(*[map(x.__mul__, row) for x, row in zip(n, u) if x]))), z)
        for n, z in zip(local, geo.facets)
    ]


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
    of codimension p.  The only face data kept is each cone's facets, the
    faces one dimension lower, as cone indices.  `ray_masks` holds the ray
    set of each cone as a bitmask over the ray indices.  Only
    from_maximal_cones builds a Fan, and it hands over all of these.
    """

    def __init__(
        self,
        rank: int,
        rays: Tuple[Tuple[int, ...], ...],
        cones: Tuple[Cone, ...],
        name: Optional[str],
        facets: Tuple[Tuple[int, ...], ...],
        projections: Tuple[IntMatrix, ...],
        ray_masks: Tuple[int, ...],
        strata: Tuple[Tuple[int, ...], ...],
    ):
        self.rank = rank
        self.rays = rays
        self.cones = cones
        self.name = name
        self._facets = facets
        self._projections = projections
        self.ray_masks = ray_masks
        self.strata = strata
        # a cone that is a proper face of another is a facet of one
        proper = {si for fs in facets for si in fs}
        self._maximal = tuple(i for i in range(len(cones)) if i not in proper)
        self._memo: Dict[tuple, object] = {}

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Fan(rank={self.rank}, rays={len(self.rays)}, "
            f"cones={len(self.cones)}{label})"
        )

    def orbit_projection(self, ci: int) -> IntMatrix:
        """P of cone ci, onto Z^codim with kernel the saturated span of its rays:
        the list of its one elimination at build time, not to be mutated."""
        return self._projections[ci]

    def maximal_cones(self) -> Tuple[int, ...]:
        return self._maximal

    @_per_fan
    def facet_pairs(self) -> List[Tuple[int, int]]:
        """Pairs (si, ti), in sorted order, where cone si is a codimension-one face of cone ti."""
        up: List[List[int]] = [[] for _ in self._facets]
        for ti, fs in enumerate(self._facets):
            for si in fs:
                up[si].append(ti)
        return [(si, ti) for si, ts in enumerate(up) for ti in ts]

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
        (-1)".  On a fan it is also necessary, so it is exact.  The result
        is memoized: a validated build decides it first, to choose between
        the interior count of `_check_complete` and the pair loop, and
        later callers share that answer.
        """
        if any(self.cones[ci].dim != self.rank for ci in self._maximal):
            return False
        sides: Dict[int, List[int]] = {wi: [] for wi in self.strata[1]}
        for ci in self.strata[0]:
            for wi in self._facets[ci]:
                off = self.ray_masks[ci] & ~self.ray_masks[wi]
                v = self.rays[(off & -off).bit_length() - 1]
                sides[wi].append(sum(map(mul, self._projections[wi][0], v)))
        return all(len(s) == 2 and s[0] * s[1] < 0 for s in sides.values())

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


def _supporting(facets: List[Tuple[Tuple[int, ...], int]], face: int) -> Tuple[int, ...]:
    """The sum of the inward normals of the facets containing the face
    (a ray bitmask) of the cone: >= 0 on the cone, and zero on it exactly
    along that face."""
    support = [normal for normal, zero in facets if face & zero == face]
    return tuple(sum(col) for col in zip(*support))


def _meets_off_face(p: IntMatrix, off_a: list, off_b: list) -> bool:
    """Whether the cone on the images under p of off_a and of -off_b is
    not pointed, by its double description (see `_check_pair`)."""
    gens = [tuple(sum(map(mul, row, v)) for row in p) for v in off_a]
    gens += [tuple(-sum(map(mul, row, v)) for row in p) for v in off_b]
    return not _cone_geometry(len(p), gens, budget=FACET_SUBSET_LIMIT).pointed


def _check_pair(
    rays: Sequence[Tuple[int, ...]],
    projections: Dict[int, IntMatrix],
    mask_a: int, geo_a: _ConeGeometry, facets_a: List[Tuple[Tuple[int, ...], int]],
    mask_b: int, geo_b: _ConeGeometry, facets_b: List[Tuple[Tuple[int, ...], int]],
) -> None:
    """Raise BadIntersection unless the cones A and B (ray bitmasks, with
    their geometry and `_facet_normals`, which the caller computes once per
    cone) meet in the face F spanned by their shared rays; projections
    maps each face of the build to its orbit projection P.

    F must be a face of both, so no other ray of A or B lies in it.  Then
    a separation certificate is tried first (Cox, Little & Schenck, *Toric
    Varieties*, Lemma 1.2.13): w, the sum of the inward normals of the
    facets of A containing F, is >= 0 on A and zero on A exactly along F.
    If w <= 0 on every ray of B, then A and B meet inside w-perp, so in F;
    F lies in both, so they meet in F.  Any extension of w off the span of
    A will do.  The same test is tried with A and B swapped.  When neither
    certifies, A and B meet in F iff the cone C on the images modulo
    span(F) of A's other rays and the negated images of B's is pointed,
    which `_meets_off_face` decides from F's orbit projection P (held to
    FACET_SUBSET_LIMIT on its own).  Write [x] for the image of x.  [A]
    and [B] are pointed (w > 0 on the other rays, 0 on span(F)), so C has a
    line iff some [x] != 0 lies in [A] and [B].  Lift it: [x] = [a] = [b],
    a - b = f1 - f2 for some f1, f2 in F, and a + f2 = b + f1 lies in A
    and B, outside F.  Conversely x in A and B outside F has [x] != 0,
    because A meets span(F) only in F.
    """
    common = mask_a & mask_b
    order_a, order_b = geo_a.labels, geo_b.labels
    if common not in geo_a.face_masks:
        raise BadIntersection(order_a, order_b, "shared rays are not a face of the first")
    if common not in geo_b.face_masks:
        raise BadIntersection(order_a, order_b, "shared rays are not a face of the second")
    if common == mask_a or common == mask_b:
        return
    w = _supporting(facets_a, common)
    if all(sum(map(mul, w, rays[i])) <= 0 for i in order_b):
        return
    w_b = _supporting(facets_b, common)
    if all(sum(map(mul, w_b, rays[i])) <= 0 for i in order_a):
        return
    off_a = [rays[i] for i in order_a if not common >> i & 1]
    off_b = [rays[i] for i in order_b if not common >> i & 1]
    if _meets_off_face(projections[common], off_a, off_b):
        raise BadIntersection(
            order_a, order_b, "intersection is strictly larger than the shared face"
        )


def _check_complete(
    rank: int, checked: List[Tuple[int, _ConeGeometry, List[Tuple[Tuple[int, ...], int]]]]
) -> None:
    """Validate a complete input with no pair loop: the rank is >= 2,
    every listed cone is full-dimensional, and every wall is a facet of
    exactly two of them, on opposite sides (`Fan.is_complete`).  checked
    holds each cone's ray bitmask, geometry and `_facet_normals`, as the
    pair loop reads them.  x is the first point (1, t, .., t^(rank - 1)),
    for t = 1, 2, .., off every facet hyperplane; a nonzero normal
    vanishes there for at most rank - 1 values of t, so the search ends.
    A cone holds x in its interior iff every inward normal is > 0 on x.
    Let c(x) count those cones: c(x) = 1 accepts the input, c(x) >= 2
    raises BadIntersection naming two of them, and c(x) = 0, which
    completeness excludes, raises CrossCheckFailed, so the check does not
    rest on an assert that `python -O` strips.

    Proof.  Let S be the union of all faces of dimension <= rank - 2.
    1. Off S, c is locally constant.  A point y off S lies in the interior
       of each cone that holds it or in the relative interior of one wall
       of it, and each wall through y brings its two cones, one on each
       side; so near y the count is the same on both sides of each wall.
       S is a finite union of cones of codimension >= 2, so R^rank minus
       S is connected, and c is c(x) at every point off S and the walls.
    2. If c(x) = 1, the interiors are pairwise disjoint: an overlap is
       open, so it holds a point off S and off every wall, where c >= 2.
    3. Take y in a cone A, and F the smallest face of A that holds y.  If
       a cone has F as its smallest face at y and G is one of its walls
       through F, then F is also a face of G's other cone.  So crossing
       walls through F never leaves the cones whose smallest face at y is
       F, and modulo span(F) these cones cover the quotient, by the
       connectivity of step 1 (a pair of half-lines when the quotient is a
       line).  Any cone through y with a different smallest face would
       then overlap one of them.  Hence for cones A and B, A meets B in
       the smallest face of A at a point of the relative interior of
       their intersection, and that is a face of both.
    """
    normals = {normal for _, _, facets in checked for normal, _ in facets}
    for t in count(1):
        x = [t**i for i in range(rank)]
        if all(sum(map(mul, normal, x)) for normal in normals):
            break
    inside = [
        geo.labels for _, geo, facets in checked
        if all(sum(map(mul, normal, x)) > 0 for normal, _ in facets)
    ]
    if len(inside) >= 2:
        raise BadIntersection(*inside[:2], f"both interiors hold the point {tuple(x)}")
    if not inside:
        raise CrossCheckFailed(f"no cone of a complete fan holds the point {tuple(x)}")


def from_maximal_cones(
    rank: int,
    rays: Sequence[Sequence[int]],
    maximal_cones: Sequence[Sequence[int]],
    *,
    validate_pairs: Optional[bool] = None,
    name: Optional[str] = None,
) -> Fan:
    """Build a fan from ray vectors and maximal cones given as ray index sets.

    The zero cone is implicit.  Each maximal cone's facet search (a
    double description, see `_cone_geometry`) gives its faces and facets,
    and the facets of each of its faces; every cone's dimension and orbit
    projection come from one integer elimination of its rays, which for a
    face extends the elimination of its ray prefix by one column.
    Validation that every two cones meet in a common face runs by default
    for rank <= 4 and can be forced either way with `validate_pairs`.  It
    runs on the built Fan: when the rank is >= 2,
    every listed cone is full-dimensional and `Fan.is_complete` holds, the
    count of the cones whose interior holds one generic point decides it
    in linear time (`_check_complete`); otherwise every pair is checked (a
    separation certificate, then, for the pairs it cannot certify, the
    pointedness of one cone modulo the shared face, see `_check_pair`).
    Only validation reads facet normals (`_facet_normals`, once per
    maximal cone, for either rule), so an unvalidated build computes none
    for a simplicial cone.  Ray entries and cone indices must be ints;
    nothing is coerced.
    ResourceLimitExceeded is raised before the work they bound for more
    than PAIR_LIMIT pairs of cones in a validated build, complete or not,
    for facet searches that count more
    than FACET_SUBSET_LIMIT ray subsets in all (C(k, d - 1) for a maximal
    cone of k rays spanning d dimensions, a bound on each of its facet
    lists) or in the quotient cone of one pair check, and for a real
    complex of more than REAL_CELL_LIMIT cells: they are counted as the
    cones are found, the zero cone's 2**rank before anything is built and
    each ray's 2**(rank - 1) before any facet search.
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
        if gcd(*vec) != 1:
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

    used = set().union(*max_sets)
    for i in range(len(ray_list)):
        if i not in used:
            raise ValidationError(f"ray {ray_list[i]} not used by any maximal cone")
    # the zero cone and the rays, cones of codimension rank - 1, before any
    # facet search
    _count_cells(len(ray_list) << (rank - 1), rank)
    if validate_pairs is None:
        validate_pairs = rank <= 4
    if validate_pairs and comb(len(max_sets), 2) > PAIR_LIMIT:
        raise ResourceLimitExceeded(
            f"pair validation would check more than {PAIR_LIMIT} pairs of cones"
        )

    geo_by_mask: Dict[int, _ConeGeometry] = {}
    # each face -> the facet zero sets of a maximal cone holding it
    outer: Dict[int, List[int]] = {}
    projections: Dict[int, IntMatrix] = {}
    cells = tried = 0
    for mset in max_sets:
        order = sorted(mset)
        vectors = [ray_list[i] for i in order]
        geo = _cone_geometry(rank, vectors, order, FACET_SUBSET_LIMIT - tried)
        tried += comb(len(order), geo.dim - 1) if order else 0
        if not geo.pointed:
            raise NotPointed(order)
        if geo.nonextreme:
            j = geo.nonextreme[0]
            raise BadIntersection(
                (order[j],), order, "listed ray is not an extreme ray of the cone"
            )
        mask = _mask(order)
        geo_by_mask[mask] = geo
        outer.update(dict.fromkeys(geo.face_masks - outer.keys(), geo.facets))
        projections[mask] = geo.span_eqs
        cells = _count_cells(cells, rank - geo.dim)
    # the other faces in lexicographic order of their rays, each extending
    # the elimination of its ray prefix by one column step
    rays_of = {face: _bits(face) for face in outer}
    faces = sorted((face for face in rays_of if face not in projections), key=rays_of.__getitem__)
    states = _prefix_eliminations(rank, map(rays_of.__getitem__, faces), ray_list)
    for face, (u, r) in zip(faces, states):
        projections[face] = u[r:]
        cells = _count_cells(cells, rank - r)

    # (dimension, rays) of each cone: the codimension is the number of rows
    # of its projection
    dim_rays = {m: (rank - len(p), tuple(rays_of[m])) for m, p in projections.items()}
    cone_list = sorted(dim_rays, key=dim_rays.__getitem__)
    cones = tuple(Cone(rays, dim) for dim, rays in map(dim_rays.__getitem__, cone_list))
    # The facets of a face t of a cone are the t & z, over the cone's
    # facets z, one dimension below t (Cox, Little & Schenck, section 1.2).
    index = {m: i for i, m in enumerate(cone_list)}
    facets = tuple(
        tuple(index[f] for f in {t & z for z in outer[t]} if dim_rays[f][0] == dim_rays[t][0] - 1)
        for t in cone_list
    )

    strata: List[List[int]] = [[] for _ in range(rank + 1)]
    for i, m in enumerate(cone_list):
        strata[rank - dim_rays[m][0]].append(i)

    fan = Fan(
        rank, tuple(ray_list), cones, name, facets, tuple(map(projections.__getitem__, cone_list)),
        tuple(cone_list), tuple(map(tuple, strata)),
    )
    if validate_pairs:
        checked = [(mask, geo, _facet_normals(geo)) for mask, geo in geo_by_mask.items()]
        if (
            rank >= 2
            and all(geo.dim == rank for geo in geo_by_mask.values())
            and fan.is_complete()
        ):
            _check_complete(rank, checked)
        else:
            for a, b in combinations(checked, 2):
                _check_pair(ray_list, projections, *a, *b)
    return fan


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
