"""Fan construction, validation, combinatorics, and JSON round trips."""
from __future__ import annotations

import json
import random
from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import mul

import pytest
import realtoric.fan
from conftest import mat_mul, mat_vec, oracle_fans
from sympy import ZZ, Matrix, eye
from sympy.matrices.normalforms import smith_normal_form

from realtoric.constructions import (
    affine_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    torus_fan,
    weighted_projective_fan,
)
from realtoric.fan import (
    BadIntersection,
    Cone,
    NonPrimitiveRay,
    NotPointed,
    REAL_CELL_LIMIT,
    ParseError,
    ResourceLimitExceeded,
    ValidationError,
    _check_pair,
    _cone_geometry,
    _mask,
    fan_from_json,
    fan_to_json,
    from_maximal_cones,
    read_json,
    write_json,
)
from realtoric.intlin import determinant, lin_rank, span_elimination


def test_projective_plane_structure():
    fan = projective_space_fan(2)
    assert fan.rank == 2
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(fan.cones) == 7
    assert fan.f_vector() == [1, 3, 3]
    assert fan.h_vector() == [1, 1, 1]
    assert [len(s) for s in fan.strata] == [3, 3, 1]
    assert len(fan.maximal_cones()) == 3
    assert fan.is_complete()
    assert fan.is_simplicial()
    assert fan.is_nonsingular()
    # facet pairs: zero cone under each ray, each ray under two 2-cones
    pairs = fan.facet_pairs()
    assert len(pairs) == 3 + 6
    for si, ti in pairs:
        assert fan.cones[si].dim == fan.cones[ti].dim - 1
        assert set(fan.cones[si].rays) <= set(fan.cones[ti].rays)


def test_cone_index_and_faces():
    fan = projective_space_fan(2)
    ci = fan.cone_index([0, 1])
    assert fan.cones[ci] == Cone(rays=(0, 1), dim=2)
    faces = fan.faces_of(ci)
    assert {tuple(fan.cones[j].rays) for j in faces} == {(), (0,), (1,), (0, 1)}
    assert fan.cone_vectors(ci) == [(1, 0), (0, 1)]


def _brute_face_lattice(fan):
    """Faces by ray-set containment over all pairs of cones."""
    sets = [set(c.rays) for c in fan.cones]
    faces = [tuple(j for j, s in enumerate(sets) if s <= t) for t in sets]
    proper = {j for i, f in enumerate(faces) for j in f if j != i}
    maximal = tuple(i for i in range(len(sets)) if i not in proper)
    pairs = sorted(
        (si, ti)
        for ti, f in enumerate(faces)
        for si in f
        if fan.cones[si].dim == fan.cones[ti].dim - 1
    )
    return faces, pairs, maximal


def test_face_lattice_matches_all_pairs_containment():
    for fan in oracle_fans():
        faces, pairs, maximal = _brute_face_lattice(fan)
        assert [fan.faces_of(i) for i in range(len(fan.cones))] == faces, fan
        assert fan.facet_pairs() == pairs, fan
        assert fan.maximal_cones() == maximal, fan


def _brute_cone_faces(vectors):
    """Facet zero sets, faces and non-extreme rays of the cone on the given
    vectors: a facet from every (d-1)-subset of rank d - 1 whose hyperplane
    (a sympy nullspace vector not vanishing on the cone) supports the cone,
    and a face from every subset that equals the intersection of the
    facets containing it."""
    k = len(vectors)
    d = Matrix(vectors).rank()
    facets = set()
    for subset in combinations(range(k), d - 1):
        rows = Matrix([vectors[j] for j in subset]) if subset else None
        if rows is not None and rows.rank() != d - 1:
            continue
        basis = rows.nullspace() if rows is not None else eye(len(vectors[0])).columnspace()
        for w in basis:
            vals = [sum(a * b for a, b in zip(w, v)) for v in vectors]
            if any(vals):
                break
        if all(x >= 0 for x in vals) or all(x <= 0 for x in vals):
            facets.add(frozenset(j for j in range(k) if vals[j] == 0))
    faces = set()
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            closure = set(range(k))
            for z in facets:
                if z >= set(subset):
                    closure &= z
            if closure == set(subset):
                faces.add(frozenset(subset))
    nonextreme = [j for j in range(k) if frozenset((j,)) not in faces]
    return sorted(facets, key=sorted), faces, nonextreme


def _random_cone(rng, rank):
    """Primitive vectors in the open half-space x_0 > 0, more of them than
    the rank; every third cone lies in the hyperplane x_{rank-1} = 0."""
    flat = rng.randrange(3) == 0
    vectors = set()
    while len(vectors) < rank + rng.randint(1, 4):
        v = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(rank - 1)]
        if flat:
            v[-1] = 0
        g = 0
        for x in v:
            g = gcd(g, x)
        vectors.add(tuple(x // g for x in v))
    return sorted(vectors)


def test_cone_geometry_matches_every_subset_enumeration(cyclic_fan):
    rng = random.Random(4417)
    cones = [(5, cyclic_fan.cone_vectors(ci)) for ci in cyclic_fan.maximal_cones()]
    cones += [(rank, _random_cone(rng, rank)) for rank in (3, 4, 5) for _ in range(10)]
    # not pointed: the cones hold the line through (1, 0, 0), resp. (1, 0)
    cones += [
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
        (2, [(1, 0), (-1, 0), (0, 1)]),
    ]
    assert sum(len(vs) > rank for rank, vs in cones) >= 30
    for rank, vectors in cones:
        geo = _cone_geometry(rank, vectors)
        facets, faces, nonextreme = _brute_cone_faces(vectors)
        assert [zero for _, zero in geo.facets] == facets, vectors
        for normal, zero in geo.facets:
            vals = [sum(a * b for a, b in zip(normal, v)) for v in vectors]
            assert all(x >= 0 for x in vals), vectors
            assert {j for j, x in enumerate(vals) if x == 0} == zero, vectors
        assert geo.faces == faces, vectors
        assert geo.nonextreme == nonextreme, vectors
    assert not _cone_geometry(2, [(1, 0), (-1, 0), (0, 1)]).pointed


def _random_deficient_rows(rng, d):
    """d - 1 random rows of length d with entries in [-9, 9].  In a third
    of the cases (d >= 3) the last row repeats an earlier one, in another
    third (d >= 4) it sums two earlier ones: the rank is then below d - 1."""
    rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d - 1)]
    kind = rng.randrange(3)
    if kind == 1 and d >= 3:
        rows[-1] = list(rows[rng.randrange(d - 2)])
    elif kind == 2 and d >= 4:
        i, j = rng.sample(range(d - 2), 2)
        rows[-1] = [a + b for a, b in zip(rows[i], rows[j])]
    return rows


def test_span_elimination_null_row_is_proportional_to_signed_cofactors():
    """The facet normal of `_cone_geometry`: for d - 1 vectors in Z^d the
    elimination has full rank d - 1 exactly when their signed cofactors
    (the generalized cross product) are not all zero, and then its P is
    one primitive row, proportional to the cofactors, killing every row."""
    rng = random.Random(6607)
    zero = 0
    for d in range(2, 9):
        for _ in range(60):
            rows = _random_deficient_rows(rng, d)
            cof = [
                (-1) ** i * determinant([row[:i] + row[i + 1 :] for row in rows])
                for i in range(d)
            ]
            _, _, null, _, r = span_elimination(d, rows)
            assert (r == d - 1) == any(cof), (rows, r, cof)
            zero += not any(cof)
            if r < d - 1:
                continue
            assert len(null) == 1
            w = null[0]
            assert gcd(*w) == 1, (rows, w)
            # proportional: every 2x2 minor of the pair vanishes
            assert all(w[i] * cof[j] == w[j] * cof[i] for i in range(d) for j in range(d))
            assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in rows)
    assert zero >= 60  # the rank-deficient cases are really exercised


def test_cone_elimination_gives_dimension_projection_and_section():
    """Each cone's one elimination at build time: its rank is the cone's
    dimension, P @ R = I, P kills the cone's rays, and P has rank - dim
    rows.  Together these make ker P exactly the saturation of their span:
    P is onto Z^(rank - dim), so ker P is saturated of rank dim and holds
    the span."""
    fans = oracle_fans() + [reduce(product_fan, [projective_space_fan(1)] * 6)]
    for fan in fans:
        n = fan.rank
        for ci, cone in enumerate(fan.cones):
            vectors = fan.cone_vectors(ci)
            proj, sect = fan.orbit_quotient(ci)
            assert cone.dim == lin_rank(vectors), (fan, cone)
            assert len(proj) == n - cone.dim and len(sect) == n
            eye = [[int(i == j) for j in range(n - cone.dim)] for i in range(n - cone.dim)]
            assert mat_mul(proj, sect) == eye, (fan, cone)
            assert all(not any(mat_vec(proj, v)) for v in vectors), (fan, cone)


def test_zero_cone_is_a_face_of_everything():
    fan = hirzebruch_fan(1)
    zi = fan.cone_index([])
    for ci in range(len(fan.cones)):
        assert zi in fan.faces_of(ci)


def test_strata_group_by_codimension():
    fan = projective_space_fan(3)
    for p, stratum in enumerate(fan.strata):
        for ci in stratum:
            assert fan.rank - fan.cones[ci].dim == p


def test_rejects_non_primitive_ray():
    with pytest.raises(NonPrimitiveRay):
        from_maximal_cones(2, [(2, 0), (0, 1)], [[0, 1]])
    with pytest.raises(NonPrimitiveRay):
        from_maximal_cones(2, [(0, 0), (0, 1)], [[0, 1]])


def test_rejects_duplicate_ray():
    with pytest.raises(ValidationError, match="duplicate"):
        from_maximal_cones(2, [(1, 0), (1, 0)], [[0, 1]])


def test_rejects_out_of_range_index():
    with pytest.raises(ValidationError, match="out of range"):
        from_maximal_cones(2, [(1, 0), (0, 1)], [[0, 2]])


def test_rejects_unused_ray():
    with pytest.raises(ValidationError, match="not used"):
        from_maximal_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1]])


def test_rejects_unpointed_cone():
    with pytest.raises(NotPointed):
        from_maximal_cones(2, [(1, 0), (-1, 0)], [[0, 1]])
    with pytest.raises(NotPointed):
        from_maximal_cones(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [[0, 1, 2]])


def test_rejects_non_extreme_listed_ray():
    with pytest.raises(BadIntersection, match="extreme"):
        from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]])


def test_rejects_overlapping_cones():
    rays = [(1, 0), (0, 1), (1, 2), (2, 1)]
    with pytest.raises(BadIntersection):
        from_maximal_cones(2, rays, [[0, 1], [2, 3]])
    # same data builds when pairwise validation is disabled (garbage in)
    fan = from_maximal_cones(2, rays, [[0, 1], [2, 3]], validate_pairs=False)
    assert len(fan.maximal_cones()) == 2


def test_rejects_cones_meeting_off_a_face():
    # two 3-cones sharing a 2-plane that is a face of only one of them
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 1), (-1, 1, 0)]
    with pytest.raises(BadIntersection):
        from_maximal_cones(3, rays, [[0, 1, 2], [1, 3, 4]])


@pytest.mark.parametrize(
    "rank, rays, cones",
    [
        (2, [(1, 0), (0, 1), (1, 2), (2, 1)], [[0, 1], [2, 3]]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 1), (-1, 1, 0)], [[0, 1, 2], [1, 3, 4]]),
    ],
)
def test_bad_intersections_come_from_exact_checks(fm_verdicts, rank, rays, cones):
    # the inputs of the two rejection tests above: the separation
    # certificate can only accept a pair, so each rejection must come from
    # a face check or from a Fourier-Motzkin run that found a larger meet
    with pytest.raises(BadIntersection) as exc:
        from_maximal_cones(rank, rays, cones)
    assert "not a face" in str(exc.value) or fm_verdicts[-1:] == [True]


def _meets_off_face(rays, a, b, shared):
    """Whether cones a and b (ray index lists) share a point outside the
    face on the shared rays, by Fourier-Motzkin on the generators: some
    sum(l_i a_i) = sum(m_j b_j) with l, m >= 0 puts weight >= 1 on rays of
    a outside the face (a point of a face of a has weight only on it)."""
    n = len(a) + len(b)
    rows = [(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
    for t in range(len(rays[0])):
        row = tuple([rays[i][t] for i in a] + [-rays[i][t] for i in b])
        rows += [(row, 0), (tuple(-x for x in row), 0)]
    rows.append((tuple([int(i not in shared) for i in a] + [0] * len(b)), 1))
    return realtoric.fan._fm_core(n, rows)


def test_separation_certificate_never_accepts_a_larger_meet(fm_verdicts):
    # seeded random cone pairs of rank 2-4 whose shared rays span a face of
    # both; _check_pair must agree with the generator-side oracle
    rng = random.Random(20251)
    outcomes = {}
    while sum(outcomes.values()) < 300:
        rank = rng.choice((2, 3, 4))
        rays = []
        while len(rays) < 2 * rank + 1:
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if reduce(gcd, v) == 1 and v not in rays:
                rays.append(v)
        shared = list(range(rng.randint(0, rank - 1)))
        rest = list(range(len(shared), len(rays)))
        rng.shuffle(rest)
        ka = rng.randint(max(1, rank - len(shared) - 1), rank - len(shared))
        kb = rng.randint(1, rank - len(shared))
        a, b = shared + rest[:ka], shared + rest[ka : ka + kb]
        geo_a, geo_b = (_cone_geometry(rank, [rays[i] for i in c], c) for c in (a, b))
        face = _mask(shared)
        if any(
            not g.pointed or g.nonextreme or face not in g.face_masks for g in (geo_a, geo_b)
        ):
            continue
        larger = _meets_off_face(rays, a, b, shared)
        fm_verdicts.clear()
        try:
            _check_pair(rays, _mask(a), geo_a, _mask(b), geo_b)
            rejected = False
        except BadIntersection:
            rejected = True
        if fm_verdicts:
            assert rejected == fm_verdicts[-1] == larger, (rays, a, b)
        else:  # the certificate accepted the pair
            assert not rejected and not larger, (rays, a, b)
        key = ("fm" if fm_verdicts else "certificate", larger)
        outcomes[key] = outcomes.get(key, 0) + 1
    # both Fourier-Motzkin outcomes occur, and the certificate is exercised
    assert set(outcomes) == {("fm", True), ("fm", False), ("certificate", False)}


def test_pair_check_reads_each_cone_in_its_own_ray_order():
    # as above, but each cone lists its shared rays, the lowest labels,
    # last: the verdict must follow the order the geometry was built on
    rng = random.Random(20252)
    verdicts = []
    while len(verdicts) < 150:
        rank = rng.choice((2, 3))
        rays = []
        while len(rays) < 2 * rank + 1:
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if reduce(gcd, v) == 1 and v not in rays:
                rays.append(v)
        shared = list(range(rng.randint(1, rank - 1)))
        rest = list(range(len(shared), len(rays)))
        rng.shuffle(rest)
        ka = rng.randint(max(1, rank - len(shared) - 1), rank - len(shared))
        kb = rng.randint(1, rank - len(shared))
        a, b = rest[:ka] + shared, rest[ka : ka + kb] + shared
        geo_a, geo_b = (_cone_geometry(rank, [rays[i] for i in c], c) for c in (a, b))
        face = _mask(shared)
        if any(
            not g.pointed or g.nonextreme or face not in g.face_masks for g in (geo_a, geo_b)
        ):
            continue
        try:
            _check_pair(rays, _mask(a), geo_a, _mask(b), geo_b)
            rejected = False
        except BadIntersection:
            rejected = True
        assert rejected == _meets_off_face(rays, a, b, shared), (rays, a, b)
        verdicts.append(rejected)
    assert set(verdicts) == {True, False}


def test_rank_must_be_positive():
    with pytest.raises(ValidationError):
        from_maximal_cones(0, [], [])


def test_ray_length_must_match_rank():
    with pytest.raises(ValidationError, match="length"):
        from_maximal_cones(2, [(1, 0, 0)], [[0]])


@pytest.mark.parametrize(
    "rank, rays, cones",
    [
        (2, [(1.5, 0), (0, 1.9)], [[0], [1]]),
        (2, [("1", 0), (0, 1)], [[0], [1]]),
        (2, [(True, 0), (0, 1)], [[0], [1]]),
        (2, [(1, 0), (0, 1)], [[0.7], [1]]),
        (2, [(1, 0), (0, 1)], [[True], [1]]),
        (True, [(1,)], [[0]]),
    ],
    ids=["float-ray", "str-entry", "bool-entry", "float-index", "bool-index", "bool-rank"],
)
def test_ray_entries_and_cone_indices_must_be_ints(rank, rays, cones):
    # nothing is coerced: (1.5, 0) is not the ray (1, 0), nor 0.7 the index 0
    with pytest.raises(ValidationError, match="int"):
        from_maximal_cones(rank, rays, cones)


def _p1_power(n):
    """Rays and maximal cones of (P^1)^n: rays +e_i and -e_i, one maximal
    cone per choice of sign in each coordinate."""
    rays = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=n)]
    return rays, cones


def test_real_cell_limit_accepts_p1_8_and_rejects_p1_9():
    # the real complex has 2**codim cells per cone: 4**n for (P^1)^n
    fan = from_maximal_cones(8, *_p1_power(8))
    assert sum(1 << (fan.rank - c.dim) for c in fan.cones) == 4**8 <= REAL_CELL_LIMIT
    with pytest.raises(ResourceLimitExceeded, match=f"more than {REAL_CELL_LIMIT} cells"):
        from_maximal_cones(9, *_p1_power(9))
    # the zero cone alone: 2**16 cells pass, 2**17 do not
    assert len(torus_fan(16).cones) == 1
    with pytest.raises(ResourceLimitExceeded):
        torus_fan(17)


def test_completeness_examples():
    assert projective_space_fan(1).is_complete()
    assert hirzebruch_fan(3).is_complete()
    assert not affine_fan(2, [(1, 0), (0, 1)]).is_complete()
    assert not torus_fan(2).is_complete()
    # half plane: a wall bounds only one full-dimensional cone
    half = from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    assert not half.is_complete()


def _complete_by_sampling(fan) -> bool:
    """The earlier completeness rule, kept as a reference: a full cone
    exists, every wall lies in exactly two full cones, and the full cones
    cover a fixed seeded sample of 2n + 5 directions."""
    n = fan.rank
    full = [ci for ci in fan.maximal_cones() if fan.cones[ci].dim == n]
    if not full:
        return False
    full_sets = [set(fan.cones[ci].rays) for ci in full]
    for cone in fan.cones:
        if cone.dim == n - 1 and sum(set(cone.rays) <= s for s in full_sets) != 2:
            return False
    rng = random.Random(7509131)
    samples = []
    while len(samples) < 2 * n + 5:
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if any(v):
            samples.append(v)
    normals = [
        [normal for normal, _ in _cone_geometry(n, fan.cone_vectors(ci)).facets]
        for ci in full
    ]
    return all(
        any(all(sum(map(mul, w, v)) >= 0 for w in cone) for cone in normals)
        for v in samples
    )


def test_completeness_matches_sampling_reference(cyclic_fan):
    fans = oracle_fans() + [
        random_fan(rank, seed, profile)
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(8, 40)
    ]
    fans += [cyclic_fan, weighted_projective_fan(1, 2, 3)]
    verdicts = [fan.is_complete() for fan in fans]
    assert verdicts == [_complete_by_sampling(fan) for fan in fans]
    assert True in verdicts and False in verdicts
    # the fold: every wall lies in two full cones, but at the rays (1, 0)
    # and (0, 1) both lie on the same side, so only the side check rejects it
    fold = from_maximal_cones(
        2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [1, 2], [2, 0]], validate_pairs=False
    )
    assert not fold.is_complete()


def test_nonsingular_and_simplicial_flags():
    assert projective_space_fan(3).is_nonsingular()
    singular = affine_fan(2, [(1, 0), (1, 2)])
    assert singular.is_simplicial()
    assert not singular.is_nonsingular()
    cube = from_maximal_cones(
        3,
        [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)],
        [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7]],
    )
    assert not cube.is_simplicial()
    assert not cube.is_nonsingular()


def _nonsingular_by_smith_form(fan) -> bool:
    """Every cone is simplicial and the invariant factors of its ray
    matrix multiply to 1, so its rays extend to a lattice basis."""
    for ci, cone in enumerate(fan.cones):
        if not cone.rays:
            continue
        a = Matrix(fan.cone_vectors(ci))
        if a.rank() != len(cone.rays):
            return False
        snf = smith_normal_form(a, domain=ZZ)
        if reduce(mul, (abs(snf[i, i]) for i in range(len(cone.rays)))) != 1:
            return False
    return True


def test_nonsingular_matches_smith_form_oracle(cubefan):
    fans = oracle_fans() + [
        weighted_projective_fan(1, 1, 2),
        weighted_projective_fan(1, 2, 3),
        weighted_projective_fan(1, 1, 1, 2),
        affine_fan(2, [(1, 0), (1, 2)]),
        affine_fan(2, [(1, 0), (-1, 3)]),
        affine_fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
        affine_fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]),
        affine_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        cubefan,
        torus_fan(3),
    ]
    verdicts = [fan.is_nonsingular() for fan in fans]
    assert verdicts == [_nonsingular_by_smith_form(fan) for fan in fans]
    assert True in verdicts and False in verdicts


def test_h_vector_examples():
    assert projective_space_fan(3).h_vector() == [1, 1, 1, 1]
    p1 = projective_space_fan(1)
    assert product_fan(p1, p1).h_vector() == [1, 2, 1]
    assert hirzebruch_fan(2).h_vector() == [1, 2, 1]


def test_json_roundtrip_is_canonical(tmp_path):
    fan = hirzebruch_fan(2)
    text = fan_to_json(fan)
    again = fan_from_json(text)
    assert fan_to_json(again) == text
    assert again.rank == fan.rank
    assert again.rays == fan.rays
    assert again.name == fan.name
    path = tmp_path / "fan.json"
    write_json(fan, str(path))
    assert fan_to_json(read_json(str(path))) == text
    # canonical form: sorted keys, no trailing spaces inside
    data = json.loads(text)
    assert list(data) == sorted(data)


def test_json_accepts_unnamed_fan():
    text = json.dumps({"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]})
    fan = fan_from_json(text)
    assert fan.name is None
    assert "name" not in fan.to_json_dict()


def test_parse_error_locations():
    with pytest.raises(ParseError) as exc:
        fan_from_json("{not json")
    assert "line" in exc.value.location
    with pytest.raises(ParseError):
        fan_from_json("[1, 2]")
    with pytest.raises(ParseError, match="missing key"):
        fan_from_json('{"rank": 2}')
    with pytest.raises(ParseError) as exc:
        fan_from_json('{"rank": true, "rays": [], "maximal_cones": []}')
    assert exc.value.location == "rank"
    with pytest.raises(ParseError) as exc:
        fan_from_json('{"rank": 1, "rays": [[true]], "maximal_cones": [[0]]}')
    assert exc.value.location == "rays[0]"
    with pytest.raises(ParseError) as exc:
        fan_from_json('{"rank": 1, "rays": [[1]], "maximal_cones": ["x"]}')
    assert exc.value.location == "maximal_cones[0]"
    with pytest.raises(ParseError) as exc:
        fan_from_json('{"rank": 1, "rays": [[1]], "maximal_cones": [[0]], "name": 5}')
    assert exc.value.location == "name"
    with pytest.raises(ParseError, match="not valid Unicode") as exc:
        fan_from_json('{"rank": 1, "rays": [[1]], "maximal_cones": [[0]], "name": "\\ud800"}')
    assert exc.value.location == "name"


def test_parse_rejects_float_rank():
    with pytest.raises(ParseError):
        fan_from_json('{"rank": 2.0, "rays": [[1,0]], "maximal_cones": [[0]]}')


def test_validation_error_flows_through_json(tmp_path):
    text = json.dumps({"rank": 2, "rays": [[2, 0]], "maximal_cones": [[0]]})
    with pytest.raises(NonPrimitiveRay):
        fan_from_json(text)


def test_duplicate_maximal_cones_are_merged():
    fan = from_maximal_cones(2, [(1, 0), (0, 1)], [[0, 1], [1, 0]])
    assert len(fan.maximal_cones()) == 1


def test_cones_sorted_by_dimension_then_rays():
    fan = projective_space_fan(2)
    keys = [(c.dim, c.rays) for c in fan.cones]
    assert keys == sorted(keys)
