"""Fan construction, validation, combinatorics, and JSON round trips."""
from __future__ import annotations

import json
import random
from functools import reduce
from itertools import combinations, permutations, product
from math import atan2, comb, gcd, prod
from operator import mul

import pytest
import realtoric.fan
from conftest import (
    mat_mul,
    mat_vec,
    oracle_fans,
    perfbench_inputs,
    random_unimodular,
    sampled_fans,
)
from oracles import (
    FM_ROW_LIMIT,
    TooManyRows,
    cone_index,
    cone_vectors,
    determinant,
    f_vector,
    faces_of,
    fourier_motzkin,
    h_vector,
    is_nonsingular,
    is_simplicial,
    lin_rank,
    quotient_with_section,
)
from sympy import ZZ, Matrix, eye
from sympy.matrices.normalforms import smith_normal_form

from realtoric.analysis import m_verdict
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
    FACET_SUBSET_LIMIT,
    PAIR_LIMIT,
    REAL_CELL_LIMIT,
    ParseError,
    ResourceLimitExceeded,
    ValidationError,
    _bits,
    _check_complete,
    _check_pair,
    _cone_geometry,
    _facet_normals,
    _mask,
    _wall_normals,
    fan_from_json,
    fan_to_json,
    from_maximal_cones,
    read_json,
    write_json,
)
from realtoric.intlin import primitive_vector, span_elimination
from realtoric.spectral import betti_real, e2_dims, g_pages


def test_projective_plane_structure():
    fan = projective_space_fan(2)
    assert fan.rank == 2
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(fan.cones) == 7
    assert f_vector(fan) == [1, 3, 3]
    assert h_vector(fan) == [1, 1, 1]
    assert [len(s) for s in fan.strata] == [3, 3, 1]
    assert len(fan.maximal_cones()) == 3
    assert fan.is_complete()
    assert is_simplicial(fan)
    assert is_nonsingular(fan)
    # facet pairs: zero cone under each ray, each ray under two 2-cones
    pairs = fan.facet_pairs()
    assert len(pairs) == 3 + 6
    for si, ti in pairs:
        assert fan.cones[si].dim == fan.cones[ti].dim - 1
        assert set(fan.cones[si].rays) <= set(fan.cones[ti].rays)


def test_cone_index_and_faces():
    fan = projective_space_fan(2)
    ci = cone_index(fan, [0, 1])
    assert fan.cones[ci] == Cone(rays=(0, 1), dim=2)
    faces = faces_of(fan, ci)
    assert {tuple(fan.cones[j].rays) for j in faces} == {(), (0,), (1,), (0, 1)}
    assert cone_vectors(fan, ci) == [(1, 0), (0, 1)]


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
        assert [faces_of(fan, i) for i in range(len(fan.cones))] == faces, fan
        assert fan.facet_pairs() == pairs, fan
        assert fan.maximal_cones() == maximal, fan


def _overlapping_fans(count):
    """count seeded unvalidated fans of rank 3 to 5, with their listed
    maximal cones: 3 to 6 random subsets of up to rank + 1 rays drawn in
    the half-space x_0 > 0, so that the cones crowd and overlap, and in
    half the fans also the first ray of the first cone, listed as a cone
    of its own.  Inputs the build rejects (a listed ray that is not
    extreme) are drawn again."""
    rng = random.Random(1808)
    out = []
    while len(out) < count:
        rank = rng.randint(3, 5)
        pool = sorted({
            primitive_vector([rng.randint(1, 2)] + [rng.randint(-1, 2) for _ in range(rank - 1)])
            for _ in range(rank + 3)
        })
        listed = [rng.sample(range(len(pool)), rng.randint(2, min(rank + 1, len(pool))))
                  for _ in range(rng.randint(3, 6))]
        if rng.randrange(2):
            listed.append(listed[0][:1])
        used = sorted(set().union(*listed))
        rays = [pool[i] for i in used]
        listed = [sorted(used.index(i) for i in c) for c in listed]
        try:
            out.append((from_maximal_cones(rank, rays, listed, validate_pairs=False), listed))
        except ValidationError:
            continue
    return out


def test_faces_come_from_each_cones_own_geometry():
    """Every cone's faces are the faces its own facet enumeration finds,
    its facet pairs those one dimension lower, and the maximal cones those
    no other cone has as a proper face, which for a listed input are the
    listed cones that no other listed cone has as one.  cyclic57 is one of
    the fans/*.json; the twice-wound rank-2 fan and the seeded fans are
    built unvalidated, and most of the seeded fans' cones overlap."""
    twice_wound = from_maximal_cones(
        2,
        [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
        validate_pairs=False,
    )
    overlapping = _overlapping_fans(50)
    rejected = 0
    for fan, listed in overlapping:
        try:
            from_maximal_cones(fan.rank, fan.rays, listed, validate_pairs=True)
        except BadIntersection:
            rejected += 1
    assert rejected >= 40
    assert sum(not is_simplicial(fan) for fan, _ in overlapping) >= 25
    fans = oracle_fans() + [reduce(product_fan, [projective_space_fan(1)] * 6), twice_wound]
    fans += [fan for fan, _ in overlapping]
    for fan in fans:
        faces = [
            sorted(
                cone_index(fan, _bits(m))
                for m in _cone_geometry(fan.rank, cone_vectors(fan, ci), cone.rays).face_masks
            )
            for ci, cone in enumerate(fan.cones)
        ]
        dims = [c.dim for c in fan.cones]
        pairs = sorted((si, ti) for ti, f in enumerate(faces) for si in f if dims[si] == dims[ti] - 1)
        proper = {si for ti, f in enumerate(faces) for si in f if si != ti}
        assert fan.facet_pairs() == pairs, fan
        assert fan.maximal_cones() == tuple(i for i in range(len(faces)) if i not in proper), fan
        assert [list(faces_of(fan, ci)) for ci in range(len(faces))] == faces, fan
    for fan, listed in overlapping + [(twice_wound, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])]:
        listed = {tuple(c) for c in listed}
        proper = set()
        for c in listed:
            geo = _cone_geometry(fan.rank, [fan.rays[i] for i in c], c)
            proper |= {tuple(_bits(m)) for m in geo.face_masks} - {c}
        assert {fan.cones[ci].rays for ci in fan.maximal_cones()} == listed - proper, fan


def _brute_cone_faces(vectors):
    """Facet zero sets, faces, non-extreme rays and pointedness of the cone
    on the given vectors: a facet from every (d-1)-subset of rank d - 1
    whose hyperplane (a sympy nullspace vector not vanishing on the cone)
    supports the cone, a face from every subset that equals the
    intersection of the facets containing it, and pointed when the facet
    normals, as functions on the span of the vectors, have rank d."""
    k = len(vectors)
    d = Matrix(vectors).rank()
    facets = {}
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
            facets[frozenset(j for j in range(k) if vals[j] == 0)] = vals
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
    pointed = Matrix(list(facets.values()) or [[0] * k]).rank() == d
    return sorted(facets, key=sorted), faces, nonextreme, pointed


def _random_cone(rng, rank):
    """Primitive vectors in the open half-space x_0 > 0, more of them than
    the rank; above rank 2, every third cone lies in the hyperplane
    x_{rank-1} = 0 (in rank 2 that line holds one such vector only)."""
    flat = rank > 2 and rng.randrange(3) == 0
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


def _random_unpointed_cone(rng, rank):
    """A `_random_cone` with the opposites of one or two of its vectors
    added, so that it holds a line or a plane."""
    vectors = _random_cone(rng, rank)
    opposites = [tuple(-x for x in v) for v in rng.sample(vectors, rng.randint(1, 2))]
    return vectors + opposites


def _random_simplicial_cone(rng, rank, d, unimodular):
    """d independent primitive vectors in Z^rank whose lattice has index 1
    in the lattice points of their span (unimodular: d columns of a random
    unimodular matrix) or an index above 1 (random vectors)."""
    while True:
        if unimodular:
            columns = list(zip(*random_unimodular(rng, rank, ops=12)))
            vectors = rng.sample(columns, d)
        else:
            vectors = [primitive_vector([rng.randint(-4, 4) for _ in range(rank)]) for _ in range(d)]
        h, _, _, r = span_elimination(rank, vectors)
        if r == d and (abs(prod(h[i][i] for i in range(d))) == 1) == unimodular:
            return vectors


def test_cone_geometry_matches_every_subset_enumeration(cyclic_fan):
    rng = random.Random(4417)
    cones = [(5, cone_vectors(cyclic_fan, ci)) for ci in cyclic_fan.maximal_cones()]
    cones += [(rank, _random_cone(rng, rank)) for rank in (3, 4, 5) for _ in range(10)]
    unpointed = [(rank, _random_unpointed_cone(rng, rank)) for rank in (3, 4, 5) for _ in range(4)]
    cones += unpointed
    # not pointed: the cones hold the line through (1, 0, 0), resp. (1, 0)
    cones += [
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
        (2, [(1, 0), (-1, 0), (0, 1)]),
    ]
    assert sum(len(vs) > rank for rank, vs in cones) >= 30
    # simplicial cones, whose facet normals come from back substitution in
    # their own elimination: full-dimensional or not, of index 1 or more
    simplicial = [
        (rank, _random_simplicial_cone(rng, rank, d, unimodular))
        for rank in (2, 3, 4, 5)
        for d in range(max(2, rank - 2), rank + 1)
        for unimodular in (True, False)
        for _ in range(3)
    ] + [(3, [(0, -1, 0)])]
    pivots = [span_elimination(rank, vs)[0] for rank, vs in simplicial]
    negative = sum(any(h[i][i] < 0 for i in range(len(h[0]))) for h in pivots)
    assert sum(len(vs) < rank for rank, vs in simplicial) >= 20 and negative >= 20
    cones += simplicial
    rank2 = random.Random(5003)
    cones += [(2, _random_cone(rank2, 2)) for _ in range(10)]
    for rank, vectors in cones:
        geo = _cone_geometry(rank, vectors)
        facets, faces, nonextreme, pointed = _brute_cone_faces(vectors)
        assert [frozenset(_bits(zero)) for zero in geo.facets] == facets, vectors
        for normal, zero in _facet_normals(geo):
            assert gcd(*normal) == 1, vectors
            vals = [sum(a * b for a, b in zip(normal, v)) for v in vectors]
            assert all(x >= 0 for x in vals), vectors
            assert {j for j, x in enumerate(vals) if x == 0} == set(_bits(zero)), vectors
        assert {frozenset(_bits(m)) for m in geo.face_masks} == faces, vectors
        assert geo.nonextreme == nonextreme and geo.pointed == pointed, vectors
    assert not any(_cone_geometry(rank, vectors).pointed for rank, vectors in unpointed)


def test_cone_geometry_edge_cases_match_the_sympy_oracle():
    """The double description against `_brute_cone_faces` where it could
    go wrong: cones holding a line or a plane, a vector inside a facet or
    inside the cone, cones of dimension 1 and 2 with opposite rays, and
    every order of the vectors of three small cones, so that the result
    cannot depend on which vectors become the pivots of the elimination."""
    # (rank, vectors, pointed)
    cones = [
        # a line, then a plane, in ranks 3, 4 and 5; the last is all of Z^3
        (3, [(0, 1, 0), (1, 1, 1), (-1, -1, -1), (0, 0, 1), (1, 0, 0)], False),
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 1, 1)], False),
        (4, [(1, 1, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (0, 1, 1, 1)], False),
        (4, [(1, 0, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 1), (0, 0, 0, 1)], False),
        (4, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0)], False),
        (5, [(1, 0, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
             (0, 0, 0, 1, 0), (0, 1, 1, 1, 1), (0, 0, 0, 0, 1)], False),
        (5, [(1, 0, 1, 0, 0), (0, 1, 0, 0, 0), (-1, 0, -1, 0, 0), (0, -1, 0, 0, 0),
             (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 1, 1), (0, 0, 0, 0, 1)], False),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], False),
        # a vector inside a facet and one inside the cone
        (3, [(1, 1, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1)], True),
        (4, [(1, 1, 0, 0), (1, 0, 0, 0)] + [(1, *v) for v in product((1, -1), repeat=3)], True),
        # dimension 1, and dimension 2 with opposite rays
        (2, [(1, 2), (-1, -2)], False),
        (3, [(0, 1, 1), (0, -1, -1)], False),
        (3, [(0, 1, -1)], True),
        (2, [(1, 0), (1, 1), (0, 1)], True),
        (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], False),
        (3, [(1, 0, 1), (-1, 0, -1), (0, 1, 0), (1, 1, 1)], False),
    ]
    for rank, vectors, expected in cones:
        geo = _cone_geometry(rank, vectors)
        facets, faces, nonextreme, pointed = _brute_cone_faces(vectors)
        assert [frozenset(_bits(zero)) for zero in geo.facets] == facets, vectors
        assert {frozenset(_bits(m)) for m in geo.face_masks} == faces, vectors
        assert geo.nonextreme == nonextreme and geo.pointed == pointed == expected, vectors
    # every order, each vector labelled by its place in the first: the
    # facets, normals included, and the faces are those of the first order
    small = [
        (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]),
    ]
    for rank, vectors in small:
        first = _cone_geometry(rank, vectors)
        facets, faces, nonextreme, _ = _brute_cone_faces(vectors)
        assert [frozenset(_bits(zero)) for zero in first.facets] == facets, vectors
        assert {frozenset(_bits(m)) for m in first.face_masks} == faces, vectors
        for order in permutations(range(len(vectors))):
            geo = _cone_geometry(rank, [vectors[i] for i in order], order)
            assert _facet_normals(geo) == _facet_normals(first), order
            assert geo.face_masks == first.face_masks, order
            assert sorted(order[j] for j in geo.nonextreme) == nonextreme, order
            assert geo.pointed == first.pointed, order


def test_moment_cone_facets_pass_gales_evenness_up_to_the_limit():
    """The cone on the rays (1, t, ..., t**(r - 1)), t = 0 .. k - 1, is the
    cone over a cyclic polytope.  By Gale's evenness condition an
    (r - 1)-subset S of the rays is a facet exactly when every run of
    consecutive t in S that is bounded on both sides by t outside S has
    even length.  Each cone counts C(k, r - 1) within FACET_SUBSET_LIMIT."""
    expected = {(3, 60): 60, (4, 30): 56, (5, 20): 170, (6, 16): 156, (7, 14): 210, (8, 12): 112}
    for (r, k), count in expected.items():
        assert comb(k, r - 1) <= FACET_SUBSET_LIMIT
        geo = _cone_geometry(r, [tuple(t**i for i in range(r)) for t in range(k)])
        gale = set()
        for subset in combinations(range(k), r - 1):
            outside = [t for t in range(k) if t not in subset]
            if all((b - a) % 2 for a, b in zip(outside, outside[1:])):
                gale.add(subset)
        assert len(gale) == count
        assert {tuple(_bits(zero)) for zero in geo.facets} == gale, (r, k)
        assert geo.pointed and not geo.nonextreme, (r, k)


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
    """The null row of `span_elimination`: for d - 1 vectors in Z^d the
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
            _, _, null, r = span_elimination(d, rows)
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
    dimension, P @ R = I for the reference's integer section R, P kills
    the cone's rays, and P has rank - dim rows.  Together these make ker P
    exactly the saturation of their span: P is onto Z^(rank - dim), so
    ker P is saturated of rank dim and holds the span."""
    fans = oracle_fans() + [reduce(product_fan, [projective_space_fan(1)] * 6)]
    for fan in fans:
        n = fan.rank
        for ci, cone in enumerate(fan.cones):
            vectors = cone_vectors(fan, ci)
            proj = fan.orbit_projection(ci)
            sect = quotient_with_section(n, vectors)[1]
            assert cone.dim == lin_rank(vectors), (fan, cone)
            assert len(proj) == n - cone.dim and len(sect) == n
            eye = [[int(i == j) for j in range(n - cone.dim)] for i in range(n - cone.dim)]
            assert mat_mul(proj, sect) == eye, (fan, cone)
            assert all(not any(mat_vec(proj, v)) for v in vectors), (fan, cone)


def test_face_quotients_equal_the_elimination_of_their_rays():
    """The build takes every cone's elimination, maximal cones included,
    from one table of ray prefixes, each extended by one column step; the
    P of every cone must equal that of eliminating its rays afresh, entry
    for entry, since the distinct induced projections are counted by their
    rows.  cyclic57 is one of the fans/*.json."""
    fans = oracle_fans() + [
        reduce(product_fan, [projective_space_fan(1)] * 6),
        projective_space_fan(7),
    ]
    for fan in fans:
        for ci in range(len(fan.cones)):
            want = quotient_with_section(fan.rank, cone_vectors(fan, ci))[0]
            assert fan.orbit_projection(ci) == want, (fan, fan.cones[ci])


def test_one_column_step_per_cone_of_a_simplicial_fan(monkeypatch):
    # every ray prefix is eliminated once, maximal cones included, so a
    # simplicial fan makes one column step per non-zero cone; cyclic57's
    # maximal cones have prefixes that are not cones
    steps = []
    column_step = realtoric.fan._column_step
    monkeypatch.setattr(
        realtoric.fan, "_column_step", lambda *args: steps.append(1) or column_step(*args)
    )
    counts = {}
    for label in ("cyclic57", "p6", "p7", "p2xp2xp1", "p1^6", "p1^4"):
        text = fan_to_json(perfbench_inputs.build_fan(label))
        del steps[:]
        fan = fan_from_json(text)
        counts[label] = (len(fan.cones), len(steps))
    assert counts == {
        "cyclic57": (105, 156), "p6": (127, 126), "p7": (255, 254),
        "p2xp2xp1": (147, 146), "p1^6": (729, 728), "p1^4": (81, 80),
    }


def test_zero_cone_is_a_face_of_everything():
    fan = hirzebruch_fan(1)
    zi = cone_index(fan, [])
    for ci in range(len(fan.cones)):
        assert zi in faces_of(fan, ci)


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


@pytest.mark.parametrize("cones, which", [([[0, 2, 4], [0, 1, 2, 3]], "second"),
                                          ([[0, 1, 2, 3], [0, 2, 4]], "first")])
def test_rejects_shared_rays_that_are_a_diagonal(cones, which):
    # rays 0 and 2 span a face of the simplicial cone but a diagonal of the
    # square one, so the face check alone rejects the pair, in either order
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 1, -1)]
    with pytest.raises(BadIntersection, match=f"shared rays are not a face of the {which}$"):
        from_maximal_cones(3, rays, cones)


@pytest.mark.parametrize(
    "rank, rays, cones",
    [
        (2, [(1, 0), (0, 1), (1, 2), (2, 1)], [[0, 1], [2, 3]]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 1), (-1, 1, 0)], [[0, 1, 2], [1, 3, 4]]),
    ],
)
def test_bad_intersections_come_from_exact_checks(fallback_verdicts, rank, rays, cones):
    # the inputs of the two rejection tests above: the separation
    # certificate can only accept a pair, so each rejection must come from
    # a face check or from a fallback run that found a larger meet
    with pytest.raises(BadIntersection) as exc:
        from_maximal_cones(rank, rays, cones)
    assert "not a face" in str(exc.value) or fallback_verdicts[-1:] == [True]


def _meets_off_face(rays, a, b, shared, limit=FM_ROW_LIMIT):
    """Whether cones a and b (ray index lists) share a point outside the
    face on the shared rays, by Fourier-Motzkin on the generators (the
    oracle's, refusing steps of more than limit rows): some
    sum(l_i a_i) = sum(m_j b_j) with l, m >= 0 puts weight >= 1 on rays of
    a outside the face (a point of a face of a has weight only on it)."""
    n = len(a) + len(b)
    rows = [(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]
    for t in range(len(rays[0])):
        row = tuple([rays[i][t] for i in a] + [-rays[i][t] for i in b])
        rows += [(row, 0), (tuple(-x for x in row), 0)]
    rows.append((tuple([int(i not in shared) for i in a] + [0] * len(b)), 1))
    return fourier_motzkin(n, rows, limit)


def _check_drawn_pair(rays, a, b, shared, geo_a, geo_b):
    """Whether _check_pair rejects the drawn cones a and b, with the
    shared face's P from a fresh elimination."""
    proj = quotient_with_section(len(rays[0]), [rays[i] for i in shared])[0]
    projections = {_mask(shared): proj}
    facets_a, facets_b = _facet_normals(geo_a), _facet_normals(geo_b)
    try:
        _check_pair(rays, projections, _mask(a), geo_a, facets_a, _mask(b), geo_b, facets_b)
    except BadIntersection:
        return True
    return False


def test_separation_certificate_never_accepts_a_larger_meet(fallback_verdicts):
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
        fallback_verdicts.clear()
        rejected = _check_drawn_pair(rays, a, b, shared, geo_a, geo_b)
        if fallback_verdicts:
            assert rejected == fallback_verdicts[-1] == larger, (rays, a, b)
        else:  # the certificate accepted the pair
            assert not rejected and not larger, (rays, a, b)
        key = ("fallback" if fallback_verdicts else "certificate", larger)
        outcomes[key] = outcomes.get(key, 0) + 1
    # both fallback outcomes occur, and the certificate is exercised
    assert set(outcomes) == {("fallback", True), ("fallback", False), ("certificate", False)}


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
        rejected = _check_drawn_pair(rays, a, b, shared, geo_a, geo_b)
        assert rejected == _meets_off_face(rays, a, b, shared), (rays, a, b)
        verdicts.append(rejected)
    assert set(verdicts) == {True, False}


def test_fallback_agrees_with_the_oracle_on_non_simplicial_pairs():
    # seeded pairs of rank 2-4 with up to rank - |F| + 1 rays outside the
    # shared face F per cone, so a cone may hold more rays than it spans:
    # the fallback on F's orbit projection must agree with Fourier-Motzkin
    # on the generators wherever the oracle's capped elimination decides
    rng = random.Random(20253)
    verdicts = []
    while len(verdicts) < 300:
        rank = rng.choice((2, 3, 4))
        rays = []
        while len(rays) < 2 * rank + 2:
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if reduce(gcd, v) == 1 and v not in rays:
                rays.append(v)
        shared = list(range(rng.randint(0, rank - 1)))
        rest = list(range(len(shared), len(rays)))
        rng.shuffle(rest)
        ka, kb = (rng.randint(1, rank - len(shared) + 1) for _ in "ab")
        a, b = shared + rest[:ka], shared + rest[ka : ka + kb]
        geos = [_cone_geometry(rank, [rays[i] for i in c], c) for c in (a, b)]
        face = _mask(shared)
        if any(not g.pointed or g.nonextreme or face not in g.face_masks for g in geos):
            continue
        try:
            larger = _meets_off_face(rays, a, b, shared, limit=5000)
        except TooManyRows:
            continue
        p = quotient_with_section(rank, [rays[i] for i in shared])[0]
        off_a, off_b = ([rays[i] for i in c[len(shared):]] for c in (a, b))
        assert realtoric.fan._meets_off_face(p, off_a, off_b) == larger, (rays, a, b)
        flat = any(len(c) > g.dim for c, g in zip((a, b), geos))
        verdicts.append((larger, flat))
    # both verdicts occur, also on pairs with a non-simplicial cone
    assert {larger for larger, flat in verdicts if flat} == {True, False}


def test_simplicial_facet_normals_only_for_pair_validation(monkeypatch):
    # a simplicial cone's normals come from back substitution only for
    # validation: none in an unvalidated build, none for a full cone, whose
    # normals are its walls' projection rows, in a default build, which
    # validates at every rank, and once per facet of a lower-dimensional
    # maximal cone
    p1 = projective_space_fan(1)
    p1_4, p1_5 = (reduce(product_fan, [p1] * n) for n in (4, 5))
    texts = [fan_to_json(fan) for fan in (projective_space_fan(6), p1_5, p1_4)]
    calls = []
    back_substitution = realtoric.fan._opposite_normal

    def counted(h, j):
        calls.append(j)
        return back_substitution(h, j)

    monkeypatch.setattr(realtoric.fan, "_opposite_normal", counted)
    for text in texts[:2]:
        fan_from_json(text, validate_pairs=False)
    assert calls == []
    for text in texts:
        fan_from_json(text)
    assert calls == []
    # the cone on ray 2 of P^2 has one facet, the zero cone
    from_maximal_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [2]], validate_pairs=True)
    assert calls == [0]


def test_wall_row_normals_are_the_facet_normals():
    """Validation reads a full-dimensional cone's facet normals off its
    walls' orbit projections (`_wall_normals`); they must be the normals
    of `_facet_normals`, value and order, and the default build of each
    large fan, which validates, must give the pages and verdict of an
    unvalidated one."""
    fans = oracle_fans() + [
        random_fan(rank, seed, profile)
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(10)
    ]
    large = [perfbench_inputs.build_fan(label) for label in perfbench_inputs.LARGE_FANS]
    full = 0
    for fan in fans + large:
        projections = {m: fan.orbit_projection(ci) for ci, m in enumerate(fan.ray_masks)}
        for ci in fan.maximal_cones():
            rays = fan.cones[ci].rays
            geo = _cone_geometry(fan.rank, cone_vectors(fan, ci), rays)
            normals = _wall_normals(fan.rays, projections, fan.ray_masks[ci], geo)
            assert normals == _facet_normals(geo), (fan, rays)
            full += len(normals) if geo.dim == fan.rank else 0
    assert full == 1978
    for fan in large:
        text = fan_to_json(fan)
        validated, unvalidated = fan_from_json(text), fan_from_json(text, validate_pairs=False)
        for f in (e2_dims, g_pages, betti_real, m_verdict):
            assert f(validated) == f(unvalidated), (fan, f)


# The twice-wound rank-2 input: five cones on consecutive rays that go
# twice round the origin.  Every wall is a facet of two cones on opposite
# sides, so it passes `Fan.is_complete`, but every point is covered twice.
TWICE_WOUND = ([(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
               [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])


def _times_p1_cubed(rank, rays, cones):
    """Rays and cones of the product of the input with (P^1)^3."""
    rays = [tuple(r) + (0, 0, 0) for r in rays]
    rays += [tuple(s * (j == rank + i) for j in range(rank + 3)) for i in range(3) for s in (1, -1)]
    first = len(rays) - 6
    cones = [c + [first + 2 * i + b for i, b in enumerate(bits)]
             for c in cones for bits in product((0, 1), repeat=3)]
    return rank + 3, rays, cones


def _wound_inputs(count):
    """count seeded rank-2 inputs whose cones, on consecutive rays, wind two
    or three times round the origin: each lap takes every second or third
    ray in order of angle, so every ray lies in two cones, one on each side."""
    rng = random.Random(3004)
    out = []
    while len(out) < count:
        turns = rng.choice((2, 3))
        pool = {primitive_vector([rng.randint(-5, 5), rng.randint(1, 5)]) for _ in range(9)}
        pool |= {(-x, -y) for x, y in pool if rng.randrange(2)}
        rays = sorted(pool, key=lambda v: atan2(v[1], v[0]))
        rays = rays[: len(rays) - len(rays) % turns]
        lap = [i + turns * j for i in range(turns) for j in range(len(rays) // turns)]
        cones = [[a, b] for a, b in zip(lap, lap[1:] + lap[:1])]
        if all(rays[a][0] * rays[b][1] > rays[a][1] * rays[b][0] for a, b in cones):
            out.append((2, rays, cones))
    return out


@pytest.fixture
def pair_checks(monkeypatch):
    """The pairs of cones `_check_pair` is called on during the test."""
    calls = []
    check_pair = realtoric.fan._check_pair

    def counted(rays, quotients, mask_a, geo_a, facets_a, mask_b, *rest):
        calls.append((mask_a, mask_b))
        return check_pair(rays, quotients, mask_a, geo_a, facets_a, mask_b, *rest)

    monkeypatch.setattr(realtoric.fan, "_check_pair", counted)
    return calls


def _rule_and_pair_loop(rank, rays, listed):
    """Whether the interior count of `_check_complete` and the pair loop
    accept the listed cones, each cone's geometry and normals computed
    afresh, and each shared face's P by a fresh elimination."""
    checked = []
    for c in listed:
        geo = _cone_geometry(rank, [rays[i] for i in sorted(c)], sorted(c))
        checked.append((_mask(c), geo, _facet_normals(geo)))
    verdicts = []
    for validate in (
        lambda: _check_complete(rank, checked),
        lambda: [
            _check_pair(rays, {a[0] & b[0]: quotient_with_section(
                rank, [rays[i] for i in _bits(a[0] & b[0])])[0]}, *a, *b)
            for a, b in combinations(checked, 2)
        ],
    ):
        try:
            validate()
        except BadIntersection:
            verdicts.append(False)
        else:
            verdicts.append(True)
    return verdicts


def test_interior_count_agrees_with_the_pair_loop(cyclic_fan):
    # every candidate the rule applies to: rank >= 2, every listed cone
    # full-dimensional, and complete by `Fan.is_complete`
    p1 = projective_space_fan(1)
    fans = sampled_fans(cyclic_fan) + [fan for fan, _ in _overlapping_fans(50)] + [
        reduce(product_fan, [p1] * 4), reduce(product_fan, [p1] * 6), projective_space_fan(6),
    ]
    inputs = [(fan.rank, fan.rays, [list(fan.cones[ci].rays) for ci in fan.maximal_cones()])
              for fan in fans]
    inputs += [(2, *TWICE_WOUND), _times_p1_cubed(2, *TWICE_WOUND)] + _wound_inputs(12)
    verdicts = []
    for rank, rays, listed in inputs:
        fan = from_maximal_cones(rank, rays, listed, validate_pairs=False)
        if rank < 2 or not fan.is_complete():
            continue
        rule, pair_loop = _rule_and_pair_loop(rank, rays, listed)
        assert rule == pair_loop, (rank, rays, listed)
        verdicts.append(rule)
    assert verdicts.count(False) == 14 and len(verdicts) >= 100


@pytest.mark.parametrize("wound", [(2, *TWICE_WOUND), _times_p1_cubed(2, *TWICE_WOUND)])
def test_twice_wound_inputs_fail_the_interior_count(pair_checks, wound):
    rank, rays, cones = wound
    with pytest.raises(BadIntersection, match="both interiors hold the point"):
        from_maximal_cones(rank, rays, cones, validate_pairs=True)
    # validated by default, the rank-5 input too
    with pytest.raises(BadIntersection, match="both interiors hold the point"):
        from_maximal_cones(rank, rays, cones)
    assert pair_checks == []
    # unvalidated, the same input builds, and it passes the completeness rule
    assert from_maximal_cones(rank, rays, cones, validate_pairs=False).is_complete()


def test_complete_fans_make_no_pair_check(pair_checks):
    p4 = projective_space_fan(4)
    fans = [from_maximal_cones(4, rays, cones, validate_pairs=True)
            for rays, cones in (_p1_power(4), (p4.rays, [list(p4.cones[ci].rays)
                                                       for ci in p4.maximal_cones()]))]
    assert all(fan.is_complete() for fan in fans)
    assert pair_checks == []


def test_the_pair_loop_runs_where_the_rule_does_not_apply(pair_checks):
    # the fold of the completeness test: not complete, so the pair loop
    # runs, and it rejects the overlap
    with pytest.raises(BadIntersection):
        from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [1, 2], [2, 0]])
    assert len(pair_checks) >= 1
    subfan = random_fan(3, 1, "subfan")
    assert not subfan.is_complete() and len(subfan.maximal_cones()) >= 2
    cases = [
        (3, subfan.rays, [list(subfan.cones[ci].rays) for ci in subfan.maximal_cones()]),
        # rank 1, which the rule leaves to the pair loop
        (1, [(1,), (-1,)], [[0], [1]]),
        # complete, but one listed cone, the ray (1, 0), is not full-dimensional
        (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0], [0]]),
    ]
    for rank, rays, cones in cases:
        del pair_checks[:]
        fan = from_maximal_cones(rank, rays, cones, validate_pairs=True)
        assert len(pair_checks) == comb(len(cones), 2), (rank, rays, cones)
    assert fan.is_complete()


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
    # unvalidated: validated, its 512 maximal cones exceed the pair limit first
    with pytest.raises(ResourceLimitExceeded, match=f"more than {REAL_CELL_LIMIT} cells"):
        from_maximal_cones(9, *_p1_power(9), validate_pairs=False)
    # the zero cone alone: 2**16 cells pass, 2**17 do not
    assert len(torus_fan(16).cones) == 1
    with pytest.raises(ResourceLimitExceeded):
        torus_fan(17)


def _ray_chain(n):
    """n rank-2 cones on consecutive rays (1, 0), (1, 1), ..., (1, n): their
    facet searches count 2n ray subsets, and they make C(n, 2) pairs."""
    return [(1, k) for k in range(n + 1)], [[k, k + 1] for k in range(n)]


def test_facet_subset_limit_sums_over_the_maximal_cones():
    from_maximal_cones(2, *_ray_chain(FACET_SUBSET_LIMIT // 2), validate_pairs=False)
    limit = f"^the facet searches would count more than {FACET_SUBSET_LIMIT} ray subsets$"
    with pytest.raises(ResourceLimitExceeded, match=limit):
        from_maximal_cones(2, *_ray_chain(FACET_SUBSET_LIMIT // 2 + 1), validate_pairs=False)


def test_pair_limit_admits_p1_8_and_rejects_317_cones():
    fan = from_maximal_cones(8, *_p1_power(8), validate_pairs=True)
    assert comb(len(fan.maximal_cones()), 2) == 32640 <= PAIR_LIMIT
    rays, cones = _ray_chain(317)
    assert comb(317, 2) == 50086 > PAIR_LIMIT
    with pytest.raises(ResourceLimitExceeded, match=f"more than {PAIR_LIMIT} pairs"):
        from_maximal_cones(2, rays, cones)
    # at every rank, complete or not: (P^1)^9 has C(512, 2) pairs
    with pytest.raises(ResourceLimitExceeded, match=f"more than {PAIR_LIMIT} pairs"):
        from_maximal_cones(9, *_p1_power(9))
    # unvalidated, the pairs are not bounded
    assert len(from_maximal_cones(2, rays, cones, validate_pairs=False).maximal_cones()) == 317


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
        [normal for normal, _ in _facet_normals(_cone_geometry(n, cone_vectors(fan, ci)))]
        for ci in full
    ]
    return all(
        any(all(sum(map(mul, w, v)) >= 0 for w in cone) for cone in normals)
        for v in samples
    )


def test_completeness_matches_sampling_reference(cyclic_fan):
    fans = sampled_fans(cyclic_fan)
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
    assert is_nonsingular(projective_space_fan(3))
    singular = affine_fan(2, [(1, 0), (1, 2)])
    assert is_simplicial(singular)
    assert not is_nonsingular(singular)
    cube = from_maximal_cones(
        3,
        [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)],
        [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7]],
    )
    assert not is_simplicial(cube)
    assert not is_nonsingular(cube)


def _nonsingular_by_smith_form(fan) -> bool:
    """Every cone is simplicial and the invariant factors of its ray
    matrix multiply to 1, so its rays extend to a lattice basis."""
    for ci, cone in enumerate(fan.cones):
        if not cone.rays:
            continue
        a = Matrix(cone_vectors(fan, ci))
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
    verdicts = [is_nonsingular(fan) for fan in fans]
    assert verdicts == [_nonsingular_by_smith_form(fan) for fan in fans]
    assert True in verdicts and False in verdicts


def test_h_vector_examples():
    assert h_vector(projective_space_fan(3)) == [1, 1, 1, 1]
    p1 = projective_space_fan(1)
    assert h_vector(product_fan(p1, p1)) == [1, 2, 1]
    assert h_vector(hirzebruch_fan(2)) == [1, 2, 1]


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
