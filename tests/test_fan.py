"""Fan construction, validation, combinatorics, and JSON round trips."""
from __future__ import annotations

import json
from functools import reduce
from pathlib import Path

import pytest

from realtoric.constructions import (
    affine_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    torus_fan,
)
from realtoric.fan import (
    BadIntersection,
    Cone,
    NonPrimitiveRay,
    NotPointed,
    ParseError,
    ValidationError,
    fan_from_json,
    fan_to_json,
    from_maximal_cones,
    read_json,
    write_json,
)

FANS = Path(__file__).resolve().parents[1] / "fans"


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
    paths = sorted(FANS.glob("*.json"))
    assert paths
    fans = [read_json(str(path)) for path in paths]
    fans += [
        random_fan(rank, seed, profile)
        for rank in (1, 2, 3)
        for profile in ("complete", "subfan", "affine")
        for seed in range(8)
    ]
    fans.append(reduce(product_fan, [projective_space_fan(1)] * 4))
    for fan in fans:
        faces, pairs, maximal = _brute_face_lattice(fan)
        assert [fan.faces_of(i) for i in range(len(fan.cones))] == faces, fan
        assert fan.facet_pairs() == pairs, fan
        assert fan.maximal_cones() == maximal, fan


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


def test_rank_must_be_positive():
    with pytest.raises(ValidationError):
        from_maximal_cones(0, [], [])


def test_ray_length_must_match_rank():
    with pytest.raises(ValidationError, match="length"):
        from_maximal_cones(2, [(1, 0, 0)], [[0]])


def test_completeness_examples():
    assert projective_space_fan(1).is_complete()
    assert hirzebruch_fan(3).is_complete()
    assert not affine_fan(2, [(1, 0), (0, 1)]).is_complete()
    assert not torus_fan(2).is_complete()
    # half plane: a wall bounds only one full-dimensional cone
    half = from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    assert not half.is_complete()


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
