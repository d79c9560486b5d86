"""The CLI's exit-code contract on mutated fan JSON: every input ends in a
report or a documented exit code, with at most one stderr line and no
traceback."""
from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from realtoric import cli

from conftest import child_env

FANS = Path(__file__).resolve().parents[1] / "fans"
SEEDS = [json.loads(p.read_text()) for p in sorted(FANS.glob("*.json"))]

# exit codes a fan file may end in: report, invalid fan, unreadable input,
# too large
ALLOWED = {0, 2, 3, 5}
ODD_VALUES = [None, True, False, 1.5, "1", "", [], {}, [[]], -1, 0, 10**30, "\ud800"]
ODD_NAMES = ["\ud800", "\udfff", "a\ud800b", "", "\x00", "é", "\n", 5, [], None]
HIGH_RANKS = [5, 16, 17, 30, 64, 100000, 10**40]


def _pick(draw, seq):
    return draw(st.integers(0, len(seq) - 1))


def _rays(data):
    rays = data.get("rays")
    return rays if isinstance(rays, list) and rays else None


def _cones(data):
    cones = data.get("maximal_cones")
    return cones if isinstance(cones, list) and cones else None


def drop_ray(draw, data):
    if (rays := _rays(data)) is not None:
        rays.pop(_pick(draw, rays))


def duplicate_ray(draw, data):
    if (rays := _rays(data)) is not None:
        rays.append(copy.deepcopy(rays[_pick(draw, rays)]))


def scale_ray(draw, data):
    if (rays := _rays(data)) is not None:
        i = _pick(draw, rays)
        k = draw(st.sampled_from([-1, 0, 2, 3, -7]))
        if isinstance(rays[i], list) and all(isinstance(x, int) for x in rays[i]):
            rays[i] = [k * x for x in rays[i]]


def resize_ray(draw, data):
    if (rays := _rays(data)) is not None:
        ray = rays[_pick(draw, rays)]
        if isinstance(ray, list):
            if ray and draw(st.booleans()):
                ray.pop()
            else:
                ray.append(draw(st.integers(-2, 2)))


def replace_ray(draw, data):
    # a small vector of the same length: overlapping cones, cones that are
    # not pointed, rays that are not extreme or not primitive
    if (rays := _rays(data)) is not None:
        i = _pick(draw, rays)
        if isinstance(rays[i], list):
            rays[i] = draw(st.lists(st.integers(-3, 3), min_size=len(rays[i]), max_size=len(rays[i])))


def bad_index(draw, data):
    if (cones := _cones(data)) is not None:
        cone = cones[_pick(draw, cones)]
        if isinstance(cone, list) and cone:
            n = len(data["rays"]) if isinstance(data.get("rays"), list) else 0
            cone[_pick(draw, cone)] = draw(st.sampled_from([n, n + 3, -1]))


def repeat_index(draw, data):
    if (cones := _cones(data)) is not None:
        cone = cones[_pick(draw, cones)]
        if isinstance(cone, list) and cone:
            cone.append(cone[0])


def replace_cone(draw, data):
    # any subset of the rays: overlaps and cones that are not pointed
    if (cones := _cones(data)) is not None and (rays := _rays(data)) is not None:
        cones[_pick(draw, cones)] = sorted(
            draw(st.sets(st.integers(0, len(rays) - 1), max_size=len(rays)))
        )


def wrong_type(draw, data):
    odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    spots = [("rank",), ("rays",), ("maximal_cones",), ("name",)]
    if (rays := _rays(data)) is not None:
        i = _pick(draw, rays)
        spots.append(("rays", i))
        if isinstance(rays[i], list) and rays[i]:
            spots.append(("rays", i, _pick(draw, rays[i])))
    if (cones := _cones(data)) is not None:
        j = _pick(draw, cones)
        spots.append(("maximal_cones", j))
        if isinstance(cones[j], list) and cones[j]:
            spots.append(("maximal_cones", j, _pick(draw, cones[j])))
    *path, last = draw(st.sampled_from(spots))
    target = data
    for key in path:
        target = target[key]
    target[last] = odd


def huge_number(draw, data):
    big = draw(st.sampled_from([1, -1])) * 10 ** draw(st.integers(18, 400))
    if (rays := _rays(data)) is not None and draw(st.booleans()):
        ray = rays[_pick(draw, rays)]
        if isinstance(ray, list) and ray:
            ray[_pick(draw, ray)] = big
            return
    data["rank"] = big


def high_rank(draw, data):
    data["rank"] = draw(st.sampled_from(HIGH_RANKS))


def odd_name(draw, data):
    data["name"] = copy.deepcopy(draw(st.sampled_from(ODD_NAMES)))


def drop_key(draw, data):
    key = draw(st.sampled_from(["rank", "rays", "maximal_cones", "name"]))
    data.pop(key, None)


MUTATIONS = [
    drop_ray, duplicate_ray, scale_ray, resize_ray, replace_ray, bad_index,
    repeat_index, replace_cone, wrong_type, huge_number, high_rank, odd_name,
    drop_key,
]


@st.composite
def mutated_fan_text(draw):
    data = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutation(draw, data)
    text = json.dumps(data)
    if draw(st.sampled_from([False] * 9 + [True])):  # now and then, broken JSON
        text = text[: draw(st.integers(0, len(text)))]
    return text


def run_in_process(argv):
    """cli.main with stdout encoded as strict UTF-8, as a real terminal or
    pipe would, so an unencodable report fails here as it would there."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
        out.flush()
    return code, err.getvalue()


@seed(20261019)
@settings(max_examples=300, derandomize=False)
@given(text=mutated_fan_text(), fmt=st.sampled_from([[], ["--json"]]))
def test_mutated_fan_json_keeps_the_exit_code_contract(tmp_path_factory, text, fmt):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    code, err = run_in_process(["compute", *fmt, "--pages", "e1,e2,g0,g1", str(path)])
    assert code in ALLOWED, (code, err)
    assert len(err.splitlines()) <= 1, err
    assert (code == 0) == (err == "")


# Named regression cases, one per way a fan file can fail, run as
# subprocesses under python -O: the contract must not rest on asserts.
CASES = {
    "valid": ('{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "maximal_cones": [[0, 1], [1, 2], [2, 0]]}', 0, ""),
    "float-ray": ('{"rank": 2, "rays": [[1.5, 0]], "maximal_cones": [[0]]}', 3, "parse error: each ray must be"),
    "index-out-of-range": ('{"rank": 2, "rays": [[1, 0]], "maximal_cones": [[0, 1]]}', 2, "validation error: cone ray index 1"),
    "not-pointed": ('{"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0, 1]]}', 2, "validation error: cone on rays [0, 1] is not pointed"),
    "overlap": ('{"rank": 2, "rays": [[1, 0], [0, 1], [1, 2], [2, 1]], "maximal_cones": [[0, 1], [2, 3]]}', 2, "validation error: cones on rays"),
    "surrogate-name": ('{"rank": 1, "rays": [[1]], "maximal_cones": [[0]], "name": "\\ud800"}', 3, "parse error: name is not valid Unicode"),
    "huge-rank": ('{"rank": 1' + "0" * 40 + ', "rays": [], "maximal_cones": []}', 5, "realtoric compute: resource limit: "),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_contract_sample_under_optimize(tmp_path, case):
    text, want_code, want_err = CASES[case]
    path = tmp_path / "fan.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "realtoric.cli", "compute", str(path)],
        capture_output=True,
        text=True,
        env=dict(child_env(), PYTHONIOENCODING="utf-8"),
        timeout=60,
    )
    assert proc.returncode == want_code, proc.stderr
    assert proc.stderr.startswith(want_err), proc.stderr
    assert len(proc.stderr.splitlines()) == (want_code != 0)
    assert "Traceback" not in proc.stderr
