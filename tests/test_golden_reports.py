"""The `compute --json` reports, byte for byte, against the digests of the
benchmark.

`perfbench/expected.json` holds the sha256 of each report the benchmark
checks: `compute --json FILE` on every fans/*.json ("cli-compute"), and
`compute --json --pages e1,e2,g0,g1` on each large fan written by
`realtoric.fan.write_json` ("large-fans").  The file is only read here.
The benchmark also writes each large fan relabelled (`inputs.relabel`),
and the report must not change: cones are interned by the rows of their
projections, and those rows depend on the order of the rays.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest
from conftest import ROOT
from conftest import perfbench_inputs as inputs

from realtoric import cli
from realtoric.fan import fan_to_json, write_json

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))


def report_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED["cli-compute"]))
def test_committed_fan_report_matches_its_digest(name):
    path = ROOT / "fans" / name
    assert report_digest(["compute", "--json", str(path)]) == EXPECTED["cli-compute"][name]


def test_every_committed_fan_has_a_digest():
    assert sorted(p.name for p in (ROOT / "fans").glob("*.json")) == sorted(EXPECTED["cli-compute"])


@pytest.mark.parametrize("label", inputs.LARGE_FANS)
def test_large_fan_pages_match_their_digest(label, tmp_path):
    path = tmp_path / "fan.json"
    write_json(inputs.build_fan(label), str(path))
    argv = ["compute", "--json", "--pages", "e1,e2,g0,g1", str(path)]
    assert report_digest(argv) == EXPECTED["large-fans"][label]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("label", inputs.LARGE_FANS)
def test_relabelled_large_fan_pages_match_their_digest(label, seed, tmp_path):
    # relabelled by the benchmark's own function, with its seed format
    fan = json.loads(fan_to_json(inputs.build_fan(label)))
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(inputs.relabel(fan, random.Random(f"relabel:{seed}"))))
    argv = ["compute", "--json", "--pages", "e1,e2,g0,g1", str(path)]
    assert report_digest(argv) == EXPECTED["large-fans"][label]
