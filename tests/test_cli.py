"""Command-line interface: exit codes, output formats, determinism."""
from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import pytest

import realtoric
from realtoric import cli, spectral
from realtoric.analysis import TheoremViolation
from realtoric.constructions import product_fan, projective_space_fan
from realtoric.fan import fan_from_json, read_json, write_json
from realtoric.gf2 import CrossCheckFailed, Mat2
from realtoric.orbitalg import induced_projection_mod2

from conftest import child_env

FANS = Path(__file__).resolve().parents[1] / "fans"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_canonical_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "pn", "2")
    assert code == 0
    fan = fan_from_json(out)
    assert fan.rank == 2 and len(fan.rays) == 3 and fan.name == "p2"
    code2, out2, _ = run_cli(capsys, "gen", "pn", "2")
    assert out2 == out  # byte-identical reruns


def test_gen_out_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    code, out, _ = run_cli(capsys, "gen", "hirzebruch", "2", "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    assert fan_from_json(path.read_text()).name == "hirzebruch2"


def test_gen_product_tokens(capsys):
    code, out, _ = run_cli(capsys, "gen", "product", "pn:1", "pn:1")
    assert code == 0
    fan = fan_from_json(out)
    assert fan.rank == 2 and len(fan.rays) == 4
    code, out, _ = run_cli(capsys, "gen", "product", "pn:1", "hirzebruch:0")
    assert code == 0
    assert fan_from_json(out).rank == 3


def test_gen_usage_errors(capsys):
    assert run_cli(capsys, "gen", "bogus")[0] == 1
    assert run_cli(capsys, "gen", "pn")[0] == 1
    assert run_cli(capsys, "gen", "pn", "1", "2")[0] == 1
    assert run_cli(capsys, "gen", "pn", "x")[0] == 1
    assert run_cli(capsys, "gen", "cyclic57", "9")[0] == 1
    assert run_cli(capsys, "gen", "weighted", "1")[0] == 1
    assert run_cli(capsys, "gen", "product", "pn:1")[0] == 1


def test_gen_out_unwritable_exits_one(tmp_path):
    path = tmp_path / "missing" / "fan.json"
    proc = subprocess.run(
        [sys.executable, "-m", "realtoric.cli", "gen", "pn", "2", "--out", str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"realtoric gen: error: cannot write {path}: "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_gen_validation_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "weighted", "2", "4")
    assert code == 2 and "validation error" in err
    assert run_cli(capsys, "gen", "same-mod2", "2")[0] == 2
    assert run_cli(capsys, "gen", "pn", "0")[0] == 2


def test_gen_weighted_pins_the_elimination_basis(capsys):
    # the rays are the quotient basis that intlin.span_elimination picks;
    # a change to that elimination shows here before it reaches users
    code, out, _ = run_cli(capsys, "gen", "weighted", "3", "5", "7")
    assert code == 0
    assert json.loads(out)["rays"] == [[7, 3], [0, 1], [-3, -2]]
    code, out, err = run_cli(capsys, "gen", "weighted", "4", "6", "9")
    assert code == 2 and out == ""
    assert err == (
        "validation error: weight vector (4, 6, 9) gives non-primitive ray "
        "image (9, 3) for basis vector 0\n"
    )


def test_compute_pretty_report(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run_cli(capsys, "gen", "pn", "2", "--out", str(path))
    code, out, _ = run_cli(capsys, "compute", str(path))
    assert code == 0
    assert "betti_real (closed support): [1, 1, 1]" in out
    assert "verdict: CertifiedM  (gap 0)" in out
    assert "E2 page" in out and "G1 page" in out


def test_compute_json_report(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run_cli(capsys, "gen", "pn", "2", "--out", str(path))
    code, out, _ = run_cli(capsys, "compute", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "p2"
    assert report["rank"] == 2
    assert report["betti_real"] == [1, 1, 1]
    assert report["totals"] == {"sum_betti_real": 3, "total_e2": 3, "total_g1": 3}
    assert report["verdict"]["status"] == "CertifiedM"
    assert report["verdict"]["gap"] == 0
    assert {tuple(t[:2]): t[2] for t in report["e2"]}[(0, 0)] == 1
    assert any(t[:2] == [-2, 4] for t in report["g1"])
    # canonical: rerun is byte identical
    _, out2, _ = run_cli(capsys, "compute", str(path), "--json")
    assert out2 == out


def test_compute_json_report_on_multiword_boundaries(tmp_path, capsys):
    # the real complex of P^1 x ... x P^1 (5 factors) has degree-p terms of
    # 32 * C(5, p) cells, so its boundaries have rows of up to 320 bits
    path = tmp_path / "p1-5.json"
    write_json(reduce(product_fan, [projective_space_fan(1)] * 5), str(path))
    code, out, _ = run_cli(capsys, "compute", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["betti_real"] == [1, 5, 10, 10, 5, 1]
    assert report["totals"] == {"sum_betti_real": 32, "total_e2": 32, "total_g1": 32}
    assert report["verdict"]["status"] == "CertifiedM"


def test_compute_page_selection(tmp_path, capsys):
    path = tmp_path / "p1.json"
    run_cli(capsys, "gen", "pn", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "compute", str(path), "--json", "--pages", "e1,e2,g0,g1"
    )
    report = json.loads(out)
    assert code == 0
    assert all(k in report for k in ("e1", "e2", "g0", "g1"))
    code, out, _ = run_cli(capsys, "compute", str(path), "--json", "--pages", "")
    report = json.loads(out)
    assert code == 0 and "e2" not in report
    assert run_cli(capsys, "compute", str(path), "--pages", "e9")[0] == 1


def test_compute_builds_each_artifact_once(monkeypatch, capsys):
    # blocks are built once per distinct induced projection of each
    # codimension: one group-algebra map each, conjugated into the y basis
    # of the real complex, and one pass of the exterior-power kernel each,
    # which gives the blocks of every E1 row
    path = str(FANS / "p2.json")
    fan = read_json(path)
    distinct = {
        (fan.rank - fan.cones[si].dim, induced_projection_mod2(fan, si, ti))
        for si, ti in fan.facet_pairs()
    }
    assert (len(fan.facet_pairs()), len(distinct)) == (9, 4)
    calls = {"group_algebra_map": 0, "exterior_powers": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(spectral, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(spectral, name, counted)
    code, _, _ = run_cli(capsys, "compute", "--json", "--pages", "e1,e2,g0,g1", path)
    assert code == 0
    assert calls == {"group_algebra_map": len(distinct), "exterior_powers": len(distinct)}


def test_compute_parse_and_validation_errors(tmp_path, capsys):
    garbage = tmp_path / "galore.json"
    garbage.write_text("{how about no")
    code, _, err = run_cli(capsys, "compute", str(garbage))
    assert code == 3 and "parse error" in err
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "compute", str(missing))
    assert code == 3
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps({"rank": 2, "rays": [[2, 0]], "maximal_cones": [[0]]})
    )
    code, _, err = run_cli(capsys, "compute", str(invalid))
    assert code == 2 and "validation error" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "parse error: not UTF-8"),
        (b"[" * 200_000, "parse error: JSON nested too deeply"),
        (
            b'{"rank": 2, "rays": [[1' + b"0" * 5000 + b', 1]], "maximal_cones": [[0]]}',
            "parse error: unreadable number",
        ),
        (
            b'{"rank": 1, "rays": [[1]], "maximal_cones": [[0]], "name": "\\ud800"}',
            "parse error: name is not valid Unicode",
        ),
    ],
    ids=["not-utf8", "deep-nesting", "huge-int", "surrogate-name"],
)
def test_compute_unreadable_json_exits_three(tmp_path, content, message):
    # a child with a real UTF-8 stdout: a StringIO would take the lone
    # surrogate of the name that the pretty report prints
    path = tmp_path / "fan.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "realtoric.cli", "compute", str(path)],
        capture_output=True,
        text=True,
        env=dict(child_env(), PYTHONIOENCODING="utf-8"),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(message), proc.stderr
    assert "Traceback" not in proc.stderr


def test_compute_no_validate_skips_pair_checks(tmp_path, capsys):
    # overlapping cones: rejected with validation, accepted without
    bad = tmp_path / "overlap.json"
    bad.write_text(
        json.dumps(
            {
                "rank": 2,
                "rays": [[1, 0], [0, 1], [1, 2], [2, 1]],
                "maximal_cones": [[0, 1], [2, 3]],
            }
        )
    )
    assert run_cli(capsys, "compute", str(bad))[0] == 2
    assert run_cli(capsys, "compute", str(bad), "--no-validate")[0] == 0


def test_fourier_motzkin_limit_exits_five(tmp_path, monkeypatch, capsys, fm_verdicts):
    # two cones of rank 2 that meet only in 0, but the sum of the inward
    # facet normals of neither is <= 0 on every ray of the other, so the
    # pair escapes the separation certificate and reaches Fourier-Motzkin
    path = tmp_path / "gap.json"
    path.write_text(
        json.dumps(
            {
                "rank": 2,
                "rays": [[-2, -1], [-1, 1], [0, 1], [1, 1]],
                "maximal_cones": [[0, 1], [2, 3]],
            }
        )
    )
    monkeypatch.setattr(realtoric.fan, "FM_ROW_LIMIT", 1)
    code, out, err = run_cli(capsys, "compute", "--json", str(path))
    assert fm_verdicts == [None]
    assert code == 5
    assert out == ""
    assert err.startswith("realtoric compute: resource limit: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "rank30.json"],
        ["compute", "rank100000.json"],
        ["gen", "pn", "20"],
        ["gen", "pn", "100000"],
        ["gen", "same-mod2", "1000000000"],
        ["gen", "weighted", *["1"] * 100001],
    ],
    ids=["rank30", "rank100000", "pn20", "pn100000", "same-mod2-1e9", "weighted-100001"],
)
def test_oversized_input_exits_five_at_once(tmp_path, argv):
    # the real complex of rank r has at least 2**r cells; the guard fires
    # before anything of that size is built
    for rank in (30, 100000):
        (tmp_path / f"rank{rank}.json").write_text(
            json.dumps({"rank": rank, "rays": [], "maximal_cones": []})
        )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "realtoric.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
        timeout=60,
    )
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        f"realtoric {argv[0]}: resource limit: the real complex would have "
        "more than 100000 cells\n"
    )


def test_compute_json_pretty_conflict(tmp_path, capsys):
    path = tmp_path / "p1.json"
    run_cli(capsys, "gen", "pn", "1", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", str(path), "--json", "--pretty"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_reference_tables(capsys):
    code, out, _ = run_cli(capsys, "reference-tables")
    assert code == 0
    assert "totals 123 = 123" in out
    code, out, _ = run_cli(capsys, "reference-tables", "--transpose-check")
    assert code == 0
    assert "transpose identity checked" in out


def test_reference_tables_detects_mismatch(monkeypatch, capsys):
    monkeypatch.setitem(cli.EXPECTED_E2, (0, 0), 2)
    code, _, err = run_cli(capsys, "reference-tables")
    assert code == 4
    assert "MISMATCH" in err


def test_search_small_batch(capsys):
    code, out, _ = run_cli(capsys, "search", "--count", "9", "--seed", "3")
    assert code == 0
    assert "checked 9 fans (seed 3): all CertifiedM" in out
    assert "max gap: 0" in out
    code, out, _ = run_cli(
        capsys, "search", "--count", "4", "--dim", "2", "--profile", "complete"
    )
    assert code == 0


def test_search_usage_errors(capsys):
    assert run_cli(capsys, "search", "--count", "0")[0] == 1
    assert run_cli(capsys, "search", "--dim", "4")[0] == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--profile", "bogus"])
    assert exc.value.code == 1


def test_search_reports_theorem_violation(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise TheoremViolation("fabricated failure", "{}")

    monkeypatch.setattr(cli, "dim3_theorem_batch", explode)
    code, _, err = run_cli(capsys, "search", "--count", "1")
    assert code == 4
    assert "THEOREM VIOLATION" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_scripts():
    """The [project.scripts] table of pyproject.toml, read line by line so
    that the entry-point check also runs on Python 3.10, which has no
    tomllib. test_console_scripts_reader_agrees_with_tomllib checks it."""
    scripts, in_table = {}, False
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and line and not line.startswith("#"):
            key, _, value = line.partition("=")
            scripts[key.strip().strip('"')] = value.strip().strip('"')
    return scripts


def test_console_scripts_reader_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "realtoric"
    assert project["scripts"] == console_scripts()


def test_console_script_entry_point(tmp_path):
    # `python -m` must reach argparse: a missing package also exits 1, but
    # with an import error instead of the usage line.
    proc = subprocess.run(
        [sys.executable, "-m", "realtoric.cli"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: realtoric"), proc.stderr
    assert "Traceback" not in proc.stderr

    module, _, func = console_scripts()["realtoric"].partition(":")
    assert callable(getattr(importlib.import_module(module), func))

    # What the wrapper pip generates for [project.scripts] does: main()
    # with no arguments must read sys.argv, and its result is the exit code.
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv = ['realtoric', 'gen', 'torus', '2']\n"
        f"sys.exit({func}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rank"] == 2


@pytest.mark.skipif(
    shutil.which("realtoric") is None,
    reason="the realtoric console script is not on PATH (package not installed)",
)
def test_installed_console_script():
    proc = subprocess.run(
        ["realtoric", "gen", "torus", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 2


FLIP_ONE_BIT_OF_EVERY_BLOCK = """
import sys
import realtoric.cli, realtoric.orbitalg, realtoric.spectral
assert False, "unreachable: python -O strips assert statements"
real_map = realtoric.orbitalg.group_algebra_map
def corrupted(m):
    out = real_map(m)
    out.rows[0] ^= 1
    return out
for module in (realtoric.orbitalg, realtoric.spectral):
    module.group_algebra_map = corrupted
sys.exit(realtoric.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--json", str(FANS / "p2.json")],
        ["reference-tables"],
        ["search", "--count", "3", "--dim", "2"],
    ],
)
def test_cross_check_failure_exits_four_under_optimize(tmp_path, argv):
    # one bad group-algebra block, shared by every facet pair with its
    # induced projection, must still be caught with assert statements off
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FLIP_ONE_BIT_OF_EVERY_BLOCK, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"realtoric {argv[0]}: cross-check failed: ")
    assert len(proc.stderr.splitlines()) == 1


# the unit's point coordinate flipped in one row: in the y basis the
# level-0 row gains entries in every column level, which the augmentation
# filtration forbids
UNFILTERED_UNIT_BLOCK = """
import sys
import realtoric.cli, realtoric.spectral
from realtoric.gf2 import Mat2
assert False, "unreachable: python -O strips assert statements"
real_map = realtoric.spectral.group_algebra_map
def unfiltered(m):
    b = real_map(m)
    return Mat2(b.nrows, b.ncols, [b.rows[0] ^ 1, *b.rows[1:]])
realtoric.spectral.group_algebra_map = unfiltered
sys.exit(realtoric.cli.main(sys.argv[1:]))
"""


def test_filtration_gate_fires_under_optimize(monkeypatch, tmp_path):
    gate = "boundary does not respect the augmentation filtration"
    real_map = spectral.group_algebra_map

    def unfiltered(m):
        b = real_map(m)
        return Mat2(b.nrows, b.ncols, [b.rows[0] ^ 1, *b.rows[1:]])

    monkeypatch.setattr(spectral, "group_algebra_map", unfiltered)
    for fan in (projective_space_fan(1), projective_space_fan(2)):
        with pytest.raises(CrossCheckFailed, match=gate):
            spectral.g_pages(fan)
    # p1 has a single boundary, so no d o d check can fire before the gate
    proc = subprocess.run(
        [sys.executable, "-O", "-c", UNFILTERED_UNIT_BLOCK,
         "compute", "--json", str(FANS / "p1.json")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"realtoric compute: cross-check failed: {gate}\n"
