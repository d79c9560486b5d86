"""Command-line interface: exit codes, output formats, determinism."""
from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import pytest

import realtoric
from realtoric import analysis, cli, spectral
from realtoric.analysis import TheoremViolation
from realtoric.constructions import product_fan, projective_space_fan
from realtoric.fan import fan_from_json, read_json, write_json
from realtoric.gf2 import CrossCheckFailed, Mat2

from conftest import child_env, moment_cone_json
from oracles import induced_projection_mod2

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


def test_gen_weighted_writes_the_rays_readme_documents(capsys):
    # the rays come from the integer elimination of the weight vector
    code, out, _ = run_cli(capsys, "gen", "weighted", "3", "5", "7")
    assert code == 0
    assert out == (
        '{"maximal_cones": [[0,1],[0,2],[1,2]],"name": "wp3-5-7","rank": 2,'
        '"rays": [[7,3],[0,1],[-3,-2]]}\n'
    )


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


def test_compute_no_validate_gives_the_default_report(capsys):
    # on a fan, skipping pair validation changes no byte of the report, and
    # one stderr line says that the pairs were not validated
    paths = sorted(FANS.glob("*.json"))
    assert paths
    for path in paths:
        argv = ["compute", "--json", "--pages", "e1,e2,g0,g1", str(path)]
        default = run_cli(capsys, *argv)
        assert default[0] == 0 and default[1] and default[2] == "", path.name
        unvalidated = run_cli(capsys, *argv, "--no-validate")
        assert unvalidated[:2] == default[:2], path.name
        assert unvalidated[2] == (
            "realtoric compute: warning: pairs of cones were not validated\n"
        ), path.name


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


def test_compute_validates_a_rank_5_file_by_default(tmp_path, capsys):
    # the twice-wound rank-2 file times (P^1)^3: 40 cones of rank 5 that
    # overlap, refused since pairs are validated at every rank; unvalidated,
    # it is certified M, and stderr says that it was not validated
    wound = [[1, 0], [-4, 3], [1, -3], [1, 3], [-4, -3]]
    rays = [r + [0, 0, 0] for r in wound]
    rays += [[0, 0] + [s * (i == j) for j in range(3)] for i in range(3) for s in (1, -1)]
    cones = [
        [a, (a + 1) % 5] + [5 + 2 * i + (bits >> i & 1) for i in range(3)]
        for a in range(5) for bits in range(8)
    ]
    path = tmp_path / "twice-wound-5.json"
    path.write_text(json.dumps({"rank": 5, "rays": rays, "maximal_cones": cones}))
    code, out, err = run_cli(capsys, "compute", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("validation error: cones on rays "), err
    code, out, err = run_cli(capsys, "compute", str(path), "--no-validate")
    assert code == 0
    assert "verdict: CertifiedM" in out
    assert err == "realtoric compute: warning: pairs of cones were not validated\n"


def test_pair_check_fallback_limit_exits_five(tmp_path, monkeypatch, capsys, fallback_verdicts):
    # two simplicial cones of rank 3 that meet only in 0, but the sum of
    # the inward facet normals of neither is <= 0 on every ray of the
    # other, so the pair escapes the separation certificate and reaches
    # the fallback, whose cone on all six rays counts C(6, 2) = 15 ray
    # subsets against the 3 + 3 of the two cones
    path = tmp_path / "gap.json"
    path.write_text(
        json.dumps(
            {
                "rank": 3,
                "rays": [
                    [1, -5, -1], [-1, 1, -3], [3, -1, 0],
                    [-3, -2, 1], [-5, 3, -5], [-2, 3, 5],
                ],
                "maximal_cones": [[0, 1, 2], [3, 4, 5]],
            }
        )
    )
    assert run_cli(capsys, "compute", "--json", str(path))[0] == 0
    assert fallback_verdicts == [False]
    fallback_verdicts.clear()
    monkeypatch.setattr(realtoric.fan, "FACET_SUBSET_LIMIT", 10)
    code, out, err = run_cli(capsys, "compute", "--json", str(path))
    assert fallback_verdicts == [None]
    assert code == 5
    assert out == ""
    assert err.startswith("realtoric compute: resource limit: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


CELLS = "the real complex would have more than 100000 cells"
SUBSETS = "the facet searches would count more than 5000 ray subsets"
PAIRS = "pair validation would check more than 50000 pairs of cones"


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["compute", "rank30.json"], CELLS),
        (["compute", "rank100000.json"], CELLS),
        (["gen", "pn", "20"], CELLS),
        (["gen", "pn", "100000"], CELLS),
        (["gen", "same-mod2", "1000000000"], CELLS),
        (["gen", "weighted", *["1"] * 100001], CELLS),
        (["compute", "cone20-rank8.json"], SUBSETS),
        (["compute", "cone40-rank10.json"], SUBSETS),
        (["gen", "same-mod2", "2000"], PAIRS),
    ],
    ids=[
        "rank30", "rank100000", "pn20", "pn100000", "same-mod2-1e9", "weighted-100001",
        "cone20-rank8", "cone40-rank10", "same-mod2-2000",
    ],
)
def test_oversized_input_exits_five_at_once(tmp_path, argv, limit):
    # the real complex of rank r has at least 2**r cells, a cone of k rays
    # spanning d dimensions takes C(k, d - 1) subsets to find its facets,
    # and m maximal cones make C(m, 2) pairs to validate; each guard fires
    # before the work it bounds
    for rank in (30, 100000):
        (tmp_path / f"rank{rank}.json").write_text(
            json.dumps({"rank": rank, "rays": [], "maximal_cones": []})
        )
    (tmp_path / "cone20-rank8.json").write_text(moment_cone_json(8, 20))
    (tmp_path / "cone40-rank10.json").write_text(moment_cone_json(10, 40))
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
    assert proc.stderr == f"realtoric {argv[0]}: resource limit: {limit}\n"


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


def test_transpose_check_reports_each_mismatch_once(monkeypatch, capsys):
    g_pages = cli.g_pages

    def raised(fan):
        g0, g1 = g_pages(fan)
        entries = dict(g1.entries)
        entries[(-2, 6)] += 1
        return g0, g1._replace(entries=entries)

    monkeypatch.setattr(cli, "g_pages", raised)
    code, _, err = run_cli(capsys, "reference-tables", "--transpose-check")
    assert code == 4
    lines = [line for line in err.splitlines() if line.startswith("MISMATCH: transpose:")]
    assert lines == ["MISMATCH: transpose: G1[-2,6] = 22 != E2[4,2] = 21"]


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # start-up is most of a cold compute on a small fan, and these two
    # modules, with the ast, dis and tokenize that inspect pulls in, would
    # be a large share of it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, realtoric.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


# m_verdict's three gates, each made to fire by patching one of its inputs.
# On p2 every total is 3: one G1 entry one higher breaks total G1 = total
# E2, and a Betti sum of exactly total G1 + 1 is the least that breaks
# sum b(R) <= total G1.  E2 at (1, 1) is 1 and at (2, 1) is 0: swapping G1
# at their positions (-1, 2) and (-1, 3) keeps the totals equal, and only
# the entrywise comparison sees it, at (1, 1) first.
ONE_MORE_G1 = """
real_pages = analysis.g_pages
def skewed(fan):
    g0, g1 = real_pages(fan)
    first = min(g1.entries)
    return g0, g1._replace(entries={**g1.entries, first: g1.entries[first] + 1})
analysis.g_pages = skewed
"""
ONE_MORE_BETTI = """
real_betti = analysis.betti_real
def skewed(fan):
    b = real_betti(fan)
    return [b[0] + 1, *b[1:]]
analysis.betti_real = skewed
"""
SWAPPED_G1 = """
real_pages = analysis.g_pages
def skewed(fan):
    g0, g1 = real_pages(fan)
    entries = dict(g1.entries)
    entries[-1, 2], entries[-1, 3] = entries[-1, 3], entries[-1, 2]
    return g0, g1._replace(entries=entries)
analysis.g_pages = skewed
"""


@pytest.mark.parametrize(
    "patch, gate",
    [
        (ONE_MORE_G1, "total G1 = 4 != total E2 = 3"),
        (ONE_MORE_BETTI, "Betti sum 4 exceeds the page total 3"),
        (SWAPPED_G1, "G1 at (-1, 2) = 0 != E2 at (1, 1) = 1"),
    ],
    ids=["g1-equals-e2", "betti-sum-bound", "g1-equals-e2-entrywise"],
)
def test_m_verdict_gates_fire_under_optimize(monkeypatch, tmp_path, patch, gate):
    # setting each name to itself makes monkeypatch restore what exec rebinds
    for name in ("g_pages", "betti_real"):
        monkeypatch.setattr(analysis, name, getattr(analysis, name))
    exec(patch, {"analysis": analysis})
    with pytest.raises(CrossCheckFailed, match=f"^{re.escape(gate)}$"):
        analysis.m_verdict(projective_space_fan(2))
    script = "\n".join([
        "import sys",
        "from realtoric import analysis, cli",
        'assert False, "unreachable: python -O strips assert statements"',
        patch,
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "compute", "--json", str(FANS / "p2.json")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"realtoric compute: cross-check failed: {gate}\n"


# the degree-0 power of the first degree-2 projection flipped to zero: the
# real side never reads it, and the E side, whose only gate is d o d, finds
# d_1 o d_2 != 0 in its q = 0 row complex
FLIP_ONE_EXTERIOR_POWER = """
import sys
import realtoric.cli, realtoric.spectral
assert False, "unreachable: python -O strips assert statements"
powers = realtoric.spectral.exterior_powers
flipped = []
def corrupted(m):
    out = powers(m)
    if m.ncols == 2 and not flipped:
        flipped.append(m)
        out[0].rows[0] ^= 1
    return out
realtoric.spectral.exterior_powers = corrupted
sys.exit(realtoric.cli.main(sys.argv[1:]))
"""


def test_e_side_d_o_d_gate_fires_under_optimize(monkeypatch, tmp_path):
    gate = "d o d != 0 between degrees 2 and 0"
    fan = projective_space_fan(2)
    first = spectral._projection_groups(fan)[2][0][0]
    powers = spectral.exterior_powers

    def corrupted(m):
        out = powers(m)
        if m is first:
            out[0].rows[0] ^= 1
        return out

    monkeypatch.setattr(spectral, "exterior_powers", corrupted)
    with pytest.raises(CrossCheckFailed, match=f"^{gate}$"):
        spectral.e2_dims(fan)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FLIP_ONE_EXTERIOR_POWER,
         "compute", "--json", str(FANS / "p2.json")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"realtoric compute: cross-check failed: {gate}\n"
