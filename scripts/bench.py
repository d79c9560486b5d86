#!/usr/bin/env python3
"""Stage-by-stage timings of the pipeline on a fixed corpus of fans.

    python3 scripts/bench.py --side NAME --out BENCH_N.json
    python3 scripts/bench.py --side parent=CHECKOUT --side change=. --out BENCH_N.json

The corpus is cyclic57, p6, p7, p2xp2xp1, p1^6 and p1^7.  Each fan is
written once as canonical JSON; then, REPEATS (15) times per fan, a fresh
interpreter parses it and calls the public functions in pipeline order,
timing each:

  build            fan_from_json (cone geometry, face lattice, and
                   validation at rank <= 4)
  projections      _projection_groups: each cone's projection from the
                   build packed mod 2 and interned, one mod-2 section per
                   distinct packed projection, the face check of every
                   facet pair, one induced projection mod 2 per distinct
                   (projection, section) of its pairs, and the
                   surjectivity check of each distinct induced projection
  e1_e2            e2_dims (E1 assembly and its row homology); it also
                   pays the d o d signature walk, which runs first here
                   and which real_complex then reuses
  real_complex     betti_real: the y-basis blocks, placed by _place, each
                   row once and shifted into the real complex for each of
                   its facet pairs, the filtration and d o d gates, and the
                   one reduction of each boundary
  g_pages          g_pages: G0/G1 read from the pivots of that reduction
  m_verdict        m_verdict, whose pages are cached by then: the E2 = G1
                   cross-check and the verdict
  build_validated  fan_from_json(text, validate_pairs=True): the build
                   validated whatever the rank; every corpus fan is
                   complete, so this is the completeness rule and the
                   count of the cones whose interior holds one generic
                   point, with no pair loop (see fan._check_complete)

Each stage starts after a full garbage collection, so that a collection
the earlier stages made due is not charged to the stage that happens to
cross the threshold: on p1^7 one such collection (about 14 ms) fell into
build_validated.  Each stage is reported as its median over those runs,
in milliseconds; their total leaves out build_validated, a second build
of the same fan.
The script also times `python -m realtoric.cli compute --json FILE` as a
cold subprocess REPEATS times per fan (median), and records the number of
distinct induced projections per fan, the machine and the Python version.
Last, it times the rank <= 3 batch of 300 random fans,
`python -m realtoric.cli search --count 300 --seed 20098 --dim 3`, as a
cold subprocess REPEATS times (median).

Each --side NAME=CHECKOUT times the package in `src/` of that checkout;
a bare --side NAME means the checkout holding this script.  With two
sides, every repeat of every measurement runs once on each side, and the
order of the sides reverses from one repeat to the next, so that the
host's drift falls on both sides alike.  Each side's children share one
bytecode cache of their own, an empty PYTHONPYCACHEPREFIX directory under
the run's temporary directory, with PYTHONDONTWRITEBYTECODE dropped; one
untimed `import realtoric.cli` per side fills it before any timing, so
that no side gains from a `__pycache__` left in its checkout.  The
results are stored under `sides.NAME` of the output file; other sides
already in the file are kept.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = ("cyclic57", "p6", "p7", "p2xp2xp1", "p1^6", "p1^7")
STAGES = (
    "build", "projections", "e1_e2",
    "real_complex", "g_pages", "m_verdict", "build_validated",
)
REPEATS = 15
SEARCH = ("search", "--count", "300", "--seed", "20098", "--dim", "3")


def run_stages(path: str) -> dict:
    """Time the pipeline stages on the fan in `path`, in this process."""
    from realtoric.analysis import m_verdict
    from realtoric.fan import fan_from_json
    from realtoric.spectral import _projection_groups, betti_real, e2_dims, g_pages

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ms = {}
    gc.collect()
    t = time.perf_counter()
    fan = fan_from_json(text)
    ms["build"] = time.perf_counter() - t
    steps = (
        ("projections", lambda: _projection_groups(fan)),
        ("e1_e2", lambda: e2_dims(fan)),
        ("real_complex", lambda: betti_real(fan)),
        ("g_pages", lambda: g_pages(fan)),
        ("m_verdict", lambda: m_verdict(fan)),
        ("build_validated", lambda: fan_from_json(text, validate_pairs=True)),
    )
    for name, step in steps:
        gc.collect()
        t = time.perf_counter()
        step()
        ms[name] = time.perf_counter() - t
    return {
        "ms": {k: 1000 * v for k, v in ms.items()},
        "distinct_projections": sum(len(g) for g in _projection_groups(fan)),
        "facet_pairs": len(fan.facet_pairs()),
        "cones": len(fan.cones),
        "status": m_verdict(fan).status,
    }


def child_env(src: str, cache: str) -> dict:
    """The environment of one side's children: its package on the path and
    its own bytecode cache, written."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = src
    env["PYTHONPYCACHEPREFIX"] = cache
    return env


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def commit(checkout: str) -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def interleaved(sides, measure_once) -> dict:
    """REPEATS results of measure_once(env) for each side, keyed by side
    name; each repeat runs every side once, in reversed order on every
    other repeat."""
    out = {name: [] for name, _ in sides}
    for rep in range(REPEATS):
        for name, env in sides[::-1] if rep % 2 else sides:
            out[name].append(measure_once(env))
    return out


def cold_once(env: dict, args) -> float:
    """Wall time of one `python -m realtoric.cli ARGS` run, in ms."""
    t = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "realtoric.cli", *args],
        env=env, capture_output=True, check=True,
    )
    return 1000 * (time.perf_counter() - t)


def stages_once(env: dict, path: str) -> dict:
    """The stage timings of one fresh interpreter on the fan in `path`."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", path],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def median_ms(times) -> float:
    return round(statistics.median(times), 1)


def measure(sides, path: str) -> dict:
    """For each side, the stage medians of REPEATS fresh runs on the fan in
    `path`, and the median of as many cold `compute --json` subprocesses."""
    runs = interleaved(sides, lambda env: stages_once(env, path))
    colds = interleaved(sides, lambda env: cold_once(env, ("compute", "--json", path)))
    out = {}
    for name, _ in sides:
        stages = {s: median_ms(r["ms"][s] for r in runs[name]) for s in STAGES}
        first = runs[name][0]
        out[name] = {
            "stages_ms": stages,
            "stages_total_ms": round(sum(stages[s] for s in STAGES[:-1]), 1),
            "compute_json_ms": median_ms(colds[name]),
            "distinct_projections": first["distinct_projections"],
            "facet_pairs": first["facet_pairs"],
            "cones": first["cones"],
            "status": first["status"],
        }
    return out


def parse_side(text: str):
    """NAME=CHECKOUT, or NAME for the checkout holding this script, as
    (NAME, the checkout's absolute path)."""
    name, _, checkout = text.partition("=")
    return name, os.path.abspath(checkout or ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side", action="append", type=parse_side,
        help="NAME or NAME=CHECKOUT, once per checkout to time",
    )
    parser.add_argument("--out", help="JSON file to add the results to")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_stages(args.child)))
        return 0
    if not args.side or not args.out:
        parser.error("--side and --out are required")
    if len({name for name, _ in args.side}) != len(args.side):
        parser.error("the --side names must be distinct")
    # the corpus is built as perfbench builds its large fans
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    from inputs import build_fan
    from realtoric.fan import fan_to_json

    fans = {name: {} for name, _ in args.side}
    with tempfile.TemporaryDirectory() as tmp:
        sides = [
            (name, child_env(os.path.join(checkout, "src"), os.path.join(tmp, f"pycache{i}")))
            for i, (name, checkout) in enumerate(args.side)
        ]
        for _, env in sides:
            subprocess.run([sys.executable, "-c", "import realtoric.cli"], env=env, check=True)
        for i, label in enumerate(CORPUS):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(fan_to_json(build_fan(label)))
            for name, result in measure(sides, path).items():
                fans[name][label] = result
                print(label, name, json.dumps(result), file=sys.stderr)
        searches = interleaved(sides, lambda env: cold_once(env, SEARCH))
    data = {"corpus": list(CORPUS), "stages": list(STAGES), "sides": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    for name, checkout in args.side:
        search_ms = median_ms(searches[name])
        print("search", name, search_ms, file=sys.stderr)
        data["sides"][name] = {
            "commit": commit(checkout), "machine": machine(), "repeats": REPEATS,
            "interleaved_with": [other for other, _ in args.side if other != name],
            "fans": fans[name], "search_cmd": " ".join(SEARCH), "search_ms": search_ms,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
