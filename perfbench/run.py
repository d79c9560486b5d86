"""Benchmark of realtoric: end-to-end timings, and per-layer timings from a
separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probe FAN

Run it from the root of a source checkout; the package is imported from
`src/` and never needs installing.  Workloads (see BENCHMARK.json):

  large-fans   cyclic57, p6, p7, p2xp2xp1 and p1^6, each parsed from JSON and
               put through `compute --json --pages e1,e2,g0,g1` in-process
  small-batch  batches of 300 seeded random fans of rank <= 3, the cases
               of dim3_theorem_batch(300, s), one call per fan
  cli-compute  `python -m realtoric.cli compute --json FILE` as a
               subprocess for each of the committed fans/*.json

Each is a closed loop with one client: the next fan starts when the last
one is done.  A pass visits every fan of the workload once; the loop runs
whole passes, and starts another only if, at the mean pass time so far, it
would end less than half a pass after --seconds.  The seed relabels the
fans and the order of a pass (small-batch: picks the fans), see inputs.py.

With --trace 0 the last line of standard output is a JSON object whose
metrics are:

  setup_s           median over fresh interpreters (at least five, for at
                    least 2 s) of importing realtoric and writing the
                    workload's inputs
  analyze_s         wall time of one pass, as the mean over the run: the
                    time spent computing fans over the number of passes
  batch_fans_per_s  fans per pass over analyze_s: fans per second of the run
  compute_p50_ms    median over the fans of the workload of the wall time
                    of computing one, each fan taken at its mean over the
                    run (small-batch: each fan is computed once)
  compute_p90_ms    90th percentile of the same
  peak_rss_mb       peak resident memory of the process doing the work
                    (cli-compute: of the largest child)

Every time above is scaled to a host of fixed speed.  The cores of a shared
host change speed by up to 45 % over minutes as other tenants come and go,
which no length of run averages out.  So the loop also times a fixed
reference computation, a GF(2) elimination written in this file, between
two fans, often enough that it takes about 4 % of the run, and scales each
time by REFERENCE_S over its mean time in the run: the time reads as on a
host where the reference takes REFERENCE_S.  The reference does not use
realtoric, so it costs the same on every commit.  The set-up runs it
before each fresh interpreter and is scaled by its own mean.  The run
record, printed before the result, holds the unscaled times and the scale.

With --trace 1 the first quarter of the time runs untraced passes and the
next half traced ones; the last quarter is left for summing the spans and
writing them out, so that a traced run takes about as long as an untraced
one.  The metrics are per fan and per layer, named
`<module>.<function>.calls` and `.self_s`, plus the counters documented in
per_layer_metrics().  A layer that a workload never enters reads 0.  The
spans are written to .perfbench_work/spans-WORKLOAD.tsv.gz.

Every output is checked: each report's sha256 against expected.json,
cyclic57 against its frozen E2/G1 tables, the products of projective
spaces against the Kunneth formula, every batch fan for CertifiedM.
An exception, a nonzero exit or a failed check counts in "failed".

--probe traces one fan that the timed workloads leave out, such as p1^7,
and prints its per-layer table; it is not timed against a bound.
"""
import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("large-fans", "small-batch", "cli-compute")
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_REFERENCES = 4
STARTUP_PROBES = 5
# the reference computation: a REFERENCE_BITS-square GF(2) matrix, the
# same for every seed
REFERENCE_BITS = 300
REFERENCE_ROWS = tuple(random.Random(20098).getrandbits(REFERENCE_BITS) for _ in range(REFERENCE_BITS))
# a round figure for its time on the host the bounds were set on (2-vCPU
# Xeon, Python 3.11.7), where it took 4-7 ms
REFERENCE_S = 0.005
# the reference runs again once this many times its last duration has
# gone by, so that it takes about 4 % of a run
REFERENCE_SPACING = 25

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402


class CheckFailed(Exception):
    """An output did not pass the benchmark's own checks."""


def child_env() -> Dict[str, str]:
    """Environment of every child: the source tree on PYTHONPATH, and no
    TORHOM_THREADS, so a user's shell cannot change the worker count."""
    env = dict(os.environ)
    env.pop("TORHOM_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- checks --------------------------------------------------------------


def check_digest(text: str, want: Optional[str], label: str) -> None:
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if got != want:
        raise CheckFailed(f"{label}: report digest {got} != expected {want}")


def check_cyclic57(report: dict, expected: dict) -> None:
    for page in ("e2", "g1"):
        want = {(p, q): d for p, q, d in expected[page]}
        got = {(p, q): d for p, q, d in report[page]}
        for key in set(want) | set(got):
            if got.get(key, 0) != want.get(key, 0):
                raise CheckFailed(
                    f"cyclic57 {page.upper()}{list(key)} = {got.get(key, 0)}, "
                    f"frozen table has {want.get(key, 0)}"
                )
        if sum(got.values()) != expected["total"]:
            raise CheckFailed(f"cyclic57 {page.upper()} total {sum(got.values())}")


def check_kunneth(report: dict, factors: Tuple[int, ...]) -> None:
    """A product of projective spaces P^n1 x ... : betti_real is the product
    of the polynomials 1 + t + ... + t^n, and every total is the number of
    maximal cones, the product of the (n + 1)."""
    betti = [1]
    cones = 1
    for n in factors:
        nxt = [0] * (len(betti) + n)
        for i, b in enumerate(betti):
            for j in range(n + 1):
                nxt[i + j] += b
        betti = nxt
        cones *= n + 1
    if report["betti_real"] != betti:
        raise CheckFailed(f"betti_real {report['betti_real']} != Kunneth {betti}")
    totals = report["totals"]
    for key in ("sum_betti_real", "total_e2", "total_g1"):
        if totals[key] != cones:
            raise CheckFailed(f"{key} = {totals[key]}, expected {cones} maximal cones")
    if report["verdict"]["status"] != "CertifiedM":
        raise CheckFailed(f"verdict {report['verdict']['status']}")


# -- workloads -----------------------------------------------------------


class Workload:
    """The fans of one workload and how to compute and check each."""

    name = ""

    def __init__(self, manifest: list, expected: dict, workdir: str, seed: int):
        self.items = manifest
        self.seed = seed
        self.expected = expected
        self.workdir = workdir
        self.tracer: Optional[tracing.Tracer] = None
        # (interpreter start, import) seconds of traced children
        self.startup: List[Tuple[float, float]] = []

    def pass_items(self, k: int) -> list:
        """The fans of pass k."""
        return self.items

    def compute(self, item: dict):
        """Compute one fan; the result goes to check()."""
        raise NotImplementedError

    def check(self, item: dict, result) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace_on(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer
        tracer.install()

    def trace_off(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None


class LargeFans(Workload):
    name = "large-fans"

    def __init__(self, *args):
        super().__init__(*args)
        import realtoric.cli

        self.cli = realtoric.cli

    def compute(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(
                ["compute", "--json", "--pages", "e1,e2,g0,g1", item["path"]]
            )
        return code, buf.getvalue()

    def check(self, item, result):
        code, text = result
        label = item["label"]
        if code != 0:
            raise CheckFailed(f"{label}: compute returned {code}")
        check_digest(text, self.expected["large-fans"].get(label), label)
        report = json.loads(text)
        if label == "cyclic57":
            check_cyclic57(report, self.expected["cyclic57"])
        else:
            check_kunneth(report, inputs.projective_factors(label))


class SmallBatch(Workload):
    name = "small-batch"

    def __init__(self, *args):
        super().__init__(*args)
        import realtoric.analysis

        self.analysis = realtoric.analysis

    def pass_items(self, k):
        return [
            {"rank": r, "seed": s, "profile": p}
            for r, s, p in inputs.batch_cases(self.seed, k)
        ]

    def compute(self, item):
        # case i of dim3_theorem_batch(300, s) is the only case of this call
        return self.analysis.dim3_theorem_batch(
            1,
            item["seed"],
            ranks=(item["rank"],),
            profiles=(item["profile"],),
            workers=1,
        )

    def check(self, item, result):
        if result.certified != 1:
            raise CheckFailed(f"case {item} not certified")


class CliCompute(Workload):
    name = "cli-compute"

    def __init__(self, *args):
        super().__init__(*args)
        self.env = child_env()
        self.peak_rss_kb = 0

    def trace_on(self, tracer):
        self.tracer = tracer  # the children trace themselves

    def trace_off(self):
        self.tracer = None

    def compute(self, item):
        argv = ["compute", "--json", item["path"]]
        summary = os.path.join(self.workdir, "child-trace.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "realtoric.cli"] + argv
        else:
            cmd = [
                sys.executable, os.path.join(HERE, "tracer.py"),
                "--out", summary, "--spawned-at", repr(time.perf_counter()), "--",
            ] + argv
        code, out, rss_kb = run_child(cmd, self.env, self.workdir)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if self.tracer is not None and code == 0:
            with open(summary, encoding="utf-8") as fh:
                data = json.load(fh)
            self.tracer.merge(data, self.tracer.current_trace)
            self.startup.append((data["interpreter_s"], data["import_s"]))
        return code, out

    def check(self, item, result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"{item['label']}: exit code {code}")
        check_digest(text, self.expected["cli-compute"].get(item["label"]), item["label"])

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024


WORKLOAD_CLASSES = {w.name: w for w in (LargeFans, SmallBatch, CliCompute)}


def run_child(cmd: List[str], env: Dict[str, str], workdir: str) -> Tuple[int, str, int]:
    """Run one child to its end; return its exit code, standard output and
    peak resident memory in KiB (from its own rusage, so other children
    of this process do not count)."""
    err_path = os.path.join(workdir, "child-stderr.txt")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read().decode("utf-8")
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
    return proc.returncode, out, usage.ru_maxrss


# -- the loop ------------------------------------------------------------


def gf2_reference_s() -> float:
    """Seconds one reduction of REFERENCE_ROWS to row echelon form takes:
    the same work in every run and on every commit, of the same kind as
    the program's own (Python loops over big-integer rows)."""
    t0 = time.perf_counter()
    rows = list(REFERENCE_ROWS)
    rank = 0
    for c in range(REFERENCE_BITS):
        bit = 1 << c
        for i in range(rank, REFERENCE_BITS):
            if rows[i] & bit:
                rows[rank], rows[i] = rows[i], rows[rank]
                break
        else:
            continue
        pivot = rows[rank]
        for i in range(REFERENCE_BITS):
            if i != rank and rows[i] & bit:
                rows[i] ^= pivot
        rank += 1
    return time.perf_counter() - t0


class Tally:
    """Timings and failures of the passes made so far."""

    def __init__(self) -> None:
        self.fan_s: List[float] = []
        self.fan_key: List[str] = []
        self.reference_s: List[float] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0


def run_passes(work: Workload, seconds: float, tally: Tally, on_op: Callable[[], None] = lambda: None) -> None:
    """At least one whole pass, then another while, at the mean pass time
    so far, it would end less than half a pass after `seconds`: the run
    takes `seconds` give or take half a pass.  The reference computation
    runs between the fans, so that it sees the host as they do."""
    began = time.perf_counter()
    reference_due = began
    for k in itertools.count():
        for item in work.pass_items(k):
            if time.perf_counter() >= reference_due:
                tally.reference_s.append(gf2_reference_s())
                reference_due = time.perf_counter() + REFERENCE_SPACING * tally.reference_s[-1]
            on_op()
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                result = work.compute(item)
                dt = time.perf_counter() - t0
                work.check(item, result)
            except Exception as exc:  # any failure counts, and the loop goes on
                dt = time.perf_counter() - t0
                tally.failed += 1
                print(f"FAILED {work.name} {item.get('label', item)}: {exc!r}", file=sys.stderr)
            tally.fan_s.append(dt)
            tally.fan_key.append(item.get("label") or json.dumps(item, sort_keys=True))
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / (k + 1) / 2 > seconds:
            tally.passes += k + 1
            return


def mean_pass(tally: Tally) -> float:
    """Time of one pass, as the mean over the passes of the run.  On a
    shared host the speed of a core drifts by 10-15 % from one pass to the
    next, with no rare outliers to discount, so the mean over the whole
    run is steadier than the median of a few passes."""
    return sum(tally.fan_s) / tally.passes


def host_scale(reference_s: List[float]) -> float:
    """Factor that turns a time measured alongside these reference times
    into one on a host where the reference takes REFERENCE_S."""
    return REFERENCE_S / statistics.mean(reference_s)


def fan_means(tally: Tally) -> List[float]:
    """Each fan's mean time over the run.  A fan of large-fans is computed
    only 6-9 times in a run, and the host's speed varies by 10-15 % from
    one to the next, so a percentile over single samples would follow the
    host more than the program."""
    by_fan: Dict[str, List[float]] = {}
    for key, dt in zip(tally.fan_key, tally.fan_s):
        by_fan.setdefault(key, []).append(dt)
    return [statistics.mean(v) for v in by_fan.values()]


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(setup_s: float, tally: Tally, work: Workload, scale: float) -> dict:
    """The metrics of an untraced run, its times multiplied by `scale`;
    `setup_s` is taken as given."""
    analyze_s = mean_pass(tally) * scale
    return {
        "setup_s": (setup_s, "s"),
        "analyze_s": (analyze_s, "s"),
        "batch_fans_per_s": (len(work.pass_items(0)) / analyze_s, "fans/s"),
        "compute_p50_ms": (quantile(fan_means(tally), 50) * 1000 * scale, "ms"),
        "compute_p90_ms": (quantile(fan_means(tally), 90) * 1000 * scale, "ms"),
        "peak_rss_mb": (work.peak_rss_mb(), "MB"),
    }


def per_layer_metrics(tr: tracing.Tracer, fans: int, startup: List[Tuple[float, float]], overhead: float) -> dict:
    """Per fan: calls and self time of every traced function, self time
    per module, and the counters:

      gf2.rank.cells                 sum of rows x cols over rank calls
      fan.cones_built                cones of every fan built
      orbitalg.orbit_lattice.hit_ratio  calls answered with an object an
                                     earlier call for that cone returned
      cli.interpreter_ms             child start to its first line (median)
      cli.import_ms                  `import realtoric.cli` in a fresh child
      trace.overhead_frac            traced over untraced pass time, minus 1
    """
    calls, self_s = tr.self_times()
    out = {}
    per_module = dict.fromkeys(tracing.MODULES, 0.0)
    for i, name in enumerate(tr.names):
        out[f"{name}.calls"] = (calls[i] / fans, "calls/fan")
        out[f"{name}.self_s"] = (self_s[i] / fans, "s/fan")
        per_module[name.split(".")[0]] += self_s[i] / fans
    for module, value in per_module.items():
        out[f"{module}.self_s"] = (value, "s/fan")
    c = tr.counters
    lattice_calls = calls[tr.names.index("orbitalg.orbit_lattice")]
    out["gf2.rank.cells"] = (c.get("gf2.rank.cells", 0) / fans, "cells/fan")
    out["fan.cones_built"] = (c.get("fan.cones_built", 0) / fans, "cones/fan")
    out["orbitalg.orbit_lattice.hit_ratio"] = (
        c.get("orbitalg.orbit_lattice.hits", 0) / lattice_calls if lattice_calls else 0.0,
        "fraction",
    )
    out["cli.interpreter_ms"] = (statistics.median(s[0] for s in startup) * 1000, "ms")
    out["cli.import_ms"] = (statistics.median(s[1] for s in startup) * 1000, "ms")
    out["trace.overhead_frac"] = (overhead, "fraction")
    return out


def startup_probes(workdir: str, count: int) -> List[Tuple[float, float]]:
    """Interpreter start and `import realtoric.cli` times of fresh children."""
    summary = os.path.join(workdir, "startup.json")
    out = []
    for _ in range(count):
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), "--out", summary,
               "--spawned-at", repr(time.perf_counter())]
        code, _, _ = run_child(cmd, child_env(), workdir)
        if code != 0:
            raise RuntimeError("start-up probe failed")
        with open(summary, encoding="utf-8") as fh:
            data = json.load(fh)
        out.append((data["interpreter_s"], data["import_s"]))
    return out


def setup(workload: str, seed: int, workdir: str) -> Tuple[float, List[float]]:
    """Set the workload up in fresh interpreters, at least
    SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS, and return the
    median time and the times of the reference computation, which runs
    SETUP_REFERENCES times before each; the inputs of the last one stay in
    workdir."""
    times: List[float] = []
    references: List[float] = []
    began = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - began < SETUP_MIN_SECONDS:
        references += [gf2_reference_s() for _ in range(SETUP_REFERENCES)]
        cmd = [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed), workdir]
        code, out, _ = run_child(cmd, child_env(), workdir)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} failed with exit code {code}")
        times.append(float(out.strip().splitlines()[-1]))
    return statistics.median(times), references


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "realtoric")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "first_batch_seed": inputs.batch_cases(seed, 0)[0][1] if workload == "small-batch" else None,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def require_source() -> None:
    """Fail unless realtoric is importable from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "realtoric", "__init__.py")):
        sys.exit(f"perfbench: no realtoric package under {SRC}")
    sys.path.insert(0, SRC)
    import realtoric

    if not os.path.abspath(realtoric.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: realtoric imported from {realtoric.__file__}, not {SRC}")


def benchmark(workload: str, seed: int, seconds: int, trace: int) -> Tuple[dict, dict]:
    """The result, and what the run saw of the host: its mean reference
    time, the scale applied to times, and (--trace 0) the unscaled times."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        setup_s, setup_references = setup(workload, seed, workdir)
        scaled_setup_s = setup_s * host_scale(setup_references)
        with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        work = WORKLOAD_CLASSES[workload](manifest, load_expected(), workdir, seed)
        tally = Tally()
        if not trace:
            run_passes(work, seconds, tally)
            metrics = end_to_end_metrics(scaled_setup_s, tally, work, host_scale(tally.reference_s))
        else:
            run_passes(work, seconds / 4, tally)
            untraced = mean_pass(tally) * host_scale(tally.reference_s)
            tr = tracing.Tracer()
            traced_tally = Tally()
            work.trace_on(tr)
            try:
                run_passes(work, seconds / 2, traced_tally, tr.begin_trace)
            finally:
                work.trace_off()
            tally.attempted += traced_tally.attempted
            tally.failed += traced_tally.failed
            overhead = mean_pass(traced_tally) * host_scale(traced_tally.reference_s) / untraced - 1
            startup = work.startup or startup_probes(workdir, STARTUP_PROBES)
            fans = len(traced_tally.fan_s)
            metrics = per_layer_metrics(tr, fans, startup, overhead)
            tr.write_spans(os.path.join(WORK, f"spans-{workload}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = {
        "reference_s": statistics.mean(tally.reference_s),
        "references": len(tally.reference_s),
        "scale": host_scale(tally.reference_s),
        "setup_scale": host_scale(setup_references),
    }
    if not trace:
        host["unscaled"] = {k: v for k, (v, _) in end_to_end_metrics(setup_s, tally, work, 1.0).items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, host


# -- probe ---------------------------------------------------------------


def probe(name: str) -> None:
    """Trace `compute --json --pages e1,e2,g0,g1` on one fan, untimed."""
    import realtoric.cli
    from realtoric.fan import write_json

    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "probe.json")
    if os.path.isfile(name):
        shutil.copyfile(name, path)
    else:
        try:
            fan = inputs.build_fan(name)
        except ValueError as exc:
            raise SystemExit(f"perfbench: cannot build {name!r}: {exc}")
        write_json(fan, path)
    tr = tracing.Tracer()
    tr.install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = realtoric.cli.main(["compute", "--json", "--pages", "e1,e2,g0,g1", path])
    finally:
        tr.uninstall()
    wall = time.perf_counter() - t0
    report = json.loads(buf.getvalue()) if code == 0 else {}
    tr.write_spans(os.path.join(WORK, "spans-probe.tsv.gz"))
    calls, self_s = tr.self_times()
    print(f"probe {name}: exit {code}, traced wall {wall:.3f} s, "
          f"verdict {report.get('verdict', {}).get('status')}, totals {report.get('totals')}")
    print(f"{'layer':36} {'calls':>9} {'self_s':>10} {'share':>7}")
    total = sum(self_s) or 1.0
    for i in sorted(range(len(tr.names)), key=lambda i: -self_s[i]):
        if calls[i]:
            print(f"{tr.names[i]:36} {calls[i]:9d} {self_s[i]:10.4f} {self_s[i] / total:7.1%}")
    print(json.dumps({"probe": name, "exit": code, "traced_wall_s": wall,
                      "layers": {n: {"calls": calls[i], "self_s": self_s[i]} for i, n in enumerate(tr.names)},
                      "counters": tr.counters}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="FAN", help="trace one fan (name or JSON file) and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.environ.pop("TORHOM_THREADS", None)
    require_source()
    if args.probe:
        probe(args.probe)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    result, host = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"run": record, "host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
