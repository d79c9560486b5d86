"""Outside-in tracer for realtoric, kept in the benchmark's own files.

`Tracer.install()` replaces each public function listed in TARGETS by a
wrapper that records a span (trace id, name, start, end, parent) in
memory.  A function is replaced in every `realtoric` module that holds it,
so calls through a `from .x import y` re-binding are seen too; methods are
replaced on their class.  `uninstall()` puts the originals back.

Run as a script, this file is the traced child of the cli-compute
workload:

    python3 perfbench/tracer.py --out SUMMARY.json --spawned-at T [-- ARGV...]

It notes when the interpreter reached its first line and how long
`import realtoric.cli` took, traces `realtoric.cli.main(ARGV)` if ARGV is
given, and writes the timings and spans to SUMMARY.json.  T is the parent's
`time.perf_counter()` just before it started the child; both processes
read the same monotonic clock.
"""
import sys
import time

_STARTED_AT = time.perf_counter()
if __name__ == "__main__":
    # timed before anything else is imported, so that the standard-library
    # modules realtoric needs are paid for here
    import realtoric.cli

    _IMPORT_S = time.perf_counter() - _STARTED_AT

import gzip
import importlib
import json
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (metric name, module, attribute): a dotted attribute names a method
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("gf2.rank", "realtoric.gf2", "Mat2.rank"),
    ("gf2.submatrix", "realtoric.gf2", "Mat2.submatrix"),
    ("gf2.matmul", "realtoric.gf2", "Mat2.__matmul__"),
    ("gf2.exterior_power", "realtoric.gf2", "exterior_power"),
    ("gf2.assemble_blocks", "realtoric.gf2", "assemble_blocks"),
    ("gf2.chain_complex", "realtoric.gf2", "ChainComplex.__init__"),
    ("spectral.real_complex", "realtoric.spectral", "real_complex"),
    ("spectral.e1_page", "realtoric.spectral", "e1_page"),
    ("spectral.g_pages", "realtoric.spectral", "g_pages"),
    ("spectral.e2_dims", "realtoric.spectral", "e2_dims"),
    ("spectral.betti_real", "realtoric.spectral", "betti_real"),
    ("fan.from_maximal_cones", "realtoric.fan", "from_maximal_cones"),
    ("intlin.quotient_with_section", "realtoric.intlin", "quotient_with_section"),
    ("intlin.determinant", "realtoric.intlin", "determinant"),
    ("intlin.lin_rank", "realtoric.intlin", "lin_rank"),
    ("orbitalg.orbit_lattice", "realtoric.orbitalg", "orbit_lattice"),
    ("orbitalg.induced_projection_mod2", "realtoric.orbitalg", "induced_projection_mod2"),
    ("orbitalg.group_algebra_map", "realtoric.orbitalg", "group_algebra_map"),
    ("orbitalg.y_basis_change", "realtoric.orbitalg", "y_basis_change"),
    ("analysis.m_verdict", "realtoric.analysis", "m_verdict"),
    ("constructions.random_fan", "realtoric.constructions", "random_fan"),
    ("cli.main", "realtoric.cli", "main"),
)

MODULES = tuple(dict.fromkeys(t[0].split(".")[0] for t in TARGETS))


class Tracer:
    """Spans and counters of one traced run, held in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = [t[0] for t in TARGETS]
        self.trace_id = array("l")
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = {}
        self.current_trace = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._orbit_seen: Dict[Tuple[int, int], Tuple[object, object]] = {}

    # -- recording -------------------------------------------------------

    def begin_trace(self) -> None:
        """Give the spans that follow a new trace id (one per fan)."""
        self.current_trace += 1

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_rank(self, args, result) -> None:
        m = args[0]
        self._count("gf2.rank.cells", m.nrows * m.ncols)

    def _after_from_maximal_cones(self, args, result) -> None:
        self._count("fan.cones_built", len(result.cones))

    def _after_orbit_lattice(self, args, result) -> None:
        # a hit is a call that hands back the very object an earlier call
        # with the same (fan, cone) returned, however the program caches
        fan, ci = args[0], args[1]
        key = (id(fan), ci)
        seen = self._orbit_seen.get(key)
        if seen is not None and seen[1] is result:
            self._count("orbitalg.orbit_lattice.hits")
        else:
            self._orbit_seen[key] = (fan, result)

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        nid = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter
        trace_id, name_id, parent = self.trace_id, self.name_id, self.parent
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            trace_id.append(self.current_trace)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "gf2.rank": self._after_rank,
            "fan.from_maximal_cones": self._after_from_maximal_cones,
            "orbitalg.orbit_lattice": self._after_orbit_lattice,
        }
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(last) if owner is not None else None
            if orig is None:
                # a renamed function must not stop the run; its layer reads 0
                print(f"tracer: {modname}.{attr} not found, {name} untraced", file=sys.stderr)
                continue
            wrapped = self._wrap(name, orig, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, last, wrapped)
                continue
            for modname2, mod in list(sys.modules.items()):
                if modname2 != "realtoric" and not modname2.startswith("realtoric."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        self._orbit_seen.clear()

    # -- merging and summarising -----------------------------------------

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "trace_id": self.trace_id.tolist(),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": self.counters,
        }

    def merge(self, data: dict, trace: int) -> None:
        """Append the spans of a child process as trace `trace`."""
        assert data["names"] == self.names
        base = len(self.start)
        n = len(data["start"])
        self.trace_id.extend([trace] * n)
        self.name_id.extend(data["name_id"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        for key, value in data["counters"].items():
            self._count(key, value)

    def self_times(self) -> Tuple[List[int], List[float]]:
        """Calls and self time per name.  Self time is a span's duration
        minus the durations of its child spans, which never overlap."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(len(start)):
            dur = end[i] - start[i]
            nid = name_id[i]
            calls[nid] += 1
            self_s[nid] += dur
            p = parent[i]
            if p >= 0:
                self_s[name_id[p]] -= dur
        return calls, self_s

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line:
        trace, name, parent index, start, end (seconds)."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("trace\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.trace_id[i]}\t{names[self.name_id[i]]}\t"
                    f"{self.parent[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def _child(argv: List[str]) -> int:
    """Traced child process: see the module docstring."""
    out = argv[argv.index("--out") + 1]
    spawned_at = float(argv[argv.index("--spawned-at") + 1])
    cli_argv = argv[argv.index("--") + 1:] if "--" in argv else []
    tracer = Tracer()
    code = 0
    if cli_argv:
        tracer.install()
        try:
            code = realtoric.cli.main(cli_argv)
        finally:
            tracer.uninstall()
        sys.stdout.flush()
    summary = tracer.to_dict()
    summary["interpreter_s"] = _STARTED_AT - spawned_at
    summary["import_s"] = _IMPORT_S
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
