"""Command-line front end.

Subcommands:
  compute           report Betti numbers, page tables, and the M-verdict
                    for a fan file
  reference-tables  rebuild the cyclic-polytope fan and check both of its
                    dimension tables against frozen reference values
  search            batch-certify seeded random fans of dimension <= 3
  gen               write fan JSON for the named constructions

Exit codes: 0 success, 1 usage error (also a `gen --out` path that cannot
be written), 2 fan validation error, 3 parse error, 4 self-check failure,
5 input exceeds a resource limit; `_EXITS` maps each failure to its code.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import TheoremViolation, dim3_theorem_batch, m_verdict
from .constructions import (
    _PROFILES,
    cyclic_polytope_normal_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    same_mod2_surface_fan,
    torus_fan,
    weighted_projective_fan,
)
from .fan import (
    Fan,
    ParseError,
    ResourceLimitExceeded,
    ValidationError,
    fan_to_json,
    read_json,
    write_json,
)
from .gf2 import CrossCheckFailed
from .spectral import (
    PageTable,
    betti_real,
    complex_position_of_real,
    e1_page,
    e2_dims,
    g_pages,
    real_position_of_complex,
)

__all__ = ["main", "EXPECTED_E2", "EXPECTED_G1"]

# frozen reference dimensions for the cyclic-polytope fan; the
# reference-tables command recomputes both tables and must match these
EXPECTED_E2: Dict[Tuple[int, int], int] = {
    (0, 0): 1,
    (1, 1): 1,
    (2, 1): 1,
    (2, 2): 6,
    (3, 1): 4,
    (3, 2): 17,
    (3, 3): 13,
    (4, 1): 5,
    (4, 2): 21,
    (4, 3): 27,
    (4, 4): 11,
    (5, 1): 1,
    (5, 2): 4,
    (5, 3): 6,
    (5, 4): 4,
    (5, 5): 1,
}
EXPECTED_G1: Dict[Tuple[int, int], int] = {
    (-5, 10): 1,
    (-4, 9): 4,
    (-4, 8): 11,
    (-3, 8): 6,
    (-3, 7): 27,
    (-2, 7): 4,
    (-3, 6): 13,
    (-2, 6): 21,
    (-1, 6): 1,
    (-2, 5): 17,
    (-1, 5): 5,
    (0, 5): 0,
    (-2, 4): 6,
    (-1, 4): 4,
    (0, 4): 0,
    (-1, 3): 1,
    (0, 3): 0,
    (-1, 2): 1,
    (0, 2): 0,
    (0, 1): 0,
    (0, 0): 1,
}

_PAGE_NAMES = ("e1", "e2", "g0", "g1")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Usage(Exception):
    """A usage error that argparse cannot see."""


class _Mismatch(Exception):
    """reference-tables found entries that differ from the frozen values."""


# The exit code and stderr message of each failure class, the first
# matching row winning: {cmd} is the subcommand, {exc} the exception.
_EXITS = (
    (_Usage, 1, "realtoric {cmd}: error: {exc}"),
    (ValidationError, 2, "validation error: {exc}"),
    (ParseError, 3, "parse error: {exc}"),
    (TheoremViolation, 4, "THEOREM VIOLATION: {exc}\nfan: {exc.fan_json}"),
    (CrossCheckFailed, 4, "realtoric {cmd}: cross-check failed: {exc}"),
    (_Mismatch, 4, "{exc}"),
    (ResourceLimitExceeded, 5, "realtoric {cmd}: resource limit: {exc}"),
)


def _pretty_page(table: PageTable, rank: int) -> List[str]:
    """A page as text: E pages on rows q = rank..0 and columns p = 0..rank,
    G pages on rows q = 2 rank..0 and columns p = -rank..0.  A cell is
    printed exactly where the table has an entry (an E table stores its
    triangle q <= p), then the flat listing and the total."""
    if table.label.startswith("G"):
        top, cols, label_width = 2 * rank, range(-rank, 1), 6
    else:
        top, cols, label_width = rank, range(rank + 1), 5
    width = max([len(str(d)) for d in table.entries.values()] + [1])
    first, last = f"p={cols[0]}", f"p={cols[-1]}"
    lines = [f"{table.label} page (rows q = {top}..0, columns p = {cols[0]}..{cols[-1]}):"]
    for q in range(top, -1, -1):
        label = f"q={q}" if q in (top, 0) else ""
        cells = [
            str(table.entries[(p, q)]).rjust(width) if (p, q) in table.entries else " " * width
            for p in cols
        ]
        lines.append(f"  {label:>{label_width}} | " + " | ".join(cells) + " |")
    pad = max(0, (width + 3) * rank - 1 - len(first))
    lines.append(f"  {'':>{label_width}}   {first}" + " " * pad + last)
    flat = ", ".join(f"({p},{q}):{d}" for p, q, d in table.triples())
    lines.append(f"  flat: {flat}")
    lines.append(f"  total: {table.total()}")
    return lines


def _compute_pages(fan: Fan, wanted: Sequence[str]) -> Dict[str, PageTable]:
    out: Dict[str, PageTable] = {}
    if "e1" in wanted:
        out["e1"] = e1_page(fan)
    if "e2" in wanted:
        out["e2"] = e2_dims(fan)
    if "g0" in wanted or "g1" in wanted:
        g0, g1 = g_pages(fan)
        if "g0" in wanted:
            out["g0"] = g0
        if "g1" in wanted:
            out["g1"] = g1
    return out


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": ")) + "\n"


def cmd_compute(args) -> None:
    wanted = [t for t in args.pages.split(",") if t] if args.pages else []
    for t in wanted:
        if t not in _PAGE_NAMES:
            raise _Usage(f"unknown page {t!r} (choose from {', '.join(_PAGE_NAMES)})")
    try:
        fan = read_json(args.path, validate_pairs=not args.no_validate)
    except OSError as exc:
        raise ParseError(f"cannot read {args.path}: {exc}") from exc
    if args.no_validate:
        print("realtoric compute: warning: pairs of cones were not validated", file=sys.stderr)
    b = betti_real(fan)
    verdict = m_verdict(fan)
    tables = _compute_pages(fan, wanted)
    if args.json:
        report = {
            "name": fan.name,
            "rank": fan.rank,
            "betti_real": b,
            "totals": {
                "sum_betti_real": verdict.sum_betti_real,
                "total_e2": verdict.total_e2,
                "total_g1": verdict.total_g1,
            },
            "verdict": {
                "status": verdict.status,
                "gap": verdict.gap,
                "notes": list(verdict.notes),
            },
        }
        for key, table in tables.items():
            report[key] = [[p, q, d] for p, q, d in table.triples()]
        sys.stdout.write(_canonical(report))
        return
    print(f"fan: {fan.name or '(unnamed)'}  rank {fan.rank}")
    print(f"betti_real (closed support): {b}")
    for key in ("e1", "e2", "g0", "g1"):
        if key in tables:
            for line in _pretty_page(tables[key], fan.rank):
                print(line)
    print(f"verdict: {verdict.status}  (gap {verdict.gap})")
    print(
        f"totals: sum betti_real {verdict.sum_betti_real}, "
        f"E2 {verdict.total_e2}, G1 {verdict.total_g1}"
    )
    for note in verdict.notes:
        print(f"  note: {note}")


def cmd_reference_tables(args) -> None:
    fan = cyclic_polytope_normal_fan()
    e2 = e2_dims(fan)
    _, g1 = g_pages(fan)
    for line in _pretty_page(e2, fan.rank):
        print(line)
    for line in _pretty_page(g1, fan.rank):
        print(line)
    mismatches = []
    for name, table, expected in (("E2", e2, EXPECTED_E2), ("G1", g1, EXPECTED_G1)):
        for p, q in sorted(table.entries.keys() | expected.keys()):
            got, want = table.get(p, q), expected.get((p, q), 0)
            if got != want:
                mismatches.append(f"{name}[{p},{q}] = {got}, expected {want}")
        if table.total() != 123:
            mismatches.append(f"{name} total {table.total()}, expected 123")
    if args.transpose_check:
        # one walk over the union of both supports, each pair named once
        support = g1.entries.keys() | {real_position_of_complex(p, q) for p, q in e2.entries}
        for p, q in sorted(support):
            ep, eq = complex_position_of_real(p, q)
            if g1.get(p, q) != e2.get(ep, eq):
                mismatches.append(
                    f"transpose: G1[{p},{q}] = {g1.get(p, q)} != "
                    f"E2[{ep},{eq}] = {e2.get(ep, eq)}"
                )
        print("transpose identity checked on the full support of both tables")
    if mismatches:
        raise _Mismatch("\n".join(f"MISMATCH: {m}" for m in mismatches))
    print(
        f"all table entries match the reference values; "
        f"totals {e2.total()} = {g1.total()}"
    )


def cmd_search(args) -> None:
    if args.count < 1:
        raise _Usage("--count must be >= 1")
    if args.dim < 1 or args.dim > 3:
        raise _Usage("--dim must be 1..3")
    profiles = _PROFILES if args.profile == "all" else (args.profile,)
    rep = dim3_theorem_batch(
        args.count,
        args.seed,
        ranks=tuple(range(1, args.dim + 1)),
        profiles=profiles,
    )
    print(f"checked {rep.count} fans (seed {rep.seed}): all CertifiedM")
    print(f"max gap: {rep.max_gap}")
    print(
        "per rank: "
        + ", ".join(f"{r}: {c}" for r, c in sorted(rep.per_rank.items()))
    )
    print(
        "per profile: "
        + ", ".join(f"{p}: {c}" for p, c in sorted(rep.per_profile.items()))
    )


def _gen_fan(name: str, params: Sequence[str]) -> Fan:
    def ints(expected: Optional[int] = None) -> List[int]:
        if expected is not None and len(params) != expected:
            raise _Usage(
                f"{name} takes {expected} integer parameter(s), "
                f"got {len(params)}"
            )
        try:
            return [int(x) for x in params]
        except ValueError:
            raise _Usage(f"{name} parameters must be integers: {params}")

    if name == "pn":
        return projective_space_fan(ints(1)[0])
    if name == "hirzebruch":
        return hirzebruch_fan(ints(1)[0])
    if name == "weighted":
        vals = ints()
        if len(vals) < 2:
            raise _Usage("weighted needs at least two weights")
        return weighted_projective_fan(*vals)
    if name == "torus":
        return torus_fan(ints(1)[0])
    if name == "cyclic57":
        if params:
            raise _Usage("cyclic57 takes no parameters")
        return cyclic_polytope_normal_fan()
    if name == "same-mod2":
        return same_mod2_surface_fan(ints(1)[0])
    if name == "product":
        if len(params) < 2:
            raise _Usage("product needs at least two factor tokens")
        factors = []
        for token in params:
            fname, _, fparams = token.partition(":")
            factors.append(
                _gen_fan(fname, fparams.split(",") if fparams else [])
            )
        fan = factors[0]
        for g in factors[1:]:
            fan = product_fan(fan, g)
        return fan
    raise _Usage(f"unknown construction {name!r}")


def cmd_gen(args) -> None:
    try:
        fan = _gen_fan(args.construction, args.params)
    except ValueError as exc:  # a construction's own parameter check
        raise ValidationError(str(exc)) from exc
    if args.out:
        try:
            write_json(fan, args.out)
        except OSError as exc:
            raise _Usage(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(fan_to_json(fan) + "\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process and reused by main."""
    parser = _Parser(prog="realtoric", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("compute", help="analyze a fan JSON file")
    c.add_argument("path", help="fan JSON file")
    fmt = c.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="canonical JSON report")
    fmt.add_argument(
        "--pretty", action="store_true", help="human-readable report (default)"
    )
    c.add_argument(
        "--pages",
        default="e2,g1",
        help="comma-separated page tables to include: e1,e2,g0,g1 (default e2,g1)",
    )
    c.add_argument(
        "--no-validate",
        action="store_true",
        help="skip pairwise cone-intersection validation",
    )
    c.set_defaults(func=cmd_compute)

    t = sub.add_parser(
        "reference-tables",
        help="recompute the cyclic-polytope dimension tables and compare "
        "against the frozen reference values",
    )
    t.add_argument(
        "--transpose-check",
        action="store_true",
        help="also verify the entrywise reindexing identity between the tables",
    )
    t.set_defaults(func=cmd_reference_tables)

    s = sub.add_parser(
        "search", help="batch-certify random fans of dimension <= 3"
    )
    s.add_argument("--dim", type=int, default=3, help="maximum rank (1..3)")
    s.add_argument("--count", type=int, default=100, help="number of fans")
    s.add_argument("--seed", type=int, default=0, help="base seed")
    s.add_argument(
        "--profile",
        default="all",
        choices=_PROFILES + ("all",),
        help="fan profile (default: cycle through all)",
    )
    s.set_defaults(func=cmd_search)

    g = sub.add_parser("gen", help="emit fan JSON for a named construction")
    g.add_argument(
        "construction",
        help="one of: pn N | hirzebruch A | weighted Q0 Q1 .. | torus N | "
        "cyclic57 | same-mod2 S | product TOKEN TOKEN.. "
        "(token: name:comma-params, e.g. pn:1)",
    )
    g.add_argument("params", nargs="*", help="construction parameters")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; its failures become an exit code and a stderr
    message by the first matching row of _EXITS."""
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        for cls, code, message in _EXITS:
            if isinstance(exc, cls):
                print(message.format(cmd=args.command, exc=exc), file=sys.stderr)
                return code
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
