"""Top-level verdicts and theorem checkers.

The M-property certificate rests on a sandwich of exact counts: the
mod-2 Betti sum of the real points is bounded by the Betti sum of the
complex points, which in turn is bounded by the total dimension of the
second complex page; the latter always equals the total of the first
real filtered page.  Equality of the two ends certifies both that the
variety is maximal and that both spectral sequences degenerate.  An
Inconclusive verdict exhibits no counterexample: higher differentials
might still vanish for reasons the dimension count cannot see.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, NamedTuple, Sequence, Tuple

from .constructions import _PROFILES, random_fan
from .fan import Fan, fan_to_json
from .gf2 import CrossCheckFailed
from .spectral import betti_real, e2_dims, g_pages, real_position_of_complex

__all__ = [
    "AnalysisError",
    "WrongRank",
    "NotComplete",
    "TheoremViolation",
    "MVerdict",
    "m_verdict",
    "SurfaceReport",
    "surface_betti_oracle",
    "BatchReport",
    "dim3_theorem_batch",
]


class AnalysisError(Exception):
    pass


class WrongRank(AnalysisError):
    pass


class NotComplete(AnalysisError):
    pass


class TheoremViolation(AnalysisError):
    """A rank <= 3 fan failed certification.  The theorem guarantees the
    M-property there, so this signals an implementation bug; the fan is
    attached for reproduction."""

    def __init__(self, message: str, fan_json: str):
        super().__init__(message)
        self.fan_json = fan_json


class MVerdict(NamedTuple):
    status: str  # "CertifiedM" | "Inconclusive"
    sum_betti_real: int
    total_e2: int
    total_g1: int
    gap: int
    notes: Tuple[str, ...]


def m_verdict(fan: Fan) -> MVerdict:
    """Certify the M-property by the sandwich of totals, E2 = G1 checked entrywise.

    sum b(R) <= sum b(C) <= total E2 = total G1; equality of the outer
    terms forces equality throughout, certifying maximality and the
    degeneration of both spectral sequences at the computed pages.
    """
    b = betti_real(fan)
    sbr = sum(b)
    total_e2 = e2_dims(fan).total()
    _, g1 = g_pages(fan)
    total_g1 = g1.total()
    if total_g1 != total_e2:
        raise CrossCheckFailed(f"total G1 = {total_g1} != total E2 = {total_e2}")
    for (p, q), dim in sorted(e2_dims(fan).entries.items()):
        at = real_position_of_complex(p, q)
        if g1.get(*at) != dim:
            raise CrossCheckFailed(f"G1 at {at} = {g1.get(*at)} != E2 at {(p, q)} = {dim}")
    if sbr > total_g1:
        raise CrossCheckFailed(f"Betti sum {sbr} exceeds the page total {total_g1}")
    gap = total_e2 - sbr
    notes = [
        f"betti_real = {b}, sum = {sbr}",
        f"total E2 = {total_e2}, total G1 = {total_g1} (equal by the page comparison)",
        "chain: sum b(R) <= sum b(C) <= total E2 = total G1",
    ]
    if gap == 0:
        status = "CertifiedM"
        notes.append(
            "outer terms equal: M-property certified and both sequences "
            "degenerate at the computed pages"
        )
    else:
        status = "Inconclusive"
        notes.append(
            f"gap = {gap}; no counterexample exhibited - higher "
            "differentials might still vanish for other reasons"
        )
    return MVerdict(status, sbr, total_e2, total_g1, gap, tuple(notes))


class SurfaceReport(NamedTuple):
    case: int
    betti_real: Tuple[int, int, int]
    betti_complex: Tuple[int, int, int, int, int]


def surface_betti_oracle(fan: Fan) -> SurfaceReport:
    """Closed-form Betti numbers of a complete surface by the mod-2 ray
    dichotomy: case 1 when at least two primitive ray generators differ
    mod 2, case 2 when all s rays share one image."""
    if fan.rank != 2:
        raise WrongRank(f"surface oracle needs rank 2, got {fan.rank}")
    if not fan.is_complete():
        raise NotComplete("surface oracle needs a complete fan")
    s = len(fan.rays)
    images = {tuple(c & 1 for c in r) for r in fan.rays}
    if len(images) == 1:
        return SurfaceReport(2, (1, s - 1, 2), (1, 0, s - 1, 1, 1))
    return SurfaceReport(1, (1, s - 2, 1), (1, 0, s - 2, 0, 1))


def _batch_case(case: Tuple[int, int, str]) -> None:
    rank, seed, profile = case
    fan = random_fan(rank, seed, profile)
    verdict = m_verdict(fan)
    if rank == 2 and profile == "complete":
        # independent closed-form path for complete surfaces
        rep = surface_betti_oracle(fan)
        if rep.betti_real != tuple(betti_real(fan)):
            raise CrossCheckFailed(f"betti_real != surface closed form: {fan_to_json(fan)}")
        if sum(rep.betti_complex) != verdict.total_e2:
            raise CrossCheckFailed(f"total E2 != surface closed form: {fan_to_json(fan)}")
    if verdict.status != "CertifiedM":
        raise TheoremViolation(
            f"rank-{rank} {profile} fan not certified (gap {verdict.gap}); "
            "this contradicts the dimension <= 3 theorem and "
            "indicates an implementation bug",
            fan_to_json(fan),
        )


class BatchReport(NamedTuple):
    count: int
    seed: int
    certified: int
    max_gap: int
    per_rank: Dict[int, int]
    per_profile: Dict[str, int]


def dim3_theorem_batch(
    count: int,
    seed: int,
    *,
    ranks: Sequence[int] = (1, 2, 3),
    profiles: Sequence[str] = _PROFILES,
    workers: int = 1,
) -> BatchReport:
    """Generate `count` seeded random fans across the given ranks (all
    <= 3) and profiles and certify every one, in this process.

    Any non-certified verdict raises TheoremViolation carrying the fan's
    JSON: maximality is a theorem in dimension <= 3, so a failure here
    means a bug, not a finding.  The fans are built and checked one at a
    time, so memory does not grow with `count`; only a failing fan is
    serialized.  A returned report holds only CertifiedM fans, and
    `m_verdict` certifies exactly when the gap is 0, so `max_gap` is 0.
    """
    if count < 1 or not ranks or not profiles:
        raise ValueError("count must be >= 1, and ranks and profiles non-empty")
    if any(r not in (1, 2, 3) for r in ranks):
        raise WrongRank("batch ranks must be within 1..3")
    for profile in profiles:
        if profile not in _PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
    if workers != 1:
        raise ValueError("the batch runs in one process: workers must be 1")
    per_rank, per_profile = Counter(), Counter()
    for i in range(count):
        rank = ranks[i % len(ranks)]
        profile = profiles[(i // len(ranks)) % len(profiles)]
        _batch_case((rank, seed + i, profile))
        per_rank[rank] += 1
        per_profile[profile] += 1
    return BatchReport(count, seed, count, 0, dict(per_rank), dict(per_profile))
