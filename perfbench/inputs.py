"""Seeded inputs of the benchmark workloads.

The seed changes how each fan is written down, never which fan it is: it
relabels the rays, reorders the maximal cones and the rays within each
cone, and shuffles the order in which a pass visits the fans.  Every page
and verdict is invariant under that, so the expected report digests hold
for every seed.  On small-batch the seed picks the random fans themselves,
a new batch of 300 for each pass.

Run as a script, this file performs the set-up of one workload in a fresh
interpreter, as the benchmark times it:

    python3 perfbench/inputs.py WORKLOAD SEED OUTDIR

It imports realtoric, writes the workload's inputs to OUTDIR, and prints
the seconds that took as its last line.
"""
import sys
import time

_STARTED_AT = time.perf_counter()
if __name__ == "__main__":
    # realtoric is imported first, so that its import is timed cold
    import realtoric.cli  # noqa: F401

import json
import os
import random
from typing import Dict, List, Tuple

LARGE_FANS = ("cyclic57", "p6", "p7", "p2xp2xp1", "p1^6")

# rank of case i and its profile, in the order dim3_theorem_batch uses
BATCH_RANKS = (1, 2, 3)
BATCH_PROFILES = ("complete", "subfan", "affine")
BATCH_COUNT = 300
# pass 0 of --seed 0 is the ROADMAP's seed-20098 batch; each seed owns
# BATCHES_PER_SEED consecutive batches, so no two seeds share a fan
BATCH_BASE_SEED = 20098
BATCHES_PER_SEED = 1000


def relabel(fan: dict, rng: random.Random) -> dict:
    """The same fan with rays renumbered and cones reordered."""
    n = len(fan["rays"])
    perm = list(range(n))
    rng.shuffle(perm)  # old index i becomes perm[i]
    rays: List[list] = [[]] * n
    for old, new in enumerate(perm):
        rays[new] = list(fan["rays"][old])
    cones = []
    for cone in fan["maximal_cones"]:
        mapped = [perm[i] for i in cone]
        rng.shuffle(mapped)
        cones.append(mapped)
    rng.shuffle(cones)
    out = {"rank": fan["rank"], "rays": rays, "maximal_cones": cones}
    if fan.get("name") is not None:
        out["name"] = fan["name"]
    return out


def projective_factors(label: str) -> Tuple[int, ...]:
    """The n of each factor P^n of a product named like p2xp2xp1 or p1^6."""
    factors: List[int] = []
    for token in label.split("x"):
        base, _, power = token.partition("^")
        if not (base[:1] == "p" and base[1:].isdigit() and (power.isdigit() or not power)):
            raise ValueError(f"{label!r} is not a product of projective spaces")
        factors += [int(base[1:])] * int(power or 1)
    return tuple(factors)


def build_fan(label: str):
    """cyclic57, or a product of projective spaces such as p7 or p1^6,
    built by realtoric.constructions."""
    from realtoric.constructions import (
        cyclic_polytope_normal_fan,
        product_fan,
        projective_space_fan,
    )

    if label == "cyclic57":
        return cyclic_polytope_normal_fan()
    factors = projective_factors(label)
    fan = projective_space_fan(factors[0])
    for n in factors[1:]:
        fan = product_fan(fan, projective_space_fan(n))
    return fan


def batch_cases(seed: int, k: int) -> List[Tuple[int, int, str]]:
    """The (rank, seed, profile) cases of dim3_theorem_batch(300, s) for
    the batch of pass k.  Each pass takes new fans, so that one run
    averages over many batches: a single batch's cost depends on its few
    large rank-3 fans."""
    base = BATCH_BASE_SEED + (seed * BATCHES_PER_SEED + k) * BATCH_COUNT
    return [
        (
            BATCH_RANKS[i % len(BATCH_RANKS)],
            base + i,
            BATCH_PROFILES[(i // len(BATCH_RANKS)) % len(BATCH_PROFILES)],
        )
        for i in range(BATCH_COUNT)
    ]


def _write_fans(fans: Dict[str, dict], seed: int, outdir: str) -> List[dict]:
    rng = random.Random(f"relabel:{seed}")
    order = sorted(fans)
    rng.shuffle(order)
    manifest = []
    for i, label in enumerate(order):
        path = os.path.join(outdir, f"{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(relabel(fans[label], rng), fh)
        manifest.append({"label": label, "path": path})
    return manifest


def generate(workload: str, seed: int, outdir: str, root: str) -> None:
    """Write the inputs of `workload` and a manifest.json listing them."""
    from realtoric.fan import fan_to_json

    os.makedirs(outdir, exist_ok=True)
    if workload == "large-fans":
        fans = {
            label: json.loads(fan_to_json(build_fan(label)))
            for label in LARGE_FANS
        }
        manifest = _write_fans(fans, seed, outdir)
    elif workload == "cli-compute":
        fans_dir = os.path.join(root, "fans")
        fans = {}
        for name in sorted(os.listdir(fans_dir)):
            if name.endswith(".json"):
                with open(os.path.join(fans_dir, name), encoding="utf-8") as fh:
                    fans[name] = json.load(fh)
        if not fans:
            raise FileNotFoundError(f"no fan files in {fans_dir}")
        manifest = _write_fans(fans, seed, outdir)
    elif workload == "small-batch":
        manifest = []  # the batches are made per pass from the seed
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    generate(workload, seed, outdir, root)
    print(time.perf_counter() - _STARTED_AT)
