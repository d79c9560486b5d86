"""Self-tests of the benchmark: seeded inputs, output checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

run.require_source()


def make_workload(name, seed, tmp_path, expected=None):
    outdir = str(tmp_path / f"{name}-{seed}")
    inputs.generate(name, seed, outdir, run.ROOT)
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return run.WORKLOAD_CLASSES[name](manifest, expected or run.load_expected(), outdir, seed)


def report_digests(work):
    """Check every fan of one pass and return its report digests by label."""
    out = {}
    for item in work.items:
        result = work.compute(item)
        work.check(item, result)
        out[item["label"]] = hashlib.sha256(result[1].encode()).hexdigest()
    return out


def input_bytes(work):
    blobs = []
    for item in work.items:
        with open(item["path"], "rb") as fh:
            blobs.append(fh.read())
    return blobs


@pytest.mark.parametrize("name", ["large-fans", "cli-compute"])
def test_two_seeds_give_other_inputs_and_the_same_reports(name, tmp_path):
    a = make_workload(name, 1, tmp_path)
    b = make_workload(name, 2, tmp_path)
    assert sorted(input_bytes(a)) != sorted(input_bytes(b))
    assert [i["label"] for i in a.items] != [i["label"] for i in b.items]
    assert report_digests(a) == report_digests(b)


def test_small_batch_certifies_every_fan_under_two_seeds(tmp_path):
    for seed in (0, 7):
        work = make_workload("small-batch", seed, tmp_path)
        tally = run.Tally()
        run.run_passes(work, 0, tally)
        assert (tally.attempted, tally.failed) == (300, 0)
    assert inputs.batch_cases(0, 0)[0] == (1, 20098, "complete")
    seeds = [{c[1] for c in inputs.batch_cases(s, k)} for s, k in ((0, 0), (0, 1), (7, 0))]
    assert not (seeds[0] & seeds[1]) and not (seeds[0] & seeds[2])


def test_a_corrupted_digest_counts_as_a_failure(tmp_path):
    expected = run.load_expected()
    expected["large-fans"]["cyclic57"] = "0" * 64
    work = make_workload("large-fans", 3, tmp_path, expected)
    work.items = [i for i in work.items if i["label"] in ("cyclic57", "p2xp2xp1")]
    tally = run.Tally()
    run.run_passes(work, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_kunneth_check_rejects_a_wrong_betti_vector():
    report = {
        "betti_real": [1, 2, 1],
        "totals": {"sum_betti_real": 4, "total_e2": 4, "total_g1": 4},
        "verdict": {"status": "CertifiedM"},
    }
    run.check_kunneth(report, (1, 1))
    report["betti_real"] = [1, 1, 1]
    with pytest.raises(run.CheckFailed):
        run.check_kunneth(report, (1, 1))


def test_tracer_sees_rebound_functions_and_restores_them(tmp_path):
    import realtoric.analysis
    import realtoric.spectral

    original = realtoric.spectral.betti_real
    work = make_workload("large-fans", 4, tmp_path)
    work.items = [i for i in work.items if i["label"] == "cyclic57"]
    tr = tracing.Tracer()
    work.trace_on(tr)
    try:
        report_digests(work)
    finally:
        work.trace_off()
    assert realtoric.analysis.betti_real is original
    calls, self_s = tr.self_times()
    count = dict(zip(tr.names, calls))
    assert count["spectral.real_complex"] == 4
    assert count["spectral.e1_page"] == 3
    assert count["spectral.betti_real"] == 2  # one of them through analysis
    assert count["cli.main"] == 1
    assert all(s >= -1e-6 for s in self_s)
