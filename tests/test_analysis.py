"""Verdicts, closed-form oracles, batch certification, and rank-3 diagnostics."""
from __future__ import annotations

import json
import tracemalloc
from collections import Counter

import oracles
import pytest
from oracles import (
    Dim3KernelReport,
    Inapplicable,
    PreconditionFailed,
    betti_complex_nonsingular_complete,
    dim3_kernel_analysis,
    is_nonsingular,
    isolated_singularities_shape,
)

from realtoric import analysis
from realtoric.analysis import (
    BatchReport,
    NotComplete,
    TheoremViolation,
    WrongRank,
    dim3_theorem_batch,
    m_verdict,
    surface_betti_oracle,
)
from realtoric.constructions import (
    affine_fan,
    hirzebruch_fan,
    product_fan,
    projective_space_fan,
    random_fan,
    same_mod2_surface_fan,
    torus_fan,
    weighted_projective_fan,
)
from realtoric.fan import fan_to_json
from realtoric.spectral import betti_real


def test_m_verdict_certifies_projective_plane():
    v = m_verdict(projective_space_fan(2))
    assert v.status == "CertifiedM"
    assert (v.sum_betti_real, v.total_e2, v.total_g1, v.gap) == (3, 3, 3, 0)
    assert any("degenerate" in n for n in v.notes)
    assert any("chain" in n for n in v.notes)


def test_m_verdict_on_open_and_singular_examples():
    v = m_verdict(torus_fan(2))
    assert v.status == "CertifiedM" and v.total_e2 == 4
    v = m_verdict(weighted_projective_fan(1, 1, 2))
    assert v.status == "CertifiedM" and v.sum_betti_real == 3
    v = m_verdict(same_mod2_surface_fan(5))
    assert v.status == "CertifiedM" and v.sum_betti_real == 7


def test_m_verdict_invariants_on_a_thousand_generated_fans():
    # the generator only reaches rank <= 3, where certification is a theorem
    report = dim3_theorem_batch(1002, seed=31000)
    assert report.certified == 1002
    assert report.max_gap == 0
    assert sum(report.per_rank.values()) == 1002
    assert sum(report.per_profile.values()) == 1002


def test_surface_oracle_cases():
    rep = surface_betti_oracle(projective_space_fan(2))
    assert rep == rep.__class__(1, (1, 1, 1), (1, 0, 1, 0, 1))
    rep = surface_betti_oracle(hirzebruch_fan(3))
    assert rep.case == 1 and rep.betti_real == (1, 2, 1)
    rep = surface_betti_oracle(same_mod2_surface_fan(5))
    assert rep.case == 2
    assert rep.betti_real == (1, 4, 2)
    assert rep.betti_complex == (1, 0, 4, 1, 1)


def test_surface_oracle_agrees_with_homology():
    fans = [
        projective_space_fan(2),
        hirzebruch_fan(0),
        hirzebruch_fan(1),
        weighted_projective_fan(1, 1, 2),
        weighted_projective_fan(1, 1, 3),
        same_mod2_surface_fan(3),
        same_mod2_surface_fan(4),
        same_mod2_surface_fan(6),
    ]
    for fan in fans:
        rep = surface_betti_oracle(fan)
        assert tuple(betti_real(fan)) == rep.betti_real
        assert sum(rep.betti_complex) == m_verdict(fan).total_e2


def test_surface_oracle_rejections():
    with pytest.raises(WrongRank):
        surface_betti_oracle(projective_space_fan(3))
    with pytest.raises(NotComplete):
        surface_betti_oracle(affine_fan(2, [(1, 0), (0, 1)]))


def test_betti_complex_for_nonsingular_complete_fans():
    assert betti_complex_nonsingular_complete(projective_space_fan(2)) == [1, 0, 1, 0, 1]
    p1 = projective_space_fan(1)
    assert betti_complex_nonsingular_complete(product_fan(p1, p1)) == [1, 0, 2, 0, 1]
    assert betti_complex_nonsingular_complete(projective_space_fan(3)) == [
        1, 0, 1, 0, 1, 0, 1,
    ]
    assert betti_complex_nonsingular_complete(hirzebruch_fan(3)) == [1, 0, 2, 0, 1]


def test_betti_complex_rejections():
    with pytest.raises(Inapplicable):
        betti_complex_nonsingular_complete(weighted_projective_fan(1, 1, 2))
    with pytest.raises(Inapplicable):
        betti_complex_nonsingular_complete(affine_fan(1, [(1,)]))


def test_batch_tallies_and_rejections():
    rep = dim3_theorem_batch(12, seed=5)
    assert isinstance(rep, BatchReport)
    assert rep.certified == 12 and rep.max_gap == 0
    assert rep.per_rank == {1: 4, 2: 4, 3: 4}
    assert rep.per_profile == {"complete": 6, "subfan": 3, "affine": 3}
    with pytest.raises(ValueError):
        dim3_theorem_batch(0, seed=0)
    with pytest.raises(WrongRank):
        dim3_theorem_batch(3, seed=0, ranks=(4,))


def test_batch_rejects_empty_ranks_or_profiles(monkeypatch):
    # raised before any fan is built, as for count < 1
    monkeypatch.setattr(analysis, "_batch_case", lambda case: pytest.fail("a fan was built"))
    for empty in ({"ranks": ()}, {"profiles": ()}):
        with pytest.raises(ValueError, match="ranks and profiles non-empty"):
            dim3_theorem_batch(3, seed=1, **empty)


def test_batch_restricted_ranks_and_profiles():
    rep = dim3_theorem_batch(6, seed=9, ranks=(2,), profiles=("complete",))
    assert rep.per_rank == {2: 6}
    assert rep.per_profile == {"complete": 6}


def test_batch_runs_in_one_process(monkeypatch):
    assert dim3_theorem_batch(8, seed=77, workers=1) == dim3_theorem_batch(8, seed=77)
    # any other worker count is refused before any fan is built
    monkeypatch.setattr(analysis, "_batch_case", lambda case: pytest.fail("a fan was built"))
    for workers in (2, 0):
        with pytest.raises(ValueError, match="workers must be 1"):
            dim3_theorem_batch(8, seed=77, workers=workers)


def test_batch_rejects_an_unknown_profile_before_any_fan(monkeypatch):
    monkeypatch.setattr(analysis, "_batch_case", lambda case: pytest.fail("a fan was built"))
    with pytest.raises(ValueError, match="unknown profile 'bogus'"):
        dim3_theorem_batch(10, seed=0, profiles=("complete", "bogus"))


def test_batch_reads_no_worker_count_from_the_environment(monkeypatch):
    monkeypatch.delenv("TORHOM_THREADS", raising=False)
    unset = dim3_theorem_batch(6, seed=3)
    monkeypatch.setenv("TORHOM_THREADS", "4")
    assert dim3_theorem_batch(6, seed=3) == unset
    assert unset.certified == 6


def test_batch_memory_does_not_grow_with_the_count(monkeypatch):
    # the cases are generated one at a time, so a batch of a million fans
    # holds no list of a million cases before its first fan
    class FirstCase(Exception):
        pass

    def first_case(case):
        raise FirstCase(case)

    monkeypatch.setattr(analysis, "_batch_case", first_case)
    tracemalloc.start()
    try:
        with pytest.raises(FirstCase) as exc:
            dim3_theorem_batch(10**6, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.args == ((1, 0, "complete"),)
    assert peak < 10**6


def test_certified_batch_serializes_no_fan(monkeypatch):
    serialized = []
    monkeypatch.setattr(analysis, "fan_to_json", serialized.append)
    assert dim3_theorem_batch(12, seed=5).certified == 12
    assert serialized == []


def test_batch_violation_carries_the_failing_fan(monkeypatch):
    # case 4 of a batch from seed 100 is the rank-2 subfan of seed 104
    m_verdict = analysis.m_verdict

    def failing(fan):
        verdict = m_verdict(fan)
        if fan.name == "random-subfan-r2-s104":
            return verdict._replace(status="Inconclusive", gap=1)
        return verdict

    monkeypatch.setattr(analysis, "m_verdict", failing)
    with pytest.raises(TheoremViolation) as exc:
        dim3_theorem_batch(6, seed=100)
    assert exc.value.fan_json == fan_to_json(random_fan(2, 104, "subfan"))


def test_theorem_violation_carries_fan_json():
    exc = TheoremViolation("boom", '{"rank": 1}')
    assert json.loads(exc.fan_json) == {"rank": 1}


def test_isolated_singularities_shape_on_pyramid(pyramid_fan):
    assert isolated_singularities_shape(pyramid_fan)
    assert not is_nonsingular(pyramid_fan)


def test_isolated_singularities_shape_on_nonsingular_fan():
    assert isolated_singularities_shape(projective_space_fan(3))


def test_isolated_singularities_shape_rejects_cube(cubefan):
    with pytest.raises(PreconditionFailed) as exc:
        isolated_singularities_shape(cubefan)
    assert len(exc.value.offenders) == 12
    for ci in exc.value.offenders:
        assert cubefan.cones[ci].dim == 2


def test_isolated_singularities_shape_needs_complete():
    with pytest.raises(PreconditionFailed):
        isolated_singularities_shape(affine_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_kernel_analysis_on_projective_space():
    rep = dim3_kernel_analysis(projective_space_fan(3))
    assert rep == Dim3KernelReport(
        has_codim2_cones=True,
        injective=True,
        kernel_dim=0,
        all_same_image=False,
        common_image=None,
        top_chain_kernel_dim=1,
        top_graded_kernel_dim=1,
        top_degeneration=True,
        note="q=1 differential out of the deepest column is injective; "
        "no dangerous higher differential",
    )
    assert rep.has_codim2_cones
    assert rep.injective is True
    assert rep.kernel_dim == 0
    assert rep.top_degeneration
    assert "injective" in rep.note


def test_kernel_analysis_on_pyramid(pyramid_fan):
    rep = dim3_kernel_analysis(pyramid_fan)
    assert rep == Dim3KernelReport(
        has_codim2_cones=True,
        injective=True,
        kernel_dim=0,
        all_same_image=False,
        common_image=None,
        top_chain_kernel_dim=1,
        top_graded_kernel_dim=1,
        top_degeneration=True,
        note="q=1 differential out of the deepest column is injective; "
        "no dangerous higher differential",
    )
    assert rep.injective is True
    assert rep.top_chain_kernel_dim == rep.top_graded_kernel_dim == 1


def test_kernel_analysis_on_cube(cubefan):
    rep = dim3_kernel_analysis(cubefan)
    assert rep == Dim3KernelReport(
        has_codim2_cones=True,
        injective=False,
        kernel_dim=1,
        all_same_image=True,
        common_image=(1, 1, 1),
        top_chain_kernel_dim=4,
        top_graded_kernel_dim=4,
        top_degeneration=True,
        note="all codimension-2 cones share one mod-2 image; the graded "
        "and unfiltered top kernels agree, so the dangerous differential vanishes",
    )
    assert rep.injective is False
    assert rep.kernel_dim == 1
    assert rep.all_same_image is True
    assert rep.common_image == (1, 1, 1)
    assert rep.top_chain_kernel_dim == rep.top_graded_kernel_dim == 4
    assert rep.top_degeneration
    assert "share one mod-2 image" in rep.note
    # the dangerous kernel does not break certification
    assert m_verdict(cubefan).status == "CertifiedM"
    assert betti_real(cubefan) == [1, 1, 10, 4]


def test_kernel_analysis_sees_a_pivot_across_levels(cubefan, monkeypatch):
    # no tested real complex has a pivot across levels, so move one (k, k)
    # pivot of the top boundary to (k + 1, k): its rank stays, and the graded
    # kernels now exceed the unfiltered one by that pivot
    real_complex = oracles.real_complex

    def across(fan):
        rc = real_complex(fan)
        top = Counter(rc.pivot_levels[2])
        top[1, 1] -= 1
        top[2, 1] += 1
        return rc._replace(pivot_levels=rc.pivot_levels[:2] + [top])

    monkeypatch.setattr(oracles, "real_complex", across)
    rep = dim3_kernel_analysis(cubefan)
    assert rep.top_chain_kernel_dim == 4
    assert rep.top_graded_kernel_dim == 5
    assert rep.top_degeneration is False
    assert rep.note == "graded and unfiltered top kernels differ"


def test_kernel_analysis_on_torus():
    rep = dim3_kernel_analysis(torus_fan(3))
    assert rep == Dim3KernelReport(
        has_codim2_cones=False,
        injective=None,
        kernel_dim=3,
        all_same_image=None,
        common_image=None,
        top_chain_kernel_dim=8,
        top_graded_kernel_dim=8,
        top_degeneration=True,
        note="no codimension-2 cones: the target vanishes and injectivity is moot",
    )
    assert not rep.has_codim2_cones
    assert rep.injective is None
    assert rep.top_degeneration
    assert "no codimension-2 cones" in rep.note


def test_kernel_analysis_wrong_rank():
    with pytest.raises(WrongRank):
        dim3_kernel_analysis(projective_space_fan(2))


def test_kernel_analysis_on_random_complete_fans():
    for seed in range(6):
        fan = random_fan(3, 400 + seed, "complete")
        rep = dim3_kernel_analysis(fan)
        assert rep.top_degeneration
        if rep.injective is False:
            assert rep.all_same_image
