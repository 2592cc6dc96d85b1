"""Benchmark + artifact: exhaustive algorithm-class sweeps (rows R2/R4).

* All 256 memoryless single-robot algorithms on the 3-ring: every one
  trapped (a finite-domain discharge of Theorem 5.1's universal
  quantifier over this class).
* A 4096-table sample of the 65536 memoryless two-robot algorithms on the
  4-ring: every one trapped (Theorem 4.1).
  Set ``REPRO_FULL_SWEEP=1`` to sweep all 65536 (seconds on the packed
  backend).
* ``test_packed_vs_object_backends`` — the perf-tracking entry: times the
  same sweeps on both verification backends, asserts identical verdict
  counts and a ≥10× packed speedup, and snapshots the numbers to
  ``benchmarks/results/BENCH_sweeps.json`` so future PRs can track the
  trajectory.
* ``test_vector_vs_packed_solver`` — the same perf-tracking contract one
  tier up: the dense NumPy solver vs the scalar packed kernel on the
  Theorem 4.1 sweep, ≥10× with bit-identical tallies, merged into the
  same snapshot.
* ``test_campaign_smallest_family`` — the campaign-runner smoke: runs the
  smallest ``highly-dynamic`` registry scenario end to end through the
  persistent store, asserts every table trapped and a repeat run is a
  pure cache hit. (The smallest scenario overall is a simulation family,
  whose concrete schedules legitimately have explorers.)

Sweep workloads are read from the scenario registry
(:mod:`repro.scenarios`) rather than hand-rolled, so the benchmarks and
the campaign CLI name identical work.
"""

from __future__ import annotations

import os

import pytest

from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    get_scenario,
    iter_scenarios,
)
from repro.verification.enumeration import sweep_spec
from repro.verification.sweeps import run_table_sweep


def test_single_robot_exhaustive(benchmark, save_artifact) -> None:
    spec = get_scenario("thm51-single-n3")
    result = benchmark.pedantic(
        run_table_sweep, args=(sweep_spec("single", spec.n),), rounds=1,
        iterations=1,
    )
    assert result.all_trapped
    assert result.total == spec.table_count == 256
    save_artifact("enumeration_1robot", result.summary())


def test_single_robot_exhaustive_ring4(benchmark, save_artifact) -> None:
    result = benchmark.pedantic(
        run_table_sweep, args=(sweep_spec("single", 4),), rounds=1,
        iterations=1,
    )
    assert result.all_trapped
    save_artifact("enumeration_1robot_ring4", result.summary())


def test_two_robot_sweep(benchmark, save_artifact) -> None:
    spec = get_scenario("thm41-two-n4")
    full = os.environ.get("REPRO_FULL_SWEEP") == "1"
    sample = None if full else 4096

    def run():
        return run_table_sweep(sweep_spec("two", spec.n, sample=sample))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.all_trapped
    save_artifact("enumeration_2robot", result.summary())


def test_campaign_smallest_family(benchmark, tmp_path, save_artifact) -> None:
    """Campaign-runner smoke over the smallest registered solver scenario."""
    spec = min(
        (s for s in iter_scenarios() if s.dynamics == "highly-dynamic"),
        key=lambda s: (s.table_count, s.name),
    )
    runner = CampaignRunner(ResultStore(tmp_path / "campaigns"), jobs=1)
    outcome = benchmark.pedantic(
        lambda: runner.run(spec), rounds=1, iterations=1
    )
    assert outcome.status.complete
    assert outcome.status.all_trapped
    # Dedup contract: a repeat campaign re-verifies nothing and re-emits
    # the identical report bytes.
    rerun = runner.run(spec)
    assert rerun.chunks_run == 0
    assert rerun.chunks_cached == outcome.status.chunks_total
    assert rerun.report_path is not None
    # status.summary() (not outcome.summary()): the artifact must be
    # machine-independent, and the outcome line embeds the tmp store path.
    save_artifact("campaign_smoke", outcome.status.summary())


def test_packed_vs_object_backends(
    timed_best_of, merge_bench_sweeps, save_artifact
) -> None:
    """Packed-vs-object comparison; emits the BENCH_sweeps.json snapshot.

    Each case's per-table graphs are large enough that the kernels, not
    the per-table fixed cost, dominate the packed time (a single robot's
    ring graph is a few dozen states at any size)."""
    cases = [
        (
            "two_robot_m2_sampled_n4",
            lambda backend: run_table_sweep(
                sweep_spec("two-m2", 4, sample=32), backend=backend
            ),
        ),
        (
            "two_robot_sampled_n4",
            lambda backend: run_table_sweep(
                sweep_spec("two", 4, sample=256), backend=backend
            ),
        ),
    ]
    entries = []
    lines = []
    for name, run in cases:
        object_result, object_seconds = timed_best_of(lambda: run("object"))
        packed_result, packed_seconds = timed_best_of(lambda: run("packed"))
        # Identical verdicts are a hard invariant, not a benchmark detail.
        assert (
            object_result.total,
            object_result.trapped,
            object_result.explorers,
            object_result.states_explored,
        ) == (
            packed_result.total,
            packed_result.trapped,
            packed_result.explorers,
            packed_result.states_explored,
        )
        speedup = object_seconds / packed_seconds
        for backend, result, seconds in (
            ("object", object_result, object_seconds),
            ("packed", packed_result, packed_seconds),
        ):
            entries.append(
                {
                    "sweep": name,
                    "backend": backend,
                    "n": result.n,
                    "k": result.k,
                    "total": result.total,
                    "trapped": result.trapped,
                    "states_explored": result.states_explored,
                    "seconds": round(seconds, 4),
                    "states_per_sec": round(result.states_explored / seconds),
                }
            )
        entries.append({"sweep": name, "speedup": round(speedup, 1)})
        lines.append(
            f"{name}: object {object_seconds:.3f}s, packed {packed_seconds:.3f}s "
            f"— {speedup:.1f}x ({packed_result.trapped}/{packed_result.total} "
            f"trapped)"
        )
        # ≥10× is the PR's measured floor on an idle core; override on
        # contended/instrumented runners rather than tolerating flakes.
        floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10"))
        assert speedup >= floor, (
            f"{name}: packed backend is only {speedup:.1f}x faster "
            f"(object {object_seconds:.3f}s, packed {packed_seconds:.3f}s; "
            f"floor {floor}x — set REPRO_BENCH_MIN_SPEEDUP to adjust)"
        )
    merge_bench_sweeps(entries)
    save_artifact("enumeration_backends", "\n".join(lines))


def test_vector_vs_packed_solver(
    timed_best_of, merge_bench_sweeps, save_artifact
) -> None:
    """Vector-vs-packed *solver* comparison; extends BENCH_sweeps.json.

    The tentpole claim of the dense solver: the Theorem 4.1 two-robot
    sweep runs ≥10× faster in NumPy lockstep than per-table on the
    packed kernel, with bit-identical tallies. A 16384-table sample by
    default (the full 65536 under ``REPRO_FULL_SWEEP=1``) keeps the
    scalar side of the comparison to seconds.
    """
    from repro.verification.batch import have_numpy

    if not have_numpy():
        pytest.skip("numpy not installed (vector backend unavailable)")
    spec = get_scenario("thm41-two-n4")
    full = os.environ.get("REPRO_FULL_SWEEP") == "1"
    sample = None if full else 16384
    name = "two_robot_solver_sampled_n4" if not full else "two_robot_solver_full_n4"

    def run(backend: str):
        return run_table_sweep(
            sweep_spec("two", spec.n, sample=sample), backend=backend, jobs=1
        )

    packed_result, packed_seconds = timed_best_of(lambda: run("packed"))
    vector_result, vector_seconds = timed_best_of(lambda: run("vector"))
    assert (
        packed_result.total,
        packed_result.trapped,
        packed_result.explorers,
        packed_result.states_explored,
    ) == (
        vector_result.total,
        vector_result.trapped,
        vector_result.explorers,
        vector_result.states_explored,
    )
    speedup = packed_seconds / vector_seconds
    entries = []
    for backend, result, seconds in (
        ("packed", packed_result, packed_seconds),
        ("vector", vector_result, vector_seconds),
    ):
        entries.append(
            {
                "sweep": name,
                "backend": backend,
                "n": result.n,
                "k": result.k,
                "total": result.total,
                "trapped": result.trapped,
                "states_explored": result.states_explored,
                "seconds": round(seconds, 4),
                "states_per_sec": round(result.states_explored / seconds),
            }
        )
    entries.append({"sweep": name, "speedup": round(speedup, 1)})
    line = (
        f"{name}: packed {packed_seconds:.3f}s, vector {vector_seconds:.3f}s "
        f"— {speedup:.1f}x ({vector_result.trapped}/{vector_result.total} "
        f"trapped)"
    )
    floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10"))
    assert speedup >= floor, (
        f"{name}: vector solver is only {speedup:.1f}x faster "
        f"(packed {packed_seconds:.3f}s, vector {vector_seconds:.3f}s; "
        f"floor {floor}x — set REPRO_BENCH_MIN_SPEEDUP to adjust)"
    )
    merge_bench_sweeps(entries)
    save_artifact("enumeration_solver_backends", line)
