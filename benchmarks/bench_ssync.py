"""Benchmark + artifact: the SSYNC impossibility demonstration (extension X2).

The related-work result the paper builds on ([10]): under semi-synchronous
scheduling, the colluding activation/edge adversary freezes *every*
algorithm — including PEF_3+ with k >= 3, which provably explores under
FSYNC. The artifact shows: zero nodes beyond the initial ones visited,
fair activations, every edge recurrent.

Since the scheduler-generic verification core, the same impossibility is
also *decided* exactly: ``test_packed_vs_object_ssync_sweep`` times an
SSYNC table sweep on both verification backends, asserts identical
tallies and the ≥10× packed-speedup floor, and appends its entries to
``benchmarks/results/BENCH_sweeps.json`` next to the FSYNC ones.
"""

from __future__ import annotations

import os

from repro.adversary.ssync_blocker import SsyncBlocker
from repro.analysis.recurrence import recurrence_report
from repro.graph.topology import RingTopology
from repro.robots.algorithms import PEF2, BounceOnBlocked, PEF3Plus
from repro.sim.semi_sync import run_ssync
from repro.verification.enumeration import sweep_spec
from repro.verification.sweeps import run_table_sweep
from repro.viz.tables import TextTable


def _run_sweep():
    table = TextTable(
        ["algorithm", "n", "k", "visited", "blocked rounds", "fair", "suspects"]
    )
    all_frozen = True
    cases = [
        (PEF3Plus(), 6, [0, 2, 4]),
        (PEF3Plus(), 8, [0, 3, 6]),
        (PEF2(), 6, [0, 3]),
        (BounceOnBlocked(), 6, [0, 2, 4]),
    ]
    for algorithm, n, positions in cases:
        ring = RingTopology(n)
        blocker = SsyncBlocker(ring)
        result = run_ssync(
            ring, blocker, blocker, algorithm, positions=positions, rounds=600
        )
        trace = result.trace
        assert trace is not None
        visited = trace.nodes_visited()
        all_frozen &= visited == frozenset(positions)
        report = recurrence_report(trace.recorded_graph())
        table.add_row(
            [
                algorithm.name,
                n,
                len(positions),
                sorted(visited),
                blocker.blocked_rounds,
                result.is_fair(),
                sorted(report.suspected_eventually_missing),
            ]
        )
    return table, all_frozen


def test_ssync_blocker_freezes_everything(benchmark, save_artifact) -> None:
    table, all_frozen = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    assert all_frozen
    save_artifact("ssync_blocker", table.render())


def test_packed_vs_object_ssync_sweep(
    timed_best_of, merge_bench_sweeps, save_artifact
) -> None:
    """Packed-vs-object SSYNC sweep entry, appended to BENCH_sweeps.json."""
    name = "two_robot_sampled_n4_ssync"

    def run(backend: str):
        return run_table_sweep(
            sweep_spec("two", 4, sample=128, scheduler="ssync"), backend=backend
        )

    object_result, object_seconds = timed_best_of(lambda: run("object"))
    packed_result, packed_seconds = timed_best_of(lambda: run("packed"))
    # Identical verdicts across backends stay a hard invariant under SSYNC.
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
    # Di Luna et al.: every sampled table loses under SSYNC.
    assert packed_result.all_trapped
    speedup = object_seconds / packed_seconds
    floor = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10"))
    assert speedup >= floor, (
        f"{name}: packed backend is only {speedup:.1f}x faster under SSYNC "
        f"(object {object_seconds:.3f}s, packed {packed_seconds:.3f}s; "
        f"floor {floor}x — set REPRO_BENCH_MIN_SPEEDUP to adjust)"
    )

    entries = []
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
    merge_bench_sweeps(entries)
    save_artifact(
        "ssync_enumeration_backends",
        f"{name}: object {object_seconds:.3f}s, packed {packed_seconds:.3f}s "
        f"— {speedup:.1f}x ({packed_result.trapped}/{packed_result.total} "
        f"trapped)",
    )
