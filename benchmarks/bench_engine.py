"""Micro-benchmarks: engine and solver throughput (extension X5).

These are the only calibrated-timing benchmarks in the harness (the rest
are one-shot experiment regenerations); they track the cost of a round
and of a solver state, guarding against performance regressions in the
simulation core.
"""

from __future__ import annotations

from repro.graph.schedules import BernoulliSchedule, StaticSchedule
from repro.graph.topology import RingTopology
from repro.robots.algorithms import PEF2, PEF3Plus
from repro.sim.engine import run_fsync
from repro.verification.game import verify_exploration
from repro.verification.product import ProductSystem
from repro.types import AGREE


def test_engine_static_ring16_k3(benchmark) -> None:
    ring = RingTopology(16)
    sched = StaticSchedule(ring)

    def run():
        return run_fsync(
            ring, sched, PEF3Plus(), positions=[0, 5, 10], rounds=1000,
            keep_trace=False,
        )

    result = benchmark(run)
    assert result.rounds == 1000


def test_engine_random_ring32_k5(benchmark) -> None:
    ring = RingTopology(32)
    sched = BernoulliSchedule(ring, p=0.6, seed=1)

    def run():
        return run_fsync(
            ring,
            sched,
            PEF3Plus(),
            positions=[0, 6, 12, 18, 24],
            rounds=500,
            keep_trace=False,
        )

    result = benchmark(run)
    assert result.rounds == 500


def test_engine_with_trace_and_observers(benchmark) -> None:
    from repro.sim.observers import TowerLogger, VisitTracker

    ring = RingTopology(12)
    sched = BernoulliSchedule(ring, p=0.5, seed=2)

    def run():
        return run_fsync(
            ring,
            sched,
            PEF3Plus(),
            positions=[0, 4, 8],
            rounds=400,
            observers=[VisitTracker(), TowerLogger()],
        )

    result = benchmark(run)
    assert result.trace is not None


def test_engine_oracle_reachability_ring4_k2(benchmark) -> None:
    """Times the engine oracle: ``ProductSystem.reachable`` steps the
    engine once per transition (the packed kernel is timed through the
    solver benchmarks)."""
    ring = RingTopology(4)

    def run():
        system = ProductSystem(ring, PEF2(), (AGREE, AGREE))
        return system.reachable()

    graph = benchmark(run)
    assert len(graph) > 0


def test_solver_verdict_ring4_k3(benchmark) -> None:
    ring = RingTopology(4)

    def run():
        return verify_exploration(PEF3Plus(), ring, k=3)

    verdict = benchmark.pedantic(run, rounds=1, iterations=1)
    assert verdict.explorable


def test_solver_trap_synthesis_ring5_k2(benchmark) -> None:
    ring = RingTopology(5)

    def run():
        return verify_exploration(PEF2(), ring, k=2)

    verdict = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not verdict.explorable
