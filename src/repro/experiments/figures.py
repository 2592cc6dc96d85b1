"""Figure 2 and Figure 3 experiments: the traps, run and audited.

* :func:`figure3_experiment` — the Theorem 5.1 construction (Figure 3):
  one robot, any algorithm, the oscillation adversary. Reports the
  confinement window, the visited set, and the recurrence audit of the
  realized evolving graph (every edge recurrent, or exactly one
  eventually missing).
* :func:`figure2_experiment` — the Theorem 4.1 construction (Figure 2):
  two robots starting on ``u`` and ``v``, the four-phase adversary.
  Additionally reports whether the literal proof script sufficed or the
  greedy fallback was engaged (see
  :class:`repro.adversary.phase_trap.TheoremPhaseTrap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adversary.oscillation import OscillationTrap
from repro.adversary.phase_trap import TheoremPhaseTrap
from repro.analysis.exploration import exploration_report
from repro.analysis.recurrence import RecurrenceReport, recurrence_report
from repro.graph.topology import RingTopology
from repro.robots.algorithms.base import Algorithm
from repro.sim.engine import run_fsync
from repro.sim.trace import ExecutionTrace
from repro.types import Chirality, NodeId


@dataclass(frozen=True)
class Figure3Outcome:
    """Result of one Figure 3 (single-robot trap) run."""

    algorithm_name: str
    n: int
    rounds: int
    window: tuple[NodeId, NodeId]
    visited: frozenset[NodeId]
    confined: bool
    recurrence: RecurrenceReport
    trace: ExecutionTrace

    @property
    def starved_count(self) -> int:
        """Number of never-visited nodes (n - 2 when fully confined)."""
        return self.n - len(self.visited)

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"fig3[{self.algorithm_name} n={self.n}]: visited "
            f"{sorted(self.visited)} of {self.n} nodes over {self.rounds} rounds; "
            f"confined={self.confined}; {self.recurrence.render()}"
        )


def figure3_experiment(
    algorithm: Algorithm,
    n: int,
    rounds: int = 1000,
    start: NodeId = 0,
    chirality: Chirality = Chirality.AGREE,
) -> Figure3Outcome:
    """Run the oscillation trap against a single-robot algorithm."""
    topology = RingTopology(n)
    # Anchored on the start node up front, as the trap would anchor on
    # its first round, so a 0-round run still has its window.
    trap = OscillationTrap(topology, window_anchor=start)
    result = run_fsync(
        topology,
        trap,
        algorithm,
        positions=[start],
        rounds=rounds,
        chiralities=[chirality],
    )
    trace = result.trace
    assert trace is not None
    report = exploration_report(trace)
    window = trap.window
    assert window is not None
    return Figure3Outcome(
        algorithm_name=algorithm.name,
        n=n,
        rounds=rounds,
        window=window,
        visited=report.visited,
        confined=report.visited <= set(window),
        recurrence=recurrence_report(trace.recorded_graph()),
        trace=trace,
    )


@dataclass(frozen=True)
class Figure2Outcome:
    """Result of one Figure 2 (two-robot phase trap) run."""

    algorithm_name: str
    n: int
    rounds: int
    window: tuple[NodeId, NodeId, NodeId]
    visited: frozenset[NodeId]
    confined: bool
    used_fallback: bool
    phase_advances: int
    recurrence: RecurrenceReport
    trace: ExecutionTrace

    @property
    def starved_count(self) -> int:
        """Number of never-visited nodes (n - 3 when fully confined)."""
        return self.n - len(self.visited)

    def summary(self) -> str:
        """One-line human summary."""
        mode = "fallback" if self.used_fallback else "literal script"
        return (
            f"fig2[{self.algorithm_name} n={self.n}]: visited "
            f"{sorted(self.visited)} of {self.n} nodes over {self.rounds} rounds "
            f"({mode}, {self.phase_advances} phase advances); "
            f"confined={self.confined}; {self.recurrence.render()}"
        )


def figure2_experiment(
    algorithm: Algorithm,
    n: int,
    rounds: int = 1000,
    anchor: NodeId = 0,
    chiralities: Optional[Sequence[Chirality]] = None,
    patience: int = 64,
) -> Figure2Outcome:
    """Run the four-phase trap against a two-robot algorithm.

    Robots start on ``u = anchor`` and ``v = anchor + 1`` as in the
    theorem's initial configuration.
    """
    topology = RingTopology(n)
    trap = TheoremPhaseTrap(topology, anchor=anchor, patience=patience)
    u, v, _w = trap.window
    if chiralities is None:
        chiralities = (Chirality.AGREE, Chirality.AGREE)
    result = run_fsync(
        topology,
        trap,
        algorithm,
        positions=[u, v],
        rounds=rounds,
        chiralities=chiralities,
    )
    trace = result.trace
    assert trace is not None
    report = exploration_report(trace)
    return Figure2Outcome(
        algorithm_name=algorithm.name,
        n=n,
        rounds=rounds,
        window=trap.window,
        visited=report.visited,
        confined=report.visited <= set(trap.window),
        used_fallback=trap.used_fallback,
        phase_advances=trap.phase_advances,
        recurrence=recurrence_report(trace.recorded_graph()),
        trace=trace,
    )


__all__ = [
    "Figure3Outcome",
    "figure3_experiment",
    "Figure2Outcome",
    "figure2_experiment",
]
