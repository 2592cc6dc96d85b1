"""SSYNC: semi-synchronous executions and activation schedulers.

The paper restricts its own study to FSYNC because Di Luna et al. [10]
proved exploration of dynamic graphs impossible under SSYNC regardless of
other assumptions: the adversary "wakes up each robot independently and
removes the edge that the robot wants to traverse at this time". This
module supplies the SSYNC machinery needed to *demonstrate* that argument
against our concrete algorithms (experiment X2):

* an activation-scheduler protocol — who performs a full atomic
  Look–Compute–Move cycle this round (FSYNC is the everyone-always
  special case);
* :func:`run_ssync` — the run loop of :mod:`repro.sim.engine` under an
  activation scheduler; the round body is
  :func:`repro.sim.engine.step_ssync`, where inactive robots keep their
  state and position but remain visible to multiplicity detection;
* round-robin / explicit-list schedulers, plus adversarial ones living in
  :mod:`repro.adversary.ssync_blocker`.

Fairness note: SSYNC demands every robot be activated infinitely often;
the provided schedulers are fair by construction, and the blocker
adversary's power comes from *timing*, not starvation of activations.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro.errors import ScheduleError
from repro.graph.topology import Topology
from repro.robots.algorithms.base import Algorithm
from repro.sim.config import Observation
from repro.sim.engine import EdgeScheduler, RunResult, _run_rounds
from repro.sim.observers import Observer
from repro.types import Chirality, NodeId, RobotId


@runtime_checkable
class ActivationScheduler(Protocol):
    """Chooses which robots perform a full L-C-M cycle at each round."""

    def active_robots(self, t: int, observation: Observation) -> frozenset[RobotId]:
        """The robots activated at round ``t`` (non-empty; the run loop
        refuses an empty set)."""
        ...  # pragma: no cover - protocol


class EveryRobotActivation:
    """Activate everyone every round — SSYNC degenerates to FSYNC."""

    def active_robots(self, t: int, observation: Observation) -> frozenset[RobotId]:
        return frozenset(observation.configuration.robots)


class RoundRobinActivation:
    """Activate a single robot per round, cycling fairly through all."""

    def active_robots(self, t: int, observation: Observation) -> frozenset[RobotId]:
        k = observation.configuration.robot_count
        return frozenset({t % k})


class ListActivation:
    """Replay an explicit activation list, then repeat it (fair iff the
    list mentions every robot)."""

    def __init__(self, pattern: Sequence[Iterable[RobotId]]) -> None:
        if not pattern:
            raise ScheduleError("activation pattern must be non-empty")
        self._pattern = [frozenset(step) for step in pattern]

    def active_robots(self, t: int, observation: Observation) -> frozenset[RobotId]:
        return self._pattern[t % len(self._pattern)]


def run_ssync(
    topology: Topology,
    scheduler: EdgeScheduler,
    activations: ActivationScheduler,
    algorithm: Algorithm,
    positions: Sequence[NodeId],
    rounds: int,
    chiralities: Optional[Sequence[Chirality]] = None,
    observers: Iterable[Observer] = (),
    keep_trace: bool = True,
    require_well_initiated: bool = True,
) -> RunResult:
    """Run ``rounds`` semi-synchronous rounds (see :func:`run_fsync`).

    The same loop as :func:`~repro.sim.engine.run_fsync`, with
    ``activations`` choosing each round's active robots after the edge
    scheduler has chosen its edges; the result's
    :attr:`~repro.sim.engine.RunResult.activations` log records them.
    Colluding adversaries can coordinate by sharing state.
    """
    return _run_rounds(
        topology, scheduler, activations, algorithm, positions, rounds,
        chiralities, observers, keep_trace, require_well_initiated,
    )


__all__ = [
    "ActivationScheduler",
    "EveryRobotActivation",
    "RoundRobinActivation",
    "ListActivation",
    "run_ssync",
]
