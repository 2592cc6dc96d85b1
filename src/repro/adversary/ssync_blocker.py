"""The SSYNC freeze argument of Di Luna et al. [10] (experiment X2).

The paper restricts itself to FSYNC because of this related-work result:
under SSYNC, exploration of dynamic graphs is impossible *regardless of
every other assumption*. "The proof of this result relies on the
possibility offered to the adversary to wake up each robot independently
and to remove the edge that the robot wants to traverse at this time"
(paper, Section 1).

:class:`SsyncBlocker` is that adversary, playing both roles at once:

* as an **activation scheduler** it wakes exactly one robot per round,
  round-robin (fair: every robot is activated infinitely often);
* as an **edge scheduler** it presents every edge *except* what is needed
  to keep the activated robot still — it searches the (at most four)
  presence combinations of the robot's two adjacent edges for the
  fullest one under which the robot's Look–Compute–Move cycle ends where
  it started.

No robot ever moves, so only the k < n initial nodes are ever visited and
perpetual exploration fails. Every edge not adjacent to the activated
robot is present every round, and each adjacent edge is re-presented
whenever another robot's turn comes, so every edge is present infinitely
often: the realized evolving graph is connected-over-time (in fact its
*snapshot* graphs are almost always complete rings). This defeats even
``PEF_3+`` with k >= 3 — synchrony, not robot count, is the broken leg.

Requires k >= 2: with a single robot SSYNC degenerates to FSYNC and the
trap of Theorem 5.1 (:class:`~repro.adversary.oscillation.OscillationTrap`)
applies instead.
"""

from __future__ import annotations

from repro.adversary.base import RecurrenceLedger
from repro.errors import ConfigurationError, TopologyError
from repro.graph.topology import Topology
from repro.sim.config import Observation
from repro.sim.engine import step_ssync
from repro.types import EdgeId, GlobalDirection, RobotId


class SsyncBlocker:
    """Colluding activation + edge adversary freezing every robot (SSYNC)."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self.ledger = RecurrenceLedger(topology)
        self.blocked_rounds = 0

    def active_robots(self, t: int, observation: Observation) -> frozenset[RobotId]:
        """Wake exactly one robot per round, cycling fairly."""
        k = observation.configuration.robot_count
        if k < 2:
            raise ConfigurationError(
                "the SSYNC blocker needs k >= 2 (with one robot SSYNC is FSYNC)"
            )
        return frozenset({t % k})

    def edges_at(self, t: int, observation: Observation) -> frozenset[EdgeId]:
        """Fullest edge set under which the activated robot stays put."""
        configuration = observation.configuration
        k = configuration.robot_count
        robot = t % k
        position = configuration.positions[robot]
        adjacent = [
            edge
            for edge in self._topology.incident_edges(position)
            if edge is not None
        ]
        # Try presence masks from fullest to emptiest; the empty mask always
        # freezes the robot (nothing to cross), so a choice always exists.
        candidates = sorted(
            range(1 << len(adjacent)),
            key=lambda mask: -bin(mask).count("1"),
        )
        for mask in candidates:
            removed = {
                adjacent[i] for i in range(len(adjacent)) if not mask >> i & 1
            }
            present = self._topology.all_edges - removed
            after, _views, moved = step_ssync(
                self._topology,
                observation.algorithm,
                configuration,
                present,
                frozenset({robot}),
            )
            if not moved[robot] and after.positions[robot] == position:
                if removed:
                    self.blocked_rounds += 1
                self.ledger.record(present)
                return present
        raise TopologyError("unreachable: the all-absent mask freezes any robot")


__all__ = ["SsyncBlocker"]
