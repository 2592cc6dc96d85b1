"""The product transition system explored by the game solver.

A *system state* is ``(positions, states)`` — chirality is fixed per
exploration (it never changes during an execution). The adversary's move
at a state is a present-edge set — under ``scheduler="ssync"`` paired
with a non-empty activated-robot set; the robots' deterministic response
is computed by :func:`repro.sim.engine.step_round` (the FSYNC body
:func:`~repro.sim.engine.step_fsync`, respectively the SSYNC body
:func:`~repro.sim.engine.step_ssync`), the same entry point the
simulators run, so solver and simulator can never disagree on semantics.

This module is the engine oracle and nothing else: every transition of
:meth:`ProductSystem.reachable` is one engine step, with no packed or
vector machinery underneath, so the chain engine oracle → object product
→ packed kernel (:mod:`repro.verification.kernel`) stays a chain of
independent checks. The game solver's ``object`` backend packs this
graph with the kernel's encoding into the canonical CSR form the packed
and vector backends build directly, and all three share one solve phase
(:mod:`repro.verification.game`).

Adversary-move reduction (soundness argument): only edges adjacent to an
*occupied* node can influence any robot's view or movement. Presenting a
non-adjacent edge never changes the successor state and only enlarges the
round's present set — which can only help the adversary's recurrence
budget. Hence every winning adversary play can be normalized, round by
round, to one that presents all non-adjacent edges; restricting the
enumerated moves to "absent set ⊆ edges adjacent to occupied nodes" loses
no winning strategy and no explorable verdict. This cuts the per-state
branching from ``2^m`` to at most ``2^(2k)``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.errors import VerificationError
from repro.graph.topology import (
    RingTopology,
    Topology,
    canonical_placements,
    towerless_placements,
)
from repro.robots.algorithms.base import Algorithm
from repro.sim.config import Configuration
from repro.sim.engine import step_round
from repro.types import Chirality, EdgeId, NodeId, RobotId
from repro.verification.compiled import check_scheduler

#: Transitions :meth:`ProductSystem.reachable` stores before it gives up.
#: Each one keeps an engine-built successor state, about 0.5 KB of heap
#: (``verify --backend object`` peaked at 0.97 GB RSS when 2 M stopped
#: it), so this bounds the oracle near 0.5 GB; the packed and vector
#: backends build the same graph in a few bytes per transition.
MAX_TRANSITIONS = 1_000_000

SysState = tuple[tuple[NodeId, ...], tuple[Hashable, ...]]
"""A product state: (robot positions, robot algorithm states)."""

SsyncMove = tuple[frozenset[EdgeId], frozenset[RobotId]]
"""An SSYNC adversary move: (present-edge set, activated-robot set)."""

Transition = tuple["frozenset[EdgeId] | SsyncMove", "SysState"]
"""An adversary move and the resulting state.

The move is a bare present-edge set under FSYNC and an
:data:`SsyncMove` pair under SSYNC."""


class ProductSystem:
    """Deterministic-robots / adversarial-edges product system.

    Parameters
    ----------
    topology, algorithm:
        The instance under verification; the algorithm must be
        finite-state (:attr:`Algorithm.is_finite_state`) and produce
        hashable states.
    chiralities:
        The fixed chirality vector of this exploration.
    max_states:
        Safety valve: exploration aborts (``VerificationError``) if the
        reachable set exceeds this bound, rather than consuming the
        machine.
    scheduler:
        ``"fsync"`` (default): every robot acts every round, moves are
        bare present-edge sets. ``"ssync"``: the adversary additionally
        activates a non-empty robot subset per round and moves are
        :data:`SsyncMove` pairs; fairness is the game solver's concern,
        not a per-move constraint.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        chiralities: Sequence[Chirality],
        max_states: int = 2_000_000,
        scheduler: str = "fsync",
    ) -> None:
        if not algorithm.is_finite_state:
            raise VerificationError(
                f"algorithm {algorithm.name!r} declares an infinite state space"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.chiralities = tuple(chiralities)
        self.k = len(self.chiralities)
        if self.k < 1:
            raise VerificationError("need at least one robot")
        self.max_states = max_states
        self.scheduler = check_scheduler(scheduler)
        self._moves_cache: dict[frozenset[NodeId], tuple[frozenset[EdgeId], ...]] = {}
        self._activation_sets: Optional[tuple[frozenset[RobotId], ...]] = None

    def activation_sets(self) -> tuple[frozenset[RobotId], ...]:
        """Every non-empty activated-robot subset, ascending bitmask order.

        The SSYNC activation axis of the adversary's move; the order
        matches the packed kernel's ``act`` loop so both backends emit
        per-state transitions identically. Cached: reachability consults
        it once per state and it depends only on ``k``.
        """
        if self._activation_sets is None:
            self._activation_sets = tuple(
                frozenset(
                    robot for robot in range(self.k) if act >> robot & 1
                )
                for act in range(1, 1 << self.k)
            )
        return self._activation_sets

    # ------------------------------------------------------------------
    # Adversary moves
    # ------------------------------------------------------------------
    def adversary_moves(self, positions: Sequence[NodeId]) -> tuple[frozenset[EdgeId], ...]:
        """All normalized present-edge choices at the given positions.

        Every returned set contains all edges not adjacent to an occupied
        node; the adjacent ("relevant") edges range over all subsets.
        """
        occupied = frozenset(positions)
        cached = self._moves_cache.get(occupied)
        if cached is not None:
            return cached
        relevant: list[EdgeId] = []
        seen: set[EdgeId] = set()
        for node in sorted(occupied):
            for edge in self.topology.incident_edges(node):
                if edge is not None and edge not in seen:
                    seen.add(edge)
                    relevant.append(edge)
        base = self.topology.all_edges - seen
        moves = []
        for mask in range(1 << len(relevant)):
            chosen = frozenset(
                relevant[i] for i in range(len(relevant)) if mask >> i & 1
            )
            moves.append(frozenset(base | chosen))
        result = tuple(moves)
        self._moves_cache[occupied] = result
        return result

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def step(
        self,
        state: SysState,
        present: frozenset[EdgeId],
        active: Optional[frozenset[RobotId]] = None,
    ) -> SysState:
        """The robots' deterministic response to one adversary move.

        ``active`` selects the robots performing their atomic L-C-M cycle
        this round (``None`` = everyone, the FSYNC round); either way the
        transition is the *simulator's* :func:`~repro.sim.engine.step_round`,
        keeping this path the semantics oracle.
        """
        positions, states = state
        configuration = Configuration(
            positions=positions, states=states, chiralities=self.chiralities
        )
        after, _views, _moved = step_round(
            self.topology, self.algorithm, configuration, present, active
        )
        return (after.positions, after.states)

    def transitions(self, state: SysState) -> Iterator[Transition]:
        """All (move, successor) pairs from ``state``."""
        if self.scheduler == "ssync":
            activations = self.activation_sets()
            for present in self.adversary_moves(state[0]):
                for active in activations:
                    yield (present, active), self.step(state, present, active)
            return
        for present in self.adversary_moves(state[0]):
            yield present, self.step(state, present)

    # ------------------------------------------------------------------
    # Initial states and reachability
    # ------------------------------------------------------------------
    def initial_states(
        self, placements: Optional[Iterable[Sequence[NodeId]]] = None
    ) -> list[SysState]:
        """Well-initiated start states (γ_0 candidates).

        Defaults to every towerless placement — reduced by ring rotation
        (robot 0 pinned at node 0) when the footprint is a ring, since the
        footprint and the algorithm are rotation-invariant. Robot states
        are the algorithm's initial state (``dir = LEFT``), as the model
        prescribes.
        """
        if placements is None:
            if isinstance(self.topology, RingTopology):
                placements = canonical_placements(self.topology, self.k)
            else:
                placements = towerless_placements(self.topology, self.k)
        initial = self.algorithm.initial_state()
        self.algorithm.check_state(initial)
        states = (initial,) * self.k
        return [(tuple(p), states) for p in placements]

    def reachable(
        self, seeds: Optional[Iterable[SysState]] = None
    ) -> dict[SysState, list[Transition]]:
        """The reachable labeled transition graph from the seeds.

        Returns a dict mapping every reachable state to its outgoing
        (move, successor) list. Raises :class:`VerificationError` when the
        state count exceeds :attr:`max_states` or the transition count
        :data:`MAX_TRANSITIONS`. Every transition is one :meth:`step` of
        the engine.
        """
        if seeds is None:
            seeds = self.initial_states()
        graph: dict[SysState, list[Transition]] = {}
        frontier: list[SysState] = []
        for seed in seeds:
            if seed not in graph:
                graph[seed] = []
                frontier.append(seed)
        stored = 0
        while frontier:
            state = frontier.pop()
            out = graph[state]
            for present, successor in self.transitions(state):
                out.append((present, successor))
                stored += 1
                if stored > MAX_TRANSITIONS:
                    raise VerificationError(
                        f"the engine-stepped graph of {self.algorithm.name!r} "
                        f"on {self.topology!r} passes {MAX_TRANSITIONS} "
                        "transitions; use backend='vector' or backend='packed'"
                    )
                if successor not in graph:
                    if len(graph) >= self.max_states:
                        raise VerificationError(
                            f"reachable state space exceeds {self.max_states} states "
                            f"for {self.algorithm.name!r} on {self.topology!r}"
                        )
                    graph[successor] = []
                    frontier.append(successor)
        return graph


__all__ = [
    "MAX_TRANSITIONS",
    "SysState",
    "SsyncMove",
    "Transition",
    "ProductSystem",
    "check_scheduler",
]
