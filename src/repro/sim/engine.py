"""The round engine: Look–Compute–Move rounds under FSYNC and SSYNC (§2.3).

A round has two bodies, side by side: :func:`step_fsync`, the fully
synchronous round, and :func:`step_ssync`, the same round applied to an
adversary-chosen set of robots (the semi-synchronous model of Di Luna et
al.). They stay two implementations, so the differential tests that
compare FSYNC with everyone-active SSYNC compare two bodies;
:func:`step_round` picks one (``active is None`` = FSYNC) and is the one
entry point every caller steps through — the run loop behind :func:`run_fsync` and
:func:`~repro.sim.semi_sync.run_ssync`, the exhaustive verifier's object
product (:mod:`repro.verification.product`) and the object simulator —
so a solver verdict and a simulator replay can never disagree about what
a round does.

Round ``t`` (from configuration ``γ_t`` on snapshot ``G_t``):

1. the edge scheduler fixes ``E_t`` — it may observe the full configuration
   (omniscient adaptive adversary) or ignore it (oblivious schedule);
2. **Look**: every robot perceives ``ExistsEdge(left)``,
   ``ExistsEdge(right)`` (local frame, via its chirality) and
   ``ExistsOtherRobotsOnCurrentNode()``, all on the same snapshot;
3. **Compute**: every robot's state is updated by the (uniform,
   deterministic) algorithm, synchronously;
4. **Move**: every robot crosses its pointed edge iff that edge is in
   ``E_t``; otherwise it stays.

Under SSYNC only the round's active robots Compute and Move; the others
keep their state and position but still count for multiplicity in the
Look.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ConfigurationError, ScheduleError
from repro.graph.topology import Topology
from repro.robots.algorithms.base import Algorithm
from repro.robots.state import RobotState
from repro.robots.view import LocalView
from repro.sim.config import Configuration, Observation, validate_initial_configuration
from repro.sim.observers import Observer
from repro.sim.trace import ExecutionTrace, RoundRecord
from repro.types import Chirality, EdgeId, GlobalDirection, NodeId, RobotId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.semi_sync import ActivationScheduler


@runtime_checkable
class EdgeScheduler(Protocol):
    """Anything that fixes the present-edge set of each round.

    Both oblivious :class:`~repro.graph.evolving.EvolvingGraph` schedules
    and adaptive :mod:`repro.adversary` constructions satisfy this.
    """

    def edges_at(self, t: int, observation: Observation) -> frozenset[EdgeId]:
        """The present-edge set ``E_t``, chosen before the robots Look."""
        ...  # pragma: no cover - protocol


def local_ports(
    topology: Topology, node: NodeId, chirality: Chirality
) -> tuple[Optional[EdgeId], Optional[EdgeId]]:
    """The (left, right) footprint ports of ``node`` in a robot's local frame.

    This is the one place the global CW/CCW ports are translated through a
    chirality into the robot-local left/right keying that
    :class:`~repro.robots.view.LocalView` uses. Both the Look phase below
    and the packed verification kernel's table builder
    (:mod:`repro.verification.kernel`) share it, so the two view encodings
    cannot drift apart.
    """
    cw_port = topology.port(node, GlobalDirection.CW)
    ccw_port = topology.port(node, GlobalDirection.CCW)
    if chirality is Chirality.AGREE:
        return ccw_port, cw_port
    return cw_port, ccw_port


def look(
    topology: Topology,
    configuration: Configuration,
    present: frozenset[EdgeId],
) -> tuple[LocalView, ...]:
    """The Look phase: every robot's local view on one shared snapshot."""
    occupancy = configuration.occupancy()
    views = []
    for robot in configuration.robots:
        position = configuration.positions[robot]
        chirality = configuration.chiralities[robot]
        left_port, right_port = local_ports(topology, position, chirality)
        views.append(
            LocalView(
                exists_edge_left=left_port is not None and left_port in present,
                exists_edge_right=right_port is not None and right_port in present,
                others_present=occupancy[position] >= 2,
            )
        )
    return tuple(views)


def step_fsync(
    topology: Topology,
    algorithm: Algorithm,
    configuration: Configuration,
    present: frozenset[EdgeId],
) -> tuple[Configuration, tuple[LocalView, ...], tuple[bool, ...]]:
    """One full synchronous round; returns (γ_{t+1}, views, moved flags).

    Pure: depends only on its arguments. This is the transition the
    exhaustive verifier explores.
    """
    views = look(topology, configuration, present)
    new_states: tuple[RobotState, ...] = tuple(
        algorithm.compute(configuration.states[robot], views[robot])
        for robot in configuration.robots
    )
    new_positions = []
    moved = []
    for robot in configuration.robots:
        position = configuration.positions[robot]
        chirality = configuration.chiralities[robot]
        global_dir = chirality.to_global(new_states[robot].dir)
        port = topology.port(position, global_dir)
        if port is not None and port in present:
            landing = topology.neighbor(position, global_dir)
            assert landing is not None  # a present edge always has a far side
            new_positions.append(landing)
            moved.append(True)
        else:
            new_positions.append(position)
            moved.append(False)
    after = Configuration(
        positions=tuple(new_positions),
        states=new_states,
        chiralities=configuration.chiralities,
    )
    return after, views, moved_tuple(moved)


def step_ssync(
    topology: Topology,
    algorithm: Algorithm,
    configuration: Configuration,
    present: frozenset[EdgeId],
    active: frozenset[RobotId],
) -> tuple[Configuration, tuple[LocalView, ...], tuple[bool, ...]]:
    """One semi-synchronous round: only ``active`` robots act, atomically.

    Views are computed on the shared snapshot exactly as in FSYNC —
    inactive robots still count for multiplicity detection. Inactive
    robots' states and positions are untouched.
    """
    views = look(topology, configuration, present)
    new_states = list(configuration.states)
    for robot in active:
        new_states[robot] = algorithm.compute(configuration.states[robot], views[robot])
    new_positions = list(configuration.positions)
    moved = [False] * configuration.robot_count
    for robot in active:
        position = configuration.positions[robot]
        chirality = configuration.chiralities[robot]
        global_dir = chirality.to_global(new_states[robot].dir)
        port = topology.port(position, global_dir)
        if port is not None and port in present:
            landing = topology.neighbor(position, global_dir)
            assert landing is not None
            new_positions[robot] = landing
            moved[robot] = True
    after = Configuration(
        positions=tuple(new_positions),
        states=tuple(new_states),
        chiralities=configuration.chiralities,
    )
    return after, views, moved_tuple(moved)


def step_round(
    topology: Topology,
    algorithm: Algorithm,
    configuration: Configuration,
    present: frozenset[EdgeId],
    active: Optional[frozenset[RobotId]] = None,
) -> tuple[Configuration, tuple[LocalView, ...], tuple[bool, ...]]:
    """One round: :func:`step_fsync` when ``active is None``, else
    :func:`step_ssync` over the ``active`` robots."""
    if active is None:
        return step_fsync(topology, algorithm, configuration, present)
    return step_ssync(topology, algorithm, configuration, present, active)


def moved_tuple(moved: Sequence[bool]) -> tuple[bool, ...]:
    """Normalize movement flags to a tuple (micro-helper for callers)."""
    return tuple(bool(m) for m in moved)


@dataclass
class RunResult:
    """Outcome of a finite run: final configuration, the robots each
    round activated (all of them under FSYNC) and an optional trace."""

    topology: Topology
    algorithm: Algorithm
    initial: Configuration
    final: Configuration
    rounds: int
    trace: Optional[ExecutionTrace]
    activations: list[frozenset[RobotId]]

    @property
    def k(self) -> int:
        """Number of robots."""
        return self.initial.robot_count

    def activation_counts(self) -> dict[RobotId, int]:
        """How many times each robot was activated (fairness audit)."""
        counts: dict[RobotId, int] = {robot: 0 for robot in self.initial.robots}
        for active in self.activations:
            for robot in active:
                counts[robot] += 1
        return counts

    def is_fair(self) -> bool:
        """Whether every robot was activated at least once (finite proxy)."""
        return all(count > 0 for count in self.activation_counts().values())


def make_initial_configuration(
    topology: Topology,
    algorithm: Algorithm,
    positions: Sequence[NodeId],
    chiralities: Optional[Sequence[Chirality]] = None,
) -> Configuration:
    """Build γ_0: given positions, model-initial states, chosen chiralities.

    Chiralities default to all-:attr:`~repro.types.Chirality.AGREE`; pass a
    vector to exercise disagreeing frames (the proofs' mirrored robots).
    """
    k = len(positions)
    if chiralities is None:
        chiralities = (Chirality.AGREE,) * k
    if len(chiralities) != k:
        raise ConfigurationError(
            f"chiralities length {len(chiralities)} != positions length {k}"
        )
    initial_state = algorithm.initial_state()
    algorithm.check_state(initial_state)
    return Configuration(
        positions=tuple(positions),
        states=(initial_state,) * k,
        chiralities=tuple(chiralities),
    )


def run_fsync(
    topology: Topology,
    scheduler: EdgeScheduler,
    algorithm: Algorithm,
    positions: Sequence[NodeId],
    rounds: int,
    chiralities: Optional[Sequence[Chirality]] = None,
    observers: Iterable[Observer] = (),
    keep_trace: bool = True,
    require_well_initiated: bool = True,
) -> RunResult:
    """Run ``rounds`` synchronous rounds and return the result.

    Parameters
    ----------
    topology, scheduler, algorithm:
        The footprint, the edge scheduler (oblivious schedule or adaptive
        adversary) and the robots' uniform algorithm.
    positions:
        Initial node of each robot (defines k).
    rounds:
        Number of rounds to execute.
    chiralities:
        Per-robot chirality (default all AGREE).
    observers:
        Streaming observers fed every completed round.
    keep_trace:
        Retain the full :class:`ExecutionTrace` (memory ~ rounds); turn
        off for endurance runs and rely on observers.
    require_well_initiated:
        Enforce Section 2.4's well-initiated conditions on γ_0. Disable
        only for deliberately ill-initiated experiments.
    """
    return _run_rounds(
        topology, scheduler, None, algorithm, positions, rounds, chiralities,
        observers, keep_trace, require_well_initiated,
    )


def _run_rounds(
    topology: Topology,
    scheduler: EdgeScheduler,
    activations: "Optional[ActivationScheduler]",
    algorithm: Algorithm,
    positions: Sequence[NodeId],
    rounds: int,
    chiralities: Optional[Sequence[Chirality]],
    observers: Iterable[Observer],
    keep_trace: bool,
    require_well_initiated: bool,
) -> RunResult:
    """The one run loop of :func:`run_fsync` and
    :func:`~repro.sim.semi_sync.run_ssync` (``activations is None`` =
    FSYNC, every robot active every round).

    Each round the edge scheduler is consulted first (it sees the
    configuration but not the activation choice), then the activation
    scheduler, which may observe everything — the activation adversary
    has the last word, as in Di Luna et al.'s argument. An activation set
    must be non-empty and name only robots of the run.
    """
    if rounds < 0:
        raise ScheduleError(f"rounds must be non-negative, got {rounds}")
    configuration = make_initial_configuration(topology, algorithm, positions, chiralities)
    if require_well_initiated:
        validate_initial_configuration(topology, configuration)
    else:
        for position in configuration.positions:
            topology.check_node(position)

    trace = ExecutionTrace(topology, configuration) if keep_trace else None
    observer_list = list(observers)
    for observer in observer_list:
        observer.on_start(topology, configuration)

    initial = configuration
    everyone = frozenset(configuration.robots)
    activation_log: list[frozenset[RobotId]] = []
    for t in range(rounds):
        observation = Observation(
            t=t, topology=topology, configuration=configuration, algorithm=algorithm
        )
        present = frozenset(scheduler.edges_at(t, observation))
        topology.check_edge_set(present)
        active: Optional[frozenset[RobotId]] = None
        if activations is not None:
            active = frozenset(activations.active_robots(t, observation))
            if not active:
                raise ConfigurationError(f"round {t} activates no robot")
            for robot in active:
                if robot not in configuration.robots:
                    raise ConfigurationError(f"activation of unknown robot {robot}")
        activation_log.append(everyone if active is None else active)
        after, views, moved = step_round(
            topology, algorithm, configuration, present, active
        )
        record = RoundRecord(
            t=t,
            present_edges=present,
            before=configuration,
            views=views,
            after=after,
            moved=moved,
        )
        if trace is not None:
            trace.append(record)
        for observer in observer_list:
            observer.on_round(record)
        configuration = after

    return RunResult(
        topology=topology,
        algorithm=algorithm,
        initial=initial,
        final=configuration,
        rounds=rounds,
        trace=trace,
        activations=activation_log,
    )


__all__ = [
    "EdgeScheduler",
    "local_ports",
    "look",
    "step_fsync",
    "step_ssync",
    "step_round",
    "RunResult",
    "make_initial_configuration",
    "run_fsync",
]
