"""The compiled-tables core: packed states and flat transition tables.

One compilation, two consumers. Everything that turns a
``(topology, algorithm, chirality-vector)`` triple into flat integer
tables lives here, shared by the two execution machines built on top:

* the **game solver** — :class:`~repro.verification.kernel.PackedKernel`
  subclasses :class:`CompiledTables` and adds adversarial move
  enumeration plus reachability (the exact path's fast backend);
* the **simulation runner** — :mod:`repro.scenarios.simulate` replays
  the round tables (:attr:`CompiledTables.round_tables`) against a
  precompiled schedule's edge-bitmask array (the schedule-dynamics
  campaigns' fast backend).

The compilation itself, once per ``(topology, algorithm,
chirality-vector)``:

* a product state ``(positions, states)`` becomes a single ``int``: robot
  ``i`` contributes slot ``position * S + state_index`` at radix
  ``n * S`` (``S`` = size of the algorithm's reachable state table);
* a present-edge set becomes an edge *bitmask* (and an activated-robot
  set an activation bitmask above the edge bits, see
  :attr:`CompiledTables.act_shift`);
* the whole Look–Compute logic collapses into ``transitions[s * 8 +
  view_index]`` (for :class:`~repro.robots.algorithms.tables
  .TableAlgorithm` this is literally the raw table via
  :meth:`~repro.robots.algorithms.tables.TableAlgorithm.packed_tables`;
  for every other finite-state algorithm the table is built by closing
  ``Algorithm.compute`` over all 8 views);
* per (chirality, node) the local left/right port masks are
  precomputed, using the *same* :func:`repro.sim.engine.local_ports`
  helper the simulator's Look phase uses;
* the Move phase is the one **landing rule** (:func:`landings`), kept
  as table-independent data per (topology, chirality): a robot moves
  through its view's left (direction bit 0) or right (1) edge, so where
  it lands depends only on its node, its 3-bit view and its direction
  bit;
* the two compose into one **round table** per robot
  (:attr:`CompiledTables.round_tables`): its next slot at index ``slot
  · 8 + view``, ``base · 8`` entries, shared per chirality. Every packed
  machine steps a robot by one lookup in it, and the NumPy machines
  compose a whole table stack with the same landing data
  (:func:`repro.verification.batch.round_stack`).

Algorithm-independent tables (per-node port masks, landing data,
placements, seed states, mask↔edge-set decodings) are cached
process-wide: sweeps build one compilation per table, and without the
caches the per-table setup would dominate the tiny per-table graphs.

``step_packed`` is differentially tested against both
``ProductSystem.step`` and ``step_fsync``/``step_ssync``
(``tests/test_packed_kernel.py``, ``tests/test_engine_ssync_consistency
.py``), so the "solver and simulator can never disagree" invariant spans
engine oracle → object product → compiled tables, and every consumer of
this module inherits it.
"""

from __future__ import annotations

import functools
from typing import Hashable, Iterable, Optional, Sequence

from repro.errors import VerificationError
from repro.graph.topology import (
    RingTopology,
    Topology,
    canonical_placements,
    towerless_placements,
)
from repro.robots.algorithms.base import Algorithm
from repro.robots.algorithms.tables import TableAlgorithm
from repro.robots.view import ALL_VIEWS
from repro.sim.engine import local_ports
from repro.types import Chirality, Direction, EdgeId, NodeId, RobotId
from repro.verification.families import SCHEDULERS

PackedState = int
"""A product state packed into one integer (see module docstring)."""

PackedTransition = tuple[int, PackedState]
"""An adversary move label and the resulting packed state.

The label is an edge bitmask under FSYNC; under SSYNC it additionally
carries the activation bitmask above the edge bits (see module
docstring). :meth:`CompiledTables.split_move` decodes either."""


def check_scheduler(scheduler: str) -> str:
    """Validate a scheduler name (shared by kernel, product, game, sweeps)."""
    if scheduler not in SCHEDULERS:
        raise VerificationError(
            f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
        )
    return scheduler

SysState = tuple[tuple[NodeId, ...], tuple[Hashable, ...]]
"""Object-level product state, as in :mod:`repro.verification.product`."""

SwapClasses = tuple[tuple[RobotId, ...], ...]
"""Robot indices that may be permuted among themselves (see
:func:`swap_classes`)."""


def swap_classes(chiralities: Sequence[Chirality]) -> SwapClasses:
    """Robots grouped by chirality, ascending: the classes whose members
    a state may permute without changing any play's labels.

    Robots are anonymous and uniform, so two robots of the same chirality
    in the same slot behave identically. Only classes of two or more
    robots are listed, ordered by their smallest index, so robot 0's class
    (when it has a partner) comes first.
    """
    members: dict[Chirality, list[RobotId]] = {}
    for robot, chirality in enumerate(chiralities):
        members.setdefault(chirality, []).append(robot)
    return tuple(tuple(group) for group in members.values() if len(group) > 1)


_DIR_BIT = {Direction.LEFT: 0, Direction.RIGHT: 1}
_BIT_DIR = (Direction.LEFT, Direction.RIGHT)

#: Hard cap on the per-robot state table built by the generic closure; a
#: "finite-state" algorithm whose closure exceeds this is refused rather
#: than ground through (the packed encoding would stop paying off anyway).
STATE_TABLE_LIMIT = 1 << 16

# ----------------------------------------------------------------------
# Process-wide caches for everything that does NOT depend on the
# algorithm. Sweeps build one compilation per table; without these caches
# the per-table setup would dominate the tiny per-table graphs.
# Topologies are immutable and hash by (type, n), so keys stay small and
# exact.
# ----------------------------------------------------------------------
_NodeTables = tuple[tuple[int, ...], tuple[int, ...]]
_node_table_cache: dict[tuple[Topology, Chirality], _NodeTables] = {}
_mask_edges_cache_by_topology: dict[Topology, dict[int, frozenset[EdgeId]]] = {}
_placement_cache: dict[tuple[Topology, int], tuple[tuple[NodeId, ...], ...]] = {}
_table_state_cache: dict[int, tuple[tuple[Hashable, ...], dict[Hashable, int]]] = {}
_seed_cache: dict[tuple[Topology, int, int, int], tuple[PackedState, ...]] = {}


def _node_tables(topology: Topology, chirality: Chirality) -> _NodeTables:
    """Per-(topology, chirality) local left/right port masks per node."""
    key = (topology, chirality)
    cached = _node_table_cache.get(key)
    if cached is not None:
        return cached
    left_masks: list[int] = []
    right_masks: list[int] = []
    for node in range(topology.n):
        left_port, right_port = local_ports(topology, node, chirality)
        left_masks.append(0 if left_port is None else 1 << left_port)
        right_masks.append(0 if right_port is None else 1 << right_port)
    tables = (tuple(left_masks), tuple(right_masks))
    _node_table_cache[key] = tables
    return tables


@functools.lru_cache(maxsize=None)
def landings(topology: Topology, chirality: Chirality) -> tuple[NodeId, ...]:
    """The landing rule as table-independent data, per (topology,
    chirality): entry ``(node · 8 + view) · 2 + dir_bit`` is the node a
    robot on ``node`` ends its round on after computing direction bit
    ``dir_bit`` from the 3-bit ``view`` (``4·left + 2·right`` edge
    presence plus the tower bit).

    The edge a robot moves through in direction bit 0 (1) is its view's
    left (right) edge, so the move succeeds exactly when view bit 4 (2)
    is set: the robot then lands on the edge's far end, else it stays.
    Every packed and NumPy machine reads the rule from here.
    """
    out: list[NodeId] = []
    for node in range(topology.n):
        far = [
            topology.neighbor(node, chirality.to_global(direction))
            for direction in _BIT_DIR
        ]
        for view in range(8):
            for dir_bit in (0, 1):
                landing = far[dir_bit] if view >> (2 - dir_bit) & 1 else None
                out.append(node if landing is None else landing)
    return tuple(out)


def _default_placements(
    topology: Topology, k: int
) -> tuple[tuple[NodeId, ...], ...]:
    """Memoized well-initiated placements (rotation-reduced on rings)."""
    key = (topology, k)
    cached = _placement_cache.get(key)
    if cached is None:
        if isinstance(topology, RingTopology):
            cached = tuple(canonical_placements(topology, k))
        else:
            cached = tuple(towerless_placements(topology, k))
        _placement_cache[key] = cached
    return cached


def _close_state_table(
    algorithm: Algorithm,
) -> tuple[tuple[Hashable, ...], dict[Hashable, int], tuple[int, ...], tuple[int, ...]]:
    """Close ``compute`` over all 8 views into flat integer tables.

    Returns ``(state_objects, state_index, transitions, dir_bits)`` with
    the initial state at index 0. For :class:`TableAlgorithm` the raw
    table is used directly — no recomputation, no interpretation drift.
    """
    if isinstance(algorithm, TableAlgorithm):
        state_count, transitions, dir_bits = algorithm.packed_tables()
        cached = _table_state_cache.get(state_count)
        if cached is None:
            objects = tuple(
                algorithm.state_for_index(s) for s in range(state_count)
            )
            index = {obj: s for s, obj in enumerate(objects)}
            _table_state_cache[state_count] = cached = (objects, index)
        objects, index = cached
        return objects, index, transitions, dir_bits

    initial = algorithm.initial_state()
    algorithm.check_state(initial)
    objects: list[Hashable] = [initial]
    index: dict[Hashable, int] = {initial: 0}
    rows: list[list[int]] = []
    cursor = 0
    while cursor < len(objects):
        state = objects[cursor]
        cursor += 1
        row = []
        for view in ALL_VIEWS:
            successor = algorithm.compute(state, view)
            s = index.get(successor)
            if s is None:
                algorithm.check_state(successor)
                s = len(objects)
                if s >= STATE_TABLE_LIMIT:
                    raise VerificationError(
                        f"state closure of {algorithm.name!r} exceeds "
                        f"{STATE_TABLE_LIMIT} states; not packable"
                    )
                index[successor] = s
                objects.append(successor)
            row.append(s)
        rows.append(row)
    transitions = tuple(value for row in rows for value in row)
    dir_bits = tuple(_DIR_BIT[getattr(state, "dir")] for state in objects)
    return tuple(objects), index, transitions, dir_bits


@functools.lru_cache(maxsize=None)
def _landing_slots(
    topology: Topology, chirality: Chirality, state_count: int
) -> tuple[int, ...]:
    """:func:`landings` scaled to slot units, ``landing · S``."""
    return tuple(node * state_count for node in landings(topology, chirality))


# A sweep solves thousands of tables over one packed space, so the
# quotient's per-state arithmetic is cached across tables (bounded).
@functools.lru_cache(maxsize=1 << 14)
def _canonical(
    packed: PackedState, base: int, k: int, classes: SwapClasses
) -> PackedState:
    """:meth:`CompiledTables.canonical` on a radix-``base`` state."""
    slots = []
    for _ in range(k):
        packed, slot = divmod(packed, base)
        slots.append(slot)
    for group in classes:
        for robot, slot in zip(group, sorted([slots[i] for i in group])):
            slots[robot] = slot
    for slot in reversed(slots):
        packed = packed * base + slot
    return packed


@functools.lru_cache(maxsize=1 << 14)
def _orbit_size(
    packed: PackedState, base: int, k: int, classes: SwapClasses
) -> int:
    """:meth:`CompiledTables.orbit_size` on a radix-``base`` state."""
    slots = []
    for _ in range(k):
        packed, slot = divmod(packed, base)
        slots.append(slot)
    size = 1
    for group in classes:
        seen: dict[int, int] = {}
        for count, robot in enumerate(group, start=1):
            repeat = seen[slots[robot]] = seen.get(slots[robot], 0) + 1
            size = size * count // repeat
    return size


class CompiledTables:
    """One compiled (topology, algorithm, chirality-vector) footprint.

    The shared substrate of the packed execution machines: states are
    single ints, edge/activation sets are bitmasks, Look–Compute is a
    flat table lookup. This class performs *no* adversarial move
    enumeration and holds *no* game graph — it only answers "what does
    one round do" (:meth:`step_packed`, :attr:`round_tables`) and
    translates between the packed and object-level worlds
    (:meth:`encode`/:meth:`decode`, :meth:`edges_to_mask`/
    :meth:`mask_to_edges`, :meth:`split_move`).
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
        self.n = topology.n
        self.m = topology.edge_count
        self.full_mask = (1 << self.m) - 1
        #: Bit position of the activation mask inside an SSYNC move label.
        self.act_shift = self.m
        #: The everyone-active robot bitmask.
        self.full_act = (1 << self.k) - 1
        #: The adversary's activation choices, one ``(activation mask,
        #: label bits)`` column each, in label order, so the all-active
        #: column comes last: FSYNC's only column adds nothing to a label;
        #: SSYNC has every non-empty robot subset, its mask tagged at
        #: :attr:`act_shift`.
        self.activations: tuple[tuple[int, int], ...] = (
            tuple(
                (act, act << self.act_shift)
                for act in range(1, self.full_act + 1)
            )
            if self.scheduler == "ssync"
            else ((self.full_act, 0),)
        )

        (
            self._state_objects,
            self._state_index,
            self._transitions,
            self._dir_bits,
        ) = _close_state_table(algorithm)
        self.state_count = len(self._state_objects)
        self._base = self.n * self.state_count
        #: Index of the algorithm's initial state in the state table.
        self.initial_index = self._state_index[algorithm.initial_state()]

        # Per robot, its chirality's ``(left, right)`` port masks per node.
        # All algorithm-independent tables are shared process-wide so that
        # sweeps (one compilation per table) pay the setup only once.
        self.port_masks = tuple(
            _node_tables(topology, chirality) for chirality in self.chiralities
        )
        self._mask_edges_cache = _mask_edges_cache_by_topology.setdefault(
            topology, {}
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, state: SysState) -> PackedState:
        """Pack an object-level ``(positions, states)`` product state."""
        positions, states = state
        if len(positions) != self.k or len(states) != self.k:
            raise VerificationError(
                f"state arity {len(positions)}/{len(states)} != k={self.k}"
            )
        packed = 0
        for i in range(self.k - 1, -1, -1):
            s = self._state_index.get(states[i])
            if s is None:
                raise VerificationError(
                    f"robot state {states[i]!r} is outside the packed state "
                    f"table of {self.algorithm.name!r}"
                )
            packed = packed * self._base + positions[i] * self.state_count + s
        return packed

    def decode(self, packed: PackedState) -> SysState:
        """Unpack to the object-level ``(positions, states)`` form."""
        positions: list[NodeId] = []
        states: list[Hashable] = []
        for _ in range(self.k):
            packed, slot = divmod(packed, self._base)
            position, s = divmod(slot, self.state_count)
            positions.append(position)
            states.append(self._state_objects[s])
        return tuple(positions), tuple(states)

    def positions_of(self, packed: PackedState) -> tuple[NodeId, ...]:
        """Just the robot positions of a packed state."""
        positions: list[NodeId] = []
        for _ in range(self.k):
            packed, slot = divmod(packed, self._base)
            positions.append(slot // self.state_count)
        return tuple(positions)

    def occupied_mask(self, packed: PackedState) -> int:
        """Bitmask of nodes occupied in a packed state."""
        occupied = 0
        for _ in range(self.k):
            packed, slot = divmod(packed, self._base)
            occupied |= 1 << slot // self.state_count
        return occupied

    def canonical(self, packed: PackedState, classes: SwapClasses) -> PackedState:
        """The orbit representative of a packed state: within each class
        of :func:`swap_classes`, robot slots sorted ascending by robot
        index. Every backend's quotient uses this one rule (the vector
        frontier as a sorting network over digit arrays)."""
        return _canonical(packed, self._base, self.k, classes)

    def orbit_size(self, packed: PackedState, classes: SwapClasses) -> int:
        """How many packed states permuting robots within ``classes``
        maps ``packed`` to: per class, its size factorial over the
        factorials of its repeated slots' multiplicities."""
        return _orbit_size(packed, self._base, self.k, classes)

    def swap_links(
        self, packed: PackedState, lift: PackedState, group: tuple[RobotId, ...]
    ) -> int:
        """Which pairs of ``group`` the permutation ``g`` with ``packed =
        g·lift`` joins (``g`` sends one robot of the pair to the other):
        bit ``a · len(group) + b`` for positions ``a < b``. ``lift``'s
        slots in ``group`` must be distinct."""
        base = self._base
        ys = [packed // base**i % base for i in group]
        xs = [lift // base**i % base for i in group]
        size = len(group)
        links = 0
        for a in range(size):
            for b in range(a + 1, size):
                if ys[b] == xs[a] or ys[a] == xs[b]:
                    links |= 1 << (a * size + b)
        return links

    def edges_to_mask(self, edges: Iterable[EdgeId]) -> int:
        """Bitmask of an edge set."""
        mask = 0
        for edge in edges:
            self.topology.check_edge(edge)
            mask |= 1 << edge
        return mask

    def mask_to_edges(self, mask: int) -> frozenset[EdgeId]:
        """Edge set of a bitmask (memoized; masks repeat heavily)."""
        cached = self._mask_edges_cache.get(mask)
        if cached is None:
            cached = frozenset(
                edge for edge in range(self.m) if mask >> edge & 1
            )
            self._mask_edges_cache[mask] = cached
        return cached

    def split_move(self, label: int) -> tuple[int, int]:
        """The ``(edge-mask, activation-mask)`` parts of a transition label.

        Under FSYNC the label *is* the edge mask and the activation mask
        is constantly "everyone"; under SSYNC both parts are packed into
        the label (edges low, activations from :attr:`act_shift` up).
        """
        if self.scheduler == "ssync":
            return label & self.full_mask, label >> self.act_shift
        return label, self.full_act

    def move_edges(self, label: int) -> frozenset[EdgeId]:
        """The present-edge set of a transition label (either scheduler)."""
        return self.mask_to_edges(label & self.full_mask)

    def move_activations(self, label: int) -> frozenset[RobotId]:
        """The activated-robot set of a transition label (either scheduler)."""
        _edges, act = self.split_move(label)
        return frozenset(
            robot for robot in range(self.k) if act >> robot & 1
        )

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    @functools.cached_property
    def round_tables(self) -> tuple[list[int], ...]:
        """Per robot, its whole round as one next-slot table.

        Entry ``slot · 8 + view`` is the slot (``node · S + state``) a
        robot in ``slot`` ends the round in when it sees the 3-bit
        ``view`` (``4·left + 2·right`` edge presence plus the tower bit):
        the Look–Compute table composed with the landing rule of
        :func:`landings`. ``base · 8`` entries, built on first use and
        shared by the robots of one chirality.
        """
        dirs = self._dir_bits
        # Per (state, view): the landing entry's offset within a node's
        # 16 entries, and the computed state.
        steps = [
            ((row & 7) * 2 + dirs[t], t) for row, t in enumerate(self._transitions)
        ]
        tables = {}
        for chirality in dict.fromkeys(self.chiralities):
            slots = _landing_slots(self.topology, chirality, self.state_count)
            tables[chirality] = [
                slots[at + offset] + t
                for at in range(0, 16 * self.n, 16)
                for offset, t in steps
            ]
        return tuple(tables[chirality] for chirality in self.chiralities)

    def _state_tables(self, state: PackedState) -> tuple[int, list[tuple]]:
        """Mask-independent per-state tables for :meth:`step_packed` and
        :meth:`~repro.verification.kernel.PackedKernel.reachable` (runs
        once per state, never per move).

        Returns ``(occupied, per_robot)``: the occupied-node bitmask and,
        highest robot index first (the order a successor is composed
        in), the per-robot tuple ``(key, left port mask, right port mask,
        round table)`` with ``key = slot · 8 + tower bit``: adding a
        move's edge-view bits to it indexes the robot's round table.
        """
        base = self._base
        state_count = self.state_count
        slots: list[int] = []
        x = state
        for _ in range(self.k):
            x, slot = divmod(x, base)
            slots.append(slot)
        occupied = 0
        towers = 0
        for slot in slots:
            bit = 1 << slot // state_count
            if occupied & bit:
                towers |= bit
            occupied |= bit
        round_tables = self.round_tables
        per_robot: list[tuple] = []
        for i in range(self.k - 1, -1, -1):
            slot = slots[i]
            node = slot // state_count
            left_masks, right_masks = self.port_masks[i]
            per_robot.append(
                (
                    slot * 8 + (towers >> node & 1),
                    left_masks[node],
                    right_masks[node],
                    round_tables[i],
                )
            )
        return occupied, per_robot

    def step_packed(
        self,
        packed: PackedState,
        present_mask: int,
        act_mask: Optional[int] = None,
    ) -> PackedState:
        """One round on packed data; returns the successor.

        ``act_mask`` is the activated-robot bitmask of a semi-synchronous
        round (``None`` = everyone, the FSYNC round). Inactive robots keep
        their position *and* state — they still count for multiplicity
        detection, exactly as in :func:`repro.sim.engine.step_ssync`.
        """
        if act_mask is None:
            act_mask = self.full_act
        _occupied, per_robot = self._state_tables(packed)
        successor = 0
        robots = range(self.k - 1, -1, -1)
        for robot, (key, lmask, rmask, table) in zip(robots, per_robot):
            if act_mask >> robot & 1:
                if present_mask & lmask:
                    key += 4
                if present_mask & rmask:
                    key += 2
                slot = table[key]
            else:
                slot = key >> 3
            successor = successor * self._base + slot
        return successor

    # ------------------------------------------------------------------
    # Initial states
    # ------------------------------------------------------------------
    def initial_states(
        self, placements: Optional[Iterable[Sequence[NodeId]]] = None
    ) -> list[PackedState]:
        """Packed well-initiated start states (γ_0 candidates).

        Same defaulting as :meth:`ProductSystem.initial_states`: every
        towerless placement, rotation-reduced on rings; robot states are
        the algorithm's initial state (index 0 in the packed table).
        """
        if placements is None:
            # Seeds depend only on (topology, k, packing radix, initial
            # index) — identical for every table of a sweep family.
            key = (self.topology, self.k, self._base, self.initial_index)
            cached = _seed_cache.get(key)
            if cached is None:
                cached = tuple(
                    self.encode_placement(p)
                    for p in _default_placements(self.topology, self.k)
                )
                _seed_cache[key] = cached
            return list(cached)
        return [self.encode_placement(placement) for placement in placements]

    def encode_placement(self, placement: Sequence[NodeId]) -> PackedState:
        """Pack one placement with every robot in the initial state.

        Raises :class:`~repro.errors.TopologyError` for a node off the
        footprint, as the engine does.
        """
        if len(placement) != self.k:
            raise VerificationError(
                f"placement {tuple(placement)} has arity {len(placement)}, "
                f"want k={self.k}"
            )
        packed = 0
        for position in reversed(tuple(placement)):
            self.topology.check_node(position)
            packed = (
                packed * self._base + position * self.state_count
                + self.initial_index
            )
        return packed


__all__ = [
    "CompiledTables",
    "PackedState",
    "PackedTransition",
    "STATE_TABLE_LIMIT",
    "SwapClasses",
    "SysState",
    "check_scheduler",
    "landings",
    "swap_classes",
]
