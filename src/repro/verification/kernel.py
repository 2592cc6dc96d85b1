"""The packed-state verification kernel: the solver's fast path.

The object-level product system (:mod:`repro.verification.product`) drives
:func:`repro.sim.engine.step_fsync` per transition, allocating a
``Configuration``, a tuple of ``LocalView`` objects and several frozensets
per successor. That is the right *oracle*, but millions of transitions per
sweep make it the wrong hot loop.

The packed machinery is split in two. The *compilation* — packed-state
encoding, per-(chirality, node) port masks, and each robot's round
table (the Look–Compute table composed with the landing rule: its next
slot at ``slot · 8 + view``) — lives in
:mod:`repro.verification.compiled` (:class:`CompiledTables`), where the
simulation chunk runner (:mod:`repro.scenarios.simulate`) shares it.
This module is the *game-solver consumer* of that compilation:
:class:`PackedKernel` subclasses :class:`CompiledTables` and adds what
only the exact solver needs — adversarial move enumeration
(:meth:`~PackedKernel.moves_for_occupied`) and labeled reachability
(:meth:`~PackedKernel.reachable`), entirely on ints with zero
per-transition object allocation. The kernel is differentially tested
against both ``ProductSystem.step`` and ``step_fsync``
(``tests/test_packed_kernel.py``) so the "solver and simulator can never
disagree" invariant spans three mutually-checking implementations:
engine oracle → object product → packed kernel. The object product
never calls into this module, so the checks stay independent.

Move enumeration mirrors the object path's normalization exactly (all
edges not adjacent to an occupied node are always present; adjacent edges
range over all subsets, in the same order), so the kernel's graph and
``ProductSystem.reachable()``'s, packed with :meth:`~CompiledTables.encode`,
give the *identical* canonical CSR — same states, same per-state
transition order. This module holds no NumPy code: the vector backend's
NumPy form of these moves is
:func:`repro.verification.batch_solver._frontier_tables`.

**Schedulers.** The adversary move is really a *(edge-mask,
activation-mask)* pair, and the activation axis is data:
:attr:`CompiledTables.activations` lists the ``(activation mask, label
bits)`` columns the adversary picks from. Under ``scheduler="fsync"``
(the default) it is the single all-active column ``((full_act, 0),)``,
so transition labels are bare edge bitmasks — bit-for-bit the
historical tables. Under ``scheduler="ssync"`` it is every non-empty
robot subset (the semi-synchronous model of Di Luna et al.), each
tagged at :attr:`CompiledTables.act_shift`, so a label packs both
choices into one int, edge bits low. :meth:`~PackedKernel.reachable`
has one body for both: per edge mask it composes the all-active
successor once, then per column puts each idle robot's current slot
back (inactive robots contribute identity transitions — position and
state unchanged). *Fairness* — every robot activated infinitely often
— is not a per-move constraint but a property of infinite plays,
enforced by the game solver's winning-SCC criterion
(:mod:`repro.verification.game`). Use :meth:`CompiledTables.split_move` /
:meth:`~CompiledTables.move_edges` /
:meth:`~CompiledTables.move_activations` to read a label without caring
which scheduler produced it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import VerificationError
from repro.graph.topology import Topology
from repro.verification.compiled import (
    STATE_TABLE_LIMIT,
    CompiledTables,
    PackedState,
    PackedTransition,
    SwapClasses,
    check_scheduler,
)

# Per-topology cache of normalized adversary move sets. Like the
# compilation caches, moves depend only on (topology, occupied mask), so
# every kernel of a sweep shares one dict.
_moves_cache_by_topology: dict[Topology, dict[int, tuple[int, ...]]] = {}


class PackedKernel(CompiledTables):
    """Packed transition system for one (topology, algorithm, chirality).

    Semantically equivalent to
    :class:`~repro.verification.product.ProductSystem` restricted to the
    same chirality vector; representationally, states are ints and moves
    are bit-packed ``(edge-mask, activation-mask)`` pairs (the activation
    part exists only under ``scheduler="ssync"``). The encoding, the
    round semantics and the object-level translation are inherited from
    :class:`~repro.verification.compiled.CompiledTables`; this class adds
    the game side — adversary move enumeration and labeled reachability.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._moves_cache = _moves_cache_by_topology.setdefault(
            self.topology, {}
        )

    # ------------------------------------------------------------------
    # Adversary moves
    # ------------------------------------------------------------------
    def moves_for_occupied(self, occupied: int) -> tuple[int, ...]:
        """Normalized present-edge masks for an occupied-node bitmask.

        Same normalization, same enumeration order as
        :meth:`ProductSystem.adversary_moves`: non-adjacent edges always
        present, adjacent edges over all subsets (relevant edges collected
        node-ascending, (CCW, CW) per node).
        """
        cached = self._moves_cache.get(occupied)
        if cached is not None:
            return cached
        relevant: list[int] = []
        seen = 0
        for node in range(self.n):
            if not occupied >> node & 1:
                continue
            for edge in self.topology.incident_edges(node):
                if edge is not None:
                    bit = 1 << edge
                    if not seen & bit:
                        seen |= bit
                        relevant.append(bit)
        base = self.full_mask & ~seen
        count = len(relevant)
        moves = []
        for choice in range(1 << count):
            present = base
            for i in range(count):
                if choice >> i & 1:
                    present |= relevant[i]
            moves.append(present)
        result = tuple(moves)
        self._moves_cache[occupied] = result
        return result

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def _state_overflow(self) -> VerificationError:
        """The error of the ``max_states`` guard."""
        return VerificationError(
            f"reachable state space exceeds {self.max_states} states "
            f"for {self.algorithm.name!r} on {self.topology!r}"
        )

    def reachable(
        self,
        seeds: Optional[list[PackedState]] = None,
        occupied_out: Optional[dict[PackedState, int]] = None,
        classes: SwapClasses = (),
        links_out: Optional[dict[PackedState, int]] = None,
    ) -> dict[PackedState, list[PackedTransition]]:
        """The reachable labeled transition graph, entirely on ints.

        Traversal order, per-state move order and the ``max_states`` guard
        all match the object path exactly, so the graph packs to the same
        canonical CSR as ``ProductSystem.reachable``'s. Pass a dict
        as ``occupied_out`` to also collect each state's occupied-node
        bitmask (computed here anyway; the solver needs it per target).

        ``classes`` (FSYNC only) builds the robot-permutation quotient
        instead: seeds and successors are replaced by their
        :meth:`~CompiledTables.canonical` representatives, so the graph
        holds one state per orbit and ``max_states`` counts orbits. The
        traversal then starts from the first seed alone and expands each
        representative's *lift*, the real state it was first reached as
        (a seed is its own lift). A dict passed as ``links_out`` maps each
        representative to the OR of :meth:`~CompiledTables.swap_links`
        over the transitions entering it, in robot 0's class, between
        their real successors and its lift; it is left empty when the
        first seed does not reach every other one (see
        :func:`repro.verification.game._quotient_exact`).
        """
        if seeds is None:
            seeds = self.initial_states()
        lifts: dict[PackedState, PackedState] = {}
        if classes:
            if len(self.activations) > 1:
                raise VerificationError(
                    "the robot-permutation quotient is defined under FSYNC only"
                )
            seeds = [self.canonical(seed, classes) for seed in seeds]
            group = classes[0]
        graph: dict[PackedState, list[PackedTransition]] = {}
        frontier: list[PackedState] = []
        for seed in seeds[:1] if classes else seeds:
            if seed not in graph:
                graph[seed] = []
                lifts[seed] = seed
                frontier.append(seed)

        base = self._base
        max_states = self.max_states
        moves_cache = self._moves_cache
        moves_for_occupied = self.moves_for_occupied
        state_tables = self._state_tables
        # The last activation column activates every robot. Each other one
        # (SSYNC's partial activations) leaves the robots whose radix
        # weights are in ``idle`` on their current slots.
        *partial, (_full_act, full_bits) = self.activations
        partial = [
            (label_bits, tuple(base**i for i in range(self.k) if not act >> i & 1))
            for act, label_bits in partial
        ]

        while frontier:
            state = frontier.pop()
            out = graph[state]
            # Everything mask-independent is hoisted out of the move loop.
            occupied, per_robot = state_tables(lifts[state] if classes else state)
            if occupied_out is not None:
                occupied_out[state] = occupied
            moves = moves_cache.get(occupied)
            if moves is None:
                moves = moves_for_occupied(occupied)
            for mask in moves:
                # The Look–Compute–Move outcome depends only on the edge
                # mask: compose the all-active successor once, one round
                # table lookup per robot...
                active = 0
                for key, lmask, rmask, table in per_robot:
                    if mask & lmask:
                        key += 4
                    if mask & rmask:
                        key += 2
                    active = active * base + table[key]
                if classes:
                    raw = active
                    active = self.canonical(raw, classes)
                    lift = lifts.get(active)
                    if lift is None:
                        lifts[active] = raw
                    elif links_out is not None and raw != lift:
                        links = self.swap_links(raw, lift, group)
                        if links:
                            links_out[active] = links_out.get(active, 0) | links
                # ...derive each partial column's by putting its idle robots'
                # current slots back, then emit the all-active one last.
                for label_bits, idle in partial:
                    successor = active
                    for weight in idle:
                        successor += (
                            state // weight % base - active // weight % base
                        ) * weight
                    out.append((mask | label_bits, successor))
                    if successor not in graph:
                        if len(graph) >= max_states:
                            raise self._state_overflow()
                        graph[successor] = []
                        frontier.append(successor)
                out.append((mask | full_bits, active))
                if active not in graph:
                    if len(graph) >= max_states:
                        raise self._state_overflow()
                    graph[active] = []
                    frontier.append(active)
            if not frontier:
                # Seeds the first one does not reach start their own trees.
                missing = [seed for seed in seeds if seed not in graph]
                if missing and links_out is not None:
                    links_out.clear()
                    links_out = None
                for seed in missing:
                    if seed not in graph:
                        graph[seed] = []
                        lifts[seed] = seed
                        frontier.append(seed)
        return graph


__all__ = [
    "PackedState",
    "PackedTransition",
    "PackedKernel",
    "STATE_TABLE_LIMIT",
    "check_scheduler",
]
