"""The exploration game solver: exact verdicts and trap synthesis.

Fix a finite-state deterministic algorithm ``A``, a footprint of ``n``
nodes and ``k < n`` robots. The interaction between robots and adversary
is a turn game on the finite product system (:mod:`.product`): each round
the adversary picks a present-edge set — and, under the semi-synchronous
scheduler, a non-empty activated-robot set — and the robots respond
deterministically. The adversary *wins* iff it can produce an infinite
play that is connected-over-time (at most one edge present only finitely
often, on a ring; none on a chain) and, under SSYNC, *fair* (every robot
activated infinitely often), while some node is visited only finitely
often.

**Decision criterion.** The adversary wins iff for some chirality vector,
some target node ``v`` and some strongly connected component ``S`` of the
``v``-avoiding subgraph of the reachable product graph, ``S`` has at least
one internal transition, the union ``U`` of present-edge labels over
*all* internal transitions of ``S`` misses at most ``budget`` footprint
edges (``budget`` = 1 ring / 0 chain) and — under SSYNC — the union of
activation labels over those transitions covers every robot.

*Soundness*: inside an SCC the adversary can realize a single closed walk
traversing every internal transition, and repeat it forever after a finite
prefix leading into ``S``; every edge in ``U`` then appears once per
period (recurrent), every edge outside ``U`` never appears again
(eventually missing, within budget), every robot is activated once per
period (fair), and ``v`` is never occupied after the prefix.

*Completeness*: in any winning play, after the last visit to ``v`` the
play stays in the ``v``-avoiding subgraph; the transitions it uses
infinitely often form a strongly connected sub-multigraph contained in
some SCC ``S``, the union of their edge labels is exactly the recurrent
edge set, and — the play being fair — the union of their activation
labels covers every robot; the full-``S`` unions can only enlarge both,
so ``S`` passes the criterion.

Symmetry reductions (all verdict-preserving, see
:func:`default_chirality_vectors` and
:func:`repro.graph.topology.canonical_placements`): seeds are reduced by
ring rotation; chirality vectors by robot permutation (robots are uniform
with identical initial states) and by ring reflection (which flips every
robot's chirality). *Targets* are reduced by ring rotation too, when it
applies: rotating every robot one node on (``v → v + 1``, edge
``e → e + 1``) commutes with a round, so on a ring whose reachable state
set is closed under rotation, rotation is an automorphism of the labeled
game graph that maps the target-``v`` avoiding arena onto the
target-``v + 1`` one, preserving internal transitions, label unions (up
to relabeling edges) and activation unions. Target 0 then wins iff any
target does, and since the solve loop returns the first winning target,
checking target 0 alone changes neither verdicts nor certificates. It applies to the perpetual property
only: the live arena is also confined to target-avoiding *seeds*, and the
rotation-reduced seeds all occupy node 0, so live targets are all
scanned. ``PEF_3+``'s reachable sets are rotation-closed (n checks of the
SCC search become one); ill-initiated FSYNC seeds, for example, need not
be. Closure is read off the seeds alone (:func:`_rotation_closed`): the
reachable set is ``R = Reach(S)`` from the seeds ``S``, and since
rotation ``ρ`` commutes with a round (the adversary's moves at a state
are its occupied nodes' edges, which rotate along), ``ρ(R) =
Reach(ρ(S))``. If every rotated seed is in ``R``, then ``Reach(ρ(S)) ⊆
R`` as ``R`` is closed under successors, so ``ρ(R) ⊆ R``, and ``ρ(R) =
R`` because ``ρ`` is a bijection of the finite state space; the
converse is immediate, as ``S ⊆ R``.

**Robot-permutation quotient** (FSYNC on rings from the default seeds).
Let ``G`` be the robot permutations that keep chiralities (one symmetric
group per class of :func:`~repro.verification.compiled.swap_classes`),
acting on packed states by moving slots: ``(g·x)[g(i)] = x[i]``. Robots
are anonymous and uniform, so two robots of one chirality in the same
slot see the same view and compute the same move: a round commutes with
``g`` (``step(g·x, m) = g·step(x, m)``), and ``x`` and ``g·x`` have the
same occupied nodes, hence the same adversary moves in the same order.
Each vector's graph is therefore built over orbit representatives
(:meth:`~repro.verification.compiled.CompiledTables.canonical`: slots
sorted within each class) with successors canonicalized. A default seed
(every robot initial, robot 0 on node 0, the smallest slot) canonicalizes
to a default seed.

*Verdicts* are those of the full graph ``R`` for every target and arena.
The map to representatives keeps labels and occupancy, so a winning play
of ``R`` maps to a play of the quotient with the same recurrent label
union that never visits the target, and the quotient criterion holds.
Conversely a quotient lasso replays from its real seed: the prefix ends
on ``p·q`` for the entry representative ``q``, and each traversal of the
cycle multiplies by the cycle's accumulated permutation ``h``. Repeating
the cycle ``m`` times, ``m`` the least with ``h^m·q = q`` (a divisor of
the order of ``h``, at most 6 for ``k ≤ 5``), closes a real cycle with
the same labels and occupancy (:func:`_lift_cycle`): a real trap.

*Counts*. ``states_explored`` is the sum of the representatives' orbit
sizes and ``transitions_explored`` of orbit size times out-degree (which
the occupancy fixes), so both count the full graph's states and
transitions exactly when ``R`` is closed under ``G``; ``max_states``
counts representatives. The representatives are those of ``R̂``, the
states reachable from ``G``-images of default seeds. ``R ⊆ R̂``, with
equality iff every image of a default seed is in ``R``. Let ``G'`` fix
robot 0. The default seeds are closed under ``G'`` (the other robots
take every placement), so ``R`` is. Let ``r`` be the first seed
representative. ``r`` is towerless, so ``g·r`` determines ``g``, and
``H = {h : h·r reachable from r}`` is a subgroup: from ``h1·r`` the walk
to ``h2·r`` lifts to ``h1·h2·r``. The set ``{g : g·r ∈ R}`` is closed
under ``G'`` on the left and ``H`` on the right, so it holds ``G'·H``.
``g·r`` gives robot 0 the slot ``r`` gives robot ``g⁻¹(0)``, and the
right cosets of ``G'`` are told apart by that robot, so ``G'·H = G``
iff ``H`` carries robot 0 to every robot of its class. Then
``G·r ⊆ R``, and ``G·q ⊆ R`` passes to every successor ``q'`` of ``q``
(``step(g·q, m) = g·step(q, m)``); if ``r`` reaches every seed
representative, ``R = R̂``. :func:`_quotient_exact` checks exactly
this, or that robot 0 has no partner (``G' = G``). The builders keep
for each representative ``q`` a *lift* ``x_q``, a real state reached
from ``r`` (``x_r = r``). A transition ``q → q'`` with label ``m``
lands on ``step(x_q, m) = g_e·x_q'``. If ``q'`` reaches ``r``, a walk
from ``q'`` to ``r`` lifts from ``x_q'`` to some ``w·r`` and from
``g_e·x_q'`` to ``g_e·w·r``, both reachable from ``r``, so
``g_e ∈ H``; and a closed walk at ``r`` lifts from ``r`` to the product
of its transitions' ``g_e``, so these ``g_e`` generate ``H``. The orbit
of robot 0 under ``H`` is therefore its component in the graph that
joins ``i`` and ``g_e(i)`` over the transitions entering states that
reach ``r`` (a state with two robots of one class in one slot keeps
them together and never reaches ``r``, so there ``g_e`` is unique).
The builders record those pairs per entered state
(:meth:`~repro.verification.compiled.CompiledTables.swap_links`), and
the check depends on the quotient alone, never on which lifts a
backend kept. When it fails, the full graph is built instead. With
``R = G·Q``, a state lies in ``R`` iff its representative lies in
``Q``, and rotation commutes with ``G``, so the rotation check
canonicalizes each rotated seed representative and looks it up in
``Q`` (:func:`_rotation_closed`). Under SSYNC a swap also relabels the
activation sets, and fairness would need its own argument; SSYNC,
chains and explicit ``placements`` keep the full graph.

**Solve phase.** All three backends share one pipeline over the
reachable graph's canonical CSR form; they differ only in how they build
that graph. The object backend steps the engine
(``ProductSystem.reachable``) and packs each state and label with the
kernel's encoding, the packed backend runs the scalar integer kernel and
the vector backend a NumPy frontier. The CSR holds one entry per
distinct (state, successor) pair, its label the OR of every move between
them: the criterion above reads only which states follow which and the
OR of the labels inside a component, so parallel moves add nothing.
Per target, one iterative Tarjan walks the CSR rows, states outside the
avoiding arena pre-tagged like finished components, and stops at the
first winning component. Out-degree is fixed by occupancy, so the
transition counts come from the kernel's move enumeration, and a
certificate's real moves from re-expanding, through the kernel, the few
states it needs: the winner's members and the prefix's parents. The
vector backend keeps the CSR as narrow NumPy arrays — int32 offsets and
successor indices (int64 past 2^31), labels and occupied masks in the
narrowest dtype that holds their bits — and holds one chirality
vector's graph at a time. The live arena runs in NumPy; the rows the
Tarjan walks are copied once per chirality vector into compact stdlib
arrays. Verdicts, counts and certificates are
bit-identical across the three backends.

On a win the solver emits a :class:`~.certificates.TrapCertificate`
(prefix + cycle lasso; under SSYNC with per-step activation sets), which
is immediately re-validated by *simulator replay* —
:func:`repro.sim.engine.run_fsync` or
:func:`repro.sim.semi_sync.run_ssync` — so solver and engine check each
other under either scheduler.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import VerificationError
from repro.graph.topology import Topology
from repro.robots.algorithms.base import Algorithm
from repro.types import Chirality, NodeId
from repro.verification import batch_solver
from repro.verification.backends import resolve_solver_backend
from repro.verification.certificates import TrapCertificate, validate_certificate
from repro.verification.compiled import SwapClasses, swap_classes
from repro.verification.families import PROPERTIES
from repro.verification.kernel import (
    PackedKernel,
    PackedState,
    PackedTransition,
    check_scheduler,
)
from repro.verification.product import ProductSystem, SysState, Transition

#: A CSR-internal transition: (state index, label, successor index).
_CsrInternal = tuple[int, int, int]


def check_property(prop: str) -> str:
    """Validate an exploration-property name (shared with sweeps)."""
    if prop not in PROPERTIES:
        raise VerificationError(
            f"unknown exploration property {prop!r}; choose from {PROPERTIES}"
        )
    return prop


def default_chirality_vectors(k: int) -> tuple[tuple[Chirality, ...], ...]:
    """Chirality vectors to check, reduced by symmetry.

    Robots are uniform and start in identical states, so permuting robots
    (together with re-canonicalizing the seed placement) maps executions
    to executions: only the *multiset* of chiralities matters. Reflecting
    the ring maps chirality vector ``χ`` to its flip: a vector and its
    flip give mirror-isomorphic games. Representatives: ``i`` AGREE robots
    and ``k - i`` DISAGREE for ``ceil(k/2) <= i <= k``.
    """
    if k < 1:
        raise VerificationError(f"need at least one robot, got k={k}")
    vectors = []
    for agree_count in range(k, (k - 1) // 2, -1):
        vectors.append(
            (Chirality.AGREE,) * agree_count
            + (Chirality.DISAGREE,) * (k - agree_count)
        )
    return tuple(vectors)


@dataclass
class ExplorationVerdict:
    """The solver's answer for one (algorithm, footprint, k) instance."""

    algorithm_name: str
    topology: Topology
    k: int
    explorable: bool
    certificate: Optional[TrapCertificate]
    states_explored: int
    transitions_explored: int
    chirality_vectors: tuple[tuple[Chirality, ...], ...]
    scheduler: str = "fsync"

    @property
    def n(self) -> int:
        """Ring size."""
        return self.topology.n

    def summary(self) -> str:
        """One-line human summary for reports."""
        verdict = "EXPLORES" if self.explorable else "TRAPPED"
        tag = "" if self.scheduler == "fsync" else f" [{self.scheduler}]"
        detail = "" if self.certificate is None else f" — {self.certificate.summary()}"
        return (
            f"{self.algorithm_name} k={self.k} n={self.n}:{tag} {verdict} "
            f"({self.states_explored} states, {self.transitions_explored} "
            f"transitions){detail}"
        )


def verify_exploration(
    algorithm: Algorithm,
    topology: Topology,
    k: int,
    chirality_vectors: Optional[Sequence[Sequence[Chirality]]] = None,
    max_states: int = 2_000_000,
    placements: Optional[Sequence[Sequence[NodeId]]] = None,
    backend: str = "packed",
    certificates: bool = True,
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> ExplorationVerdict:
    """Decide an exploration property for a finite-state algorithm instance.

    Returns an :class:`ExplorationVerdict`; when the adversary wins, the
    verdict carries a :class:`TrapCertificate`, replayed through the
    simulator before it is returned (``certificates=False`` skips
    building the lasso, and with it the replay, when only the verdict
    matters — sweeps counting verdicts do this).

    ``placements`` overrides the initial configurations to quantify over
    (default: every towerless placement, rotation-reduced on rings — the
    paper's well-initiated starts). Passing placements that contain
    towers asks the *ill-initiated* question instead — see experiment X6.

    ``prop`` selects the specification: ``"perpetual"`` (default, the
    paper's infinitely-often property) or ``"live"`` (at-least-once; see
    :data:`PROPERTIES`). For ``"live"`` the winning-SCC search runs on the
    subgraph reachable from target-avoiding seeds *through* target-avoiding
    states, so the exhibited lasso never visits the starved node at all —
    its certificate passes the same replay validation.

    ``backend`` picks how the reachable graph is built; the solve phase
    after it is shared. ``"packed"`` (default) runs the integer kernel;
    ``"vector"`` builds the graph with a NumPy frontier
    (:func:`repro.verification.batch_solver.reachable_csr`, any instance
    size) and keeps it in NumPy arrays through the solve; ``"object"``
    steps the simulator engine per transition, ~an order of magnitude
    slower, and is kept as the semantics oracle; ``"auto"`` resolves to
    ``"vector"`` when NumPy is importable and ``"packed"`` otherwise.
    All three reduce the graph to the same canonical CSR form, so
    verdicts, state and transition counts *and* certificates are
    bit-identical across backends.

    Perpetual exploration on a ring whose reachable state set is closed
    under rotation checks target 0 only — the rotation-reduced targets
    of the module docstring. Under FSYNC on a ring with the default
    ``placements`` the graph is the module docstring's robot-permutation
    quotient: the counts are still the full graph's, and a trap's cycle
    may be its quotient cycle repeated.

    ``scheduler`` picks the execution model the game is played under:
    ``"fsync"`` (default, the paper's setting) or ``"ssync"``, where the
    adversary also chooses a non-empty activated-robot subset each round
    and a winning SCC must additionally activate every robot (so the
    exhibited infinite play is fair). SSYNC trap certificates carry the
    per-step activation sets and replay through
    :func:`repro.sim.semi_sync.run_ssync`.
    """
    backend = resolve_solver_backend(backend)
    check_property(prop)
    check_scheduler(scheduler)
    if chirality_vectors is None:
        vectors = default_chirality_vectors(k)
    else:
        vectors = tuple(tuple(vector) for vector in chirality_vectors)
        for vector in vectors:
            if len(vector) != k:
                raise VerificationError(
                    f"chirality vector {vector} has length {len(vector)}, want {k}"
                )
    # The robot-permutation quotient of the module docstring.
    quotient = scheduler == "fsync" and topology.is_ring and placements is None
    total_states = 0
    total_transitions = 0
    for vector in vectors:
        kernel, csr, classes = _build_csr(
            backend, topology, algorithm, vector, max_states, placements,
            scheduler, quotient,
        )
        states, transitions = _counts(kernel, csr, classes)
        total_states += states
        total_transitions += transitions
        targets = topology.nodes
        if (
            prop == "perpetual"
            and topology.is_ring
            and _rotation_closed(kernel, csr, classes)
        ):
            targets = (0,)
        for target in targets:
            allowed = None
            if prop == "live":
                allowed = _avoid_reachable_csr(csr, 1 << target)
            members = _winning_scc_csr(kernel, csr, target, allowed)
            if members is None:
                continue
            if not certificates:
                certificate = None
            else:
                if allowed is not None and csr.on_numpy:
                    allowed = allowed.tolist()
                certificate = _extract_certificate_csr(
                    kernel, vector, csr, target, set(members),
                    _internal_transitions(kernel, csr, members, classes),
                    allowed, classes,
                )
                validate_certificate(certificate, algorithm)
            return ExplorationVerdict(
                algorithm_name=algorithm.name,
                topology=topology,
                k=k,
                explorable=False,
                certificate=certificate,
                states_explored=total_states,
                transitions_explored=total_transitions,
                chirality_vectors=vectors,
                scheduler=scheduler,
            )
        csr = None  # one vector's graph alive at a time
    return ExplorationVerdict(
        algorithm_name=algorithm.name,
        topology=topology,
        k=k,
        explorable=True,
        certificate=None,
        states_explored=total_states,
        transitions_explored=total_transitions,
        chirality_vectors=vectors,
        scheduler=scheduler,
    )


def synthesize_trap(
    algorithm: Algorithm,
    topology: Topology,
    k: int,
    chirality_vectors: Optional[Sequence[Sequence[Chirality]]] = None,
    max_states: int = 2_000_000,
    backend: str = "packed",
    prop: str = "perpetual",
    scheduler: str = "fsync",
) -> TrapCertificate:
    """Produce a validated trap for an instance known to be non-explorable.

    Raises :class:`VerificationError` when the instance is in fact
    explorable (no trap exists).
    """
    verdict = verify_exploration(
        algorithm, topology, k, chirality_vectors, max_states,
        backend=backend, prop=prop, scheduler=scheduler,
    )
    if verdict.explorable or verdict.certificate is None:
        raise VerificationError(
            f"{algorithm.name!r} explores {topology!r} with k={k}: no trap exists"
        )
    return verdict.certificate


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
@dataclass
class _CsrGraph:
    """The canonical CSR form of a reachable packed graph.

    ``states`` ascending packed states; the distinct successors of state
    index ``i`` are ``succs[t]`` for ``indptr[i] <= t < indptr[i + 1]``,
    in the order of their first move in the kernel's per-state move
    order, and ``labels[t]`` is the OR of the labels of every move from
    ``i`` to ``succs[t]``. ``occ`` is the occupied-node bitmask
    per state index and ``seeds`` the seed indices in first-occurrence
    order. All three solver backends normalize to this exact shape, which
    is what makes their certificates bit-identical. The object and packed
    backends hold the five per-state/per-transition fields as Python
    lists, the vector backend as the narrow arrays of
    :func:`~repro.verification.batch_solver.reachable_csr` (``states``
    int64, ``indptr``/``succs`` int32 unless a count passes 2^31,
    ``labels``/``occ`` as narrow as their bits; ``seeds`` is a list
    either way). The solve helpers pick their plain-Python or NumPy form
    by :attr:`on_numpy`; the graph is never converted to lists — the
    Python walks read :attr:`rows`. A robot-permutation
    quotient also carries ``links``, per state the pairs of robot 0's
    class that the transitions entering it swap (:func:`_quotient_exact`);
    ``None`` otherwise.
    """

    states: Sequence[int]
    indptr: Sequence[int]
    labels: Sequence[int]
    succs: Sequence[int]
    occ: Sequence[int]
    seeds: list[int]
    links: Optional[Sequence[int]] = None

    @property
    def on_numpy(self) -> bool:
        """Whether the fields are NumPy arrays (the vector backend)."""
        return not isinstance(self.indptr, list)

    @functools.cached_property
    def rows(self) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """``(indptr, succs, labels)`` for the Python walks, which read
        them one entry at a time: the lists themselves (whose labels may
        pass 63 bits, on rings of more than 62 edges), or the NumPy
        arrays copied once into compact stdlib arrays of the same item
        size (:func:`~repro.verification.batch_solver.compact`). Field by
        field, the NumPy array is then replaced by a view of its copy
        (same dtype and array type), so one copy of each stays alive."""
        if not self.on_numpy:
            return self.indptr, self.succs, self.labels
        np = batch_solver.require_numpy()
        rows = []
        for name in ("indptr", "succs", "labels"):
            values = getattr(self, name)
            row = batch_solver.compact(values)
            setattr(
                self, name,
                np.frombuffer(row, dtype=values.dtype).view(type(values)),
            )
            rows.append(row)
        return tuple(rows)


def _build_csr(
    backend: str,
    topology: Topology,
    algorithm: Algorithm,
    vector: tuple[Chirality, ...],
    max_states: int,
    placements: Optional[Sequence[Sequence[NodeId]]],
    scheduler: str,
    quotient: bool,
) -> tuple[PackedKernel, _CsrGraph, SwapClasses]:
    """One chirality vector's kernel, canonical CSR and the swap classes
    it is quotiented by, built the backend's way; the backend's own
    graph form dies with this frame.

    With ``quotient`` the CSR is first built over orbit representatives;
    when :func:`_quotient_exact` cannot prove its counts exact, the full
    graph is built instead and the classes come back empty.
    """
    kernel = PackedKernel(
        topology, algorithm, vector, max_states=max_states, scheduler=scheduler,
    )
    if backend == "object":
        system = ProductSystem(
            topology, algorithm, vector, max_states=max_states,
            scheduler=scheduler,
        )
        seeds = system.initial_states(placements)
        full = _packed_from_object(kernel, system.reachable(seeds), seeds)

        def build(classes: SwapClasses) -> Optional[_CsrGraph]:
            if not classes:
                return _csr_from_packed(*full)
            return _quotient_of_packed(kernel, *full, classes)
    else:
        packed_seeds = kernel.initial_states(placements)

        def build(classes: SwapClasses) -> Optional[_CsrGraph]:
            if backend == "vector":
                return _CsrGraph(
                    *batch_solver.reachable_csr(kernel, packed_seeds, classes)
                )
            occupied: dict[PackedState, int] = {}
            links: dict[PackedState, int] = {}
            graph = kernel.reachable(
                packed_seeds, occupied, classes,
                links if classes and 0 in classes[0] else None,
            )
            return _csr_from_packed(
                graph, occupied,
                [kernel.canonical(seed, classes) for seed in packed_seeds],
                links if classes else None,
            )

    classes = swap_classes(vector) if quotient else ()
    csr = build(classes) if classes else None
    if csr is None or not _quotient_exact(csr, classes):
        classes = ()
        csr = build(classes)
    return kernel, csr, classes


def _csr_from_packed(
    graph: dict[PackedState, list[PackedTransition]],
    occupied: dict[PackedState, int],
    seeds: Sequence[PackedState],
    links: Optional[dict[PackedState, int]] = None,
) -> _CsrGraph:
    """Canonicalize a scalar-kernel graph dict into CSR arrays (with a
    quotient's per-state ``links``, zero where absent), each state's
    moves merged per successor by an insertion-ordered dict."""
    states = sorted(graph)
    index = {state: i for i, state in enumerate(states)}
    indptr = [0]
    labels: list[int] = []
    succs: list[int] = []
    for state in states:
        row: dict[int, int] = {}
        for mask, succ in graph[state]:
            succ = index[succ]
            row[succ] = row.get(succ, 0) | mask
        succs.extend(row)
        labels.extend(row.values())
        indptr.append(len(labels))
    seed_idx: list[int] = []
    seen: set[int] = set()
    for seed in seeds:
        i = index[seed]
        if i not in seen:
            seen.add(i)
            seed_idx.append(i)
    return _CsrGraph(
        states=states,
        indptr=indptr,
        labels=labels,
        succs=succs,
        occ=[occupied[state] for state in states],
        seeds=seed_idx,
        links=None if links is None else [links.get(s, 0) for s in states],
    )


def _packed_from_object(
    kernel: PackedKernel,
    graph: dict[SysState, list[Transition]],
    seeds: Sequence[SysState],
) -> tuple[
    dict[PackedState, list[PackedTransition]],
    dict[PackedState, int],
    list[PackedState],
]:
    """An object-backend graph in the packed kernel's form.

    Each state is packed with the kernel's encoding and each label
    becomes its bitmask (under SSYNC the activated robots sit at
    ``act_shift``). Returns ``(graph, occupied, seeds)`` as
    :func:`_csr_from_packed` takes them.
    """
    code = {state: kernel.encode(state) for state in graph}
    ssync = kernel.scheduler == "ssync"
    packed: dict[PackedState, list[PackedTransition]] = {}
    for state, out in graph.items():
        transitions = packed[code[state]] = []
        for label, succ in out:
            if ssync:
                present, active = label
                act = sum(1 << robot for robot in active)
                mask = kernel.edges_to_mask(present) | act << kernel.act_shift
            else:
                mask = kernel.edges_to_mask(label)
            transitions.append((mask, code[succ]))
    occupied = {state: kernel.occupied_mask(state) for state in packed}
    return packed, occupied, [code[seed] for seed in seeds]


def _quotient_of_packed(
    kernel: PackedKernel,
    graph: dict[PackedState, list[PackedTransition]],
    occupied: dict[PackedState, int],
    seeds: Sequence[PackedState],
    classes: SwapClasses,
) -> Optional[_CsrGraph]:
    """The robot-permutation quotient of a full packed graph, or ``None``
    when some orbit representative is not itself reachable (then the
    full graph is not closed under the swaps, and no quotient is exact).

    Each representative keeps its own transitions, successors replaced by
    their representatives: the CSR the packed kernel and the vector
    frontier build directly from the same seeds. Its lifts, for
    ``links``, are the real states a breadth-first search of the full
    graph from the first seed representative visits first in each orbit.
    """
    canonical = {state: kernel.canonical(state, classes) for state in graph}
    if any(rep not in graph for rep in canonical.values()):
        return None
    quotient = {
        rep: [(mask, canonical[succ]) for mask, succ in graph[rep]]
        for rep in set(canonical.values())
    }
    reps = [canonical[seed] for seed in seeds]
    lifts = {reps[0]: reps[0]} if reps else {}
    queue = deque(lifts)
    seen = set(lifts)
    while queue:
        for _mask, succ in graph[queue.popleft()]:
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
                lifts.setdefault(canonical[succ], succ)
    links: dict[PackedState, int] = {}
    if 0 in classes[0] and all(rep in lifts for rep in reps):
        for lift in lifts.values():
            for _mask, succ in graph[lift]:
                head = canonical[succ]
                if succ != lifts[head]:
                    links[head] = links.get(head, 0) | kernel.swap_links(
                        succ, lifts[head], classes[0]
                    )
    return _csr_from_packed(quotient, occupied, reps, links)


def _counts(
    kernel: PackedKernel, csr: _CsrGraph, classes: SwapClasses
) -> tuple[int, int]:
    """``(states, transitions)`` of the full graph a CSR stands for: its
    states and their out-degrees, or for a quotient its orbit sizes and
    orbit size times out-degree, summed (exact once
    :func:`_quotient_exact` holds). The CSR merges parallel moves, but
    the occupancy fixes the moves: a state's out-degree is its
    occupancy's adversary moves times the activation columns."""
    if csr.on_numpy:
        degrees = batch_solver.out_degrees(kernel, csr.occ)
        if not classes:
            return len(csr.states), int(degrees.sum())
        sizes = batch_solver.orbit_sizes(kernel, csr.states, classes)
        return int(sizes.sum()), int((sizes * degrees).sum())
    columns = len(kernel.activations)
    states = transitions = 0
    for state, occ in zip(csr.states, csr.occ):
        size = kernel.orbit_size(state, classes) if classes else 1
        states += size
        transitions += size * len(kernel.moves_for_occupied(occ)) * columns
    return states, transitions


def _quotient_exact(csr: _CsrGraph, classes: SwapClasses) -> bool:
    """Whether a quotient's orbit sums are the full graph's counts.

    The sufficient condition the module docstring proves (*Exactness*):
    robot 0 has no partner in its class; or the builder's lifts are
    rooted at the first seed representative, ``root`` (it reached every
    other one; the links are all zero otherwise), and the links of the
    states that reach ``root`` join robot 0 to its whole class. The
    answer depends on the quotient graph only, so all three backends
    agree; when it is ``False`` the caller builds the full graph.
    """
    group = classes[0]
    if not csr.seeds or 0 not in group:
        return True

    def joined(links: int) -> bool:
        """Whether the pairs in ``links`` connect position 0 of
        ``group`` to every other position."""
        size = len(group)
        component = {0}
        grew = True
        while grew:
            grew = False
            for a in range(size):
                for b in range(a + 1, size):
                    if links >> (a * size + b) & 1 and (
                        (a in component) != (b in component)
                    ):
                        component |= {a, b}
                        grew = True
        return len(component) == size

    root = csr.seeds[0]
    if csr.on_numpy:
        found = batch_solver.reaching_links(
            csr.indptr, csr.succs, csr.links, root, joined
        )
    else:
        found = _reaching_links(csr, root, joined)
    return joined(found)


def _reaching_links(csr: _CsrGraph, root: int, joined) -> int:
    """The OR of a list CSR's ``links`` over the states that reach
    ``root``, by a backward search that stops once ``joined`` accepts
    it."""
    indptr = csr.indptr
    preds: list[list[int]] = [[] for _ in csr.states]
    for state in range(len(csr.states)):
        for t in range(indptr[state], indptr[state + 1]):
            preds[csr.succs[t]].append(state)
    found = csr.links[root]
    seen = {root}
    stack = [root]
    while stack and not joined(found):
        for pred in preds[stack.pop()]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
                found |= csr.links[pred]
    return found


def _rotation_closed(
    kernel: PackedKernel, csr: _CsrGraph, classes: SwapClasses = ()
) -> bool:
    """Whether a reached state set is closed under ring rotation, read
    off its seeds (the module docstring's symmetry paragraph).

    Rotation moves every robot from node ``v`` to ``v + 1 (mod n)`` and
    keeps its state. Each seed is rotated, canonicalized on a quotient,
    and looked up by bisection in the ascending ``csr.states`` — a list
    or, on the vector backend, an int64 array.
    """
    S, n, base = kernel.state_count, kernel.n, kernel._base
    states = csr.states
    for seed in csr.seeds:
        rest = int(states[seed])
        rotated = 0
        weight = 1
        for _ in range(kernel.k):
            rest, slot = divmod(rest, base)
            rotated += ((slot // S + 1) % n * S + slot % S) * weight
            weight *= base
        if classes:
            rotated = kernel.canonical(rotated, classes)
        at = bisect.bisect_left(states, rotated)
        if at == len(states) or states[at] != rotated:
            return False
    return True


def _avoid_reachable_csr(csr: _CsrGraph, target_bit: int) -> Sequence[bool]:
    """States reachable from target-avoiding seeds via target-avoiding states.

    This is the live-exploration arena: any play confined to it keeps the
    target unvisited from round 0 onwards. Returns membership flags per
    state index: a list of bools on list CSRs, on the vector backend a
    boolean array from a level-synchronous NumPy BFS.
    """
    if csr.on_numpy:
        return batch_solver.avoid_reachable(
            csr.indptr, csr.succs, csr.occ, csr.seeds, target_bit
        )
    occ = csr.occ
    indptr = csr.indptr
    succs = csr.succs
    allowed = [False] * len(csr.states)
    stack = []
    for seed in csr.seeds:
        if not occ[seed] & target_bit and not allowed[seed]:
            allowed[seed] = True
            stack.append(seed)
    while stack:
        state = stack.pop()
        for t in range(indptr[state], indptr[state + 1]):
            succ = succs[t]
            if not allowed[succ] and not occ[succ] & target_bit:
                allowed[succ] = True
                stack.append(succ)
    return allowed


def _winning_scc_csr(
    kernel: PackedKernel,
    csr: _CsrGraph,
    target: NodeId,
    allowed: Optional[Sequence[bool]] = None,
) -> Optional[list[int]]:
    """The members of an SCC of the target-avoiding subgraph within the
    recurrence budget, in pop order, or ``None``.

    Labels are bitmasks, so a component's recurrent-edge union is the OR
    of its internal pairs' labels and the budget check a popcount; under
    SSYNC the same OR accumulates the activation bits, making the
    fairness check one shift and compare. Tarjan runs iteratively over
    the CSR rows (:attr:`_CsrGraph.rows`) with roots in ascending state
    order and successors in first-move order — fully deterministic, so
    every backend emits the same SCC first. A visited node that already
    belongs to a component carries an index above every low-link (it
    stands in for an on-stack flag), and that index doubles as the
    component's membership tag. States outside the arena (``allowed``,
    for the live property; else the target-avoiding states) are
    pre-tagged the same way before the walk, so it never enters them
    and they never lower a low-link.
    """
    budget = 1 if kernel.topology.is_ring else 0
    full_mask = kernel.full_mask
    ssync = kernel.scheduler == "ssync"
    act_shift = kernel.act_shift
    full_act = kernel.full_act
    if allowed is None:
        target_bit = 1 << target
        if csr.on_numpy:
            allowed = (csr.occ & target_bit) == 0
        else:
            allowed = [not occ & target_bit for occ in csr.occ]
    if not isinstance(allowed, list):
        allowed = allowed.tolist()
    ptr, nxt, pair_label = csr.rows
    size = len(allowed)

    UNSEEN = -1
    index = [UNSEEN if flag else size for flag in allowed]
    low = [0] * size
    cursor = ptr[:-1]
    stack: list[int] = []
    counter = 0
    tag = size + 1  # assigned index of the next component, above every low-link
    for root in range(size):
        if index[root] != UNSEEN:
            continue
        work = [root]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            node = work[-1]
            t = cursor[node]
            end = ptr[node + 1]
            while t < end:
                child = nxt[t]
                t += 1
                seen = index[child]
                if seen == UNSEEN:
                    cursor[node] = t
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    work.append(child)
                    break
                if seen < low[node]:
                    low[node] = seen
            else:
                work.pop()
                link = low[node]
                if work and link < low[work[-1]]:
                    low[work[-1]] = link
                if link != index[node]:
                    continue
                component = []
                while True:
                    member = stack.pop()
                    index[member] = tag
                    component.append(member)
                    if member == node:
                        break
                union = 0
                linked = False
                for member in component:
                    for p in range(ptr[member], ptr[member + 1]):
                        if index[nxt[p]] == tag:
                            union |= pair_label[p]
                            linked = True
                tag += 1
                if not linked:
                    continue
                if (full_mask & ~union).bit_count() > budget:
                    continue
                if ssync and union >> act_shift != full_act:
                    continue
                return component
    return None


def _moves(
    kernel: PackedKernel, state: PackedState, classes: SwapClasses
) -> list[PackedTransition]:
    """One state's real moves, re-expanded in the kernel's order: its
    occupancy's adversary moves, each crossed with the activation
    columns, and the successor :meth:`~PackedKernel.step_packed` reaches
    (canonicalized on a quotient, whose rows a lift's moves give)."""
    out = []
    for mask in kernel.moves_for_occupied(kernel.occupied_mask(state)):
        for act, bits in kernel.activations:
            succ = kernel.step_packed(state, mask, act)
            if classes:
                succ = kernel.canonical(succ, classes)
            out.append((mask | bits, succ))
    return out


def _internal_transitions(
    kernel: PackedKernel,
    csr: _CsrGraph,
    component: list[int],
    classes: SwapClasses = (),
) -> list[_CsrInternal]:
    """Every real transition inside a component, members in order and
    each one's moves in kernel order (:func:`_moves`)."""
    members = {int(csr.states[state]): state for state in component}
    internal: list[_CsrInternal] = []
    for packed, state in members.items():
        for label, succ in _moves(kernel, packed, classes):
            if succ in members:
                internal.append((state, label, members[succ]))
    return internal


def _extract_certificate_csr(
    kernel: PackedKernel,
    chiralities: tuple[Chirality, ...],
    csr: _CsrGraph,
    target: NodeId,
    scc_states: set[int],
    internal: list[_CsrInternal],
    restrict: Optional[list[bool]] = None,
    classes: SwapClasses = (),
) -> TrapCertificate:
    """Build the lasso certificate for a winning SCC.

    The lasso (BFS prefix into the SCC, greedy cover of the recurrent
    edge union, connecting internal walks) is built entirely on flat
    indices and bit-packed labels; only the final prefix/cycle masks and
    the seed state are decoded. Under SSYNC the labels carry the
    activation bits above the edge bits, so the very same greedy cover
    also guarantees every robot of the SCC's activation union is
    activated within one cycle — the fairness the criterion promised.
    The prefix BFS walks the CSR rows (:attr:`_CsrGraph.rows`); each
    step's label is the first real move from its parent to its child,
    found by re-expanding the parent (:func:`_moves`). On a quotient the
    cycle is lifted to a real one (:func:`_lift_cycle`).
    """
    # --- prefix: BFS from the seeds into the SCC (within ``restrict``,
    # the target-avoiding arena, when the property demands it) -----------
    indptr, succs, _labels = csr.rows
    parent: dict[int, Optional[int]] = {}
    queue: deque[int] = deque()
    entry: Optional[int] = None
    for seed in csr.seeds:
        if seed in parent or (restrict is not None and not restrict[seed]):
            continue
        parent[seed] = None
        queue.append(seed)
        if seed in scc_states:
            entry = seed
            break
    while queue and entry is None:
        state = queue.popleft()
        for t in range(indptr[state], indptr[state + 1]):
            succ = succs[t]
            if succ in parent:
                continue
            if restrict is not None and not restrict[succ]:
                continue
            parent[succ] = state
            if succ in scc_states:
                entry = succ
                break
            queue.append(succ)
    if entry is None:  # pragma: no cover - SCC is reachable by construction
        raise VerificationError("winning SCC unreachable from seeds")

    prefix_masks: list[int] = []
    cursor = entry
    while parent[cursor] is not None:
        prev = parent[cursor]
        child = int(csr.states[cursor])
        prefix_masks.append(
            next(
                mask
                for mask, succ in _moves(kernel, int(csr.states[prev]), classes)
                if succ == child
            )
        )
        cursor = prev
    prefix_masks.reverse()
    seed_state = cursor

    # --- cycle: closed walk covering the SCC's recurrent edge union -----
    union = 0
    for _state, mask, _succ in internal:
        union |= mask
    remaining = union
    cover: list[_CsrInternal] = []
    while remaining:
        best = max(internal, key=lambda tr: (tr[1] & remaining).bit_count())
        gain = best[1] & remaining
        if not gain:  # pragma: no cover - remaining ⊆ union by construction
            raise VerificationError("cover construction stalled")
        cover.append(best)
        remaining &= ~gain
    if not cover:
        cover = [internal[0]]

    adjacency: dict[int, list[tuple[int, int]]] = {}
    for state, mask, succ in internal:
        adjacency.setdefault(state, []).append((mask, succ))

    def internal_path(src: int, dst: int) -> list[int]:
        """Masks of a shortest internal walk src → dst within the SCC."""
        if src == dst:
            return []
        back: dict[int, tuple[int, int]] = {}
        bfs: deque[int] = deque([src])
        seen = {src}
        while bfs:
            node = bfs.popleft()
            for mask, succ in adjacency.get(node, ()):
                if succ in seen:
                    continue
                seen.add(succ)
                back[succ] = (node, mask)
                if succ == dst:
                    bfs.clear()
                    break
                bfs.append(succ)
        if dst not in back:  # pragma: no cover - SCC is strongly connected
            raise VerificationError("SCC internal path missing")
        masks: list[int] = []
        node = dst
        while node != src:
            prev, mask = back[node]
            masks.append(mask)
            node = prev
        masks.reverse()
        return masks

    cycle_masks: list[int] = []
    cursor = entry
    for state, mask, succ in cover:
        cycle_masks.extend(internal_path(cursor, state))
        cycle_masks.append(mask)
        cursor = succ
    cycle_masks.extend(internal_path(cursor, entry))
    seed = int(csr.states[seed_state])
    if classes:
        cycle_masks = _lift_cycle(kernel, seed, prefix_masks, cycle_masks)

    realized_union = 0
    for mask in cycle_masks:
        realized_union |= mask
    missing_mask = kernel.full_mask & ~realized_union
    seed_positions, _seed_states = kernel.decode(seed)

    if kernel.scheduler == "ssync":
        prefix_activations = tuple(
            kernel.move_activations(mask) for mask in prefix_masks
        )
        cycle_activations = tuple(
            kernel.move_activations(mask) for mask in cycle_masks
        )
    else:
        prefix_activations = None
        cycle_activations = None
    return TrapCertificate(
        algorithm_name=kernel.algorithm.name,
        topology=kernel.topology,
        chiralities=chiralities,
        seed_positions=seed_positions,
        prefix=tuple(kernel.move_edges(mask) for mask in prefix_masks),
        cycle=tuple(kernel.move_edges(mask) for mask in cycle_masks),
        starved_node=target,
        eventually_missing=kernel.mask_to_edges(missing_mask),
        prefix_activations=prefix_activations,
        cycle_activations=cycle_activations,
    )


def _lift_cycle(
    kernel: PackedKernel, seed: PackedState, prefix: list[int], cycle: list[int]
) -> list[int]:
    """A quotient lasso's cycle, repeated until the real play closes.

    Replayed from the real seed, the prefix ends on some permutation of
    the entry representative and one cycle on that state permuted once
    more, by the cycle's accumulated permutation ``g``; ``m`` cycles close
    the real play exactly when ``g^m`` is the identity on that state, so
    ``m`` divides the order of ``g`` (at most 6 for ``k <= 5``).
    """
    state = seed
    for mask in prefix:
        state = kernel.step_packed(state, mask)
    anchor = state
    lifted: list[int] = []
    for _ in range(math.factorial(kernel.k)):
        for mask in cycle:
            state = kernel.step_packed(state, mask)
        lifted.extend(cycle)
        if state == anchor:
            return lifted
    raise VerificationError(  # pragma: no cover - g has finite order
        "quotient cycle does not close under robot permutations"
    )


__all__ = [
    "PROPERTIES",
    "check_property",
    "default_chirality_vectors",
    "ExplorationVerdict",
    "verify_exploration",
    "synthesize_trap",
]
