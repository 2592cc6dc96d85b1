"""The simulation chunk runner: schedule-dynamics campaigns, table by table.

The exact game solver quantifies over *every* connected-over-time
adversary (``dynamics="highly-dynamic"``). The restricted dynamicity
classes of the paper's related work — periodic rings (Ilcinkas–Wade),
T-interval-connected rings (Kuhn–Lynch–Oshman; Di Luna et al.), random
presence — are a different kind of question: one *fixed* evolving graph,
pinned by the spec's family + params + seed, against which every table of
a robot class is **simulated** over a bounded horizon. This module is the
execution path for those workloads, shaped exactly like
:func:`repro.verification.sweeps.sweep_chunk` so the campaign store,
resume, dedup and report machinery apply unchanged:

* :func:`simulate_chunk` — ``(spec, bits_chunk, backend)``, the solver
  runner's signature — verifies one chunk of table bit-patterns against
  the spec's schedule; returns the same ``(total, trapped, explorers,
  states)`` tally tuple the verification path checkpoints (``states``
  counts simulated rounds — the work proxy of this path);
* one table is **trapped** when *some* chirality vector of the family's
  fallback plan and *some* start placement fails the bounded-horizon
  exploration check — the same universal quantification the solver
  applies, evaluated on the concrete schedule;
* the bounded-horizon check mirrors the two game properties:
  ``prop="live"`` demands every node visited at least once within the
  horizon; ``prop="perpetual"`` demands every node visited in *both*
  halves of the horizon (a finite recurrence proxy: visits that stop
  after the first half fail it).

**Backends.** Like the exact path, the simulation path has multiple
execution substrates with one semantics:

* ``backend="vector"`` (the fastest; requires NumPy, an *optional*
  dependency) decodes the chunk's bit patterns straight into one
  ``(B, S·8)`` table stack
  (:func:`~repro.verification.sweeps.family_tables`, the stack the dense
  solver reads) and steps all (table, chirality-vector, placement) runs
  of a chunk in NumPy lockstep — structure-of-arrays rows, one
  fancy-index gather per robot per round, per-row done masks with
  periodic compaction (:mod:`repro.verification.batch`); it builds a
  table object only for an explorer's name;
* ``backend="packed"`` compiles each table once per
  chirality vector into flat integer tables
  (:class:`~repro.verification.compiled.CompiledTables` — the same
  compilation the game solver's :class:`~repro.verification.kernel
  .PackedKernel` consumes), precompiles the schedule into an edge-bitmask
  array (:func:`~repro.scenarios.dynamics.schedule_masks`), and runs the
  bounded-horizon check on packed occupancy bitsets, one round-table
  lookup per active robot and round;
* ``backend="object"`` drives :func:`repro.sim.engine.step_round` per
  round — the semantics oracle, kept as the differential reference.

``packed`` and ``object`` share one per-table loop and differ only in
the run function they plug into it: one bounded run of one table under
one chirality vector from one placement.

All backends produce byte-identical tallies (differentially tested in
``tests/test_simulate.py`` and ``tests/test_batch.py``), so the backend
is an execution detail, never part of a scenario's identity: scenario
hashes, chunk records and campaign report bytes are backend-independent,
and a campaign checkpointed under one backend resumes cleanly under any
other. ``backend="auto"`` (the default) resolves vector → packed by
NumPy availability; the backend registry
(:mod:`repro.verification.backends`) is the single source of the choice
set shared with the CLI and the campaign runner.

Start placements are **not** rotation-reduced here: a concrete schedule
names absolute edges at absolute times, so ring rotations are *not*
execution-isomorphic (unlike under the universally-quantified adversary).
``starts="well"`` expands to every ordered towerless placement,
``starts="arbitrary"`` to every ordered placement, towers included.

Determinism: a chunk worker rebuilds the schedule from the spec (seeded
families reproduce their draws exactly — see
:mod:`repro.scenarios.dynamics`), precomputes the horizon's present-edge
sets once, and runs each table from round 0 — so a chunk's tally is a
pure function of ``(spec, chunk)``: identical across worker counts,
backends, interrupts and hosts, which is what makes simulation campaign
reports byte-identical under resume.

Under ``scheduler="ssync"`` each round activates exactly one robot,
round-robin (``t mod k``) — a deterministic, fair activation schedule
(every robot acts every ``k`` rounds), the oblivious counterpart of the
solver's adversarial activation subsets.
"""

from __future__ import annotations

import itertools
import time
from functools import partial
from typing import Optional, Sequence

from repro import telemetry
from repro.graph.topology import RingTopology, towerless_placements
from repro.scenarios import faults
from repro.robots.algorithms.base import Algorithm
from repro.scenarios.dynamics import build_schedule, schedule_masks
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import make_initial_configuration, step_round
from repro.types import Chirality, EdgeId, NodeId, RobotId
from repro.verification.backends import resolve_solver_backend
from repro.verification.compiled import CompiledTables
from repro.verification.sweeps import (
    _ChunkOutcome,
    family_maker,
    family_plan,
    family_tables,
)


def simulation_placements(
    starts: str, topology: RingTopology, k: int
) -> list[tuple[NodeId, ...]]:
    """Every start placement a simulated table must survive.

    Rotation reduction is deliberately absent (see the module docstring):
    ``"well"`` is all ordered towerless placements, ``"arbitrary"`` all
    ordered placements including towers.
    """
    if starts == "well":
        return list(towerless_placements(topology, k))
    return list(itertools.product(topology.nodes, repeat=k))


def _bounded_explores(
    topology: RingTopology,
    steps: Sequence[frozenset[EdgeId]],
    activations: Optional[Sequence[frozenset[RobotId]]],
    prop: str,
    algorithm: Algorithm,
    chiralities: Sequence[Chirality],
    placement: Sequence[NodeId],
) -> tuple[bool, int]:
    """One bounded run on the object engines; returns ``(explored, rounds)``.

    Early exits keep trapped tables cheap: a ``live`` run stops the round
    every node has been seen, and a ``perpetual`` run fails at mid-horizon
    if the first window already missed a node (the second window cannot
    repair it) and succeeds the round the second window completes.
    """
    configuration = make_initial_configuration(
        topology, algorithm, placement, chiralities
    )
    nodes = frozenset(topology.nodes)
    horizon = len(steps)
    mid = horizon // 2
    seen = set(configuration.positions)
    late: set[NodeId] = set()
    if prop == "live" and seen == nodes:
        return True, 0
    for t in range(horizon):
        configuration, _views, _moved = step_round(
            topology, algorithm, configuration, steps[t],
            None if activations is None else activations[t],
        )
        if t < mid:
            seen.update(configuration.positions)
        else:
            late.update(configuration.positions)
        if prop == "live":
            if seen | late == nodes:
                return True, t + 1
        else:
            if t + 1 == mid and seen != nodes:
                # The first window already starved a node: recurrence
                # within the horizon is unachievable, stop here.
                return False, t + 1
            if seen == nodes and late == nodes:
                return True, t + 1
    if prop == "live":
        return seen | late == nodes, horizon
    return seen == nodes and late == nodes, horizon


def _bounded_explores_packed(
    masks: Sequence[int],
    ssync: bool,
    prop: str,
    full_nodes: int,
    tables: CompiledTables,
    placement: Sequence[NodeId],
) -> tuple[bool, int]:
    """The packed twin of :func:`_bounded_explores`.

    Identical early-exit structure, identical round counts — ``seen`` and
    ``late`` are occupancy bitsets instead of node sets, and each robot
    keeps one slot (``node · S + state``) that one lookup in its round
    table (:attr:`CompiledTables.round_tables`) advances per round,
    instead of an engine stepping over frozensets. A robot's view reads
    only its own slot plus the precomputed multiplicity bits, so slots
    update in place mid-round without perturbing the simultaneous Look —
    the same order-independence ``step_packed`` relies on.
    """
    round_tables = tables.round_tables
    port_masks = tables.port_masks
    S = tables.state_count
    k = tables.k
    all_robots = tuple(range(k))
    horizon = len(masks)
    mid = horizon // 2
    slots = [position * S + tables.initial_index for position in placement]
    seen = 0
    for position in placement:
        seen |= 1 << position
    late = 0
    if prop == "live" and seen == full_nodes:
        return True, 0
    live = prop == "live"
    for t in range(horizon):
        mask = masks[t]
        occupied = 0
        towers = 0
        for slot in slots:
            bit = 1 << slot // S
            if occupied & bit:
                towers |= bit
            occupied |= bit
        if ssync:
            # Round-robin SSYNC: exactly robot t mod k acts this round.
            active = (t % k,)
        else:
            active = all_robots
        for i in active:
            left_masks, right_masks = port_masks[i]
            slot = slots[i]
            node = slot // S
            view = slot * 8
            if mask & left_masks[node]:
                view += 4
            if mask & right_masks[node]:
                view += 2
            if towers >> node & 1:
                view += 1
            slots[i] = round_tables[i][view]
        occupancy = 0
        for slot in slots:
            occupancy |= 1 << slot // S
        if t < mid:
            seen |= occupancy
        else:
            late |= occupancy
        if live:
            if seen | late == full_nodes:
                return True, t + 1
        else:
            if t + 1 == mid and seen != full_nodes:
                return False, t + 1
            if seen == full_nodes and late == full_nodes:
                return True, t + 1
    if live:
        return seen | late == full_nodes, horizon
    return seen == full_nodes and late == full_nodes, horizon


def simulate_chunk(
    spec: ScenarioSpec, bits_chunk: Sequence[int], backend: str = "auto"
) -> _ChunkOutcome:
    """Simulate one chunk of table bit-patterns against the spec's schedule.

    The simulation twin of :func:`repro.verification.sweeps.sweep_chunk`
    — the same ``(spec, bits_chunk, backend)`` shape — and the unit of
    work the campaign runner checkpoints for schedule-dynamics
    scenarios. Deterministic for a fixed ``(spec, bits_chunk)`` pair —
    re-runnable on any backend, worker, process or host with an
    identical tally. ``backend`` picks the execution substrate
    (``"vector"``/``"packed"``/``"object"``; see the module docstring);
    ``"auto"`` resolves to the fastest available one
    (:func:`repro.verification.backends.resolve_solver_backend`).
    """
    backend = resolve_solver_backend(backend)
    topology = RingTopology(spec.n)
    schedule = build_schedule(
        spec.dynamics, spec.dynamics_params, spec.dynamics_seed, topology
    )
    assert spec.horizon is not None  # guaranteed by spec validation
    k = spec.robots.k
    ssync = spec.scheduler == "ssync"
    placements = simulation_placements(spec.starts, topology, k)
    family = spec.robots.family
    maker = family_maker(family)
    vectors = [
        tuple(vector) for stage in family_plan(family) for vector in stage
    ]
    total = len(bits_chunk)
    faults.fault_point("simulate-entry")
    midpoint = total // 2

    # Phase accounting, armed-gated so the untraced hot loop pays one
    # boolean: "compile" is the schedule precompute plus each table's
    # compilation, the rest of the chunk is "simulate" (the vector
    # kernel splits it into "gather" and "compact"). Emitted once per
    # chunk as phase.* spans — the tally never depends on it.
    traced = telemetry.armed()
    start = time.perf_counter()
    if backend == "vector":
        # The NumPy lockstep kernel steps every (table, chirality-vector,
        # placement) run of the chunk at once on the family's decoded
        # table stack, and reproduces the scalar first-failure accounting
        # exactly (see repro.verification.batch): the tally is
        # byte-identical to the packed path's.
        from repro.verification import batch

        masks = schedule_masks(schedule, spec.horizon)
        tables = family_tables(family, bits_chunk)
        compile_s = time.perf_counter() - start
        if midpoint:
            faults.fault_point("simulate-mid")
        trapped_flags, rounds, timings = batch.simulate_batch(
            topology, tables, vectors, placements, masks, ssync, spec.prop
        )
        explorers = [
            maker(bits).name
            for bits, hit in zip(bits_chunk, trapped_flags)
            if not hit
        ]
        if traced:
            timings["compile"] += compile_s
            for name in ("compile", "gather", "compact"):
                telemetry.phase(name, timings[name], tables=total)
        return total, sum(trapped_flags), explorers, rounds

    # The scalar backends differ only in how one table meets one
    # chirality vector: ``bind(algorithm, chiralities)`` returns the run
    # function of one placement, ``(explored, rounds)``.
    if backend == "packed":
        # The horizon's present-edge sets become one flat edge-bitmask
        # array; each table compiles once per chirality vector.
        masks = schedule_masks(schedule, spec.horizon)
        full_nodes = (1 << spec.n) - 1

        def bind(algorithm, chiralities):
            tables = CompiledTables(
                topology, algorithm, chiralities, scheduler=spec.scheduler
            )
            return partial(
                _bounded_explores_packed, masks, ssync, spec.prop,
                full_nodes, tables,
            )
    else:
        steps = [schedule.present_edges(t) for t in range(spec.horizon)]
        activations = (
            [frozenset({t % k}) for t in range(spec.horizon)] if ssync else None
        )

        def bind(algorithm, chiralities):
            return partial(
                _bounded_explores, topology, steps, activations, spec.prop,
                algorithm, chiralities,
            )
    compile_s = time.perf_counter() - start if traced else 0.0
    trapped = rounds = 0
    explorers: list[str] = []
    for position, bits in enumerate(bits_chunk):
        if position == midpoint and position:
            faults.fault_point("simulate-mid")
        algorithm = maker(bits)
        hit = False
        for chiralities in vectors:
            if traced:
                mark = time.perf_counter()
            run = bind(algorithm, chiralities)
            if traced:
                compile_s += time.perf_counter() - mark
            for placement in placements:
                explored, executed = run(placement)
                rounds += executed
                if not explored:
                    hit = True
                    break
            if hit:
                break
        if hit:
            trapped += 1
        else:
            explorers.append(algorithm.name)
    if traced:
        simulate_s = max(0.0, time.perf_counter() - start - compile_s)
        telemetry.phase("compile", compile_s, tables=total)
        telemetry.phase("simulate", simulate_s, tables=total)
    return total, trapped, explorers, rounds


__all__ = [
    "simulate_chunk",
    "simulation_placements",
]
