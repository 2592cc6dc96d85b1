"""The one class-sweep engine: sharded algorithm-class verification.

A sweep discharges a universally quantified impossibility claim by
verifying every member of a finite algorithm class. The class is a
:class:`~repro.scenarios.spec.ScenarioSpec` — the same plan a campaign
runs: table family, sample and seed, ring size, scheduler, start policy
and property. :func:`run_table_sweep` expands it, splits the bit
patterns into contiguous chunks, settles them through the campaign
runner's chunk executor (:mod:`repro.scenarios.executor` — in-process
for ``jobs=1``, one forked worker per chunk attempt otherwise, with
dead workers respawned) and merges the per-chunk tallies *in chunk
order* — so the resulting :class:`SweepResult` (totals, explorer names
and their order, state counts) is byte-identical for any worker count,
and for every verification backend (``vector``, ``packed``, ``object``
— ``auto`` resolves by NumPy availability). ``jobs=None`` uses every
available core. A sweep is a campaign without a store: no
checkpoints, no resume, the same tallies.

A chunk is a sequence of bit patterns (a tuple, or a ``range`` for an
exhaustive campaign), and :func:`sweep_chunk` takes
``(spec, bits_chunk, backend)`` like the simulation runner
(:func:`repro.scenarios.simulate.simulate_chunk`). It walks the
family's chirality-fallback plan in one stage-major loop — cheap
vectors first, the expensive mixed vectors only for tables that
survive — and solves each vector for every pending table at once: on
``vector`` the chunk is decoded straight into one NumPy table stack and
solved in lockstep, building table objects only for explorers' names;
on ``packed`` and ``object`` (and for instances too large for the
dense solver) each pending table is rebuilt from its pattern and
verified alone.

:func:`repro.verification.enumeration.sweep_spec` builds the specs of
the theorems' classes (``sweep`` and ``table1`` use it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from repro import telemetry
from repro.errors import ScenarioError, VerificationError
from repro.graph.topology import RingTopology, arbitrary_placements
from repro.robots.algorithms.tables import (
    TableAlgorithm,
    memory2_table_from_bits,
    memoryless_single_robot_table_from_bits,
    memoryless_table_from_bits,
)
from repro.scenarios import faults
from repro.scenarios.executor import ChunkExecutor, RetryPolicy
from repro.types import NodeId
from repro.verification import batch_solver
from repro.verification.backends import import_backend, resolve_solver_backend
from repro.verification.families import (
    FAMILIES,
    START_POLICIES,
    TABLE_FAMILIES,
    available_cpus,
    check_family,
    family_k,
    family_space,
    resolve_jobs,
)
from repro.verification.game import verify_exploration
from repro.verification.kernel import PackedKernel

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec


@dataclass
class SweepResult:
    """Aggregate outcome of an algorithm-class sweep."""

    description: str
    n: int
    k: int
    total: int
    trapped: int
    explorers: list[str] = field(default_factory=list)
    states_explored: int = 0

    @property
    def all_trapped(self) -> bool:
        """Whether every member of the class failed (the theorems' claim)."""
        return self.trapped == self.total and not self.explorers

    def summary(self) -> str:
        """One-line human summary for reports."""
        status = "ALL TRAPPED" if self.all_trapped else (
            f"{len(self.explorers)} UNEXPECTED EXPLORERS: {self.explorers[:5]}"
        )
        return (
            f"{self.description} (n={self.n}, k={self.k}): "
            f"{self.trapped}/{self.total} trapped — {status}"
        )


class _Family(NamedTuple):
    """One table family: its robots, plan, constructor and pattern code.

    ``k``, ``space`` and ``plan`` are the family's data entry, unpacked
    from :data:`repro.verification.families.FAMILIES` (the one source).
    Table entry ``i`` is ``width``-bit digit ``digits[i]`` of the pattern
    — the bijection ``maker`` implements, restated for
    :func:`~repro.verification.batch_solver.decode_tables`.
    """

    k: int
    space: int
    plan: tuple
    maker: Callable[[int], TableAlgorithm]
    width: int
    digits: tuple[int, ...]


_FAMILIES: dict[str, _Family] = {
    # Multiplicity detection never fires with k = 1: the others-present
    # entries mirror the others-clear ones (view bit 0 is dropped).
    "single": _Family(
        *FAMILIES["single"],
        maker=memoryless_single_robot_table_from_bits,
        width=1,
        digits=tuple(i >> 1 for i in range(16)),
    ),
    "two": _Family(
        *FAMILIES["two"],
        maker=memoryless_table_from_bits,
        width=1,
        digits=tuple(range(16)),
    ),
    "two-m2": _Family(
        *FAMILIES["two-m2"],
        maker=memory2_table_from_bits,
        width=2,
        digits=tuple(range(32)),
    ),
}

_ChunkOutcome = tuple[int, int, list[str], int]
"""A chunk runner's tally: ``(total, trapped, explorer names in input
order, work)``, the work being states explored (:func:`sweep_chunk`) or
rounds simulated (:func:`repro.scenarios.simulate.simulate_chunk`)."""


def family_plan(family: str) -> tuple:
    """The chirality fallback plan of a table family."""
    return check_family(family).plan


def family_maker(family: str):
    """The bits → :class:`TableAlgorithm` constructor of a table family."""
    check_family(family)
    return _FAMILIES[family].maker


def check_start_policy(starts: str) -> str:
    """Validate a start-policy name."""
    if starts not in START_POLICIES:
        raise VerificationError(
            f"unknown start policy {starts!r}; choose from {START_POLICIES}"
        )
    return starts


def start_placements(
    starts: str, topology: RingTopology, k: int
) -> Optional[list[tuple[NodeId, ...]]]:
    """The verifier seed placements of a start policy.

    ``None`` means the verifier default (well-initiated towerless starts,
    rotation-reduced); the ``"arbitrary"`` policy quantifies over every
    placement, towers included.
    """
    check_start_policy(starts)
    if starts == "well":
        return None
    return arbitrary_placements(topology, k)


def family_tables(family: str, patterns: Sequence[int]) -> "object":
    """The ``(B, S·8)`` int64 Look–Compute stack of a family's patterns.

    Row ``b`` equals ``family_maker(family)(patterns[b]).packed_tables()[1]``,
    decoded with shifts and masks
    (:func:`~repro.verification.batch_solver.decode_tables`) instead of
    one :class:`TableAlgorithm` per pattern. A pattern outside the
    family's domain raises the constructor's own :class:`AlgorithmError`.
    """
    check_family(family)
    fam = _FAMILIES[family]
    if patterns:
        for bits in (min(patterns), max(patterns)):
            if not 0 <= bits < fam.space:
                fam.maker(bits)
    return batch_solver.decode_tables(patterns, fam.width, fam.digits)


def sweep_chunk(
    spec: "ScenarioSpec",
    bits_chunk: Sequence[int],
    backend: str = "auto",
) -> _ChunkOutcome:
    """Verify one chunk of ``spec``'s table bit-patterns, in-process.

    The unit of work of both the sweep and the campaign runner's
    checkpointing, shaped like
    :func:`repro.scenarios.simulate.simulate_chunk`: deterministic for a
    fixed ``(spec, bits_chunk)``, so a chunk can be re-run anywhere
    (another worker, process or machine) and tally identically.

    One loop walks the family's chirality plan stage by stage with one
    list of pending tables; a table leaves it at the first vector that
    traps it. Each vector is solved for every pending table at once by
    the dense :func:`~repro.verification.batch_solver.solve_tables` (on
    ``vector``, when the product space is
    :func:`~repro.verification.batch_solver.dense_eligible`: the chunk is
    decoded into one table stack and no table object is built) or else
    table by table by :func:`~repro.verification.game.verify_exploration`
    without certificates. Explorers' names are built last, in input
    order.
    """
    backend = resolve_solver_backend(backend)
    fam = _FAMILIES[spec.robots.family]
    # Setup is the "compile" phase; the dense solver adds its own compile
    # time and splits solving into "frontier" and "scc", the per-table
    # solver's whole stage loop is "simulate" (see docs/observability.md).
    mark = time.perf_counter()
    topology = RingTopology(spec.n)
    placements = start_placements(spec.starts, topology, fam.k)
    member = fam.maker(0)
    if backend == "vector" and batch_solver.dense_eligible(
        PackedKernel(topology, member, fam.plan[0][0], scheduler=spec.scheduler)
    ):
        tables = family_tables(spec.robots.family, bits_chunk)
        phases = ("compile", "frontier", "scc")

        def solve(vector, pending, timings):
            # The dense space is table-independent: one fixed family
            # member supplies the kernel's geometry.
            kernel = PackedKernel(
                topology, member, vector, scheduler=spec.scheduler
            )
            return batch_solver.solve_tables(
                kernel, tables[pending], kernel.initial_states(placements),
                spec.prop, timings=timings,
            )
    else:
        phases = ("compile", "simulate")

        def solve(vector, pending, timings):
            start = time.perf_counter()
            hit, reached = [], []
            for index in pending:
                # A sweep only tallies verdicts: no lasso is extracted.
                verdict = verify_exploration(
                    fam.maker(bits_chunk[index]), topology, k=fam.k,
                    chirality_vectors=(vector,), backend=backend,
                    certificates=False,
                    placements=placements, prop=spec.prop,
                    scheduler=spec.scheduler,
                )
                hit.append(not verdict.explorable)
                reached.append(verdict.states_explored)
            timings["simulate"] = timings.get("simulate", 0.0) + (
                time.perf_counter() - start
            )
            return hit, reached

    timings: dict = {"compile": time.perf_counter() - mark}
    faults.fault_point("sweep-entry")
    total = len(bits_chunk)
    pending = list(range(total))
    states = 0
    for step, vector in enumerate(chain.from_iterable(fam.plan)):
        if not pending:
            break
        hit, reached = solve(vector, pending, timings)
        states += sum(reached)
        pending = [index for index, trap in zip(pending, hit) if not trap]
        # The chunk is atomic, so mid-chunk means after the first vector.
        if step == 0 and total > 1:
            faults.fault_point("sweep-mid")
    explorers = [fam.maker(bits_chunk[index]).name for index in pending]
    if telemetry.armed():
        for name in phases:
            telemetry.phase(name, timings.get(name, 0.0), tables=total)
    return total, total - len(pending), explorers, states


# Every chunk attempt forks a worker that builds its dense space afresh,
# so fewer chunks cost less. Measured on a 2-core host, 10 alternating
# rounds of `sweep --robots 2 --n 5 --sample 16384 --jobs 2`: median wall
# 1.00 s at one chunk per worker, 1.04 s at two, 1.08 s at four. The cap
# bounds one chunk's table stack: the exhaustive 65,536-table n=4 sweep at
# `--jobs 1` peaked at 61.5 MB RSS as one chunk, 46.8 MB as four.
_MAX_CHUNK_TABLES = 16384


def _chunked(patterns: Sequence[int], jobs: int) -> list[tuple[int, ...]]:
    """Split into contiguous chunks: one per worker, capped in size.

    Contiguity plus in-order merging is what makes the sweep outcome
    independent of both the chunk size and the workers' scheduling.
    """
    size = max(1, min(_MAX_CHUNK_TABLES, -(-len(patterns) // jobs)))
    return [tuple(patterns[i : i + size]) for i in range(0, len(patterns), size)]


def run_table_sweep(
    spec: "ScenarioSpec",
    backend: str = "packed",
    jobs: Optional[int] = 1,
) -> SweepResult:
    """Verify every table of ``spec``'s class and tally the verdicts.

    Chunks settle through the one chunk executor
    (:class:`~repro.scenarios.executor.ChunkExecutor`): in-process at
    ``jobs=1``, one forked worker per chunk attempt otherwise. A dead
    worker is respawned with backoff, and a chunk that fails every
    attempt raises :class:`~repro.errors.ChunkPoisonedError` (a sweep has
    no store to quarantine into). Deterministic by construction: chunks
    are contiguous and merge in index order, so explorers arrive in input
    order whatever ``jobs`` is. Only ``highly-dynamic`` specs are
    solvable; a schedule-family spec runs as a simulation campaign.
    """
    if spec.dynamics != "highly-dynamic":
        raise ScenarioError(
            f"scenario {spec.name!r} has {spec.dynamics!r} dynamics; a table "
            "sweep solves the 'highly-dynamic' adversary only — run it as "
            "a campaign"
        )
    backend = resolve_solver_backend(backend)
    jobs = resolve_jobs(jobs)
    # spec.chunk_size sets a campaign's checkpoint boundaries; a sweep has
    # no checkpoints, so it cuts for its workers instead.
    chunks = _chunked(spec.expand_patterns(), jobs)
    import_backend(backend)
    work = partial(sweep_chunk, spec, backend=backend)
    executor = ChunkExecutor(
        work, jobs, RetryPolicy(quarantine=False), faults.active_plan()
    )
    tallies = dict(executor.settle(list(enumerate(chunks))))
    result = SweepResult(spec.description, spec.n, spec.robots.k, 0, 0)
    for index in range(len(chunks)):
        total, trapped, explorers, states = tallies[index][1]
        result.total += total
        result.trapped += trapped
        result.explorers.extend(explorers)
        result.states_explored += states
    return result


__all__ = [
    "START_POLICIES",
    "TABLE_FAMILIES",
    "SweepResult",
    "available_cpus",
    "check_start_policy",
    "family_k",
    "family_maker",
    "family_plan",
    "family_space",
    "family_tables",
    "resolve_jobs",
    "run_table_sweep",
    "start_placements",
    "sweep_chunk",
]
