"""The persistent campaign runner: resumable sweeps over scenario specs.

A *campaign* is one scenario executed to completion, checkpointed chunk by
chunk in a :class:`~repro.scenarios.store.ResultStore`. Every registered
dynamics family is executable: ``"highly-dynamic"`` scenarios run on the
exact game solver (:func:`~repro.verification.sweeps.sweep_chunk`), and
schedule-family scenarios run on the simulation chunk runner
(:func:`~repro.scenarios.simulate.simulate_chunk`) against their pinned
schedule parameterization. Both paths produce the same record schema and
both offer the same backend family with byte-identical tallies — a NumPy
``vector`` lockstep kernel, a packed int kernel and the engine oracle on
either path (``auto``, the default choice, resolves vector → packed by
NumPy availability) — so the store, resume, dedup and reporting
machinery below is shared — and backend-agnostic. The
contract:

* **Deterministic work units.** The scenario expands to a fixed pattern
  stream cut into fixed-size chunks (never dependent on worker count), and
  the chunk runner of either path tallies each chunk identically on any
  backend, worker or host.
* **Interrupt safety.** A chunk checkpoints only once settled; killing a
  campaign loses at most the chunks in flight. Resuming verifies exactly
  the missing chunks and produces a final report *byte-identical* to an
  uninterrupted run's — the report is a pure function of the spec and the
  per-chunk tallies, merged in chunk order. SIGINT/SIGTERM are caught at
  chunk boundaries, so a Ctrl-C never tears a non-final record.
* **Dedup.** Re-running a completed campaign is a cache hit: zero chunks
  re-verified, the same report bytes re-emitted.
* **Fault tolerance.** Every chunk settles through the one supervisor
  state machine of :mod:`repro.scenarios.executor`, at every ``jobs``:
  dead workers are detected (a crash is an event, not a hang), the
  :class:`RetryPolicy` per-chunk deadline is enforced, and failed
  attempts — exceptions included — are retried with exponentially
  backed-off, deterministically jittered delays. A chunk that exhausts
  its attempts is *quarantined* — recorded as failed in the store — and
  the campaign settles **degraded** instead of losing the run; ``campaign
  retry-failed`` re-executes exactly the quarantined chunks.

The runner parallelizes *across* chunks (``jobs``), writing each record
as its chunk lands; record order on disk is scheduling-dependent, merged
order never is. Without an explicit ``jobs``, a run whose chunks cost
less than forking for them settles in the parent (:func:`plan_jobs`).
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Optional, Sequence

from repro._lazy import lazy_exports
from repro.errors import (
    CampaignDegradedError,
    CampaignIncompleteError,
    CampaignInterruptedError,
    ScenarioError,
    StoreCorruptionError,
    VerificationError,
)
from repro import telemetry
from repro.scenarios import faults
from repro.scenarios.executor import ChunkExecutor, RetryPolicy
from repro.scenarios.faults import FaultPlan
from repro.telemetry import TelemetryConfig
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import (
    RecoveryReport,
    ResultStore,
    chunk_digest,
    is_failure_record,
)
from repro.verification.backends import (
    check_backend_choice,
    import_backend,
    resolve_solver_backend,
)
from repro.verification.families import resolve_jobs

# Reading a store never pays for the solver, the simulator or
# multiprocessing: the chunk runners are imported when chunks are
# pending (see :meth:`CampaignRunner._run`), and stay reachable as
# ``repro.scenarios.campaign.sweep_chunk``/``simulate_chunk``, resolved
# on first access.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "simulate_chunk": "repro.scenarios.simulate",
        "sweep_chunk": "repro.verification.sweeps",
    },
)

CAMPAIGN_REPORT_VERSION = 1

# Serial seconds one table costs on each concrete backend, and the wall
# clock one forked attempt adds to its chunk (spawn, the child's fresh
# pages, reaping), measured on a 2-core host. A thm41-two-n4 chunk costs
# 9 µs per table on vector warm and 19 µs cold (12–280 µs on the other
# registered families), 0.1–3.7 ms per table on packed and 0.4–53 ms on
# object. The fork cost solves `--jobs 1` = C·c and `--jobs 2` =
# C·(c + f)/2 for thm41-two-n4: 0.90 and 1.12 s for C = 64 chunks, less
# about 0.25 s of startup common to both. One cost per backend is only
# checked where it was measured: past MEASURED_WORKERS workers a slow
# vector family (18 ms chunks, estimated at 4 ms) would lose its
# parallelism, so such a run keeps one worker per core.
TABLE_COST_S = {"vector": 15e-6, "packed": 1.5e-3, "object": 10e-3}
FORK_OVERHEAD_S = 0.018
MEASURED_WORKERS = 2


def plan_jobs(
    jobs: Optional[int],
    cpus: int,
    chunk_tables: Sequence[int],
    backend: str,
    chunk_timeout: Optional[float] = None,
) -> tuple[int, float]:
    """``(jobs, estimated seconds of one chunk)`` for one campaign run.

    An explicit ``jobs`` is kept. Otherwise ``w = min(cpus, chunks)``
    forked workers settle ``C`` chunks of serial cost ``c`` in about
    ``C·(c + f)/w`` against ``C·c`` in the parent, so the run forks up to
    ``cpus`` workers only when ``c·(w − 1) > f`` (``f`` is
    :data:`FORK_OVERHEAD_S`), and runs every attempt in the parent
    otherwise. ``c`` is the mean pending chunk's table count × the
    backend's :data:`TABLE_COST_S`. A deadline needs a worker to kill,
    and ``w`` above :data:`MEASURED_WORKERS` is outside what the
    constants were measured at, so both always fork.
    """
    chunk_s = (
        sum(chunk_tables) / len(chunk_tables) * TABLE_COST_S[backend]
        if chunk_tables
        else 0.0
    )
    if jobs is not None:
        return jobs, chunk_s
    workers = min(cpus, len(chunk_tables))
    if (
        chunk_timeout is not None
        or workers > MEASURED_WORKERS
        or chunk_s * (workers - 1) > FORK_OVERHEAD_S
    ):
        return cpus, chunk_s
    return 1, chunk_s


@dataclass(frozen=True)
class CampaignStatus:
    """Progress and partial tallies of one campaign.

    ``chunks_done`` counts *verified* chunks only; quarantined chunks are
    ``chunks_failed`` (their indices in ``failed_chunks``) and contribute
    nothing to the tallies.
    """

    name: str
    scenario_id: str
    chunks_total: int
    chunks_done: int
    chunks_failed: int
    failed_chunks: tuple[int, ...]
    total: int
    trapped: int
    explorers: tuple[str, ...]
    states_explored: int

    @property
    def complete(self) -> bool:
        """Whether every chunk verified successfully."""
        return self.chunks_done == self.chunks_total

    @property
    def settled(self) -> bool:
        """Whether every chunk is accounted for (verified *or* failed)."""
        return self.chunks_done + self.chunks_failed == self.chunks_total

    @property
    def degraded(self) -> bool:
        """Whether the campaign settled with quarantined chunks."""
        return self.settled and self.chunks_failed > 0

    @property
    def all_trapped(self) -> bool:
        """Whether the campaign *completed* with every member trapped.

        Deliberately false for partial or degraded campaigns, however
        unanimous the tallies so far: the theorems' claim is about the
        whole class, and a sliced, interrupted or quarantine-holed run
        must not read as a discharge.
        """
        return self.complete and self.trapped == self.total and not self.explorers

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        if self.complete:
            state = "complete"
        elif self.degraded:
            state = "degraded"
        else:
            state = "in progress"
        line = (
            f"{self.name} [{self.scenario_id}] {state}: "
            f"{self.chunks_done}/{self.chunks_total} chunks, "
            f"{self.trapped}/{self.total} trapped"
            + (f", {len(self.explorers)} explorers" if self.explorers else "")
        )
        if self.chunks_failed:
            line += (
                f"; {self.chunks_failed} chunks quarantined "
                f"{list(self.failed_chunks)} — `campaign retry-failed`"
            )
        return line

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form (``campaign status --json``).

        Fields plus the derived predicates, so consumers never
        re-implement the settled/degraded logic.
        """
        return {
            "name": self.name,
            "scenario_id": self.scenario_id,
            "chunks_total": self.chunks_total,
            "chunks_done": self.chunks_done,
            "chunks_failed": self.chunks_failed,
            "failed_chunks": list(self.failed_chunks),
            "total": self.total,
            "trapped": self.trapped,
            "explorers": list(self.explorers),
            "states_explored": self.states_explored,
            "complete": self.complete,
            "settled": self.settled,
            "degraded": self.degraded,
            "all_trapped": self.all_trapped,
        }


@dataclass(frozen=True)
class CampaignRunOutcome:
    """What one :meth:`CampaignRunner.run` call did."""

    status: CampaignStatus
    chunks_run: int
    chunks_cached: int
    report_path: Optional[Path]

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        line = (
            f"{self.status.summary()} — ran {self.chunks_run} chunks, "
            f"{self.chunks_cached} cached"
        )
        if self.report_path is not None:
            line += f"; report: {self.report_path}"
        return line


def _campaign_chunk(
    spec_data: dict[str, Any], backend: str, chunk: Sequence[int]
) -> tuple:
    """Run one chunk of a campaign (the executor's work function).

    The spec rides along as its :meth:`ScenarioSpec.to_dict` form and is
    re-validated on decode, so a chunk can never execute against a spec
    its own construction-time gate would refuse. ``backend`` is always a
    *concrete* name (``auto`` is resolved before dispatch) and is
    hash-neutral: never part of the spec, the records or the report.
    Picks the chunk runner by the spec's dynamics: the exact solver for
    the highly-dynamic adversary, the simulation runner for schedule
    families. Both take ``(spec, chunk, backend)`` and return the same
    tally shape; a campaign tallies verdicts, so no certificate replay.
    """
    spec = ScenarioSpec.from_dict(spec_data)
    if spec.dynamics == "highly-dynamic":
        from repro.verification.sweeps import sweep_chunk as run_chunk
    else:
        from repro.scenarios.simulate import simulate_chunk as run_chunk
    return run_chunk(spec, chunk, backend)


class CampaignRunner:
    """Runs scenarios against a result store, resumably and supervised.

    ``backend`` picks the execution substrate of *both* dispatch paths:
    the exact solver's dense NumPy lockstep vs packed kernel vs the
    engine-stepped :class:`~repro.verification.product.ProductSystem`,
    and the simulation runner's NumPy lockstep kernel vs compiled tables
    vs the engines themselves. ``"auto"`` (the default) resolves to the
    fastest backend available on this host —
    ``vector`` → ``packed`` by NumPy availability on either path (the
    one registry: :mod:`repro.verification.backends`).
    The backend is an execution detail, not workload identity — all
    backends tally every chunk byte-identically, so scenario hashes,
    chunk records and report bytes never depend on it, and a campaign
    checkpointed under one backend resumes cleanly under any other.

    ``jobs`` caps the forked workers. Left ``None``, each :meth:`run`
    picks from its pending work (:func:`plan_jobs`): every core when more
    than two workers would run or the chunks cost more than forking for
    them, else every attempt in this process. ``self.jobs`` is the cap, all available cores by default.

    ``policy`` governs retries, per-chunk deadlines and quarantine
    (:class:`RetryPolicy`); ``faults`` installs an explicit
    :class:`~repro.scenarios.faults.FaultPlan` for this runner (tests and
    the crash-loop harness — the ``REPRO_FAULT_PLAN`` environment
    variable reaches workers without it). Both default to off.

    ``telemetry`` arms span/counter tracing (:mod:`repro.telemetry`): a
    trace directory (``str``/``Path``; the ``REPRO_TRACE_DIR``
    environment variable is the equivalent ambient channel) gets a fresh
    trace id per :meth:`run` call, while an explicit
    :class:`~repro.telemetry.TelemetryConfig` pins the trace id (tests).
    Telemetry is observational only — scenario hashes, chunk records and
    report bytes are byte-identical armed or not, the same contract as
    ``backend``.
    """

    def __init__(
        self,
        store: ResultStore,
        backend: str = "auto",
        jobs: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        telemetry: Optional[str | Path | TelemetryConfig] = None,
    ) -> None:
        self.store = store
        self.backend = check_backend_choice(backend)
        self.jobs = resolve_jobs(jobs)
        self._requested_jobs = jobs
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults
        self.telemetry = telemetry
        self._signal: Optional[int] = None

    def _resolve_backend(self) -> str:
        """The concrete backend the chunks will execute on.

        Resolved once in the parent before any chunk is dispatched
        (workers receive the concrete name), the same way on both
        dispatch paths: ``auto`` picks the fastest substrate available.
        Asking for ``vector`` without NumPy fails loudly here as a usage
        error rather than poisoning chunks retry by retry.
        """
        try:
            return resolve_solver_backend(self.backend)
        except VerificationError as exc:
            raise ScenarioError(str(exc)) from exc

    def _telemetry_config(
        self, spec: ScenarioSpec, backend: str
    ) -> Optional[TelemetryConfig]:
        """Resolve this run's trace config: explicit arg beats environment."""
        configured = self.telemetry
        if configured is None:
            ambient = os.environ.get(telemetry.TRACE_DIR_ENV_VAR)
            if ambient:
                configured = ambient
        if configured is None:
            return None
        context = {
            "scenario": spec.name,
            "scenario_id": spec.scenario_id,
            "backend": backend,
        }
        if isinstance(configured, TelemetryConfig):
            return configured.with_context(
                **{**context, **dict(configured.context)}
            )
        return TelemetryConfig(trace_dir=Path(configured), context=context)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def _checked_records(
        self, spec: ScenarioSpec, chunks: list[Sequence[int]]
    ) -> dict[int, dict[str, Any]]:
        """Stored records, cross-checked against the spec's own chunking."""
        records = self.store.load_records(spec)
        for index, record in records.items():
            if not 0 <= index < len(chunks):
                raise StoreCorruptionError(
                    f"store corruption: scenario {spec.scenario_id} has a "
                    f"record for chunk {index}, but the spec cuts "
                    f"{len(chunks)} chunks"
                )
            if record["digest"] != chunk_digest(chunks[index]):
                raise StoreCorruptionError(
                    f"store corruption: chunk {index} of scenario "
                    f"{spec.scenario_id} was checkpointed for different "
                    "bit patterns than the spec expands to"
                )
        return records

    def _merged_status(
        self,
        spec: ScenarioSpec,
        chunks: list[Sequence[int]],
        records: dict[int, dict[str, Any]],
    ) -> CampaignStatus:
        """Fold records in chunk order into a status (the report's core)."""
        total = trapped = states = 0
        explorers: list[str] = []
        failed: list[int] = []
        for index in sorted(records):
            record = records[index]
            if is_failure_record(record):
                failed.append(index)
                continue
            total += record["total"]
            trapped += record["trapped"]
            states += record["states"]
            explorers.extend(record["explorers"])
        return CampaignStatus(
            name=spec.name,
            scenario_id=spec.scenario_id,
            chunks_total=len(chunks),
            chunks_done=len(records) - len(failed),
            chunks_failed=len(failed),
            failed_chunks=tuple(failed),
            total=total,
            trapped=trapped,
            explorers=tuple(explorers),
            states_explored=states,
        )

    def status(self, spec: ScenarioSpec) -> CampaignStatus:
        """Current progress of a scenario's campaign in this store."""
        chunks = spec.chunks()
        return self._merged_status(spec, chunks, self._checked_records(spec, chunks))

    def failure_details(self, spec: ScenarioSpec) -> dict[int, dict[str, Any]]:
        """The stored failure records of quarantined chunks, by index.

        Each carries ``attempts``, ``error`` and (for records written
        since diagnostics landed) the ``diagnostics`` retry schedule —
        what ``retry-failed`` prints to explain a poisoning.
        """
        chunks = spec.chunks()
        records = self._checked_records(spec, chunks)
        return {
            index: record
            for index, record in sorted(records.items())
            if is_failure_record(record)
        }

    def status_dict(self, spec: ScenarioSpec) -> dict[str, Any]:
        """Status plus per-chunk failure diagnostics, JSON-ready."""
        chunks = spec.chunks()
        records = self._checked_records(spec, chunks)
        data = self._merged_status(spec, chunks, records).to_dict()
        failures = [
            {
                "chunk": index,
                "attempts": record["attempts"],
                "error": record["error"],
                "diagnostics": record.get("diagnostics"),
            }
            for index, record in sorted(records.items())
            if is_failure_record(record)
        ]
        if failures:
            data["failures"] = failures
        return data

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        spec: ScenarioSpec,
        max_chunks: Optional[int] = None,
        include_failed: bool = False,
    ) -> CampaignRunOutcome:
        """Settle every not-yet-checkpointed chunk; report once settled.

        ``max_chunks`` bounds how many pending chunks this call attempts
        (operational lever: sliced runs, and the test harness's simulated
        interrupts). ``include_failed`` additionally re-executes chunks
        quarantined by an earlier run (the ``retry-failed`` verb) — their
        success records supersede the failure records in the store.
        Verified chunks are never re-verified.

        When telemetry is armed the whole call is one ``campaign`` span
        (measured wall-to-wall, so traces account for effectively all of
        the run's clock time); the previous process-local telemetry state
        is restored on exit, mirroring the fault-plan save/restore.
        """
        backend = self._resolve_backend()
        config = self._telemetry_config(spec, backend)
        if config is None:
            return self._run(spec, max_chunks, include_failed, backend, {})
        previous = telemetry.active()
        telemetry.install(config)
        try:
            with telemetry.span("campaign") as span_attrs:
                outcome = self._run(
                    spec, max_chunks, include_failed, backend, span_attrs
                )
                span_attrs["chunks_run"] = outcome.chunks_run
                span_attrs["settled"] = outcome.status.settled
            return outcome
        finally:
            telemetry.install(previous)

    def _run(
        self,
        spec: ScenarioSpec,
        max_chunks: Optional[int],
        include_failed: bool,
        backend: str,
        span_attrs: dict[str, Any],
    ) -> CampaignRunOutcome:
        self.store.prepare(spec)
        chunks = spec.chunks()
        records = self._checked_records(spec, chunks)
        pending = [
            (index, chunk)
            for index, chunk in enumerate(chunks)
            if index not in records
            or (include_failed and is_failure_record(records[index]))
        ]
        cached = len(chunks) - len(pending)
        if max_chunks is not None:
            if max_chunks < 0:
                raise ScenarioError(f"max_chunks must be >= 0, got {max_chunks}")
            pending = pending[:max_chunks]
        if pending:
            try:
                import_backend(backend)
            except VerificationError as exc:
                raise ScenarioError(str(exc)) from exc
            # The chunk runner's stack too, before any worker forks:
            # every worker inherits it instead of importing it again.
            importlib.import_module(
                "repro.verification.sweeps"
                if spec.dynamics == "highly-dynamic"
                else "repro.scenarios.simulate"
            )
        if telemetry.armed():
            telemetry.counter("store.cache_hit", cached)
            telemetry.counter("store.cache_miss", len(pending))
        # Decided once, before any chunk is dispatched: a run either
        # forks a worker per attempt or settles every attempt here.
        jobs, chunk_s = plan_jobs(
            self._requested_jobs,
            self.jobs,
            [len(chunk) for _, chunk in pending],
            backend,
            self.policy.chunk_timeout,
        )
        span_attrs.update(
            jobs=jobs, chunk_cost_s=chunk_s, fork_overhead_s=FORK_OVERHEAD_S
        )
        plan = self.faults if self.faults is not None else faults.active_plan()
        previous_handlers = self._install_signal_handlers()
        previous_plan = faults._STATE.plan
        if self.faults is not None:
            faults.install(self.faults)
        executor = ChunkExecutor(
            partial(_campaign_chunk, spec.to_dict(), backend),
            jobs,
            self.policy,
            plan,
            self._check_interrupt,
        )
        try:
            for index, outcome in executor.settle(pending):
                if outcome[0] == "ok":
                    total, trapped, explorers, states = outcome[1]
                    record = {
                        "chunk": index,
                        "digest": chunk_digest(chunks[index]),
                        "total": total,
                        "trapped": trapped,
                        "explorers": explorers,
                        "states": states,
                    }
                else:
                    _, attempts, error, diagnostics = outcome
                    record = {
                        "chunk": index,
                        "digest": chunk_digest(chunks[index]),
                        "failed": True,
                        "attempts": attempts,
                        "error": error,
                        "diagnostics": diagnostics,
                    }
                records[index] = record
                self._append_with_retry(spec, record, plan)
        finally:
            faults.install(previous_plan)
            self._restore_signal_handlers(previous_handlers)
        status = self._merged_status(spec, chunks, records)
        if status.degraded and telemetry.armed():
            telemetry.event(
                "campaign.degraded",
                failed_chunks=list(status.failed_chunks),
            )
        report_path = None
        if status.settled:
            report_path = self.store.report_path(spec)
            # Cache-hit reruns stay write-free: only (re)publish the
            # report when this call settled something or none exists.
            if pending or not report_path.exists():
                report_path = self.store.write_report(
                    spec, self._report_text(spec, status)
                )
        return CampaignRunOutcome(
            status=status,
            chunks_run=len(pending),
            chunks_cached=cached,
            report_path=report_path,
        )

    def retry_failed(
        self, spec: ScenarioSpec, max_chunks: Optional[int] = None
    ) -> CampaignRunOutcome:
        """Re-execute exactly the quarantined chunks of a degraded campaign."""
        return self.run(spec, max_chunks=max_chunks, include_failed=True)

    def fsck(self, spec: ScenarioSpec) -> RecoveryReport:
        """Salvage this scenario's checkpoint log (see ``ResultStore.recover``).

        Passes the spec's own chunk digests down, so records for the
        wrong chunking are dropped along with byte-level damage; after a
        successful fsck the strict read path (and hence ``run``) works
        again, re-executing exactly the lost chunks.
        """
        chunks = spec.chunks()
        expected = {
            index: chunk_digest(chunk) for index, chunk in enumerate(chunks)
        }
        return self.store.recover(spec, expected)

    # ------------------------------------------------------------------
    # Signal safety
    # ------------------------------------------------------------------
    def _install_signal_handlers(self) -> Optional[dict[int, Any]]:
        """Trade SIGINT/SIGTERM for a flag checked at chunk boundaries.

        The default SIGINT disposition raises ``KeyboardInterrupt`` at an
        arbitrary bytecode — possibly mid-append, tearing a non-final
        record. The flag handler defers the stop to the next boundary,
        *after* the in-flight record is fsynced. Only possible on the
        main thread; elsewhere the runner keeps the ambient dispositions.
        """
        self._signal = None
        if threading.current_thread() is not threading.main_thread():
            return None
        previous: dict[int, Any] = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, self._on_signal)
        return previous

    def _restore_signal_handlers(
        self, previous: Optional[dict[int, Any]]
    ) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    def _on_signal(self, signum: int, frame: Any) -> None:
        self._signal = signum

    def _check_interrupt(self) -> None:
        if self._signal is None:
            return
        name = signal.Signals(self._signal).name
        raise CampaignInterruptedError(
            f"campaign interrupted by {name}; every checkpointed chunk is "
            "fsynced — resume with `campaign run`"
        )

    def _append_with_retry(
        self,
        spec: ScenarioSpec,
        record: dict[str, Any],
        plan: Optional[FaultPlan],
    ) -> None:
        """Checkpoint one record, retrying failed fsyncs with backoff.

        After a failed fsync the line's durability is unknown, so the
        append simply runs again: if the first write did land, the rerun
        produces an identical duplicate line, which the strict reader
        dedups for free. Exhausting the budget raises
        :class:`StoreCorruptionError` — the store cannot prove the work.
        """
        policy = self.policy
        seed = plan.seed if plan is not None else 0
        last: Optional[OSError] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                self.store.append_record(spec, record)
                return
            except OSError as exc:
                last = exc
                if attempt < policy.max_attempts:
                    time.sleep(
                        faults.backoff_delay(
                            policy.backoff_base,
                            policy.backoff_cap,
                            attempt,
                            f"append{record['chunk']}",
                            seed,
                        )
                    )
        raise StoreCorruptionError(
            f"could not durably checkpoint chunk {record['chunk']} after "
            f"{policy.max_attempts} attempts: {last}"
        )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def report_dict(
        self, spec: ScenarioSpec, allow_degraded: bool = False
    ) -> dict[str, Any]:
        """The final report as a dict; raises until the campaign settles.

        A degraded campaign's report is withheld behind
        ``allow_degraded`` (:class:`CampaignDegradedError` otherwise), so
        partial results are always an explicit, visible choice.
        """
        return self._report_dict(spec, self._settled_status(spec, allow_degraded))

    def report_text(self, spec: ScenarioSpec, allow_degraded: bool = False) -> str:
        """The final report's exact bytes (as text); raises if unsettled."""
        return self._report_text(spec, self._settled_status(spec, allow_degraded))

    def _settled_status(
        self, spec: ScenarioSpec, allow_degraded: bool = False
    ) -> CampaignStatus:
        """Status of a campaign required to be settled (reporting gate)."""
        status = self.status(spec)
        if not status.settled:
            raise CampaignIncompleteError(
                f"campaign {spec.name!r} is incomplete "
                f"({status.chunks_done}/{status.chunks_total} chunks); "
                "run it to completion before reporting"
            )
        if status.degraded and not allow_degraded:
            raise CampaignDegradedError(
                f"campaign {spec.name!r} is degraded: chunks "
                f"{list(status.failed_chunks)} are quarantined; re-execute "
                "them with `campaign retry-failed` or request the partial "
                "report explicitly"
            )
        return status

    def _report_dict(
        self, spec: ScenarioSpec, status: CampaignStatus
    ) -> dict[str, Any]:
        """Report content: spec + merged tallies, nothing run-dependent.

        No timestamps, worker counts or backend names — the report must be
        a pure function of (spec, settled records) so interrupted-and-
        resumed and uninterrupted campaigns emit identical bytes. The
        degraded keys appear only when quarantined chunks exist, keeping
        clean-run report bytes independent of the fault machinery.
        """
        data = {
            "format": "campaign-report",
            "version": CAMPAIGN_REPORT_VERSION,
            "scenario_id": spec.scenario_id,
            "scenario": spec.to_dict(),
            "chunks": status.chunks_total,
            "total": status.total,
            "trapped": status.trapped,
            "explorers": list(status.explorers),
            "states_explored": status.states_explored,
            "all_trapped": status.all_trapped,
        }
        if status.chunks_failed:
            data["degraded"] = True
            data["failed_chunks"] = list(status.failed_chunks)
        return data

    def _report_text(self, spec: ScenarioSpec, status: CampaignStatus) -> str:
        return (
            json.dumps(self._report_dict(spec, status), indent=2, sort_keys=True)
            + "\n"
        )


__all__ = [
    "CAMPAIGN_REPORT_VERSION",
    "FORK_OVERHEAD_S",
    "MEASURED_WORKERS",
    "TABLE_COST_S",
    "CampaignRunner",
    "CampaignRunOutcome",
    "CampaignStatus",
    "RetryPolicy",
    "plan_jobs",
]
