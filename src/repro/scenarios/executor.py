"""The one chunk executor: retries, deadlines and quarantine for every verb.

``campaign run`` (at every ``--jobs``) and ``sweep`` settle their chunks
through :class:`ChunkExecutor`, one supervisor state machine. A failed
attempt — an exception, a dead worker, a missed deadline — is retried
after an exponentially backed-off, deterministically jittered delay; a
chunk that fails every attempt is quarantined (or, without quarantine,
raises :class:`~repro.errors.ChunkPoisonedError`).

An attempt runs in one of two places, and both hand the supervisor the
same message, ``("ok", tally)`` or ``("error", "Type: message")``:

* **in the parent process** when at most one attempt can run at a time
  and no deadline is set — so a ``--jobs 1`` call, and a default
  ``campaign run`` whose chunks cost less than forking for them
  (:func:`repro.scenarios.campaign.plan_jobs`), stays on warm process
  caches and forks nothing;
* **in a forked worker**, one per attempt, otherwise. A hand-rolled
  supervisor rather than ``multiprocessing.Pool``, because a pool treats
  a dead worker as a reason to hang; here a worker death is an *event* —
  EOF on its result pipe — answered by a backed-off respawn. A set
  deadline always forks, so it is enforced at every ``--jobs``: an
  overdue worker is killed and its chunk retried like a crash.

``multiprocessing`` is imported only when an attempt forks.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

from repro import telemetry
from repro.errors import ChunkPoisonedError, ScenarioError
from repro.scenarios import faults
from repro.scenarios.faults import FaultPlan
from repro.telemetry import TelemetryConfig

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

# How long the supervisor blocks in one wait() round. Bounds the latency
# of signal delivery (the flag is only *checked* between waits) and of
# backoff-retry promotion, without busy-polling.
_SUPERVISOR_TICK_SECONDS = 0.2

Work = Callable[[Sequence[int]], tuple]
"""A chunk runner: bit patterns in, the chunk's tally out."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a chunk that crashes, hangs, or errors.

    ``chunk_timeout`` (seconds; ``None`` disables) is enforced at every
    ``jobs``: setting it runs every attempt in a worker process the
    supervisor can kill. Backoff before attempt ``k+1`` is
    ``min(cap, base * 2**(k-1))`` scaled by a deterministic jitter into
    ``[0.5, 1.0)`` of itself (:func:`repro.scenarios.faults.backoff_delay`).
    With ``quarantine`` (the default) a chunk that fails every attempt is
    recorded as failed and the campaign settles degraded; without it the
    run raises :class:`~repro.errors.ChunkPoisonedError` instead.
    """

    max_attempts: int = 3
    chunk_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ScenarioError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ScenarioError(
                f"chunk_timeout must be > 0 (or None), got {self.chunk_timeout!r}"
            )
        if self.backoff_base < 0:
            raise ScenarioError(
                f"backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ScenarioError(
                f"backoff_cap must be >= backoff_base, got {self.backoff_cap!r}"
            )


class _Attempt(NamedTuple):
    """One attempt at one chunk: its index, bit patterns and number."""

    index: int
    chunk: Sequence[int]
    number: int


def _run_attempt(work: Work, attempt: _Attempt) -> tuple[str, Any]:
    """Run one attempt, in the parent or in a worker.

    Runs under the chunk's fault and telemetry context, inside a
    ``chunk.attempt`` span that brackets the chunk's own execution time
    (spawn and pipe latency stay in the supervisor's accounting). An
    :class:`Exception` becomes ``("error", "Type: message")``; an
    interrupt or exit propagates.
    """
    index, chunk, number = attempt
    faults.set_context(index, number)
    telemetry.set_context(chunk=index, attempt=number)
    try:
        with telemetry.span(
            "chunk.attempt", chunk=index, attempt=number, tables=len(chunk)
        ) as span_attrs:
            tally = work(chunk)
            span_attrs["ok"] = True
        return "ok", tally
    except Exception as exc:  # delivered to the supervisor, not swallowed
        return "error", f"{type(exc).__name__}: {exc}"
    finally:
        faults.set_context(-1, 0)
        telemetry.set_context(chunk=None, attempt=None)


def _worker_main(
    conn: Connection,
    work: Work,
    attempt: _Attempt,
    plan_data: Optional[dict[str, Any]],
    trace_data: Optional[dict[str, Any]],
) -> None:
    """Forked worker body: one attempt, its message sent up the pipe.

    First sheds the parent's flag-setting signal handlers (inherited
    across ``fork``): SIGTERM back to the default disposition so the
    supervisor's ``terminate()`` actually kills a hung worker, SIGINT
    ignored so a terminal Ctrl-C (delivered group-wide) interrupts only
    the supervisor, which then winds workers down deliberately. The fault
    plan and the telemetry config (same trace id) are shipped by the
    supervisor rather than re-read from the environment, so one run is
    one trace however many workers it forks. A worker that dies without
    sending (an injected ``os._exit``, a real crash) is seen as EOF.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults.install(FaultPlan.from_dict(plan_data) if plan_data else None)
    faults.mark_worker()
    telemetry.install(TelemetryConfig.from_dict(trace_data) if trace_data else None)
    try:
        conn.send(_run_attempt(work, attempt))
    finally:
        conn.close()


def _kill_process(process: BaseProcess) -> None:
    """Terminate a worker, escalating to SIGKILL if it lingers."""
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join()


class ChunkExecutor:
    """Settles indexed chunks under a :class:`RetryPolicy`.

    ``work`` runs one chunk; a forked worker reaches it through ``fork``,
    so a top-level function or a ``functools.partial`` of one serves.
    ``plan`` is shipped to every worker and seeds the backoff jitter;
    ``check_interrupt`` is called between supervisor rounds and may raise
    to stop the run (running workers are then killed).
    """

    def __init__(
        self,
        work: Work,
        jobs: int,
        policy: RetryPolicy,
        plan: Optional[FaultPlan] = None,
        check_interrupt: Callable[[], None] = lambda: None,
    ) -> None:
        self.work = work
        self.jobs = jobs
        self.policy = policy
        self.plan = plan
        self.check_interrupt = check_interrupt
        self._retries: list[tuple[float, _Attempt]] = []
        self._history: dict[int, list[dict[str, Any]]] = {}

    def settle(
        self, chunks: Sequence[tuple[int, Sequence[int]]]
    ) -> Iterator[tuple[int, tuple]]:
        """Settle ``(index, chunk)`` pairs; yield each as it settles.

        Yields ``(index, ("ok", tally))`` or, once a chunk exhausts its
        attempts under quarantine, ``(index, ("failed", attempts, error,
        diagnostics))``. Results stream out in settle order so a caller
        can checkpoint each the moment it lands; merging by index is the
        caller's job.
        """
        policy = self.policy
        fork = bool(chunks) and (
            min(self.jobs, len(chunks)) > 1 or policy.chunk_timeout is not None
        )
        if fork:
            import multiprocessing
            from multiprocessing.connection import wait as connection_wait

            ctx = multiprocessing.get_context()
            plan_data = self.plan.to_dict() if self.plan is not None else None
            trace = telemetry.active()
            trace_data = trace.to_dict() if trace is not None else None
        queue = deque(_Attempt(index, chunk, 1) for index, chunk in chunks)
        self._retries, self._history = [], {}
        running: dict[Connection, tuple[_Attempt, BaseProcess, Optional[float]]] = {}
        try:
            while queue or self._retries or running:
                self.check_interrupt()
                now = time.monotonic()
                due = [attempt for at, attempt in self._retries if at <= now]
                if due:
                    self._retries = [e for e in self._retries if e[0] > now]
                    # Retries jump the queue: an old chunk's tail latency
                    # should not grow behind fresh work.
                    queue.extendleft(due)
                done: list[tuple[_Attempt, tuple[str, Any]]] = []
                if queue and not fork:
                    attempt = queue.popleft()
                    done.append((attempt, _run_attempt(self.work, attempt)))
                while queue and fork and len(running) < self.jobs:
                    attempt = queue.popleft()
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    process = ctx.Process(
                        target=_worker_main,
                        args=(child_conn, self.work, attempt, plan_data, trace_data),
                    )
                    process.start()
                    child_conn.close()
                    telemetry.event(
                        "worker.spawn",
                        chunk=attempt.index,
                        attempt=attempt.number,
                        worker_pid=process.pid,
                    )
                    deadline = (
                        time.monotonic() + policy.chunk_timeout
                        if policy.chunk_timeout is not None
                        else None
                    )
                    running[parent_conn] = (attempt, process, deadline)
                if running:
                    ready = connection_wait(
                        list(running), timeout=_SUPERVISOR_TICK_SECONDS
                    )
                    for conn in ready:
                        attempt, process, _ = running.pop(conn)
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            message = None
                        conn.close()
                        process.join()
                        if message is None:
                            telemetry.event(
                                "worker.crash",
                                chunk=attempt.index,
                                attempt=attempt.number,
                                exitcode=process.exitcode,
                            )
                            message = (
                                "error",
                                f"WorkerCrashError: worker for chunk "
                                f"{attempt.index} died with exit code "
                                f"{process.exitcode} before delivering a "
                                f"tally (attempt {attempt.number})",
                            )
                        done.append((attempt, message))
                elif not done:
                    # Everything is backing off; sleep one tick at most.
                    time.sleep(
                        min(
                            _SUPERVISOR_TICK_SECONDS,
                            max(0.0, min(e[0] for e in self._retries) - now),
                        )
                    )
                now = time.monotonic()
                for conn, (attempt, process, deadline) in list(running.items()):
                    if deadline is None or deadline > now:
                        continue
                    del running[conn]
                    _kill_process(process)
                    conn.close()
                    telemetry.event(
                        "chunk.timeout",
                        chunk=attempt.index,
                        attempt=attempt.number,
                        deadline=policy.chunk_timeout,
                    )
                    done.append((attempt, (
                        "error",
                        f"ChunkTimeoutError: chunk {attempt.index} exceeded "
                        f"the {policy.chunk_timeout:g}s per-chunk deadline "
                        f"(attempt {attempt.number})",
                    )))
                for attempt, message in done:
                    if message[0] == "ok":
                        yield attempt.index, message
                        continue
                    settled = self._settle_failure(attempt, message[1])
                    if settled is not None:
                        yield settled
        finally:
            for conn, (_, process, _) in running.items():
                _kill_process(process)
                conn.close()

    def _settle_failure(
        self, attempt: _Attempt, error: str
    ) -> Optional[tuple[int, tuple]]:
        """Retry a failed attempt with backoff, or settle the chunk.

        Returns ``(index, ("failed", attempts, error, diagnostics))``
        once the retry budget is exhausted and quarantine is on; ``None``
        while a retry is still owed (it was queued on ``_retries``).
        Every failed attempt is logged — attempt number, error, computed
        backoff delay, per-attempt deadline — and the log becomes the
        quarantined record's ``diagnostics``, so fsck and
        ``retry-failed`` can explain the poisoning without re-running it.
        The schedule is deterministic given the policy and the fault
        seed (``backoff_delay`` is a pure function).
        """
        policy = self.policy
        index, chunk, number = attempt
        entry = {
            "attempt": number,
            "error": error,
            "delay": None,
            "deadline": policy.chunk_timeout,
        }
        self._history.setdefault(index, []).append(entry)
        if number < policy.max_attempts:
            delay = faults.backoff_delay(
                policy.backoff_base,
                policy.backoff_cap,
                number,
                f"chunk{index}",
                self.plan.seed if self.plan is not None else 0,
            )
            entry["delay"] = delay
            telemetry.event(
                "chunk.retry", chunk=index, next_attempt=number + 1, delay=delay
            )
            self._retries.append(
                (time.monotonic() + delay, _Attempt(index, chunk, number + 1))
            )
            return None
        if not policy.quarantine:
            raise ChunkPoisonedError(
                f"chunk {index} failed all {policy.max_attempts} attempts; "
                f"last error: {error}"
            )
        telemetry.event(
            "chunk.quarantine", chunk=index, attempts=policy.max_attempts
        )
        diagnostics = {
            "attempts": self._history[index],
            "policy": {
                "max_attempts": policy.max_attempts,
                "backoff_base": policy.backoff_base,
                "backoff_cap": policy.backoff_cap,
                "chunk_timeout": policy.chunk_timeout,
            },
        }
        return index, ("failed", policy.max_attempts, error, diagnostics)


__all__ = ["ChunkExecutor", "RetryPolicy"]
