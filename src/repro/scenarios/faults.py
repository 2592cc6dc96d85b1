"""Deterministic fault injection: the test harness of the campaign stack.

The paper's premise is adversarial dynamics — progress despite an
adversary removing edges — and the companion self-stabilization line
(Bournat–Datta–Dubois) demands recovery from arbitrary transient faults.
This module holds our infrastructure to the same bar: a
:class:`FaultPlan` is a *seedable, deterministic* adversary against the
campaign runner and its result store. It can

* **crash** a worker mid-chunk (``os._exit`` in a forked worker,
  :class:`~repro.errors.WorkerCrashError` in an in-process attempt —
  the one chunk executor retries either);
* **delay** a chunk past its deadline (exercises the supervisor's
  per-chunk timeout);
* **tear** a checkpoint append — write half the record and kill the
  process, the exact signature of a power loss mid-``write(2)``;
* **fail an fsync** (the append raises ``OSError`` after the write);
* **flip bytes** in a checkpoint log (:meth:`FaultPlan.flip_bytes` —
  the corruption generator behind the ``recover()``/fsck tests).

Every decision is a pure function of ``(seed, site, key)`` — no global
RNG, no wall clock — so a faulty run is replayable bit for bit, and the
crash-loop harness can direct kills at chosen points. The *key* carries
the chunk index and attempt number, which is what lets a chunk that
crashed on attempt 1 succeed on attempt 2 under the same plan.

A plan reaches the runner either as an explicit parameter
(``CampaignRunner(faults=...)``) or through the ``REPRO_FAULT_PLAN``
environment variable (a JSON object of :class:`FaultPlan` fields) — the
channel the CLI crash-loop smoke uses. With no plan installed and no
env var set, every hook in this module is a no-op: production paths pay
one ``None`` check per chunk and one per append.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, Any, Mapping, Optional

from repro import telemetry
from repro._sha256 import sha256
from repro.errors import ScenarioError, WorkerCrashError

ENV_VAR = "REPRO_FAULT_PLAN"
"""Environment variable carrying a JSON-encoded :class:`FaultPlan`."""

KILL_EXIT_CODE = 113
"""Exit code of a process killed by an injected crash or torn write.

Distinct from every CLI exit code, so harnesses can tell an injected
kill from a genuine failure.
"""

_RATE_FIELDS = ("crash", "delay", "tear", "fsync_fail")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Rate fields are probabilities in ``[0, 1]`` evaluated per fault site
    via :meth:`roll`; the ``*_chunks`` targets fire unconditionally for
    the named chunk indices (every attempt — the poisoning lever).
    ``max_appends`` caps the number of checkpoint appends the process
    may complete: the next append tears mid-record and kills the process
    (the crash-loop harness's deterministic kill switch).
    """

    seed: int = 0
    crash: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.01
    tear: float = 0.0
    fsync_fail: float = 0.0
    max_appends: Optional[int] = None
    crash_chunks: tuple[int, ...] = ()
    delay_chunks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ScenarioError(
                    f"fault rate {name} must be in [0, 1], got {rate!r}"
                )
        if self.delay_seconds < 0:
            raise ScenarioError(
                f"delay_seconds must be >= 0, got {self.delay_seconds!r}"
            )
        if self.max_appends is not None and self.max_appends < 0:
            raise ScenarioError(
                f"max_appends must be >= 0, got {self.max_appends!r}"
            )
        # Normalize list-form targets (JSON round-trips) into tuples so
        # plans stay hashable and comparable.
        object.__setattr__(self, "crash_chunks", tuple(self.crash_chunks))
        object.__setattr__(self, "delay_chunks", tuple(self.delay_chunks))

    # ------------------------------------------------------------------
    # Deterministic decisions
    # ------------------------------------------------------------------
    def roll(self, site: str, key: str) -> float:
        """A uniform draw in ``[0, 1)``, pure in ``(seed, site, key)``."""
        digest = sha256(
            f"{self.seed}|{site}|{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def enabled(self) -> bool:
        """Whether any fault can ever fire under this plan."""
        return (
            any(getattr(self, name) > 0 for name in _RATE_FIELDS)
            or self.max_appends is not None
            or bool(self.crash_chunks)
            or bool(self.delay_chunks)
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (payloads, ``REPRO_FAULT_PLAN``)."""
        data = asdict(self)
        data["crash_chunks"] = list(self.crash_chunks)
        data["delay_chunks"] = list(self.delay_chunks)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Decode the :meth:`to_dict` form; unknown keys are refused."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown FaultPlan fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Decode a JSON object (the ``REPRO_FAULT_PLAN`` format)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"undecodable fault plan JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Log corruption (the fsck-test generator)
    # ------------------------------------------------------------------
    def flip_bytes(self, path: str | Path, count: int = 1) -> list[int]:
        """Flip ``count`` deterministically chosen bytes of a file.

        Positions and XOR masks derive from the plan seed and the file
        size, so a given (plan, file) pair corrupts identically on every
        host. Returns the flipped offsets (for harness assertions).
        """
        path = Path(path)
        raw = bytearray(path.read_bytes())
        if not raw:
            return []
        offsets = []
        for i in range(count):
            offset = int(self.roll("flip-at", f"{i}|{len(raw)}") * len(raw))
            mask = 1 + int(self.roll("flip-mask", f"{i}|{len(raw)}") * 255)
            raw[offset] ^= mask
            offsets.append(offset)
        path.write_bytes(bytes(raw))
        return offsets


# ----------------------------------------------------------------------
# Process-local installation and context
# ----------------------------------------------------------------------
class _State:
    __slots__ = ("plan", "chunk", "attempt", "in_worker", "appends")

    def __init__(self) -> None:
        self.plan: Optional[FaultPlan] = None
        self.chunk = -1
        self.attempt = 0
        self.in_worker = False
        self.appends = 0


_STATE = _State()
_ENV_CACHE: tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install(plan: Optional[FaultPlan]) -> None:
    """Install a plan for this process (overrides the environment).

    Also restarts the append budget: ``max_appends`` counts appends
    under *this* installation, not process lifetime — essential in
    harnesses (and test processes) that run several campaigns in one
    process. Plans arriving via ``REPRO_FAULT_PLAN`` are never
    re-installed, so for them the budget spans the whole process, which
    is exactly what the CLI crash-loop smoke wants.
    """
    _STATE.plan = plan
    _STATE.appends = 0


def set_context(chunk: int, attempt: int) -> None:
    """Name the chunk/attempt subsequent fault decisions key on."""
    _STATE.chunk = chunk
    _STATE.attempt = attempt


def mark_worker() -> None:
    """Declare this process a forked chunk worker: crashes hard-kill it."""
    _STATE.in_worker = True


def clear() -> None:
    """Reset installation, context and the append counter."""
    _STATE.plan = None
    _STATE.chunk = -1
    _STATE.attempt = 0
    _STATE.in_worker = False
    _STATE.appends = 0


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the ``REPRO_FAULT_PLAN`` one, else None."""
    if _STATE.plan is not None:
        return _STATE.plan
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


# ----------------------------------------------------------------------
# Hooks — called from the chunk runners and the store
# ----------------------------------------------------------------------
def fault_point(site: str) -> None:
    """An injection site inside chunk execution.

    May sleep (delay faults) and may crash: a hard ``os._exit`` in a
    forked worker (the supervisor must detect the death), a
    :class:`WorkerCrashError` in an in-process attempt (the supervisor
    receives it as that attempt's error). No-op without an active plan.
    """
    plan = active_plan()
    if plan is None or not plan.enabled():
        return
    chunk, attempt = _STATE.chunk, _STATE.attempt
    key = f"{chunk}:{attempt}"
    if chunk in plan.delay_chunks or (
        plan.delay and plan.roll(f"delay@{site}", key) < plan.delay
    ):
        telemetry.event(
            "fault.injected", kind="delay", site=site,
            chunk=chunk, attempt=attempt, seconds=plan.delay_seconds,
        )
        time.sleep(plan.delay_seconds)
    if chunk in plan.crash_chunks or (
        plan.crash and plan.roll(f"crash@{site}", key) < plan.crash
    ):
        # Emitted *before* the kill; the sink flushes per event, so a
        # fault-plan run is self-describing even across os._exit.
        telemetry.event(
            "fault.injected", kind="crash", site=site,
            chunk=chunk, attempt=attempt,
        )
        if _STATE.in_worker:
            os._exit(KILL_EXIT_CODE)
        raise WorkerCrashError(
            f"injected worker crash at {site} (chunk {chunk}, "
            f"attempt {attempt})"
        )


def tainted_append(handle: IO[str], line: str, chunk: int) -> None:
    """Write one checkpoint line, honoring tear/fsync faults.

    The durability contract of the store's append path lives here: write,
    flush, fsync — except that an active plan may *tear* the write (half
    the line hits the disk, then the process dies, exactly like a power
    loss) or *fail the fsync* (the data was written but durability is
    unknown; the caller must treat the append as not having happened and
    retry). Without a plan this is exactly write+flush+fsync.
    """
    plan = active_plan()
    _STATE.appends += 1
    if plan is not None and plan.enabled():
        key = f"{chunk}:{_STATE.appends}"
        exhausted = (
            plan.max_appends is not None and _STATE.appends > plan.max_appends
        )
        if exhausted or (plan.tear and plan.roll("tear", key) < plan.tear):
            telemetry.event(
                "fault.injected", kind="tear", site="store.append",
                chunk=chunk, append=_STATE.appends,
            )
            handle.write(line[: max(1, len(line) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            os._exit(KILL_EXIT_CODE)
    handle.write(line)
    handle.flush()
    if (
        plan is not None
        and plan.fsync_fail
        and plan.roll("fsync", f"{chunk}:{_STATE.appends}") < plan.fsync_fail
    ):
        telemetry.event(
            "fault.injected", kind="fsync_fail", site="store.append",
            chunk=chunk, append=_STATE.appends,
        )
        raise OSError(
            f"injected fsync failure (chunk {chunk}, "
            f"append {_STATE.appends})"
        )
    os.fsync(handle.fileno())


def backoff_delay(
    base: float, cap: float, attempt: int, key: str, seed: int = 0
) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled into
    ``[0.5, 1.0)`` of itself by a hash of ``(seed, key, attempt)`` — the
    jitter decorrelates retries without sacrificing replayability.
    """
    raw = min(cap, base * (2 ** max(0, attempt - 1)))
    digest = sha256(
        f"{seed}|backoff|{key}|{attempt}".encode("utf-8")
    ).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2**64
    return raw * (0.5 + jitter / 2)


__all__ = [
    "ENV_VAR",
    "KILL_EXIT_CODE",
    "FaultPlan",
    "active_plan",
    "backoff_delay",
    "clear",
    "fault_point",
    "install",
    "mark_worker",
    "set_context",
    "tainted_append",
]
