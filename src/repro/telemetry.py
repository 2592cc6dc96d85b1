"""Stdlib-only telemetry: spans, counters and trace analysis for campaigns.

The campaign stack is crash-resilient (PR 6) but, until now, opaque: when
a supervised run retried, respawned, timed out or settled degraded, the
only record was the final report — and the only performance record in the
repository was the per-PR ``BENCH_sweeps.json`` ritual. This module is
the observability tier the ROADMAP names: a **span/counter event stream**
written as JSONL while a campaign runs, and the **aggregation/baseline
machinery** (``campaign analyze``) that turns trace directories into
per-phase latency percentiles, throughput figures and a CI regression
gate.

Design constraints, in order:

* **Strictly hash-neutral.** Telemetry observes; it never participates.
  Scenario hashes, chunk records and campaign report bytes are
  byte-identical with telemetry armed or disarmed (differentially tested
  in ``tests/test_telemetry.py``) — the same contract ``--backend``
  honors. Nothing in this module is imported by :mod:`repro.serialize`
  or touches a spec payload.
* **Off by default, explicitly armed.** With no :class:`TelemetryConfig`
  installed every hook is a no-op costing one attribute check. Arming is
  always explicit — ``CampaignRunner(telemetry=...)``, ``campaign run
  --trace-dir DIR``, or the :data:`TRACE_DIR_ENV_VAR` environment
  variable, each of which resolves to an installed config. The module
  never self-arms from the environment: worker processes receive their
  config (trace dir, trace id, context) from the supervisor, so one
  campaign run is one trace id even across respawned workers.
* **Stdlib only, monotonic clocks.** Durations come from
  ``time.perf_counter``/``time.monotonic`` — never the wall clock — so a
  span can't go negative under NTP steps and traces diff cleanly.

Event stream layout: one JSONL file per ``(trace, pid)`` pair inside the
trace directory (``events-<trace>-<pid>.jsonl``), so concurrently
writing processes never interleave bytes. One line per event, canonical
JSON (sorted keys), schema::

    {"attrs": {...}, "dur": 0.0123, "event": "span", "name": "chunk.attempt",
     "pid": 4242, "seq": 7, "span": "f3a9c0d1e5b2", "t": 8123.4567,
     "trace": "tr-1c9e6a2b4d8f", "v": 1}

* ``event`` — ``"span"`` (has ``dur``), ``"counter"`` (has ``value``) or
  ``"event"`` (a point occurrence);
* ``trace`` — one id per campaign run; ``span`` — one id per span (chunk
  attempts each get their own), carried by nested events as ``parent``;
* ``t`` — ``time.monotonic()`` at emission (span end; start is
  ``t - dur``); ``seq`` — per-process emission counter (total order
  within a file);
* ``attrs`` — merged ambient context (scenario, chunk, attempt — see
  :func:`set_context`) plus per-event attributes.

Span taxonomy (see ``docs/observability.md``): ``campaign`` wraps one
:meth:`CampaignRunner.run` call; ``chunk.attempt`` wraps one execution
attempt of one chunk (in-process or in a supervised worker);
``phase.compile`` / ``phase.simulate`` split an attempt into table
compilation vs execution time (on the exact-solver path "simulate" is
game solving); the vector simulation backend replaces ``simulate`` with
``phase.gather`` / ``phase.compact`` (NumPy lockstep rounds vs pending-row
compaction) and the dense solver with ``phase.frontier`` / ``phase.scc``
— ``summarize`` treats any ``phase.*`` name generically;
``store.append`` covers one durable checkpoint append
including its fsync. Events: ``worker.spawn``, ``worker.crash``,
``chunk.timeout``, ``chunk.retry``, ``chunk.quarantine``,
``campaign.degraded``, ``fault.injected``. Counters:
``store.cache_hit``, ``store.cache_miss``, ``store.dedup``.

The analysis half (:func:`load_trace`, :func:`summarize`,
:func:`diff_baseline`, :func:`write_baseline`) is what ``campaign
analyze`` and ``benchmarks/bench_telemetry.py`` run on; the summary dict
doubles as the status/metrics payload of the planned campaign service.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Optional, Sequence

from repro.errors import ScenarioError

TRACE_DIR_ENV_VAR = "REPRO_TRACE_DIR"
"""Environment variable arming campaign telemetry with a trace directory."""

TELEMETRY_SCHEMA_VERSION = 1
"""Version stamped as ``v`` on every event line."""

SUMMARY_FORMAT = "telemetry-summary"
BASELINE_FORMAT = "telemetry-baseline"
SUMMARY_VERSION = 1
BASELINE_VERSION = 1

_PHASE_NAMES = ("compile", "simulate", "gather", "compact")
# What a ``campaign`` span records of its jobs decision.
_DISPATCH_KEYS = ("jobs", "chunk_cost_s", "fork_overhead_s")
_PERCENTILES = (("p50_s", 0.50), ("p90_s", 0.90), ("p99_s", 0.99))


def new_trace_id() -> str:
    """A fresh trace id (one per campaign run)."""
    return "tr-" + _new_span_id()


def _new_span_id() -> str:
    # Imported here: a process that never traces never loads uuid.
    import uuid

    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class TelemetryConfig:
    """Where one trace's events go, and under which identity.

    ``context`` is the ambient attribute set merged into every event
    (scenario name/id, backend, …); the campaign runner extends it with
    per-chunk context in workers. Configs are plain data so they ship to
    supervised worker processes alongside the chunk payload.
    """

    trace_dir: Path
    trace_id: str = field(default_factory=new_trace_id)
    context: Mapping[str, Any] = field(default_factory=dict)

    def with_context(self, **attrs: Any) -> "TelemetryConfig":
        """A copy with extra ambient context merged in."""
        merged = dict(self.context)
        merged.update(attrs)
        return TelemetryConfig(self.trace_dir, self.trace_id, merged)

    def to_dict(self) -> dict[str, Any]:
        """Picklable/JSON form (shipped to supervised workers)."""
        return {
            "trace_dir": str(self.trace_dir),
            "trace_id": self.trace_id,
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetryConfig":
        """Decode the :meth:`to_dict` form."""
        return cls(
            trace_dir=Path(data["trace_dir"]),
            trace_id=str(data["trace_id"]),
            context=dict(data.get("context", {})),
        )


# ----------------------------------------------------------------------
# Process-local state (the faults-module pattern: explicit install)
# ----------------------------------------------------------------------
class _State:
    __slots__ = ("config", "handle", "pid", "seq", "stack", "context")

    def __init__(self) -> None:
        self.config: Optional[TelemetryConfig] = None
        self.handle: Optional[IO[str]] = None
        self.pid = -1
        self.seq = 0
        self.stack: list[str] = []
        self.context: dict[str, Any] = {}


_STATE = _State()


def install(config: Optional[TelemetryConfig]) -> None:
    """Arm (or disarm, with ``None``) telemetry for this process.

    Resets the sink, the sequence counter and the span stack; the
    ambient context starts as the config's own. Safe across ``fork``:
    the sink file is keyed by pid at write time, so a forked child never
    appends to its parent's stream.
    """
    if _STATE.handle is not None:
        try:
            _STATE.handle.close()
        except OSError:  # pragma: no cover - best-effort close
            pass
    _STATE.config = config
    _STATE.handle = None
    _STATE.pid = -1
    _STATE.seq = 0
    _STATE.stack = []
    _STATE.context = dict(config.context) if config is not None else {}


def active() -> Optional[TelemetryConfig]:
    """The installed config, or ``None`` when disarmed."""
    return _STATE.config


def armed() -> bool:
    """Whether events are currently being recorded."""
    return _STATE.config is not None


def set_context(**attrs: Any) -> None:
    """Merge ambient attributes into every subsequent event.

    A value of ``None`` removes the key. No-op while disarmed.
    """
    if _STATE.config is None:
        return
    for key, value in attrs.items():
        if value is None:
            _STATE.context.pop(key, None)
        else:
            _STATE.context[key] = value


def _sink() -> IO[str]:
    """The per-(trace, pid) sink, (re)opened after install or fork."""
    pid = os.getpid()
    if _STATE.handle is None or _STATE.pid != pid:
        config = _STATE.config
        assert config is not None
        config.trace_dir.mkdir(parents=True, exist_ok=True)
        path = config.trace_dir / f"events-{config.trace_id}-{pid}.jsonl"
        _STATE.handle = open(path, "a", encoding="utf-8")
        _STATE.pid = pid
        _STATE.seq = 0
    return _STATE.handle


def _emit(
    kind: str,
    name: str,
    attrs: Mapping[str, Any],
    span_id: Optional[str],
    extra: Mapping[str, Any],
) -> None:
    config = _STATE.config
    if config is None:
        return
    handle = _sink()
    _STATE.seq += 1
    merged = dict(_STATE.context)
    merged.update(attrs)
    record: dict[str, Any] = {
        "v": TELEMETRY_SCHEMA_VERSION,
        "event": kind,
        "name": name,
        "trace": config.trace_id,
        "pid": _STATE.pid,
        "seq": _STATE.seq,
        "t": time.monotonic(),
        "attrs": merged,
    }
    if span_id is not None:
        record["span"] = span_id
    elif _STATE.stack:
        record["parent"] = _STATE.stack[-1]
    record.update(extra)
    # One write per line: concurrent processes own distinct files, so a
    # line can never interleave; flush so an os._exit (injected crash)
    # loses at most nothing.
    handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    handle.flush()


def event(name: str, **attrs: Any) -> None:
    """Record a point occurrence (retry, crash, fault injection, …)."""
    if _STATE.config is None:
        return
    _emit("event", name, attrs, None, {})


def counter(name: str, value: int = 1, **attrs: Any) -> None:
    """Record a monotonic count (cache hits, dedups, …)."""
    if _STATE.config is None:
        return
    _emit("counter", name, attrs, None, {"value": value})


def phase(name: str, seconds: float, **attrs: Any) -> None:
    """Record an *accumulated* span — a duration measured piecewise.

    The chunk runners interleave compilation and execution per table, so
    their compile/simulate split is accumulated with ``perf_counter``
    deltas and emitted once per chunk rather than wrapped in real time.
    """
    if _STATE.config is None:
        return
    parent = _STATE.stack[-1] if _STATE.stack else None
    extra: dict[str, Any] = {"dur": seconds}
    if parent is not None:
        extra["parent"] = parent
    _emit("span", f"phase.{name}", attrs, _new_span_id(), extra)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
    """A real-time span; yields a dict for attributes set mid-flight.

    Emitted at exit with ``dur`` from ``perf_counter`` and ``t`` (the
    monotonic end time); exceptions propagate after the span is written
    with ``attrs["error"]`` set to the exception type name.
    """
    if _STATE.config is None:
        yield {}
        return
    span_id = _new_span_id()
    parent = _STATE.stack[-1] if _STATE.stack else None
    _STATE.stack.append(span_id)
    live_attrs = dict(attrs)
    start = time.perf_counter()
    try:
        yield live_attrs
    except BaseException as exc:
        live_attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        elapsed = time.perf_counter() - start
        if _STATE.stack and _STATE.stack[-1] == span_id:
            _STATE.stack.pop()
        extra: dict[str, Any] = {"dur": elapsed}
        if parent is not None:
            extra["parent"] = parent
        _emit("span", name, live_attrs, span_id, extra)


# ----------------------------------------------------------------------
# Trace loading and aggregation (the `campaign analyze` core)
# ----------------------------------------------------------------------
def load_trace(trace_dir: str | Path) -> list[dict[str, Any]]:
    """Every event of a trace directory, merged and ordered.

    Reads all ``events-*.jsonl`` files, skips a torn final line per file
    (a crash mid-write is an expected shape here, as in the store), and
    refuses undecodable interior lines or unknown schema versions.
    Events are ordered by ``(t, pid, seq)``.
    """
    root = Path(trace_dir)
    if not root.is_dir():
        raise ScenarioError(f"trace directory {root} does not exist")
    events: list[dict[str, Any]] = []
    for path in sorted(root.glob("events-*.jsonl")):
        text = path.read_text("utf-8", errors="replace")
        torn = bool(text) and not text.endswith("\n")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1 and torn:
                    continue  # torn tail: the writer died mid-line
                raise ScenarioError(
                    f"corrupt trace file {path}: undecodable line {lineno + 1}"
                )
            if not isinstance(record, dict) or "event" not in record:
                raise ScenarioError(
                    f"corrupt trace file {path}: line {lineno + 1} is not "
                    "a telemetry event"
                )
            if record.get("v") != TELEMETRY_SCHEMA_VERSION:
                raise ScenarioError(
                    f"trace file {path} has schema version "
                    f"{record.get('v')!r}; this library reads version "
                    f"{TELEMETRY_SCHEMA_VERSION}"
                )
            events.append(record)
    events.sort(key=lambda e: (e.get("t", 0.0), e.get("pid", 0), e.get("seq", 0)))
    return events


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence (``0 < q <= 1``)."""
    if not values:
        raise ScenarioError("percentile of an empty sequence")
    if not 0.0 < q <= 1.0:
        raise ScenarioError(f"percentile fraction must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _latency_stats(durations: list[float]) -> dict[str, Any]:
    stats: dict[str, Any] = {
        "count": len(durations),
        "total_s": round(sum(durations), 9),
    }
    for key, q in _PERCENTILES:
        stats[key] = round(percentile(durations, q), 9) if durations else None
    return stats


def summarize(events: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate a trace's events into the analyze/baseline summary.

    Per scenario (the ``scenario`` context attribute): campaign wall
    time, each run's jobs decision (``dispatch``: the jobs, the estimated
    seconds of one chunk and the fork overhead it was weighed against),
    ok/failed chunk counts, tables verified, throughput, retry / crash /
    timeout / quarantine / fault tallies, per-phase latency percentiles,
    and store append/cache statistics. The shape is the
    data model the future campaign service's metrics endpoint serves.
    """

    def bucket(name: str) -> dict[str, Any]:
        return scenarios.setdefault(
            name,
            {
                "campaigns": 0,
                "wall_s": 0.0,
                "chunks_ok": 0,
                "chunks_failed": 0,
                "tables": 0,
                "attempt_s": 0.0,
                "retries": 0,
                "crashes": 0,
                "timeouts": 0,
                "faults_injected": 0,
                "store": {
                    "appends": 0,
                    "cache_hits": 0,
                    "cache_misses": 0,
                    "dedup": 0,
                },
                "dispatch": [],
                "_phase_durs": {name: [] for name in _PHASE_NAMES},
                "_append_durs": [],
            },
        )

    scenarios: dict[str, dict[str, Any]] = {}
    traces: set[str] = set()
    for record in events:
        traces.add(str(record.get("trace", "")))
        attrs = record.get("attrs", {})
        data = bucket(str(attrs.get("scenario", "unknown")))
        kind = record["event"]
        name = record.get("name", "")
        if kind == "span":
            dur = float(record.get("dur", 0.0))
            if name == "campaign":
                data["campaigns"] += 1
                data["wall_s"] += dur
                if "chunk_cost_s" in attrs:
                    data["dispatch"].append(
                        {key: attrs.get(key) for key in _DISPATCH_KEYS}
                    )
            elif name == "chunk.attempt":
                if attrs.get("ok", "error" not in attrs):
                    data["chunks_ok"] += 1
                    data["tables"] += int(attrs.get("tables", 0))
                    data["attempt_s"] += dur
            elif name.startswith("phase."):
                data["_phase_durs"].setdefault(name[len("phase."):], []).append(dur)
            elif name == "store.append":
                data["store"]["appends"] += 1
                data["_append_durs"].append(dur)
        elif kind == "counter":
            value = int(record.get("value", 1))
            if name == "store.cache_hit":
                data["store"]["cache_hits"] += value
            elif name == "store.cache_miss":
                data["store"]["cache_misses"] += value
            elif name == "store.dedup":
                data["store"]["dedup"] += value
        elif kind == "event":
            if name == "chunk.retry":
                data["retries"] += 1
            elif name == "worker.crash":
                data["crashes"] += 1
            elif name == "chunk.timeout":
                data["timeouts"] += 1
            elif name == "chunk.quarantine":
                data["chunks_failed"] += 1
            elif name == "fault.injected":
                data["faults_injected"] += 1
    out: dict[str, Any] = {}
    for name in sorted(scenarios):
        data = scenarios[name]
        phase_durs = data.pop("_phase_durs")
        append_durs = data.pop("_append_durs")
        data["wall_s"] = round(data["wall_s"], 9)
        data["attempt_s"] = round(data["attempt_s"], 9)
        data["throughput_tables_per_s"] = (
            round(data["tables"] / data["attempt_s"], 3)
            if data["attempt_s"] > 0
            else 0.0
        )
        data["phases"] = {
            phase_name: _latency_stats(durs)
            for phase_name, durs in sorted(phase_durs.items())
            if durs
        }
        if append_durs:
            data["store"].update(
                {k: v for k, v in _latency_stats(append_durs).items() if k != "count"}
            )
        out[name] = data
    return {
        "format": SUMMARY_FORMAT,
        "version": SUMMARY_VERSION,
        "events": len(events),
        "traces": sorted(t for t in traces if t),
        "scenarios": out,
    }


def render_summary(summary: Mapping[str, Any]) -> str:
    """The human form of a summary (the default ``campaign analyze`` view)."""
    lines = [
        f"trace summary: {summary['events']} events across "
        f"{len(summary['traces'])} trace(s)"
    ]
    for name, data in summary["scenarios"].items():
        store = data["store"]
        lines.append(
            f"  {name}: {data['campaigns']} campaign(s), "
            f"{data['chunks_ok']} chunks ok / {data['chunks_failed']} failed, "
            f"{data['tables']} tables @ "
            f"{data['throughput_tables_per_s']:,.0f} tables/s"
        )
        for decision in data["dispatch"]:
            lines.append(
                f"    dispatch: jobs={decision['jobs']}, est. chunk "
                f"{decision['chunk_cost_s'] * 1e3:.1f}ms vs fork "
                f"{decision['fork_overhead_s'] * 1e3:.1f}ms"
            )
        for phase_name, stats in data["phases"].items():
            lines.append(
                f"    phase.{phase_name:<9} count={stats['count']:<4} "
                f"total={stats['total_s']:.3f}s p50={stats['p50_s']:.4f}s "
                f"p90={stats['p90_s']:.4f}s p99={stats['p99_s']:.4f}s"
            )
        lines.append(
            f"    store: {store['appends']} appends, "
            f"{store['cache_hits']} cache hits / "
            f"{store['cache_misses']} misses, {store['dedup']} dedups"
            + (
                f", append p50={store['p50_s']:.4f}s"
                if "p50_s" in store
                else ""
            )
        )
        flaky = {
            "retries": data["retries"],
            "crashes": data["crashes"],
            "timeouts": data["timeouts"],
            "quarantined": data["chunks_failed"],
            "faults injected": data["faults_injected"],
        }
        noisy = {k: v for k, v in flaky.items() if v}
        if noisy:
            lines.append(
                "    failures: "
                + ", ".join(f"{v} {k}" for k, v in noisy.items())
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Baselines — continuous regression tracking
# ----------------------------------------------------------------------
def git_metadata() -> dict[str, str]:
    """Best-effort git commit/branch of the working tree (for stamping)."""
    import subprocess

    meta = {}
    for key, args in (
        ("commit", ("rev-parse", "--short", "HEAD")),
        ("branch", ("rev-parse", "--abbrev-ref", "HEAD")),
    ):
        try:
            meta[key] = subprocess.run(
                ("git", *args),
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
                cwd=Path(__file__).parent,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            meta[key] = "unknown"
    return meta


def check_derate(derate: float) -> float:
    """Validate a baseline ``derate`` factor: a fraction in ``(0, 1]``."""
    if not 0.0 < derate <= 1.0:
        raise ScenarioError(f"derate must be in (0, 1], got {derate!r}")
    return derate


def check_threshold(threshold: float) -> float:
    """Validate a regression ``threshold``: a fraction in ``[0, 1)``."""
    if not 0.0 <= threshold < 1.0:
        raise ScenarioError(f"threshold must be in [0, 1), got {threshold!r}")
    return threshold


def make_baseline(
    summary: Mapping[str, Any], derate: float = 1.0
) -> dict[str, Any]:
    """Distill a summary into a baseline document.

    ``derate`` scales the recorded throughput floors (``0.5`` stores
    half the measured throughput), so a checked-in baseline generated on
    one machine gates order-of-magnitude regressions without flaking on
    ordinary hardware variance; a fresh same-machine baseline uses the
    default ``1.0``.
    """
    check_derate(derate)
    metrics = {}
    for name, data in summary["scenarios"].items():
        metrics[name] = {
            "throughput_tables_per_s": round(
                data["throughput_tables_per_s"] * derate, 3
            ),
            "tables": data["tables"],
            "phases": {
                phase_name: {"p50_s": stats["p50_s"]}
                for phase_name, stats in data["phases"].items()
            },
        }
    return {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "derate": derate,
        "git": git_metadata(),
        "metrics": metrics,
    }


def write_baseline(
    path: str | Path, summary: Mapping[str, Any], derate: float = 1.0
) -> Path:
    """Write :func:`make_baseline` output as stable, diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(make_baseline(summary, derate), indent=2, sort_keys=True)
        + "\n",
        "utf-8",
    )
    return path


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Read and validate a baseline document."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"baseline file {path} does not exist")
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"undecodable baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != BASELINE_FORMAT:
        raise ScenarioError(f"{path} is not a {BASELINE_FORMAT} document")
    if data.get("version") != BASELINE_VERSION:
        raise ScenarioError(
            f"unsupported baseline version {data.get('version')!r} "
            f"(this library reads version {BASELINE_VERSION})"
        )
    return data


def diff_baseline(
    summary: Mapping[str, Any],
    baseline: Mapping[str, Any],
    threshold: float = 0.30,
) -> tuple[bool, list[str]]:
    """Compare a summary against a baseline; ``(ok, report lines)``.

    The *gate* is throughput: a scenario regresses when its measured
    tables/s falls more than ``threshold`` below the baseline's recorded
    floor. Phase p50 latency shifts beyond the threshold are reported as
    warnings but do not fail the gate (absolute latencies vary with
    hardware; throughput against a derated floor is the robust signal).
    Baseline scenarios absent from the summary are noted and skipped, so
    a partial run can still gate the scenarios it did execute.
    """
    check_threshold(threshold)
    ok = True
    lines: list[str] = []
    for name, expected in sorted(baseline["metrics"].items()):
        measured = summary["scenarios"].get(name)
        if measured is None:
            lines.append(f"  {name}: not present in this trace — skipped")
            continue
        base_tp = float(expected["throughput_tables_per_s"])
        cur_tp = float(measured["throughput_tables_per_s"])
        floor = base_tp * (1.0 - threshold)
        if base_tp > 0 and cur_tp < floor:
            ok = False
            lines.append(
                f"  {name}: REGRESSION — throughput {cur_tp:,.0f} tables/s "
                f"is below the gate of {floor:,.0f} "
                f"(baseline {base_tp:,.0f}, threshold {threshold:.0%})"
            )
        else:
            lines.append(
                f"  {name}: ok — throughput {cur_tp:,.0f} tables/s vs "
                f"baseline {base_tp:,.0f} (gate {floor:,.0f})"
            )
        for phase_name, base_stats in expected.get("phases", {}).items():
            cur_stats = measured["phases"].get(phase_name)
            base_p50 = base_stats.get("p50_s")
            if cur_stats is None or base_p50 in (None, 0):
                continue
            if cur_stats["p50_s"] > base_p50 * (1.0 + threshold):
                lines.append(
                    f"    warning: phase.{phase_name} p50 "
                    f"{cur_stats['p50_s']:.4f}s vs baseline {base_p50:.4f}s"
                )
    return ok, lines


__all__ = [
    "BASELINE_FORMAT",
    "BASELINE_VERSION",
    "SUMMARY_FORMAT",
    "SUMMARY_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACE_DIR_ENV_VAR",
    "TelemetryConfig",
    "active",
    "armed",
    "check_derate",
    "check_threshold",
    "counter",
    "diff_baseline",
    "event",
    "git_metadata",
    "install",
    "load_baseline",
    "load_trace",
    "make_baseline",
    "new_trace_id",
    "percentile",
    "phase",
    "render_summary",
    "set_context",
    "span",
    "summarize",
    "write_baseline",
]
