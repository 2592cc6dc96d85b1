"""Append-only campaign result store: chunk checkpoints that survive kills.

Layout, one directory per scenario content-hash under the store root::

    <root>/
      <scenario_id>/
        spec.json      # the full spec (with name/description), written once
        chunks.jsonl   # one canonical-JSON line per *settled* chunk
        report.json    # the final merged report, written when settled

``chunks.jsonl`` is the checkpoint log. A record is appended (and fsynced)
only after its chunk settled — verified completely, or quarantined after
exhausting its retry budget — and carries the chunk index, a digest of
the chunk's bit patterns, the chunk's outcome, and a content ``check``
sealing the record against bit rot::

    {"check":"…","chunk":3,"digest":"…","explorers":[],"states":12345,"total":256,"trapped":256}
    {"attempts":3,"check":"…","chunk":5,"digest":"…","error":"ChunkTimeoutError: …","failed":true}

Keys are sorted and separators minimal, so a record's byte form is a pure
function of its content, and ``check`` (a digest of every other field)
makes *any* byte flip inside a record detectable. Because every record
names its chunk, the log tolerates out-of-order appends (parallel workers
finish in any order), duplicate records (identical re-verification is a
no-op), and a torn final line from a kill mid-write (ignored — that chunk
simply re-verifies on resume). Failure records are *provisional*: a later
success record for the same chunk supersedes them (``retry-failed``), and
a later failure replaces an earlier one. Conflicting *success* duplicates
mean a corrupt store.

Two read paths, on purpose:

* :meth:`ResultStore.load_records` — the strict default. Any undecodable
  non-final line, malformed or check-mismatched record, or conflicting
  success records raise :class:`~repro.errors.StoreCorruptionError`.
  Silent corruption never masquerades as success.
* :meth:`ResultStore.recover` — the explicit fsck. Salvages the valid
  record prefix of a corrupt log, quarantines the damaged original under
  a ``.corrupt-*`` name, and leaves a strict-clean log behind so the
  runner re-executes exactly the lost chunks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro import telemetry
from repro._sha256 import sha256
from repro.errors import ScenarioError, StoreCorruptionError
from repro.scenarios import faults
from repro.scenarios.spec import ScenarioSpec

_RESULT_KEYS = frozenset(
    {"check", "chunk", "digest", "total", "trapped", "explorers", "states"}
)
_FAILURE_KEYS = frozenset(
    {"check", "chunk", "digest", "failed", "attempts", "error"}
)
# Failure records written since the retry-schedule diagnostics landed
# carry one extra key; records without it (older logs) stay valid.
_FAILURE_KEYS_DIAGNOSED = _FAILURE_KEYS | {"diagnostics"}


def chunk_digest(patterns: Sequence[int]) -> str:
    """Content digest of one chunk's bit patterns (16 hex chars)."""
    canonical = json.dumps(list(patterns), separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


def canonical_line(record: dict[str, Any]) -> str:
    """A record's canonical single-line JSON form (sorted, minimal)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_check(record: Mapping[str, Any]) -> str:
    """The content check of a record's non-``check`` fields (12 hex)."""
    body = {key: value for key, value in record.items() if key != "check"}
    return sha256(
        canonical_line(body).encode("utf-8")
    ).hexdigest()[:12]


def seal_record(record: dict[str, Any]) -> dict[str, Any]:
    """Return the record with its content ``check`` field set."""
    sealed = {key: value for key, value in record.items() if key != "check"}
    sealed["check"] = record_check(sealed)
    return sealed


def is_failure_record(record: Mapping[str, Any]) -> bool:
    """Whether a (valid) record marks a quarantined chunk."""
    return "failed" in record


def _validate_record(record: Any) -> bool:
    """Structural + content-check validation of one decoded record."""
    if not isinstance(record, dict) or not isinstance(
        record.get("chunk"), int
    ):
        return False
    keys = set(record)
    if keys == _RESULT_KEYS:
        pass
    elif keys in (_FAILURE_KEYS, _FAILURE_KEYS_DIAGNOSED):
        if record["failed"] is not True:
            return False
    else:
        return False
    return record["check"] == record_check(record)


def _merge_record(
    records: dict[int, dict[str, Any]], record: dict[str, Any]
) -> Optional[str]:
    """Fold one record into the per-chunk map.

    Success records are authoritative (conflicting duplicates are
    corruption — returns an error string); failure records are
    provisional (superseded by any success, replaced by later failures).
    """
    index = record["chunk"]
    previous = records.get(index)
    if previous is None:
        records[index] = record
        return None
    if is_failure_record(record):
        if is_failure_record(previous):
            records[index] = record  # the latest failure wins
        return None  # a stale failure never shadows a success
    if is_failure_record(previous):
        records[index] = record  # success supersedes quarantine
        return None
    if previous != record:
        return f"conflicting records for chunk {index}"
    telemetry.counter("store.dedup", chunk=index)
    return None  # identical duplicate: no-op


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`ResultStore.recover` pass did."""

    path: Path
    lines: int
    salvaged: int
    dropped: int
    torn_tail: bool
    quarantined: Optional[Path]
    chunks: tuple[int, ...]

    @property
    def clean(self) -> bool:
        """Whether the log needed no quarantine (at most a torn tail)."""
        return self.quarantined is None

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        if self.clean and not self.torn_tail:
            return (
                f"{self.path}: clean — {self.salvaged} records, "
                "nothing to do"
            )
        if self.clean:
            return (
                f"{self.path}: torn tail truncated — {self.salvaged} "
                "records kept"
            )
        return (
            f"{self.path}: salvaged {self.salvaged} of {self.lines} lines "
            f"({self.dropped} dropped); corrupt original quarantined at "
            f"{self.quarantined}"
        )


class ResultStore:
    """Filesystem-backed store of campaign checkpoints and reports."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def scenario_dir(self, spec: ScenarioSpec) -> Path:
        """The scenario's directory (``<root>/<scenario_id>``)."""
        return self.root / spec.scenario_id

    def spec_path(self, spec: ScenarioSpec) -> Path:
        """Path of the stored spec."""
        return self.scenario_dir(spec) / "spec.json"

    def chunks_path(self, spec: ScenarioSpec) -> Path:
        """Path of the append-only checkpoint log."""
        return self.scenario_dir(spec) / "chunks.jsonl"

    def report_path(self, spec: ScenarioSpec) -> Path:
        """Path of the final report."""
        return self.scenario_dir(spec) / "report.json"

    # ------------------------------------------------------------------
    # Spec persistence
    # ------------------------------------------------------------------
    def prepare(self, spec: ScenarioSpec) -> None:
        """Create the scenario directory and persist (or cross-check) the spec.

        An existing ``spec.json`` must decode to the same semantic payload
        (same scenario hash) — anything else means two different workloads
        collided on one directory, which is a corrupt store. A *torn*
        ``spec.json`` (kill mid-write) is simply rewritten: the directory
        is keyed by the spec's own content hash, so the file is
        reconstructible from the spec in hand.
        """
        directory = self.scenario_dir(spec)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.spec_path(spec)
        if path.exists():
            try:
                stored = ScenarioSpec.from_dict(
                    json.loads(path.read_text("utf-8"))
                )
            except json.JSONDecodeError:
                stored = None
            if stored is not None:
                if stored.scenario_id != spec.scenario_id:
                    raise StoreCorruptionError(
                        f"store corruption: {path} holds scenario "
                        f"{stored.scenario_id}, expected {spec.scenario_id}"
                    )
                return
        # Atomic publish (write-then-rename) so the file is never observed
        # half-written, even by a concurrent runner.
        tmp_path = path.with_suffix(".json.tmp")
        tmp_path.write_text(
            json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n", "utf-8"
        )
        os.replace(tmp_path, path)

    # ------------------------------------------------------------------
    # Checkpoint log — the strict read path
    # ------------------------------------------------------------------
    def load_records(self, spec: ScenarioSpec) -> dict[int, dict[str, Any]]:
        """Settled-chunk records, keyed by chunk index.

        Tolerates exactly one blemish: an undecodable final line
        *without* a trailing newline — the one shape a kill mid-append
        actually produces (that chunk never checkpointed, so resuming
        re-verifies it). Undecodable *newline-terminated* lines can only
        come from external damage, so they — like any malformed or
        check-mismatched record, or two conflicting success records for
        one chunk — raise :class:`StoreCorruptionError`; run
        ``campaign fsck`` (:meth:`recover`) to salvage.

        Lines are split on ``\\n`` alone (not ``str.splitlines``, whose
        extra boundary characters would let a single flipped byte make
        this reader and :meth:`recover` disagree about the log's very
        line structure).
        """
        path = self.chunks_path(spec)
        if not path.exists():
            return {}
        records: dict[int, dict[str, Any]] = {}
        text = path.read_text("utf-8", errors="replace")
        torn_tail = not text.endswith("\n") and bool(text)
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1 and torn_tail:
                    # Torn tail from an interrupt mid-append: the chunk
                    # never checkpointed, so resuming re-verifies it.
                    continue
                raise StoreCorruptionError(
                    f"corrupt checkpoint log {path}: undecodable line "
                    f"{lineno + 1}; run `campaign fsck` to salvage"
                )
            if not _validate_record(record):
                raise StoreCorruptionError(
                    f"corrupt checkpoint log {path}: malformed or "
                    f"check-mismatched record on line {lineno + 1}; "
                    "run `campaign fsck` to salvage"
                )
            conflict = _merge_record(records, record)
            if conflict is not None:
                raise StoreCorruptionError(
                    f"corrupt checkpoint log {path}: {conflict}; "
                    "run `campaign fsck` to salvage"
                )
        return records

    def append_record(self, spec: ScenarioSpec, record: dict[str, Any]) -> None:
        """Append one settled-chunk record, sealed, flushed and fsynced.

        Durability before throughput: a record either lands whole or (on
        a kill mid-write) becomes the torn tail :meth:`load_records`
        ignores — the store never claims work it cannot prove. A torn
        tail left by an earlier kill is repaired (truncated) before the
        append; writing after it directly would weld the fragment and the
        new record into one permanently undecodable line. An active
        :class:`~repro.scenarios.faults.FaultPlan` may tear the write or
        fail the fsync here (``OSError`` — the caller must retry).
        """
        path = self.chunks_path(spec)
        with telemetry.span("store.append", chunk=int(record["chunk"])):
            self._repair_torn_tail(path)
            sealed = seal_record(record)
            with open(path, "a", encoding="utf-8") as handle:
                faults.tainted_append(
                    handle, canonical_line(sealed) + "\n", int(sealed["chunk"])
                )

    @staticmethod
    def _repair_torn_tail(path: Path) -> None:
        """Make the log end on a record boundary before appending.

        A final line without a trailing newline is either a torn fragment
        from a kill mid-append (truncated away — :meth:`load_records`
        never counted it) or, from a hand edit, a *valid* record merely
        missing its newline (completed in place rather than discarded).
        """
        if not path.exists():
            return
        raw = path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return
        cut = raw.rfind(b"\n") + 1
        tail = raw[cut:]
        try:
            json.loads(tail.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            with open(path, "rb+") as handle:
                handle.truncate(cut)
        else:
            with open(path, "ab") as handle:
                handle.write(b"\n")

    # ------------------------------------------------------------------
    # Recovery — the explicit fsck path
    # ------------------------------------------------------------------
    def recover(
        self,
        spec: ScenarioSpec,
        expected_digests: Optional[Mapping[int, str]] = None,
    ) -> RecoveryReport:
        """Salvage the valid record prefix of a (possibly corrupt) log.

        Scans ``chunks.jsonl`` line by line with exactly the strict
        reader's validation (plus, when ``expected_digests`` is given,
        the runner's chunk-range and digest cross-checks). The first
        offending line ends the salvageable prefix: the original file is
        quarantined under a ``.corrupt-N`` sibling name and a fresh log
        holding only the salvaged records (canonical lines, chunk order,
        fsynced) replaces it — so the strict read path succeeds
        afterwards and the runner re-executes exactly the lost chunks. A
        log whose only blemish is a torn *final* line is repaired in
        place (truncated) without quarantine, and a clean log is left
        untouched. Never raises on corruption; returns what it did.
        """
        path = self.chunks_path(spec)
        if not path.exists():
            return RecoveryReport(path, 0, 0, 0, False, None, ())
        raw = path.read_bytes()
        unterminated = bool(raw) and not raw.endswith(b"\n")
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        records: dict[int, dict[str, Any]] = {}
        kept = torn_tail = 0
        bad_line: Optional[int] = None
        for lineno, line_bytes in enumerate(lines):
            if not line_bytes.strip():
                continue
            record: Any = None
            try:
                record = json.loads(line_bytes.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if lineno == len(lines) - 1 and unterminated:
                    torn_tail = 1  # forgiven, like the strict reader
                    continue
                bad_line = lineno
                break
            if not _validate_record(record):
                bad_line = lineno
                break
            if expected_digests is not None:
                index = record["chunk"]
                if (
                    index not in expected_digests
                    or record["digest"] != expected_digests[index]
                ):
                    bad_line = lineno
                    break
            if _merge_record(records, record) is not None:
                bad_line = lineno
                break
            kept += 1
        chunks = tuple(sorted(records))
        if bad_line is None:
            if torn_tail:
                self._repair_torn_tail(path)
            return RecoveryReport(
                path, len(lines), kept, 0, bool(torn_tail), None, chunks
            )
        quarantine = self._quarantine_path(path)
        os.replace(path, quarantine)
        salvaged_text = "".join(
            canonical_line(records[index]) + "\n" for index in chunks
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(salvaged_text)
            handle.flush()
            os.fsync(handle.fileno())
        dropped = len(lines) - kept - torn_tail
        return RecoveryReport(
            path, len(lines), kept, dropped, bool(torn_tail), quarantine, chunks
        )

    @staticmethod
    def _quarantine_path(path: Path) -> Path:
        """First free ``<log>.corrupt-N`` sibling name."""
        number = 1
        while True:
            candidate = path.with_name(f"{path.name}.corrupt-{number}")
            if not candidate.exists():
                return candidate
            number += 1

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def write_report(self, spec: ScenarioSpec, text: str) -> Path:
        """Write the final report bytes atomically; returns the path.

        Write-then-rename (as :meth:`prepare` does for the spec) so a
        kill mid-write can never leave a half-written ``report.json``
        for consumers to read.
        """
        path = self.report_path(spec)
        tmp_path = path.with_suffix(".json.tmp")
        tmp_path.write_text(text, "utf-8")
        os.replace(tmp_path, path)
        return path

    def read_report(self, spec: ScenarioSpec) -> Optional[str]:
        """The stored report text, or ``None`` if not written yet."""
        path = self.report_path(spec)
        if not path.exists():
            return None
        return path.read_text("utf-8")


__all__ = [
    "RecoveryReport",
    "ResultStore",
    "canonical_line",
    "chunk_digest",
    "is_failure_record",
    "record_check",
    "seal_record",
]
