"""The benchmark's workloads: real ``python -m repro`` invocations.

Each workload expands, per iteration, into a list of :class:`Invocation`
s — the CLI arguments plus the correctness gate its output must pass.
``work`` invocations are what a user runs; ``read`` invocations only read
(a cache-hit rerun, ``campaign report``, a registry listing) and make up
``readonly_s``. ``timed`` says whether the invocation's wall-clock counts
towards ``wall_s`` (and is traced in a traced iteration).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# SHA-256 of each family's canonical report. Reports are byte-identical
# across backends and job counts, so one digest pins each family.
REPORT_DIGESTS = {
    "thm41-two-n4": "28d0761a147c204f3bde8e319dc2a414f23f7b15bd0733677cde4b63a58af8bd",
    "thm41-two-n6": "7db50971151587012d06cdcccf0dae3d83275c7b4cfb00c50f06521125938757",
    "ssync-two-n4": "75aa14e64d196977d9b1d9f492e5b7fcda676929833cc8460cb37e9f3011c236",
    "selfstab-ill-two-n4": "f7b777ac511984dc3c81404c341c338df5ed75cddfdaae143384fe2ea02e881f",
    "bernoulli-two-n4": "3aa40554b230cd1edad90a7d0fa4858b0374844b351882954ae5c137814aacfa",
    "periodic-two-n6": "9877a3dd10d27257ddc47ff5b10119e4f1a82325b63d1f155367a9788a2d4440",
    "markov-live-two-n4": "d36962297fc25faed399b42480c0fde1a9866f43c5a400861ceb8e8520153d5e",
    "thm51-single-n3": "f19a525cae7be51d5806afc1c005f622ef793cf09e0f029c941edd35757b9592",
}

SMALL_FAMILIES = (
    "thm41-two-n6",
    "ssync-two-n4",
    "selfstab-ill-two-n4",
    "bernoulli-two-n4",
    "periodic-two-n6",
    "markov-live-two-n4",
)

PEF3_VERDICT = "pef3+ k=3 n=8: EXPLORES (40320 states, 1396992 transitions)"
SWEEP_SAMPLE = 16384

_RUN_LINE = re.compile(
    r"complete: (\d+)/(\d+) chunks, (\d+)/(\d+) trapped.* — ran (\d+) chunks, "
    r"(\d+) cached; report: (.+)$"
)
_QUARANTINED = re.compile(r"(\d+) chunks quarantined")


@dataclass
class Outcome:
    """What the correctness gate concluded about one invocation."""

    ok: bool
    reason: str = ""
    tables: int = 0
    states: int = 0
    chunks_ran: int = 0
    quarantined: int = 0


Check = Callable[[str, int], Outcome]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    kind: str  # "work" or "read"
    timed: bool
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    lazy_modules: tuple[str, ...]
    plan: Callable[[Path, int], list[Invocation]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_outcome(text: str, digest: str, what: str) -> Outcome:
    if _sha256(text) != digest:
        return Outcome(False, f"{what}: report digest mismatch")
    report = json.loads(text)
    return Outcome(True, tables=report["total"], states=report["states_explored"])


def check_campaign_run(family: str, fresh: bool, digest: Optional[str] = None) -> Check:
    """Gate for ``campaign run``: settled, expected chunk split, pinned report."""
    digest = REPORT_DIGESTS[family] if digest is None else digest

    def check(stdout: str, code: int) -> Outcome:
        quarantined = sum(int(m) for m in _QUARANTINED.findall(stdout))
        line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        match = _RUN_LINE.search(line)
        if code != 0 or match is None:
            return Outcome(
                False, f"campaign run {family}: exit {code}: {line!r}",
                quarantined=quarantined,
            )
        done, chunks, _trapped, _total, ran, cached = map(int, match.groups()[:6])
        expected = (chunks, 0) if fresh else (0, chunks)
        if done != chunks or (ran, cached) != expected:
            return Outcome(False, f"campaign run {family}: unexpected {line!r}")
        path = Path(match.group(7))
        outcome = _report_outcome(path.read_text("utf-8"), digest, family)
        outcome.chunks_ran = ran
        if not fresh:
            outcome.tables = outcome.states = 0
        return outcome

    return check


def check_campaign_report(family: str, digest: Optional[str] = None) -> Check:
    """Gate for ``campaign report``: the printed bytes match the pinned digest."""
    digest = REPORT_DIGESTS[family] if digest is None else digest

    def check(stdout: str, code: int) -> Outcome:
        if code != 0:
            return Outcome(False, f"campaign report {family}: exit {code}")
        outcome = _report_outcome(stdout, digest, family)
        outcome.tables = outcome.states = 0
        return outcome

    return check


def check_verify(stdout: str, code: int) -> Outcome:
    first = stdout.splitlines()[0] if stdout else ""
    if code != 0 or first != PEF3_VERDICT:
        return Outcome(False, f"verify: exit {code}: {first!r}")
    return Outcome(True, tables=1, states=40320)


def check_sweep(sample: int, json_path: Path) -> Check:
    """Gate for ``sweep``: Theorem 4.1 — every sampled table trapped."""
    expected = (
        f"{sample} sampled memoryless 2-robot algorithms (n=5, k=2): "
        f"{sample}/{sample} trapped — ALL TRAPPED"
    )

    def check(stdout: str, code: int) -> Outcome:
        first = stdout.splitlines()[0] if stdout else ""
        if code != 0 or first != expected:
            return Outcome(False, f"sweep: exit {code}: {first!r}")
        result = json.loads(json_path.read_text("utf-8"))
        if (result["total"], result["trapped"], result["explorers"]) != (sample, sample, []):
            return Outcome(False, f"sweep: tally mismatch in {json_path.name}")
        return Outcome(True, tables=sample, states=result["states_explored"])

    return check


def check_contains(prefix: str) -> Check:
    """Gate for a registry listing: exit 0 and a line starting ``prefix``."""

    def check(stdout: str, code: int) -> Outcome:
        if code != 0 or not any(line.startswith(prefix) for line in stdout.splitlines()):
            return Outcome(False, f"listing: exit {code}, no line {prefix!r}")
        return Outcome(True)

    return check


def campaign_invocations(
    family: str, store: Path, jobs: tuple[str, ...], timed_reads: bool
) -> list[Invocation]:
    """Fresh run, cache-hit rerun and report of one family on one store."""
    run = ("campaign", "run", family, "--store", str(store)) + jobs
    return [
        Invocation(run, "work", True, check_campaign_run(family, fresh=True)),
        Invocation(run, "read", timed_reads, check_campaign_run(family, fresh=False)),
        Invocation(
            ("campaign", "report", family, "--store", str(store)),
            "read",
            timed_reads,
            check_campaign_report(family),
        ),
    ]


# Read-only probes of the workloads without a store: the registry
# listings, which read no store but pay the startup every read pays.
_LISTINGS = [
    Invocation(("campaign", "list"), "read", False, check_contains("thm41-two-n4 [")),
    Invocation(("algos",), "read", False, check_contains("pef3+ ")),
]


def _thm41_full(work: Path, seed: int) -> list[Invocation]:
    return campaign_invocations("thm41-two-n4", work / "store", ("--jobs", "2"), False)


def _sweep_n5(work: Path, seed: int) -> list[Invocation]:
    json_path = work / "sweep.json"
    argv = (
        "sweep", "--robots", "2", "--n", "5", "--sample", str(SWEEP_SAMPLE),
        "--rng-seed", str(seed), "--jobs", "2", "--json", str(json_path),
    )
    return [Invocation(argv, "work", True, check_sweep(SWEEP_SAMPLE, json_path))] + _LISTINGS


def _pef3_n8(work: Path, seed: int) -> list[Invocation]:
    argv = ("verify", "--algo", "pef3+", "--n", "8", "--k", "3")
    return [Invocation(argv, "work", True, check_verify)] + _LISTINGS


def _small_campaigns(work: Path, seed: int) -> list[Invocation]:
    invocations: list[Invocation] = []
    for family in SMALL_FAMILIES:
        invocations += campaign_invocations(family, work / "store", (), True)
    return invocations


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "thm41-full",
            ("repro.scenarios",),
            _thm41_full,
        ),
        Workload(
            "sweep-n5",
            ("repro.verification.enumeration",),
            _sweep_n5,
        ),
        Workload(
            "pef3-n8",
            (),
            _pef3_n8,
        ),
        Workload(
            "small-campaigns",
            ("repro.scenarios",),
            _small_campaigns,
        ),
    )
}


def iteration_seed(seed: int, iteration: int) -> int:
    """The input seed of one iteration of a run (deterministic in ``seed``)."""
    return random.Random(f"{seed}:{iteration}").randrange(1 << 31)
