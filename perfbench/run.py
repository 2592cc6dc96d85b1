#!/usr/bin/env python3
"""Benchmark runner: real ``python -m repro`` commands, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

One process runs the workload's CLI invocations as subprocesses in a
closed loop, one at a time, for ``--seconds`` (at least one iteration),
and checks every invocation's output against its correctness gate. With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``
(medians over iterations, times in reference-host seconds: see
:class:`HostClock`); with ``--trace 1`` it alternates untraced and
traced iterations and reports the per-layer metrics, taken from traced
runs of ``repro.cli.main`` (see ``perfbench/traced.py``). ``all`` runs
every workload both ways and prints every metric with its unit.

Human-readable tables go to stderr; the last line of stdout is the JSON
result. Every run appends one record, with its own provenance, to
``perfbench/history.jsonl``, which is only ever appended to.
"""

from __future__ import annotations

import argparse
import collections
import datetime
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Invocation,
    Outcome,
    Workload,
    iteration_seed,
)

INVOCATION_TIMEOUT_S = 120.0
SETUP_FIRST = 4
SETUP_PER_ITERATION = 2
HISTORY = ROOT / "perfbench" / "history.jsonl"


def child_env() -> dict[str, str]:
    """Environment of every CLI invocation: ``src`` on the path, and a
    bytecode cache of the benchmark's own so that imports are warm after
    the first one whatever the caller's bytecode settings."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


@dataclass
class Measured:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


def spawn(command: Callable[[float], list[str]], stdout_path: Path) -> Measured:
    """Run one process to exit; wall-clock from spawn to reap.

    ``command`` receives the ``time.monotonic()`` stamp taken just before
    the spawn. Peak RSS comes from ``os.wait4``, whose rusage covers the
    child and every descendant it reaped (its forked workers).
    """
    env = child_env()
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            command(start), cwd=ROOT, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(
        wall, usage.ru_maxrss / 1024.0, proc.returncode,
        stdout_path.read_text("utf-8", errors="replace"),
    )


@dataclass
class Iteration:
    """One pass over a workload's invocations.

    ``wall_s`` and ``readonly_s`` are in reference-host seconds (see
    :class:`HostClock`), ``measured_wall_s`` is ``wall_s`` as measured.
    """

    wall_s: float = 0.0
    measured_wall_s: float = 0.0
    readonly_s: float = 0.0
    tables: int = 0
    states: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    layer_parts: list[dict[str, Any]] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(reason)


def run_invocation(
    workload: Workload, invocation: Invocation, directory: Path, index: int,
    traced: bool, iteration: Iteration, clock: HostClock,
) -> None:
    """Run, gate and account one invocation into ``iteration``."""
    stdout_path = directory / f"out-{index}.txt"
    trace_dir = directory / f"trace-{index}"
    if traced:
        trace_dir.mkdir()

        def command(stamp: float) -> list[str]:
            return [
                sys.executable, "-m", "perfbench.traced", str(trace_dir),
                repr(stamp), *workload.lazy_modules, "--", *invocation.argv,
            ]
    else:

        def command(stamp: float) -> list[str]:
            return [sys.executable, "-m", "repro", *invocation.argv]

    measured = spawn(command, stdout_path)
    wall_ref_s = measured.wall_s * clock.scale()
    try:
        outcome = invocation.check(measured.stdout, measured.code)
    except (OSError, ValueError, KeyError) as exc:
        outcome = Outcome(False, f"{' '.join(invocation.argv)}: {exc!r}")
    iteration.attempted += 1 + outcome.quarantined
    if outcome.quarantined:
        iteration.fail(f"{outcome.quarantined} quarantined chunks", outcome.quarantined)
    if not outcome.ok:
        iteration.fail(outcome.reason)
        return
    if traced:
        raw = json.loads((trace_dir / "raw.json").read_text("utf-8"))
        problems = tracer.self_check(raw, invocation.argv, outcome.chunks_ran)
        if problems:
            iteration.fail("; ".join(problems))
            return
        iteration.layer_parts.append(
            tracer.invocation_metrics(raw, measured.wall_s, outcome.chunks_ran)
        )
    iteration.peak_rss_mb = max(iteration.peak_rss_mb, measured.rss_mb)
    if invocation.timed:
        iteration.wall_s += wall_ref_s
        iteration.measured_wall_s += measured.wall_s
        iteration.tables += outcome.tables
        iteration.states += outcome.states
    if invocation.kind == "read":
        iteration.readonly_s += wall_ref_s


def run_iteration(
    workload: Workload, directory: Path, seed: int, traced: bool, clock: HostClock
) -> Iteration:
    """One closed-loop pass; a traced pass runs only the timed invocations."""
    directory.mkdir(parents=True)
    iteration = Iteration()
    for index, invocation in enumerate(workload.plan(directory, seed)):
        if traced and not invocation.timed:
            continue
        run_invocation(workload, invocation, directory, index, traced, iteration, clock)
    return iteration


def measure_setup(
    workload: Workload, directory: Path, count: int, clock: HostClock
) -> list[float]:
    """Reference-host seconds of ``count`` fresh interpreters importing the
    verb's modules.

    Runs after :func:`warm_up`, whose import filled the bytecode cache:
    users pay for compiling once per install, not once per command.
    """
    directory.mkdir(parents=True)
    source = "; ".join(f"import {name}" for name in ("repro.cli",) + workload.lazy_modules)
    samples = []
    for repeat in range(count):
        measured = spawn(
            lambda stamp: [sys.executable, "-c", source], directory / f"setup-{repeat}.txt"
        )
        scale = clock.scale()
        if measured.code != 0:
            raise RuntimeError(f"importing the CLI failed (exit {measured.code})")
        samples.append(measured.wall_s * scale)
    return samples


def warm_up(workload: Workload, directory: Path, seed: int) -> None:
    """Run the workload's first invocation once, unmeasured.

    The first heavy process after a pause runs markedly slower than the
    ones that follow it; users running commands back to back do not see
    that, so no measured iteration should.
    """
    directory.mkdir(parents=True)
    invocation = workload.plan(directory, seed)[0]
    spawn(lambda stamp: [sys.executable, "-m", "repro", *invocation.argv], directory / "out.txt")


class HostClock:
    """Converts wall-clock seconds into reference-host seconds.

    The benchmark shares its cores with other tenants, whose load slows
    every process on the machine by as much as a half, changing within
    seconds and drifting over minutes. The clock runs a fixed probe, a
    pure-Python loop plus a breadth-first search over a random graph of
    about ten megabytes, between every two measured processes. A process's
    wall-clock is scaled by ``REFERENCE_PROBE_S`` over the mean of the
    probes on either side of it, which cancels most of the host's speed at
    the time and leaves the program's own.
    """

    REFERENCE_PROBE_S = 0.1
    NODES = 40_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self.graph = [[rng.randrange(self.NODES) for _ in range(6)] for _ in range(self.NODES)]
        self.probes = [self.probe()]

    def probe(self) -> float:
        """Seconds the fixed probe takes: the host's speed right now."""
        start = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value
        seen = bytearray(self.NODES)
        seen[0] = 1
        queue = collections.deque([0])
        while queue:
            for node in self.graph[queue.popleft()]:
                if not seen[node]:
                    seen[node] = 1
                    queue.append(node)
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor for the process that ran since the previous probe."""
        before = self.probes[-1]
        self.probes.append(self.probe())
        return self.REFERENCE_PROBE_S / ((before + self.probes[-1]) / 2)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; returns the result record (without provenance)."""
    workload = WORKLOADS[name]
    units = metric_units()
    work = ROOT / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        warm_up(workload, work / "warm-up", iteration_seed(seed, -1))
        clock = HostClock()
        # Set-up samples are spread over the run, so that a burst of load
        # from other tenants of the machine cannot land on all of them.
        setup = measure_setup(workload, work / "setup", SETUP_FIRST, clock)
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        started = time.monotonic()
        index = 0
        while True:
            setup += measure_setup(
                workload, work / f"setup{index}", SETUP_PER_ITERATION, clock
            )
            input_seed = iteration_seed(seed, index)
            plain.append(
                run_iteration(workload, work / f"it{index}", input_seed, False, clock)
            )
            if trace:
                traced.append(
                    run_iteration(workload, work / f"it{index}t", input_seed, True, clock)
                )
            shutil.rmtree(work / f"it{index}", ignore_errors=True)
            shutil.rmtree(work / f"it{index}t", ignore_errors=True)
            index += 1
            elapsed = time.monotonic() - started
            # Stop before an iteration that would overrun the run length.
            if elapsed + elapsed / index > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    everything = plain + traced
    ok_plain = [it for it in plain if not it.failed]
    if trace:
        pairs = [
            (p, t) for p, t in zip(plain, traced) if not p.failed and not t.failed
        ]
        per_iteration = [tracer.combine(t.layer_parts) for _, t in pairs]
        kind = "per_layer"
        series = {
            metric: [part[metric] for part in per_iteration]
            for metric in units[kind]
            if metric != "trace.overhead_s"
        }
        series["trace.overhead_s"] = [
            t.measured_wall_s - p.measured_wall_s for p, t in pairs
        ]
    else:
        kind = "end_to_end"
        series = {
            "wall_s": [it.wall_s for it in ok_plain],
            "setup_s": setup,
            "tables_per_s": [it.tables / it.wall_s for it in ok_plain],
            "states_per_s": [it.states / it.wall_s for it in ok_plain],
            "readonly_s": [it.readonly_s for it in ok_plain],
            "peak_rss_mb": [it.peak_rss_mb for it in ok_plain],
        }
    failed = sum(it.failed for it in everything)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "iterations": len(plain),
        "correct": failed == 0 and bool(ok_plain),
        "attempted": sum(it.attempted for it in everything),
        "failed": failed,
        "failures": [reason for it in everything for reason in it.reasons][:20],
        "host_probe_s": [float(f"{value:.6g}") for value in clock.probes],
        "measured_wall_s": [float(f"{it.measured_wall_s:.6g}") for it in ok_plain],
        "metrics": {
            metric: {"value": _median(series[metric]), "unit": unit}
            for metric, unit in units[kind].items()
        },
        "series": {
            metric: [float(f"{value:.6g}") for value in values]
            for metric, values in series.items()
        },
    }


def metric_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def provenance() -> dict[str, Any]:
    """Where and on what a record was measured, taken at run time."""
    commit = dirty = None
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src",
             "perfbench", ":(exclude)perfbench/history.jsonl"],
            capture_output=True, text=True,
        )
        if head.returncode == 0 and status.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def append_history(record: dict[str, Any]) -> None:
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def render(record: dict[str, Any]) -> str:
    """Human-readable metric table of one run (plus the layer table)."""
    lines = [
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"iterations={record['iterations']} correct={record['correct']} "
        f"failed={record['failed']}/{record['attempted']}"
    ]
    for reason in record["failures"]:
        lines.append(f"  FAILED: {reason}")
    metrics = record["metrics"]
    for name, metric in metrics.items():
        lines.append(
            f"  {name:<28} {metric['value']:>14.6g} {metric['unit']:<8} "
            f"n={len(record['series'][name])}"
        )
    if record["trace"] and metrics:
        wall = metrics["traced_wall_s"]["value"] or 1.0
        lines.append("  layer table (median traced iteration, share of traced wall):")
        for row in tracer.ROWS:
            key = "other_s" if row == "other" else f"layer.{row}_s"
            seconds = metrics[key]["value"]
            lines.append(f"    {row:<12} {seconds:>10.4f} s {100 * seconds / wall:>6.1f}%")
    return "\n".join(lines)


def result_line(record: dict[str, Any]) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    records = []
    for name, trace in runs:
        record = run_benchmark(name, args.seed, args.seconds, trace)
        record["provenance"] = provenance()
        record["time"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
        append_history(record)
        print(render(record), file=sys.stderr)
        records.append(record)
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "workloads": {
                f"{r['workload']}/trace={r['trace']}": r["metrics"] for r in records
            },
        }))
    else:
        # A single-workload run reports failures through "correct" and
        # exits 0 once it has printed its result.
        print(result_line(records[0]))
        return 0
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
