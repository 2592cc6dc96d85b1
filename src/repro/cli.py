"""Command-line interface: ``repro-rings`` / ``python -m repro``.

Subcommands:

* ``table1 [--scale small|full] [--evidence]`` — reproduce the paper's
  Table 1 and print the verdict table;
* ``run --algo NAME --n N --k K [--schedule NAME] [--rounds R]`` — run an
  algorithm against a battery schedule and print the exploration report
  plus a space–time diagram;
* ``verify --algo NAME --n N --k K [--backend auto|vector|packed|object]
  [--scheduler fsync|ssync]`` — exact game-solver verdict (and the trap
  certificate when one exists), under either execution scheduler;
* ``sweep --robots 1|2 --n N [--sample S | --full] [--memory 1|2]
  [--rng-seed S] [--backend B] [--scheduler S] [--jobs J]`` —
  exhaustive/sampled algorithm-class sweep: the flags name a table
  family, which becomes a scenario spec
  (:func:`repro.verification.enumeration.sweep_spec`) run without a
  store by :func:`repro.verification.sweeps.run_table_sweep` — the
  campaign's plan, chunk runner and chunk executor, so it tallies what
  the same spec's campaign report holds. It runs on the NumPy vector
  solver, the packed kernel or the object oracle (``auto``, the
  default, resolves vector → packed by NumPy availability), optionally
  sharded across forked workers (a chunk that fails every attempt exits
  4); ``--memory 2`` samples the ``2**64`` memory-2 two-robot class
  deterministically; ``--scheduler ssync`` plays every game against the
  semi-synchronous activation adversary; ``--json FILE`` dumps the
  machine-readable result, with the resolved backend and worker count;
* ``campaign list|run|status|report|fsck|retry-failed|analyze`` — the scenario
  registry and the persistent campaign runner: named workloads executed
  against an append-only result store with chunk checkpointing, resume
  and dedup (``campaign run NAME`` picks up exactly where an interrupted
  run stopped and emits a byte-identical final report). ``highly-dynamic``
  scenarios run on the exact game solver; schedule-dynamics scenarios
  (periodic, T-interval-connected, whack-a-mole, Bernoulli/Markov, …)
  run on the simulation chunk runner against their pinned schedule
  parameterization — same store, same guarantees. ``--backend
  auto|vector|packed|object`` picks the execution substrate on either
  path (packed kernel vs object product for the solver; NumPy vector
  lockstep vs compiled tables vs object engines for the simulation
  runner); ``auto`` (default) resolves to the fastest available, and
  the choice list is derived from one registry
  (``repro.verification.backends``) shared with ``simulate_chunk`` and
  the sweep path. Backends tally byte-identically,
  so reports and resume points are backend-portable. Runs are supervised
  at every ``--jobs`` (``--max-attempts``/``--chunk-timeout`` govern
  retries, deadlines and quarantine — see ``docs/robustness.md``);
  ``fsck`` salvages a corrupt checkpoint log and ``retry-failed``
  re-executes quarantined chunks, first explaining each poisoning from
  the stored retry diagnostics.
  ``--trace-dir DIR`` (or ``REPRO_TRACE_DIR``) arms span/counter
  telemetry for a run — strictly observational, reports stay
  byte-identical — and ``campaign analyze TRACE_DIR`` aggregates a trace
  into per-phase latency percentiles and throughput, with ``--json``
  output and ``--baseline FILE [--threshold T]`` regression gating (see
  ``docs/observability.md``). ``status --json`` / ``report --json``
  emit the machine-readable forms.
  Exit codes: 0 OK, 1 incomplete (or analyze regression), 2 usage,
  3 corrupt store, 4 degraded, 130 interrupted;
* ``trap --kind fig2|fig3 --algo NAME --n N`` — run an impossibility
  construction and print its audit;
* ``algos`` — list registered algorithms.

Every verb shares one error boundary (:func:`main`): a library error
prints its message and exits with its taxonomy code — an ill-posed
question (``verify --n 3 --k 3``, ``sweep --jobs 0``) is a usage error,
exit 2 — instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro._lazy import lazy_exports
from repro.errors import ReproError, exit_code_for
from repro.verification.backends import (
    AUTO_BACKEND,
    BACKEND_CHOICES,
    resolve_solver_backend,
)
from repro.verification.families import DEFAULT_RNG_SEED, resolve_jobs

# Each verb imports what it needs when it runs: a listing or a report
# never pays for the solver, the simulator or NumPy. The solver entry
# point stays reachable as ``repro.cli.verify_exploration``, resolved on
# first access.
__getattr__, __dir__ = lazy_exports(
    __name__, globals(), {"verify_exploration": "repro.verification.game"}
)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import render_table1, reproduce_table1

    rows = reproduce_table1(scale=args.scale)
    print(render_table1(rows, with_evidence=args.evidence))
    return 0 if all(row.agrees for row in rows) else 1


def _cmd_algos(_args: argparse.Namespace) -> int:
    from repro.robots.algorithms.base import get_algorithm, registry

    for name in sorted(registry):
        algorithm = get_algorithm(name)
        print(f"{name:<28} {algorithm.describe()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.exploration import exploration_report
    from repro.analysis.towers import tower_report
    from repro.experiments.battery import schedule_battery, spread_positions
    from repro.graph.topology import RingTopology
    from repro.robots.algorithms.base import get_algorithm
    from repro.sim.engine import run_fsync
    from repro.viz.ascii_art import render_space_time

    topology = RingTopology(args.n)
    algorithm = get_algorithm(args.algo)
    schedules = dict(schedule_battery(topology, seed=args.seed))
    if args.schedule not in schedules:
        print(
            f"unknown schedule {args.schedule!r}; choose from "
            f"{sorted(schedules)}",
            file=sys.stderr,
        )
        return 2
    result = run_fsync(
        topology,
        schedules[args.schedule],
        algorithm,
        positions=spread_positions(topology, args.k),
        rounds=args.rounds,
    )
    trace = result.trace
    assert trace is not None
    print(exploration_report(trace).render())
    print(tower_report(trace).render())
    if args.diagram:
        print()
        print(render_space_time(trace, start=0, end=min(args.rounds, 60)))
    return 0


def _write_output(path: str, text: str) -> None:
    """Write an output file; an unwritable path is a usage error (one
    stderr line, exit 2) rather than a traceback."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.graph.topology import RingTopology
    from repro.robots.algorithms.base import get_algorithm
    from repro.verification.game import verify_exploration

    topology = RingTopology(args.n)
    algorithm = get_algorithm(args.algo)
    backend = resolve_solver_backend(args.backend)
    verdict = verify_exploration(
        algorithm, topology, k=args.k, backend=backend,
        scheduler=args.scheduler,
    )
    print(verdict.summary())
    if verdict.certificate is not None:
        cert = verdict.certificate
        print(f"  seed positions: {cert.seed_positions}")
        print(f"  prefix ({len(cert.prefix)}): {[sorted(s) for s in cert.prefix]}")
        print(f"  cycle  ({len(cert.cycle)}): {[sorted(s) for s in cert.cycle]}")
        if cert.cycle_activations is not None:
            assert cert.prefix_activations is not None
            print(
                f"  activations: prefix "
                f"{[sorted(s) for s in cert.prefix_activations]}, cycle "
                f"{[sorted(s) for s in cert.cycle_activations]}"
            )
        if args.save is not None:
            from repro.serialize import dumps

            _write_output(args.save, dumps(cert) + "\n")
            print(f"  certificate written to {args.save}")
    elif args.save is not None:
        print("  nothing to save: the instance is explorable", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.verification.enumeration import sweep_spec
    from repro.verification.sweeps import run_table_sweep

    backend = resolve_solver_backend(args.backend)
    if args.memory == 2:
        if args.robots != 2:
            print("--memory 2 requires --robots 2", file=sys.stderr)
            return 2
        if args.full:
            print(
                "--memory 2 cannot be exhausted (2**64 tables); "
                "use --sample K --rng-seed S",
                file=sys.stderr,
            )
            return 2
        family = "two-m2"
    else:
        family = "single" if args.robots == 1 else "two"
    # The 256 single-robot tables are always enumerated whole.
    sample = None if args.full or family == "single" else args.sample
    spec = sweep_spec(
        family, args.n, sample=sample, rng_seed=args.rng_seed,
        scheduler=args.scheduler,
    )
    jobs = resolve_jobs(args.jobs)
    result = run_table_sweep(spec, backend=backend, jobs=jobs)
    print(result.summary())
    if args.json is not None:
        import json

        payload = {
            "description": result.description,
            "n": result.n,
            "k": result.k,
            "total": result.total,
            "trapped": result.trapped,
            "explorers": result.explorers,
            "states_explored": result.states_explored,
            "all_trapped": result.all_trapped,
            "backend": backend,
            "jobs": jobs,
            "memory": args.memory,
            "scheduler": args.scheduler,
        }
        _write_output(args.json, json.dumps(payload, indent=2) + "\n")
        print(f"  result written to {args.json}")
    return 0 if result.all_trapped else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.errors import EXIT_DEGRADED, EXIT_INCOMPLETE, EXIT_OK
    from repro.scenarios import get_scenario, iter_scenarios

    # Scenario errors reach main()'s boundary: incomplete is the expected
    # keep-running state (exit 1), degraded wants `retry-failed` or
    # --allow-degraded (4), corruption wants `fsck` (3), the rest is usage.
    if args.action == "list":
        for spec in iter_scenarios():
            print(spec.summary())
        return EXIT_OK
    # Past the listing: the runner and its executors.
    from repro.scenarios import CampaignRunner, ResultStore, RetryPolicy

    spec = get_scenario(args.name)
    policy_fields = {}
    if getattr(args, "max_attempts", None) is not None:
        policy_fields["max_attempts"] = args.max_attempts
    if getattr(args, "chunk_timeout", None) is not None:
        policy_fields["chunk_timeout"] = args.chunk_timeout
    runner = CampaignRunner(
        ResultStore(args.store),
        backend=args.backend,
        jobs=args.jobs,
        policy=RetryPolicy(**policy_fields),
        telemetry=getattr(args, "trace_dir", None),
    )
    if args.action in ("run", "retry-failed"):
        if args.action == "run":
            outcome = runner.run(spec, max_chunks=args.max_chunks)
        else:
            # Explain each poisoning from the stored retry diagnostics
            # before re-executing the chunk.
            for index, record in runner.failure_details(spec).items():
                print(
                    f"chunk {index} was quarantined after "
                    f"{record['attempts']} attempts: {record['error']}"
                )
                diagnostics = record.get("diagnostics") or {}
                for entry in diagnostics.get("attempts", []):
                    delay = entry.get("delay")
                    deadline = entry.get("deadline")
                    print(
                        f"  attempt {entry['attempt']}: {entry['error']}"
                        + (
                            f" (deadline {deadline:g}s)"
                            if deadline is not None
                            else ""
                        )
                        + (
                            f"; backed off {delay:.3f}s"
                            if delay is not None
                            else "; retry budget exhausted"
                        )
                    )
            outcome = runner.retry_failed(spec, max_chunks=args.max_chunks)
        print(outcome.summary())
        if outcome.status.complete:
            return EXIT_OK
        return EXIT_DEGRADED if outcome.status.degraded else EXIT_INCOMPLETE
    if args.action == "status":
        if getattr(args, "json", False):
            import json

            print(json.dumps(runner.status_dict(spec), indent=2, sort_keys=True))
        else:
            print(runner.status(spec).summary())
        return EXIT_OK
    if args.action == "fsck":
        print(runner.fsck(spec).summary())
        return EXIT_OK
    # The report *is* canonical JSON; --json emits the same bytes (kept as
    # an explicit flag so scripted consumers can state the contract they
    # rely on).
    print(runner.report_text(spec, allow_degraded=args.allow_degraded), end="")
    return EXIT_OK


def _cmd_campaign_analyze(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.errors import EXIT_OK

    # Both knobs are checked whether or not the flag that reads them is
    # given, so an out-of-range value never passes silently.
    telemetry.check_threshold(args.threshold)
    telemetry.check_derate(args.derate)
    summary = telemetry.summarize(telemetry.load_trace(args.trace_dir))
    if args.write_baseline is not None:
        path = telemetry.write_baseline(
            args.write_baseline, summary, derate=args.derate
        )
        print(f"baseline written to {path}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(telemetry.render_summary(summary))
    if args.baseline is None:
        return EXIT_OK
    baseline = telemetry.load_baseline(args.baseline)
    ok, lines = telemetry.diff_baseline(summary, baseline, args.threshold)
    # With --json the summary on stdout must stay parseable; the diff
    # verdict goes to stderr in that case.
    sink = sys.stderr if args.json else sys.stdout
    print(
        f"baseline {args.baseline}: "
        + ("ok" if ok else "REGRESSION beyond threshold"),
        file=sink,
    )
    for line in lines:
        print(line, file=sink)
    return EXIT_OK if ok else 1


def _cmd_trap(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure2_experiment, figure3_experiment
    from repro.robots.algorithms.base import get_algorithm
    from repro.viz.ascii_art import render_space_time

    algorithm = get_algorithm(args.algo)
    if args.kind == "fig3":
        out3 = figure3_experiment(algorithm, n=args.n, rounds=args.rounds)
        print(out3.summary())
        if args.diagram:
            print(render_space_time(out3.trace, start=0, end=min(args.rounds, 60)))
        return 0
    out2 = figure2_experiment(algorithm, n=args.n, rounds=args.rounds)
    print(out2.summary())
    if args.diagram:
        print(render_space_time(out2.trace, start=0, end=min(args.rounds, 60)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-rings",
        description="Perpetual exploration of highly dynamic rings "
        "(Bournat, Dubois & Petit, ICDCS 2017) — reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="reproduce the paper's Table 1")
    p_table.add_argument("--scale", choices=["small", "full"], default="small")
    p_table.add_argument("--evidence", action="store_true")
    p_table.set_defaults(fn=_cmd_table1)

    p_algos = sub.add_parser("algos", help="list registered algorithms")
    p_algos.set_defaults(fn=_cmd_algos)

    p_run = sub.add_parser("run", help="run an algorithm on a battery schedule")
    p_run.add_argument("--algo", required=True)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--k", type=int, required=True)
    p_run.add_argument("--schedule", default="eventually-missing@0")
    p_run.add_argument("--rounds", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=20170612)
    p_run.add_argument("--diagram", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="exact game-solver verdict")
    p_verify.add_argument("--algo", required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument(
        "--save", default=None, metavar="FILE",
        help="write the trap certificate (if any) as JSON",
    )
    p_verify.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=AUTO_BACKEND,
        help="verification substrate: NumPy vector lockstep, packed int "
        "kernel or the object-path semantics oracle; 'auto' (default) "
        "resolves vector → packed by NumPy availability",
    )
    p_verify.add_argument(
        "--scheduler", choices=["fsync", "ssync"], default="fsync",
        help="execution scheduler the game is played under: fully "
        "synchronous (default) or semi-synchronous (the adversary also "
        "picks fair activation subsets — Di Luna et al.)",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="sweep a whole algorithm class (Theorems 4.1/5.1)"
    )
    p_sweep.add_argument("--robots", type=int, choices=[1, 2], required=True)
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument(
        "--sample", type=int, default=2048,
        help="2-robot only: number of sampled tables (default 2048)",
    )
    p_sweep.add_argument(
        "--full", action="store_true",
        help="2-robot only: sweep all 65536 tables (overrides --sample)",
    )
    p_sweep.add_argument(
        "--memory", type=int, choices=[1, 2], default=1,
        help="table memory size; 2 samples the 2**64 memory-2 two-robot "
        "class (requires --robots 2 and --sample)",
    )
    p_sweep.add_argument(
        "--rng-seed", type=int, default=DEFAULT_RNG_SEED, metavar="S",
        help=f"deterministic sampling seed (default {DEFAULT_RNG_SEED})",
    )
    p_sweep.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=AUTO_BACKEND,
        help="solver substrate; 'auto' (default) resolves vector → "
        "packed by NumPy availability",
    )
    p_sweep.add_argument(
        "--scheduler", choices=["fsync", "ssync"], default="fsync",
        help="execution scheduler for every verified member (ssync = the "
        "semi-synchronous activation adversary)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=None, metavar="J",
        help="worker processes (default: all cores); results are "
        "identical for any value",
    )
    p_sweep.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the sweep result as JSON",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_campaign = sub.add_parser(
        "campaign",
        help="scenario registry + persistent, resumable campaign runner "
        "(exact solver for highly-dynamic scenarios, simulation for "
        "schedule-dynamics families)",
    )
    campaign_sub = p_campaign.add_subparsers(dest="action", required=True)
    c_list = campaign_sub.add_parser("list", help="list registered scenarios")
    c_list.set_defaults(fn=_cmd_campaign)
    for action, description in (
        ("run", "verify every pending chunk of a scenario (resumable)"),
        ("status", "show checkpointed progress of a scenario"),
        ("report", "print the final merged report (requires completion)"),
        ("fsck", "salvage a corrupt checkpoint log (quarantines damage)"),
        (
            "retry-failed",
            "re-execute exactly the quarantined chunks of a degraded "
            "campaign",
        ),
    ):
        c_action = campaign_sub.add_parser(action, help=description)
        c_action.add_argument("name", help="registered scenario name")
        c_action.add_argument(
            "--store", default="campaigns", metavar="DIR",
            help="result-store root directory (default: ./campaigns)",
        )
        c_action.add_argument(
            "--backend", choices=list(BACKEND_CHOICES), default=AUTO_BACKEND,
            help="execution substrate for either dispatch path; 'auto' "
            "(default) resolves to the fastest available per path "
            "(vector needs NumPy and exists on both the solver and the "
            "simulation path); tallies, reports and resume points are "
            "identical across backends",
        )
        c_action.add_argument(
            "--jobs", type=int, default=None, metavar="J",
            help="worker processes (default: all available cores when the "
            "pending chunks' estimated cost outweighs a fork per attempt, "
            "else none: every attempt runs in this process)",
        )
        if action in ("run", "retry-failed"):
            c_action.add_argument(
                "--max-chunks", type=int, default=None, metavar="N",
                help="verify at most N pending chunks this invocation",
            )
            c_action.add_argument(
                "--max-attempts", type=int, default=None, metavar="K",
                help="attempts per chunk before quarantine (default 3)",
            )
            c_action.add_argument(
                "--chunk-timeout", type=float, default=None, metavar="SEC",
                help="per-chunk deadline in seconds, enforced at every "
                "--jobs (default: none)",
            )
            c_action.add_argument(
                "--trace-dir", default=None, metavar="DIR", dest="trace_dir",
                help="write a JSONL telemetry trace of this run to DIR "
                "(REPRO_TRACE_DIR is the equivalent env channel); "
                "observational only — records and report bytes are "
                "byte-identical with or without it",
            )
        if action in ("status", "report"):
            c_action.add_argument(
                "--json", action="store_true",
                help="machine-readable output (for report this emits "
                "exactly the canonical report bytes)",
            )
        if action == "report":
            c_action.add_argument(
                "--allow-degraded", action="store_true",
                help="emit the partial report of a degraded campaign "
                "(it carries degraded/failed_chunks markers)",
            )
        c_action.set_defaults(fn=_cmd_campaign)
    c_analyze = campaign_sub.add_parser(
        "analyze",
        help="aggregate a telemetry trace directory: per-phase latency "
        "percentiles, throughput, retry/crash tallies, store cache "
        "ratios; optionally gate against a checked-in baseline",
    )
    c_analyze.add_argument(
        "trace_dir", metavar="TRACE_DIR",
        help="trace directory written by `campaign run --trace-dir` "
        "(or REPRO_TRACE_DIR)",
    )
    c_analyze.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON (the telemetry-summary document)",
    )
    c_analyze.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="diff against a telemetry-baseline file; exits 1 when any "
        "scenario's throughput regresses beyond --threshold",
    )
    c_analyze.add_argument(
        "--threshold", type=float, default=0.30, metavar="FRAC",
        help="allowed fractional throughput regression (default 0.30)",
    )
    c_analyze.add_argument(
        "--write-baseline", default=None, metavar="FILE", dest="write_baseline",
        help="distill this trace's summary into a baseline file "
        "(stamped with git metadata)",
    )
    c_analyze.add_argument(
        "--derate", type=float, default=1.0, metavar="FRAC",
        help="scale recorded baseline throughput floors by FRAC "
        "(checked-in cross-machine baselines use 0.5)",
    )
    c_analyze.set_defaults(fn=_cmd_campaign_analyze)

    p_trap = sub.add_parser("trap", help="run an impossibility construction")
    p_trap.add_argument("--kind", choices=["fig2", "fig3"], required=True)
    p_trap.add_argument("--algo", required=True)
    p_trap.add_argument("--n", type=int, required=True)
    p_trap.add_argument("--rounds", type=int, default=400)
    p_trap.add_argument("--diagram", action="store_true")
    p_trap.set_defaults(fn=_cmd_trap)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary of every verb: a library error prints its
    message to stderr and maps onto the exit-code taxonomy
    (:func:`repro.errors.exit_code_for` — bad input is a usage error,
    exit 2), never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
