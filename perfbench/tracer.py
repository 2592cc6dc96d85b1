"""Outside-in tracer for the ``repro`` layers.

The tracer never edits the program. It replaces public functions and
methods of the layer modules with timing wrappers, from the benchmark's
own files, for the lifetime of one traced CLI invocation:

* every wrapped call is a *span*: calls, total seconds and self seconds
  (total minus the wrapped calls nested inside it) per span name;
* a function imported by name into another module (``from
  repro.verification.sweeps import sweep_chunk``) is rebound there too,
  so calls through the importing module are traced as well;
* a layer module is wrapped when the program itself first imports it (an
  import hook), or at once if it already has, so a traced run imports
  exactly the modules an untraced one does;
* forked workers start from empty accumulators (``os.register_at_fork``),
  so a worker never re-reports what its parent had counted before the
  fork, and flush their accumulators to ``worker-<pid>.json`` after every
  chunk, because a ``multiprocessing`` worker leaves through ``os._exit``
  and runs no exit handler.

:func:`layer_rows` turns one invocation's spans into an exclusive layer
table whose rows sum to the invocation's wall-clock, and
:func:`invocation_metrics` into the per-layer metrics the benchmark
reports.
"""

from __future__ import annotations

import importlib.abc
import json
import os
import sys
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, Optional

# What the tracer wraps: (module, attribute, span name, before, after).
# ``attribute`` is a module function or ``Class.method``; ``before`` and
# ``after`` name optional :class:`Tracer` hooks around each call.
LAYER_WRAPS = (
    ("repro.scenarios.spec", "ScenarioSpec.chunks", "spec.chunks", None, None),
    ("repro.scenarios.campaign", "CampaignRunner.run", "campaign.run",
     "_before_campaign_run", None),
    ("repro.scenarios.campaign", "CampaignRunner.report_text", "store.report_read",
     None, None),
    ("repro.scenarios.store", "ResultStore.read_report", "store.report_read", None, None),
    ("repro.scenarios.store", "ResultStore.append_record", "store.append", None, None),
    ("repro.scenarios.store", "ResultStore.load_records", "store.load", None, None),
    ("repro.scenarios.store", "ResultStore.write_report", "store.report_write", None, None),
    ("repro.verification.sweeps", "run_table_sweep", "sweep.run", None, None),
    ("repro.verification.sweeps", "sweep_chunk", "sweep_chunk", None, None),
    ("multiprocessing.pool", "Pool.map", "pool.map", "_before_pool_map", None),
    ("multiprocessing.process", "BaseProcess.start", "process.start", None, None),
    ("repro.verification.compiled", "CompiledTables.__init__", "compiled.init", None, None),
    ("repro.verification.batch_solver", "DenseSpace.__init__", "dense_space.build",
     None, None),
    ("repro.verification.batch_solver", "solve_tables", "solve",
     "_before_solve", "_after_solve"),
    ("repro.verification.kernel", "PackedKernel.reachable", "kernel.reachable",
     None, "_after_reachable"),
    ("repro.verification.batch_solver", "reachable_csr", "kernel.reachable_csr",
     None, "_after_reachable_csr"),
    ("repro.verification.game", "verify_exploration", "game.verify", None, None),
    ("repro.verification.certificates", "validate_certificate", "certificates.validate",
     None, None),
    ("repro.scenarios.simulate", "simulate_chunk", "simulate.chunk",
     None, "_after_simulate_chunk"),
    ("repro.verification.batch", "simulate_batch", "simulate.batch", None, None),
)

# Span name -> layer-table row its self time belongs to.
SPAN_ROWS = {
    "cli.main": "cli",
    "spec.chunks": "plan",
    "campaign.run": "dispatch",
    "sweep.run": "dispatch",
    "pool.map": "dispatch",
    "process.start": "dispatch",
    "sweep_chunk": "chunk",
    "compiled.init": "compile",
    "dense_space.build": "compile",
    "solve": "compile",
    "kernel.reachable": "frontier",
    "kernel.reachable_csr": "frontier",
    "game.verify": "scc",
    "certificates.validate": "certificate",
    "simulate.chunk": "simulate",
    "simulate.batch": "simulate",
    "store.append": "store",
    "store.load": "store",
    "store.report_write": "store",
    "store.report_read": "store",
}

ROWS = (
    "startup",
    "cli",
    "plan",
    "dispatch",
    "chunk",
    "compile",
    "frontier",
    "scc",
    "certificate",
    "simulate",
    "store",
    "exit",
    "other",
)
"""Layer-table rows, in reporting order; ``other`` is the remainder."""

# Outermost span of a chunk in a worker process.
CHUNK_SPANS = ("sweep_chunk", "simulate.chunk")


def _len_arg(index: int, keyword: str) -> Callable[[tuple, dict], int]:
    def length(args: tuple, kwargs: dict) -> int:
        value = kwargs[keyword] if keyword in kwargs else args[index]
        return len(value)

    return length


class Tracer:
    """Span and counter accumulators for one process tree."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._armed = False
        self._pending: set[str] = set()
        self._reset()

    def _reset(self) -> None:
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[list[float]] = []
        self._open: set[str] = set()
        self._tid = threading.get_ident()

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside span ``name``.

        Calls from threads other than the one that armed the tracer, and
        calls nested inside an open span of the same name, run untraced.
        """
        if (
            not self._armed
            or name in self._open
            or threading.get_ident() != self._tid
        ):
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        self._open.add(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._open.discard(name)
            if self._stack:
                self._stack[-1][0] += elapsed
            stats = self.spans.setdefault(name, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - frame[0]
            if name in CHUNK_SPANS:
                self.samples.setdefault(name, []).append(elapsed)
                if not self._stack and os.getpid() != self.main_pid:
                    self.flush()

    def snapshot(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "samples": self.samples,
        }

    def flush(self) -> None:
        """Write this worker's cumulative accumulators (atomically)."""
        path = self.out_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), "utf-8")
        os.replace(tmp, path)

    def _after_fork(self) -> None:
        if self._armed:
            self._reset()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Callable[[Any, tuple, dict, Any], None]] = None,
    ) -> None:
        """Trace ``owner.attr`` (a module function or a class method)."""
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before and tracer._armed else None
            result = tracer.call(name, original, *args, **kwargs)
            if after and tracer._armed:
                after(token, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        if isinstance(owner, types.ModuleType):
            for module_name, module in list(sys.modules.items()):
                if module_name.partition(".")[0] != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def install(self) -> None:
        """Arm the tracer and wrap every layer's public entry points.

        A layer module the program has already imported is wrapped now;
        any other is wrapped by :class:`_ImportHook` right after the
        program first imports it, so tracing never imports a module the
        untraced command would not. For the rest of the process's life: a
        traced process exits after the one CLI invocation it traces.
        """
        self._pending = {module for module, *_ in LAYER_WRAPS}
        for module in sorted(self._pending):
            if module in sys.modules:
                self.instrument(sys.modules[module])
        if self._pending:
            sys.meta_path.insert(0, _ImportHook(self))
        os.register_at_fork(after_in_child=self._after_fork)
        self._armed = True

    def instrument(self, module: types.ModuleType) -> None:
        """Wrap what :data:`LAYER_WRAPS` names in ``module`` (once)."""
        if module.__name__ not in self._pending:
            return
        self._pending.discard(module.__name__)
        for name, attribute, span, before, after in LAYER_WRAPS:
            if name != module.__name__:
                continue
            owner: Any = module
            *path, attr = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.wrap(
                owner, attr, span,
                before=getattr(self, before) if before else None,
                after=getattr(self, after) if after else None,
            )

    def _before_campaign_run(self, args: tuple, kwargs: dict) -> None:
        self.high("campaign.jobs", args[0].jobs)

    def _after_reachable(self, token: Any, args: tuple, kwargs: dict, graph: Any) -> None:
        self.count("kernel.states", len(graph))

    def _after_reachable_csr(self, token: Any, args: tuple, kwargs: dict, csr: Any) -> None:
        self.count("kernel.states", len(csr[0]))

    def _after_simulate_chunk(self, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
        self.count("simulate.tables", _len_arg(1, "bits_chunk")(args, kwargs))

    def _before_pool_map(self, args: tuple, kwargs: dict) -> None:
        pool = args[0]
        iterable = kwargs["iterable"] if "iterable" in kwargs else args[2]
        self.count("pool.items", len(iterable))
        self.high("pool.jobs", pool._processes)

    def _before_solve(self, args: tuple, kwargs: dict) -> tuple:
        self.count("solve.tables", _len_arg(1, "tables")(args, kwargs))
        timings = kwargs.get("timings", args[5] if len(args) > 5 else None)
        if timings is None:
            return (None, 0.0, 0.0)
        return (timings, timings.get("frontier", 0.0), timings.get("scc", 0.0))

    def _after_solve(self, token: tuple, args: tuple, kwargs: dict, result: Any) -> None:
        timings, frontier, scc = token
        if timings is not None:
            self.count("solve.frontier_s", timings.get("frontier", 0.0) - frontier)
            self.count("solve.scc_s", timings.get("scc", 0.0) - scc)


class _ImportHook(importlib.abc.MetaPathFinder):
    """Instruments a layer module right after the program imports it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname: str, path: Any = None, target: Any = None) -> Any:
        if fullname not in self.tracer._pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        # Built-in and frozen importers are classes shared by many modules.
        if loader is None or isinstance(loader, type):
            return spec
        exec_module = loader.exec_module
        tracer = self.tracer

        def exec_and_instrument(module: types.ModuleType) -> None:
            exec_module(module)
            tracer.instrument(module)

        loader.exec_module = exec_and_instrument  # type: ignore[method-assign]
        return spec


# ----------------------------------------------------------------------
# Reduction of one traced invocation
# ----------------------------------------------------------------------
def merge_workers(out_dir: Path) -> dict[str, Any]:
    """Sum the flushed accumulators of every worker process."""
    merged: dict[str, Any] = {"spans": {}, "counters": {}, "samples": {}}
    for path in sorted(Path(out_dir).glob("worker-*.json")):
        data = json.loads(path.read_text("utf-8"))
        for name, (calls, total, own) in data["spans"].items():
            stats = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            stats[0] += calls
            stats[1] += total
            stats[2] += own
        for name, value in data["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, values in data["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def worker_jobs(raw: dict[str, Any]) -> int:
    """Worker processes that ran the chunks concurrently (1 if none)."""
    if not raw["workers"]["spans"]:
        return 1
    counters = raw["main"]["counters"]
    return int(max(counters.get("campaign.jobs", 1), counters.get("pool.jobs", 1)))


def layer_rows(raw: dict[str, Any], wall_s: float) -> dict[str, float]:
    """Exclusive layer table of one invocation; rows sum to ``wall_s``.

    Main-process spans contribute their self time. Worker spans run
    ``jobs`` at a time alongside the parent's wait, so they contribute
    their self time divided by ``jobs``, and the parent's dispatch row
    gives up the same share of the worker chunk time. ``exit`` runs from
    the traced process's last stamp to its reaping (interpreter
    teardown). ``other`` is the remainder of ``wall_s``: the tracer's own
    bookkeeping around ``main``.
    """
    rows = dict.fromkeys(ROWS, 0.0)
    rows["startup"] = raw["import_end"] - raw["spawn"]
    rows["exit"] = raw["spawn"] + wall_s - raw["exit_start"]
    jobs = worker_jobs(raw)
    for part, scale in ((raw["main"], 1.0), (raw["workers"], 1.0 / jobs)):
        for name, (_calls, _total, own) in part["spans"].items():
            rows[SPAN_ROWS[name]] += own * scale
        counters = part["counters"]
        frontier = counters.get("solve.frontier_s", 0.0) * scale
        scc = counters.get("solve.scc_s", 0.0) * scale
        rows["compile"] -= frontier + scc
        rows["frontier"] += frontier
        rows["scc"] += scc
    workers = raw["workers"]["spans"]
    rows["dispatch"] -= sum(workers.get(name, [0, 0.0])[1] for name in CHUNK_SPANS) / jobs
    rows["other"] = wall_s - sum(value for row, value in rows.items() if row != "other")
    return rows


def _combined(raw: dict[str, Any]) -> tuple[dict, dict]:
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for part in (raw["main"], raw["workers"]):
        for name, stats in part["spans"].items():
            into = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                into[i] += stats[i]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


def invocation_metrics(
    raw: dict[str, Any], wall_s: float, chunks_ran: int
) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (summable parts).

    ``campaign.parallel_eff`` and ``sweep_chunk.p50_ms`` are not
    summable; they are carried as ``_eff_num``/``_eff_den`` and
    ``_chunk_samples`` for :func:`combine` to reduce.
    """
    spans, counters = _combined(raw)
    main_spans = raw["main"]["spans"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    jobs = worker_jobs(raw)
    worker_chunk_s = sum(
        raw["workers"]["spans"].get(name, [0, 0.0])[1] for name in CHUNK_SPANS
    )
    chunk_s = sum(total(name) for name in CHUNK_SPANS)
    in_campaign = calls("campaign.run") > 0
    attempts = chunk_attempts(spans) if in_campaign else 0
    metrics = {
        "startup.import_s": raw["import_end"] - raw["import_start"],
        "startup.numpy_import_s": raw["numpy_import_s"],
        "spec.chunks_s": total("spec.chunks"),
        "campaign.run_s": total("campaign.run"),
        "campaign.workers_spawned": calls("process.start"),
        "campaign.chunk_attempts": attempts,
        "campaign.retries": attempts - chunks_ran if in_campaign else 0,
        "campaign.dispatch_s": (
            main_spans.get("campaign.run", [0, 0.0, 0.0])[2]
            + main_spans.get("process.start", [0, 0.0, 0.0])[2]
            - worker_chunk_s / jobs
        ) if in_campaign else 0.0,
        "sweep_chunk.calls": calls("sweep_chunk"),
        "sweep_chunk.total_s": total("sweep_chunk"),
        "pool.map_s": total("pool.map"),
        "compiled.init_calls": calls("compiled.init"),
        "compiled.init_s": total("compiled.init"),
        "dense_space.builds": calls("dense_space.build"),
        "solve.tables": counters.get("solve.tables", 0),
        "solve.s": total("solve"),
        "solve.frontier_s": counters.get("solve.frontier_s", 0.0),
        "solve.scc_s": counters.get("solve.scc_s", 0.0),
        "kernel.reachable_s": total("kernel.reachable") + total("kernel.reachable_csr"),
        "kernel.states": counters.get("kernel.states", 0),
        "game.solve_self_s": own("game.verify"),
        "certificates.validate_s": total("certificates.validate"),
        "simulate.chunk_s": total("simulate.chunk"),
        "simulate.batch_s": total("simulate.batch"),
        "simulate.tables": counters.get("simulate.tables", 0),
        "store.append_calls": calls("store.append"),
        "store.append_s": total("store.append"),
        "store.load_s": total("store.load"),
        "store.report_write_s": total("store.report_write"),
        "store.report_read_s": total("store.report_read"),
        "traced_wall_s": wall_s,
        "_eff_num": chunk_s if in_campaign else 0.0,
        "_eff_den": total("campaign.run") * jobs if in_campaign and attempts else 0.0,
    }
    for row, seconds in layer_rows(raw, wall_s).items():
        metrics["other_s" if row == "other" else f"layer.{row}_s"] = seconds
    samples = raw["main"]["samples"].get("sweep_chunk", []) + raw["workers"][
        "samples"
    ].get("sweep_chunk", [])
    metrics["_chunk_samples"] = samples  # type: ignore[assignment]
    return metrics


def chunk_attempts(spans: dict[str, list]) -> int:
    """Chunk attempts of one ``campaign run``.

    The supervised executor forks one worker per attempt, and a worker
    killed mid-chunk never flushes its chunk call, so there the forks
    count the attempts; the in-process executor records every attempt's
    chunk call, crashed or not.
    """
    chunk_calls = sum(spans.get(name, [0])[0] for name in CHUNK_SPANS)
    return max(chunk_calls, spans.get("process.start", [0])[0])


def self_check(raw: dict[str, Any], argv: tuple[str, ...], chunks_ran: int) -> list[str]:
    """The tracer's chunk-count invariants for one invocation.

    A ``campaign run`` that settled ``chunks_ran`` chunks made exactly
    that many store appends and at least that many completed chunk calls,
    and, when it forked workers, no more chunk calls than forks (a retry
    adds a fork, and a chunk call if the failed attempt got to flush). A
    pooled ``sweep`` made one chunk call per item mapped. Counts
    inherited across ``fork`` or lost with a worker's ``os._exit`` break
    these.
    """
    spans, counters = _combined(raw)

    def calls(name: str) -> int:
        return spans.get(name, [0])[0]

    chunk_calls = sum(calls(name) for name in CHUNK_SPANS)
    what = " ".join(argv[:3])
    problems = []
    if tuple(argv[:2]) == ("campaign", "run"):
        if calls("store.append") != chunks_ran:
            problems.append(
                f"{what}: traced {calls('store.append')} store appends, "
                f"expected {chunks_ran}"
            )
        forks = calls("process.start")
        if chunk_calls < chunks_ran or (forks and chunk_calls > forks):
            problems.append(
                f"{what}: traced {chunk_calls} chunk calls in {forks} forked "
                f"workers for {chunks_ran} chunks run"
            )
    elif argv[0] == "sweep":
        items = int(counters.get("pool.items", 0))
        if not chunk_calls or (items and chunk_calls != items):
            problems.append(
                f"{what}: traced {chunk_calls} chunk calls for {items} items mapped"
            )
    elif calls("store.append") or chunk_calls:
        problems.append(f"{what}: traced store appends or chunk calls")
    return problems


def combine(parts: list[dict[str, Any]]) -> dict[str, float]:
    """Reduce the invocations of one traced iteration to its metrics."""
    import statistics

    out: dict[str, float] = {}
    samples: list[float] = []
    for part in parts:
        for name, value in part.items():
            if name == "_chunk_samples":
                samples.extend(value)
            else:
                out[name] = out.get(name, 0) + value
    out["sweep_chunk.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
    num, den = out.pop("_eff_num"), out.pop("_eff_den")
    out["campaign.parallel_eff"] = num / den if den else 0.0
    out["other_share"] = out["other_s"] / out["traced_wall_s"]
    return out
