"""Tests of the benchmark itself: names, gates, tracer invariants."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run, tracer
from perfbench.workloads import (
    WORKLOADS,
    Invocation,
    campaign_invocations,
    check_campaign_run,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_names_are_well_formed_and_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    readme = (run.ROOT / "perfbench" / "README.md").read_text("utf-8")
    for metric in SPEC["per_layer"]:
        # Every layer metric states which end-to-end metric it should move.
        assert f"`{metric['name']}`" in readme


def test_layer_metrics_cover_the_declared_list():
    raw = {
        "spawn": 0.0, "import_start": 0.04, "import_end": 0.2, "exit_start": 1.21,
        "numpy_import_s": 0.1,
        "main": {
            "spans": {"cli.main": [1, 0.99, 0.01], "campaign.run": [1, 0.98, 0.5],
                      "store.append": [4, 0.04, 0.04], "process.start": [4, 0.02, 0.02]},
            "counters": {"campaign.jobs": 2}, "samples": {},
        },
        "workers": {
            "spans": {"sweep_chunk": [4, 0.8, 0.2], "solve": [4, 0.6, 0.1]},
            "counters": {"solve.frontier_s": 0.2, "solve.scc_s": 0.3},
            "samples": {"sweep_chunk": [0.2, 0.2, 0.2, 0.2]},
        },
    }
    rows = tracer.layer_rows(raw, wall_s=1.25)
    assert sum(rows.values()) == pytest.approx(1.25)
    assert rows["frontier"] == pytest.approx(0.1)  # worker time / 2 jobs
    assert rows["dispatch"] == pytest.approx(0.5 + 0.02 - 0.8 / 2)
    metrics = tracer.combine([tracer.invocation_metrics(raw, 1.25, chunks_ran=4)])
    metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["campaign.parallel_eff"] == pytest.approx(0.8 / (0.98 * 2))


def test_traced_campaign_counts_each_chunk_once(tmp_path):
    """thm51-single-n3 at --jobs 2: 8 chunks, each in a forked worker."""
    invocation = campaign_invocations(
        "thm51-single-n3", tmp_path / "store", ("--jobs", "2"), True
    )[0]
    workload = WORKLOADS["thm41-full"]
    iteration = run.Iteration()
    run.run_invocation(
        workload, invocation, tmp_path, 0, True, iteration, run.HostClock()
    )
    assert (iteration.attempted, iteration.failed) == (1, 0), iteration.reasons
    metrics = iteration.layer_parts[0]
    assert metrics["sweep_chunk.calls"] == 8
    assert metrics["store.append_calls"] == 8
    assert metrics["campaign.workers_spawned"] == 8
    assert metrics["campaign.chunk_attempts"] == 8
    assert metrics["campaign.retries"] == 0
    rows = [v for k, v in metrics.items() if k.startswith("layer.") or k == "other_s"]
    assert sum(rows) == pytest.approx(metrics["traced_wall_s"])
    assert len(list((tmp_path / "trace-0").glob("worker-*.json"))) == 8


def test_a_retried_chunk_is_counted_not_failed(tmp_path, monkeypatch):
    """Injected worker crashes: retried chunks pass the self-check."""
    monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps({"seed": 1, "crash": 0.15}))
    invocation = campaign_invocations(
        "thm51-single-n3", tmp_path / "store", ("--jobs", "2"), True
    )[0]
    iteration = run.Iteration()
    run.run_invocation(
        WORKLOADS["thm41-full"], invocation, tmp_path, 0, True, iteration, run.HostClock()
    )
    assert (iteration.attempted, iteration.failed) == (1, 0), iteration.reasons
    metrics = iteration.layer_parts[0]
    assert metrics["store.append_calls"] == 8
    assert metrics["campaign.retries"] > 0
    assert metrics["campaign.chunk_attempts"] == 8 + metrics["campaign.retries"]
    assert metrics["campaign.workers_spawned"] == metrics["campaign.chunk_attempts"]


def test_tracing_imports_nothing_the_program_does_not(tmp_path):
    """Layer modules are wrapped as the program imports them, not before."""
    probe = (
        "import sys\n"
        "from perfbench.tracer import Tracer\n"
        "baseline = set(sys.modules)\n"
        "if sys.argv[1] == 'traced':\n"
        "    Tracer(sys.argv[2]).install()\n"
        "    assert 'repro' not in sys.modules and 'numpy' not in sys.modules\n"
        "import repro.cli\n"
        "from repro.scenarios import campaign\n"
        "from repro.verification import sweeps\n"
        "wrapped = [campaign.sweep_chunk, sweeps.sweep_chunk, repro.cli.verify_exploration,\n"
        "           campaign.CampaignRunner.run]\n"
        "print(sorted(set(sys.modules) - baseline))\n"
        "print([fn.__qualname__.endswith('traced') for fn in wrapped])\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] += f"{os.pathsep}{run.ROOT}"
    outputs = {}
    for mode in ("plain", "traced"):
        result = subprocess.run(
            [sys.executable, "-c", probe, mode, str(tmp_path)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs[mode] = result.stdout.splitlines()
    assert outputs["traced"][0] == outputs["plain"][0]
    assert outputs["plain"][1] == str([False] * 4)
    assert outputs["traced"][1] == str([True] * 4)


def test_wrong_digest_counts_as_a_failure_and_is_not_timed(tmp_path):
    run_argv = ("campaign", "run", "thm51-single-n3", "--store", str(tmp_path / "s"))
    wrong = check_campaign_run("thm51-single-n3", fresh=True, digest="0" * 64)
    iteration = run.Iteration()
    run.run_invocation(
        WORKLOADS["thm41-full"], Invocation(run_argv, "work", True, wrong),
        tmp_path, 0, False, iteration, run.HostClock(),
    )
    assert (iteration.attempted, iteration.failed) == (1, 1)
    assert "digest mismatch" in iteration.reasons[0]
    assert iteration.wall_s == 0.0 and iteration.tables == 0


def test_host_clock_scales_by_the_probes_on_either_side(monkeypatch):
    probes = iter([0.1, 0.05, 0.05])
    monkeypatch.setattr(run.HostClock, "probe", lambda self: next(probes))
    clock = run.HostClock()
    assert clock.scale() == pytest.approx(run.HostClock.REFERENCE_PROBE_S / 0.075)
    assert clock.scale() == pytest.approx(run.HostClock.REFERENCE_PROBE_S / 0.05)


def test_peak_rss_includes_forked_workers(tmp_path):
    code = (
        "import os\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    block = bytearray(96 * 1024 * 1024)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
    )
    measured = run.spawn(lambda stamp: [sys.executable, "-c", code], tmp_path / "out.txt")
    assert measured.code == 0
    assert measured.rss_mb >= 96


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "history.jsonl"),
    )
    result = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "pef3-n8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
    assert not (tmp_path / "perfbench" / "history.jsonl").exists()
