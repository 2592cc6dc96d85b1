"""Tests for the persistent campaign runner and its result store.

The acceptance contract under test: interrupting a campaign mid-run and
resuming yields a final report *byte-identical* to an uninterrupted
run's, and re-running a completed campaign is a cache hit (zero chunks
re-verified). Plus the store's failure modes: torn tail lines are
forgiven, conflicting or mismatched checkpoints are refused.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from scenario_testlib import make_tiny_dynamics_scenario as tiny_dyn_spec
from scenario_testlib import make_tiny_scenario as tiny_spec
from repro.cli import main as cli_main
from repro.errors import ScenarioError
from repro.scenarios import (
    CampaignRunner,
    FaultPlan,
    ResultStore,
    RetryPolicy,
    RobotClassSpec,
    get_scenario,
    simulate_chunk,
)
from repro.scenarios import campaign
from repro.scenarios.campaign import plan_jobs
from repro.verification import batch, sweeps
from repro.verification.sweeps import sweep_chunk


def runner_for(tmp_path: Path, label: str, **kwargs) -> CampaignRunner:
    kwargs.setdefault("jobs", 1)
    return CampaignRunner(ResultStore(tmp_path / label), **kwargs)


class TestCampaignLifecycle:
    def test_full_run_completes_and_reports(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.status.all_trapped
        assert outcome.chunks_run == spec.chunk_count == 4
        assert outcome.chunks_cached == 0
        assert outcome.report_path is not None and outcome.report_path.exists()
        report = json.loads(runner.report_text(spec))
        assert report["format"] == "campaign-report"
        assert report["total"] == report["trapped"] == 24
        assert report["scenario"]["name"] == "tiny"
        assert report["scenario_id"] == spec.scenario_id

    def test_status_before_any_run(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        status = runner_for(tmp_path, "a").status(spec)
        assert status.chunks_done == 0
        assert status.chunks_total == 4
        assert not status.complete

    def test_interrupt_resume_report_is_byte_identical(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        uninterrupted = runner_for(tmp_path, "a")
        uninterrupted.run(spec)
        reference = uninterrupted.store.report_path(spec).read_bytes()

        interrupted = runner_for(tmp_path, "b")
        partial = interrupted.run(spec, max_chunks=2)
        assert not partial.status.complete
        assert partial.report_path is None
        assert interrupted.store.read_report(spec) is None
        resumed = interrupted.run(spec)
        assert resumed.status.complete
        assert resumed.chunks_run == 2  # only the missing chunks
        assert resumed.chunks_cached == 2  # the checkpointed ones
        assert interrupted.store.report_path(spec).read_bytes() == reference

    def test_rerun_is_cache_hit(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        first = runner.run(spec)
        stat_before = runner.store.report_path(spec).stat()
        again = runner.run(spec)
        assert again.chunks_run == 0
        assert again.chunks_cached == 4
        assert again.status == first.status
        assert runner.store.report_path(spec).read_bytes() == (
            first.report_path.read_bytes()
        )
        # Write-free: a cache-hit rerun must not even touch report.json.
        stat_after = runner.store.report_path(spec).stat()
        assert (stat_before.st_mtime_ns, stat_before.st_ino) == (
            stat_after.st_mtime_ns, stat_after.st_ino,
        )

    def test_parallel_run_matches_serial_bytes(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        serial = runner_for(tmp_path, "serial", jobs=1)
        serial.run(spec)
        parallel = runner_for(tmp_path, "parallel", jobs=2)
        parallel.run(spec)
        assert parallel.store.report_path(spec).read_bytes() == (
            serial.store.report_path(spec).read_bytes()
        )

    def test_chunk_tallies_match_direct_sweep(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        status = runner.run(spec).status
        total, trapped, explorers, states = sweep_chunk(
            spec, spec.expand_patterns()
        )
        assert (status.total, status.trapped, list(status.explorers)) == (
            total, trapped, explorers,
        )
        assert status.states_explored == states

    def test_partial_campaign_never_reads_as_discharged(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        partial = runner.run(spec, max_chunks=2)
        # Unanimous partial tallies must not claim the whole-class result.
        assert partial.status.trapped == partial.status.total > 0
        assert not partial.status.all_trapped
        assert runner.run(spec).status.all_trapped

    def test_report_before_completion_raises(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        with pytest.raises(ScenarioError):
            runner.report_text(spec)
        with pytest.raises(ScenarioError):
            runner.report_dict(spec)


class TestOneExecutor:
    """``jobs=1`` settles chunks through the same state machine as ``jobs=2``."""

    def test_chunk_exception_fails_identically_at_any_jobs(
        self, tmp_path: Path, monkeypatch
    ) -> None:
        spec = tiny_spec()
        poisoned = spec.chunks()[1]

        def flaky_sweep_chunk(spec, bits_chunk, *args, **kwargs):
            if tuple(bits_chunk) == poisoned:
                raise RuntimeError("chunk runner bug")
            return sweep_chunk(spec, bits_chunk, *args, **kwargs)

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(sweeps, "sweep_chunk", flaky_sweep_chunk)
        policy = RetryPolicy(max_attempts=2, backoff_base=0.001)
        failures = {}
        for jobs in (1, 2):
            runner = runner_for(tmp_path, f"jobs{jobs}", jobs=jobs, policy=policy)
            assert runner.run(spec).status.failed_chunks == (1,)
            (record,) = runner.failure_details(spec).values()
            failures[jobs] = {
                key: record[key] for key in ("error", "attempts", "diagnostics")
            }
        assert failures[1] == failures[2]
        assert failures[1]["error"] == "RuntimeError: chunk runner bug"
        assert failures[1]["attempts"] == 2

    def test_deadline_is_enforced_at_jobs_1(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(
            tmp_path,
            "a",
            jobs=1,
            policy=RetryPolicy(max_attempts=2, chunk_timeout=0.5, backoff_base=0.01),
            faults=FaultPlan(seed=0, delay_chunks=(1,), delay_seconds=5.0),
        )
        status = runner.run(spec).status
        assert status.degraded and status.failed_chunks == (1,)
        record = runner.failure_details(spec)[1]
        assert record["attempts"] == 2
        assert record["error"].startswith("ChunkTimeoutError: chunk 1 exceeded")


def chunk_tables(name: str) -> list[int]:
    return [len(chunk) for chunk in get_scenario(name).chunks()]


class TestDefaultJobs:
    """Without ``jobs``, a run forks only when its chunks outweigh a fork."""

    def test_small_vector_family_on_two_cores_runs_in_the_parent(self) -> None:
        jobs, chunk_s = plan_jobs(None, 2, chunk_tables("thm41-two-n6"), "vector")
        assert jobs == 1
        assert chunk_s == pytest.approx(64 * 15e-6)

    def test_packed_backend_forks(self) -> None:
        assert plan_jobs(None, 2, chunk_tables("thm41-two-n6"), "packed")[0] == 2

    def test_eight_cores_fork_for_thm41_two_n4_on_vector(self) -> None:
        tables = chunk_tables("thm41-two-n4")
        assert plan_jobs(None, 2, tables, "vector")[0] == 1
        assert plan_jobs(None, 8, tables, "vector")[0] == 8

    def test_more_workers_than_measured_fork(self) -> None:
        # An 18 ms vector chunk is estimated at 4 ms: past two workers the
        # model is unmeasured, so the run keeps its parallelism.
        assert plan_jobs(None, 4, [256] * 8, "vector")[0] == 4
        # Two chunks make two workers on any host: the model decides.
        assert plan_jobs(None, 8, [64, 64], "vector")[0] == 1

    def test_explicit_jobs_is_left_alone(self) -> None:
        tables = chunk_tables("thm41-two-n6")
        assert plan_jobs(2, 2, tables, "vector")[0] == 2
        assert plan_jobs(1, 8, tables, "packed")[0] == 1

    def test_deadline_still_forks(self) -> None:
        tables = chunk_tables("thm41-two-n6")
        assert plan_jobs(None, 2, tables, "vector", chunk_timeout=5.0)[0] == 2

    def test_one_pending_chunk_never_forks(self) -> None:
        assert plan_jobs(None, 8, [1024], "object") == (1, 1024 * 10e-3)
        assert plan_jobs(None, 8, [], "packed") == (1, 0.0)

    @pytest.mark.skipif(not batch.have_numpy(), reason="numpy not installed")
    def test_default_run_of_a_small_family_forks_nothing(
        self, tmp_path: Path, monkeypatch, capsys
    ) -> None:
        import multiprocessing.process

        name = "thm41-two-n6"
        assert cli_main(
            ["campaign", "run", name, "--store", str(tmp_path / "forked"),
             "--jobs", "2"]
        ) == 0

        def refuse(process) -> None:
            raise AssertionError("a default small campaign forked a worker")

        # Two cores whatever the host has: the host the model was measured on.
        monkeypatch.setattr(campaign, "resolve_jobs", lambda jobs: jobs or 2)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        assert cli_main(
            ["campaign", "run", name, "--store", str(tmp_path / "parent")]
        ) == 0
        assert "8 chunks, 512/512 trapped" in capsys.readouterr().out
        spec = get_scenario(name)
        forked = ResultStore(tmp_path / "forked").report_path(spec)
        parent = ResultStore(tmp_path / "parent").report_path(spec)
        assert parent.read_bytes() == forked.read_bytes()


class TestScenarioDimensions:
    def test_ill_initiated_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_spec(
            name="tiny-ill",
            robots=RobotClassSpec(family="two", sample=6),
            n=4,
            starts="arbitrary",
            chunk_size=3,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 6

    def test_live_property_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_spec(
            name="tiny-live",
            robots=RobotClassSpec(family="two", sample=6),
            n=4,
            prop="live",
            chunk_size=3,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 6

    def test_memory2_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_spec(
            name="tiny-m2",
            robots=RobotClassSpec(family="two-m2", sample=4),
            n=4,
            chunk_size=2,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 4

    def test_ssync_campaign_runs_end_to_end(self, tmp_path: Path) -> None:
        # The scheduler axis is executable since the scheduler-generic
        # verification core: an SSYNC campaign runs, checkpoints and
        # reports exactly like an FSYNC one (and, per Di Luna et al.,
        # every memoryless single-robot table stays trapped).
        spec = tiny_spec(scheduler="ssync")
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.status.all_trapped
        report = json.loads(runner.report_text(spec))
        assert report["scenario"]["scheduler"] == "ssync"
        assert report["total"] == report["trapped"] == 24
        # The scheduler is part of the semantic payload: the SSYNC twin
        # of a workload must never collide with its FSYNC store records.
        assert spec.scenario_id != tiny_spec().scenario_id
        rerun = runner.run(spec)
        assert rerun.chunks_run == 0

    def test_bad_dynamics_fail_at_spec_construction(self) -> None:
        # The require_runnable() mid-campaign dynamics guard is gone: a
        # schedule-family spec either validates at construction (and is
        # then executable end to end) or never exists at all.
        with pytest.raises(ScenarioError, match="bernoulli"):
            tiny_spec(dynamics="bernoulli")


class TestSimulationCampaigns:
    """The simulation-backed execution path: schedule-family dynamics run
    through the same store with the same resume/dedup/byte-identical
    guarantees as the verification path."""

    def test_dynamics_campaign_full_lifecycle(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec()
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.chunks_run == spec.chunk_count == 3
        report = json.loads(runner.report_text(spec))
        assert report["scenario"]["dynamics"] == "bernoulli"
        assert report["scenario"]["dynamics_seed"] == 20170605
        assert report["scenario"]["horizon"] == 24
        assert report["total"] == 12
        assert report["trapped"] + len(report["explorers"]) == 12
        rerun = runner.run(spec)
        assert rerun.chunks_run == 0
        assert rerun.chunks_cached == 3

    def test_interrupt_resume_is_byte_identical(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec()
        uninterrupted = runner_for(tmp_path, "a")
        uninterrupted.run(spec)
        reference = uninterrupted.store.report_path(spec).read_bytes()

        interrupted = runner_for(tmp_path, "b")
        partial = interrupted.run(spec, max_chunks=1)
        assert not partial.status.complete
        resumed = interrupted.run(spec)
        assert resumed.status.complete
        assert resumed.chunks_run == 2
        assert resumed.chunks_cached == 1
        assert interrupted.store.report_path(spec).read_bytes() == reference

    @pytest.mark.parametrize(
        "dynamics,params",
        [
            ("bernoulli", {"p": 0.75}),
            ("markov", {"p_off": 0.25, "p_on": 0.5}),
        ],
    )
    def test_seeded_chunk_records_identical_across_jobs(
        self, tmp_path: Path, dynamics: str, params: dict
    ) -> None:
        # Randomized schedules rebuild from (seed, t) in every worker, so
        # chunk records — and the report bytes — cannot depend on jobs.
        spec = tiny_dyn_spec(dynamics=dynamics, dynamics_params=params)
        serial = runner_for(tmp_path, "serial", jobs=1)
        serial.run(spec)
        parallel = runner_for(tmp_path, "parallel", jobs=4)
        parallel.run(spec)
        assert serial.store.load_records(spec) == parallel.store.load_records(spec)
        assert parallel.store.report_path(spec).read_bytes() == (
            serial.store.report_path(spec).read_bytes()
        )

    def test_chunk_tallies_match_direct_simulate(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec()
        runner = runner_for(tmp_path, "a")
        status = runner.run(spec).status
        total, trapped, explorers, rounds = simulate_chunk(
            spec, spec.expand_patterns()
        )
        assert (status.total, status.trapped, list(status.explorers)) == (
            total, trapped, explorers,
        )
        assert status.states_explored == rounds

    def test_ssync_dynamics_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec(scheduler="ssync")
        runner = runner_for(tmp_path, "a")
        outcome = runner.run(spec)
        assert outcome.status.complete
        report = json.loads(runner.report_text(spec))
        assert report["scenario"]["scheduler"] == "ssync"
        # The scheduler is part of the payload: the SSYNC twin of a
        # simulation workload never collides with its FSYNC records.
        assert spec.scenario_id != tiny_dyn_spec().scenario_id

    def test_deterministic_dynamics_campaign_runs(self, tmp_path: Path) -> None:
        spec = tiny_dyn_spec(
            name="tiny-periodic",
            dynamics="periodic",
            dynamics_params={"patterns": {0: [True, False]}},
            dynamics_seed=None,
        )
        outcome = runner_for(tmp_path, "a").run(spec)
        assert outcome.status.complete
        assert outcome.status.total == 12


class TestBackendPortability:
    """The execution backend is not workload identity: a campaign
    checkpointed under one backend resumes under the other — into the
    same store directory, against the same records — and the final
    report bytes never betray which backend verified which chunk."""

    @pytest.mark.parametrize(
        "first,second", [("object", "packed"), ("packed", "object")]
    )
    def test_cross_backend_resume_is_byte_identical(
        self, tmp_path: Path, first: str, second: str
    ) -> None:
        spec = tiny_dyn_spec()
        reference = runner_for(tmp_path, "ref", backend="packed")
        reference.run(spec)
        reference_bytes = reference.store.report_path(spec).read_bytes()

        store = ResultStore(tmp_path / "mixed")
        partial = CampaignRunner(store, backend=first, jobs=1).run(
            spec, max_chunks=1
        )
        assert not partial.status.complete
        resumed = CampaignRunner(store, backend=second, jobs=1).run(spec)
        assert resumed.status.complete
        assert resumed.chunks_cached == 1  # the other backend's chunk held
        assert store.report_path(spec).read_bytes() == reference_bytes

    def test_exact_path_cross_backend_resume(self, tmp_path: Path) -> None:
        # The same portability holds on the highly-dynamic (solver) path.
        spec = tiny_spec()
        store = ResultStore(tmp_path / "mixed")
        CampaignRunner(store, backend="object", jobs=1).run(spec, max_chunks=2)
        resumed = CampaignRunner(store, backend="packed", jobs=1).run(spec)
        assert resumed.status.complete
        reference = runner_for(tmp_path, "ref")
        reference.run(spec)
        assert store.report_path(spec).read_bytes() == (
            reference.store.report_path(spec).read_bytes()
        )

    def test_simulation_backend_threads_through_runner(
        self, tmp_path: Path
    ) -> None:
        # An object-backend campaign's records equal the packed ones
        # record for record (digest, tallies, rounds) — not just the
        # merged report.
        spec = tiny_dyn_spec()
        packed = runner_for(tmp_path, "p", backend="packed")
        packed.run(spec)
        obj = runner_for(tmp_path, "o", backend="object")
        obj.run(spec)
        assert packed.store.load_records(spec) == obj.store.load_records(spec)


class TestStoreRobustness:
    def test_torn_tail_line_is_forgiven(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        reference = runner_for(tmp_path, "ref")
        reference.run(spec)
        expected = reference.store.report_path(spec).read_bytes()

        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=2)
        log = runner.store.chunks_path(spec)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"chunk":3,"digest":"dead')  # kill mid-append
        resumed = runner.run(spec)
        assert resumed.status.complete
        assert resumed.chunks_run == 2
        assert runner.store.report_path(spec).read_bytes() == expected
        # The repaired log must stay readable after the resume appended
        # past the torn fragment — re-reads and re-runs keep working.
        assert runner.status(spec).complete
        assert runner.run(spec).chunks_run == 0

    def test_newline_less_valid_tail_record_is_kept(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        raw = log.read_bytes()
        log.write_bytes(raw.rstrip(b"\n"))  # hand edit: newline lost
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.chunks_cached == 1  # the record survived the repair

    def test_torn_middle_line_is_corruption(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        record = log.read_text("utf-8")
        log.write_text('{"chunk":0,"dig\n' + record, "utf-8")
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_conflicting_duplicate_records_refused(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        record = json.loads(log.read_text("utf-8").splitlines()[0])
        record["trapped"] = 0
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_identical_duplicate_records_are_deduped(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        line = log.read_text("utf-8").splitlines()[0]
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert outcome.chunks_cached == 1

    def test_digest_mismatch_refused(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        log = runner.store.chunks_path(spec)
        record = json.loads(log.read_text("utf-8"))
        record["digest"] = "0" * 16
        log.write_text(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n",
            "utf-8",
        )
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_torn_spec_file_is_rewritten(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        spec_path = runner.store.spec_path(spec)
        spec_path.write_text('{"format": "scen', "utf-8")  # kill mid-write
        outcome = runner.run(spec)
        assert outcome.status.complete
        assert json.loads(spec_path.read_text("utf-8")) == spec.to_dict()

    def test_spec_collision_refused(self, tmp_path: Path) -> None:
        spec = tiny_spec()
        runner = runner_for(tmp_path, "a")
        runner.run(spec, max_chunks=1)
        other = tiny_spec(n=4)
        runner.store.spec_path(spec).write_text(
            json.dumps(other.to_dict(), indent=2, sort_keys=True) + "\n", "utf-8"
        )
        with pytest.raises(ScenarioError):
            runner.run(spec)

    def test_max_chunks_validation(self, tmp_path: Path) -> None:
        with pytest.raises(ScenarioError):
            runner_for(tmp_path, "a").run(tiny_spec(), max_chunks=-1)
