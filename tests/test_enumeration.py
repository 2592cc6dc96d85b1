"""Tests for exhaustive algorithm-class sweeps.

``test_all_256_single_robot_algorithms_fail_on_ring3`` is the flagship:
a finite-domain, machine-checked confirmation of Theorem 5.1's universal
quantifier over the memoryless class.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    AlgorithmError,
    ChunkPoisonedError,
    ScenarioError,
    VerificationError,
    WorkerCrashError,
)
from repro.robots.algorithms.tables import table_space_size
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    RobotClassSpec,
    ScenarioSpec,
    faults,
    get_scenario,
)
from repro.scenarios.faults import FaultPlan
from repro.verification import families
from repro.verification.enumeration import sample_table_patterns, sweep_spec
from repro.verification.sweeps import (
    SweepResult,
    available_cpus,
    resolve_jobs,
    run_table_sweep,
    sweep_chunk,
)


class TestSingleRobotSweep:
    def test_all_256_single_robot_algorithms_fail_on_ring3(self) -> None:
        result = run_table_sweep(sweep_spec("single", 3))
        assert result.total == 256
        assert result.trapped == 256
        assert result.all_trapped
        assert result.explorers == []

    def test_rejects_small_rings(self) -> None:
        with pytest.raises(VerificationError):
            sweep_spec("single", 2)

    def test_summary_shape(self) -> None:
        result = run_table_sweep(sweep_spec("single", 3))
        assert "ALL TRAPPED" in result.summary()
        assert "256/256" in result.summary()


class TestTwoRobotSweep:
    def test_sampled_sweep_all_trapped_on_ring4(self) -> None:
        result = run_table_sweep(sweep_spec("two", 4, sample=96, rng_seed=7))
        assert result.total == 96
        assert result.all_trapped

    def test_sample_bounds_validated(self) -> None:
        with pytest.raises(VerificationError):
            sweep_spec("two", 4, sample=0)
        with pytest.raises(VerificationError):
            sweep_spec("two", 3, sample=4)

    def test_deterministic_given_seed(self) -> None:
        a = run_table_sweep(sweep_spec("two", 4, sample=16, rng_seed=3))
        b = run_table_sweep(sweep_spec("two", 4, sample=16, rng_seed=3))
        assert a.trapped == b.trapped == 16


class TestMemory2Sweep:
    def test_sampled_memory2_sweep_all_trapped(self) -> None:
        result = run_table_sweep(sweep_spec("two-m2", 4, sample=24, rng_seed=11))
        assert result.total == 24
        assert result.all_trapped
        assert "memory-2" in result.description

    def test_deterministic_given_seed(self) -> None:
        a = run_table_sweep(sweep_spec("two-m2", 4, sample=12, rng_seed=5))
        b = run_table_sweep(sweep_spec("two-m2", 4, sample=12, rng_seed=5))
        assert (a.total, a.trapped, a.explorers, a.states_explored) == (
            b.total, b.trapped, b.explorers, b.states_explored,
        )

    def test_rejects_small_rings(self) -> None:
        with pytest.raises(VerificationError):
            sweep_spec("two-m2", 3, sample=4)


class TestSweepSpec:
    """The builder names the theorems' classes in today's words."""

    @pytest.mark.parametrize(
        "args, description",
        [
            (("single", 3), "all memoryless 1-robot algorithms"),
            (("two", 4), "all memoryless 2-robot algorithms"),
            (("two", 5, 16384), "16384 sampled memoryless 2-robot algorithms"),
            (("two-m2", 4, 128), "128 sampled memory-2 2-robot algorithms"),
        ],
    )
    def test_descriptions(self, args, description) -> None:
        assert sweep_spec(*args).description == description
        tagged = sweep_spec(*args, scheduler="ssync")
        assert tagged.description == f"{description} [ssync]"

    def test_theorem_bounds(self) -> None:
        with pytest.raises(VerificationError, match="Theorem 5.1 .* >= 3, got n=2"):
            sweep_spec("single", 2)
        with pytest.raises(VerificationError, match="Theorem 4.1 .* >= 4, got n=3"):
            sweep_spec("two-m2", 3, sample=4)

    def test_memory2_needs_a_sample(self) -> None:
        with pytest.raises(ScenarioError, match="declare a sample"):
            sweep_spec("two-m2", 4)

    def test_simulation_specs_are_refused(self) -> None:
        with pytest.raises(ScenarioError, match="highly-dynamic"):
            run_table_sweep(get_scenario("bernoulli-two-n4"))


# One plan, two entry points: a sweep of a spec tallies exactly what the
# campaign runner checkpoints for it.
_DIFFERENTIAL_SPECS = [
    get_scenario(name)
    for name in (
        "thm51-single-n3",
        "ssync-single-n3",
        "m2-two-n4",
        "selfstab-ill-two-n4",
        "live-two-n4",
        "thm41-two-n6",
    )
] + [
    # Unregistered, below Theorem 4.1's bound, and with explorers: pins
    # their order as well as the tallies.
    ScenarioSpec(
        name="live-two-n3",
        description="live two-robot sample on the 3-ring",
        robots=RobotClassSpec("two", sample=512, rng_seed=3),
        n=3,
        prop="live",
    ),
]


class TestOneSweepPlan:
    @pytest.fixture(scope="class")
    def campaign_tallies(self, tmp_path_factory):
        runner = CampaignRunner(
            ResultStore(tmp_path_factory.mktemp("store")), jobs=1
        )
        tallies = {}
        for spec in _DIFFERENTIAL_SPECS:
            status = runner.run(spec).status
            tallies[spec.name] = (
                status.total,
                status.trapped,
                list(status.explorers),
                status.states_explored,
            )
        return tallies

    @pytest.mark.parametrize(
        "spec", _DIFFERENTIAL_SPECS, ids=[spec.name for spec in _DIFFERENTIAL_SPECS]
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_equals_campaign(self, spec, jobs, campaign_tallies) -> None:
        result = run_table_sweep(spec, backend="auto", jobs=jobs)
        assert (
            result.total,
            result.trapped,
            result.explorers,
            result.states_explored,
        ) == campaign_tallies[spec.name]
        assert (result.description, result.n, result.k) == (
            spec.description, spec.n, spec.robots.k,
        )
        if spec.name == "live-two-n3":
            assert len(result.explorers) == 2


class TestSampleTablePatterns:
    def test_small_space_matches_historical_draw(self) -> None:
        import random

        assert sample_table_patterns(1 << 16, 10, 20170605) == (
            random.Random(20170605).sample(range(1 << 16), 10)
        )

    def test_huge_space_draws_are_distinct_and_stable(self) -> None:
        space = table_space_size(2)
        assert space == 1 << 64
        draws = sample_table_patterns(space, 50, 42)
        assert len(set(draws)) == 50
        assert all(0 <= value < space for value in draws)
        assert draws == sample_table_patterns(space, 50, 42)
        assert draws != sample_table_patterns(space, 50, 43)

    def test_huge_space_golden(self) -> None:
        # The rejection-sampling branch every ``two-m2`` campaign's chunk
        # stream comes from: pinned so a change to it cannot orphan
        # stored memory-2 results.
        golden = [
            4339850051629039654,
            12818211513940201505,
            13086968895240067536,
            11298239883250495090,
            385423630545725364,
        ]
        assert sample_table_patterns(1 << 64, 5, 20170605) == golden
        spec = get_scenario("m2-two-n4")
        assert spec.robots.family == "two-m2"
        assert list(spec.chunks()[0][:5]) == golden

    def test_bounds_validated(self) -> None:
        with pytest.raises(VerificationError):
            sample_table_patterns(16, 0, 1)
        with pytest.raises(VerificationError):
            sample_table_patterns(16, 17, 1)


class TestOneSourceOfFamilyData:
    """The family module is the one source; the solver re-exports it."""

    def test_vocabularies_are_the_family_modules_objects(self) -> None:
        import repro.sim
        import repro.verification
        from repro.verification import game, sweeps

        assert game.PROPERTIES is families.PROPERTIES
        assert repro.sim.SCHEDULERS is families.SCHEDULERS
        assert sweeps.START_POLICIES is families.START_POLICIES
        assert sweeps.TABLE_FAMILIES is families.TABLE_FAMILIES
        assert sweeps.available_cpus is families.available_cpus
        assert sweeps.resolve_jobs is families.resolve_jobs
        assert sample_table_patterns is families.sample_table_patterns
        for name in ("PROPERTIES", "START_POLICIES", "TABLE_FAMILIES",
                     "available_cpus", "sample_table_patterns"):
            assert getattr(repro.verification, name) is getattr(families, name)

    def test_sweep_families_agree_with_the_data(self) -> None:
        from repro.verification import sweeps

        assert set(sweeps._FAMILIES) == set(families.FAMILIES)
        assert families.TABLE_FAMILIES == tuple(sorted(families.FAMILIES))
        for name, data in families.FAMILIES.items():
            engine = sweeps._FAMILIES[name]
            assert (engine.k, engine.space, engine.plan) == tuple(data)
            assert sweeps.family_plan(name) is data.plan
            assert families.family_k(name) == data.k
            assert families.family_space(name) == data.space
            # The data's domain is the constructor's domain.
            engine.maker(data.space - 1)
            with pytest.raises(AlgorithmError):
                engine.maker(data.space)
        assert families.family_space("two-m2") == table_space_size(2)

    def test_unknown_family(self) -> None:
        with pytest.raises(VerificationError, match="unknown table family"):
            families.family_space("three")


class TestJobsResolution:
    def test_available_cpus_respects_affinity(self) -> None:
        count = available_cpus()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            # The whole point of the helper: a pinned/containerized
            # process must size pools by its affinity mask, not by the
            # machine's raw core count.
            assert count <= len(os.sched_getaffinity(0))
        if hasattr(os, "cpu_count") and os.cpu_count():
            assert count <= os.cpu_count()

    def test_resolve_jobs_defaults_to_available(self) -> None:
        assert resolve_jobs(None) == available_cpus()
        assert resolve_jobs(3) == 3

    def test_resolve_jobs_floor(self) -> None:
        with pytest.raises(VerificationError):
            resolve_jobs(0)


class TestSweepUnderFaults:
    """A sweep settles its chunks through the campaign's retry loop."""

    @pytest.fixture(autouse=True)
    def _no_ambient_plan(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.clear()
        yield
        faults.clear()

    @staticmethod
    def _sweep(jobs: int) -> SweepResult:
        return run_table_sweep(sweep_spec("single", 3), jobs=jobs)

    def test_crashed_attempts_are_retried_to_the_clean_result(self) -> None:
        clean = self._sweep(1)
        faults.install(FaultPlan(seed=0, crash=0.2))
        # The plan does crash a first attempt; retries must absorb it.
        faults.set_context(0, 1)
        with pytest.raises(WorkerCrashError):
            sweep_chunk(sweep_spec("single", 3), tuple(range(256)))
        faults.set_context(-1, 0)
        for jobs in (1, 2):
            assert self._sweep(jobs) == clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunk_failing_every_attempt_poisons_the_sweep(self, jobs) -> None:
        faults.install(FaultPlan(seed=0, crash_chunks=(0,)))
        with pytest.raises(ChunkPoisonedError, match="chunk 0 failed all 3"):
            self._sweep(jobs)
