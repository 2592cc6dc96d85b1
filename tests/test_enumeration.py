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
    VerificationError,
    WorkerCrashError,
)
from repro.robots.algorithms.tables import TableAlgorithm, table_space_size
from repro.scenarios import faults, get_scenario
from repro.scenarios.faults import FaultPlan
from repro.verification import families
from repro.verification.enumeration import (
    sample_table_patterns,
    sweep_single_robot_memoryless,
    sweep_two_robot_memory2,
    sweep_two_robot_memoryless,
)
from repro.verification.sweeps import (
    SweepResult,
    available_cpus,
    resolve_jobs,
    run_table_sweep,
    sweep_chunk,
)


class TestSingleRobotSweep:
    def test_all_256_single_robot_algorithms_fail_on_ring3(self) -> None:
        result = sweep_single_robot_memoryless(3)
        assert result.total == 256
        assert result.trapped == 256
        assert result.all_trapped
        assert result.explorers == []

    def test_rejects_small_rings(self) -> None:
        with pytest.raises(VerificationError):
            sweep_single_robot_memoryless(2)

    def test_summary_shape(self) -> None:
        result = sweep_single_robot_memoryless(3)
        assert "ALL TRAPPED" in result.summary()
        assert "256/256" in result.summary()


class TestTwoRobotSweep:
    def test_sampled_sweep_all_trapped_on_ring4(self) -> None:
        result = sweep_two_robot_memoryless(4, sample=96, seed=7)
        assert result.total == 96
        assert result.all_trapped

    def test_extra_tables_included(self) -> None:
        extra = TableAlgorithm(1, [0] * 16, name="all-left")
        result = sweep_two_robot_memoryless(4, sample=8, extra_tables=[extra])
        assert result.total == 9
        assert result.all_trapped

    def test_sample_bounds_validated(self) -> None:
        with pytest.raises(VerificationError):
            sweep_two_robot_memoryless(4, sample=0)
        with pytest.raises(VerificationError):
            sweep_two_robot_memoryless(3, sample=4)

    def test_deterministic_given_seed(self) -> None:
        a = sweep_two_robot_memoryless(4, sample=16, seed=3)
        b = sweep_two_robot_memoryless(4, sample=16, seed=3)
        assert a.trapped == b.trapped == 16


class TestMemory2Sweep:
    def test_sampled_memory2_sweep_all_trapped(self) -> None:
        result = sweep_two_robot_memory2(4, sample=24, seed=11)
        assert result.total == 24
        assert result.all_trapped
        assert "memory-2" in result.description

    def test_deterministic_given_seed(self) -> None:
        a = sweep_two_robot_memory2(4, sample=12, seed=5)
        b = sweep_two_robot_memory2(4, sample=12, seed=5)
        assert (a.total, a.trapped, a.explorers, a.states_explored) == (
            b.total, b.trapped, b.explorers, b.states_explored,
        )

    def test_rejects_small_rings(self) -> None:
        with pytest.raises(VerificationError):
            sweep_two_robot_memory2(3, sample=4)


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
        result = SweepResult("single n=3", n=3, k=1, total=0, trapped=0)
        return run_table_sweep(result, "single", range(256), jobs=jobs)

    def test_crashed_attempts_are_retried_to_the_clean_result(self) -> None:
        clean = self._sweep(1)
        faults.install(FaultPlan(seed=0, crash=0.2))
        # The plan does crash a first attempt; retries must absorb it.
        faults.set_context(0, 1)
        with pytest.raises(WorkerCrashError):
            sweep_chunk("single", 3, tuple(range(256)))
        faults.set_context(-1, 0)
        for jobs in (1, 2):
            assert self._sweep(jobs) == clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunk_failing_every_attempt_poisons_the_sweep(self, jobs) -> None:
        faults.install(FaultPlan(seed=0, crash_chunks=(0,)))
        with pytest.raises(ChunkPoisonedError, match="chunk 0 failed all 3"):
            self._sweep(jobs)
