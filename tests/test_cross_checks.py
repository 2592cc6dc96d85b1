"""Cross-component property tests: solver, engine, journeys agree.

The reproduction's credibility rests on independent components telling
the same story; these tests wire them against each other on randomized
inputs:

* every solver trap for a random finite-state algorithm replays through
  the simulator into genuine starvation (three full periods checked);
* robot movement never outruns temporal reachability (engine vs the
  journey oracle);
* the exact SSYNC verdict agrees with the constructive freeze adversary
  of Di Luna et al. (experiment X2): every table algorithm loses under
  SSYNC on n = 3, 4, and PEF_3+ (k = 3) flips from explorable to trapped
  when the scheduler flips from FSYNC to SSYNC;
* the exhaustive verdict is invariant under ring rotation of the
  footprint labels (a sanity check on the symmetry reductions).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.ssync_blocker import SsyncBlocker
from repro.graph.evolving import RecordedEvolvingGraph
from repro.graph.journeys import temporal_reachability
from repro.graph.schedules import BernoulliSchedule
from repro.graph.topology import RingTopology
from repro.robots.algorithms import PEF3Plus
from repro.robots.algorithms.tables import random_table_algorithm
from repro.sim.engine import run_fsync
from repro.sim.semi_sync import run_ssync
from repro.types import AGREE, Chirality
from repro.verification.certificates import certificate_schedule
from repro.verification.game import verify_exploration

seeds = st.integers(min_value=0, max_value=2**16)


class TestTrapReplays:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_random_single_robot_traps_starve_for_three_periods(
        self, seed: int
    ) -> None:
        algorithm = random_table_algorithm(random.Random(seed), memory_size=1)
        verdict = verify_exploration(
            algorithm,
            RingTopology(3),
            k=1,
            chirality_vectors=[(Chirality.AGREE,)],
        )
        assert not verdict.explorable  # Theorem 5.1, instance-checked
        cert = verdict.certificate
        assert cert is not None
        p, c = len(cert.prefix), len(cert.cycle)
        replay = run_fsync(
            cert.topology,
            certificate_schedule(cert),
            algorithm,
            positions=cert.seed_positions,
            rounds=p + 3 * c,
            chiralities=cert.chiralities,
        )
        trace = replay.trace
        assert trace is not None
        for t in range(p, p + 3 * c + 1):
            assert cert.starved_node not in trace.positions_at(t)

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_random_two_robot_traps_replay(self, seed: int) -> None:
        algorithm = random_table_algorithm(random.Random(seed), memory_size=1)
        verdict = verify_exploration(
            algorithm,
            RingTopology(4),
            k=2,
            chirality_vectors=[(Chirality.AGREE, Chirality.AGREE)],
        )
        # Theorem 4.1 predicts universal failure for this class.
        assert not verdict.explorable


class TestSsyncSolverVsBlocker:
    """Experiment X2, machine-checked: the exact SSYNC verdict agrees with
    the constructive freeze adversary of Di Luna et al. — the solver says
    *trapped*, and the blocker exhibits why (no robot ever moves)."""

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_two_robot_tables_lose_under_ssync(self, seed: int) -> None:
        rng = random.Random(seed)
        algorithm = random_table_algorithm(rng, memory_size=1)
        for n in (3, 4):
            verdict = verify_exploration(
                algorithm, RingTopology(n), k=2, scheduler="ssync",
                certificates=False,
            )
            # Di Luna et al.: SSYNC exploration of dynamic rings is
            # impossible regardless of every other assumption.
            assert not verdict.explorable

            blocker = SsyncBlocker(RingTopology(n))
            result = run_ssync(
                RingTopology(n),
                blocker,
                blocker,
                algorithm,
                positions=list(range(2)),
                rounds=120,
            )
            trace = result.trace
            assert trace is not None
            # The constructive adversary freezes the same algorithm: only
            # the initial k < n nodes are ever visited, fairly.
            assert trace.nodes_visited() == frozenset(range(2))
            assert result.is_fair()

    def test_pef3plus_explores_fsync_but_loses_ssync(self) -> None:
        # The paper's flagship reason for restricting itself to FSYNC:
        # PEF_3+ with k = 3 provably explores the 4-ring under FSYNC, yet
        # the SSYNC activation adversary defeats it — synchrony, not
        # robot count, is the broken leg. verify_exploration replays the
        # solver's SSYNC trap through the SSYNC engine.
        ring = RingTopology(4)
        fsync = verify_exploration(PEF3Plus(), ring, k=3)
        assert fsync.explorable
        ssync = verify_exploration(
            PEF3Plus(), ring, k=3, scheduler="ssync"
        )
        assert not ssync.explorable
        cert = ssync.certificate
        assert cert is not None and cert.scheduler == "ssync"


class TestEngineVsJourneys:
    @given(seeds, st.integers(min_value=4, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_robots_never_outrun_foremost_journeys(self, seed: int, n: int) -> None:
        ring = RingTopology(n)
        schedule = BernoulliSchedule(ring, p=0.5, seed=seed)
        horizon = 30
        result = run_fsync(
            ring, schedule, PEF3Plus(), positions=[0, n // 2], rounds=horizon
        )
        trace = result.trace
        assert trace is not None
        recording = RecordedEvolvingGraph(ring, trace.recorded_graph().steps)
        for robot in range(2):
            start = trace.initial.positions[robot]
            reach = temporal_reachability(recording, start, 0, horizon)
            for t in range(horizon + 1):
                position = trace.positions_at(t)[robot]
                assert position in reach
                assert reach[position] <= t


class TestRotationInvariance:
    @pytest.mark.parametrize("shift", [1, 2])
    def test_trap_certificates_rotate(self, shift: int) -> None:
        """A trap certificate remains valid after rotating every label."""
        from dataclasses import replace

        from repro.robots.algorithms import PEF1
        from repro.verification.certificates import validate_certificate
        from repro.verification.game import synthesize_trap

        ring = RingTopology(4)
        cert = synthesize_trap(PEF1(), ring, k=1)
        rotated = replace(
            cert,
            seed_positions=tuple(
                ring.rotate_node(p, shift) for p in cert.seed_positions
            ),
            prefix=tuple(
                frozenset(ring.rotate_edge(e, shift) for e in step)
                for step in cert.prefix
            ),
            cycle=tuple(
                frozenset(ring.rotate_edge(e, shift) for e in step)
                for step in cert.cycle
            ),
            starved_node=ring.rotate_node(cert.starved_node, shift),
            eventually_missing=frozenset(
                ring.rotate_edge(e, shift) for e in cert.eventually_missing
            ),
        )
        validate_certificate(rotated, PEF1())
