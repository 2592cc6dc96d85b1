"""Tests for the round engine: round semantics, the one run loop behind
``run_fsync`` and ``run_ssync``, traces and validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ScheduleError, TopologyError
from repro.graph.schedules import BernoulliSchedule, StaticSchedule
from repro.graph.topology import ChainTopology, RingTopology
from repro.robots.algorithms import PEF3Plus, KeepDirection
from repro.sim.config import Configuration
from repro.sim.engine import (
    RunResult,
    make_initial_configuration,
    run_fsync,
    step_fsync,
    step_round,
    step_ssync,
)
from repro.sim.semi_sync import ListActivation, RoundRobinActivation, run_ssync
from repro.types import AGREE, DISAGREE, Chirality


class TestStepSemantics:
    def test_keep_direction_moves_ccw_with_agree_chirality(self) -> None:
        # dir = LEFT and chirality AGREE means global CCW.
        ring = RingTopology(5)
        algo = KeepDirection()
        config = make_initial_configuration(ring, algo, [2])
        after, views, moved = step_fsync(ring, algo, config, ring.all_edges)
        assert after.positions == (1,)
        assert moved == (True,)

    def test_disagree_chirality_reverses_motion(self) -> None:
        ring = RingTopology(5)
        algo = KeepDirection()
        config = make_initial_configuration(ring, algo, [2], chiralities=[DISAGREE])
        after, _views, _moved = step_fsync(ring, algo, config, ring.all_edges)
        assert after.positions == (3,)

    def test_blocked_robot_stays(self) -> None:
        ring = RingTopology(5)
        algo = KeepDirection()
        config = make_initial_configuration(ring, algo, [2])
        # Robot at 2 pointing CCW needs edge 1; remove it.
        after, views, moved = step_fsync(ring, algo, config, ring.all_edges - {1})
        assert after.positions == (2,)
        assert moved == (False,)
        assert not views[0].exists_edge_left  # its pointed side is missing

    def test_chain_end_robot_never_moves_outward(self) -> None:
        chain = ChainTopology(4)
        algo = KeepDirection()
        config = make_initial_configuration(chain, algo, [0])
        after, views, moved = step_fsync(chain, algo, config, chain.all_edges)
        assert after.positions == (0,)
        assert moved == (False,)
        assert not views[0].exists_edge_left  # the port exists but is edge-less

    def test_views_share_one_snapshot(self) -> None:
        ring = RingTopology(4)
        algo = PEF3Plus()
        config = make_initial_configuration(ring, algo, [0, 1, 2])
        _after, views, _moved = step_fsync(ring, algo, config, frozenset({0}))
        # Edge 0 joins nodes 0-1: robot 0 sees it CW(=right w/ AGREE),
        # robot 1 sees it CCW(=left), robot 2 sees nothing.
        assert views[0].exists_edge_right and not views[0].exists_edge_left
        assert views[1].exists_edge_left and not views[1].exists_edge_right
        assert views[2].degree == 0

    def test_multiplicity_detection(self) -> None:
        ring = RingTopology(4)
        algo = PEF3Plus()
        initial = algo.initial_state()
        config = Configuration(
            positions=(1, 1, 3),
            states=(initial,) * 3,
            chiralities=(AGREE,) * 3,
        )
        _after, views, _moved = step_fsync(ring, algo, config, ring.all_edges)
        assert views[0].others_present and views[1].others_present
        assert not views[2].others_present

    def test_two_robots_can_swap_without_tower(self) -> None:
        # Crossing in opposite directions on the same edge is legal.
        ring = RingTopology(4)
        algo = KeepDirection()
        config = make_initial_configuration(
            ring, algo, [0, 1], chiralities=[DISAGREE, AGREE]
        )
        # Robot 0 at node 0 moves CW (to 1); robot 1 at node 1 moves CCW (to 0).
        after, _views, moved = step_fsync(ring, algo, config, ring.all_edges)
        assert after.positions == (1, 0)
        assert moved == (True, True)
        assert after.is_towerless


class TestRunFsync:
    def test_round_count_and_trace_shape(self) -> None:
        ring = RingTopology(6)
        result = run_fsync(
            ring, StaticSchedule(ring), PEF3Plus(), positions=[0, 2, 4], rounds=25
        )
        assert result.rounds == 25
        trace = result.trace
        assert trace is not None
        assert trace.rounds == 25
        assert trace.configuration_at(0) == result.initial
        assert trace.configuration_at(25) == result.final

    def test_keep_trace_false(self) -> None:
        ring = RingTopology(6)
        result = run_fsync(
            ring,
            StaticSchedule(ring),
            PEF3Plus(),
            positions=[0, 2, 4],
            rounds=10,
            keep_trace=False,
        )
        assert result.trace is None
        assert result.rounds == 10

    def test_deterministic(self) -> None:
        ring = RingTopology(7)
        sched = BernoulliSchedule(ring, p=0.6, seed=99)
        first = run_fsync(ring, sched, PEF3Plus(), positions=[0, 2, 4], rounds=200)
        second = run_fsync(ring, sched, PEF3Plus(), positions=[0, 2, 4], rounds=200)
        assert first.final == second.final

    def test_well_initiated_validation(self) -> None:
        ring = RingTopology(4)
        with pytest.raises(ConfigurationError):
            run_fsync(
                ring, StaticSchedule(ring), PEF3Plus(), positions=[0, 0, 2], rounds=1
            )
        with pytest.raises(ConfigurationError):
            run_fsync(
                ring,
                StaticSchedule(ring),
                PEF3Plus(),
                positions=[0, 1, 2, 3],
                rounds=1,
            )

    def test_ill_initiated_opt_out(self) -> None:
        ring = RingTopology(4)
        result = run_fsync(
            ring,
            StaticSchedule(ring),
            PEF3Plus(),
            positions=[0, 0, 2],
            rounds=5,
            require_well_initiated=False,
        )
        assert result.rounds == 5

    def test_chirality_length_validated(self) -> None:
        ring = RingTopology(4)
        with pytest.raises(ConfigurationError):
            run_fsync(
                ring,
                StaticSchedule(ring),
                PEF3Plus(),
                positions=[0, 2],
                rounds=1,
                chiralities=[AGREE],
            )

    def test_negative_rounds_rejected(self) -> None:
        ring = RingTopology(4)
        with pytest.raises(ScheduleError):
            run_fsync(ring, StaticSchedule(ring), PEF3Plus(), positions=[0], rounds=-1)

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=4, max_value=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_on_random_runs(self, seed: int, n: int) -> None:
        """Per-round invariants: moves are 1 hop along present edges."""
        ring = RingTopology(n)
        sched = BernoulliSchedule(ring, p=0.55, seed=seed)
        result = run_fsync(ring, sched, PEF3Plus(), positions=[0, n // 2], rounds=60)
        trace = result.trace
        assert trace is not None
        for record in trace.records:
            for robot in range(2):
                before = record.before.positions[robot]
                after = record.after.positions[robot]
                if record.moved[robot]:
                    # Moved exactly one hop along a present edge.
                    candidates = {
                        edge
                        for edge in record.present_edges
                        if set(ring.endpoints(edge)) == {before, after}
                    }
                    assert candidates, (before, after, record.present_edges)
                else:
                    assert before == after


def _run(runner: str, ring, positions, rounds: int, activations=None, **kwargs):
    """One run of ``PEF_3+`` on the static ``ring``: ``run_fsync``, or
    ``run_ssync`` under ``activations`` (round-robin by default)."""
    schedule = StaticSchedule(ring)
    if runner == "fsync":
        return run_fsync(
            ring, schedule, PEF3Plus(), positions=positions, rounds=rounds,
            **kwargs,
        )
    return run_ssync(
        ring, schedule, activations or RoundRobinActivation(), PEF3Plus(),
        positions=positions, rounds=rounds, **kwargs,
    )


@pytest.mark.parametrize("runner", ["fsync", "ssync"])
class TestOneRunLoop:
    """Both runners share one loop: one validation, one ``RunResult``."""

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_off_footprint_ill_initiated_start_raises(
        self, runner: str, rounds: int
    ) -> None:
        with pytest.raises(TopologyError):
            _run(
                runner, RingTopology(4), [7], rounds,
                require_well_initiated=False,
            )

    def test_activation_accounting(self, runner: str) -> None:
        ring = RingTopology(6)
        result = _run(runner, ring, [0, 2, 4], 7)
        assert isinstance(result, RunResult)
        if runner == "fsync":
            assert result.activations == [frozenset({0, 1, 2})] * 7
            assert result.activation_counts() == {0: 7, 1: 7, 2: 7}
        else:
            assert result.activations == [frozenset({t % 3}) for t in range(7)]
            assert result.activation_counts() == {0: 3, 1: 2, 2: 2}
        assert result.is_fair()
        assert not _run(runner, ring, [0, 2, 4], 0).is_fair()
        assert _run(runner, ring, [0, 2, 4], 2).is_fair() == (runner == "fsync")


class TestActivationChecks:
    def test_empty_activation_set_refused(self) -> None:
        ring = RingTopology(5)
        with pytest.raises(ConfigurationError, match="round 0 activates no robot"):
            _run("ssync", ring, [0, 2], 1, ListActivation([[]]))
        pattern = ListActivation([[0], []])
        assert _run("ssync", ring, [0, 2], 1, pattern).rounds == 1
        with pytest.raises(ConfigurationError, match="round 1 activates no robot"):
            _run("ssync", ring, [0, 2], 2, pattern)

    def test_unknown_robot_refused(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown robot 2"):
            _run("ssync", RingTopology(5), [0, 2], 1, ListActivation([[2]]))

    def test_step_round_picks_the_body(self) -> None:
        ring = RingTopology(5)
        algorithm = PEF3Plus()
        config = make_initial_configuration(ring, algorithm, [0, 1, 3])
        present = ring.all_edges - {0}
        assert step_round(ring, algorithm, config, present) == step_fsync(
            ring, algorithm, config, present
        )
        active = frozenset({1})
        assert step_round(
            ring, algorithm, config, present, active
        ) == step_ssync(ring, algorithm, config, present, active)
        assert step_round(
            ring, algorithm, config, present, active
        ) != step_fsync(ring, algorithm, config, present)


class TestPaperBehaviour:
    def test_pef3plus_sentinels_settle_on_missing_edge(self) -> None:
        """Lemma 3.7: one robot ends on each extremity, pointing at it."""
        from repro.graph.schedules import EventuallyMissingEdgeSchedule
        from repro.types import GlobalDirection

        ring = RingTopology(6)
        sched = EventuallyMissingEdgeSchedule(ring, edge=2, vanish_time=0)
        result = run_fsync(ring, sched, PEF3Plus(), positions=[0, 2, 4], rounds=300)
        final = result.final
        # Edge 2 joins nodes 2 and 3: a sentinel on each extremity.
        extremities = {2, 3}
        sentinels = [r for r in final.robots if final.positions[r] in extremities]
        assert {final.positions[r] for r in sentinels} == extremities
        for robot in sentinels:
            assert final.pointed_edge(robot, ring) == 2

    def test_static_ring_all_nodes_visited(self) -> None:
        ring = RingTopology(8)
        result = run_fsync(
            ring, StaticSchedule(ring), PEF3Plus(), positions=[0, 3, 6], rounds=2 * 8
        )
        trace = result.trace
        assert trace is not None
        assert trace.nodes_visited() == frozenset(ring.nodes)
