"""Tests for the schedule-dynamics layer and the simulation chunk runner.

Covers the two halves of the simulation execution path:

* :mod:`repro.scenarios.dynamics` — canonical parameter encoding,
  schema validation (loud, construction-time, family-named) and schedule
  instantiation for every family of the schedule library;
* :mod:`repro.scenarios.simulate` — the bounded-horizon exploration
  check's semantics (live vs perpetual, FSYNC vs SSYNC), the
  non-rotation-reduced placement quantifier, the determinism
  contract (same tally for any chunk split — the invariant campaign
  resume and jobs-independence rest on). The backend contract (every
  available backend tallies every chunk byte-identically) lives in
  ``test_batch.py::TestVectorDifferential``.
"""

from __future__ import annotations

import pytest

from scenario_testlib import make_tiny_dynamics_scenario as dyn_spec
from repro.errors import ScenarioError
from repro.graph import schedules
from repro.graph.topology import RingTopology
from repro.scenarios import RobotClassSpec
from repro.scenarios.dynamics import (
    RANDOMIZED_FAMILIES,
    SCHEDULE_PARAMS,
    build_schedule,
    canonical_params,
    params_dict,
    schedule_masks,
    validate_dynamics,
)
from repro.scenarios.simulate import simulate_chunk, simulation_placements


class TestCanonicalParams:
    def test_none_and_empty_canonicalize_identically(self) -> None:
        assert canonical_params(None) == canonical_params({}) == "{}"

    def test_key_coercion_and_sorting(self) -> None:
        assert canonical_params({2: [True], 0: [False]}) == (
            canonical_params({"0": [False], "2": [True]})
        )

    def test_round_trip(self) -> None:
        params = {"patterns": {0: [True, False]}, "x": 1.5}
        frozen = canonical_params(params)
        assert canonical_params(params_dict(frozen)) == frozen

    def test_rejects_non_mapping(self) -> None:
        with pytest.raises(ScenarioError):
            canonical_params([1, 2, 3])

    def test_rejects_non_json_values(self) -> None:
        with pytest.raises(ScenarioError):
            canonical_params({"edge": object()})


class TestBuildSchedule:
    """Every family instantiates to its schedule class with decoded params."""

    CASES = {
        "static": ({"present": [0, 1]}, None, schedules.StaticSchedule),
        "eventually-missing": (
            {"edge": 1, "vanish_time": 2},
            None,
            schedules.EventuallyMissingEdgeSchedule,
        ),
        "intermittent": (
            {"edge": 0, "period": 3, "duty": 1},
            None,
            schedules.IntermittentEdgeSchedule,
        ),
        "periodic": (
            {"patterns": {"1": [True, False]}},
            None,
            schedules.PeriodicSchedule,
        ),
        "bernoulli": ({"p": 0.5}, 7, schedules.BernoulliSchedule),
        "markov": ({"p_off": 0.2, "p_on": 0.8}, 7, schedules.MarkovSchedule),
        "t-interval": ({"T": 2}, 7, schedules.TIntervalConnectedSchedule),
        "at-most-one-absent": (
            {"min_hold": 1, "max_hold": 3},
            7,
            schedules.AtMostOneAbsentSchedule,
        ),
    }

    @pytest.mark.parametrize("family", sorted(SCHEDULE_PARAMS))
    def test_family_instantiates(self, family: str) -> None:
        params, seed, cls = self.CASES[family]
        ring = RingTopology(4)
        schedule = build_schedule(family, canonical_params(params), seed, ring)
        assert isinstance(schedule, cls)
        # The instance answers time queries with footprint-valid sets.
        for t in range(6):
            assert schedule.present_edges(t) <= ring.all_edges

    def test_schema_covers_whole_library(self) -> None:
        assert set(SCHEDULE_PARAMS) == set(schedules.SCHEDULE_FAMILIES)

    def test_periodic_string_keys_decode_to_edges(self) -> None:
        ring = RingTopology(3)
        schedule = build_schedule(
            "periodic", canonical_params({"patterns": {"2": [False]}}), None, ring
        )
        assert schedule.present_edges(0) == ring.all_edges - {2}

    def test_per_edge_bernoulli_mapping(self) -> None:
        ring = RingTopology(3)
        schedule = build_schedule(
            "bernoulli", canonical_params({"p": {"0": 1.0, "1": 1.0, "2": 1.0}}),
            7, ring,
        )
        assert schedule.present_edges(5) == ring.all_edges

    def test_unknown_family_rejected(self) -> None:
        with pytest.raises(ScenarioError):
            build_schedule("tidal", None, None, RingTopology(3))


class TestValidateDynamics:
    def test_every_randomized_family_demands_a_seed(self) -> None:
        for family in RANDOMIZED_FAMILIES:
            params, _seed, _cls = TestBuildSchedule.CASES[family]
            with pytest.raises(ScenarioError, match=family):
                validate_dynamics(family, canonical_params(params), None, 4)

    def test_every_deterministic_family_rejects_a_seed(self) -> None:
        for family in sorted(set(SCHEDULE_PARAMS) - set(RANDOMIZED_FAMILIES)):
            params, _seed, _cls = TestBuildSchedule.CASES[family]
            with pytest.raises(ScenarioError, match=family):
                validate_dynamics(family, canonical_params(params), 7, 4)

    def test_highly_dynamic_is_not_a_schedule_family(self) -> None:
        with pytest.raises(ScenarioError):
            validate_dynamics("highly-dynamic", None, None, 4)


class TestSimulationPlacements:
    def test_well_is_every_ordered_towerless_placement(self) -> None:
        placements = simulation_placements("well", RingTopology(4), 2)
        assert len(placements) == 12  # 4 * 3, NOT rotation-reduced
        assert all(len(set(p)) == 2 for p in placements)

    def test_arbitrary_includes_towers(self) -> None:
        placements = simulation_placements("arbitrary", RingTopology(4), 2)
        assert len(placements) == 16  # full product, towers included
        assert (0, 0) in placements


class TestSimulateChunk:
    def test_always_right_single_robot_explores_static_ring(self) -> None:
        # Table 0xff (always RIGHT) circles the static 3-ring forever —
        # an explorer under both properties; table 0x0f flips direction
        # every round, oscillates between two nodes, and is trapped.
        spec = dyn_spec(
            robots=RobotClassSpec(family="single", sample=None),
            n=3,
            dynamics="static",
            dynamics_params=None,
            dynamics_seed=None,
            horizon=12,
        )
        total, trapped, explorers, rounds = simulate_chunk(spec, [0xFF, 0x0F])
        assert (total, trapped) == (2, 1)
        assert explorers == ["memoryless1r:ff"]
        assert rounds > 0

    def test_perpetual_is_stricter_than_live(self) -> None:
        # Under an eventually-missing edge the ring becomes a chain: a
        # table may sweep every node once (live) yet never return
        # (perpetual). Trapped tallies must reflect live <= perpetual.
        def tallies(prop: str):
            spec = dyn_spec(
                robots=RobotClassSpec(family="single", sample=None),
                n=4,
                dynamics="eventually-missing",
                dynamics_params={"edge": 0},
                dynamics_seed=None,
                prop=prop,
                horizon=32,
            )
            return simulate_chunk(spec, list(range(64)))

        live = tallies("live")
        perpetual = tallies("perpetual")
        assert live[0] == perpetual[0] == 64
        assert live[1] <= perpetual[1]

    def test_single_robot_ssync_round_robin_degenerates_to_fsync(self) -> None:
        # With k = 1 the round-robin activation set is always {0}: the
        # SSYNC simulation must tally exactly like the FSYNC one.
        kwargs = dict(
            robots=RobotClassSpec(family="single", sample=None),
            n=3,
            dynamics="periodic",
            dynamics_params={"patterns": {0: [True, False]}},
            dynamics_seed=None,
            horizon=16,
        )
        chunk = list(range(0, 256, 5))
        fsync = simulate_chunk(dyn_spec(**kwargs), chunk)
        ssync = simulate_chunk(dyn_spec(scheduler="ssync", **kwargs), chunk)
        assert fsync == ssync

    def test_chunk_split_invariance(self) -> None:
        # The determinism contract: tallies merge identically however
        # the pattern stream is cut (this is what makes campaign reports
        # byte-identical across chunk schedules and worker counts).
        spec = dyn_spec(robots=RobotClassSpec(family="two", sample=18))
        patterns = spec.expand_patterns()
        whole = simulate_chunk(spec, patterns)
        parts = [
            simulate_chunk(spec, patterns[i : i + 5])
            for i in range(0, len(patterns), 5)
        ]
        merged = (
            sum(p[0] for p in parts),
            sum(p[1] for p in parts),
            [name for p in parts for name in p[2]],
            sum(p[3] for p in parts),
        )
        assert whole == merged

    def test_repeat_runs_are_identical(self) -> None:
        spec = dyn_spec(dynamics="markov", dynamics_params={"p_off": 0.3, "p_on": 0.6})
        chunk = spec.expand_patterns()
        assert simulate_chunk(spec, chunk) == simulate_chunk(spec, chunk)

    def test_arbitrary_starts_quantifier_is_stricter(self) -> None:
        # Every towerless placement is also an arbitrary placement, so
        # widening the quantifier can only move tables explorer→trapped.
        well = dyn_spec(starts="well")
        arbitrary = dyn_spec(starts="arbitrary")
        chunk = well.expand_patterns()
        assert well.expand_patterns() == arbitrary.expand_patterns()
        assert simulate_chunk(well, chunk)[1] <= simulate_chunk(arbitrary, chunk)[1]

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(Exception, match="backend"):
            simulate_chunk(dyn_spec(), [0], backend="vectorized")


class TestScheduleMasks:
    def test_masks_match_present_edge_sets(self) -> None:
        ring = RingTopology(5)
        schedule = build_schedule(
            "t-interval", canonical_params({"T": 2}), 99, ring
        )
        masks = schedule_masks(schedule, 12)
        assert len(masks) == 12
        for t, mask in enumerate(masks):
            assert mask == sum(1 << e for e in schedule.present_edges(t))

    def test_negative_horizon_rejected(self) -> None:
        ring = RingTopology(3)
        schedule = build_schedule("static", None, None, ring)
        with pytest.raises(ScenarioError):
            schedule_masks(schedule, -1)
