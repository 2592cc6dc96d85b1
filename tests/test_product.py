"""Tests for the product transition system (solver substrate)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VerificationError
from repro.graph.schedules import BernoulliSchedule
from repro.graph.topology import ChainTopology, RingTopology
from repro.robots.algorithms import PEF2, PEF3Plus
from repro.sim.engine import run_fsync
from repro.types import AGREE, DISAGREE
from repro.verification.compiled import CompiledTables
from repro.verification.kernel import PackedKernel
from repro.verification.product import ProductSystem


class TestAdversaryMoves:
    def test_non_adjacent_edges_always_present(self) -> None:
        ring = RingTopology(6)
        system = ProductSystem(ring, PEF2(), (AGREE, AGREE))
        moves = system.adversary_moves((0, 3))
        # Relevant edges: 5,0 (around node 0) and 2,3 (around node 3).
        relevant = {5, 0, 2, 3}
        assert len(moves) == 2 ** len(relevant)
        for move in moves:
            assert ring.all_edges - relevant <= move

    def test_moves_cached_per_occupancy(self) -> None:
        ring = RingTopology(5)
        system = ProductSystem(ring, PEF2(), (AGREE, AGREE))
        first = system.adversary_moves((1, 3))
        second = system.adversary_moves((3, 1))  # same occupied set
        assert first is second

    def test_two_node_ring_moves(self) -> None:
        ring = RingTopology(2)
        system = ProductSystem(ring, PEF2(), (AGREE,))
        moves = system.adversary_moves((0,))
        assert len(moves) == 4  # both parallel edges are adjacent


class TestStepAgreement:
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=4, max_value=7),
    )
    @settings(max_examples=25, deadline=None)
    def test_product_step_matches_engine(self, seed: int, n: int) -> None:
        """The solver's transition is the simulator's transition."""
        ring = RingTopology(n)
        algorithm = PEF3Plus()
        chiralities = (AGREE, DISAGREE)
        schedule = BernoulliSchedule(ring, p=0.5, seed=seed)
        result = run_fsync(
            ring,
            schedule,
            algorithm,
            positions=[0, n // 2],
            rounds=30,
            chiralities=chiralities,
        )
        trace = result.trace
        assert trace is not None
        system = ProductSystem(ring, algorithm, chiralities)
        state = (trace.initial.positions, trace.initial.states)
        for record in trace.records:
            state = system.step(state, record.present_edges)
            assert state == (record.after.positions, record.after.states)


class TestInitialStatesAndReachability:
    def test_ring_seeds_are_canonical(self) -> None:
        ring = RingTopology(5)
        system = ProductSystem(ring, PEF2(), (AGREE, AGREE))
        seeds = system.initial_states()
        assert all(seed[0][0] == 0 for seed in seeds)
        assert len(seeds) == 4  # robot 1 anywhere else

    def test_chain_seeds_are_all_towerless(self) -> None:
        chain = ChainTopology(4)
        system = ProductSystem(chain, PEF2(), (AGREE, AGREE))
        seeds = system.initial_states()
        assert len(seeds) == 4 * 3

    def test_reachable_graph_closed(self) -> None:
        ring = RingTopology(4)
        system = ProductSystem(ring, PEF2(), (AGREE, AGREE))
        graph = system.reachable()
        for state, transitions in graph.items():
            assert len(transitions) == len(system.adversary_moves(state[0]))
            for _label, successor in transitions:
                assert successor in graph

    def test_reachable_never_calls_the_packed_kernel(self, monkeypatch) -> None:
        """The oracle stays independent of what it checks: no packed
        kernel is compiled or explored under ``ProductSystem.reachable``."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("ProductSystem reached the packed kernel")

        monkeypatch.setattr(PackedKernel, "reachable", forbidden)
        monkeypatch.setattr(CompiledTables, "__init__", forbidden)
        ring = RingTopology(4)
        for scheduler, activations in (("fsync", 1), ("ssync", 3)):
            system = ProductSystem(
                ring, PEF2(), (AGREE, AGREE), scheduler=scheduler
            )
            graph = system.reachable()
            assert len(graph) > 1
            for state, transitions in graph.items():
                moves = system.adversary_moves(state[0])
                assert len(transitions) == len(moves) * activations

    def test_max_states_guard(self) -> None:
        ring = RingTopology(6)
        system = ProductSystem(ring, PEF3Plus(), (AGREE, AGREE, AGREE), max_states=10)
        with pytest.raises(VerificationError):
            system.reachable()

    def test_infinite_state_algorithms_rejected(self) -> None:
        class Unbounded(PEF2):
            @property
            def is_finite_state(self) -> bool:
                return False

        with pytest.raises(VerificationError):
            ProductSystem(RingTopology(4), Unbounded(), (AGREE,))
