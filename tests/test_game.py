"""Tests for the exploration game solver — Table 1, exactly.

Every verdict asserted here is one the paper proves. Trap certificates are
independently replay-validated inside ``verify_exploration`` itself
(whenever it builds one, the default), so each negative assertion
doubles as an engine/solver cross-check.
"""

from __future__ import annotations

import pytest

from repro.errors import VerificationError
from repro.graph.topology import ChainTopology, RingTopology
from repro.robots.algorithms import (
    PEF1,
    PEF2,
    Alternator,
    BounceOnBlocked,
    KeepDirection,
    PEF3Plus,
)
from repro.types import AGREE, DISAGREE, Chirality
from repro.verification.game import (
    PROPERTIES,
    check_property,
    default_chirality_vectors,
    synthesize_trap,
    verify_exploration,
)


class TestChiralityVectors:
    def test_reduction_counts(self) -> None:
        assert default_chirality_vectors(1) == ((AGREE,),)
        assert default_chirality_vectors(2) == ((AGREE, AGREE), (AGREE, DISAGREE))
        assert default_chirality_vectors(3) == (
            (AGREE, AGREE, AGREE),
            (AGREE, AGREE, DISAGREE),
        )

    def test_rejects_zero_robots(self) -> None:
        with pytest.raises(VerificationError):
            default_chirality_vectors(0)


class TestTable1Row5:
    def test_pef1_explores_two_node_ring(self) -> None:
        verdict = verify_exploration(PEF1(), RingTopology(2), k=1)
        assert verdict.explorable
        assert verdict.certificate is None

    def test_pef1_explores_two_node_chain(self) -> None:
        verdict = verify_exploration(PEF1(), ChainTopology(2), k=1)
        assert verdict.explorable


class TestTable1Row4:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pef1_trapped_on_larger_rings(self, n: int) -> None:
        verdict = verify_exploration(PEF1(), RingTopology(n), k=1)
        assert not verdict.explorable
        cert = verdict.certificate
        assert cert is not None
        assert cert.k == 1
        assert len(cert.eventually_missing) <= 1

    @pytest.mark.parametrize(
        "algorithm",
        [PEF2(), KeepDirection(), BounceOnBlocked(), Alternator()],
        ids=lambda a: a.name,
    )
    def test_every_candidate_trapped_on_ring3(self, algorithm) -> None:
        verdict = verify_exploration(algorithm, RingTopology(3), k=1)
        assert not verdict.explorable


class TestTable1Row3:
    def test_pef2_explores_three_node_ring(self) -> None:
        verdict = verify_exploration(PEF2(), RingTopology(3), k=2)
        assert verdict.explorable

    def test_candidates_do_not_all_explore_ring3(self) -> None:
        # Theorem 4.2 is about PEF_2 specifically; KeepDirection fails even
        # on the 3-ring (it waits forever at a missing edge).
        verdict = verify_exploration(KeepDirection(), RingTopology(3), k=2)
        assert not verdict.explorable


class TestTable1Row2:
    @pytest.mark.parametrize(
        "algorithm",
        [PEF3Plus(), PEF2(), KeepDirection(), BounceOnBlocked(), Alternator()],
        ids=lambda a: a.name,
    )
    def test_two_robots_trapped_on_ring4(self, algorithm) -> None:
        verdict = verify_exploration(algorithm, RingTopology(4), k=2)
        assert not verdict.explorable
        cert = verdict.certificate
        assert cert is not None
        # The trap is an honest connected-over-time schedule.
        assert len(cert.eventually_missing) <= 1

    def test_pef2_trapped_on_ring5(self) -> None:
        verdict = verify_exploration(PEF2(), RingTopology(5), k=2)
        assert not verdict.explorable


class TestTable1Row1:
    def test_pef3plus_explores_ring4_with_three_robots(self) -> None:
        verdict = verify_exploration(PEF3Plus(), RingTopology(4), k=3)
        assert verdict.explorable

    @pytest.mark.slow
    def test_pef3plus_explores_ring5_with_three_robots(self) -> None:
        verdict = verify_exploration(PEF3Plus(), RingTopology(5), k=3)
        assert verdict.explorable

    def test_baselines_fail_even_with_three_robots(self) -> None:
        # Possibility at k=3 is a property of PEF_3+, not of robot count.
        verdict = verify_exploration(KeepDirection(), RingTopology(4), k=3)
        assert not verdict.explorable


class TestSynthesizeTrap:
    def test_returns_validated_certificate(self) -> None:
        cert = synthesize_trap(PEF1(), RingTopology(4), k=1)
        assert cert.starved_node in RingTopology(4).nodes
        assert len(cert.cycle) >= 1

    def test_raises_on_explorable_instances(self) -> None:
        with pytest.raises(VerificationError):
            synthesize_trap(PEF1(), RingTopology(2), k=1)

    def test_explicit_chirality_vectors(self) -> None:
        verdict = verify_exploration(
            PEF1(),
            RingTopology(3),
            k=1,
            chirality_vectors=[(Chirality.DISAGREE,)],
        )
        assert not verdict.explorable

    def test_vector_length_validated(self) -> None:
        with pytest.raises(VerificationError):
            verify_exploration(
                PEF2(), RingTopology(3), k=2, chirality_vectors=[(AGREE,)]
            )


class TestLiveProperty:
    """The at-least-once (live exploration) property, both backends."""

    def test_property_names_validated(self) -> None:
        assert check_property("live") == "live"
        assert "perpetual" in PROPERTIES
        with pytest.raises(VerificationError):
            verify_exploration(PEF1(), RingTopology(3), k=1, prop="bounded")

    def test_single_robot_live_trap_has_unvisited_node(self) -> None:
        verdict = verify_exploration(PEF1(), RingTopology(3), k=1, prop="live")
        assert not verdict.explorable
        cert = verdict.certificate
        assert cert is not None
        # A live trap keeps the starved node unvisited from round 0: it
        # must not even be a seed position.
        assert cert.starved_node not in cert.seed_positions

    def test_explorer_explores_live_too(self) -> None:
        # Perpetual exploration implies live exploration (infinitely often
        # implies at least once).
        perpetual = verify_exploration(PEF2(), RingTopology(3), k=2)
        live = verify_exploration(PEF2(), RingTopology(3), k=2, prop="live")
        assert perpetual.explorable
        assert live.explorable

    def test_backends_agree_on_live_verdicts(self) -> None:
        from repro.robots.algorithms.tables import memoryless_table_from_bits

        for bits in (0x0000, 0x5A5A, 0xFFFF, 0x1234, 0xBEEF):
            table = memoryless_table_from_bits(bits)
            packed = verify_exploration(
                table, RingTopology(4), k=2, prop="live", backend="packed"
            )
            object_path = verify_exploration(
                table, RingTopology(4), k=2, prop="live", backend="object"
            )
            assert packed.explorable == object_path.explorable
            assert packed.states_explored == object_path.states_explored

    def test_live_trap_implies_perpetual_trap(self) -> None:
        from repro.robots.algorithms.tables import memoryless_table_from_bits

        for bits in range(0, 256, 17):
            table = memoryless_table_from_bits(bits)
            live = verify_exploration(table, RingTopology(4), k=2, prop="live")
            if not live.explorable:
                perpetual = verify_exploration(table, RingTopology(4), k=2)
                assert not perpetual.explorable

    def test_live_certificates_replay_validate(self) -> None:
        cert = synthesize_trap(PEF1(), RingTopology(4), k=1, prop="live")
        assert cert.starved_node not in cert.seed_positions


class TestVerdictReporting:
    def test_summary_mentions_shape(self) -> None:
        verdict = verify_exploration(PEF1(), RingTopology(3), k=1)
        text = verdict.summary()
        assert "TRAPPED" in text
        assert "n=3" in text
        assert verdict.n == 3

    def test_counts_are_positive(self) -> None:
        verdict = verify_exploration(PEF2(), RingTopology(3), k=2)
        assert verdict.states_explored > 0
        assert verdict.transitions_explored > verdict.states_explored
