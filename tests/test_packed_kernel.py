"""Differential tests: packed kernel vs object product vs simulator.

The packed kernel is only allowed to exist because it is indistinguishable
from the object path, which is itself pinned to the engine. These tests
close the triangle in both directions:

* single transitions — ``PackedKernel.step_packed``, ``ProductSystem.step``
  and ``run_fsync`` agree on (successor state, moved flags) for randomized
  table algorithms, rings and chains ``n ∈ 3..8``, ``k ∈ 1..3`` and mixed
  chiralities;
* whole graphs — ``PackedKernel.reachable()`` and the engine-stepped
  ``ProductSystem.reachable()`` give the *identical* canonical CSR (same
  states, same per-state transition order) once the object graph is packed
  with the kernel's encoding; at k=3, where SSYNC activations include a
  non-contiguous mask, every kernel transition is checked against
  ``step_packed``, a sample against the engine, and the whole graph
  against the vector ``reachable_csr``;
* verdicts — ``verify_exploration`` agrees across backends (explorability,
  state and transition counts, the trap certificate itself) and packed
  certificates replay-validate;
* sweeps — ``sweep_*_memoryless`` results are identical for every
  (backend, jobs) combination;
* schedulers — the SSYNC twins of all of the above: packed SSYNC graphs
  pack to the same canonical CSR as the object backend's, SSYNC verdicts and
  certificates agree across backends, SSYNC trap certificates replay
  through ``run_ssync``, and with one robot the SSYNC game tallies
  exactly like FSYNC on all 256 canonical single-robot tables (all 8
  views, both directions).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import TopologyError, VerificationError
from repro.graph.schedules import BernoulliSchedule
from repro.graph.topology import ChainTopology, RingTopology
from repro.robots.algorithms import PEF1, PEF2, PEF3Plus, KeepDirection
from repro.robots.algorithms.tables import (
    memoryless_single_robot_table_from_bits,
    random_table_algorithm,
)
from repro.sim.engine import run_fsync
from repro.types import AGREE, DISAGREE, Chirality
from repro.verification.enumeration import sweep_spec
from repro.verification.backends import SOLVER_BACKENDS, vector_available
from repro.verification.compiled import CompiledTables
from repro.verification.game import (
    _csr_from_packed,
    _packed_from_object,
    verify_exploration,
)
from repro.verification.kernel import PackedKernel
from repro.verification.sweeps import (
    family_maker,
    family_plan,
    run_table_sweep,
    start_placements,
)
from repro.verification.product import ProductSystem


def _random_instance(rng: random.Random):
    """A random (topology, algorithm, chirality vector) triple."""
    n = rng.randint(3, 8)
    topology = rng.choice([RingTopology(n), ChainTopology(n)])
    k = rng.randint(1, min(3, n - 1))
    chiralities = tuple(rng.choice([AGREE, DISAGREE]) for _ in range(k))
    algorithm = random_table_algorithm(rng, memory_size=rng.randint(1, 3))
    return topology, algorithm, chiralities


def _assert_csr_parity(topology, algorithm, chiralities, scheduler="fsync"):
    """The engine-stepped graph, packed with the kernel's encoding, is the
    kernel's own canonical CSR; returns the object graph."""
    system = ProductSystem(topology, algorithm, chiralities, scheduler=scheduler)
    kernel = PackedKernel(topology, algorithm, chiralities, scheduler=scheduler)
    seeds = system.initial_states()
    packed_seeds = [kernel.encode(seed) for seed in seeds]
    occupied: dict = {}
    packed_graph = kernel.reachable(packed_seeds, occupied_out=occupied)
    object_graph = system.reachable(seeds)
    assert _csr_from_packed(
        *_packed_from_object(kernel, object_graph, seeds)
    ) == _csr_from_packed(packed_graph, occupied, packed_seeds)
    return object_graph


class TestStepAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_product_engine_agree_on_random_walks(self, seed: int) -> None:
        """All three layers agree on (successor, moved) along random walks."""
        rng = random.Random(seed)
        topology, algorithm, chiralities = _random_instance(rng)
        k = len(chiralities)
        system = ProductSystem(topology, algorithm, chiralities)
        kernel = PackedKernel(topology, algorithm, chiralities)

        positions = tuple(rng.sample(range(topology.n), k))
        schedule = BernoulliSchedule(topology, p=0.6, seed=seed)
        result = run_fsync(
            topology,
            schedule,
            algorithm,
            positions=positions,
            rounds=25,
            chiralities=chiralities,
        )
        trace = result.trace
        assert trace is not None
        state = (trace.initial.positions, trace.initial.states)
        packed = kernel.encode(state)
        for record in trace.records:
            mask = kernel.edges_to_mask(record.present_edges)
            before = kernel.positions_of(packed)
            packed = kernel.step_packed(packed, mask)
            object_successor = system.step(state, record.present_edges)
            engine_successor = (record.after.positions, record.after.states)
            assert kernel.decode(packed) == engine_successor
            assert object_successor == engine_successor
            # A move always changes node (footprints have no self-loops).
            after = kernel.positions_of(packed)
            assert tuple(map(int.__ne__, before, after)) == record.moved
            state = engine_successor

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_step_on_arbitrary_edge_sets(self, seed: int) -> None:
        """Agreement holds for arbitrary (non-normalized) present sets."""
        rng = random.Random(1000 + seed)
        topology, algorithm, chiralities = _random_instance(rng)
        k = len(chiralities)
        system = ProductSystem(topology, algorithm, chiralities)
        kernel = PackedKernel(topology, algorithm, chiralities)
        state = (
            tuple(rng.sample(range(topology.n), k)),
            (algorithm.initial_state(),) * k,
        )
        for _ in range(40):
            present = frozenset(
                edge for edge in topology.edges if rng.random() < 0.5
            )
            expected = system.step(state, present)
            packed = kernel.step_packed(
                kernel.encode(state), kernel.edges_to_mask(present)
            )
            assert kernel.decode(packed) == expected
            state = expected


class TestGraphIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_packed_backend_reproduces_object_graph_exactly(self, seed: int) -> None:
        rng = random.Random(2000 + seed)
        n = rng.randint(3, 6)
        topology = rng.choice([RingTopology(n), ChainTopology(n)])
        k = rng.randint(1, 2)
        chiralities = tuple(rng.choice([AGREE, DISAGREE]) for _ in range(k))
        algorithm = random_table_algorithm(rng, memory_size=rng.randint(1, 2))
        _assert_csr_parity(topology, algorithm, chiralities)

    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    def test_three_robots_mixed_chiralities(self, scheduler: str) -> None:
        # k=3 is the smallest team whose SSYNC activations include a
        # non-contiguous mask (0b101): an idle robot between two active
        # ones. Stepping the whole SSYNC ring graph through the engine
        # takes seconds (44k transitions), so every transition is checked
        # against ``step_packed`` (itself pinned to ``step_ssync`` with
        # arbitrary activation subsets) and a sample of states against
        # the engine oracle.
        rng = random.Random(6000)
        for topology in (RingTopology(4), ChainTopology(4)):
            chiralities = [AGREE, DISAGREE, rng.choice([AGREE, DISAGREE])]
            rng.shuffle(chiralities)
            chiralities = tuple(chiralities)
            algorithm = random_table_algorithm(rng, memory_size=1)
            system = ProductSystem(
                topology, algorithm, chiralities, scheduler=scheduler
            )
            kernel = PackedKernel(
                topology, algorithm, chiralities, scheduler=scheduler
            )
            # Activation masks in the object oracle's label order.
            acts = [None]
            if scheduler == "ssync":
                acts = [
                    sum(1 << robot for robot in active)
                    for active in system.activation_sets()
                ]

            def tagged(mask, act):
                return mask if act is None else mask | act << kernel.act_shift

            def object_label(move):
                if scheduler == "fsync":
                    return kernel.edges_to_mask(move)
                present, active = move
                act = sum(1 << robot for robot in active)
                return tagged(kernel.edges_to_mask(present), act)

            seeds = kernel.initial_states()
            occupied: dict = {}
            graph = kernel.reachable(seeds, occupied_out=occupied)
            for state, out in graph.items():
                assert out == [
                    (tagged(mask, act), kernel.step_packed(state, mask, act))
                    for mask in kernel.moves_for_occupied(occupied[state])
                    for act in acts
                ]
            for state in rng.sample(sorted(graph), 16):
                assert graph[state] == [
                    (object_label(move), kernel.encode(successor))
                    for move, successor in system.transitions(
                        kernel.decode(state)
                    )
                ]
            if vector_available():
                from repro.verification import batch_solver

                reference = _csr_from_packed(graph, occupied, seeds)
                *arrays, seed_idx = batch_solver.reachable_csr(kernel, seeds)
                fields = ("states", "indptr", "labels", "succs", "occ")
                for field, array in zip(fields, arrays):
                    assert array.tolist() == getattr(reference, field), field
                assert seed_idx == reference.seeds

    def test_structured_algorithms_and_two_node_multigraph(self) -> None:
        cases = [
            (RingTopology(2), PEF1(), (AGREE,)),
            (RingTopology(4), PEF2(), (AGREE, AGREE)),
            (RingTopology(4), PEF3Plus(), (AGREE, DISAGREE)),
            (ChainTopology(4), PEF2(), (AGREE, AGREE)),
        ]
        for topology, algorithm, chiralities in cases:
            for scheduler in ("fsync", "ssync"):
                _assert_csr_parity(topology, algorithm, chiralities, scheduler)

    def test_max_states_guard_applies_to_packed_backend(self) -> None:
        for scheduler in ("fsync", "ssync"):
            kernel = PackedKernel(
                RingTopology(6), PEF3Plus(), (AGREE, AGREE, AGREE),
                max_states=10, scheduler=scheduler,
            )
            with pytest.raises(VerificationError, match="exceeds 10 states"):
                kernel.reachable()


class TestCompiledSplit:
    """The compilation layer / game-consumer split: the kernel is the
    compiled tables plus adversarial enumeration, nothing more."""

    def test_kernel_is_a_compiled_tables_consumer(self) -> None:
        assert issubclass(PackedKernel, CompiledTables)
        # Adversary enumeration and reachability are kernel-only: the
        # compilation layer must stay game-agnostic so the simulation
        # runner can consume it without dragging in the solver.
        for game_only in ("moves_for_occupied", "reachable"):
            assert not hasattr(CompiledTables, game_only)

    def test_round_table_replay_matches_the_engine(self) -> None:
        # The packed simulator's round — one slot per robot, advanced by
        # one round-table lookup at ``slot · 8 + view`` — reaches the
        # object product's successor (the engine's step), under both
        # schedulers' round shapes: everyone active, and a single
        # active robot.
        rng = random.Random(20170605)
        for _ in range(25):
            topology, algorithm, chiralities = _random_instance(rng)
            tables = CompiledTables(topology, algorithm, chiralities)
            system = ProductSystem(topology, algorithm, chiralities)
            k = tables.k
            S = tables.state_count
            positions = [rng.randrange(topology.n) for _ in range(k)]
            mask = rng.randrange(1 << topology.edge_count)
            active = (
                None if rng.random() < 0.5 else (rng.randrange(k),)
            )
            start = (tuple(positions), (algorithm.initial_state(),) * k)
            expected = system.step(
                start,
                tables.mask_to_edges(mask),
                None if active is None else frozenset(active),
            )
            slots = [position * S + tables.initial_index for position in positions]
            towers = 0
            for i, position in enumerate(positions):
                if position in positions[:i]:
                    towers |= 1 << position
            for i in range(k) if active is None else active:
                left_masks, right_masks = tables.port_masks[i]
                node = positions[i]
                view = slots[i] * 8
                if mask & left_masks[node]:
                    view += 4
                if mask & right_masks[node]:
                    view += 2
                if towers >> node & 1:
                    view += 1
                slots[i] = tables.round_tables[i][view]
            repacked = 0
            for slot in reversed(slots):
                repacked = repacked * tables.n * S + slot
            assert tables.decode(repacked) == expected
            act_mask = None if active is None else 1 << active[0]
            assert tables.step_packed(tables.encode(start), mask, act_mask) == repacked


class TestKernelEncoding:
    def test_encode_decode_roundtrip(self) -> None:
        rng = random.Random(7)
        for _ in range(20):
            topology, algorithm, chiralities = _random_instance(rng)
            kernel = PackedKernel(topology, algorithm, chiralities)
            k = len(chiralities)
            state = (
                tuple(rng.randrange(topology.n) for _ in range(k)),
                (algorithm.initial_state(),) * k,
            )
            assert kernel.decode(kernel.encode(state)) == state
            packed = kernel.encode(state)
            assert kernel.positions_of(packed) == state[0]
            occupied = kernel.occupied_mask(packed)
            assert occupied == sum(1 << p for p in set(state[0]))

    def test_adversary_moves_match_object_path(self) -> None:
        topology = RingTopology(6)
        system = ProductSystem(topology, PEF2(), (AGREE, AGREE))
        kernel = PackedKernel(topology, PEF2(), (AGREE, AGREE))
        positions = (0, 3)
        object_moves = system.adversary_moves(positions)
        occupied = sum(1 << p for p in positions)
        packed_moves = kernel.moves_for_occupied(occupied)
        assert len(object_moves) == len(packed_moves)
        assert [kernel.mask_to_edges(m) for m in packed_moves] == list(object_moves)

    def test_unknown_state_rejected(self) -> None:
        kernel = PackedKernel(RingTopology(3), PEF1(), (AGREE,))
        with pytest.raises(VerificationError):
            kernel.encode(((0,), ("not-a-state",)))

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(VerificationError, match="unknown backend 'simd'"):
            verify_exploration(PEF1(), RingTopology(3), k=1, backend="simd")

    @pytest.mark.parametrize("placement", [(5,), (-1,)])
    def test_off_footprint_placement_rejected(self, placement) -> None:
        for backend in SOLVER_BACKENDS:
            if backend == "vector" and not vector_available():
                continue
            with pytest.raises(TopologyError):
                verify_exploration(
                    PEF1(), RingTopology(3), k=1, placements=[placement],
                    backend=backend,
                )


class TestVerdictAgreement:
    @pytest.mark.parametrize(
        "algorithm,n,k",
        [
            (PEF1(), 2, 1),   # explorable
            (PEF1(), 4, 1),   # trapped
            (PEF2(), 3, 2),   # explorable
            (PEF2(), 4, 2),   # trapped
            (KeepDirection(), 4, 3),  # trapped
            (PEF3Plus(), 4, 3),       # explorable
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_backends_agree_on_table1_instances(self, algorithm, n: int, k: int) -> None:
        ring = RingTopology(n)
        object_verdict = verify_exploration(algorithm, ring, k=k, backend="object")
        packed_verdict = verify_exploration(algorithm, ring, k=k, backend="packed")
        assert object_verdict.explorable == packed_verdict.explorable
        assert object_verdict.certificate == packed_verdict.certificate
        assert object_verdict.states_explored == packed_verdict.states_explored
        assert (
            object_verdict.transitions_explored
            == packed_verdict.transitions_explored
        )
        # verify_exploration already replayed the packed certificate
        # through the simulator; check shape consistency too.
        if not packed_verdict.explorable:
            assert packed_verdict.certificate is not None
            assert len(packed_verdict.certificate.eventually_missing) <= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_backends_agree_on_random_tables(self, seed: int) -> None:
        rng = random.Random(3000 + seed)
        algorithm = random_table_algorithm(rng, memory_size=rng.randint(1, 2))
        n = rng.randint(3, 5)
        k = rng.randint(1, 2)
        ring = RingTopology(n)
        object_verdict = verify_exploration(algorithm, ring, k=k, backend="object")
        packed_verdict = verify_exploration(algorithm, ring, k=k, backend="packed")
        assert object_verdict.explorable == packed_verdict.explorable
        assert object_verdict.certificate == packed_verdict.certificate
        assert object_verdict.states_explored == packed_verdict.states_explored

    def test_certificates_disabled_still_reports_verdict(self) -> None:
        for backend in ("packed", "object"):
            verdict = verify_exploration(
                PEF1(), RingTopology(3), k=1, backend=backend, certificates=False
            )
            assert not verdict.explorable
            assert verdict.certificate is None


class TestSsyncScheduler:
    """Differential coverage of the scheduler-generic verification core."""

    @pytest.mark.parametrize("seed", range(8))
    def test_packed_ssync_graph_decodes_to_object_graph(self, seed: int) -> None:
        rng = random.Random(4000 + seed)
        n = rng.randint(3, 5)
        topology = rng.choice([RingTopology(n), ChainTopology(n)])
        k = rng.randint(1, 2)
        chiralities = tuple(rng.choice([AGREE, DISAGREE]) for _ in range(k))
        algorithm = random_table_algorithm(rng, memory_size=rng.randint(1, 2))
        object_graph = _assert_csr_parity(
            topology, algorithm, chiralities, scheduler="ssync"
        )
        # Every SSYNC label is a (present-edges, activated-robots) pair
        # with a non-empty activation drawn from this instance's robots.
        robots = frozenset(range(k))
        for out in object_graph.values():
            for (present, active), _succ in out:
                assert active and active <= robots
                assert isinstance(present, frozenset)

    def test_ssync_branching_is_fsync_times_activation_subsets(self) -> None:
        # Per state the SSYNC move set is the FSYNC edge enumeration
        # crossed with every non-empty robot subset.
        topology = RingTopology(4)
        fsync = ProductSystem(topology, PEF2(), (AGREE, AGREE)).reachable()
        ssync = ProductSystem(
            topology, PEF2(), (AGREE, AGREE), scheduler="ssync"
        ).reachable()
        state = next(iter(fsync))
        assert len(ssync[state]) == len(fsync[state]) * 3

    @pytest.mark.parametrize("seed", range(8))
    def test_ssync_backends_agree_on_random_tables(self, seed: int) -> None:
        rng = random.Random(5000 + seed)
        algorithm = random_table_algorithm(rng, memory_size=rng.randint(1, 2))
        n = rng.randint(3, 4)
        k = rng.randint(1, 2)
        ring = RingTopology(n)
        object_verdict = verify_exploration(
            algorithm, ring, k=k, backend="object", scheduler="ssync"
        )
        packed_verdict = verify_exploration(
            algorithm, ring, k=k, backend="packed", scheduler="ssync"
        )
        assert object_verdict.explorable == packed_verdict.explorable
        assert object_verdict.certificate == packed_verdict.certificate
        assert object_verdict.states_explored == packed_verdict.states_explored
        assert (
            object_verdict.transitions_explored
            == packed_verdict.transitions_explored
        )

    def test_single_robot_ssync_equals_fsync_on_all_views(self) -> None:
        # With k = 1 the only non-empty activation subset is {0}, so the
        # SSYNC game must tally exactly like FSYNC over the whole
        # canonical single-robot class — all 8 views, both directions.
        ring = RingTopology(3)
        for bits in range(256):
            algorithm = memoryless_single_robot_table_from_bits(bits)
            fsync = verify_exploration(
                algorithm, ring, k=1, certificates=False
            )
            ssync = verify_exploration(
                algorithm, ring, k=1, scheduler="ssync", certificates=False
            )
            assert fsync.explorable == ssync.explorable, bits
            assert fsync.states_explored == ssync.states_explored, bits

    def test_ssync_certificates_replay_through_run_ssync(self) -> None:
        # verify_exploration replays the packed SSYNC lasso through the
        # SSYNC engine with the certificate's own activation sets.
        for backend in ("packed", "object"):
            verdict = verify_exploration(
                PEF2(), RingTopology(4), k=2, backend=backend,
                scheduler="ssync",
            )
            assert not verdict.explorable
            cert = verdict.certificate
            assert cert is not None
            assert cert.scheduler == "ssync"
            assert cert.cycle_activations is not None
            assert len(cert.cycle_activations) == len(cert.cycle)
            # Fairness: the cycle activates every robot.
            assert frozenset().union(*cert.cycle_activations) == {0, 1}

    def test_ssync_sweep_identical_across_backends_and_jobs(self) -> None:
        spec = sweep_spec("two", 4, sample=12, rng_seed=9, scheduler="ssync")
        results = [
            run_table_sweep(spec, backend="object"),
            run_table_sweep(spec, backend="packed"),
            run_table_sweep(spec, backend="packed", jobs=2),
        ]
        reference = results[0]
        assert reference.total == 12
        assert "[ssync]" in reference.description
        for other in results[1:]:
            assert (
                other.total,
                other.trapped,
                other.explorers,
                other.states_explored,
                other.description,
            ) == (
                reference.total,
                reference.trapped,
                reference.explorers,
                reference.states_explored,
                reference.description,
            )

    def test_unknown_scheduler_rejected(self) -> None:
        with pytest.raises(VerificationError):
            ProductSystem(RingTopology(3), PEF1(), (AGREE,), scheduler="async")
        with pytest.raises(VerificationError):
            PackedKernel(RingTopology(3), PEF1(), (AGREE,), scheduler="async")
        with pytest.raises(VerificationError):
            verify_exploration(PEF1(), RingTopology(3), k=1, scheduler="async")


class TestSweepRegression:
    def test_single_robot_sweep_identical_across_backends_and_jobs(self) -> None:
        spec = sweep_spec("single", 3)
        results = [
            run_table_sweep(spec, backend="object"),
            run_table_sweep(spec, backend="packed"),
            run_table_sweep(spec, backend="packed", jobs=2),
            run_table_sweep(spec, backend="packed", jobs=5),
        ]
        reference = results[0]
        assert reference.total == 256
        assert reference.all_trapped
        for other in results[1:]:
            assert (
                other.total,
                other.trapped,
                other.explorers,
                other.states_explored,
            ) == (
                reference.total,
                reference.trapped,
                reference.explorers,
                reference.states_explored,
            )

    def test_two_robot_sample_identical_across_backends_and_jobs(self) -> None:
        spec = sweep_spec("two", 4, sample=24, rng_seed=5)
        results = [
            run_table_sweep(spec, backend="object"),
            run_table_sweep(spec, backend="packed"),
            run_table_sweep(spec, backend="packed", jobs=2),
            run_table_sweep(spec, backend="packed", jobs=3),
        ]
        reference = results[0]
        assert reference.total == 24
        for other in results[1:]:
            assert (
                other.total,
                other.trapped,
                other.explorers,
                other.states_explored,
                other.description,
            ) == (
                reference.total,
                reference.trapped,
                reference.explorers,
                reference.states_explored,
                reference.description,
            )

    def test_validated_sweep_replays_certificates(self) -> None:
        # The sweep tallies verdicts without certificates; every table it
        # counts as trapped yields a certificate that verify_exploration
        # replays through the simulator, under the same chirality plan.
        spec = sweep_spec("two", 4, sample=4, rng_seed=11)
        result = run_table_sweep(spec, backend="packed")
        assert result.total == 4
        trapped = 0
        for bits in spec.expand_patterns():
            verdict = verify_exploration(
                family_maker("two")(bits), RingTopology(4), k=2,
                chirality_vectors=[
                    vector for stage in family_plan("two") for vector in stage
                ],
                backend="packed",
                placements=start_placements("well", RingTopology(4), 2),
            )
            trapped += not verdict.explorable
            assert verdict.explorable or verdict.certificate is not None
        assert trapped == result.trapped
