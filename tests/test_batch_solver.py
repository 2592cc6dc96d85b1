"""Tests for the vector *solver* backend (dense NumPy game solving).

Three contracts, mirroring ``test_batch.py``'s simulation-side suite:

* **Differential** — the dense lockstep solver is an execution detail:
  on every registered highly-dynamic scenario's first chunk, and on
  Hypothesis-drawn random tables × schedulers × properties × start
  policies, ``sweep_chunk`` tallies byte-identically under ``vector``,
  ``packed`` and ``object``; ``verify_exploration`` additionally emits
  bit-identical trap certificates under ``vector`` and ``packed`` (the
  shared canonical-CSR solve phase), all replay-validated.
* **Registry** — ``auto`` resolves vector → packed by NumPy
  availability on the solver path too, the CLI rejects an explicit
  ``--backend vector`` without NumPy with a usage error (exit 2), and
  the NumPy-absent fallback chunks are byte-identical to ``packed``.
  The whole module must pass with NumPy absent — vector-only tests
  skip.
* **Portability** — a solver campaign checkpointed under ``packed``
  resumes under ``vector`` into a byte-identical report.
* **Sparse frontier and rotation reduction** — ``reachable_csr`` builds
  the scalar kernel's CSR field for field (PEF_3+ up to n=8, FSYNC and
  SSYNC, ill-initiated starts, a dense-eligible instance) and raises the
  same ``max_states`` error; ring rotation is a graph automorphism of
  every rotation-closed instance; and checking target 0 alone yields the
  verdict and certificate of a full all-target scan.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_testlib import make_tiny_scenario
from repro.cli import main as cli_main
from repro.errors import VerificationError
from repro.graph.topology import RingTopology, arbitrary_placements
from repro.robots.algorithms import PEF1, PEF2, PEF3Plus
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    get_scenario,
    iter_scenarios,
)
from repro.verification import batch, batch_solver, game
from repro.verification.backends import resolve_solver_backend
from repro.verification.certificates import validate_certificate
from repro.verification.game import (
    _avoid_reachable_csr,
    _csr_from_packed,
    _CsrGraph,
    _extract_certificate_csr,
    _rotation_closed,
    _winning_scc_csr,
    default_chirality_vectors,
    verify_exploration,
)
from repro.verification.kernel import PackedKernel
from repro.verification.sweeps import family_maker, family_space, sweep_chunk

HAVE_NUMPY = batch.have_numpy()
requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (vector backend unavailable)"
)


def _solver_scenario_names() -> list[str]:
    return [
        spec.name
        for spec in iter_scenarios()
        if spec.dynamics == "highly-dynamic"
    ]


def _chunk_kwargs(spec) -> dict:
    return dict(starts=spec.starts, prop=spec.prop, scheduler=spec.scheduler)


@requires_numpy
class TestSolverDifferential:
    """vector == packed == object on every solver tally, everywhere."""

    @pytest.mark.parametrize("name", _solver_scenario_names())
    def test_registered_scenarios_first_chunk_identical(self, name: str) -> None:
        spec = get_scenario(name)
        chunk = spec.chunks()[0][:16]
        kwargs = _chunk_kwargs(spec)
        vector = sweep_chunk(
            spec.robots.family, spec.n, chunk, backend="vector", **kwargs
        )
        assert vector == sweep_chunk(
            spec.robots.family, spec.n, chunk, backend="packed", **kwargs
        )
        assert vector == sweep_chunk(
            spec.robots.family, spec.n, chunk, backend="object", **kwargs
        )

    @pytest.mark.parametrize("name", _solver_scenario_names())
    def test_certificate_replay_on_first_chunk(self, name: str) -> None:
        # validate=True routes per-table through the CSR certificate
        # path and replays every emitted lasso through the simulator.
        spec = get_scenario(name)
        chunk = spec.chunks()[0][:6]
        kwargs = _chunk_kwargs(spec)
        vector = sweep_chunk(
            spec.robots.family, spec.n, chunk,
            backend="vector", validate=True, **kwargs,
        )
        assert vector == sweep_chunk(
            spec.robots.family, spec.n, chunk,
            backend="packed", validate=True, **kwargs,
        )

    def test_empty_chunk(self) -> None:
        assert sweep_chunk("two", 4, (), backend="vector") == (0, 0, [], 0)

    @given(
        family=st.sampled_from(["single", "two", "two-m2"]),
        patterns=st.lists(
            st.integers(min_value=0, max_value=2**16 - 1),
            min_size=1,
            max_size=4,
        ),
        scheduler=st.sampled_from(["fsync", "ssync"]),
        prop=st.sampled_from(["perpetual", "live"]),
        starts=st.sampled_from(["well", "arbitrary"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_tables_match_packed(
        self, family, patterns, scheduler, prop, starts
    ) -> None:
        space = family_space(family)
        chunk = tuple(p % space for p in patterns)
        n = 3 if family == "single" else 4
        kwargs = dict(starts=starts, prop=prop, scheduler=scheduler)
        assert sweep_chunk(
            family, n, chunk, backend="vector", **kwargs
        ) == sweep_chunk(family, n, chunk, backend="packed", **kwargs)


@requires_numpy
class TestCertificateEquality:
    """The shared CSR solve phase makes certificates bit-identical."""

    @pytest.mark.parametrize(
        "bits,scheduler,prop",
        [
            (7, "fsync", "perpetual"),
            (91, "ssync", "perpetual"),
            (123, "fsync", "live"),
            (255, "ssync", "live"),
        ],
    )
    def test_vector_matches_packed_and_object(
        self, bits: int, scheduler: str, prop: str
    ) -> None:
        algorithm = family_maker("two")(bits)
        topology = RingTopology(4)
        kwargs = dict(k=2, scheduler=scheduler, prop=prop)
        vec = verify_exploration(
            algorithm, topology, backend="vector", **kwargs
        )
        packed = verify_exploration(
            algorithm, topology, backend="packed", **kwargs
        )
        obj = verify_exploration(
            algorithm, topology, backend="object", **kwargs
        )
        assert vec.explorable == packed.explorable == obj.explorable
        assert vec.certificate == packed.certificate
        assert (vec.states_explored, vec.transitions_explored) == (
            packed.states_explored, packed.transitions_explored
        )
        if vec.certificate is not None:
            validate_certificate(vec.certificate, algorithm)


@requires_numpy
class TestDenseEligibility:
    def test_registered_solver_scenarios_are_dense_eligible(self) -> None:
        # The speedup claim rests on the registered sweeps actually
        # taking the lockstep path; guard it against geometry drift.
        from repro.verification.sweeps import family_plan

        for name in _solver_scenario_names():
            spec = get_scenario(name)
            maker = family_maker(spec.robots.family)
            vector = family_plan(spec.robots.family)[0][0]
            kernel = PackedKernel(
                RingTopology(spec.n),
                maker(0),
                vector,
                scheduler=spec.scheduler,
            )
            assert batch_solver.dense_eligible(kernel), name

    def test_dense_space_is_process_cached(self) -> None:
        maker = family_maker("two")
        from repro.verification.sweeps import family_plan

        vector = family_plan("two")[0][0]
        a = PackedKernel(RingTopology(4), maker(3), vector)
        b = PackedKernel(RingTopology(4), maker(77), vector)
        assert batch_solver.dense_space(a) is batch_solver.dense_space(b)


def _pef3_instance(n: int, scheduler: str, vector: int, towers: bool) -> tuple:
    """``(kernel, seeds)`` of PEF_3+ with k=3 on an n-ring."""
    topology = RingTopology(n)
    kernel = PackedKernel(
        topology, PEF3Plus(), default_chirality_vectors(3)[vector],
        scheduler=scheduler,
    )
    placements = arbitrary_placements(topology, 3) if towers else None
    return kernel, kernel.initial_states(placements)


@functools.lru_cache(maxsize=None)
def _scalar_csr(n: int, scheduler: str, vector: int, towers: bool) -> tuple:
    """``(kernel, seeds, csr)`` with the CSR built by the scalar kernel."""
    kernel, seeds = _pef3_instance(n, scheduler, vector, towers)
    occupied: dict = {}
    graph = kernel.reachable(seeds, occupied_out=occupied)
    return kernel, seeds, _csr_from_packed(graph, occupied, seeds)


# (n, scheduler, chirality-vector index, tower placements): FSYNC on
# both vectors up to n=8; SSYNC and ill-initiated starts at n=5, where
# the scalar reference stays cheap.
_SPARSE_CASES = [
    (n, "fsync", vector, False) for n in (5, 6, 7, 8) for vector in (0, 1)
] + [
    (5, "ssync", 0, False),
    (5, "ssync", 1, False),
    (5, "fsync", 0, True),
    (5, "fsync", 1, True),
    (5, "ssync", 1, True),
]


@requires_numpy
class TestSparseFrontier:
    """The NumPy frontier builds the scalar kernel's CSR, field for field."""

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_matches_scalar_csr(self, case) -> None:
        kernel, seeds, reference = _scalar_csr(*case)
        sparse = _CsrGraph(*batch_solver.reachable_csr(kernel, seeds))
        for field in ("states", "indptr", "labels", "succs", "occ", "seeds"):
            assert getattr(sparse, field) == getattr(reference, field), field

    @pytest.mark.parametrize("bits,scheduler", [(7, "fsync"), (91, "ssync")])
    def test_matches_scalar_csr_on_dense_eligible_instance(
        self, bits: int, scheduler: str
    ) -> None:
        kernel = PackedKernel(
            RingTopology(4), family_maker("two")(bits),
            default_chirality_vectors(2)[1], scheduler=scheduler,
        )
        assert batch_solver.dense_eligible(kernel)
        seeds = kernel.initial_states(arbitrary_placements(RingTopology(4), 2))
        occupied: dict = {}
        graph = kernel.reachable(seeds, occupied_out=occupied)
        reference = _csr_from_packed(graph, occupied, seeds)
        assert _CsrGraph(*batch_solver.reachable_csr(kernel, seeds)) == reference

    def test_no_seeds_give_the_empty_csr(self) -> None:
        kernel, _seeds = _pef3_instance(5, "fsync", 0, False)
        assert kernel.reachable([]) == {}
        assert _CsrGraph(
            *batch_solver.reachable_csr(kernel, [])
        ) == _csr_from_packed({}, {}, [])

    def test_refuses_labels_beyond_int64(self) -> None:
        # 70 edge bits plus one activation bit do not fit an int64 label.
        kernel = PackedKernel(
            RingTopology(70), PEF1(), default_chirality_vectors(1)[0]
        )
        with pytest.raises(VerificationError, match="overflow int64"):
            batch_solver.reachable_csr(kernel, kernel.initial_states())

    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    def test_same_max_states_error(self, scheduler: str) -> None:
        kernel, seeds = _pef3_instance(4, scheduler, 1, False)
        reached = len(batch_solver.reachable_csr(kernel, seeds)[0])
        kernel.max_states = reached  # exactly enough: both paths succeed
        assert len(kernel.reachable(seeds)) == reached
        kernel.max_states = reached - 1
        with pytest.raises(VerificationError) as scalar:
            kernel.reachable(seeds)
        with pytest.raises(VerificationError) as sparse:
            batch_solver.reachable_csr(kernel, seeds)
        assert str(sparse.value) == str(scalar.value)
        assert f"exceeds {reached - 1} states" in str(sparse.value)

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_ring_rotation_is_a_graph_automorphism(self, case) -> None:
        # Node v -> v+1, edge e -> e+1: on a rotation-closed state set,
        # every state's rotated out-transitions (as a multiset) are
        # exactly the rotated state's out-transitions.
        kernel, _seeds, csr = _scalar_csr(*case)
        if not _rotation_closed(kernel, csr.states):
            # Ill-initiated FSYNC starts reach a set that is not closed
            # under rotation; the solve loop then scans every target.
            assert case[3]
            return
        import numpy as np
        base, S, n = kernel._base, kernel.state_count, kernel.n
        states = np.array(csr.states, dtype=np.int64)
        rotated = np.zeros_like(states)
        rest, weight = states.copy(), 1
        for _ in range(kernel.k):
            slot = rest % base
            rest //= base
            node = slot // S
            rotated += (((node + 1) % n) * S + slot % S) * weight
            weight *= base
        rot = np.searchsorted(states, rotated)
        assert (states[rot] == rotated).all()
        labels = np.array(csr.labels, dtype=np.int64)
        succs = np.array(csr.succs, dtype=np.int64)
        src = np.repeat(
            np.arange(states.size), np.diff(np.array(csr.indptr))
        )
        edges = labels & kernel.full_mask
        rot_labels = (labels & ~kernel.full_mask) | (
            ((edges << 1) | (edges >> (kernel.m - 1))) & kernel.full_mask
        )
        width = int(labels.max()) + 1

        def canonical(source, keys):
            order = np.lexsort((keys, source))
            return source[order], keys[order]

        original = canonical(src, succs * width + labels)
        image = canonical(rot[src], rot[succs] * width + rot_labels)
        assert (original[0] == image[0]).all()
        assert (original[1] == image[1]).all()


def _full_target_scan(algorithm, topology, k, scheduler, prop, placements):
    """Reference verdict: every target of every vector, no rotation
    reduction — the solve loop as it ran before targets were reduced."""
    for vector in default_chirality_vectors(k):
        kernel = PackedKernel(topology, algorithm, vector, scheduler=scheduler)
        seeds = kernel.initial_states(placements)
        occupied: dict = {}
        graph = kernel.reachable(seeds, occupied_out=occupied)
        csr = _csr_from_packed(graph, occupied, seeds)
        for target in topology.nodes:
            allowed = None
            if prop == "live":
                allowed = _avoid_reachable_csr(csr, 1 << target)
                if not any(allowed):
                    continue
            win = _winning_scc_csr(kernel, csr, target, allowed)
            if win is not None:
                return _extract_certificate_csr(
                    kernel, vector, csr, target, *win, allowed
                )
    return None


class TestRotationReducedTargets:
    """Checking target 0 alone never changes a verdict or certificate."""

    @pytest.mark.parametrize(
        "algorithm,n,k,scheduler,prop,towers",
        [
            (PEF3Plus(), 5, 3, "fsync", "perpetual", False),
            (PEF3Plus(), 4, 3, "ssync", "perpetual", False),  # trapped
            (PEF3Plus(), 4, 3, "ssync", "perpetual", True),
            (PEF3Plus(), 4, 3, "fsync", "perpetual", True),  # not closed
            (PEF2(), 3, 2, "ssync", "perpetual", False),  # trapped
            (family_maker("two")(7), 4, 2, "fsync", "perpetual", False),
            (family_maker("two")(123), 4, 2, "fsync", "live", False),
            (PEF3Plus(), 4, 3, "ssync", "live", False),
        ],
    )
    def test_matches_full_target_scan(
        self, algorithm, n, k, scheduler, prop, towers
    ) -> None:
        topology = RingTopology(n)
        placements = arbitrary_placements(topology, k) if towers else None
        expected = _full_target_scan(
            algorithm, topology, k, scheduler, prop, placements
        )
        for backend in ("packed", "vector") if HAVE_NUMPY else ("packed",):
            verdict = verify_exploration(
                algorithm, topology, k, backend=backend, prop=prop,
                scheduler=scheduler, placements=placements,
            )
            assert verdict.explorable == (expected is None)
            assert verdict.certificate == expected

    def test_live_traps_starve_a_node_other_than_zero(self) -> None:
        # Seeds pin robot 0 at node 0, so a live trap never starves node
        # 0: reducing live targets to node 0 would wrongly report
        # EXPLORES. The live scan must visit every target.
        kernel, seeds = _pef3_instance(4, "ssync", 0, False)
        assert _rotation_closed(kernel, list(kernel.reachable(seeds)))
        verdict = verify_exploration(
            PEF3Plus(), RingTopology(4), 3, backend="packed", prop="live",
            scheduler="ssync",
        )
        assert not verdict.explorable
        assert verdict.certificate.starved_node != 0

    def test_reduction_fires_on_closed_explorable_ring(self, monkeypatch) -> None:
        scanned: list[int] = []
        original = game._winning_scc_csr

        def recording(kernel, csr, target, allowed=None):
            scanned.append(target)
            return original(kernel, csr, target, allowed)

        monkeypatch.setattr(game, "_winning_scc_csr", recording)
        verdict = verify_exploration(
            PEF3Plus(), RingTopology(6), 3, backend="packed"
        )
        assert verdict.explorable
        assert scanned == [0, 0]  # one target per chirality vector


@requires_numpy
class TestCampaignPortability:
    def test_packed_checkpoint_vector_resume_byte_identical(
        self, tmp_path: Path
    ) -> None:
        spec = make_tiny_scenario()
        reference = CampaignRunner(
            ResultStore(tmp_path / "ref"), backend="vector", jobs=1
        )
        reference.run(spec)
        reference_bytes = reference.store.report_path(spec).read_bytes()

        store = ResultStore(tmp_path / "mixed")
        partial = CampaignRunner(store, backend="packed", jobs=1).run(
            spec, max_chunks=2
        )
        assert not partial.status.complete
        resumed = CampaignRunner(store, backend="vector", jobs=1).run(spec)
        assert resumed.status.complete
        assert resumed.chunks_cached == 2  # the packed chunks held
        assert store.report_path(spec).read_bytes() == reference_bytes


class TestSolverNumpyAbsent:
    """The solver path's no-NumPy contract, forced via monkeypatch (the
    CI no-NumPy leg exercises the real thing)."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(batch, "_np", None)

    def test_auto_resolves_to_packed(self, no_numpy) -> None:
        assert resolve_solver_backend("auto") == "packed"

    def test_auto_chunk_equals_packed_chunk(self, no_numpy) -> None:
        chunk = tuple(range(8))
        assert sweep_chunk("single", 3, chunk, backend="auto") == sweep_chunk(
            "single", 3, chunk, backend="packed"
        )

    def test_explicit_vector_raises_clearly(self, no_numpy) -> None:
        with pytest.raises(VerificationError, match="requires numpy"):
            sweep_chunk("single", 3, (0,), backend="vector")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--algo", "pef1", "--n", "3", "--k", "1",
             "--backend", "vector"],
            ["sweep", "--robots", "1", "--n", "3", "--backend", "vector"],
        ],
    )
    def test_cli_explicit_vector_is_usage_error(
        self, no_numpy, capsys, argv
    ) -> None:
        assert cli_main(argv) == 2
        assert "requires numpy" in capsys.readouterr().err
