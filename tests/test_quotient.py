"""Tests for the robot-permutation quotient of the FSYNC product graph.

``verify_exploration`` builds one state per orbit of same-chirality
robot swaps (FSYNC, rings, default seeds) and weights the counts by
orbit size. These tests hold it to the full graph:

* **the canonicalization rule** — the scalar rule, the NumPy sorting
  networks and the orbit sizes agree with brute force;
* **quotient vs full graph** — for every registered algorithm, verdict,
  starved node and both counts equal the unquotiented graph's (explicit
  default ``placements`` take the full-graph path), the engine graph's
  state count included where it is cheap, and every trap replays;
* **one quotient, three builders** — packed, vector and object build the
  same quotient CSR and take the same exactness decision, including a
  table whose full graph is not closed under the swaps (the counts then
  come from the full graph);
* **the lasso lift** — a trap whose quotient cycle closes on a
  non-identity permutation replays only once the cycle is repeated;
* **the object backend fails fast** past its transition budget.
"""

from __future__ import annotations

import itertools

import pytest

import repro.robots.algorithms  # noqa: F401 - fills the registry
from repro.cli import main
from repro.errors import CertificateError, VerificationError
from repro.graph.topology import RingTopology, canonical_placements
from repro.robots.algorithms import PEF2, PEF3Plus
from repro.robots.algorithms.base import get_algorithm, registry
from repro.verification import batch, game, product
from repro.verification.certificates import TrapCertificate, validate_certificate
from repro.verification.compiled import swap_classes
from repro.verification.game import default_chirality_vectors, verify_exploration
from repro.verification.kernel import PackedKernel
from repro.verification.sweeps import family_maker

HAVE_NUMPY = batch.have_numpy()
requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (vector backend unavailable)"
)
BUILDERS = ("packed", "object") + (("vector",) if HAVE_NUMPY else ())


def _kernel(algorithm, n: int, vector) -> PackedKernel:
    return PackedKernel(RingTopology(n), algorithm, vector)


def _orbit(kernel: PackedKernel, state: int, classes) -> set[int]:
    """Every packed state a permutation within ``classes`` makes."""
    base = kernel._base
    slots = [state // base**i % base for i in range(kernel.k)]
    images = set()
    for perms in itertools.product(
        *(itertools.permutations(group) for group in classes)
    ):
        moved = list(slots)
        for group, perm in zip(classes, perms):
            for robot, source in zip(group, perm):
                moved[robot] = slots[source]
        images.add(sum(slot * base**i for i, slot in enumerate(moved)))
    return images


class TestCanonicalRule:
    def test_swap_classes_pair_same_chirality_robots(self) -> None:
        assert swap_classes(default_chirality_vectors(3)[0]) == ((0, 1, 2),)
        assert swap_classes(default_chirality_vectors(3)[1]) == ((0, 1),)
        assert swap_classes(default_chirality_vectors(4)[2]) == ((0, 1), (2, 3))
        assert swap_classes(default_chirality_vectors(2)[1]) == ()

    @requires_numpy
    @pytest.mark.parametrize("size", range(2, 8))
    def test_networks_sort(self, size: int) -> None:
        # The 0-1 principle: a comparator network that sorts every 0/1
        # input sorts every input.
        from repro.verification.batch_solver import _network

        for bits in itertools.product((0, 1), repeat=size):
            values = list(bits)
            for a, b in _network(size):
                values[a], values[b] = min(values[a], values[b]), max(
                    values[a], values[b]
                )
            assert values == sorted(bits)

    def test_canonical_and_orbit_size_match_brute_force(self) -> None:
        for vector in default_chirality_vectors(4):
            kernel = _kernel(PEF3Plus(), 3, vector)
            classes = swap_classes(vector)
            space = kernel._base ** kernel.k
            for state in range(0, space, 7):
                orbit = _orbit(kernel, state, classes)
                rep = kernel.canonical(state, classes)
                assert rep == min(
                    s for s in orbit if kernel.canonical(s, classes) == s
                )
                assert {kernel.canonical(s, classes) for s in orbit} == {rep}
                assert kernel.orbit_size(rep, classes) == len(orbit)

    @requires_numpy
    def test_vector_rule_matches_scalar(self) -> None:
        import numpy as np

        from repro.verification import batch_solver

        for vector in default_chirality_vectors(5):
            kernel = _kernel(PEF3Plus(), 3, vector)
            classes = swap_classes(vector)
            states = np.arange(0, kernel._base ** kernel.k, 11, dtype=np.int64)
            reps = batch_solver.canonical_states(kernel, states, classes)
            assert reps.tolist() == [kernel.canonical(int(s), classes) for s in states]
            assert batch_solver.orbit_sizes(kernel, reps, classes).tolist() == [
                kernel.orbit_size(int(s), classes) for s in reps
            ]


def _full(algorithm, n: int, k: int, vector):
    """The unquotiented verdict: explicit default placements keep the
    full graph."""
    ring = RingTopology(n)
    return verify_exploration(
        algorithm, ring, k, chirality_vectors=[vector], backend="auto",
        placements=list(canonical_placements(ring, k)),
    )


class TestQuotientMatchesFullGraph:
    @pytest.mark.parametrize("name", sorted(registry))
    def test_every_registered_algorithm(self, name: str) -> None:
        for k in (2, 3):
            for n in (k + 2, k + 3):
                for vector in default_chirality_vectors(k):
                    algorithm = get_algorithm(name)
                    quotient = verify_exploration(
                        algorithm, RingTopology(n), k,
                        chirality_vectors=[vector], backend="auto",
                    )
                    full = _full(algorithm, n, k, vector)
                    assert quotient.explorable == full.explorable
                    assert quotient.states_explored == full.states_explored
                    assert (
                        quotient.transitions_explored
                        == full.transitions_explored
                    )
                    if not quotient.explorable:
                        # Already replayed inside verify; replay again.
                        validate_certificate(quotient.certificate, algorithm)
                        assert (
                            quotient.certificate.starved_node
                            == full.certificate.starved_node
                        )
                    if k == 2:
                        engine = product.ProductSystem(
                            RingTopology(n), algorithm, vector
                        ).reachable()
                        assert len(engine) == quotient.states_explored
                        assert (
                            sum(map(len, engine.values()))
                            == quotient.transitions_explored
                        )


def _built(backend: str, algorithm, n: int, vector):
    return game._build_csr(
        backend, RingTopology(n), algorithm, vector, 2_000_000, None, "fsync",
        True,
    )


def _fields(csr) -> tuple:
    return tuple(
        list(map(int, getattr(csr, field)))
        for field in ("states", "indptr", "labels", "succs", "occ", "seeds")
    )


class TestOneQuotientThreeBuilders:
    @pytest.mark.parametrize(
        "algorithm,n,k",
        [(PEF3Plus(), 4, 3), (PEF2(), 4, 2), (get_algorithm("alternator"), 5, 3)],
        ids=["pef3+", "pef2", "alternator"],
    )
    def test_same_csr_and_decision(self, algorithm, n: int, k: int) -> None:
        for vector in default_chirality_vectors(k):
            built = [_built(b, algorithm, n, vector) for b in BUILDERS]
            (_kernel0, reference, classes), *others = built
            assert classes == swap_classes(vector)
            for _kernel1, csr, other_classes in others:
                assert other_classes == classes
                assert _fields(csr) == _fields(reference)

    def test_unclosed_graph_falls_back_to_the_full_graph(self) -> None:
        # Two memoryless robots of one chirality whose full graph from the
        # pinned seeds misses swapped images of them: orbit sums would
        # overcount, so every builder keeps the full graph.
        algorithm = family_maker("two")(17751)
        vector = default_chirality_vectors(2)[0]
        full = _kernel(algorithm, 4, vector).reachable()
        classes = swap_classes(vector)
        kernel = _kernel(algorithm, 4, vector)
        reps = {kernel.canonical(state, classes) for state in full}
        assert sum(kernel.orbit_size(rep, classes) for rep in reps) > len(full)
        for backend in BUILDERS:
            _kernel1, csr, used = _built(backend, algorithm, 4, vector)
            assert used == ()
            assert len(csr.states) == len(full)
        verdict = verify_exploration(
            algorithm, RingTopology(4), 2, chirality_vectors=[vector]
        )
        assert verdict.states_explored == len(full)

    def test_pinned_seeds_are_their_own_representatives(self) -> None:
        for vector in default_chirality_vectors(4):
            kernel = _kernel(PEF3Plus(), 7, vector)
            classes = swap_classes(vector)
            seeds = set(kernel.initial_states())
            for seed in seeds:
                rep = kernel.canonical(seed, classes)
                assert rep in seeds and rep % kernel._base == seed % kernel._base


def _toy_csr(links, on_numpy: bool):
    """Root 0 and state 1 form a cycle; state 2 loops on itself and
    never reaches the root."""
    fields = dict(
        states=[0, 1, 2], indptr=[0, 1, 2, 3], labels=[0, 0, 0],
        succs=[1, 0, 2], occ=[1, 1, 1], seeds=[0], links=links,
    )
    if on_numpy:
        import numpy as np

        fields = {
            name: value if name == "seeds" else np.array(value, dtype=np.int32)
            for name, value in fields.items()
        }
    return game._CsrGraph(**fields)


class TestExactnessCheck:
    """``_quotient_exact`` needs the pairs that transitions into states
    reaching the root swap to join robot 0 to its whole class: one swap
    that moves robot 0 is not enough in a class of three."""

    def test_swap_links_name_the_joined_pairs(self) -> None:
        kernel = _kernel(PEF3Plus(), 5, default_chirality_vectors(3)[0])
        base = kernel._base
        lift = 1 + 5 * base + 9 * base**2  # robots 0, 1, 2 in slots 1, 5, 9
        assert kernel.swap_links(lift, lift, (0, 1, 2)) == 0
        swapped = 5 + 1 * base + 9 * base**2  # robots 0 and 1 swapped
        assert kernel.swap_links(swapped, lift, (0, 1, 2)) == 1 << (0 * 3 + 1)
        cycled = 9 + 1 * base + 5 * base**2  # 0 -> 1 -> 2 -> 0
        assert kernel.swap_links(cycled, lift, (0, 1, 2)) == (
            1 << 1 | 1 << 2 | 1 << 5
        )

    @pytest.mark.parametrize(
        "on_numpy", [False] + ([True] if HAVE_NUMPY else [])
    )
    def test_orbit_of_robot_zero_must_cover_its_class(self, on_numpy) -> None:
        classes = ((0, 1, 2),)
        one, two = 1 << (0 * 3 + 1), 1 << (1 * 3 + 2)
        far = 1 << (0 * 3 + 2)
        cases = [
            ([0, one, 0], False),  # only robots 0 and 1 ever swap
            ([two, one, 0], True),  # 0-1 and 1-2 join the whole class
            ([0, one, far], False),  # state 2 never reaches the root
        ]
        for links, exact in cases:
            assert game._quotient_exact(_toy_csr(links, on_numpy), classes) is exact
        # Robot 0 without a partner: the pinned seeds are already closed.
        assert game._quotient_exact(_toy_csr([0, 0, 0], on_numpy), ((1, 2),))


class TestLassoLift:
    """``pef2`` on the 4-ring with two same-chirality robots is trapped,
    and its quotient cycle closes on the swap of the two robots."""

    def _quotient_and_lift(self, monkeypatch):
        seen = []
        lift = game._lift_cycle

        def spy(kernel, seed, prefix, cycle):
            lifted = lift(kernel, seed, prefix, cycle)
            seen.append((list(cycle), lifted))
            return lifted

        monkeypatch.setattr(game, "_lift_cycle", spy)
        verdict = verify_exploration(
            PEF2(), RingTopology(4), 2,
            chirality_vectors=[default_chirality_vectors(2)[0]],
        )
        assert not verdict.explorable
        (cycle, lifted), = seen
        return verdict.certificate, cycle, lifted

    def test_cycle_is_repeated_until_the_play_closes(self, monkeypatch) -> None:
        certificate, cycle, lifted = self._quotient_and_lift(monkeypatch)
        repeats, rest = divmod(len(lifted), len(cycle))
        assert rest == 0 and repeats > 1
        assert lifted == cycle * repeats
        assert len(certificate.cycle) == len(lifted)
        validate_certificate(certificate, PEF2())

    def test_one_repetition_short_fails_replay(self, monkeypatch) -> None:
        certificate, cycle, _lifted = self._quotient_and_lift(monkeypatch)
        short = TrapCertificate(
            **{
                **certificate.__dict__,
                "cycle": certificate.cycle[: len(certificate.cycle) - len(cycle)],
            }
        )
        with pytest.raises(CertificateError, match="not periodic"):
            validate_certificate(short, PEF2())

    @requires_numpy
    def test_backends_print_the_same_lifted_trap(self) -> None:
        verdicts = [
            verify_exploration(PEF2(), RingTopology(4), 2, backend=backend)
            for backend in BUILDERS
        ]
        assert all(v.summary() == verdicts[0].summary() for v in verdicts)
        assert all(v.certificate == verdicts[0].certificate for v in verdicts)


class TestObjectTransitionBudget:
    def test_reachable_raises_past_the_budget(self, monkeypatch) -> None:
        monkeypatch.setattr(product, "MAX_TRANSITIONS", 1000)
        system = product.ProductSystem(
            RingTopology(5), PEF3Plus(), default_chirality_vectors(3)[0]
        )
        with pytest.raises(VerificationError, match="backend='vector'"):
            system.reachable()

    def test_verify_exits_2_with_one_line(self, monkeypatch, capsys) -> None:
        monkeypatch.setattr(product, "MAX_TRANSITIONS", 1000)
        argv = ["verify", "--algo", "pef3+", "--n", "5", "--k", "3",
                "--backend", "object"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert "1000 transitions" in lines[0] and "backend='packed'" in lines[0]
