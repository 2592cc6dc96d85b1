"""Tests for the vector *solver* backend (dense NumPy game solving).

Three contracts, mirroring ``test_batch.py``'s simulation-side suite:

* **Differential** — the dense lockstep solver is an execution detail:
  on every registered highly-dynamic scenario's first chunk, and on
  Hypothesis-drawn random tables × schedulers × properties × start
  policies, ``sweep_chunk`` tallies byte-identically under ``vector``,
  ``packed`` and ``object``; ``verify_exploration`` additionally emits
  bit-identical trap certificates and counts under all three (the shared
  canonical-CSR solve phase), all replay-validated.
* **Table stacks** — the shift-and-mask decoder builds, for every
  family, exactly the tables ``maker(bits).packed_tables()`` builds
  (memory-2 patterns above 2^63 included), out-of-domain patterns raise
  the constructor's own error, ``solve_tables`` rejects a malformed
  stack, and explorers found on the lockstep path (two robots on the
  3-ring) are named, ordered and counted as under ``packed``.
* **Registry** — ``auto`` resolves vector → packed by NumPy
  availability on the solver path too, the CLI rejects an explicit
  ``--backend vector`` without NumPy with a usage error (exit 2), and
  the NumPy-absent fallback chunks are byte-identical to ``packed``.
  The whole module must pass with NumPy absent — vector-only tests
  skip.
* **Portability** — a solver campaign checkpointed under ``packed``
  resumes under ``vector`` into a byte-identical report.
* **Sparse frontier and rotation reduction** — ``reachable_csr`` builds
  the scalar kernel's CSR field for field in its narrow dtypes (PEF_3+ up
  to n=8, FSYNC and SSYNC, ill-initiated starts, a dense-eligible
  instance; int64 offsets and successors past the index bound) and
  raises the same ``max_states`` error; so does the object backend's
  engine-stepped graph once packed (rings and chains, k=1..3, FSYNC and
  SSYNC, tower placements), as lists and without NumPy; ring rotation is
  a graph automorphism of every rotation-closed instance; and checking target 0
  alone yields the verdict and certificate of a full all-target scan.
* **Folded steps** — the edge a robot moves through is its view's left
  or right edge (rings and chains, n=3..8, both chiralities), so every
  robot's round table over ``(slot, tower bit, edge bits)`` — the
  compiled one and the NumPy composition of a decoded stack — equals
  the Look–Compute step followed by the landing it replaced
  (``PEF_3+``, ``PEF_2``, a memory-2 and a memoryless two-robot table,
  both chiralities).
* **Solve phase** — the NumPy arena, live-arena and rotation helpers
  equal their plain-Python twins field for field, no verdict (EXPLORES,
  or TRAPPED with the packed backend's certificate) converts a
  full-graph array to a list, the traced peak per transition of a
  vector ``verify`` stays bounded, and the lean Tarjan
  over the deduplicated arena returns exactly the ``(component,
  internal)`` of a reference copy of the full-CSR Tarjan it replaced,
  for every target on both backends.
* **Dense SCC pass** — the arena-local pass returns, target by target
  and with no early drop, exactly the win vectors of a reference copy
  of the full-space pass it replaced: on sampled tables (one-, two- and
  three-word arenas, FSYNC/SSYNC, perpetual/live, well/arbitrary
  starts), on random successor tensors with sparse labels, where
  both winning and losing targets occur, and on a hand-built batch
  whose tables are decided by the self-loop step, by the closure only,
  or lost (an SSYNC self-loop activating one robot falls through to
  the closure). On sampled tables the self-loop step decides some
  tables but not all.
* **Dense expansion** — for every state the lockstep BFS visits, the
  (label, successor) pairs of the dense successor tensor are exactly
  ``PackedKernel.reachable``'s transitions, and the visited set is its
  reached set (single n=3, two and memory-2 two n=4, FSYNC/SSYNC); and
  every (state, padded move, activation column) cell of the dense
  geometry, composed from the kernel's round tables at the space's keys,
  is ``step_packed``'s successor under the label ``move | activation
  bits``, padding repeating each row's first move (single n=3, 4, two
  n=4, 5, memory-2 two n=4, FSYNC/SSYNC, every plan vector).
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_testlib import make_table_spec, make_tiny_scenario
from repro.cli import main as cli_main
from repro.errors import AlgorithmError, VerificationError
from repro.graph.topology import (
    ChainTopology,
    RingTopology,
    Topology,
    arbitrary_placements,
)
from repro.robots.algorithms import (
    PEF1,
    PEF2,
    PEF3Plus,
    get_algorithm,
    registry,
)
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    get_scenario,
    iter_scenarios,
)
from repro.types import Chirality, Direction
from repro.verification import batch, batch_solver, game
from repro.verification.backends import resolve_solver_backend
from repro.verification.certificates import validate_certificate
from repro.verification.compiled import _node_tables, swap_classes
from repro.verification.game import (
    _avoid_reachable_csr,
    _csr_from_packed,
    _CsrGraph,
    _extract_certificate_csr,
    _internal_transitions,
    _packed_from_object,
    _rotation_closed,
    _winning_scc_csr,
    default_chirality_vectors,
    PROPERTIES,
    verify_exploration,
)
from repro.verification.kernel import PackedKernel
from repro.verification.product import ProductSystem
from repro.verification.sweeps import (
    family_k,
    family_maker,
    family_plan,
    family_space,
    family_tables,
    start_placements,
    sweep_chunk,
)

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


@requires_numpy
class TestSolverDifferential:
    """vector == packed == object on every solver tally, everywhere."""

    @pytest.mark.parametrize("name", _solver_scenario_names())
    def test_registered_scenarios_first_chunk_identical(self, name: str) -> None:
        spec = get_scenario(name)
        chunk = spec.chunks()[0][:16]
        vector = sweep_chunk(spec, chunk, backend="vector")
        assert vector == sweep_chunk(spec, chunk, backend="packed")
        assert vector == sweep_chunk(spec, chunk, backend="object")

    @pytest.mark.parametrize("name", _solver_scenario_names())
    def test_certificate_replay_on_first_chunk(self, name: str) -> None:
        # Per table, verify_exploration builds the CSR certificate and
        # replays every emitted lasso through the simulator: the vector
        # and packed verdicts and certificates are identical, and the
        # trapped tables are the ones the chunk's tally counts.
        spec = get_scenario(name)
        chunk = spec.chunks()[0][:6]
        family = spec.robots.family
        topology = RingTopology(spec.n)
        vectors = [vector for stage in family_plan(family) for vector in stage]
        trapped = 0
        for bits in chunk:
            verdicts = [
                verify_exploration(
                    family_maker(family)(bits), topology, k=family_k(family),
                    chirality_vectors=vectors, backend=backend,
                    placements=start_placements(
                        spec.starts, topology, family_k(family)
                    ),
                    prop=spec.prop, scheduler=spec.scheduler,
                )
                for backend in ("vector", "packed")
            ]
            assert verdicts[0].certificate == verdicts[1].certificate
            assert verdicts[0].explorable == verdicts[1].explorable
            trapped += not verdicts[0].explorable
        assert trapped == sweep_chunk(spec, chunk, backend="packed")[1]

    def test_empty_chunk(self) -> None:
        spec = make_table_spec("two", 4)
        assert sweep_chunk(spec, (), backend="vector") == (0, 0, [], 0)

    @pytest.mark.parametrize(
        "prop,names",
        [
            ("perpetual", ["memoryless:ed06", "memoryless:45ae"]),
            (
                "live",
                ["memoryless:ed04", "memoryless:ed06", "memoryless:45ae"],
            ),
        ],
    )
    def test_explorer_bookkeeping_matches_packed(self, prop, names) -> None:
        # Two robots explore the 3-ring, so the lockstep path has
        # survivors of both chirality stages to name; 0x45ae sits after
        # 0xed06's block, so the names must come back in input order.
        chunk = tuple(range(0xECF8, 0xED08)) + (0x45AE, 0x0003)
        spec = make_table_spec("two", 3, prop=prop)
        vector = sweep_chunk(spec, chunk, backend="vector")
        assert vector == sweep_chunk(spec, chunk, backend="packed")
        assert vector[2] == names

    def test_memory2_top_bit_patterns_match_packed(self) -> None:
        # Memory-2 patterns fill all 64 bits: the decoder's uint64
        # shifts must read the top digit the constructor reads.
        draw = random.Random(63)
        chunk = (2**64 - 1, 2**63) + tuple(
            draw.randrange(2**63, 2**64) for _ in range(14)
        )
        spec = make_table_spec("two-m2", 4)
        assert sweep_chunk(spec, chunk, backend="vector") == sweep_chunk(
            spec, chunk, backend="packed"
        )

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
        spec = make_table_spec(
            family, n, starts=starts, prop=prop, scheduler=scheduler
        )
        assert sweep_chunk(spec, chunk, backend="vector") == sweep_chunk(
            spec, chunk, backend="packed"
        )


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
        assert vec.certificate == packed.certificate == obj.certificate
        counts = {
            (verdict.states_explored, verdict.transitions_explored)
            for verdict in (vec, packed, obj)
        }
        assert len(counts) == 1
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

    @pytest.mark.parametrize(
        "family,n,chunk,prop",
        [
            ("two", 4, tuple(range(0, 2**16, 4099)), "perpetual"),
            ("two", 3, tuple(range(0xECF8, 0xED08)) + (0x45AE, 3), "perpetual"),
            ("two", 3, tuple(range(0xECF8, 0xED08)) + (0x45AE, 3), "live"),
        ],
    )
    def test_ineligible_instance_takes_the_per_table_solver(
        self, monkeypatch, family, n, chunk, prop
    ) -> None:
        # An instance past the dense bound is solved table by table on
        # the vector frontier, even without validation.
        spec = make_table_spec(family, n, prop=prop)
        packed = sweep_chunk(spec, chunk, backend="packed")
        monkeypatch.setattr(batch_solver, "MAX_DENSE_STATES", 1)

        def no_dense_solve(*args, **kwargs):
            raise AssertionError("the dense solver ran")

        monkeypatch.setattr(batch_solver, "solve_tables", no_dense_solve)
        assert sweep_chunk(spec, chunk, backend="vector") == packed

    def test_dense_space_is_process_cached(self) -> None:
        maker = family_maker("two")
        from repro.verification.sweeps import family_plan

        vector = family_plan("two")[0][0]
        a = PackedKernel(RingTopology(4), maker(3), vector)
        b = PackedKernel(RingTopology(4), maker(77), vector)
        assert batch_solver.dense_space(a) is batch_solver.dense_space(b)


@requires_numpy
class TestTableStacks:
    """Bit patterns decode to exactly the tables their constructors build."""

    @pytest.mark.parametrize("family", ["single", "two", "two-m2"])
    def test_decoder_matches_constructor(self, family: str) -> None:
        space = family_space(family)
        draw = random.Random(space % 1000)
        patterns = [0, space - 1] + [draw.randrange(space) for _ in range(200)]
        if family == "two-m2":
            patterns += [2**63, 2**63 + 1, 2**64 - 1] + [
                draw.randrange(2**63, 2**64) for _ in range(50)
            ]
        stack = family_tables(family, patterns)
        maker = family_maker(family)
        assert stack.dtype.name == "int64"
        assert stack.tolist() == [
            list(maker(bits).packed_tables()[1]) for bits in patterns
        ]

    @pytest.mark.parametrize("family", ["single", "two", "two-m2"])
    def test_out_of_domain_patterns_raise_constructor_error(
        self, family: str
    ) -> None:
        space = family_space(family)
        for bad in (-1, space):
            with pytest.raises(AlgorithmError) as caught:
                family_tables(family, [0, bad])
            with pytest.raises(AlgorithmError) as expected:
                family_maker(family)(bad)
            assert str(caught.value) == str(expected.value)

    def test_solve_tables_rejects_malformed_stacks(self) -> None:
        kernel = PackedKernel(
            RingTopology(4), family_maker("two")(0), family_plan("two")[0][0]
        )
        seeds = kernel.initial_states()
        stack = family_tables("two", [1, 2, 3])
        hit, _reached = batch_solver.solve_tables(
            kernel, stack, seeds, "perpetual"
        )
        assert len(hit) == 3
        with pytest.raises(VerificationError, match="not \\(B, 16\\)"):
            batch_solver.solve_tables(
                kernel, family_tables("two-m2", [5]), seeds, "perpetual"
            )
        with pytest.raises(VerificationError, match="not \\(B, 16\\)"):
            batch_solver.solve_tables(kernel, stack[0], seeds, "perpetual")
        stack[1, 7] = 2
        with pytest.raises(VerificationError, match="outside 0..1"):
            batch_solver.solve_tables(kernel, stack, seeds, "perpetual")
        stack[1, 7] = -1
        with pytest.raises(VerificationError, match="outside 0..1"):
            batch_solver.solve_tables(kernel, stack, seeds, "perpetual")


def _reference_target_view(sp, target: int) -> tuple:
    """``DenseSpace.target_view`` as it was before the arena-local pass.

    A verbatim copy of the method body (``self`` → ``sp``): the
    full-space avoid flags and bit-row mask the reference pass needs.
    """
    np = batch.require_numpy()
    avoid = ((sp.occ >> target) & 1) == 0
    sel = np.nonzero(avoid)[0]
    avoid_mask = np.zeros(sp.words, dtype=np.uint64)
    for s in sel.tolist():
        avoid_mask[s // 64] |= np.uint64(1 << (s % 64))
    eye_sel = np.eye(sel.size, dtype=np.uint8)
    return (avoid, avoid_mask, sel, sp.labels[sel], eye_sel)


class _ReferenceSpace:
    """A dense space as the reference pass sees it.

    ``target_view`` is the old one. With ``target`` set, the space
    passes for a one-node ring whose node is ``target``: the reference
    loops over ``range(sp.n)``, so its trapped flags are then that
    target's win vector, with no early drop.
    """

    def __init__(self, sp, target=None) -> None:
        self._sp = sp
        self._target = target
        self.n = sp.n if target is None else 1

    def __getattr__(self, name: str):
        return getattr(self._sp, name)

    def target_view(self, target: int) -> tuple:
        if self._target is not None:
            target = self._target
        return _reference_target_view(self._sp, target)


def _reference_solve(sp, succ, adj_full, visited, vis_mask, seeds, prop):
    """The full-space winning-SCC pass the arena-local one replaced.

    A verbatim copy kept as an independent oracle: its closure spans all
    ``P`` product states in ``⌈P/64⌉`` words, SCC ids come from
    ``argmax`` over the mutual matrix, internal transitions from
    component-id gathers, and the component unions from a per-root loop.
    """
    _BITS = 64
    _unpack = batch_solver._unpack
    np = batch.require_numpy()
    batch_size = succ.shape[0]
    budget = 1 if sp.topology.is_ring else 0
    ssync = sp.scheduler == "ssync"
    seed_idx = np.array(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    trapped = np.zeros(batch_size, dtype=bool)
    undecided = np.arange(batch_size)
    for target in range(sp.n):
        if undecided.size == 0:
            break
        avoid, avoid_mask, sel, labels_sel, eye_sel = sp.target_view(target)
        count = undecided.size
        if count == batch_size:
            vis_u, mask_u, adj_u, succ_u = visited, vis_mask, adj_full, succ
        else:
            vis_u = visited[undecided]
            mask_u = vis_mask[undecided]
            adj_u = adj_full[undecided]
            succ_u = succ[undecided]
        arena = vis_u & avoid[None, :]
        arena_mask = mask_u & avoid_mask[None, :]
        reach = np.where(
            arena[:, :, None],
            adj_u & arena_mask[:, None, :],
            np.uint64(0),
        )
        vias = sel[arena.any(axis=0)[sel]].tolist()
        if sp.words == 1:
            flat = reach[:, :, 0]
            for via in vias:
                hot = (flat >> np.uint64(via)) & np.uint64(1)
                flat |= np.where(hot, flat[:, via][:, None], np.uint64(0))
        else:
            for via in vias:
                has = reach[:, :, via // _BITS] >> np.uint64(via % _BITS)
                reach |= np.where(
                    (has & np.uint64(1)).astype(bool)[:, :, None],
                    reach[:, via, :][:, None, :],
                    np.uint64(0),
                )
        if prop == "live":
            seed_ok = arena[:, seed_idx]
            rows = np.bitwise_or.reduce(
                np.where(seed_ok[:, :, None], reach[:, seed_idx, :], 0),
                axis=1,
            )
            member = _unpack(rows, sp.space)
            member[:, seed_idx] |= seed_ok
            member &= arena
        else:
            member = arena
        forward = _unpack(reach[:, sel, :], sp.space, as_bool=False)[:, :, sel]
        mutual = forward & forward.transpose(0, 2, 1)
        mutual |= eye_sel
        csrc = np.argmax(mutual, axis=2).astype(np.int16)
        comp = np.full((count, sp.space), -1, dtype=np.int16)
        comp[:, sel] = csrc
        sub = succ_u[:, sel]
        uidx = np.arange(count)[:, None, None]
        msrc = member[:, sel]
        mcomp = np.where(member, comp, np.int16(-1))
        mcsrc = np.where(msrc, csrc, np.int16(-2))
        internal = mcsrc[:, :, None] == mcomp[uidx, sub]
        state_union = np.bitwise_or.reduce(
            np.where(internal, labels_sel[None], 0), axis=2
        )
        has_internal = internal.any(axis=2)
        win = np.zeros(count, dtype=bool)
        for root in range(sel.size):
            members = (csrc == root) & msrc
            if not members.any():
                continue
            union = np.bitwise_or.reduce(
                np.where(members, state_union, 0), axis=1
            )
            ok = (members & has_internal).any(axis=1)
            ok &= sp.pop[(~union) & sp.full_mask] <= budget
            if ssync:
                ok &= (union >> sp.act_shift) == sp.full_act
            win |= ok
        trapped[undecided[win]] = True
        undecided = undecided[~win]
    return trapped


def _closure_rows(monkeypatch) -> list:
    """Spy on the closure fallback of ``_target_wins``: rows per call."""
    calls = []
    closure = batch_solver._closure_wins

    def spy(sp, loc, *args):
        calls.append(loc.shape[0])
        return closure(sp, loc, *args)

    monkeypatch.setattr(batch_solver, "_closure_wins", spy)
    return calls


def _dense_batch(family, n, scheduler, starts, count, rng_seed):
    """``(sp, succ, visited, seeds)`` for a seeded sample of a family."""
    draw = random.Random(rng_seed)
    space = family_space(family)
    trans = family_tables(
        family, [draw.randrange(space) for _ in range(count)]
    )
    topology = RingTopology(n)
    kernel = PackedKernel(
        topology,
        family_maker(family)(0),
        family_plan(family)[0][0],
        scheduler=scheduler,
    )
    seeds = kernel.initial_states(
        start_placements(starts, topology, family_k(family))
    )
    sp = batch_solver.dense_space(kernel)
    succ = batch_solver._expand(sp, trans)
    visited = batch_solver._reachable(
        sp, batch_solver._adjacency(sp, succ), seeds
    )
    return sp, succ, visited, seeds


# (family, n, scheduler, prop, starts, tables): single- and multi-word
# arenas — L = 4 (single n=3), 36 / 64 / 100 (two n=4/5/6: 1, 1, 2
# words) and 144 (two-m2 n=4: 3 words).
_ARENA_CASES = [
    ("single", 3, "fsync", "perpetual", "well", 64),
    ("single", 3, "ssync", "live", "arbitrary", 64),
    ("two", 4, "fsync", "perpetual", "arbitrary", 48),
    ("two", 4, "ssync", "live", "well", 48),
    ("two", 4, "fsync", "live", "arbitrary", 48),
    ("two", 5, "fsync", "perpetual", "well", 32),
    ("two", 5, "ssync", "perpetual", "arbitrary", 24),
    ("two", 5, "fsync", "live", "well", 32),
    ("two", 5, "ssync", "live", "arbitrary", 24),
    ("two", 6, "fsync", "live", "well", 16),
    ("two", 6, "ssync", "perpetual", "arbitrary", 12),
    ("two-m2", 4, "fsync", "perpetual", "well", 12),
    ("two-m2", 4, "ssync", "live", "arbitrary", 8),
]


@requires_numpy
class TestArenaLocalScc:
    """The arena-local SCC pass equals the full-space one it replaced.

    Per target, with no early drop, the win vectors of
    ``batch_solver._target_wins`` must be exactly those of a verbatim
    copy of the old full-space pass; and ``_solve`` with its early drop
    must trap exactly the tables the old one trapped.
    """

    @pytest.mark.parametrize(
        "family,n,scheduler,prop,starts,count", _ARENA_CASES
    )
    def test_per_target_wins_match_reference(
        self, family, n, scheduler, prop, starts, count
    ) -> None:
        np = batch.require_numpy()
        sp, succ, visited, seeds = _dense_batch(
            family, n, scheduler, starts, count, rng_seed=n * 31 + count
        )
        adj_full = batch_solver._adjacency(sp, succ)
        vis_mask = batch_solver._pack(visited, sp.words)
        seed_idx = np.array(sorted(set(seeds)), dtype=np.int64)
        wins = []
        for target in range(n):
            expected = _reference_solve(
                _ReferenceSpace(sp, target), succ, adj_full, visited, vis_mask,
                seeds, prop,
            )
            got = batch_solver._target_wins(
                sp, succ, visited, seed_idx, target, prop
            )
            assert got.dtype == bool and got.shape == (count,)
            assert got.tolist() == expected.tolist(), target
            wins.append(got)
        trapped = batch_solver._solve(sp, succ, visited, seeds, prop)
        assert trapped.tolist() == _reference_solve(
            _ReferenceSpace(sp), succ, adj_full, visited, vis_mask, seeds, prop
        ).tolist()
        wins = np.stack(wins)
        assert wins.any(), "no target wins: the case is vacuous"
        if prop == "live":
            # Some (table, target) pairs lose, so the parity compares
            # both outcomes, not all-True vectors.
            assert not wins.all()

    @pytest.mark.parametrize(
        "family,n,scheduler,prop",
        [
            ("single", 3, "fsync", "live"),
            ("two", 4, "fsync", "perpetual"),
            ("two", 5, "ssync", "live"),
            ("two", 5, "fsync", "perpetual"),
            ("two", 6, "fsync", "live"),
            ("two-m2", 4, "ssync", "perpetual"),
        ],
    )
    def test_random_graphs_match_reference(
        self, family, n, scheduler, prop
    ) -> None:
        # Every sampled table is trapped at every target under
        # "perpetual", so real tables never exercise a losing SCC. Random
        # successor tensors over the same geometry, with sparse random
        # labels, do: small SCCs whose own labels miss edges, unions only
        # their component covers, acyclic arena states.
        np = batch.require_numpy()
        rng = np.random.default_rng(n * 7 + len(family))
        sp = copy.copy(_dense_batch(family, n, scheduler, "well", 1, 0)[0])
        sp._target_cache = {}
        count, space, branch = 48, sp.space, sp.branch
        edges = rng.random((space, branch, sp.m)) < 0.3 / branch
        labels = edges @ (1 << np.arange(sp.m))
        if scheduler == "ssync":
            # Mostly robot 0 alone, so some unions miss an activation.
            acts = np.where(
                rng.random((space, branch)) < 0.97,
                1,
                rng.integers(1, sp.full_act + 1, (space, branch)),
            )
            labels |= acts << sp.act_shift
        sp.labels = labels.astype(sp.labels.dtype)
        # One to three nearby successors per state, mostly forward.
        offsets = rng.integers(-1, 9, (count, space, 3))
        near = (np.arange(space)[:, None] + offsets) % space
        fan = rng.integers(1, 4, (count, space, 1))
        pick = rng.integers(0, 3, (count, space, branch)) % fan
        succ = np.take_along_axis(near, pick, axis=2)
        seeds = sorted(set(rng.integers(0, space, 4).tolist()))
        adj_full = batch_solver._adjacency(sp, succ)
        visited = batch_solver._reachable(sp, adj_full, seeds)
        vis_mask = batch_solver._pack(visited, sp.words)
        seed_idx = np.array(seeds, dtype=np.int64)
        wins = []
        for target in range(n):
            expected = _reference_solve(
                _ReferenceSpace(sp, target), succ, adj_full, visited,
                vis_mask, seeds, prop,
            )
            got = batch_solver._target_wins(
                sp, succ, visited, seed_idx, target, prop
            )
            assert got.tolist() == expected.tolist(), target
            wins.append(got)
        wins = np.stack(wins)
        assert wins.any() and not wins.all()

    @pytest.mark.parametrize(
        "family,n,words", [("two", 5, 1), ("two", 6, 2), ("two-m2", 4, 3)]
    )
    def test_arena_word_counts(self, family, n, words) -> None:
        # The pass's bit-rows span a target's L avoiding states, not the
        # whole space: two memoryless robots need one word at n=5 (P=100
        # would need two), two at n=6 (not three), memory-2 tables three
        # at n=4 (not four).
        np = batch.require_numpy()
        sp = _dense_batch(family, n, "fsync", "well", 1, rng_seed=0)[0]
        assert sp.words == words + 1
        for target in range(n):
            sel, local, labels_sel = sp.target_view(target)
            size = sel.size
            assert batch_solver._word_count(size) == words
            assert labels_sel.shape[0] == size
            # Avoiding states get the ids 0..L-1 in order; the others
            # all map to the sentinel L.
            assert local[sel].tolist() == list(range(size))
            occupied = ((sp.occ >> target) & 1) == 1
            assert (local[occupied] == size).all()

    def test_pack_inverts_unpack(self) -> None:
        np = batch.require_numpy()
        flags = np.random.default_rng(3).random((4, 7, 130)) < 0.3
        rows = batch_solver._pack(flags, 3)
        assert rows.shape == (4, 7, 3) and rows.dtype == np.uint64
        assert (batch_solver._unpack(rows, 130) == flags).all()
        # The words are values, whatever their byte order in memory.
        swapped = rows.astype(">u8")
        assert (batch_solver._unpack(swapped, 130) == flags).all()

    @pytest.mark.parametrize("prop", ["perpetual", "live"])
    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    def test_self_loop_prefilter_matches_reference(
        self, scheduler, prop, monkeypatch
    ) -> None:
        # One batch mixes the outcomes the self-loop step must tell apart,
        # all seeded at arena state s: (a) s has a self-loop whose labels
        # alone cover the ring — decided without the closure; (b) no
        # self-loop, but the 2-cycle s ⇄ t covers it — decided by the
        # closure only; (c) a 2-cycle missing two edges — lost, though
        # state u, which s never reaches, has a covering self-loop; (d,
        # SSYNC) a self-loop covering every edge but activating robot 0
        # alone — it must fall through to the closure, and loses there.
        # Every other transition leads to z, which occupies target 0.
        np = batch.require_numpy()
        sp = copy.copy(_dense_batch("two", 4, scheduler, "well", 1, 0)[0])
        s, t, u = sp.target_view(0)[0][:3].tolist()
        z = int(np.flatnonzero(sp.occ & 1)[0])
        acts = sp.full_act << sp.act_shift if scheduler == "ssync" else 0
        labels = np.zeros_like(sp.labels)
        labels[s, 0] = labels[u, 0] = sp.full_mask | acts
        labels[s, 1] = (sp.full_mask & ~0b11) | acts
        labels[t, 0] = 0b11 | acts
        labels[s, 2] = sp.full_mask | (1 << sp.act_shift)
        sp.labels = labels
        sp._target_cache = {}
        kinds = 4 if scheduler == "ssync" else 3
        succ = np.full((kinds, sp.space, sp.branch), z)
        succ[0, s, 0] = s
        succ[1, s, 1], succ[1, t, 0] = t, s
        succ[2, s, 1], succ[2, t, 1], succ[2, u, 0] = t, s, u
        if scheduler == "ssync":
            succ[3, s, 2] = s
        seeds = [s]
        adj_full = batch_solver._adjacency(sp, succ)
        visited = batch_solver._reachable(sp, adj_full, seeds)
        vis_mask = batch_solver._pack(visited, sp.words)
        seed_idx = np.array(seeds, dtype=np.int64)
        for target in range(sp.n):
            expected = _reference_solve(
                _ReferenceSpace(sp, target), succ, adj_full, visited,
                vis_mask, seeds, prop,
            )
            got = batch_solver._target_wins(
                sp, succ, visited, seed_idx, target, prop
            )
            assert got.tolist() == expected.tolist(), target
        assert batch_solver._solve(
            sp, succ, visited, seeds, prop
        ).tolist() == _reference_solve(
            _ReferenceSpace(sp), succ, adj_full, visited, vis_mask, seeds, prop
        ).tolist()
        calls = _closure_rows(monkeypatch)
        outcomes = []
        for table in range(kinds):
            calls.clear()
            won = batch_solver._target_wins(
                sp, succ[table : table + 1], visited[table : table + 1],
                seed_idx, 0, prop,
            )
            outcomes.append((bool(won[0]), bool(calls)))
        # (won at target 0, went through the closure): live membership
        # needs the closure rows, so live never skips it.
        closure = prop == "live"
        assert outcomes == [(True, closure), (True, True), (False, True)] + [
            (False, True)
        ] * (kinds - 3)

    @pytest.mark.parametrize(
        "family,n,starts",
        [
            ("single", 3, "arbitrary"),
            ("two", 4, "well"),
            ("two", 4, "arbitrary"),
        ],
    )
    def test_self_loop_step_decides_some_real_tables(
        self, family, n, starts, monkeypatch
    ) -> None:
        # On sampled FSYNC tables the self-loop step decides most tables
        # at target 0 but not all, so both branches run on real input.
        np = batch.require_numpy()
        count = 64
        sp, succ, visited, seeds = _dense_batch(
            family, n, "fsync", starts, count, rng_seed=n * 13
        )
        adj_full = batch_solver._adjacency(sp, succ)
        vis_mask = batch_solver._pack(visited, sp.words)
        expected = _reference_solve(
            _ReferenceSpace(sp, 0), succ, adj_full, visited, vis_mask,
            seeds, "perpetual",
        )
        calls = _closure_rows(monkeypatch)
        got = batch_solver._target_wins(
            sp, succ, visited, np.array(sorted(set(seeds))), 0, "perpetual"
        )
        assert got.tolist() == expected.tolist()
        assert len(calls) == 1 and 0 < calls[0] < count, calls


@requires_numpy
class TestDenseExpansion:
    """The dense successor tensor against the scalar kernel's graph.

    For every state the lockstep BFS visits, the set of (label,
    successor) pairs ``_expand`` gives it must be exactly the transition
    list ``PackedKernel.reachable`` builds for that state, table by table
    — and the visited set must be the kernel's reached set.
    """

    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    @pytest.mark.parametrize(
        "family,n", [("single", 3), ("two", 4), ("two-m2", 4)]
    )
    def test_transitions_match_packed_kernel(
        self, family, n, scheduler
    ) -> None:
        np = batch.require_numpy()
        space = family_space(family)
        draw = random.Random(space % 997 + n)
        patterns = [0, space - 1] + [draw.randrange(space) for _ in range(6)]
        topology = RingTopology(n)
        maker = family_maker(family)
        vector = family_plan(family)[0][0]
        placements = start_placements("arbitrary", topology, family_k(family))
        probe = PackedKernel(topology, maker(0), vector, scheduler=scheduler)
        seeds = probe.initial_states(placements)
        sp = batch_solver.dense_space(probe)
        succ = batch_solver._expand(sp, family_tables(family, patterns))
        assert succ.shape == (len(patterns), sp.space, sp.branch)
        visited = batch_solver._reachable(
            sp, batch_solver._adjacency(sp, succ), seeds
        )
        for table, bits in enumerate(patterns):
            kernel = PackedKernel(
                topology, maker(bits), vector, scheduler=scheduler
            )
            assert kernel.initial_states(placements) == seeds
            graph = kernel.reachable(seeds)
            assert np.flatnonzero(visited[table]).tolist() == sorted(graph)
            for state, out in graph.items():
                dense = zip(
                    sp.labels[state].tolist(), succ[table, state].tolist()
                )
                assert set(dense) == set(out), (bits, state)

    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    @pytest.mark.parametrize(
        "family,n",
        [("single", 3), ("single", 4), ("two", 4), ("two", 5), ("two-m2", 4)],
    )
    def test_geometry_steps_like_the_kernel(self, family, n, scheduler) -> None:
        # Every (state, padded move, activation column) cell: the robots'
        # round tables read at the space's keys, idle robots put back on
        # their slots, compose the kernel's own step; the cell's label is
        # the move with the column's activation bits; and a row padded
        # past its occupancy's moves repeats the first one.
        topology = RingTopology(n)
        maker = family_maker(family)
        bits = random.Random(n).randrange(family_space(family))
        for vector in itertools.chain.from_iterable(family_plan(family)):
            kernel = PackedKernel(
                topology, maker(bits), vector, scheduler=scheduler
            )
            sp = batch_solver.dense_space(kernel)
            keys = [key.tolist() for key, _weight, _idle in sp.robots]
            labels = sp.labels.tolist()
            weights = [sp.base**i for i in range(sp.k)]
            columns = kernel.activations
            width = sp.branch // len(columns)
            longest = 0
            for state in range(sp.space):
                occupied = kernel.occupied_mask(state)
                assert sp.occ[state] == occupied
                moves = kernel.moves_for_occupied(occupied)
                longest = max(longest, len(moves))
                padded = moves + (moves[0],) * (width - len(moves))
                slots = [state // weight % sp.base for weight in weights]
                for j, move in enumerate(padded):
                    active = [
                        table[key[state][j]]
                        for table, key in zip(kernel.round_tables, keys)
                    ]
                    for c, (act, act_bits) in enumerate(columns):
                        successor = sum(
                            (active[i] if act >> i & 1 else slots[i]) * weight
                            for i, weight in enumerate(weights)
                        )
                        assert successor == kernel.step_packed(
                            state, move, act
                        ), (vector, state, move, act)
                        assert labels[state][j * len(columns) + c] == (
                            move | act_bits
                        )
            assert longest == width


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


def _narrowest_int(bits: int) -> str:
    """The narrowest signed integer dtype name holding ``bits`` bits."""
    return next(f"int{width}" for width in (8, 16, 32, 64) if bits < width)


def _assert_csr_fields(sparse, reference: _CsrGraph, kernel=None) -> None:
    """A CSR built another way equals a list-built one, value for value.

    ``reachable_csr``'s tuple (built on ``kernel``) must hold ``states``
    as int64; ``indptr`` and ``succs`` as int32 — int64 once the
    transition or state count reaches ``batch_solver._INDEX_BOUND``; and
    ``labels``/``occ`` in the narrowest signed dtype holding the label
    bits (edges, then SSYNC activations) / one bit per node. A
    :class:`_CsrGraph` canonicalized from the object backend's graph must
    hold every field as a list. The seed indices are a list either way.
    """
    if isinstance(sparse, _CsrGraph):
        for field in ("states", "indptr", "labels", "succs", "occ", "seeds"):
            value = getattr(sparse, field)
            assert isinstance(value, list), field
            assert value == getattr(reference, field), field
        return
    *arrays, seeds = sparse
    bound = batch_solver._INDEX_BOUND
    label_bits = kernel.m
    if kernel.scheduler == "ssync":
        label_bits = kernel.act_shift + kernel.k
    dtypes = {
        "states": "int64",
        "indptr": "int32" if len(reference.labels) < bound else "int64",
        "labels": _narrowest_int(label_bits),
        "succs": "int32" if len(reference.states) < bound else "int64",
        "occ": _narrowest_int(kernel.n),
    }
    for field, array in zip(dtypes, arrays):
        assert array.dtype.name == dtypes[field], field
        assert array.tolist() == getattr(reference, field), field
    assert seeds == reference.seeds


# (topology, algorithm, k, scheduler, tower placements): small instances
# whose object graph, stepped by the engine, stays cheap to build.
_OBJECT_CASES = [
    (RingTopology(4), "pef1", 1, "fsync", False),
    (RingTopology(5), "single:27", 1, "ssync", True),
    (ChainTopology(4), "single:180", 1, "fsync", True),
    (RingTopology(4), "two:91", 2, "ssync", False),
    (RingTopology(4), "two:7", 2, "fsync", True),
    (ChainTopology(4), "pef2", 2, "fsync", False),
    (ChainTopology(4), "two:123", 2, "ssync", True),
    (RingTopology(4), "pef3+", 3, "fsync", True),
]


# (topology, algorithm, k, scheduler, tower placements, quotient): every
# builder on FSYNC and SSYNC graphs, from tower placements and as
# robot-permutation quotients.
_MERGE_CASES = [
    (RingTopology(4), "pef3+", 3, "fsync", False, True),
    (RingTopology(4), "pef2", 2, "fsync", False, True),
    (RingTopology(4), "pef2", 2, "ssync", False, False),
    (RingTopology(4), "two:91", 2, "ssync", True, False),
    (RingTopology(4), "two:7", 2, "fsync", True, False),
    (ChainTopology(4), "pef2", 2, "fsync", False, False),
]


class TestMergedRows:
    """Every builder emits one CSR entry per distinct (state, successor)
    pair, and the counts still cover every move."""

    @pytest.mark.parametrize(
        "topology,name,k,scheduler,towers,quotient", _MERGE_CASES,
        ids=lambda value: repr(value) if isinstance(value, Topology) else None,
    )
    def test_rows_merge_the_kernel_moves(
        self, topology, name, k, scheduler, towers, quotient
    ) -> None:
        # Each row is the first-occurrence dedupe of the kernel's moves
        # of its state (successors canonicalized on a quotient), labels
        # OR-ed per successor; the out-degrees those moves give, times
        # orbit sizes, sum to the full graph's transition count.
        placements = arbitrary_placements(topology, k) if towers else None
        backends = ("packed", "object") + (("vector",) if HAVE_NUMPY else ())
        for vector in default_chirality_vectors(k):
            for backend in backends:
                kernel, csr, classes = game._build_csr(
                    backend, topology, _algorithm(name), vector, 2_000_000,
                    placements, scheduler, quotient,
                )
                assert bool(classes) == (
                    quotient and bool(swap_classes(vector))
                )
                states = [int(state) for state in csr.states]
                index = {state: i for i, state in enumerate(states)}
                indptr, succs, labels = (
                    [int(value) for value in values]
                    for values in (csr.indptr, csr.succs, csr.labels)
                )
                transitions = 0
                for i, state in enumerate(states):
                    occupied = kernel.occupied_mask(state)
                    moves = kernel.moves_for_occupied(occupied)
                    row: dict[int, int] = {}
                    for mask in moves:
                        for act, bits in kernel.activations:
                            succ = kernel.step_packed(state, mask, act)
                            if classes:
                                succ = kernel.canonical(succ, classes)
                            j = index[succ]
                            row[j] = row.get(j, 0) | mask | bits
                    assert succs[indptr[i]:indptr[i + 1]] == list(row)
                    assert labels[indptr[i]:indptr[i + 1]] == list(row.values())
                    transitions += (
                        kernel.orbit_size(state, classes) * len(moves)
                        * len(kernel.activations)
                    )
                graph = kernel.reachable(kernel.initial_states(placements))
                assert transitions == sum(map(len, graph.values()))
                assert game._counts(kernel, csr, classes) == (
                    len(graph), transitions
                )


class TestSparseFrontier:
    """The NumPy frontier, and the object backend's graph once packed,
    build the scalar kernel's CSR, field for field."""

    @requires_numpy
    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_matches_scalar_csr(self, case) -> None:
        kernel, seeds, reference = _scalar_csr(*case)
        _assert_csr_fields(
            batch_solver.reachable_csr(kernel, seeds), reference, kernel
        )

    @pytest.mark.parametrize(
        "topology,name,k,scheduler,towers", _OBJECT_CASES,
        ids=lambda value: repr(value) if isinstance(value, Topology) else None,
    )
    def test_object_graph_packs_to_scalar_csr(
        self, topology, name, k, scheduler, towers
    ) -> None:
        placements = arbitrary_placements(topology, k) if towers else None
        for vector in default_chirality_vectors(k):
            system = ProductSystem(
                topology, _algorithm(name), vector, scheduler=scheduler,
            )
            kernel = PackedKernel(
                topology, _algorithm(name), vector, scheduler=scheduler,
            )
            seeds = system.initial_states(placements)
            packed_seeds = kernel.initial_states(placements)
            occupied: dict = {}
            graph = kernel.reachable(packed_seeds, occupied_out=occupied)
            _assert_csr_fields(
                _csr_from_packed(
                    *_packed_from_object(kernel, system.reachable(seeds), seeds)
                ),
                _csr_from_packed(graph, occupied, packed_seeds),
            )

    @requires_numpy
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
        _assert_csr_fields(
            batch_solver.reachable_csr(kernel, seeds), reference, kernel
        )

    @requires_numpy
    def test_no_seeds_give_the_empty_csr(self) -> None:
        kernel, _seeds = _pef3_instance(5, "fsync", 0, False)
        assert kernel.reachable([]) == {}
        _assert_csr_fields(
            batch_solver.reachable_csr(kernel, []),
            _csr_from_packed({}, {}, []),
            kernel,
        )

    @requires_numpy
    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    def test_int64_index_fallback(self, monkeypatch, scheduler: str) -> None:
        # Past 2^31 transitions (or states) the offsets (successor
        # indices) stay int64; a lowered bound takes that branch on a
        # small graph, and the solve phase runs on it unchanged.
        kernel, seeds, reference = _scalar_csr(5, scheduler, 0, False)
        states = len(reference.states)
        expected = verify_exploration(
            PEF3Plus(), RingTopology(5), 3, backend="packed",
            scheduler=scheduler,
        )
        for bound in (states + 1, states):
            monkeypatch.setattr(batch_solver, "_INDEX_BOUND", bound)
            sparse = batch_solver.reachable_csr(kernel, seeds)
            assert sparse[1].dtype.name == "int64"
            assert sparse[3].dtype.name == (
                "int32" if bound > states else "int64"
            )
            _assert_csr_fields(sparse, reference, kernel)
            verdict = verify_exploration(
                PEF3Plus(), RingTopology(5), 3, backend="vector",
                scheduler=scheduler,
            )
            assert verdict == expected

    @requires_numpy
    def test_refuses_labels_beyond_int64(self) -> None:
        # 70 edge bits plus one activation bit do not fit an int64 label.
        kernel = PackedKernel(
            RingTopology(70), PEF1(), default_chirality_vectors(1)[0]
        )
        with pytest.raises(VerificationError, match="overflow int64"):
            batch_solver.reachable_csr(kernel, kernel.initial_states())

    def test_packed_arena_keeps_wide_labels(self) -> None:
        # Labels of more than 63 bits stay Python ints in the list CSR
        # the packed walk reads: the packed backend answers the 70-ring
        # the frontier refuses.
        kernel = PackedKernel(
            RingTopology(70), PEF1(), default_chirality_vectors(1)[0]
        )
        seeds = kernel.initial_states()
        occupied: dict = {}
        graph = kernel.reachable(seeds, occupied_out=occupied)
        csr = _csr_from_packed(graph, occupied, seeds)
        assert max(csr.rows[2]) >> 63
        verdict = verify_exploration(
            PEF1(), RingTopology(70), 1, backend="packed"
        )
        assert not verdict.explorable and verdict.certificate is not None

    @requires_numpy
    @pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
    def test_refuses_spaces_past_the_id_map(
        self, monkeypatch, scheduler: str
    ) -> None:
        # The frontier's dense id map has one entry per packed state; a
        # space past its bound is refused with a pointer to the packed
        # backend, which still answers the same instance.
        kernel, seeds = _pef3_instance(5, scheduler, 0, False)
        space = kernel._base ** kernel.k
        args = (PEF3Plus(), RingTopology(5), 3)
        monkeypatch.setattr(batch_solver, "_MAP_STATES", space - 1)
        with pytest.raises(VerificationError, match="backend='packed'"):
            batch_solver.reachable_csr(kernel, seeds)
        with pytest.raises(VerificationError, match="backend='packed'"):
            verify_exploration(*args, backend="vector", scheduler=scheduler)
        packed = verify_exploration(*args, backend="packed", scheduler=scheduler)
        monkeypatch.setattr(batch_solver, "_MAP_STATES", space)
        vector = verify_exploration(*args, backend="vector", scheduler=scheduler)
        assert vector == packed

    @requires_numpy
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

    @requires_numpy
    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_ring_rotation_is_a_graph_automorphism(self, case) -> None:
        # Node v -> v+1, edge e -> e+1: on a rotation-closed state set,
        # every state's rotated out-transitions (as a multiset) are
        # exactly the rotated state's out-transitions.
        kernel, _seeds, csr = _scalar_csr(*case)
        if not _rotation_closed(kernel, csr):
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


class TestFoldedSteps:
    """Every robot's round table — the packed machines' and the NumPy
    stacks' alike — is the Look–Compute step composed with the landing
    it replaced."""

    @pytest.mark.parametrize("kind", [RingTopology, ChainTopology])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_move_edge_is_a_view_edge(self, kind, n: int) -> None:
        # What makes the fold possible: the edge a robot moves through
        # in direction d is its view's left (d=0) or right (d=1) edge.
        topology = kind(n)
        for chirality in (Chirality.AGREE, Chirality.DISAGREE):
            left, right = _node_tables(topology, chirality)
            for node in range(n):
                for masks, direction in ((left, Direction.LEFT), (right, Direction.RIGHT)):
                    port = topology.port(node, chirality.to_global(direction))
                    assert masks[node] == (0 if port is None else 1 << port)

    @pytest.mark.parametrize(
        "topology,name,k",
        [
            (RingTopology(6), "pef3+", 3),
            (ChainTopology(5), "pef3+", 3),
            (RingTopology(5), "pef2", 2),
            (ChainTopology(4), "pef2", 2),
            (RingTopology(5), "two-m2", 2),
            (ChainTopology(5), "two-m2", 2),
            (RingTopology(4), "two", 2),
            (ChainTopology(4), "two", 2),
        ],
        ids=repr,
    )
    def test_fold_equals_step_then_landing(self, topology, name, k) -> None:
        bits = None
        if name == "two-m2":
            bits = random.Random(30).getrandbits(64)
        elif name == "two":
            bits = random.Random(30).randrange(family_space(name))
        if bits is None:
            algorithm = get_algorithm(name)
        else:
            algorithm = family_maker(name)(bits)
        chiralities = (Chirality.AGREE, Chirality.DISAGREE, Chirality.AGREE)[:k]
        kernel = PackedKernel(topology, algorithm, chiralities)
        S = kernel.state_count
        trans, dirs = kernel._transitions, kernel._dir_bits
        folds = [kernel.round_tables]
        if bits is not None and batch.have_numpy():
            # The NumPy composition of the family's decoded stack.
            stack = family_tables(name, [bits])
            folds.append([
                batch.round_stack(stack, topology, chirality)[0].tolist()
                for chirality in chiralities
            ])
        for fold in folds:
            assert len(fold) == k
            for table, chirality in zip(fold, chiralities):
                left, right = _node_tables(topology, chirality)
                assert len(table) == kernel._base * 8
                for slot in range(kernel._base):
                    node, state = divmod(slot, S)
                    for view in range(8):
                        # The move whose edge view this is: left, right or
                        # both.
                        move = (left[node] if view & 4 else 0) | (
                            right[node] if view & 2 else 0
                        )
                        new_state = trans[state * 8 + view]
                        direction = (Direction.LEFT, Direction.RIGHT)[
                            dirs[new_state]
                        ]
                        global_dir = chirality.to_global(direction)
                        port = topology.port(node, global_dir)
                        landing = (
                            topology.neighbor(node, global_dir)
                            if port is not None and move >> port & 1
                            else node
                        )
                        assert table[slot * 8 + view] == landing * S + new_state


@requires_numpy
class TestVectorSolvePhase:
    """The vector backend's NumPy solve helpers equal the Python ones,
    and no verdict — EXPLORES, or TRAPPED with its certificate — turns
    the graph into lists."""

    def test_explores_without_converting_the_graph(self, monkeypatch) -> None:
        # The transition arrays are handed to the solve phase as a
        # subclass that refuses to become a Python list (or be iterated)
        # at full size; smaller pieces cut from them pass, and so does
        # the buffer copy into the compact arrays the Python walks read.
        import numpy as np

        build = batch_solver.reachable_csr

        class Guarded(np.ndarray):
            limit = 0

            def tolist(self):
                if self.size >= Guarded.limit:
                    raise AssertionError("full CSR converted to lists")
                return super().tolist()

            def __iter__(self):
                if self.size >= Guarded.limit:
                    raise AssertionError("full CSR iterated in Python")
                return super().__iter__()

        def guarded(kernel, seeds, classes=()):
            states, indptr, labels, succs, occ, seed_idx, *twisted = build(
                kernel, seeds, classes
            )
            Guarded.limit = labels.size
            return (
                states, indptr, labels.view(Guarded), succs.view(Guarded),
                occ, seed_idx, *twisted,
            )

        monkeypatch.setattr(batch_solver, "reachable_csr", guarded)
        for prop in PROPERTIES:
            verdict = verify_exploration(
                PEF3Plus(), RingTopology(6), 3, backend="vector", prop=prop
            )
            assert verdict.explorable
        for algorithm, n, scheduler, prop in (
            (PEF3Plus(), 5, "ssync", "perpetual"),
            (get_algorithm("pef3+-no-turn"), 6, "fsync", "perpetual"),
            (PEF3Plus(), 4, "ssync", "live"),
        ):
            kwargs = dict(scheduler=scheduler, prop=prop)
            verdict = verify_exploration(
                algorithm, RingTopology(n), 3, backend="vector", **kwargs
            )
            packed = verify_exploration(
                algorithm, RingTopology(n), 3, backend="packed", **kwargs
            )
            assert not verdict.explorable and verdict.certificate is not None
            assert verdict.certificate == packed.certificate
            assert verdict == packed

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_numpy_helpers_match_python(self, case) -> None:
        kernel, seeds, reference = _scalar_csr(*case)
        sparse = _CsrGraph(*batch_solver.reachable_csr(kernel, seeds))
        assert sparse.on_numpy and not reference.on_numpy
        assert _rotation_closed(kernel, sparse) == _rotation_closed(
            kernel, reference
        )
        for target in range(kernel.n):
            bit = 1 << target
            live = _avoid_reachable_csr(sparse, bit)
            live_reference = _avoid_reachable_csr(reference, bit)
            assert live.tolist() == live_reference
        for field in ("states", "indptr", "labels", "succs", "occ", "seeds"):
            values = getattr(sparse, field)
            values = values if isinstance(values, list) else values.tolist()
            assert values == getattr(reference, field), field


@requires_numpy
class TestMemoryFootprint:
    """The vector verify path stays lean: narrow CSR arrays, bounded
    build slices and one chirality vector's graph alive at a time."""

    #: Traced bytes per explored transition. The all-int64 CSR, kept
    #: across vectors and built from whole levels, peaked at 28.5 here;
    #: the discovery-order build in bounded slices at 17.5; the two-pass
    #: build over the dense id map, with compact arena arrays, at 7.9.
    BOUND = 12.0

    def test_traced_peak_per_transition(self) -> None:
        # tracemalloc sees NumPy's allocations. A first, untraced run
        # fills the process caches (frontier tables, compiled tables), so
        # the traced run measures the solve alone.
        import tracemalloc

        args = (PEF3Plus(), RingTopology(7), 3)
        verify_exploration(*args, backend="vector")
        tracemalloc.start()
        try:
            verdict = verify_exploration(*args, backend="vector")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.explorable
        assert peak / verdict.transitions_explored < self.BOUND

    def test_reachable_csr_peak_near_its_result(self) -> None:
        # The two passes hold no second copy of the graph: beside the
        # returned arrays only the id map, one row slice's temporaries
        # (sixteen int64 values per transition bound them) and the
        # merged slices awaiting their concatenation are alive. Here the
        # build that kept every move peaked at 8.81 MB (1.84x its
        # result), the merged build at 6.10 MB (5.0x its 4.9x smaller
        # result) and the bound is 6.88 MB; one more copy of the merged
        # arrays, alive while the slices are built, reaches 7.1 MB.
        import tracemalloc

        kernel, seeds = _pef3_instance(8, "fsync", 0, False)
        batch_solver.reachable_csr(kernel, seeds)  # fills the caches
        tracemalloc.start()
        try:
            result = batch_solver.reachable_csr(kernel, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        merged = sum(array.nbytes for array in result[:5])
        id_map = 8 * kernel._base ** kernel.k
        slice_temporaries = 16 * 8 * batch_solver._SLICE_TRANSITIONS
        assert peak <= 2 * merged + id_map + slice_temporaries


def _unmerged_csr(graph, occupied, seeds) -> _CsrGraph:
    """A list CSR that keeps every move, parallel ones included: a
    verbatim copy of the builder that preceded the merged CSR, for the
    reference Tarjan below."""
    states = sorted(graph)
    index = {state: i for i, state in enumerate(states)}
    indptr = [0]
    labels: list[int] = []
    succs: list[int] = []
    for state in states:
        for mask, succ in graph[state]:
            labels.append(mask)
            succs.append(index[succ])
        indptr.append(len(labels))
    seed_idx: list[int] = []
    seen: set[int] = set()
    for seed in seeds:
        i = index[seed]
        if i not in seen:
            seen.add(i)
            seed_idx.append(i)
    return _CsrGraph(
        states=states,
        indptr=indptr,
        labels=labels,
        succs=succs,
        occ=[occupied[state] for state in states],
        seeds=seed_idx,
    )


def _reference_winning_scc_csr(kernel, csr, target, allowed=None):
    """The full-CSR Tarjan that the deduplicated-arena solve replaced.

    A verbatim copy kept as an independent oracle: it walks every
    transition of the list-built CSR (twice — DFS, then the component's
    internal scan) with an explicit on-stack flag.
    """
    budget = 1 if kernel.topology.is_ring else 0
    full_mask = kernel.full_mask
    ssync = kernel.scheduler == "ssync"
    act_shift = kernel.act_shift
    full_act = kernel.full_act
    target_bit = 1 << target
    count = len(csr.states)
    indptr = csr.indptr
    succs = csr.succs
    labels = csr.labels
    occ = csr.occ
    if allowed is not None:
        avoiding = allowed
    else:
        avoiding = [not occ[i] & target_bit for i in range(count)]
    if not any(avoiding):
        return None

    UNSEEN = -1
    index = [UNSEEN] * count
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    counter = 0
    for root in range(count):
        if not avoiding[root] or index[root] != UNSEEN:
            continue
        work = [(root, indptr[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, cursor = work[-1]
            advanced = False
            end = indptr[node + 1]
            while cursor < end:
                child = succs[cursor]
                cursor += 1
                if not avoiding[child]:
                    continue
                if index[child] == UNSEEN:
                    work[-1] = (node, cursor)
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, indptr[child]))
                    advanced = True
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] != index[node]:
                continue
            component = []
            while True:
                member = stack.pop()
                on_stack[member] = False
                component.append(member)
                if member == node:
                    break
            component_set = set(component)
            internal = []
            union = 0
            for state in component:
                for t in range(indptr[state], indptr[state + 1]):
                    succ = succs[t]
                    if succ in component_set:
                        internal.append((state, labels[t], succ))
                        union |= labels[t]
            if not internal:
                continue
            if (full_mask & ~union).bit_count() > budget:
                continue
            if ssync and union >> act_shift != full_act:
                continue
            return component_set, internal
    return None


def _algorithm(name: str):
    """A registered algorithm, or ``<family>:<bits>`` for a family table."""
    family, _, bits = name.partition(":")
    if bits:
        return family_maker(family)(int(bits))
    return get_algorithm(name)


class TestLeanTarjan:
    """The Tarjan over the merged CSR agrees with the full-move oracle.

    Every target of every chirality vector, with no rotation reduction:
    the packed backend's list CSR and (with NumPy) the vector backend's
    array CSR must both yield the oracle's winner, run on a CSR that
    keeps every move (:func:`_unmerged_csr`), and, once its members are
    re-expanded through the kernel, the oracle's internal transitions in
    order — which the certificate depends on.
    """

    @pytest.mark.parametrize(
        "name,n,k,scheduler,prop,towers",
        [("pef3+", n, 3, "fsync", "perpetual", False) for n in (4, 5, 6, 7)]
        + [("pef3+", n, 3, "ssync", "perpetual", False) for n in (4, 5)]
        + [
            ("pef3+", 5, 3, "fsync", "perpetual", True),  # not rotation-closed
            ("pef3+", 4, 3, "ssync", "perpetual", True),
            ("pef3+", 5, 3, "fsync", "live", False),
            ("pef3+", 4, 3, "ssync", "live", False),  # trapped
            ("pef3+-no-turn", 5, 3, "fsync", "perpetual", False),
            ("pef3+-no-turn", 6, 3, "fsync", "perpetual", False),
            ("pef3+-always-turn", 5, 3, "fsync", "perpetual", False),
            ("pef3+-always-turn", 6, 3, "fsync", "perpetual", False),
            ("pef3+-turn-when-stationary", 5, 3, "fsync", "perpetual", False),
            ("two:7", 4, 2, "fsync", "perpetual", False),
            ("two:7", 4, 2, "fsync", "perpetual", True),
            ("two:91", 4, 2, "ssync", "perpetual", False),
            ("two:123", 4, 2, "fsync", "live", False),
            ("two:255", 4, 2, "ssync", "live", False),
        ],
    )
    def test_matches_reference_tarjan(
        self, name, n, k, scheduler, prop, towers
    ) -> None:
        algorithm = _algorithm(name)
        topology = RingTopology(n)
        placements = arbitrary_placements(topology, k) if towers else None
        for vector in default_chirality_vectors(k):
            kernel = PackedKernel(topology, algorithm, vector, scheduler=scheduler)
            seeds = kernel.initial_states(placements)
            occupied: dict = {}
            graph = kernel.reachable(seeds, occupied_out=occupied)
            unmerged = _unmerged_csr(graph, occupied, seeds)
            csrs = [_csr_from_packed(graph, occupied, seeds)]
            if HAVE_NUMPY:
                csrs.append(
                    _CsrGraph(*batch_solver.reachable_csr(kernel, seeds))
                )
            for target in topology.nodes:
                allowed = None
                if prop == "live":
                    allowed = _avoid_reachable_csr(unmerged, 1 << target)
                expected = _reference_winning_scc_csr(
                    kernel, unmerged, target, allowed
                )
                for csr in csrs:
                    arena = allowed
                    if prop == "live":
                        arena = _avoid_reachable_csr(csr, 1 << target)
                    members = _winning_scc_csr(kernel, csr, target, arena)
                    if expected is None:
                        assert members is None
                        continue
                    assert set(members) == expected[0]
                    assert _internal_transitions(
                        kernel, csr, members
                    ) == expected[1]


def _full_target_scan(algorithm, topology, k, scheduler, prop, placements):
    """Reference verdict: every target of every vector, no rotation
    reduction, solved by the reference Tarjan on a CSR that keeps every
    move — the solve loop as it ran before targets were reduced and
    parallel moves merged."""
    for vector in default_chirality_vectors(k):
        kernel = PackedKernel(topology, algorithm, vector, scheduler=scheduler)
        seeds = kernel.initial_states(placements)
        occupied: dict = {}
        graph = kernel.reachable(seeds, occupied_out=occupied)
        csr = _unmerged_csr(graph, occupied, seeds)
        for target in topology.nodes:
            allowed = None
            if prop == "live":
                allowed = _avoid_reachable_csr(csr, 1 << target)
                if not any(allowed):
                    continue
            win = _reference_winning_scc_csr(kernel, csr, target, allowed)
            if win is not None:
                return _extract_certificate_csr(
                    kernel, vector, csr, target, *win, allowed
                )
    return None


def _full_rotation_scan(kernel, states, classes=()) -> bool:
    """Reference closure: rotate every reached state (canonicalized on a
    quotient) and look it up, as the solver did before the seed rule."""
    S, n, base = kernel.state_count, kernel.n, kernel._base
    members = {int(state) for state in states}
    for state in members:
        rest, rotated, weight = state, 0, 1
        for _ in range(kernel.k):
            rest, slot = divmod(rest, base)
            rotated += ((slot // S + 1) % n * S + slot % S) * weight
            weight *= base
        if classes:
            rotated = kernel.canonical(rotated, classes)
        if rotated not in members:
            return False
    return True


def _rotation_corpus() -> list:
    """Every registered algorithm plus two random memoryless and two
    random memory-2 tables (fixed seed), as ``(name, algorithm)``."""
    rng = random.Random(34)
    corpus = [(name, get_algorithm(name)) for name in registry]
    for family in ("two", "two-m2"):
        for _ in range(2):
            bits = rng.randrange(family_space(family))
            corpus.append((f"{family}:{bits}", family_maker(family)(bits)))
    return corpus


class TestRotationReducedTargets:
    """Checking target 0 alone never changes a verdict or certificate."""

    @pytest.mark.parametrize(
        "backend,max_cells",
        [("packed", 10), pytest.param("vector", 12, marks=requires_numpy)],
    )
    def test_seed_rule_matches_full_scan(self, backend, max_cells) -> None:
        # Rings n=2..6 with k <= 3 robots and n·k <= max_cells, FSYNC and
        # SSYNC, default (quotiented under FSYNC) and arbitrary
        # placements, every default chirality vector: the seeds decide
        # closure exactly when every reached state does.
        cases = opened = 0
        for name, algorithm in _rotation_corpus():
            for n, k in itertools.product(range(2, 7), range(1, 4)):
                if k >= n or n * k > max_cells:
                    continue
                topology = RingTopology(n)
                for scheduler, towers in itertools.product(
                    ("fsync", "ssync"), (False, True)
                ):
                    placements = (
                        arbitrary_placements(topology, k) if towers else None
                    )
                    quotient = scheduler == "fsync" and not towers
                    for vector in default_chirality_vectors(k):
                        kernel, csr, classes = game._build_csr(
                            backend, topology, algorithm, vector, 10**6,
                            placements, scheduler, quotient,
                        )
                        expected = _full_rotation_scan(
                            kernel, csr.states, classes
                        )
                        assert _rotation_closed(kernel, csr, classes) == (
                            expected
                        ), (name, n, k, scheduler, towers, vector)
                        cases += 1
                        opened += not expected
        # Both answers occur: the corpus is not all closed.
        assert cases > 500 and opened >= 3

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
        kernel, _seeds, csr = _scalar_csr(4, "ssync", 0, False)
        assert _rotation_closed(kernel, csr)
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
        spec = make_table_spec("single", 3)
        assert sweep_chunk(spec, chunk, backend="auto") == sweep_chunk(
            spec, chunk, backend="packed"
        )

    def test_explicit_vector_raises_clearly(self, no_numpy) -> None:
        with pytest.raises(VerificationError, match="requires numpy"):
            sweep_chunk(make_table_spec("single", 3), (0,), backend="vector")

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
