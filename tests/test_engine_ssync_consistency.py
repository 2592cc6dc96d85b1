"""Property tests: FSYNC and SSYNC engines agree where they must.

``run_ssync`` with the everyone-every-round activation scheduler is
definitionally FSYNC; the two independent engine implementations must
produce identical traces on identical inputs — states, positions, views
and movement flags, round by round, across random schedules, algorithms
and chirality assignments.

The packed verification kernel is a third SSYNC implementation: its
``step_packed(packed, edge_mask, act_mask)`` and the object product's
``step(state, present, active)`` must replay ``run_ssync`` traces
exactly, activation subsets included — the SSYNC leg of the "solver and
simulator can never disagree" triangle.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.schedules import BernoulliSchedule
from repro.graph.topology import RingTopology
from repro.robots.algorithms import PEF2, BounceOnMeeting, PEF3Plus
from repro.robots.algorithms.tables import random_table_algorithm
from repro.sim.engine import run_fsync
from repro.sim.semi_sync import EveryRobotActivation, ListActivation, run_ssync
from repro.types import AGREE, DISAGREE
from repro.verification.kernel import PackedKernel
from repro.verification.product import ProductSystem

seeds = st.integers(min_value=0, max_value=2**16)
sizes = st.integers(min_value=4, max_value=9)
algorithms = st.sampled_from(
    [PEF3Plus(), PEF2(), BounceOnMeeting()]
)


@given(seeds, sizes, algorithms, st.booleans())
@settings(max_examples=40, deadline=None)
def test_ssync_with_full_activation_equals_fsync(
    seed: int, n: int, algorithm, mixed_chirality: bool
) -> None:
    ring = RingTopology(n)
    schedule = BernoulliSchedule(ring, p=0.55, seed=seed)
    positions = [0, n // 2]
    chiralities = [AGREE, DISAGREE if mixed_chirality else AGREE]
    rounds = 40

    fsync = run_fsync(
        ring, schedule, algorithm, positions=positions, rounds=rounds,
        chiralities=chiralities,
    )
    ssync = run_ssync(
        ring,
        schedule,
        EveryRobotActivation(),
        algorithm,
        positions=positions,
        rounds=rounds,
        chiralities=chiralities,
    )
    assert fsync.trace is not None and ssync.trace is not None
    for t in range(rounds):
        f_rec = fsync.trace.records[t]
        s_rec = ssync.trace.records[t]
        assert f_rec.present_edges == s_rec.present_edges
        assert f_rec.views == s_rec.views
        assert f_rec.after == s_rec.after
        assert f_rec.moved == s_rec.moved


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_agreement_holds_for_random_table_algorithms(seed: int) -> None:
    rng = random.Random(seed)
    algorithm = random_table_algorithm(rng, memory_size=2)
    ring = RingTopology(6)
    schedule = BernoulliSchedule(ring, p=0.5, seed=seed)
    fsync = run_fsync(ring, schedule, algorithm, positions=[0, 3], rounds=30)
    ssync = run_ssync(
        ring,
        schedule,
        EveryRobotActivation(),
        algorithm,
        positions=[0, 3],
        rounds=30,
    )
    assert fsync.final == ssync.final


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_packed_kernel_and_product_replay_ssync_traces(seed: int) -> None:
    """Kernel and object product agree with ``run_ssync``, step by step."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    ring = RingTopology(n)
    k = rng.randint(1, min(3, n - 1))
    chiralities = tuple(rng.choice([AGREE, DISAGREE]) for _ in range(k))
    algorithm = random_table_algorithm(rng, memory_size=rng.randint(1, 2))
    positions = tuple(rng.sample(range(n), k))
    # A fair-by-repetition random activation pattern of non-empty subsets.
    pattern = [
        frozenset(
            robot for robot in range(k) if act >> robot & 1
        )
        for act in (rng.randrange(1, 1 << k) for _ in range(8))
    ]
    rounds = 24
    result = run_ssync(
        ring,
        BernoulliSchedule(ring, p=0.6, seed=seed),
        ListActivation(pattern),
        algorithm,
        positions=positions,
        rounds=rounds,
        chiralities=chiralities,
    )
    trace = result.trace
    assert trace is not None

    kernel = PackedKernel(ring, algorithm, chiralities, scheduler="ssync")
    system = ProductSystem(ring, algorithm, chiralities, scheduler="ssync")
    state = (trace.initial.positions, trace.initial.states)
    packed = kernel.encode(state)
    for t, record in enumerate(trace.records):
        active = result.activations[t]
        act_mask = sum(1 << robot for robot in active)
        edge_mask = kernel.edges_to_mask(record.present_edges)
        before = kernel.positions_of(packed)
        packed = kernel.step_packed(packed, edge_mask, act_mask)
        engine_successor = (record.after.positions, record.after.states)
        assert kernel.decode(packed) == engine_successor
        after = kernel.positions_of(packed)
        assert tuple(map(int.__ne__, before, after)) == record.moved
        assert system.step(state, record.present_edges, active) == engine_successor
        state = engine_successor
