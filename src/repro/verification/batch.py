"""The vector backend: whole chunks of tables simulated in NumPy lockstep.

The scalar packed simulation loop
(:func:`repro.scenarios.simulate._bounded_explores_packed`) runs one
``(table, chirality-vector, placement)`` run at a time — pure-Python int
arithmetic, ~1,200–2,200 tables/s at n=4. But every run of a chunk
shares the topology, the schedule's edge-bitmask array and the
activation discipline, and the runs are *independent*: nothing one run
computes feeds another. So this module simulates **all of them at
once** as structure-of-arrays NumPy state:

* one *run* per ``(table, chirality-vector, placement)`` triple —
  ``runs = tables × vectors × placements``, a few thousand for a
  192-table chunk at n=4 — and one *row* per ``(robot, run)`` pair,
  laid out robot-major so each robot's block is a contiguous slice
  (``rows = k × runs``); one per-row slot column (plus its node, for
  the Look), the runs' ``(run, robot)`` state flattened so that one
  fancy-index **gather** covers every robot of every run per round;
* occupancy / ``seen`` / ``late`` visited bitsets as int64 columns per
  run (rings are tiny — n < 63 bits — and int64 avoids NumPy's
  uint64-with-Python-int float-promotion trap);
* the chunk's ``(tables, S*8)`` Look–Compute stack, decoded from its
  bit patterns (:func:`~repro.verification.sweeps.family_tables`, the
  stack the dense solver reads: initial state 0, a state's direction
  bit is its low bit), composed with the landing rule into one round
  table per table and chirality (:func:`round_stack`), so each row
  keeps one slot (``node·S + state``) and a robot's whole round —
  Compute and Move — is a single gather ``slot·8 + view → next slot``;
* per-run done masks give the live/perpetual early exits, and finished
  runs are **compacted** away (boolean-filter of the state columns)
  whenever enough of the batch has settled, so a chunk whose tables
  mostly trap early costs little more than the scalar early-exit path;
* each round steps one contiguous row slice — every robot block under
  FSYNC, block ``t mod k`` under round-robin SSYNC — so the activation
  discipline is a slice, not a mask, and there is one round body.

**Exact tally reproduction.** The scalar path breaks out of the
chirality/placement loops at a table's *first failing run* and counts
only the rounds it actually executed. Simulating the skipped runs is
semantically harmless (runs are independent) but would change the
``rounds`` tally, which must stay byte-identical across backends. The
kernel therefore simulates everything and reproduces the scalar
accounting *post hoc*: per table, runs are ordered exactly as the
scalar loops nest (chirality-vector major, placement minor), the first
failed run is located, and only the executed-round counts up to and
including it are summed. Trapped flags and round totals match the
scalar path exactly — differentially tested in ``tests/test_batch.py``.

NumPy is an **optional**, **on-demand** dependency: this module owns the
one loader (:func:`load_numpy`) the solver backend
(:mod:`~repro.verification.batch_solver`) and :mod:`repro.analysis.stats`
share. Nothing imports NumPy at module load — :func:`have_numpy` answers
from the import system's module search until the first real use, so
verbs that never compute (``algos``, ``campaign list|status|report``, a
cache-hit ``campaign run``) never pay for it. Without NumPy this module
imports fine, :func:`have_numpy` returns False, and the ``vector``
backend is simply unavailable (``backend="auto"`` falls back to
``packed``).
"""

from __future__ import annotations

import functools
import importlib.util
import time
from importlib.machinery import PathFinder
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.errors import VerificationError
from repro.types import Chirality, NodeId

if TYPE_CHECKING:
    from repro.graph.topology import Topology

#: Compact the row arrays once the finished fraction reaches this.
COMPACT_THRESHOLD = 0.5

_UNLOADED = object()

# The NumPy module once loaded, None when it is unavailable, _UNLOADED
# until the first use. Tests force the no-NumPy contract by setting it
# to None.
_np: Any = _UNLOADED


@functools.lru_cache(maxsize=None)
def _numpy_installed() -> bool:
    # The plain sys.path search first: it leaves import hooks on
    # sys.meta_path (import timers, tracers) to the real import.
    spec = PathFinder.find_spec("numpy") or importlib.util.find_spec("numpy")
    return spec is not None


def have_numpy() -> bool:
    """True when the optional NumPy dependency is usable.

    Answered without importing NumPy while it is still unloaded: a
    package that is found but then fails to import surfaces as the
    ``requires numpy`` error of :func:`require_numpy` at first use.
    """
    if _np is _UNLOADED:
        return _numpy_installed()
    return _np is not None


def load_numpy() -> Optional[Any]:
    """The NumPy module, imported on first call; None when unavailable."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:
            _np = None
        else:
            _np = numpy
    return _np


def require_numpy() -> Any:
    """The NumPy module, or a clear error naming the missing dependency."""
    np = load_numpy()
    if np is None:
        raise VerificationError(
            "backend 'vector' requires numpy, which is not installed; "
            "pass backend='auto' to fall back to 'packed' automatically"
        )
    return np


def round_stack(stack: Any, topology: Topology, chirality: Chirality) -> Any:
    """The round tables of a ``(B, S·8)`` table stack, ``(B, n·S·8)``.

    Row ``b`` is :attr:`~repro.verification.compiled.CompiledTables
    .round_tables` of table ``b`` for a robot of ``chirality``: entry
    ``slot · 8 + view`` is the robot's next slot. A stack state's
    direction bit is its low bit, so the landing rule
    (:func:`~repro.verification.compiled.landings`) is one gather at
    ``(node · 8 + view) · 2 + (t & 1)`` for computed state ``t``.
    """
    from repro.verification.compiled import landings

    np = require_numpy()
    batch, width = stack.shape
    S = width // 8
    steps = stack.reshape(batch, 1, S, 8)
    landing = np.array(landings(topology, chirality), dtype=np.int64)
    at = np.arange(0, 16 * topology.n, 2, dtype=np.int64).reshape(-1, 1, 8)
    out = landing[at + (steps & 1)]
    out *= S
    out += steps
    return out.reshape(batch, -1)


def _mask_tables(mask: int, node_tables: list[tuple], n: int) -> Any:
    """The flat edge-view table of one edge mask.

    ``node_tables`` is the (robot, chirality-vector) cross product in
    row-block order; the table is indexed by ``block*n + node`` (value
    ``4*left_present + 2*right_present``). Schedules repeat masks heavily
    (periodic families cycle through a handful), so the caller memoizes
    per distinct mask.
    """
    np = require_numpy()
    return np.concatenate([
        ((mask & left) != 0).astype(np.int64) * 4
        + ((mask & right) != 0).astype(np.int64) * 2
        for left, right in node_tables
    ])


def simulate_batch(
    topology: Topology,
    tables: Any,
    vectors: Sequence[Sequence[Chirality]],
    placements: Sequence[Sequence[NodeId]],
    masks: Sequence[int],
    ssync: bool,
    prop: str,
) -> tuple[list[bool], int, dict[str, float]]:
    """Run every (table, chirality-vector, placement) run in lockstep.

    ``tables`` is a ``(B, S·8)`` int stack of Look–Compute tables laid
    out like :meth:`TableAlgorithm.packed_tables`' ``transitions``
    (:func:`~repro.verification.sweeps.family_tables` decodes it from
    bit patterns): every robot starts in state 0, and a state's
    direction bit is its low bit. Raises :class:`VerificationError` on a
    stack that is not two-dimensional with a width of ``S·8``, ``S >=
    1``, or holds an entry outside ``0..S-1``.

    Returns ``(trapped, rounds, timings)``: per-table trapped flags in
    input order, the total executed-round count under the scalar path's
    first-failure accounting (see the module docstring), and wall-clock
    seconds per kernel phase (``compile``/``gather``/``compact`` — the
    caller decides whether to emit them as telemetry).
    """
    from repro.verification.compiled import _node_tables

    np = require_numpy()
    timings = {"compile": 0.0, "gather": 0.0, "compact": 0.0}
    start = time.perf_counter()
    trans2 = np.asarray(tables, dtype=np.int64)
    if trans2.ndim != 2 or trans2.shape[1] < 8 or trans2.shape[1] % 8:
        raise VerificationError(
            f"table stack of shape {trans2.shape} is not (B, S·8) with S >= 1"
        )
    s8 = trans2.shape[1]
    state_count = s8 // 8
    if trans2.size and (trans2.min() < 0 or trans2.max() >= state_count):
        raise VerificationError(
            f"table stack holds entries outside 0..{state_count - 1}"
        )
    batch = trans2.shape[0]
    if not batch:
        return [], 0, timings

    n = topology.n
    k = len(vectors[0])
    n_vectors = len(vectors)
    n_placements = len(placements)
    runs_per_table = n_vectors * n_placements
    one = np.int64(1)
    full = np.int64((1 << n) - 1)

    # -- compile: per chirality, every table's round table (round_stack),
    # all in one flat array: a robot's round is a single gather.
    chiralities = list(dict.fromkeys(c for vector in vectors for c in vector))
    rounds_flat = np.concatenate([
        round_stack(trans2, topology, chirality).ravel()
        for chirality in chiralities
    ])
    width = n * s8

    # Run layout: run = table * runs_per_table + vector * placements +
    # placement — exactly the scalar loop nesting, which the post-hoc
    # first-failure accounting below depends on. Row layout: row =
    # robot * runs + run (robot-major blocks, so a robot's — or under
    # SSYNC, the active robot's — rows are one contiguous slice).
    runs = batch * runs_per_table
    vec_of_run = np.tile(
        np.repeat(np.arange(n_vectors, dtype=np.int64), n_placements), batch
    )
    table_of_run = np.repeat(
        np.arange(batch, dtype=np.int64) * width, runs_per_table
    )
    place2 = np.array(placements, dtype=np.int64)  # (P, k)

    # The (robot, chirality-vector) blocks, in row-block order: per-row
    # offsets select each row's block in the per-mask edge-view tables
    # built by _mask_tables, and its chirality's round tables. A block
    # reads its chirality's compiled port masks, made arrays once here.
    blocks = [(i, vector) for i in range(k) for vector in vectors]
    ports = {
        chirality: tuple(
            np.array(masks, dtype=np.int64)
            for masks in _node_tables(topology, chirality)
        )
        for chirality in chiralities
    }
    node_tables = [ports[vector[i]] for i, vector in blocks]
    block_rounds = np.array(
        [chiralities.index(vector[i]) * batch * width for i, vector in blocks],
        dtype=np.int64,
    )
    block_of_row = np.concatenate(
        [vec_of_run + i * n_vectors for i in range(k)]
    )
    ev_off = block_of_row * n
    round_rows = block_rounds[block_of_row] + np.tile(table_of_run, k)

    # One slot (node · S + state) per row; every robot starts in state
    # 0. ``pos`` is its node, kept alongside for the Look.
    pos = np.concatenate(
        [np.tile(place2[:, i], batch * n_vectors) for i in range(k)]
    )
    slot = pos * state_count

    seen = np.zeros(runs, dtype=np.int64)
    pos2 = pos.reshape(k, runs)
    for i in range(k):
        seen |= one << pos2[i]
    late = np.zeros(runs, dtype=np.int64)
    explored = np.zeros(runs, dtype=bool)
    executed = np.zeros(runs, dtype=np.int64)
    orig = np.arange(runs, dtype=np.int64)
    timings["compile"] = time.perf_counter() - start

    horizon = len(masks)
    mid = horizon // 2
    live = prop == "live"
    # Robot blocks stepped per round: all of them, or under round-robin
    # SSYNC the one of robot t mod k.
    span = 1 if ssync else k

    def compact(keep) -> None:
        nonlocal pos, slot, seen, late, ev_off, round_rows, orig
        mark = time.perf_counter()
        keep_rows = np.tile(keep, k)
        pos = pos[keep_rows]
        slot = slot[keep_rows]
        ev_off = ev_off[keep_rows]
        round_rows = round_rows[keep_rows]
        seen = seen[keep]
        late = late[keep]
        orig = orig[keep]
        timings["compact"] += time.perf_counter() - mark

    if live:
        # The scalar pre-check: a placement that already covers the ring
        # satisfies "live" in 0 rounds.
        done = seen == full
        if done.any():
            explored[orig[done]] = True
            compact(~done)

    mark = time.perf_counter()
    mask_cache: dict[int, Any] = {}
    # Runs already decided but not yet compacted away: their tally was
    # written the round they finished; they keep stepping harmlessly
    # (runs are independent) until the next compaction drops them.
    pending = np.zeros(orig.size, dtype=bool)
    for t in range(horizon):
        r = orig.size
        if r == 0:
            break
        mask = masks[t]
        ev_table = mask_cache.get(mask)
        if ev_table is None:
            ev_table = _mask_tables(mask, node_tables, n)
            mask_cache[mask] = ev_table

        pos2 = pos.reshape(k, r)
        if k == 1:
            tower_bit = None
        elif k == 2:
            tower_bit = np.tile((pos2[0] == pos2[1]).astype(np.int64), 2)
        else:
            bits = one << pos2
            occupied = np.zeros(r, dtype=np.int64)
            towers = np.zeros(r, dtype=np.int64)
            for i in range(k):
                towers |= occupied & bits[i]
                occupied |= bits[i]
            tower_bit = ((towers >> pos2) & one).ravel()

        lo = (t * span % k) * r
        sl = slice(lo, lo + span * r)
        view = (slot[sl] << 3) + ev_table[ev_off[sl] + pos[sl]]
        if tower_bit is not None:
            view += tower_bit[sl]
        slot[sl] = rounds_flat[round_rows[sl] + view]
        pos[sl] = slot[sl] // state_count

        pos2 = pos.reshape(k, r)
        occupancy = one << pos2[0]
        for i in range(1, k):
            occupancy |= one << pos2[i]
        if t < mid:
            seen |= occupancy
        else:
            late |= occupancy

        if live:
            done = (seen | late) == full
            won = None
        elif t + 1 < mid:
            # Nothing can finish before the mid-horizon gate: the
            # perpetual predicate needs the late window, which is empty.
            continue
        elif t + 1 == mid:
            # The perpetual mid-horizon gate: a run whose first window
            # starved a node fails now (the second window cannot repair
            # it); one that already covered both windows succeeds now.
            covered = seen == full
            won = covered & (late == full)
            done = ~covered | won
        else:
            done = (seen == full) & (late == full)
            won = None
        fresh = done & ~pending
        if fresh.any():
            rows = orig[fresh]
            executed[rows] = t + 1
            if won is None:
                explored[rows] = True
            else:
                explored[orig[won & fresh]] = True
            pending |= fresh
            # Compaction is a full copy of the state columns — only
            # worth it once enough runs settled; finished runs keep
            # stepping in place meanwhile (harmless: runs are
            # independent, and their tally is already written).
            if pending.mean() >= COMPACT_THRESHOLD:
                timings["gather"] += time.perf_counter() - mark
                compact(~pending)
                pending = np.zeros(orig.size, dtype=bool)
                mark = time.perf_counter()
    timings["gather"] += time.perf_counter() - mark

    alive = ~pending
    if alive.any():
        rows = orig[alive]
        executed[rows] = horizon
        if live:
            explored[rows] = ((seen | late) == full)[alive]
        else:
            explored[rows] = ((seen == full) & (late == full))[alive]

    # -- post-hoc scalar accounting: first failing run per table --------
    explored2 = explored.reshape(batch, runs_per_table)
    executed2 = executed.reshape(batch, runs_per_table)
    fail = ~explored2
    trapped = fail.any(axis=1)
    first_fail = fail.argmax(axis=1)
    cumulative = executed2.cumsum(axis=1)
    counted = np.where(
        trapped,
        cumulative[np.arange(batch), first_fail],
        cumulative[:, -1],
    )
    return (
        [bool(flag) for flag in trapped],
        int(counted.sum()),
        timings,
    )


__all__ = [
    "have_numpy",
    "load_numpy",
    "require_numpy",
    "round_stack",
    "simulate_batch",
    "COMPACT_THRESHOLD",
]
