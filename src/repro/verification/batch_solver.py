"""The vector solver backend: whole-chunk NumPy game solving.

:mod:`repro.verification.batch` vectorized the *simulation* half; this
module does the same for the exact game solver. The enabling observation
is that the solver's product spaces are *dense and tiny*: a packed state
is ``Σ slot_i · base^i`` with ``base = n · S``, every integer in
``[0, base^k)`` decodes to a valid ``(positions, states)`` tuple, and for
the sweep families ``base^k`` is at most a few hundred. Nothing about the
decoding — positions, multiplicity bits, adversary move sets, port masks
— depends on the algorithm; only the Look–Compute table
``transitions[view]`` does. So the *geometry* of the space is compiled
once per ``(topology, chirality vector, S, scheduler)``
(:class:`DenseSpace`, process-cached) and a whole chunk of tables is
solved in lockstep:

* **expand** — one folded gather per robot turns a ``(B, S·8)`` stack of
  Look–Compute tables into the full dense successor tensor
  ``succ[b, p, j]`` over every state ``p`` and adversary move ``j``
  (FSYNC edge masks; SSYNC edge×activation moves packed above
  ``act_shift``, mirroring ``PackedKernel._reachable_ssync``'s
  mask-major / activation-minor order);
* **frontier** — reachability is breadth-first over boolean ``(B, P)``
  bitmaps: each level scatter-marks all successors of the whole frontier
  of the whole batch at once;
* **scc** — per target node, the avoiding arena's transitive closure is
  computed by a bit-parallel Floyd–Warshall over uint64 bit-row words
  (``P`` vector steps instead of a per-state Tarjan), mutual
  reachability partitions into SCCs, and the winning criterion — an SCC
  with an internal transition whose label union misses at most *budget*
  edges and, under SSYNC, activates every robot — is a masked OR-reduce
  plus popcount per component. Tables proven trapped at a target drop
  out of the remaining targets, exactly like the scalar early exit.

The dense tensors stop paying off past a few thousand states
(:func:`dense_eligible`), and the paper's own positive algorithm leaves
that range early: ``PEF_3+`` at k=3 has ``base^k = 32768`` at n=8, 61%
of it reachable. Single instances of any size take the **frontier**
path instead — :func:`reachable_csr`, a level-synchronous int64 BFS over
the *reached* states only. Per level it decodes the frontier's slots,
gathers every padded adversary move's successor at once (the move table
spans only occupancies with popcount ``≤ k``), deduplicates against the
visited set with ``np.unique``/``np.isin`` and keeps the level's
transition rows; one final permutation yields the per-table CSR —
states ascending, per-state transitions in the scalar kernel's move
order, the *same* canonical graph the packed backend builds from
``PackedKernel.reachable`` — so vector and packed verdicts and
certificates are bit-identical by construction. It feeds the shared
solve phase in :mod:`repro.verification.game` (``verify`` and the
certificate path of validated sweeps); there is no scalar size
fallback.

NumPy stays optional: callers guard with :func:`have_numpy` (via the
backend registry) and run the scalar packed path (identical tallies)
when the dependency is absent; sweep chunks that are not
:func:`dense_eligible` go per table through the frontier path.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Sequence

try:  # NumPy is optional — the vector backend degrades to unavailable.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI leg
    _np = None

from repro.errors import VerificationError
from repro.verification.batch import _np_node_tables, _require_numpy, have_numpy
from repro.verification.kernel import PackedKernel

#: Hard cap on a dense space's state count (beyond it, tables are solved
#: one by one on the frontier path — the dense tensors would stop paying
#: off).
MAX_DENSE_STATES = 1 << 12

#: Hard cap on one table's dense successor tensor (states × branches).
MAX_DENSE_CELLS = 1 << 21

#: Target element count for one batched successor tensor; chunks larger
#: than this are solved in sub-batches. Tuned low on purpose: the dense
#: tensors of a sub-batch should sit in cache, not in main memory —
#: larger sub-batches measure *slower* despite the amortized call
#: overhead.
BATCH_CELL_TARGET = 1 << 18

#: Cap on the (U, P, P) mutual-reachability tensor per sub-batch.
BATCH_PAIR_TARGET = 1 << 20

#: Bits per uint64 word of a reachability bit-row.
_BITS = 64

#: Bound on packed states and move labels (edge bits, then activation
#: bits) for the int64 frontier.
_INT64_BOUND = 1 << 62

_space_cache: dict = {}
_frontier_cache: dict = {}


def _branch_bound(kernel: PackedKernel) -> int:
    """Upper bound on per-state branching (moves × activations)."""
    moves = 1 << min(2 * kernel.k, kernel.m)
    if kernel.scheduler == "ssync":
        return moves * kernel.full_act
    return moves


def dense_eligible(kernel: PackedKernel) -> bool:
    """Whether this instance's product space fits the dense solver.

    False — NumPy absent, too many dense states, or too large a
    successor tensor — means the caller should solve table by table
    instead (the frontier path, or the packed kernel without NumPy); the
    verdicts are identical either way.
    """
    if not have_numpy():
        return False
    space = kernel._base ** kernel.k
    if space > MAX_DENSE_STATES:
        return False
    return space * _branch_bound(kernel) <= MAX_DENSE_CELLS


class DenseSpace:
    """The table-independent geometry of one dense product space.

    Everything here depends only on ``(topology, chirality vector, S,
    scheduler)`` — decoded positions, multiplicity bits, padded adversary
    move tables, per-robot view rows and landing slots, transition
    labels. Instances are process-cached (:func:`dense_space`), so a
    sweep pays the construction once per chirality stage.
    """

    def __init__(self, kernel: PackedKernel) -> None:
        np = _np
        self.topology = kernel.topology
        self.scheduler = kernel.scheduler
        self.k = kernel.k
        self.n = kernel.n
        self.m = kernel.m
        self.S = kernel.state_count
        self.base = kernel._base
        self.space = self.base ** self.k
        self.full_mask = kernel.full_mask
        self.act_shift = kernel.act_shift
        self.full_act = kernel.full_act
        space, S, k = self.space, self.S, self.k

        ar = np.arange(space, dtype=np.int64)
        slots = [(ar // self.base**i) % self.base for i in range(k)]
        pos = [slot // S for slot in slots]
        occ = np.zeros(space, dtype=np.int64)
        tow = np.zeros(space, dtype=np.int64)
        for p in pos:
            bit = np.int64(1) << p
            tow |= occ & bit
            occ |= bit
        self.occ = occ

        moves_pad, mcount = kernel.padded_moves(occ.tolist())
        self.moves_pad = moves_pad
        self.mcount = mcount
        self.max_moves = moves_pad.shape[1]

        # Per robot: the full view row (state row + multiplicity + left/
        # right occupancy bits per move) and the landing slot for either
        # direction bit of the computed state — all table-independent.
        # int16 throughout: every value is a state/slot/row index below
        # 2^15 (the dense caps guarantee it), and the expansion tensors
        # are memory-bound.
        self.robots = []
        for i in range(k):
            left, right, mm, md = kernel._robot_tables[i]
            left = np.asarray(left, dtype=np.int64)[pos[i]]
            right = np.asarray(right, dtype=np.int64)[pos[i]]
            mm = np.asarray(mm, dtype=np.int64)
            md = np.asarray(md, dtype=np.int64)
            view = (slots[i] % S) * 8 + ((tow >> pos[i]) & 1)
            view = (
                view[:, None]
                + 4 * ((moves_pad & left[:, None]) != 0)
                + 2 * ((moves_pad & right[:, None]) != 0)
            ).astype(np.int16)
            slot_for_dir = []
            for dir_bit in (0, 1):
                pointer = pos[i] * 2 + dir_bit
                moved = (moves_pad & mm[pointer][:, None]) != 0
                landing = np.where(moved, md[pointer][:, None], pos[i][:, None])
                slot_for_dir.append((landing * S).astype(np.int16))
            self.robots.append(
                (view, slot_for_dir[0], slot_for_dir[1], slots[i].astype(np.int16))
            )

        # Narrowest integer dtype that holds a full transition label —
        # the label-union reductions are the solve loop's biggest tensors.
        label_bits = self.act_shift + k if self.scheduler == "ssync" else self.m
        label_dtype = (
            np.int16 if label_bits < 15 else
            np.int32 if label_bits < 31 else np.int64
        )
        if self.scheduler == "ssync":
            acts = np.arange(1, self.full_act + 1, dtype=np.int64)
            self.labels = (
                (moves_pad[:, :, None] | (acts << self.act_shift))
                .reshape(space, -1)
                .astype(label_dtype)
            )
            self.deg = mcount * self.full_act
        else:
            self.labels = moves_pad.astype(label_dtype)
            self.deg = mcount
        self.branch = self.labels.shape[1]
        self.pop = np.array(
            [bin(x).count("1") for x in range(1 << self.m)], dtype=np.int64
        )
        # State-index → bit-row word/bit, for the Warshall closure.
        self.words = (space + _BITS - 1) // _BITS
        self.word_of = np.arange(space, dtype=np.int64) // _BITS
        self.bit_of = (np.arange(space) % _BITS).astype(np.uint64)
        self.bitval = np.array(
            [1 << (s % _BITS) for s in range(space)], dtype=np.uint64
        )
        self.eye = np.eye(space, dtype=bool)
        self._target_cache: dict = {}

    def target_view(self, target: int) -> tuple:
        """Cached per-target geometry of the avoiding arena.

        Returns ``(avoid, avoid_mask, sel, labels_sel)``: the boolean
        does-not-occupy-``target`` state mask, the same mask packed into
        bit-row words, the avoiding state indices and the label rows
        restricted to them. Everything downstream of the arena — Warshall
        vias, internal-transition rows, candidate SCC roots — only ever
        ranges over these states, a batch-uniform restriction.
        """
        cached = self._target_cache.get(target)
        if cached is None:
            np = _np
            avoid = ((self.occ >> target) & 1) == 0
            sel = np.nonzero(avoid)[0]
            avoid_mask = np.zeros(self.words, dtype=np.uint64)
            for s in sel.tolist():
                avoid_mask[s // _BITS] |= np.uint64(1 << (s % _BITS))
            eye_sel = np.eye(sel.size, dtype=np.uint8)
            cached = (avoid, avoid_mask, sel, self.labels[sel], eye_sel)
            self._target_cache[target] = cached
        return cached


def dense_space(kernel: PackedKernel) -> DenseSpace:
    """The (process-cached) dense geometry for a kernel's instance."""
    _require_numpy()
    key = (
        kernel.topology,
        kernel.chiralities,
        kernel.state_count,
        kernel.scheduler,
    )
    cached = _space_cache.get(key)
    if cached is None:
        cached = DenseSpace(kernel)
        _space_cache[key] = cached
    return cached


def _expand(sp: DenseSpace, trans: "object", dirs: "object") -> "object":
    """The dense successor tensor ``(B, space, branch)`` of a table stack.

    ``trans``/``dirs`` are ``(B, S·8)`` / ``(B, S)`` int stacks. Per
    robot one gather folds Look–Compute and direction into
    ``new_state·2 + dir_bit``; the landing slot is then a select between
    the two precompiled per-direction slot tables plus the new state.
    """
    np = _np
    td = (trans * 2 + np.take_along_axis(dirs, trans, axis=1)).astype(np.int16)
    slots = []
    for view, slot0, slot1, _idle in sp.robots:
        t = td[:, view]
        slot = np.where((t & 1).astype(bool), slot1, slot0) + (t >> 1)
        slots.append(slot)
    if sp.scheduler != "ssync":
        succ = slots[sp.k - 1]
        for i in range(sp.k - 2, -1, -1):
            succ = succ * sp.base + slots[i]
        return succ
    parts = []
    for act in range(1, sp.full_act + 1):
        succ = None
        for i in range(sp.k - 1, -1, -1):
            part = (
                slots[i]
                if act >> i & 1
                else sp.robots[i][3][None, :, None]
            )
            succ = part if succ is None else succ * sp.base + part
        parts.append(np.broadcast_to(succ, slots[0].shape))
    batch = slots[0].shape[0]
    return np.stack(parts, axis=-1).reshape(batch, sp.space, -1)


def _unpack(rows: "object", count: int, as_bool: bool = True) -> "object":
    """Bit-rows ``(..., words)`` uint64 → ``(..., count)`` flags.

    ``as_bool=False`` returns the raw 0/1 uint8 plane (one copy fewer)
    for consumers that only mask or reduce it.
    """
    np = _np
    if np.little_endian:
        flat = np.unpackbits(
            np.ascontiguousarray(rows).view(np.uint8),
            axis=-1,
            bitorder="little",
        )[..., :count]
        return flat.astype(bool) if as_bool else flat
    word_of = np.arange(count, dtype=np.int64) // _BITS
    bit_of = (np.arange(count) % _BITS).astype(np.uint64)
    bits = (rows[..., word_of] >> bit_of) & np.uint64(1)
    return bits.astype(bool) if as_bool else bits.astype(np.uint8)


def _adjacency(sp: DenseSpace, succ: "object") -> "object":
    """Per-state successor bitmasks ``(B, P, words)`` of a batch."""
    np = _np
    tbits = sp.bitval[succ]
    if sp.words == 1:
        return np.bitwise_or.reduce(tbits, axis=2)[:, :, None]
    tword = sp.word_of[succ]
    adj = np.empty(succ.shape[:2] + (sp.words,), dtype=np.uint64)
    for w in range(sp.words):
        adj[:, :, w] = np.bitwise_or.reduce(
            np.where(tword == w, tbits, 0), axis=2
        )
    return adj


def _reachable(
    sp: DenseSpace, adj: "object", seeds: Sequence[int]
) -> tuple:
    """Lockstep BFS over successor bitmasks.

    Each level ORs the adjacency rows of the whole frontier of the whole
    batch — no per-state scatter. Returns ``(visited, vis_mask)``: the
    boolean ``(B, P)`` bitmap and its packed ``(B, words)`` form.
    """
    np = _np
    batch = adj.shape[0]
    seed_mask = np.zeros(sp.words, dtype=np.uint64)
    for s in set(int(s) for s in seeds):
        seed_mask[s // _BITS] |= np.uint64(1 << (s % _BITS))
    vis_mask = np.broadcast_to(seed_mask, (batch, sp.words)).copy()
    frontier = vis_mask
    while True:
        hot = _unpack(frontier, sp.space, as_bool=False)
        nxt = np.bitwise_or.reduce(
            np.where(hot[:, :, None], adj, 0), axis=1
        )
        nxt &= ~vis_mask
        if not nxt.any():
            break
        vis_mask |= nxt
        frontier = nxt
    return _unpack(vis_mask, sp.space), vis_mask


def _solve(
    sp: DenseSpace,
    succ: "object",
    adj_full: "object",
    visited: "object",
    vis_mask: "object",
    seeds: Sequence[int],
    prop: str,
) -> "object":
    """Trapped flags ``(B,)`` for one expanded, explored table stack.

    Implements exactly the scalar winning criterion per target node:
    SCCs of the target-avoiding arena (live: restricted to the
    avoiding-from-round-0 region), at least one internal transition,
    label union missing at most *budget* edges, SSYNC activation union
    covering every robot. Tables trapped at a target drop out of the
    later targets, mirroring the scalar first-winning-target exit.

    All reachability state lives in uint64 bit-rows: the arena is the
    visited bitmask AND the target-avoiding mask, its adjacency is the
    full-space successor bitmasks masked to the arena, and the
    bit-parallel Floyd–Warshall only iterates vias over avoiding states
    present in some table's arena.
    """
    np = _np
    batch = succ.shape[0]
    budget = 1 if sp.topology.is_ring else 0
    ssync = sp.scheduler == "ssync"
    seed_idx = np.array(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    trapped = np.zeros(batch, dtype=bool)
    undecided = np.arange(batch)
    for target in range(sp.n):
        if undecided.size == 0:
            break
        avoid, avoid_mask, sel, labels_sel, eye_sel = sp.target_view(target)
        count = undecided.size
        if count == batch:
            vis_u, mask_u, adj_u, succ_u = visited, vis_mask, adj_full, succ
        else:
            vis_u = visited[undecided]
            mask_u = vis_mask[undecided]
            adj_u = adj_full[undecided]
            succ_u = succ[undecided]
        arena = vis_u & avoid[None, :]
        arena_mask = mask_u & avoid_mask[None, :]
        # Arena adjacency bit-rows: successor masks clipped to the arena,
        # rows of non-arena states zeroed; then bit-parallel
        # Floyd–Warshall — after the loop, bit v of reach[u, s] says
        # "v reachable from s via a non-empty arena path of table u".
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
            # The live arena: states reachable from target-avoiding seeds
            # through target-avoiding states. Forward-closed within the
            # arena, so SCC membership filtering reproduces the scalar
            # allowed-set restriction exactly.
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
        # SCCs over the avoiding states only: mutual reachability among
        # sel rows/columns, component id = position of the first mutual
        # partner (scattered back to full-space ids so successor lookups
        # work; non-avoiding states get -1, masked by membership).
        forward = _unpack(reach[:, sel, :], sp.space, as_bool=False)[:, :, sel]
        mutual = forward & forward.transpose(0, 2, 1)
        mutual |= eye_sel
        csrc = np.argmax(mutual, axis=2).astype(np.int16)
        comp = np.full((count, sp.space), -1, dtype=np.int16)
        comp[:, sel] = csrc
        # Internal transitions, rows restricted to the avoiding states:
        # both endpoints in the member set and in the same component.
        # Sentinel trick: non-member sources get comp -2 and non-member
        # successors comp -1, so one equality test covers membership of
        # both endpoints and the same-component condition at once.
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


def _sub_batch(sp: DenseSpace) -> int:
    """Tables per sub-batch, bounding the dense tensors' footprint."""
    per_table = sp.space * sp.branch
    limit = min(
        BATCH_CELL_TARGET // per_table,
        BATCH_PAIR_TARGET // (sp.space * sp.space),
    )
    # Floor: below ~64 tables the per-call overhead dominates the math.
    return max(64, limit)


def solve_tables(
    kernel: PackedKernel,
    tables: Sequence[tuple],
    seeds: Sequence[int],
    prop: str,
    max_states: int = 2_000_000,
    timings: Optional[dict] = None,
) -> tuple[list[bool], list[int]]:
    """Solve a whole stack of tables under one chirality vector.

    ``kernel`` supplies the geometry (any member of the family works —
    the dense space is table-independent); ``tables`` is a list of
    ``(state_count, transitions, dir_bits)`` triples as produced by
    :meth:`TableAlgorithm.packed_tables`. Returns per-table
    ``(trapped, states_explored)`` lists matching the scalar
    :func:`~repro.verification.game.verify_exploration` tallies
    bit-for-bit. ``timings`` (optional dict) accumulates
    ``compile`` / ``frontier`` / ``scc`` phase seconds.
    """
    np = _np
    sp = dense_space(kernel)
    mark = time.perf_counter()
    for state_count, _trans, _dirs in tables:
        if state_count != sp.S:
            raise VerificationError(
                f"table state count {state_count} != family state count {sp.S}"
            )
    trans = np.array([t for _s, t, _d in tables], dtype=np.int64)
    dirs = np.array([d for _s, _t, d in tables], dtype=np.int64)
    seed_list = [int(s) for s in seeds]
    if timings is not None:
        timings["compile"] = timings.get("compile", 0.0) + (
            time.perf_counter() - mark
        )
    trapped: list[bool] = []
    explored: list[int] = []
    step = _sub_batch(sp)
    for start in range(0, len(tables), step):
        mark = time.perf_counter()
        succ = _expand(sp, trans[start : start + step], dirs[start : start + step])
        adj_full = _adjacency(sp, succ)
        visited, vis_mask = _reachable(sp, adj_full, seed_list)
        counts = visited.sum(axis=1)
        if timings is not None:
            timings["frontier"] = timings.get("frontier", 0.0) + (
                time.perf_counter() - mark
            )
        if sp.space > max_states and (counts > max_states).any():
            index = int(np.nonzero(counts > max_states)[0][0])
            raise VerificationError(
                f"reachable state space exceeds {max_states} states for "
                f"table {start + index} on {sp.topology!r}"
            )
        mark = time.perf_counter()
        hits = _solve(sp, succ, adj_full, visited, vis_mask, seed_list, prop)
        if timings is not None:
            timings["scc"] = timings.get("scc", 0.0) + (
                time.perf_counter() - mark
            )
        trapped.extend(bool(h) for h in hits)
        explored.extend(int(c) for c in counts)
    return trapped, explored


def _frontier_tables(kernel: PackedKernel) -> tuple:
    """Process-cached, table-independent geometry of the sparse frontier.

    Returns ``(occ_keys, moves_pad, mcount, robots)``: the ascending
    occupied-node masks a state can have (popcount ``1..k`` — robots
    sharing a node occupy fewer), the adversary move table padded over
    exactly those rows (width 64 at k=3, not the 256 of all ``2^n``
    occupancies on an 8-ring) with each row's valid length, and per robot
    its chirality's node tables (left/right port masks, pointed-edge
    masks, landing nodes) as int64 arrays.
    """
    key = (kernel.topology, kernel.chiralities)
    cached = _frontier_cache.get(key)
    if cached is None:
        np = _np
        occ_keys = sorted(
            sum(1 << node for node in nodes)
            for size in range(1, min(kernel.k, kernel.n) + 1)
            for nodes in itertools.combinations(range(kernel.n), size)
        )
        moves_pad, mcount = kernel.padded_moves(occ_keys)
        robots = tuple(
            _np_node_tables(kernel.topology, chirality)[:4]
            for chirality in kernel.chiralities
        )
        cached = (np.asarray(occ_keys, dtype=np.int64), moves_pad, mcount, robots)
        _frontier_cache[key] = cached
    return cached


def _expand_frontier(
    kernel: PackedKernel, tables: tuple, trans: "object", dirs: "object",
    frontier: "object",
) -> tuple:
    """Every transition of a frontier of packed states, in kernel order.

    Returns ``(succ, labels, deg, occ)``: the flat successor and label
    arrays (per state, moves in :meth:`PackedKernel.moves_for_occupied`
    order; under SSYNC each move crossed with activation masks
    ``1..full_act`` ascending), the per-state transition count and the
    occupied-node masks. One gather per robot resolves view, computed
    state, direction and landing node for all padded moves at once.
    """
    np = _np
    occ_keys, moves_pad, mcount, robots = tables
    base, S = kernel._base, kernel.state_count
    slots, pos = [], []
    rest = frontier
    for _ in range(kernel.k):
        slot = rest % base
        rest = rest // base
        slots.append(slot)
        pos.append(slot // S)
    occ = np.zeros_like(frontier)
    towers = np.zeros_like(frontier)
    for p in pos:
        bit = np.left_shift(1, p)
        towers |= occ & bit
        occ |= bit
    row = np.searchsorted(occ_keys, occ)
    moves = moves_pad[row]
    count = mcount[row]
    active = []
    for i, (left, right, move_masks, move_dests) in enumerate(robots):
        p = pos[i]
        view = (slots[i] % S) * 8 + ((towers >> p) & 1)
        view = (
            view[:, None]
            + 4 * ((moves & left[p][:, None]) != 0)
            + 2 * ((moves & right[p][:, None]) != 0)
        )
        new_state = trans[view]
        pointer = p[:, None] * 2 + dirs[new_state]
        landing = np.where(
            (moves & move_masks[pointer]) != 0, move_dests[pointer], p[:, None]
        )
        active.append(landing * S + new_state)
    valid = np.arange(moves.shape[1])[None, :] < count[:, None]
    if kernel.scheduler != "ssync":
        succ = active[-1]
        for i in range(kernel.k - 2, -1, -1):
            succ = succ * base + active[i]
        return succ[valid], moves[valid], count, occ
    parts = []
    for act in range(1, kernel.full_act + 1):
        succ = None
        for i in range(kernel.k - 1, -1, -1):
            part = active[i] if act >> i & 1 else slots[i][:, None]
            succ = part if succ is None else succ * base + part
        parts.append(np.broadcast_to(succ, moves.shape))
    acts = np.arange(1, kernel.full_act + 1, dtype=np.int64) << kernel.act_shift
    labels = moves[:, :, None] | acts
    return (
        np.stack(parts, axis=-1)[valid].reshape(-1),
        labels[valid].reshape(-1),
        count * kernel.full_act,
        occ,
    )


def reachable_csr(
    kernel: PackedKernel, seeds: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int], list[int], list[int]]:
    """One table's reachable graph in canonical CSR form, in NumPy.

    A level-synchronous int64 frontier over the reached states only, so
    it serves any instance whose packed states fit in int64 — no dense
    ``base^k`` materialization. Each level expands the whole frontier at
    once (:func:`_expand_frontier`), deduplicates the successors against
    the visited set (``np.unique`` + ``np.isin``) and keeps its
    transition rows; the levels are then permuted into ascending state
    order without a second traversal.

    Returns ``(states, indptr, labels, succs, occ, seed_idx)`` as plain
    Python lists: reached packed states ascending, per-state transitions
    in the scalar kernel's move order (SSYNC mask-major /
    activation-minor), occupied-node bitmask per state and seed indices
    in first-occurrence order — exactly the CSR the packed backend
    builds from ``PackedKernel.reachable``, so the shared solve phase in
    :mod:`repro.verification.game` produces bit-identical verdicts and
    certificates. Raises :class:`VerificationError` on the same
    ``max_states`` overflow the scalar path reports.
    """
    _require_numpy()
    np = _np
    if (
        kernel._base ** kernel.k > _INT64_BOUND
        or 1 << (kernel.act_shift + kernel.k) > _INT64_BOUND
    ):
        raise VerificationError(
            f"packed states or move labels of {kernel.algorithm.name!r} on "
            f"{kernel.topology!r} with k={kernel.k} overflow int64; "
            "use backend='packed'"
        )
    tables = _frontier_tables(kernel)
    trans, dirs, _initial = kernel.batch_tables()
    seed_array = np.asarray([int(s) for s in seeds], dtype=np.int64)
    if not seed_array.size:
        return [], [0], [], [], [], []
    visited = np.unique(seed_array)
    frontier = visited
    levels = []
    while frontier.size:
        level = _expand_frontier(kernel, tables, trans, dirs, frontier)
        levels.append((frontier,) + level)
        fresh = np.unique(level[0])
        fresh = fresh[~np.isin(fresh, visited, assume_unique=True)]
        if fresh.size and visited.size + fresh.size > kernel.max_states:
            raise VerificationError(
                f"reachable state space exceeds {kernel.max_states} states "
                f"for {kernel.algorithm.name!r} on {kernel.topology!r}"
            )
        visited = np.concatenate([visited, fresh])
        visited.sort()
        frontier = fresh
    # Levels → canonical order: sort the reached states, then gather each
    # state's contiguous transition run from its level's rows.
    states, succ, labels, deg, occ = (
        np.concatenate([level[part] for level in levels]) for part in range(5)
    )
    starts = np.cumsum(deg) - deg
    order = np.argsort(states)
    deg = deg[order]
    indptr = np.zeros(deg.size + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    gather = np.repeat(starts[order] - indptr[:-1], deg) + np.arange(indptr[-1])
    states = states[order]
    seed_idx: list[int] = []
    seen: set[int] = set()
    for idx in np.searchsorted(states, seed_array).tolist():
        if idx not in seen:
            seen.add(idx)
            seed_idx.append(idx)
    return (
        states.tolist(),
        indptr.tolist(),
        labels[gather].tolist(),
        np.searchsorted(states, succ[gather]).tolist(),
        occ[order].tolist(),
        seed_idx,
    )


__all__ = [
    "MAX_DENSE_STATES",
    "MAX_DENSE_CELLS",
    "DenseSpace",
    "dense_eligible",
    "dense_space",
    "have_numpy",
    "reachable_csr",
    "solve_tables",
]
