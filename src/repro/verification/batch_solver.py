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
solved in lockstep. The chunk arrives as one ``(B, S·8)`` int64 stack —
a sweep decodes its bit patterns straight into it with shifts and masks
(:func:`decode_tables`), building no per-table object — and a table
state's direction bit is its low bit, so no direction table comes with
it:

* **expand** — per robot one gather of the table stack and one select
  between two precompiled weighted landing shares turn the stack of
  Look–Compute tables into the full dense successor tensor
  ``succ[b, p, j]`` over every state ``p`` and adversary move ``j`` —
  a successor is the sum of its robots' shares. A move is an edge mask
  crossed with one of the kernel's activation columns
  (:attr:`~repro.verification.compiled.CompiledTables.activations`:
  FSYNC's single all-active column, SSYNC's every non-empty robot
  subset), edge-mask-major like ``PackedKernel.reachable``; a robot a
  column leaves idle contributes its precompiled idle share;
* **frontier** — reachability is breadth-first over word-major
  ``(B, words, P)`` successor bit-rows (one word: an OR-reduce of the
  successors' bits; more: one scatter into a flag plane plus
  ``packbits``): each level ORs the rows of the whole frontier of the
  whole batch along the contiguous state axis;
* **scc** — per target node, the ``L`` states avoiding it get local ids
  ``0..L-1`` (:meth:`DenseSpace.target_view`). Under ``perpetual`` a
  self-loop step runs first: an arena state whose own self-loop labels
  already miss at most *budget* edges and, under SSYNC, activate every
  robot lies on a cycle whose component contains those labels, so its
  table is trapped without a closure — most sampled tables are decided
  here. The rest (and every ``live`` table, whose arena membership
  needs the closure rows) take the closure pass on ``⌈L/64⌉``-word
  bit-rows rather than ``⌈P/64⌉`` — one word up to n=5 for two
  memoryless robots. The arena's transitive closure is a bit-parallel
  Floyd–Warshall (``L`` vector steps instead of a per-state Tarjan);
  mutual reachability marks the states on a cycle and, per transition,
  whether it stays inside its SCC; and the winning criterion — an SCC
  with an internal transition whose label union misses at most
  *budget* edges and, under SSYNC, activates every robot — is one
  OR-reduce over the mutual-reachability matrix plus a popcount.
  Tables proven trapped at a target drop out of the remaining targets,
  exactly like the scalar early exit.

The dense tensors stop paying off past a few thousand states
(:func:`dense_eligible`), and the paper's own positive algorithm leaves
that range early: ``PEF_3+`` at k=3 has ``base^k = 32768`` at n=8, 61%
of it reachable. Single instances of any size take the **frontier**
path instead — :func:`reachable_csr`, two passes over one dense id map
of ``base^k`` entries. Pass 1, a level-synchronous BFS, only marks the
reached states; pass 2 numbers them ascending through the map and
expands them again in row slices of bounded size, writing each slice's
narrow labels and int32 successor indices (one gather from the map)
straight into the preallocated final arrays. Per slice it decodes the
slice's states, gathers their valid adversary moves out of a move CSR
(spanning only occupancies with popcount ``≤ k``) and resolves all
their successors at once: a robot's next slot depends only on its slot,
its tower bit and the two edge bits of its view (the edge it moves
through is one of them), so each call folds the Look–Compute table and
the landing nodes into one ``base · 8``-entry table per robot
(:func:`_fold_steps`), read with one lookup per robot and transition.
The result is the per-table CSR — states ascending, per-state
transitions in the scalar kernel's move order, the *same* canonical
graph the packed backend builds from ``PackedKernel.reachable`` — so
vector and packed verdicts and certificates are bit-identical by
construction. It feeds the shared
solve phase in :mod:`repro.verification.game` (``verify`` and the
certificate path of validated sweeps), which stays on the arrays: the
NumPy kernels at the end of this module check rotation closure
(:func:`rotation_closed`), grow the live arena
(:func:`avoid_reachable`) and build each target's deduplicated arena
(:func:`arena_csr`), handed to the Python Tarjan walk as compact stdlib
arrays. There is no scalar size fallback.

Given swap classes (``verify`` under FSYNC on rings from the default
seeds), :func:`reachable_csr` builds the robot-permutation quotient
instead (:mod:`repro.verification.game` proves it sound): per slice,
:func:`_expand_frontier` sorts the per-robot slot arrays within each
chirality class by a min/max sorting network (:func:`_sort_classes`)
before it encodes them, so both passes and the map see orbit
representatives only. Each representative is expanded through its
*lift*, the real state it was first reached as, and pass 2 records per
representative which robots of robot 0's class the transitions entering
it swap against its lift, for the exactness check. For ``PEF_3+`` at
k=3 n=8 the
two chirality vectors' 21,504 + 18,816 states become 3,584 + 9,408.

NumPy stays optional and is loaded on first use through
:func:`repro.verification.batch.require_numpy`: callers guard with
:func:`have_numpy` (via the backend registry) and run the scalar packed path (identical tallies)
when the dependency is absent; sweep chunks that are not
:func:`dense_eligible` go per table through the frontier path.
"""

from __future__ import annotations

import itertools
import time
from array import array
from typing import Optional, Sequence

from repro.errors import VerificationError
from repro.verification.batch import _np_node_tables, have_numpy, require_numpy
from repro.verification.compiled import SwapClasses
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

#: Cap on ``U · P²`` per sub-batch, for ``P`` dense states. It bounds the
#: SCC pass's ``(U, L, L)`` tensors over a target's ``L ≤ P`` avoiding
#: states; bounding by ``L²`` instead grows the sub-batches and peak RSS
#: (+3.4 MB on a 16,384-table two-robot n=5 sweep) for no measured speedup.
BATCH_PAIR_TARGET = 1 << 20

#: Bits per uint64 word of a reachability bit-row.
_BITS = 64

#: Bound on move labels (edge bits, then activation bits) for the int64
#: frontier.
_INT64_BOUND = 1 << 62

#: Entries of :func:`reachable_csr`'s dense id map, one per packed state
#: of ``base^k`` (a flag, then an index); larger spaces are refused with
#: a pointer to the packed backend. ``PEF_3+`` at k=4 n=8 needs 2^20.
_MAP_STATES = 1 << 26

#: Offsets and indices below this bound are stored as int32.
_INDEX_BOUND = 1 << 31

#: Transitions per build slice: :func:`reachable_csr` expands the states
#: of each pass, and :func:`arena_csr` deduplicates an arena's pairs, at
#: most this many transitions at a time (one longer row excepted), so
#: their int64 temporaries stay bounded whatever the graph's size. The
#: largest level of ``verify pef3+ --n 8 --k 3`` (152k transitions) is
#: cut into five slices.
_SLICE_TRANSITIONS = 1 << 15

_space_cache: dict = {}
_frontier_cache: dict = {}


def _word_count(count: int) -> int:
    """uint64 words per bit-row over ``count`` ids."""
    return (count + _BITS - 1) // _BITS


def _label_bits(kernel: PackedKernel) -> int:
    """Bits of a full transition label: the edge bits, then whatever
    activation bits the kernel's columns tag above them."""
    top = max(label_bits for _act, label_bits in kernel.activations)
    return max(kernel.m, top.bit_length())


def _value_dtype(bits: int) -> "object":
    """The narrowest signed integer dtype that holds every ``bits``-bit
    value (``0 .. 2**bits - 1``) — labels and occupied-node masks."""
    np = require_numpy()
    for dtype in (np.int8, np.int16, np.int32):
        if bits < np.iinfo(dtype).bits:
            return dtype
    return np.int64


def _index_dtype(top: int) -> "object":
    """int32 for indices and offsets up to ``top`` when they fit below
    :data:`_INDEX_BOUND`, int64 otherwise (SSYNC at k=4 can pass 2^31
    transitions)."""
    np = require_numpy()
    return np.int32 if top < _INDEX_BOUND else np.int64


def _branch_bound(kernel: PackedKernel) -> int:
    """Upper bound on per-state branching (moves × activation columns)."""
    return (1 << min(2 * kernel.k, kernel.m)) * len(kernel.activations)


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
        np = require_numpy()
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
        self.activations = kernel.activations
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

        moves_pad = kernel.padded_moves(occ.tolist())

        # Per robot ``(view, moved0, flip, step, idle)``, all
        # table-independent: the full view row (state row + multiplicity
        # + left/right occupancy bits per move), and the parts of the
        # robot's weighted share ``slot · base^i`` of a successor. A
        # computed state ``t`` lands on slot ``landing(t & 1) · S + t``,
        # so the share is ``moved[t & 1] + (t >> 1) · step`` with
        # ``moved[d] = (landing(d) · S + d) · base^i``, ``flip = moved1 -
        # moved0`` and ``step = 2 · base^i``; ``idle`` is the share of a
        # robot SSYNC leaves inactive. int16 throughout: every value is a
        # state/slot/row index below 2^15 (the dense caps guarantee it),
        # and the expansion tensors are memory-bound.
        self.robots = []
        for i in range(k):
            left, right, mm, md = kernel._robot_tables[i]
            left = np.asarray(left, dtype=np.int64)[pos[i]]
            right = np.asarray(right, dtype=np.int64)[pos[i]]
            mm = np.asarray(mm, dtype=np.int64)
            md = np.asarray(md, dtype=np.int64)
            weight = self.base**i
            view = (slots[i] % S) * 8 + ((tow >> pos[i]) & 1)
            view = (
                view[:, None]
                + 4 * ((moves_pad & left[:, None]) != 0)
                + 2 * ((moves_pad & right[:, None]) != 0)
            ).astype(np.int16)
            moved = []
            for dir_bit in (0, 1):
                pointer = pos[i] * 2 + dir_bit
                hit = (moves_pad & mm[pointer][:, None]) != 0
                landing = np.where(hit, md[pointer][:, None], pos[i][:, None])
                moved.append((landing * S + dir_bit) * weight)
            self.robots.append((
                view,
                moved[0].astype(np.int16),
                (moved[1] - moved[0]).astype(np.int16),
                2 * weight,
                (slots[i] * weight).astype(np.int16)[:, None],
            ))

        # Narrowest integer dtype that holds a full transition label —
        # the label-union reductions are the solve loop's biggest tensors.
        # Move-major, activation-column-minor, like the kernel's order.
        label_bits = np.array([bits for _act, bits in self.activations])
        self.labels = (
            (moves_pad[:, :, None] | label_bits)
            .reshape(space, -1)
            .astype(_value_dtype(_label_bits(kernel)))
        )
        self.branch = self.labels.shape[1]
        self.pop = np.array(
            [bin(x).count("1") for x in range(1 << self.m)], dtype=np.int64
        )
        # Bit-row width and per-state bit, for the frontier's adjacency.
        self.words = _word_count(space)
        self.bitval = np.array(
            [1 << (s % _BITS) for s in range(space)], dtype=np.uint64
        )
        self._target_cache: dict = {}

    def target_view(self, target: int) -> tuple:
        """Cached arena-local geometry of one target's avoiding states.

        Returns ``(sel, local, labels_sel)``. ``sel`` holds the ``L``
        states that do not occupy ``target``, ascending; state ``sel[i]``
        has local id ``i``. ``local`` maps every state to its local id,
        or to ``L`` when it occupies ``target``. ``labels_sel`` are the
        label rows of ``sel``. The whole SCC pass runs over these ``L``
        local ids, never over the full space.
        """
        cached = self._target_cache.get(target)
        if cached is None:
            np = require_numpy()
            sel = np.flatnonzero(((self.occ >> target) & 1) == 0)
            local = np.full(self.space, sel.size, dtype=np.intp)
            local[sel] = np.arange(sel.size)
            cached = (sel, local, self.labels[sel])
            self._target_cache[target] = cached
        return cached


def dense_space(kernel: PackedKernel) -> DenseSpace:
    """The (process-cached) dense geometry for a kernel's instance."""
    require_numpy()
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


def _expand(sp: DenseSpace, trans: "object") -> "object":
    """The dense successor tensor ``(B, space, branch)`` of a table stack.

    ``trans`` is a ``(B, S·8)`` int stack. Per robot one gather reads the
    computed state ``t`` of every (state, move) cell, and one select picks
    the robot's precompiled weighted share for direction bit ``t & 1`` —
    arithmetically, ``moved0 + (t & 1)·(moved1 − moved0)``, about 3×
    faster than ``np.where`` on these broadcast int16 operands;
    ``(t >> 1)·2·base^i`` adds the rest of the state (zero when
    ``S = 2``). A successor is the sum of the shares: each partial
    activation column sums its active robots' shares and the idle shares
    of the others into its slot of the successor tensor, then the
    all-active column (the last) sums every robot's share in place.
    """
    np = require_numpy()
    steps = trans.astype(np.int16)
    count = steps.shape[0]
    moves = sp.robots[0][0].shape[1]
    # Batch-innermost, the memory order the gathers below leave their
    # results in, so every add streams and the reshape is a view.
    succ = np.empty(
        (sp.space, moves, len(sp.activations), count), dtype=np.int16
    ).transpose(3, 0, 1, 2)
    shares = []
    for view, moved0, flip, step, _idle in sp.robots:
        t = steps[:, view]
        # Robot 0's share is computed straight into the all-active column.
        share = np.bitwise_and(t, 1, out=None if shares else succ[..., -1])
        share *= flip
        share += moved0
        t >>= 1
        t *= step
        share += t
        shares.append(share)
    *partial, _all_active = sp.activations
    for c, (act, _bits) in enumerate(partial):
        parts = [
            share if act >> i & 1 else sp.robots[i][4]
            for i, share in enumerate(shares)
        ]
        column = succ[..., c]
        np.add(parts[0], parts[1] if sp.k > 1 else 0, out=column)
        for part in parts[2:]:
            column += part
    for share in shares[1:]:
        shares[0] += share
    return succ.reshape(count, sp.space, -1)


def _unpack(rows: "object", count: int, as_bool: bool = True) -> "object":
    """Bit-rows ``(..., words)`` uint64 → ``(..., count)`` flags.

    ``as_bool=False`` returns the raw 0/1 uint8 plane (one copy fewer)
    for consumers that only mask or reduce it.
    """
    np = require_numpy()
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


def _pack(flags: "object", words: int) -> "object":
    """0/1 flags ``(..., count)`` → bit-rows ``(..., words)`` uint64.

    The inverse of :func:`_unpack`; bits past ``count`` are zero.
    """
    np = require_numpy()
    lead, count = flags.shape[:-1], flags.shape[-1]
    if np.little_endian:
        packed = np.packbits(flags, axis=-1, bitorder="little")
        if packed.shape[-1] != words * 8:
            padded = np.zeros(lead + (words * 8,), dtype=np.uint8)
            padded[..., : packed.shape[-1]] = packed
            packed = padded
        return packed.view(np.uint64)
    padded = np.zeros(lead + (words * _BITS,), dtype=np.uint64)
    padded[..., :count] = flags
    weights = np.uint64(1) << np.arange(_BITS, dtype=np.uint64)
    return np.bitwise_or.reduce(
        padded.reshape(lead + (words, _BITS)) * weights, axis=-1
    )


def _adjacency(sp: DenseSpace, succ: "object") -> "object":
    """Per-state successor bitmasks ``(B, P, words)`` of a batch.

    Stored word-major — a ``(B, P, words)`` view of a contiguous
    ``(B, words, P)`` array — so :func:`_reachable` reduces along the
    contiguous axis. One word: the successors' bit values OR-reduced per
    state. More: one scatter into a ``(B, P, P)`` flag plane, then
    :func:`_pack`.
    """
    np = require_numpy()
    batch = succ.shape[0]
    if sp.words == 1:
        return np.bitwise_or.reduce(sp.bitval[succ], axis=2)[:, :, None]
    flags = np.zeros((batch, sp.space, sp.space), dtype=np.uint8)
    starts = np.arange(batch * sp.space).reshape(batch, sp.space, 1)
    flags.reshape(-1)[starts * sp.space + succ] = 1
    rows = _pack(flags, sp.words).transpose(0, 2, 1)
    return np.ascontiguousarray(rows).transpose(0, 2, 1)


def _reachable(
    sp: DenseSpace, adj: "object", seeds: Sequence[int]
) -> "object":
    """Lockstep BFS over successor bitmasks.

    Each level ORs the adjacency rows of the whole frontier of the whole
    batch — no per-state scatter — reducing each word over the states of
    the word-major ``(B, words, P)`` rows. Returns the boolean ``(B, P)``
    visited bitmap.
    """
    np = require_numpy()
    batch = adj.shape[0]
    rows = adj.transpose(0, 2, 1)
    seed_mask = np.zeros(sp.words, dtype=np.uint64)
    for s in set(int(s) for s in seeds):
        seed_mask[s // _BITS] |= np.uint64(1 << (s % _BITS))
    vis_mask = np.broadcast_to(seed_mask, (batch, sp.words)).copy()
    frontier = vis_mask
    while True:
        hot = _unpack(frontier, sp.space, as_bool=False)
        nxt = np.bitwise_or.reduce(rows * hot[:, None, :], axis=2)
        nxt &= ~vis_mask
        if not nxt.any():
            break
        vis_mask |= nxt
        frontier = nxt
    return _unpack(vis_mask, sp.space)


def _winning_union(sp: DenseSpace, union: "object") -> "object":
    """Whether each label union misses at most *budget* edges and, under
    SSYNC, activates every robot (an empty union never does)."""
    budget = 1 if sp.topology.is_ring else 0
    ok = sp.pop[(~union) & sp.full_mask] <= budget
    if sp.scheduler == "ssync":
        ok &= (union >> sp.act_shift) == sp.full_act
    return ok


def _target_wins(
    sp: DenseSpace,
    succ: "object",
    visited: "object",
    seed_idx: "object",
    target: int,
    prop: str,
) -> "object":
    """Per-table flags ``(U,)``: does the adversary win by starving *target*?

    The scalar winning criterion, on arena-local ids: an SCC of the
    target-avoiding arena (live: restricted to the avoiding-from-round-0
    region) with at least one internal transition, whose label union
    misses at most *budget* edges and, under SSYNC, activates every
    robot. Everything runs over the ``L`` avoiding states of
    :meth:`DenseSpace.target_view` and their successors
    ``succ[:, sel, :]``:

    * **self-loops** (``perpetual`` only) — an arena state whose own
      self-loop labels already form a winning union lies on a cycle, and
      its component's union contains those labels, so the table wins
      without any closure. Most tables are decided here;
    * **closure** — the rest go through :func:`_closure_wins`, on the
      successors' local ids. ``live`` membership needs the closure rows,
      so every ``live`` table takes this full pass.
    """
    np = require_numpy()
    sel, local, labels_sel = sp.target_view(target)
    arena = visited[:, sel]
    out = succ[:, sel]
    if prop == "live":
        return _closure_wins(
            sp, local[out], arena, sel, labels_sel, seed_idx, prop
        )
    loops = out == sel.astype(out.dtype)[:, None]
    union = np.bitwise_or.reduce(loops * labels_sel, axis=2)
    wins = (_winning_union(sp, union) & arena).any(axis=1)
    rest = np.flatnonzero(~wins)
    if rest.size:
        wins[rest] = _closure_wins(
            sp, local[out[rest]], arena[rest], sel, labels_sel, seed_idx, prop
        )
    return wins


def _closure_wins(
    sp: DenseSpace,
    loc: "object",
    arena: "object",
    sel: "object",
    labels_sel: "object",
    seed_idx: "object",
    prop: str,
) -> "object":
    """:func:`_target_wins` by the full closure pass, in ``⌈L/64⌉``-word
    bit-rows over the successor local ids ``loc`` ``(U, L, branch)``:

    * **adjacency** — ``loc`` places every transition of an avoiding
      state in a ``(U, L, L + 1)`` flag plane, column ``L`` catching
      successors that occupy the target; packed into bit-rows, with the
      rows of states outside the table's arena zeroed (the visited set
      is closed under successors, so no column mask is needed);
    * **closure** — bit-parallel Floyd–Warshall over the vias present in
      some table's arena: bit ``v`` of ``reach[u, s]`` says "``v``
      reachable from ``s`` via a non-empty arena path of table ``u``";
    * **SCCs** — ``mutual = reach ∧ reachᵀ``. Its diagonal flags the
      states on a cycle, i.e. those whose SCC has an internal
      transition; a transition ``s → t`` is internal iff ``mutual[s,
      t]`` (``t`` reaches ``s`` back), read through the same cells as
      the adjacency;
    * **unions** — per-state unions of internal labels are OR-reduced
      over each state's mutual row, giving every state its component's
      union in one step.
    """
    np = require_numpy()
    count, size = loc.shape[0], sel.size
    words = _word_count(size)
    # Flat (U, L, L + 1) position of every transition of an avoiding
    # state: row (table, source), column = the successor's local id.
    cells = loc + (np.arange(count * size) * (size + 1)).reshape(
        count, size, 1
    )
    flags = np.zeros((count, size, size + 1), dtype=np.uint8)
    flags.reshape(-1)[cells] = 1
    reach = _pack(flags[:, :, :size], words)
    reach *= arena[:, :, None]
    one = np.uint64(1)
    vias = np.flatnonzero(arena.any(axis=0)).tolist()
    if words == 1:
        flat = reach[:, :, 0]
        for via in vias:
            flat |= ((flat >> np.uint64(via)) & one) * flat[:, via, None]
    else:
        for via in vias:
            hot = (reach[:, :, via // _BITS] >> np.uint64(via % _BITS)) & one
            reach |= hot[:, :, None] * reach[:, via, None, :]
    if prop == "live":
        # The live arena: states reachable from target-avoiding seeds
        # through target-avoiding states (closure rows only hold arena
        # states). Forward-closed within the arena, so it holds whole
        # SCCs and reproduces the scalar allowed-set restriction exactly.
        # A seed outside every seed's closure row is on no cycle, so it
        # can never win and need not be a member.
        seeds = np.flatnonzero(np.isin(sel, seed_idx))
        rows = np.bitwise_or.reduce(
            np.where(arena[:, seeds, None], reach[:, seeds, :], 0), axis=1
        )
        member = _unpack(rows, size)
    else:
        member = arena
    forward = _unpack(reach, size, as_bool=False)
    # Column L stays zero: a successor occupying the target is never
    # internal.
    mutual = np.zeros((count, size, size + 1), dtype=np.uint8)
    np.bitwise_and(
        forward, forward.transpose(0, 2, 1), out=mutual[:, :, :size]
    )
    cyclic = np.diagonal(mutual, axis1=1, axis2=2).astype(bool)
    # Internal transitions need no membership mask: a component is
    # either wholly in the member set or wholly out of it, and only
    # member states on a cycle can win below.
    internal = mutual.reshape(-1)[cells]
    state_union = np.bitwise_or.reduce(internal * labels_sel[None], axis=2)
    union = np.bitwise_or.reduce(
        mutual[:, :, :size] * state_union[:, None, :], axis=2
    )
    ok = cyclic & member & _winning_union(sp, union)
    return ok.any(axis=1)


def _solve(
    sp: DenseSpace,
    succ: "object",
    visited: "object",
    seeds: Sequence[int],
    prop: str,
) -> "object":
    """Trapped flags ``(B,)`` for one expanded, explored table stack.

    Target by target (:func:`_target_wins`); tables trapped at a target
    drop out of the later targets, mirroring the scalar
    first-winning-target exit.
    """
    np = require_numpy()
    batch = succ.shape[0]
    seed_idx = np.array(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    trapped = np.zeros(batch, dtype=bool)
    undecided = np.arange(batch)
    for target in range(sp.n):
        if undecided.size == 0:
            break
        if undecided.size == batch:
            succ_u, vis_u = succ, visited
        else:
            succ_u, vis_u = succ[undecided], visited[undecided]
        win = _target_wins(sp, succ_u, vis_u, seed_idx, target, prop)
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


def decode_tables(
    patterns: Sequence[int], width: int, digits: Sequence[int]
) -> "object":
    """Decode table bit patterns into a ``(B, len(digits))`` int64 stack.

    Entry ``i`` of every table is digit ``digits[i]`` of its pattern, a
    digit being ``width`` bits wide (``width=1`` for memoryless tables,
    ``2`` for memory-2 tables, whose patterns fill a uint64). The shifts
    stay uint64 throughout: NumPy refuses mixed uint64/int64 operands.
    Patterns must already lie in their family's domain — the caller
    range-checks them.
    """
    np = require_numpy()
    packed = np.array(patterns, dtype=np.uint64).reshape(-1, 1)
    shifts = np.array(digits, dtype=np.uint64) * np.uint64(width)
    mask = np.uint64((1 << width) - 1)
    return ((packed >> shifts) & mask).astype(np.int64)


def solve_tables(
    kernel: PackedKernel,
    tables: "object",
    seeds: Sequence[int],
    prop: str,
    max_states: int = 2_000_000,
    timings: Optional[dict] = None,
) -> tuple[list[bool], list[int]]:
    """Solve a whole stack of tables under one chirality vector.

    ``kernel`` supplies the geometry (any member of the family works —
    the dense space is table-independent); ``tables`` is a ``(B, S·8)``
    int stack of Look–Compute tables, row ``b`` laid out like
    :meth:`TableAlgorithm.packed_tables`' ``transitions``
    (:func:`decode_tables` builds it from bit patterns). A table state's
    direction bit is its low bit, so no ``dir_bits`` are passed. Raises
    :class:`VerificationError` on a stack of the wrong width or an entry
    outside ``0..S-1``. Returns per-table ``(trapped, states_explored)``
    lists matching the scalar
    :func:`~repro.verification.game.verify_exploration` tallies
    bit-for-bit. ``timings`` (optional dict) accumulates
    ``compile`` / ``frontier`` / ``scc`` phase seconds.
    """
    np = require_numpy()
    sp = dense_space(kernel)
    mark = time.perf_counter()
    trans = np.asarray(tables, dtype=np.int64)
    if trans.ndim != 2 or trans.shape[1] != sp.S * 8:
        raise VerificationError(
            f"table stack of shape {trans.shape} is not (B, {sp.S * 8}) for "
            f"family state count {sp.S}"
        )
    if trans.size and (trans.min() < 0 or trans.max() >= sp.S):
        raise VerificationError(
            f"table stack holds entries outside 0..{sp.S - 1}"
        )
    seed_list = [int(s) for s in seeds]
    if timings is not None:
        timings["compile"] = timings.get("compile", 0.0) + (
            time.perf_counter() - mark
        )
    trapped: list[bool] = []
    explored: list[int] = []
    step = _sub_batch(sp)
    for start in range(0, len(trans), step):
        mark = time.perf_counter()
        succ = _expand(sp, trans[start : start + step])
        visited = _reachable(sp, _adjacency(sp, succ), seed_list)
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
        hits = _solve(sp, succ, visited, seed_list, prop)
        if timings is not None:
            timings["scc"] = timings.get("scc", 0.0) + (
                time.perf_counter() - mark
            )
        trapped.extend(bool(h) for h in hits)
        explored.extend(int(c) for c in counts)
    return trapped, explored


def _frontier_tables(kernel: PackedKernel) -> tuple:
    """Process-cached, table-independent geometry of the sparse frontier.

    Returns ``(occ_keys, move_ptr, moves, view_bits)``. ``occ_keys`` are
    the ascending occupied-node masks a state can have (popcount ``1..k``
    — robots sharing a node occupy fewer); the adversary moves of
    ``occ_keys[r]`` are ``moves[move_ptr[r]:move_ptr[r + 1]]``, in
    :meth:`PackedKernel.moves_for_occupied` order. Per robot,
    ``view_bits[cell]`` folds its chirality's ports over every (move,
    node) *cell* ``m · n + node``: the ``4·left + 2·right`` edge-presence
    part of its view there. Where the robot lands is not stored: the
    edge it moves through is one of those two (:func:`_fold_steps`).
    """
    key = (kernel.topology, kernel.chiralities)
    cached = _frontier_cache.get(key)
    if cached is None:
        np = require_numpy()
        occ_keys = sorted(
            sum(1 << node for node in nodes)
            for size in range(1, min(kernel.k, kernel.n) + 1)
            for nodes in itertools.combinations(range(kernel.n), size)
        )
        rows = [kernel.moves_for_occupied(occ) for occ in occ_keys]
        move_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=move_ptr[1:])
        moves = np.array([move for row in rows for move in row], dtype=np.int64)
        view_bits = {}
        for chirality in dict.fromkeys(kernel.chiralities):
            left, right = _np_node_tables(kernel.topology, chirality)[:2]
            view_bits[chirality] = (
                4 * ((moves[:, None] & left) != 0)
                + 2 * ((moves[:, None] & right) != 0)
            ).reshape(-1)
        cached = (
            np.asarray(occ_keys, dtype=np.int64),
            move_ptr,
            moves,
            [view_bits[chirality] for chirality in kernel.chiralities],
        )
        _frontier_cache[key] = cached
    return cached


def _fold_steps(kernel: PackedKernel) -> list:
    """Per robot, its whole round as one table over ``slot · 8 + view``.

    ``view`` is the low three bits of a Look–Compute view: ``4·left +
    2·right`` edge presence plus the tower bit. The computed state's
    direction bit picks the left (0) or right (1) edge, whose presence
    is already one of those view bits, so the landing node — the edge's
    far end when present, else the robot's own node — and with it the
    robot's next slot are a function of ``(slot, view)``. Robots of one
    chirality share a table of ``base · 8`` entries.
    """
    np = require_numpy()
    trans, dirs, _robots, _initial = kernel.simulation_tables()
    trans = np.asarray(trans, dtype=np.int64)
    steps = trans * 2 + np.asarray(dirs, dtype=np.int64)[trans]
    S = kernel.state_count
    slot = np.arange(kernel._base, dtype=np.int64)[:, None]
    node = slot // S
    view = np.arange(8, dtype=np.int64)
    step = steps[slot % S * 8 + view]
    dir_bit = step & 1
    present = (view >> (2 - dir_bit)) & 1
    folded = {}
    for chirality in dict.fromkeys(kernel.chiralities):
        move_dests = _np_node_tables(kernel.topology, chirality)[3]
        landing = np.where(present == 1, move_dests[node * 2 + dir_bit], node)
        folded[chirality] = (landing * S + (step >> 1)).reshape(-1)
    return [folded[chirality] for chirality in kernel.chiralities]


def _csr_rows(indptr: "object", rows: "object") -> "object":
    """Flat positions of the CSR rows ``rows``, row by row."""
    np = require_numpy()
    lo = indptr[rows]
    deg = indptr[rows + 1] - lo
    return np.repeat(lo - (np.cumsum(deg) - deg), deg) + np.arange(deg.sum())


def _distinct(values: "object") -> "object":
    """The distinct values of an integer array, ascending: ``np.unique``
    without its ``numpy.ma`` import (NumPy 2 loads that module to ask a
    plain array whether it is masked)."""
    np = require_numpy()
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _row_slices(deg: "object") -> "object":
    """Cut rows with ``deg`` transitions each into consecutive ``(lo, hi)``
    slices of at most :data:`_SLICE_TRANSITIONS` transitions (a longer
    row gets a slice of its own)."""
    np = require_numpy()
    ends = np.cumsum(deg)
    lo = 0
    while lo < deg.size:
        budget = ends[lo] - deg[lo] + _SLICE_TRANSITIONS
        hi = max(lo + 1, int(np.searchsorted(ends, budget, side="right")))
        yield lo, hi
        lo = hi


def _frontier_rows(
    kernel: PackedKernel, tables: tuple, states: "object"
) -> tuple:
    """Per packed state: its occupied-node mask, the row of its
    occupancy in the move CSR of :func:`_frontier_tables`, and its
    transition count (moves times activation columns)."""
    np = require_numpy()
    occ_keys, move_ptr, _moves, _robots = tables
    base, S = kernel._base, kernel.state_count
    occ = np.zeros_like(states)
    rest = states
    for _ in range(kernel.k):
        occ |= np.left_shift(1, rest % base // S)
        rest = rest // base
    row = np.searchsorted(occ_keys, occ)
    deg = (move_ptr[row + 1] - move_ptr[row]) * len(kernel.activations)
    return occ, row, deg


#: Min/max comparator networks that sort 2..5 values (1, 3, 5 and 9
#: comparators, the fewest possible); larger classes use insertion order.
_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 1), (0, 2), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: (
        (0, 1), (3, 4), (2, 4), (2, 3), (0, 3), (0, 2), (1, 4), (1, 3),
        (1, 2),
    ),
}


def _network(size: int) -> tuple[tuple[int, int], ...]:
    """A comparator network sorting ``size`` values ascending."""
    if size in _NETWORKS:
        return _NETWORKS[size]
    return tuple((j - 1, j) for i in range(1, size) for j in range(i, 0, -1))


def _sort_classes(slots: list, classes: SwapClasses) -> None:
    """Sort a list of per-robot slot arrays within each swap class: the
    vector form of :meth:`~repro.verification.compiled.CompiledTables
    .canonical`, one ``minimum``/``maximum`` pair per comparator and no
    decode or re-encode of the packed states. The list's entries are
    replaced, never written into."""
    np = require_numpy()
    for group in classes:
        for a, b in _network(len(group)):
            i, j = group[a], group[b]
            slots[i], slots[j] = (
                np.minimum(slots[i], slots[j]), np.maximum(slots[i], slots[j])
            )


def _digits(kernel: PackedKernel, states: "object") -> list:
    """The per-robot slot arrays of packed states, robot 0 first."""
    slots, rest = [], states
    for _ in range(kernel.k):
        slots.append(rest % kernel._base)
        rest = rest // kernel._base
    return slots


def _encode(kernel: PackedKernel, slots: list) -> "object":
    """Packed states from per-robot slot arrays (the inverse of
    :func:`_digits`)."""
    packed = slots[-1].copy()
    for slot in reversed(slots[:-1]):
        packed *= kernel._base
        packed += slot
    return packed


def canonical_states(
    kernel: PackedKernel, states: "object", classes: SwapClasses
) -> "object":
    """The orbit representatives of an int64 array of packed states."""
    slots = _digits(kernel, states)
    _sort_classes(slots, classes)
    return _encode(kernel, slots)


def orbit_sizes(
    kernel: PackedKernel, states: "object", classes: SwapClasses
) -> "object":
    """Per canonical packed state, the size of its orbit under robot
    permutations within ``classes`` (int64).

    Per class, its size factorial over the factorials of its equal
    slots' multiplicities, built one robot at a time like
    :meth:`~repro.verification.compiled.CompiledTables.orbit_size`;
    equal slots of a canonical state are adjacent within their class.
    """
    np = require_numpy()
    slots = _digits(kernel, states)
    size = np.ones(states.size, dtype=np.int64)
    for group in classes:
        run = np.ones(states.size, dtype=np.int64)
        for count, (prev, robot) in enumerate(zip(group, group[1:]), start=2):
            run = np.where(slots[robot] == slots[prev], run + 1, 1)
            size *= count
            size //= run
    return size


def _expand_frontier(
    kernel: PackedKernel,
    tables: tuple,
    folded: list,
    states: "object",
    row: "object",
    deg: "object",
    classes: SwapClasses = (),
) -> "object":
    """Every transition of some packed states, in kernel order.

    ``folded`` holds per robot the slot it moves to as a function of
    ``slot · 8 + view`` (:func:`_fold_steps`); ``row`` and ``deg`` come
    from :func:`_frontier_rows`. Yields ``(lo, hi, succ, move_at, raw)``
    per row slice ``states[lo:hi]`` (:func:`_row_slices`), in order: the
    flat packed successors (per state, moves in
    :meth:`PackedKernel.moves_for_occupied` order, each crossed with the
    kernel's activation columns), each (state, move) pair's position in
    the flat move table, which holds its label, and per robot the slot
    it lands on under each move when every robot is active. A slice
    decodes its own states and gathers its valid moves out of the move
    CSR; per robot, one lookup of its folded table at its slot and tower
    bit plus the move's edge-view bits resolves its round for all of
    them at once. With swap ``classes`` (FSYNC only) the computed slots
    are sorted within each class (:func:`_sort_classes`) before they are
    encoded, so every successor is its orbit's representative.
    """
    np = require_numpy()
    _occ_keys, move_ptr, _moves, view_bits = tables
    base, S = kernel._base, kernel.state_count
    for lo, hi in _row_slices(deg):
        rows = row[lo:hi]
        # Per-state values reach the state's moves by repeating them.
        fanout = move_ptr[rows + 1] - move_ptr[rows]
        move_at = _csr_rows(move_ptr, rows)
        slots = _digits(kernel, states[lo:hi])
        pos = [slot // S for slot in slots]
        occ = np.zeros_like(slots[0])
        towers = np.zeros_like(slots[0])
        for p in pos:
            bit = np.left_shift(1, p)
            towers |= occ & bit
            occ |= bit
        cell = move_at * kernel.n
        active = []
        for i, table in enumerate(folded):
            key = slots[i] * 8 + ((towers >> pos[i]) & 1)
            at = view_bits[i][cell + np.repeat(pos[i], fanout)]
            at += np.repeat(key, fanout)
            active.append(table[at])
        del cell, at
        raw = list(active)
        _sort_classes(active, classes)
        # One successor column per activation column.
        succ = np.empty((move_at.size, len(kernel.activations)), dtype=np.int64)
        for column, (act, _bits) in zip(succ.T, kernel.activations):
            parts = [
                active[i] if act >> i & 1 else np.repeat(slots[i], fanout)
                for i in range(kernel.k)
            ]
            column[:] = parts[-1]
            for part in reversed(parts[:-1]):
                column *= base
                column += part
        yield lo, hi, succ.reshape(-1), move_at, raw


def _swap_links(
    group: tuple, homes: list, raw: list, heads: "object", links: "object"
) -> None:
    """OR into ``links[head]``, per transition whose real successor
    (per-robot ``raw`` slots) permutes robot 0's class ``group`` of its
    head's lift (``homes``, per robot of ``group`` and state), the pairs
    of ``group`` that permutation joins: the vector form of
    :meth:`~repro.verification.compiled.CompiledTables.swap_links`."""
    np = require_numpy()
    lifted = [home[heads] for home in homes]
    moved = np.zeros(heads.size, dtype=bool)
    for robot, home in zip(group, lifted):
        moved |= raw[robot] != home
    at = np.flatnonzero(moved)
    if not at.size:
        return
    size = len(group)
    heads = heads[at]
    ys = [raw[robot][at] for robot in group]
    xs = [home[at] for home in lifted]
    for a in range(size):
        for b in range(a + 1, size):
            joined = (ys[b] == xs[a]) | (ys[a] == xs[b])
            # One bit per pair: repeated heads all write the same value.
            links[heads[joined]] |= np.int32(1 << (a * size + b))


def reaching_links(
    indptr: "object", succs: "object", links: "object", root: int, joined
) -> int:
    """The OR of ``links`` over the states that reach ``root``: a
    backward breadth-first search, one pass over the successor array
    per level, that stops as soon as ``joined`` accepts the OR so far.
    The NumPy form of the plain-Python search in
    :func:`repro.verification.game._reaching_links`."""
    np = require_numpy()
    reach = np.zeros(indptr.size - 1, dtype=bool)
    reach[root] = True
    found = int(links[root])
    starts = indptr[:-1]
    while not joined(found):
        # Every state has a transition, so no row of reduceat is empty.
        fresh = np.logical_or.reduceat(reach[succs], starts) & ~reach
        if not fresh.any():
            break
        reach |= fresh
        found |= int(np.bitwise_or.reduce(links[fresh]))
    return found


def reachable_csr(
    kernel: PackedKernel, seeds: Sequence[int], classes: SwapClasses = ()
) -> tuple:
    """One table's reachable graph in canonical CSR form, in NumPy.

    Two passes over one dense id map of ``base^k`` entries, at most
    :data:`_MAP_STATES`. **Pass 1**, a level-synchronous BFS in row
    slices (:func:`_expand_frontier`), only marks reached states; it
    keeps no transition. **Pass 2** numbers the reached states ascending
    (the canonical order) through the map, takes ``indptr`` from their
    transition counts (:func:`_frontier_rows`) and expands them again in
    row slices, writing labels and successor indices (one gather from
    the map) straight into the preallocated final arrays.

    Returns ``(states, indptr, labels, succs, occ, seed_idx)``:
    ``states`` the reached packed states ascending (int64); ``indptr``
    and ``succs`` int32, or int64 when the transition or state count
    does not fit (:func:`_index_dtype`); per-state transitions in the
    scalar kernel's move order (edge-mask-major, activation-minor);
    ``labels`` and the per-state occupied-node masks ``occ`` in the
    narrowest dtype that holds their bits (:func:`_value_dtype`); and the
    seed indices in first-occurrence order as a list. Value for value
    this is the CSR the packed backend builds from
    ``PackedKernel.reachable``, so the shared solve phase in
    :mod:`repro.verification.game` produces bit-identical verdicts and
    certificates; it keeps the arrays and converts to Python only what
    its Tarjan walks and single rows a certificate reads. Raises
    :class:`VerificationError` on the same ``max_states`` overflow the
    scalar path reports, and, naming ``backend='packed'``, past the map
    bound or on labels past int64.

    With swap ``classes`` (FSYNC only) it builds the robot-permutation
    quotient, as ``PackedKernel.reachable(seeds, classes=classes)`` does:
    seeds and every successor are canonicalized (:func:`_sort_classes`
    in :func:`_expand_frontier`), so both passes expand orbit
    representatives only and ``max_states`` counts orbits. Pass 1 then
    starts from the first seed alone and expands each representative's
    *lift*, the real state it was first reached as (a seed is its own),
    and pass 2 expands the same lifts: their rows are the
    representatives' rows. The tuple then has a seventh entry,
    ``links``: per state (int32), the OR over the transitions entering
    it of :meth:`~repro.verification.compiled.CompiledTables.swap_links`
    in robot 0's class between their real successors and its lift, as
    ``PackedKernel.reachable``'s ``links_out`` collects them; all zero
    when the first seed does not reach every other one or robot 0 has
    no partner.
    """
    np = require_numpy()
    space = kernel._base ** kernel.k
    where = f"{kernel.algorithm.name!r} on {kernel.topology!r} with k={kernel.k}"
    if space > _MAP_STATES:
        raise VerificationError(
            f"the packed state space of {where} has {space} states, more "
            f"than the vector frontier's {_MAP_STATES}-entry id map; "
            "use backend='packed'"
        )
    if 1 << (kernel.act_shift + kernel.k) > _INT64_BOUND:
        raise VerificationError(
            f"move labels of {where} overflow int64; use backend='packed'"
        )
    label_type = _value_dtype(_label_bits(kernel))
    occ_type = _value_dtype(kernel.n)
    tables = _frontier_tables(kernel)
    folded = _fold_steps(kernel)
    seed_array = np.asarray([int(s) for s in seeds], dtype=np.int64)
    if classes:
        if len(kernel.activations) > 1:
            raise VerificationError(
                "the robot-permutation quotient is defined under FSYNC only"
            )
        seed_array = canonical_states(kernel, seed_array, classes)
    # Pass 1: mark every reached state (and, on a quotient, keep each
    # representative's lift, reached from the first seed when it can be).
    reached = np.zeros(space, dtype=bool)
    frontier = lifts = _distinct(seed_array[:1] if classes else seed_array)
    reached[frontier] = True
    count = frontier.size
    found, found_lifts = [frontier], [lifts]
    rooted = True
    while frontier.size:
        fresh, fresh_lifts = [], []
        _occ, row, deg = _frontier_rows(kernel, tables, frontier)
        for _lo, _hi, succ, _move_at, raw in _expand_frontier(
            kernel, tables, folded, lifts, row, deg, classes
        ):
            unseen = np.flatnonzero(~reached[succ])
            new, first = np.unique(succ[unseen], return_index=True)
            count += new.size
            if count > kernel.max_states:
                raise VerificationError(
                    f"reachable state space exceeds {kernel.max_states} "
                    f"states for {kernel.algorithm.name!r} on "
                    f"{kernel.topology!r}"
                )
            reached[new] = True
            fresh.append(new)
            if classes:
                at = unseen[first]
                fresh_lifts.append(_encode(kernel, [slot[at] for slot in raw]))
        frontier = np.concatenate(fresh)
        lifts = np.concatenate(fresh_lifts) if classes else frontier
        if not frontier.size:
            # Seeds the first one does not reach start their own trees.
            frontier = lifts = _distinct(seed_array[~reached[seed_array]])
            reached[frontier] = True
            count += frontier.size
            rooted &= not frontier.size
        if classes:
            found.append(frontier)
            found_lifts.append(lifts)
    # Pass 2: ascending ids through the map, rows written in place.
    states = np.flatnonzero(reached)
    del reached
    if classes:
        order = np.argsort(np.concatenate(found))
        lifts = np.concatenate(found_lifts)[order]
        links = np.zeros(states.size, dtype=np.int32)
        group = classes[0] if rooted and 0 in classes[0] else ()
        # Each lift's slots in robot 0's class, robot by robot.
        homes = [lifts // kernel._base**robot % kernel._base for robot in group]
    else:
        lifts = states
    del found, found_lifts
    id_type = _index_dtype(states.size)
    ids = np.zeros(space, dtype=id_type)
    ids[states] = np.arange(states.size, dtype=id_type)
    occ, row, deg = _frontier_rows(kernel, tables, states)
    total = int(deg.sum())
    indptr = np.zeros(states.size + 1, dtype=_index_dtype(total))
    np.cumsum(deg, out=indptr[1:])
    labels = np.empty(total, dtype=label_type)
    succs = np.empty(total, dtype=id_type)
    moves = tables[2]
    acts = np.array([bits for _act, bits in kernel.activations])
    for lo, hi, succ, move_at, raw in _expand_frontier(
        kernel, tables, folded, lifts, row, deg, classes
    ):
        rows = slice(indptr[lo], indptr[hi])
        np.take(ids, succ, out=succs[rows], mode="clip")
        labels[rows].reshape(move_at.size, -1)[:] = moves[move_at][:, None] | acts
        if classes and group:
            _swap_links(group, homes, raw, succs[rows], links)
    seed_idx = list(dict.fromkeys(ids[seed_array].tolist()))
    csr = states, indptr, labels, succs, occ.astype(occ_type), seed_idx
    return csr + (links,) if classes else csr


# ----------------------------------------------------------------------
# Solve-phase kernels over a reachable_csr graph (repro.verification.game)
# ----------------------------------------------------------------------
def rotation_closed(
    kernel: PackedKernel, states: "object", classes: SwapClasses = ()
) -> bool:
    """Whether an ascending packed-state array is closed under rotation.

    The NumPy form of :func:`repro.verification.game._rotation_closed`:
    every robot's slot moves one node on (``node → node + 1 mod n``,
    state kept), the rotated slots are sorted within the swap
    ``classes`` of a quotient, and each rotated state must be found in
    ``states``.
    """
    np = require_numpy()
    S, n = kernel.state_count, kernel.n
    slots = [
        (slot // S + 1) % n * S + slot % S for slot in _digits(kernel, states)
    ]
    _sort_classes(slots, classes)
    rotated = _encode(kernel, slots)
    at = np.minimum(np.searchsorted(states, rotated), states.size - 1)
    return bool((states[at] == rotated).all())


def avoid_reachable(
    indptr: "object", succs: "object", occ: "object", seeds: Sequence[int],
    target_bit: int,
) -> "object":
    """Boolean flags of the live arena, by level-synchronous BFS.

    The NumPy form of :func:`repro.verification.game._avoid_reachable_csr`:
    the states reachable from target-avoiding seeds through
    target-avoiding states.
    """
    np = require_numpy()
    avoiding = (occ & target_bit) == 0
    allowed = np.zeros(avoiding.size, dtype=bool)
    frontier = np.asarray(seeds, dtype=np.int64)
    while frontier.size:
        frontier = _distinct(frontier[avoiding[frontier] & ~allowed[frontier]])
        allowed[frontier] = True
        frontier = succs[_csr_rows(indptr, frontier)]
    return allowed


def _compact(values: "object") -> array:
    """A NumPy integer array as a stdlib :class:`array.array` of the same
    item size (``b``/``h``/``i``/``q``), one copy of the buffer."""
    out = array({1: "b", 2: "h", 4: "i", 8: "q"}[values.itemsize])
    out.frombytes(memoryview(values).cast("B"))
    return out


def arena_csr(
    indptr: "object", labels: "object", succs: "object", avoiding: "object"
) -> tuple[list[int], array, array, array]:
    """The deduplicated successor CSR of an arena, as compact arrays.

    The NumPy builder of :class:`repro.verification.game._Arena`:
    ``avoiding`` flags the arena's states, which get int32 node ids.
    Their transitions to arena states are keyed ``src · size + dst``
    (int64), grouped by a stable sort (one group per distinct pair),
    their labels OR-reduced per group (``np.bitwise_or.reduceat``) and
    the groups put back in the order of their first transition — per
    source, successors in first-occurrence move order, exactly as the
    Python builder emits them. A pair never spans two sources, so the
    sources are processed in row slices (:func:`_row_slices`) and the
    slices' pairs concatenated. The Tarjan walk gets ``states`` as a
    list and ``ptr``/``nxt``/``pair_label`` as stdlib arrays as narrow
    as the NumPy ones (:func:`_compact`).
    """
    np = require_numpy()
    states = np.flatnonzero(avoiding)
    size = states.size
    node_type = _index_dtype(size)
    node = np.full(avoiding.size, -1, dtype=node_type)
    node[states] = np.arange(size, dtype=node_type)
    deg = indptr[states + 1] - indptr[states]
    counts, nxt, pair_labels = [np.zeros(1, dtype=np.int64)], [], []
    for lo, hi in _row_slices(deg):
        at = _csr_rows(indptr, states[lo:hi])
        dst = node[succs[at]]
        keep = dst >= 0
        src = np.repeat(np.arange(hi - lo, dtype=np.int64), deg[lo:hi])
        key = src[keep] * size + dst[keep]
        order = np.argsort(key, kind="stable")
        key = key[order]
        head = np.flatnonzero(np.diff(key, prepend=-1))
        pair_label = np.bitwise_or.reduceat(labels[at[keep][order]], head)
        emit = np.argsort(order[head])
        key = key[head][emit]
        counts.append(np.bincount(key // size, minlength=hi - lo))
        nxt.append((key % size).astype(node_type))
        pair_labels.append(pair_label[emit])
    ptr = np.cumsum(np.concatenate(counts))
    return (
        states.tolist(),
        _compact(ptr.astype(_index_dtype(int(ptr[-1])))),
        _compact(np.concatenate(nxt or [node[:0]])),
        _compact(np.concatenate(pair_labels or [labels[:0]])),
    )


__all__ = [
    "MAX_DENSE_STATES",
    "MAX_DENSE_CELLS",
    "DenseSpace",
    "arena_csr",
    "avoid_reachable",
    "canonical_states",
    "decode_tables",
    "dense_eligible",
    "dense_space",
    "have_numpy",
    "orbit_sizes",
    "reachable_csr",
    "reaching_links",
    "rotation_closed",
    "solve_tables",
]
