"""Neural encoders and heads.

Tree teachers (Child-Sum TreeLSTM over dependency trees, N-ary TreeLSTM over
binarized constituency trees, gated GCNs over either graph), the 3-layer
BiLSTM student, task heads, and the two structure-scoring heads (biaffine
arc/label scorer, span scorer). All parameters live in per-model Params
registries so the full parameter vector is enumerable for regularization
and checkpointing.

Every model encodes a whole batch of sentences at once through
`reps(sides) -> (rows, offsets)`: the token rows of all sentences stacked in
input order plus their row offsets, which the shared task heads, losses and
scorers consume. Every tree teacher reads a sentence's tree as one (k, 2)
edge array (a binarized tree's is the one its BinTree holds over its
post-order spans), and stacks the batch's arrays into one plan per `reps`
call: each TreeLSTM layer direction is one tape op that runs the cell level
by level across every tree of the batch (dynamic batching), over level plans
built from (child, parent) rows; each GCN layer is one tape op that sums
every node's messages in a fixed order over a message plan. The student runs
one packed BiLSTM batch over sentences of any lengths, and the arc and span
scorers score every sentence of a batch in a fixed number of tape ops.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .structures import binarize, span_order
from .syntax_data import DataError, Example, LabelVocab, Vocab
from .tensor import Tensor


class Params:
    """Ordered name -> Tensor registry; insertion order fixes checkpoint order."""

    def __init__(self):
        self.tensors = {}

    def add(self, name, shape, rng=None, init="xavier", dtype=np.float32):
        if name in self.tensors:
            raise ValueError(f"duplicate parameter {name!r}")
        if init == "xavier":
            t = T.xavier(shape, rng, dtype=dtype)
        elif init == "zeros":
            t = T.zeros(shape, dtype=dtype, requires_grad=True)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.tensors[name] = t
        return t

    def __getitem__(self, name):
        return self.tensors[name]

    def all(self):
        return list(self.tensors.values())

    def names(self):
        return list(self.tensors.keys())

    def n_scalars(self):
        return sum(t.size for t in self.tensors.values())

    def state_dict(self):
        return {k: t.data.copy() for k, t in self.tensors.items()}

    def load_state_dict(self, state):
        """Copy `state` into the parameters' arrays in place, so views held by
        an optimizer keep pointing at them."""
        missing = set(self.tensors) - set(state)
        extra = set(state) - set(self.tensors)
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for k, t in self.tensors.items():
            arr = np.asarray(state[k])
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {k!r}: {arr.shape} vs {t.data.shape}")
            t.data[...] = arr


EMB_DROPOUT = 0.4  # dropout rate on every model's input embeddings in training


def _dropout(x: Tensor, train, rng) -> Tensor:
    return T.dropout(x, EMB_DROPOUT, rng) if train else x


# ---------------------------------------------------------------------------
# tree cells on raw arrays: `fuse` concatenates the per-gate parameters into
# the blocks the level pass multiplies by; for a level with children,
# `forward` maps its projected inputs xw plus the children's states to the
# shared LSTM update's inputs, and `backward` maps their adjoints to
# (d xw, (buffer rows, d kid_h, d kid_c), recurrent block gradients).

def _sigmoid(a):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _lstm_forward(pre, hid, forget_sum):
    """h, c from [i, o, u] pre-activations plus the gated child-memory sum,
    and the activations (io, u, tanh c) the backward step reads."""
    io = _sigmoid(pre[:, :2 * hid])
    # tanh of a contiguous copy, as in the taped cells: numpy's SIMD loops
    # need not round a strided input the same way
    u = np.tanh(np.ascontiguousarray(pre[:, 2 * hid:3 * hid]))
    c = io[:, :hid] * u
    if forget_sum is not None:
        c = c + forget_sum
    tc = np.tanh(c)
    return io[:, hid:] * tc, c, (io, u, tc)


def _lstm_backward(dh, dc, saved):
    """Adjoints of the [i, o, u] pre-activations (n, 3h) and of c, the
    latter also that of the child-memory sum, from those of h and c."""
    io, u, tc = saved
    hid = u.shape[1]
    i, o = io[:, :hid], io[:, hid:]
    dc = dc + dh * o * (1.0 - tc * tc)
    return np.concatenate((dc * u * i * (1.0 - i), dh * tc * o * (1.0 - o),
                           dc * i * (1.0 - u * u)), axis=1), dc


def _row_keys(*mats):
    """One opaque key per row whose order is the byte order of the rows."""
    m = np.ascontiguousarray(np.concatenate(mats, axis=1))
    return m.view(np.dtype((np.void, m.shape[1] * m.itemsize))).ravel()


class ChildSumCell:
    """Child-Sum TreeLSTM cell: gates from the summed child state, one forget
    gate per child computed from that child's own hidden state.

    Children are folded in a canonical byte order, so the output is bitwise
    invariant under sibling permutations despite float addition being
    non-associative.
    """

    GATES = ("i", "f", "o", "u")

    def __init__(self, p: Params, prefix, in_dim, hid, rng, dtype=np.float32):
        self.hid = hid
        self.W, self.U, self.b = {}, {}, {}
        for g in self.GATES:
            self.W[g] = p.add(f"{prefix}/W{g}", (in_dim, hid), rng, dtype=dtype)
            self.U[g] = p.add(f"{prefix}/U{g}", (hid, hid), rng, dtype=dtype)
            self.b[g] = p.add(f"{prefix}/b{g}", (hid,), init="zeros", dtype=dtype)

    def fuse(self):
        """Input block (in, 4h) and bias as [i, o, u, f]; U_iou (h, 3h), U_f."""
        w = T.concat([self.W[g] for g in "iouf"], axis=1)
        b = T.concat([self.b[g] for g in "iouf"], axis=0)
        return w, b, (T.concat([self.U[g] for g in "iou"], axis=1), self.U["f"])

    def forward(self, rec, xw, seg, slot, src, H, C):
        hid, n = self.hid, xw.shape[0]
        kid_h, kid_c = H[src], C[src]
        order = np.lexsort((_row_keys(kid_h, kid_c), seg))
        seg, src, kid_h, kid_c = seg[order], src[order], kid_h[order], kid_c[order]
        u_iou, u_f = rec
        kid_sum = T._add_rows(np.zeros((n, hid), dtype=kid_h.dtype), seg, kid_h)
        pre = xw[:, :3 * hid] + kid_sum @ u_iou
        f = _sigmoid(xw[seg, 3 * hid:] + kid_h @ u_f)
        forget = T._add_rows(np.zeros((n, hid), dtype=f.dtype), seg, f * kid_c)
        return pre, forget, (seg, src, kid_h, kid_c, kid_sum, f)

    def backward(self, rec, saved, d_pre, dc):
        seg, src, kid_h, kid_c, kid_sum, f = saved
        u_iou, u_f = rec
        d_fc = dc[seg]
        d_f = d_fc * kid_c * f * (1.0 - f)
        d_kid_h = d_f @ u_f.T + (d_pre @ u_iou.T)[seg]
        d_x_f = T._add_rows(np.zeros_like(dc), seg, d_f)
        return (np.concatenate((d_pre, d_x_f), axis=1), (src, d_kid_h, d_fc * f),
                (kid_sum.T @ d_pre, kid_h.T @ d_f))


class NaryCell:
    """N-ary TreeLSTM cell with per-branch U matrices and per-(child, branch)
    forget matrices; absent children contribute zero state."""

    def __init__(self, p: Params, prefix, in_dim, hid, rng, n_ary=2, dtype=np.float32):
        self.hid = hid
        self.n_ary = n_ary
        self.W, self.b, self.U = {}, {}, {}
        for g in ("i", "o", "u", "f"):
            self.W[g] = p.add(f"{prefix}/W{g}", (in_dim, hid), rng, dtype=dtype)
            self.b[g] = p.add(f"{prefix}/b{g}", (hid,), init="zeros", dtype=dtype)
        for g in ("i", "o", "u"):
            self.U[g] = [p.add(f"{prefix}/U{g}{q}", (hid, hid), rng, dtype=dtype)
                         for q in range(n_ary)]
        self.Uf = [[p.add(f"{prefix}/Uf{k}{q}", (hid, hid), rng, dtype=dtype)
                    for q in range(n_ary)] for k in range(n_ary)]

    def fuse(self):
        """Input block and bias as [i, o, u, f_0 .. f_N-1]; the one recurrent
        block (N h, 3h + N h) holds, in row block q, child q's weights into
        every gate."""
        n = self.n_ary
        w = T.concat([self.W[g] for g in "iou"] + [self.W["f"]] * n, axis=1)
        b = T.concat([self.b[g] for g in "iou"] + [self.b["f"]] * n, axis=0)
        rec = T.concat([T.concat([self.U[g][q] for g in "iou"]
                                 + [self.Uf[k][q] for k in range(n)], axis=1)
                        for q in range(n)], axis=0)
        return w, b, (rec,)

    def forward(self, rec, xw, seg, slot, src, H, C):
        hid, n, m = self.hid, xw.shape[0], self.n_ary
        if slot.max() >= m:
            raise ValueError(f"{slot.max() + 1} children exceed N={m}; binarize first")
        rows = np.zeros((n, m), dtype=np.int64)  # absent children read the zero row
        rows[seg, slot] = src
        flat = rows.reshape(-1)
        kid_h, kid_c = H[flat].reshape(n, m * hid), C[flat].reshape(n, m * hid)
        pre = xw + kid_h @ rec[0]
        f = _sigmoid(pre[:, 3 * hid:])
        return pre, (f * kid_c).reshape(n, m, hid).sum(axis=1), (flat, kid_h, kid_c, f)

    def backward(self, rec, saved, d_pre, dc):
        n, m = dc.shape[0], self.n_ary
        flat, kid_h, kid_c, f = saved
        d_fc = np.tile(dc, m)
        d_pre = np.concatenate((d_pre, d_fc * kid_c * f * (1.0 - f)), axis=1)
        d_kid_h = (d_pre @ rec[0].T).reshape(n * m, -1)
        return (d_pre, (flat, d_kid_h, (d_fc * f).reshape(n * m, -1)),
                (kid_h.T @ d_pre,))


# ---------------------------------------------------------------------------
# tree level plans

def offsets(counts) -> np.ndarray:
    """Row offsets of stacked blocks: block b is rows [off[b], off[b + 1])."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _stack_edges(sizes, trees):
    """Node count of a batch of graphs of sizes[b] nodes, and their (k, 2)
    edge rows stacked, each graph's node ids shifted past those before it."""
    off = offsets(sizes)
    e = np.concatenate(trees).reshape(-1, 2).astype(np.int64, copy=False)
    return int(off[-1]), e + np.repeat(off[:-1], [len(t) for t in trees])[:, None]


@dataclass
class LevelPlan:
    """One direction of a batch's level schedule: nodes sorted stably by
    level (perm, its inverse pos) and per level its sorted rows [lo, hi) and
    incoming edges by (seg, slot), edge k feeding buffer row src[k] (row 0
    the zero state, 1 + r sorted row r) to node seg[k] as child slot[k]."""
    perm: np.ndarray
    pos: np.ndarray
    levels: list  # (lo, hi, seg, slot, src) per level


def _level_plan(level, dst, src, slot) -> LevelPlan:
    perm = np.argsort(level, kind="stable")
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    dst, src = pos[dst], pos[src] + 1
    order = np.lexsort((slot, dst))
    dst, src, slot = dst[order], src[order], slot[order]
    levels, lo = [], 0
    for hi in np.cumsum(np.bincount(level)).tolist():
        a, z = np.searchsorted(dst, [lo, hi]).tolist()
        levels.append((lo, hi, dst[a:z] - lo, slot[a:z], src[a:z]))
        lo = hi
    return LevelPlan(perm, pos, levels)


def level_plans(sizes, edges):
    """(bottom-up, top-down) LevelPlans of a batch of trees, read by every
    layer: tree b has sizes[b] nodes and one (child, parent) row per edge in
    edges[b]. Bottom-up, children feed parents, level by height, each child
    in the slot of its rank among its siblings' rows; top-down, the parent
    state is the single child input of each node (roots get zero state),
    level by depth."""
    n, e = _stack_edges(sizes, edges)
    child, parent = e[np.argsort(e[:, 1], kind="stable")].T
    slot = np.arange(parent.size) - offsets(np.bincount(parent, minlength=n))[parent]
    up = np.full(n, -1, dtype=np.int64)
    up[child] = parent
    # round k visits every node with a k-th ancestor anc: the node is at
    # depth k or more, anc at height k or more, and k only grows
    depth, height = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    live, anc = child, parent
    for k in range(1, n + 1):
        if not live.size:
            break
        depth[live], height[anc] = k, k
        anc = up[anc]
        live, anc = live[anc >= 0], anc[anc >= 0]
    else:
        raise DataError(f"an edge above node {int(live[0])} closes a cycle")
    return (_level_plan(height, parent, child, slot),
            _level_plan(depth, child, parent, np.zeros_like(slot)))


def tree_encode(plans, x: Tensor, up_cell, down_cell) -> Tensor:
    """Bidirectional node representations for a batch of trees: x stacks
    every tree's node inputs in tree order, `plans` are the batch's
    `level_plans`. Returns the (total nodes, 2 * hid) matrix
    [bottom-up (up_cell) | top-down (down_cell)] in the rows of x."""
    if x.shape[0] != plans[0].perm.size:
        raise ValueError(f"{x.shape[0]} input rows for {plans[0].perm.size} tree nodes")
    return T.concat([_level_pass(up_cell, x, plans[0]),
                     _level_pass(down_cell, x, plans[1])], axis=1)


def _level_pass(cell, x, plan: LevelPlan):
    """One direction as one tape op. Level by level, the nodes' inputs are
    projected and their children's states read from (1 + nodes, h) H and C
    buffers, whose row 0 is the zero state, and the new states written after
    them; backward sweeps the levels in reverse.

    Every parameter block gets one gradient per level, in reverse level
    order, so they add up as they would had each level been its own ops: a
    block the cell reads unfused (ChildSum's U_f) may also collect gradients
    from another pass of the same tape, as in a pair batch."""
    w, b, rec = cell.fuse()
    recs, hid = [r.data for r in rec], cell.hid
    H = np.zeros((1 + plan.perm.size, hid), dtype=x.dtype)
    C = np.zeros_like(H)
    steps = []
    for lo, hi, seg, slot, src in plan.levels:
        xe = x.data[plan.perm[lo:hi]]
        # projected per level, not once for all nodes: this keeps the float
        # rounding that existing checkpoints were trained with
        xw = xe @ w.data + b.data
        pre, forget, kids = (cell.forward(recs, xw, seg, slot, src, H, C) if src.size
                             else (xw, None, None))
        H[1 + lo:1 + hi], C[1 + lo:1 + hi], lstm = _lstm_forward(pre, hid, forget)
        steps.append((xe, lstm, kids))
    out = Tensor(H[plan.pos + 1])

    def back(g):
        dH, dC = np.zeros_like(H), np.zeros_like(C)
        dH[plan.pos + 1] = g
        gx = np.zeros_like(x.data)
        grads = [gx]
        for (lo, hi, *_), (xe, lstm, kids) in zip(reversed(plan.levels), reversed(steps)):
            d_pre, dc = _lstm_backward(dH[1 + lo:1 + hi], dC[1 + lo:1 + hi], lstm)
            d_xw, kids, d_rec = (cell.backward(recs, kids, d_pre, dc) if kids else
                                 (np.pad(d_pre, ((0, 0), (0, w.shape[1] - 3 * hid))), (), ()))
            gx[plan.perm[lo:hi]] = d_xw @ w.data.T
            grads += [xe.T @ d_xw, d_xw.sum(axis=0), *d_rec]
            if kids:
                # the children's adjoints gathered apart, then added to the
                # buffers' in one sum per row, as a taped gather would
                src, d_kid_h, d_kid_c = kids
                for buf, d in ((dH, d_kid_h), (dC, d_kid_c)):
                    buf[:1 + lo] += T._add_rows(np.zeros((1 + lo, hid), dtype=d.dtype), src, d)
        return grads

    parents = [x]
    for _, _, _, _, src in reversed(plan.levels):
        parents += [w, b, *(rec if src.size else ())]
    return T._emit(out, tuple(parents), back)


# ---------------------------------------------------------------------------
# GCN

@dataclass
class MessagePlan:
    """A batch's GCN messages, message k going from node src[k] to dst[k],
    laid out for summing in message order. Nodes are sorted stably by
    message count, most first, node i at sorted row pos[i]; every node counts
    as many messages in as out. Column q of a table lists the q-th message of
    each node with more than q, by sorted row, in table[bounds[q]:bounds[q + 1]],
    so the columns hold every message once."""
    src: np.ndarray
    dst: np.ndarray
    pos: np.ndarray
    bounds: list

    def _table(self, ends, starts):
        """Each node's `starts` rows in message order, over the messages
        that `ends` at it, column by column."""
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
        rank = np.arange(ends.size) - offsets(np.bincount(ends, minlength=self.pos.size))[ends]
        table = np.empty_like(starts)
        table[np.array(self.bounds, dtype=np.int64)[rank] + self.pos[ends]] = starts[order]
        return table

    @cached_property
    def into(self):
        """Source rows summed into each node: the forward table."""
        return self._table(self.dst, self.src)

    @cached_property
    def out_of(self):
        """Destination rows each node sends to: the backward table, built by
        the first backward pass only."""
        return self._table(self.src, self.dst)

    def sum(self, x, table):
        """Row i adds the rows of x that `table` lists for node i to +0 in
        message order, the float order of np.add.at over the messages."""
        acc = np.zeros_like(x)
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            # take, not x[...]: the same rows, gathered several times faster
            acc[:hi - lo] += x.take(table[lo:hi], axis=0)
        return acc.take(self.pos, axis=0)


def gcn_layer(h: Tensor, plan: MessagePlan, w: Tensor, b: Tensor) -> Tensor:
    """Gated propagation as one tape op: each node's features are gated by
    its own sigmoid gate, then summed over in-neighbors (self included) in
    the plan's message order and rectified. Backward repeats the float order
    of the taped composition (matmul, add, sigmoid, mul, gather, segment sum,
    relu), so the two adjoints of h add the gated product's first."""
    if h.shape[0] != plan.pos.size:
        raise ValueError(f"{h.shape[0]} input rows for {plan.pos.size} graph nodes")
    gate = _sigmoid(h.data @ w.data + b.data)
    s = plan.sum(h.data * gate, plan.into)

    def back(g):
        d_msg = plan.sum(g * (s > 0), plan.out_of)
        d_pre = d_msg * h.data * gate * (1.0 - gate)
        return [d_msg * gate + d_pre @ w.data.T, h.data.T @ d_pre, d_pre.sum(axis=0)]

    return T._emit(Tensor(np.maximum(s, 0)), (h, w, b), back)


def gcn_edges(sizes, trees) -> MessagePlan:
    """The MessagePlan of a batch of graphs stacked block-diagonally, built
    once and read by every layer: each node messages itself, then both ways
    along every (a, b) row of each graph's (k, 2) edge array, a to b before
    b to a, as in a symmetric 0/1 adjacency with self-loops."""
    n, e = _stack_edges(sizes, trees)
    loops = np.arange(n)
    src, dst = np.concatenate([loops, e[:, 0], e[:, 1]]), np.concatenate([loops, e[:, 1], e[:, 0]])
    count = np.bincount(dst, minlength=loops.size)
    pos = np.empty_like(loops)
    pos[np.argsort(-count, kind="stable")] = loops
    # column q holds the nodes with more than q messages
    return MessagePlan(src, dst, pos,
                       offsets(loops.size - np.cumsum(np.bincount(count))[:-1]).tolist())


def dep_edges(heads) -> np.ndarray:
    """(dependent, head) node pairs of a 1-based head list, by dependent."""
    heads = np.asarray(heads, dtype=np.int64)
    dep = np.flatnonzero(heads)
    return np.stack([dep, heads[dep] - 1], axis=1)


# ---------------------------------------------------------------------------
# BiLSTM student

class StudentEncoder:
    """Stacked BiLSTM over a batch of sentences of any lengths.

    Inside, the batch is packed: sentences are stably sorted longest first
    and step t is one row block of the sentences longer than t, so no padded
    row is computed. Each layer direction is one input projection over all
    rows plus one `lstm_scan` over the steps; one gather at the end puts
    the rows back in sentence order.
    """

    def __init__(self, p: Params, prefix, vocab_size, emb_dim, hid,
                 n_layers=3, rng=None, dtype=np.float32):
        self.hid = hid
        self.emb = p.add(f"{prefix}/emb", (vocab_size, emb_dim), rng, dtype=dtype)
        self.layers = []
        for l in range(n_layers):
            in_dim = emb_dim if l == 0 else 2 * hid
            layer = {}
            for d in ("f", "b"):
                layer[d] = {
                    "W": p.add(f"{prefix}/l{l}{d}/W", (in_dim, 4 * hid), rng, dtype=dtype),
                    "U": p.add(f"{prefix}/l{l}{d}/U", (hid, 4 * hid), rng, dtype=dtype),
                    "b": p.add(f"{prefix}/l{l}{d}/b", (4 * hid,), init="zeros", dtype=dtype),
                }
            self.layers.append(layer)

    def encode_batch(self, ids, train=False, rng=None):
        """ids: B token-id sequences (rows of a (B, T) array work too) ->
        {"top": (N, 2h), "l1f": (N, h)} stacked by sentence in input order,
        N the total token count; l1f is the first layer's forward state."""
        seqs = [np.asarray(s, dtype=np.int64) for s in ids]
        lengths = np.array([s.size for s in seqs], dtype=np.int64)
        if not seqs or lengths.min() < 1 or any(s.ndim != 1 for s in seqs):
            raise ValueError("ids must be a non-empty batch of non-empty 1-d sequences")
        # packed row of sentence b's token j: the block of step j, then b's
        # rank in a stable longest-first sort
        rank = np.empty_like(lengths)
        rank[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
        valid = np.arange(lengths.max()) < lengths[:, None]
        counts = valid.sum(axis=0)
        pos = (offsets(counts)[:-1] + rank[:, None])[valid]
        packed = np.empty(pos.size, dtype=np.int64)
        packed[pos] = np.concatenate(seqs)
        x = _dropout(T.embedding(self.emb, packed), train, rng)
        l1f = None
        for l, layer in enumerate(self.layers):
            fwd, bwd = (T.lstm_scan(T.add(T.matmul(x, layer[d]["W"]), layer[d]["b"]),
                                    layer[d]["U"], counts, reverse=d == "b")
                        for d in ("f", "b"))
            if l == 0:
                l1f = fwd
            x = T.concat([fwd, bwd], axis=1)
        return {"top": T.embedding(x, pos), "l1f": T.embedding(l1f, pos)}


# ---------------------------------------------------------------------------
# task heads

def segment_mean(mat: Tensor, off) -> Tensor:
    """Mean of each block of rows [off[b], off[b + 1]) -> (B, width)."""
    counts = np.diff(off)
    # equal blocks sum through one reshape, in segment_sum's row order
    if (counts == counts[0]).all():
        n = counts[0]
        return T.scale(T.sum_(T.reshape(mat, (counts.size, n, mat.shape[1])), axis=1), 1.0 / n)
    total = T.segment_sum(mat, np.repeat(np.arange(counts.size), counts), counts.size)
    scale = np.repeat((1.0 / counts)[:, None], mat.shape[1], axis=1)
    return T.mul(total, Tensor(scale.astype(mat.dtype)))


class ClassifyHead:
    def __init__(self, p: Params, prefix, in_dim, n_classes, rng, dtype=np.float32):
        self.W = p.add(f"{prefix}/W", (in_dim, n_classes), rng, dtype=dtype)
        self.b = p.add(f"{prefix}/b", (n_classes,), init="zeros", dtype=dtype)

    def __call__(self, pooled: Tensor) -> Tensor:
        return T.add(T.matmul(pooled, self.W), self.b)


class PairHead:
    """Feedforward over [u; v; u*v; u-v; u+v]."""

    def __init__(self, p: Params, prefix, in_dim, n_classes, rng, dtype=np.float32):
        self.W = p.add(f"{prefix}/W", (5 * in_dim, n_classes), rng, dtype=dtype)
        self.b = p.add(f"{prefix}/b", (n_classes,), init="zeros", dtype=dtype)

    def __call__(self, u: Tensor, v: Tensor) -> Tensor:
        feat = T.concat([u, v, T.mul(u, v), T.sub(u, v), T.add(u, v)], axis=1)
        return T.add(T.matmul(feat, self.W), self.b)


class TagHead:
    """Per-token logits with a 16-wide predicate-indicator embedding appended."""

    def __init__(self, p: Params, prefix, in_dim, n_tags, rng, dtype=np.float32):
        self.ind = p.add(f"{prefix}/ind", (2, 16), rng, dtype=dtype)
        self.W = p.add(f"{prefix}/W", (in_dim + 16, n_tags), rng, dtype=dtype)
        self.b = p.add(f"{prefix}/b", (n_tags,), init="zeros", dtype=dtype)

    def __call__(self, mat: Tensor, predicate) -> Tensor:
        """predicate: the row (or rows, one per stacked sentence) to flag."""
        flags = np.zeros(mat.shape[0], dtype=np.int64)
        flags[predicate] = 1
        feat = T.concat([mat, T.embedding(self.ind, flags)], axis=1)
        return T.add(T.matmul(feat, self.W), self.b)


# ---------------------------------------------------------------------------
# structure-scoring heads

@dataclass
class ArcScores:
    """Arc and label logits of a batch, stacked by dependent: column 0 is the
    virtual root, column c the dependent's own sentence's token c - 1, and
    the columns past its sentence's length hold ArcLabelScorer.PAD_LOGIT."""
    arc_logits: Tensor    # (total tokens, n_max + 1)
    label_logits: Tensor  # (total tokens, n_max + 1, n_labels)
    off: np.ndarray       # token offsets of the batch's sentences


class ArcLabelScorer:
    """Bilinear-plus-linear head/dependent scorer with a learned root column
    (Dozat & Manning 2017, arXiv:1611.01734). The linear term scores the head
    only: a dependent-only term adds the same value to every candidate of a
    dependent, so it cancels in the arc softmax and gets no gradient."""

    PAD_LOGIT = -1e9  # zero softmax weight, yet 0 * PAD_LOGIT stays finite

    def __init__(self, p: Params, prefix, in_dim, n_labels, arc_dim, rng,
                 dtype=np.float32):
        self.n_labels = n_labels
        a = arc_dim
        self.Wd = p.add(f"{prefix}/Wd", (in_dim, a), rng, dtype=dtype)
        self.bd = p.add(f"{prefix}/bd", (a,), init="zeros", dtype=dtype)
        self.Wh = p.add(f"{prefix}/Wh", (in_dim, a), rng, dtype=dtype)
        self.bh = p.add(f"{prefix}/bh", (a,), init="zeros", dtype=dtype)
        self.root = p.add(f"{prefix}/root", (1, a), init="zeros", dtype=dtype)
        self.A = p.add(f"{prefix}/A", (a, a), rng, dtype=dtype)
        self.wh = p.add(f"{prefix}/wh", (a, 1), rng, dtype=dtype)
        self.Wl = p.add(f"{prefix}/Wl", (2 * a, n_labels), rng, dtype=dtype)
        self.bl = p.add(f"{prefix}/bl", (n_labels,), init="zeros", dtype=dtype)
        self.dtype = dtype

    def __call__(self, mat: Tensor, off) -> ArcScores:
        """Scores of every dependent of rows [off[b], off[b + 1]) of `mat`."""
        lens = np.diff(off)
        n, col = mat.shape[0], np.arange(lens.max() + 1)
        real = col <= np.repeat(lens, lens)[:, None]
        # row of each (dependent, column) candidate in [root; hh]: the root
        # for column 0 and for padding, else the sentence's token col - 1
        head = np.where(real & (col > 0), np.repeat(off[:-1], lens)[:, None] + col, 0)
        dep = np.repeat(np.arange(n), col.size)
        hd = T.tanh(T.add(T.matmul(mat, self.Wd), self.bd))
        hh = T.tanh(T.add(T.matmul(mat, self.Wh), self.bh))
        cand = T.embedding(T.concat([self.root, hh], axis=0), head.reshape(-1))
        bilinear = T.sum_(T.mul(T.embedding(T.matmul(hd, self.A), dep), cand),
                          axis=1, keepdims=True)
        lin = T.matmul(cand, self.wh)
        pad = np.where(real, 0.0, self.PAD_LOGIT).astype(self.dtype)
        arc = T.add(T.reshape(T.add(bilinear, lin), (n, col.size)), Tensor(pad))
        pair = T.concat([T.embedding(hd, dep), cand], axis=1)
        labels = T.add(T.matmul(pair, self.Wl), self.bl)
        return ArcScores(arc, T.reshape(labels, (n, col.size, self.n_labels)), np.asarray(off))


@dataclass
class ScoredSpans:
    """Differentiable span scores of a batch: each sentence's spans in
    span_order, sentence after sentence, the layout of structures.chart_max."""
    tensor: Tensor   # (total spans, n_labels)
    off: np.ndarray  # token offsets of the batch's sentences


class SpanScorer:
    """Feedforward scorer over fencepost endpoint features [b_j - b_i; b_i; b_j]."""

    def __init__(self, p: Params, prefix, in_dim, n_labels, rng, dtype=np.float32):
        self.W = p.add(f"{prefix}/W", (3 * in_dim, n_labels), rng, dtype=dtype)
        self.b = p.add(f"{prefix}/b", (n_labels,), init="zeros", dtype=dtype)
        self.dtype = dtype

    def __call__(self, mat: Tensor, off) -> ScoredSpans:
        """Scores of every span of every sentence of rows [off[b], off[b + 1])."""
        zero = Tensor(np.zeros((1, mat.shape[1]), dtype=self.dtype))
        # fencepost k > 0 of sentence b is its token k - 1, row off[b] + k of
        # bounds; every fencepost 0 is the zero row
        bounds = T.concat([zero, mat], axis=0)
        spans = [(o, *span_order(n)) for o, n in zip(off[:-1], np.diff(off))]
        bi = T.embedding(bounds, np.concatenate([np.where(i > 0, o + i, 0) for o, i, _ in spans]))
        bj = T.embedding(bounds, np.concatenate([o + j for o, _, j in spans]))
        feat = T.concat([T.sub(bj, bi), bi, bj], axis=1)
        return ScoredSpans(T.add(T.matmul(feat, self.W), self.b), np.asarray(off))


# ---------------------------------------------------------------------------
# vocabulary bundle and encoded examples

class Codec:
    """Vocabularies shared by every model in one run, built from training data."""

    def __init__(self, examples, task):
        self.task = task
        token_lists, trees = [], {}
        dep_labels, tags, classes = set(), set(), set()
        for ex in examples:
            for e in self._sides(ex):
                token_lists.append(e.sent.tokens)
                dep_labels.update(e.dep.labels)
                trees.setdefault(tuple(e.con.spans()), e.con)
            if task == "tag":
                tags.update(ex.tags)
            else:
                classes.add(ex.label)
        # every node label plus the labels binarize gives the tree; sentences
        # of one shape share their spans, so each distinct tree is read once
        con_labels = {lab for spans, tree in trees.items()
                      for lab in [s[2] for s in spans] + list(binarize(tree).spans.values())}
        self.vocab = Vocab.build(token_lists)
        self.dep_labels = LabelVocab.build(sorted(dep_labels))
        self.con_labels = LabelVocab.build(sorted(con_labels), reserve_null=True)
        self.tags = LabelVocab.build(sorted(tags)) if task == "tag" else None
        if task == "tag":
            self.n_classes = len(self.tags)
        else:
            self.n_classes = max(classes) + 1 if classes else 2

    @staticmethod
    def _sides(ex):
        yield ex
        if ex.partner is not None:
            yield ex.partner

    def encode(self, ex: Example):
        return EncodedExample(self, ex)

    def to_json(self):
        return {
            "task": self.task,
            "vocab": self.vocab.to_list(),
            "dep_labels": self.dep_labels.to_list(),
            "con_labels": self.con_labels.to_list(),
            "tags": self.tags.to_list() if self.tags else None,
            "n_classes": self.n_classes,
        }

    @classmethod
    def from_json(cls, d):
        obj = cls.__new__(cls)
        obj.task = d["task"]
        obj.vocab = Vocab(d["vocab"])
        obj.dep_labels = LabelVocab(d["dep_labels"])
        obj.con_labels = LabelVocab(d["con_labels"])
        obj.tags = LabelVocab(d["tags"]) if d.get("tags") else None
        obj.n_classes = d["n_classes"]
        return obj


class EncodedSide:
    """One sentence of an example: its length and token ids up front, and every
    parse view built on first read, so each model builds only the views it
    reads (the student reads none). A view of a missing parse is None; a
    label outside the codec's vocabulary raises DataError when read."""

    def __init__(self, codec: Codec, ex: Example):
        self.codec, self.raw = codec, ex
        self.n = len(ex.sent)
        self.token_ids = codec.vocab.encode(ex.sent.tokens)

    @cached_property
    def heads(self):
        return None if self.raw.dep is None else list(self.raw.dep.heads)

    @cached_property
    def dep_label_ids(self):
        return None if self.raw.dep is None else self.codec.dep_labels.encode(self.raw.dep.labels)

    @cached_property
    def dep_gcn(self):
        """Edge array of both dependency teachers: (dependent, head) rows."""
        return None if self.raw.dep is None else dep_edges(self.raw.dep.heads)

    @cached_property
    def bintree(self):
        """The binarized constituency tree with label ids."""
        if self.raw.con is None:
            return None
        bt = binarize(self.raw.con)
        bt.spans = dict(zip(bt.spans, self.codec.con_labels.encode(bt.spans.values()).tolist()))
        return bt

    @cached_property
    def con_tree(self):
        """(is_word, ids, edges) of the constituency TreeLSTM over the
        binarized tree's spans in post-order: a leaf's input is its token id,
        an inner node's its label id; edges holds (child, parent) rows."""
        if self.raw.con is None:
            return None
        bt = self.bintree
        is_word = np.array([j - i == 1 for i, j in bt.spans])
        ids = np.array(list(bt.spans.values()), dtype=np.int64)
        ids[is_word] = self.token_ids  # the leaves, in token order
        return is_word, ids, bt.edges

    @cached_property
    def con_gcn(self):
        """(is_word, ids, edges) of the constituency GCN over the original
        tree: token nodes 0..n-1 with token ids, then one node per tree node
        (preterminals included) with label ids; edges holds (a, b) rows."""
        if self.raw.con is None:
            return None
        spans, n = self.raw.con.spans(), self.n
        m = len(spans)
        # node n + k is the k-th in pre-order, k being its depth plus the nodes
        # before the preterminal of its first token i in post-order (a
        # preterminal follows a node ending where it starts); left[i] holds
        # n - 1 plus that count. The edge slots start n early, where the root's
        # parent edge falls, and each node's edges follow one parent edge per
        # earlier non-root node and one word edge per earlier token.
        left = [p for p, ((i, _, _), (_, e, _))
                in enumerate(zip(spans, [(0, 0, 0)] + spans), n - 1) if e == i]
        labels, edges = [None] * (n + m), [None] * (2 * n + m - 1)
        starts, ids = [-1], [None]  # first leaf and id of each ancestor of the node visited
        for q, (i, j, label) in zip(range(n + m - 2, n - 2, -1), reversed(spans)):
            while starts[-1] >= j:
                starts.pop()
                ids.pop()
            li = left[i]
            nid = len(ids) + li
            labels[nid] = label
            edges[nid + i - 1] = (ids[-1], nid)
            if q == li:  # a preterminal
                edges[nid + i] = (nid, i)
            starts.append(i)
            ids.append(nid)
        return (np.arange(n + m) < n,
                np.concatenate([self.token_ids, self.codec.con_labels.encode(labels[n:])]),
                np.array(edges[n:], dtype=np.int64).reshape(-1, 2))


class EncodedExample:
    def __init__(self, codec: Codec, ex: Example):
        self.raw = ex
        self.main = EncodedSide(codec, ex)
        self.partner = EncodedSide(codec, ex.partner) if ex.partner is not None else None
        if codec.task == "tag":
            self.tag_ids = codec.tags.encode(ex.tags)
            self.predicate = ex.predicate
            self.label = None
        else:
            self.label = ex.label
            self.tag_ids = None
            self.predicate = None


# ---------------------------------------------------------------------------
# assembled models

BATCH_ROWS = 128  # sentences per forward pass when predicting


class BaseModel:
    """Common plumbing: params registry, batching, task head dispatch."""

    def __init__(self, codec: Codec, rng, dtype=np.float32):
        self.codec = codec
        self.task = codec.task
        self.dtype = dtype
        self.p = Params()
        self.rng = rng

    def _make_head(self, rep_dim):
        if self.task == "pair":
            self.head = PairHead(self.p, "head", rep_dim, self.codec.n_classes,
                                 self.rng, dtype=self.dtype)
        elif self.task == "tag":
            self.head = TagHead(self.p, "head", rep_dim, self.codec.n_classes,
                                self.rng, dtype=self.dtype)
        else:
            self.head = ClassifyHead(self.p, "head", rep_dim, self.codec.n_classes,
                                     self.rng, dtype=self.dtype)

    def _node_rows(self, is_word, ids, train, rng) -> Tensor:
        """Input rows of nodes that read a word (is_word) or a label
        embedding, by id: word and label embeddings share one dropout and are
        interleaved by one gather."""
        x = _dropout(T.concat([T.embedding(self.emb, ids[is_word]),
                               T.embedding(self.label_emb, ids[~is_word])], axis=0),
                     train, rng)
        n_words = int(is_word.sum())
        order = np.empty(ids.size, dtype=np.int64)
        order[is_word] = np.arange(n_words)
        order[~is_word] = n_words + np.arange(ids.size - n_words)
        return T.embedding(x, order)

    def batches(self, data):
        """Index chunks, in data order, that prediction runs through `logits`
        together."""
        return [range(lo, min(lo + BATCH_ROWS, len(data)))
                for lo in range(0, len(data), BATCH_ROWS)]

    def logits(self, encs, train=False, rng=None) -> Tensor:
        """Task logits for a batch: (B, C), or (total tokens, C) stacked by
        sentence for tagging."""
        return self.head_logits(encs, self.reps([e.main for e in encs], train, rng),
                                train, rng)

    def head_logits(self, encs, main, train=False, rng=None) -> Tensor:
        """Task logits from already computed main-side (reps, offsets)."""
        mat, off = main
        if self.task == "pair":
            return self.head(segment_mean(mat, off), segment_mean(
                *self.reps([e.partner for e in encs], train, rng)))
        if self.task == "tag":
            return self.head(mat, off[:-1] + np.array([e.predicate for e in encs]))
        return self.head(segment_mean(mat, off))

    def add_structure_head(self):
        """Arc/label scorer (64-wide arc space) for dependency models, span
        scorer for constituency models; used when soft teacher structure
        targets are enabled."""
        if self.structure == "dep":
            self.struct_head = ArcLabelScorer(self.p, "arc", self.rep_dim,
                                              len(self.codec.dep_labels), 64,
                                              self.rng, self.dtype)
        elif self.structure == "con":
            self.struct_head = SpanScorer(self.p, "span", self.rep_dim,
                                          len(self.codec.con_labels), self.rng,
                                          self.dtype)
        else:
            raise ValueError(f"no structure head for {self.structure!r}")

    def parameters(self):
        return self.p.all()


class DepTreeLstmModel(BaseModel):
    """Bidirectional Child-Sum TreeLSTM over the dependency tree."""

    kind = "tlstm-dep"
    structure = "dep"

    def __init__(self, codec, emb_dim=300, hidden=300, n_layers=2, rng=None,
                 dtype=np.float32):
        super().__init__(codec, rng, dtype)
        self.emb = self.p.add("emb", (len(codec.vocab), emb_dim), rng, dtype=dtype)
        self.cells = []
        for l in range(n_layers):
            in_dim = emb_dim if l == 0 else 2 * hidden
            self.cells.append((
                ChildSumCell(self.p, f"l{l}/up", in_dim, hidden, rng, dtype=dtype),
                ChildSumCell(self.p, f"l{l}/down", in_dim, hidden, rng, dtype=dtype),
            ))
        self._make_head(2 * hidden)
        self.rep_dim = 2 * hidden

    def reps(self, sides, train=False, rng=None):
        """Stacked token rows of a batch of sides plus their row offsets."""
        ids = np.concatenate([s.token_ids for s in sides])
        x = _dropout(T.embedding(self.emb, ids), train, rng)
        plans = level_plans([s.n for s in sides], [s.dep_gcn for s in sides])
        for up, down in self.cells:
            x = tree_encode(plans, x, up, down)
        return x, offsets([s.n for s in sides])  # dependency nodes are the tokens


class ConTreeLstmModel(BaseModel):
    """Bidirectional binary N-ary TreeLSTM over the binarized constituency tree."""

    kind = "tlstm-con"
    structure = "con"

    def __init__(self, codec, emb_dim=300, hidden=300, n_layers=2, rng=None,
                 dtype=np.float32):
        super().__init__(codec, rng, dtype)
        self.emb = self.p.add("emb", (len(codec.vocab), emb_dim), rng, dtype=dtype)
        self.label_emb = self.p.add("label_emb", (len(codec.con_labels), emb_dim),
                                    rng, dtype=dtype)
        self.cells = []
        for l in range(n_layers):
            in_dim = emb_dim if l == 0 else 2 * hidden
            self.cells.append((
                NaryCell(self.p, f"l{l}/up", in_dim, hidden, rng, dtype=dtype),
                NaryCell(self.p, f"l{l}/down", in_dim, hidden, rng, dtype=dtype),
            ))
        self._make_head(2 * hidden)
        self.rep_dim = 2 * hidden

    def reps(self, sides, train=False, rng=None):
        """Stacked token rows of a batch of sides plus their row offsets."""
        is_word, ids, trees = zip(*(s.con_tree for s in sides))
        is_word = np.concatenate(is_word)
        x = self._node_rows(is_word, np.concatenate(ids), train, rng)
        plans = level_plans([i.size for i in ids], trees)
        for up, down in self.cells:
            x = tree_encode(plans, x, up, down)
        return T.embedding(x, np.flatnonzero(is_word)), offsets([s.n for s in sides])


class GcnModel(BaseModel):
    """Gated GCN over either syntactic graph; output width equals emb width."""

    def __init__(self, codec, structure, emb_dim=300, n_layers=2, rng=None,
                 dtype=np.float32):
        super().__init__(codec, rng, dtype)
        self.structure = structure
        self.kind = f"gcn-{structure}"
        self.emb = self.p.add("emb", (len(codec.vocab), emb_dim), rng, dtype=dtype)
        if structure == "con":
            self.label_emb = self.p.add("label_emb", (len(codec.con_labels), emb_dim),
                                        rng, dtype=dtype)
        self.layers = [
            (self.p.add(f"l{l}/W", (emb_dim, emb_dim), rng, dtype=dtype),
             self.p.add(f"l{l}/b", (emb_dim,), init="zeros", dtype=dtype))
            for l in range(n_layers)
        ]
        self._make_head(emb_dim)
        self.rep_dim = emb_dim

    def reps(self, sides, train=False, rng=None):
        """Stacked token rows of a batch of sides plus their row offsets; the
        graphs of the batch form one message plan, which every layer reads.
        A constituency graph's token rows are its word nodes."""
        tok_off = offsets([s.n for s in sides])
        if self.structure == "dep":
            ids = np.concatenate([s.token_ids for s in sides])
            h = _dropout(T.embedding(self.emb, ids), train, rng)
            plan = gcn_edges([s.n for s in sides], [s.dep_gcn for s in sides])
        else:
            is_word, ids, trees = zip(*(s.con_gcn for s in sides))
            is_word = np.concatenate(is_word)
            h = self._node_rows(is_word, np.concatenate(ids), train, rng)
            plan = gcn_edges([i.size for i in ids], trees)
        for w, b in self.layers:
            h = gcn_layer(h, plan, w, b)
        if self.structure == "con":
            h = T.embedding(h, np.flatnonzero(is_word))
        return h, tok_off


class StudentModel(BaseModel):
    """3-layer BiLSTM student with task, language-model and structure heads."""

    kind = "student"
    structure = "seq"

    def __init__(self, codec, emb_dim=300, hidden=350, n_layers=3, rng=None,
                 dtype=np.float32):
        super().__init__(codec, rng, dtype)
        self.hidden = hidden
        self.encoder = StudentEncoder(self.p, "enc", len(codec.vocab), emb_dim,
                                      hidden, n_layers, rng, dtype)
        self.rep_dim = 2 * hidden
        self._make_head(self.rep_dim)
        self.arc_scorer = ArcLabelScorer(self.p, "arc", self.rep_dim,
                                         len(codec.dep_labels), hidden, rng, dtype)
        self.span_scorer = SpanScorer(self.p, "span", self.rep_dim,
                                      len(codec.con_labels), rng, dtype)
        self.lm_W = self.p.add("lm/W", (hidden, len(codec.vocab)), rng, dtype=dtype)
        self.lm_b = self.p.add("lm/b", (len(codec.vocab),), init="zeros", dtype=dtype)
        self.lm_begin = self.p.add("lm/begin", (1, hidden), init="zeros", dtype=dtype)
        self.projections = {}

    def add_projection(self, name, teacher_dim, common_dim):
        """f_t for one teacher plus (once) the student-side f_s."""
        if "f_s" not in self.projections:
            self.projections["f_s"] = (
                self.p.add("proj/f_s/W", (self.rep_dim, common_dim), self.rng,
                           dtype=self.dtype),
                self.p.add("proj/f_s/b", (common_dim,), init="zeros", dtype=self.dtype),
            )
        key = f"f_t/{name}"
        if key not in self.projections:
            self.projections[key] = (
                self.p.add(f"proj/{key}/W", (teacher_dim, common_dim), self.rng,
                           dtype=self.dtype),
                self.p.add(f"proj/{key}/b", (common_dim,), init="zeros", dtype=self.dtype),
            )

    def project(self, which, mat: Tensor) -> Tensor:
        w, b = self.projections[which]
        return T.add(T.matmul(mat, w), b)

    def reps(self, sides, train=False, rng=None):
        """Stacked token rows of a batch of sides plus their row offsets, from
        one packed encoder batch."""
        return (self.encoder.encode_batch([s.token_ids for s in sides], train, rng)["top"],
                offsets([s.n for s in sides]))


def make_teacher(kind, codec, emb_dim=300, hidden=300, n_layers=2, rng=None,
                 dtype=np.float32):
    if kind == "tlstm-dep":
        return DepTreeLstmModel(codec, emb_dim, hidden, n_layers, rng, dtype)
    if kind == "tlstm-con":
        return ConTreeLstmModel(codec, emb_dim, hidden, n_layers, rng, dtype)
    if kind == "gcn-dep":
        return GcnModel(codec, "dep", emb_dim, n_layers, rng, dtype)
    if kind == "gcn-con":
        return GcnModel(codec, "con", emb_dim, n_layers, rng, dtype)
    raise ValueError(f"unknown teacher kind {kind!r}")


TEACHER_KINDS = ("tlstm-dep", "gcn-dep", "tlstm-con", "gcn-con")
