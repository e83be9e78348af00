"""Neural encoders and heads.

Tree teachers (Child-Sum TreeLSTM over dependency trees, N-ary TreeLSTM over
binarized constituency trees, gated GCNs over either graph), the 3-layer
BiLSTM student, and the two structure-scoring heads (biaffine arc/label
scorer, span scorer). Every part draws its parameters through its model's
one Params registry, from the model's generator in its dtype, so the full
parameter vector is enumerable for regularization and checkpointing.

Every model encodes a whole batch of sentences at once through
`reps(sides) -> (rows, offsets)`: the token rows of all sentences stacked in
input order plus their row offsets, which BaseModel's task head, the losses
and the scorers consume. The four tree teachers are one TeacherModel over one
(is_word, ids, edges) view per sentence, its tree as (k, 2) edge rows (a
binarized tree's are those its BinTree holds). Each sentence keeps the plan
fragment of its view that a teacher kind reads, built the first time a batch
holds it; a `reps` call merges its sides' fragments into one plan: each
TreeLSTM layer direction is one tape op that runs the cell level by level
across every tree of the batch (dynamic batching); each GCN layer is one tape
op that sums every node's messages in a fixed order. The student runs one
packed BiLSTM batch over sentences of any lengths, and the arc and span
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
    """Ordered name -> Tensor registry and the one place a parameter is made:
    `add` draws it from the registry's generator (with none, it makes zeros
    for `load_state_dict` to fill) in the registry's dtype. Insertion order
    fixes checkpoint order and the order of the draws."""

    def __init__(self, rng, dtype=np.float32):
        self.tensors = {}
        self.rng, self.dtype = rng, dtype

    def add(self, name, shape, init="xavier"):
        """Register a Glorot-uniform ("xavier") or all-zero parameter."""
        if name in self.tensors:
            raise ValueError(f"duplicate parameter {name!r}")
        if init not in ("xavier", "zeros"):
            raise ValueError(f"unknown init {init!r}")
        data = np.zeros(shape, dtype=self.dtype)
        if init == "xavier" and self.rng is not None:
            limit = np.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) > 1 else shape[0])))
            data = self.rng.uniform(-limit, limit, size=shape).astype(self.dtype)
        t = self.tensors[name] = Tensor(data, requires_grad=True)
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
    """1 / (1 + e^-a); its callers ignore exp's overflow to inf, which gives 0."""
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


def _sum_rows(n, seg, rows, single):
    """(n, width) sums: row i adds every rows[k] with seg[k] == i to +0, in k
    order. Where each row has one input at most (`single`), a scatter plus
    +0 gives the same bits, -0.0 included."""
    acc = np.zeros((n, rows.shape[1]), dtype=rows.dtype)
    if not single:
        return T._add_rows(acc, seg, rows)
    acc[seg] = rows
    acc += 0.0
    return acc


class ChildSumCell:
    """Child-Sum TreeLSTM cell: gates from the summed child state, one forget
    gate per child computed from that child's own hidden state.

    Children are folded in a canonical byte order, so the output is bitwise
    invariant under sibling permutations despite float addition being
    non-associative. A level whose nodes have one child at most needs no
    such order: its edges arrive by node.
    """

    GATES = ("i", "f", "o", "u")
    n_ary = None  # any number of children

    def __init__(self, p: Params, prefix, in_dim, hid):
        self.hid = hid
        self.W, self.U, self.b = {}, {}, {}
        for g in self.GATES:
            self.W[g] = p.add(f"{prefix}/W{g}", (in_dim, hid))
            self.U[g] = p.add(f"{prefix}/U{g}", (hid, hid))
            self.b[g] = p.add(f"{prefix}/b{g}", (hid,), init="zeros")

    def fuse(self):
        """Input block (in, 4h) and bias as [i, o, u, f]; U_iou (h, 3h), U_f."""
        w = T.concat([self.W[g] for g in "iouf"], axis=1)
        b = T.concat([self.b[g] for g in "iouf"], axis=0)
        return w, b, (T.concat([self.U[g] for g in "iou"], axis=1), self.U["f"])

    def forward(self, rec, xw, seg, slot, src, single, H, C):
        hid, n = self.hid, xw.shape[0]
        kid_h, kid_c = H[src], C[src]
        if not single:
            order = np.lexsort((_row_keys(kid_h, kid_c), seg))
            seg, src, kid_h, kid_c = seg[order], src[order], kid_h[order], kid_c[order]
        u_iou, u_f = rec
        kid_sum = _sum_rows(n, seg, kid_h, single)
        pre = xw[:, :3 * hid] + kid_sum @ u_iou
        f = _sigmoid(xw[seg, 3 * hid:] + kid_h @ u_f)
        forget = _sum_rows(n, seg, f * kid_c, single)
        return pre, forget, (seg, src, single, kid_h, kid_c, kid_sum, f)

    def backward(self, rec, saved, d_pre, dc):
        seg, src, single, kid_h, kid_c, kid_sum, f = saved
        u_iou, u_f = rec
        d_fc = dc[seg]
        d_f = d_fc * kid_c * f * (1.0 - f)
        d_kid_h = d_f @ u_f.T + (d_pre @ u_iou.T)[seg]
        d_x_f = _sum_rows(dc.shape[0], seg, d_f, single)
        return (np.concatenate((d_pre, d_x_f), axis=1), (src, d_kid_h, d_fc * f),
                (kid_sum.T @ d_pre, kid_h.T @ d_f))


class NaryCell:
    """N-ary TreeLSTM cell with per-branch U matrices and per-(child, branch)
    forget matrices; absent children contribute zero state."""

    def __init__(self, p: Params, prefix, in_dim, hid, n_ary=2):
        self.hid = hid
        self.n_ary = n_ary
        self.W, self.b, self.U = {}, {}, {}
        for g in ("i", "o", "u", "f"):
            self.W[g] = p.add(f"{prefix}/W{g}", (in_dim, hid))
            self.b[g] = p.add(f"{prefix}/b{g}", (hid,), init="zeros")
        for g in ("i", "o", "u"):
            self.U[g] = [p.add(f"{prefix}/U{g}{q}", (hid, hid)) for q in range(n_ary)]
        self.Uf = [[p.add(f"{prefix}/Uf{k}{q}", (hid, hid)) for q in range(n_ary)]
                   for k in range(n_ary)]

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

    def forward(self, rec, xw, seg, slot, src, single, H, C):
        hid, n, m = self.hid, xw.shape[0], self.n_ary
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
# tree level plans: each tree's fragment, built once, and a batch's plan
# merged from its trees' fragments

def offsets(counts) -> np.ndarray:
    """Row offsets of stacked blocks: block b is rows [off[b], off[b + 1])."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _stack_edges(sizes, graphs):
    """Node offsets of a batch of graphs of sizes[b] nodes, each graph's edge
    count, and their (k, 2) edge rows stacked, each graph's node ids shifted
    past those before it."""
    off, counts = offsets(sizes), [len(g) for g in graphs]
    e = np.concatenate(graphs).reshape(-1, 2).astype(np.int64, copy=False)
    return off, counts, e + np.repeat(off[:-1], counts)[:, None]


@dataclass
class LevelPlan:
    """One direction of a batch's level schedule: nodes sorted stably by
    level (perm, its inverse pos) and per level its sorted rows [lo, hi),
    its incoming edges by (seg, slot), edge k feeding buffer row src[k] (row
    0 the zero state, 1 + r sorted row r) to node seg[k] as child slot[k],
    and whether each of its nodes has one input at most (single); fan_in is
    the most inputs any node has."""
    perm: np.ndarray
    pos: np.ndarray
    levels: list  # (lo, hi, seg, slot, src, single) per level
    fan_in: int


def level_fragments(sizes, trees):
    """The level-plan fragment of each of a batch of trees, built together:
    tree b has sizes[b] nodes and one (child, parent) row per edge in
    trees[b]. A fragment is a (4, n) array, one column per node: its height,
    its depth, its parent's id minus its own (0 at a root) and its slot, the
    rank of its row among its siblings' rows (0 at a root). Parents are
    relative, so a fragment reads the same wherever its tree is stacked."""
    off, counts, e = _stack_edges(sizes, trees)
    n = int(off[-1])
    child, parent = e[np.argsort(e[:, 1], kind="stable")].T
    up = np.full(n, -1, dtype=np.int64)
    up[child] = parent
    if np.count_nonzero(up >= 0) < child.size:
        raise DataError(f"node {int(np.flatnonzero(np.bincount(child) > 1)[0])} has two parents")
    slot = np.zeros(n, dtype=np.int64)
    slot[child] = np.arange(parent.size) - offsets(np.bincount(parent, minlength=n))[parent]
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
    nodes = np.stack([height, depth, np.where(up >= 0, up - np.arange(n), 0), slot])
    cut = off.tolist()
    return [nodes[:, a:z] for a, z in zip(cut, cut[1:])]


def _level_plan(level, src, dst, slot) -> LevelPlan:
    """One direction's LevelPlan from each node's level and the edges, src
    feeding dst as its slot-th input, listed by (dst, slot): one stable sort
    of the nodes and one of the edges, both on level keys, put them in
    (level, dst) order."""
    counts = np.bincount(level)
    # the narrowest unsigned type that holds the levels, which numpy radix-sorts
    keys = level.astype(np.min_scalar_type(counts.size))
    perm = np.argsort(keys, kind="stable")
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    key = keys[dst]
    order = np.argsort(key, kind="stable")
    key, slot, dst, src = key[order], slot[order], pos[dst[order]], pos[src[order]] + 1
    hi = np.cumsum(counts)
    seg = dst - (hi - counts)[key]
    multi = np.bincount(key[slot > 0], minlength=counts.size).tolist()
    levels, lo, a = [], 0, 0
    for top, z, m in zip(hi.tolist(), np.searchsorted(dst, hi).tolist(), multi):
        levels.append((lo, top, seg[a:z], slot[a:z], src[a:z], not m))
        lo, a = top, z
    return LevelPlan(perm, pos, levels, int(slot.max()) + 1 if slot.size else 0)


def level_plans(frags):
    """(bottom-up, top-down) LevelPlans of a batch of trees, read by every
    layer, merged from the trees' `level_fragments` stacked in batch order.
    Bottom-up, children feed parents, each in its slot, level by height;
    top-down, the parent state is the single input of each node (roots get
    zero state), level by depth."""
    height, depth, up, slot = np.concatenate(frags, axis=1)
    parent = np.arange(up.size) + up
    child = np.flatnonzero(depth)
    # the bottom-up edges, one per non-root node, by (parent, slot)
    kids = child[np.argsort(parent[child] * (int(slot.max()) + 1) + slot[child], kind="stable")]
    return (_level_plan(height, kids, parent[kids], slot[kids]),
            _level_plan(depth, parent[child], child, np.zeros_like(child)))


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
    if cell.n_ary is not None and plan.fan_in > cell.n_ary:
        raise ValueError(f"{plan.fan_in} children exceed N={cell.n_ary}; binarize first")
    w, b, rec = cell.fuse()
    recs, hid = [r.data for r in rec], cell.hid
    H = np.zeros((1 + plan.perm.size, hid), dtype=x.dtype)
    C = np.zeros_like(H)
    steps = []
    with np.errstate(over="ignore"):
        for lo, hi, seg, slot, src, single in plan.levels:
            xe = x.data[plan.perm[lo:hi]]
            # projected per level, not once for all nodes: this keeps the
            # float rounding that existing checkpoints were trained with
            xw = xe @ w.data + b.data
            pre, forget, kids = (cell.forward(recs, xw, seg, slot, src, single, H, C)
                                 if src.size else (xw, None, None))
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
    for _, _, _, _, src, _ in reversed(plan.levels):
        parents += [w, b, *(rec if src.size else ())]
    return T._emit(out, tuple(parents), back)


# ---------------------------------------------------------------------------
# GCN

@dataclass
class MessagePlan:
    """A batch's GCN messages, message k going from node src[k] to dst[k] as
    the rank[0, k]-th message into dst[k] and the rank[1, k]-th out of
    src[k], laid out for summing each node's messages in rank order. Nodes
    are sorted stably by message count, most first, node i at sorted row
    pos[i]; every node counts as many messages in as out. Column q of a
    table lists the q-th message of each node with more than q, by sorted
    row, in table[bounds[q]:bounds[q + 1]], so the columns hold every
    message once."""
    src: np.ndarray
    dst: np.ndarray
    rank: np.ndarray
    pos: np.ndarray
    bounds: list

    def _table(self, ends, starts, rank):
        """Each node's `starts` rows in message order, over the messages
        that `ends` at it, column by column."""
        table = np.empty_like(starts)
        table[np.array(self.bounds, dtype=np.int64)[rank] + self.pos[ends]] = starts
        return table

    @cached_property
    def into(self):
        """Source rows summed into each node: the forward table."""
        return self._table(self.dst, self.src, self.rank[0])

    @cached_property
    def out_of(self):
        """Destination rows each node sends to: the backward table, built by
        the first backward pass only."""
        return self._table(self.src, self.dst, self.rank[1])

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
    with np.errstate(over="ignore"):
        gate = _sigmoid(h.data @ w.data + b.data)
    s = plan.sum(h.data * gate, plan.into)

    def back(g):
        d_msg = plan.sum(g * (s > 0), plan.out_of)
        d_pre = d_msg * h.data * gate * (1.0 - gate)
        return [d_msg * gate + d_pre @ w.data.T, h.data.T @ d_pre, d_pre.sum(axis=0)]

    return T._emit(Tensor(np.maximum(s, 0)), (h, w, b), back)


def _ranks(values, n):
    """Each entry's rank, in order, among the entries of its value in [0, n)."""
    order = np.argsort(values, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(values.size) - offsets(np.bincount(values, minlength=n))[values[order]]
    return rank


def message_fragments(sizes, graphs):
    """The message-plan fragment of each of a batch of graphs, built
    together: graph b has sizes[b] nodes and (a, b) edge rows graphs[b]. A
    node messages itself, then both ways along every row, a to b before b to
    a, as in a symmetric 0/1 adjacency with self-loops. A fragment is the
    graph's node count and a (6, k) array, one column per edge, in its own
    node ids: rows a and b, then the rank of the message a to b into b and
    out of a, and that of b to a into a and out of b (a self-loop is rank 0
    both ways)."""
    off, counts, e = _stack_edges(sizes, graphs)
    n, (a, b) = int(off[-1]), e.T
    # a node receives its loop, then along the rows where it is b, then
    # along those where it is a, and sends its loop, then along the rows
    # where it is a, then along those where it is b
    nth_a, nth_b = 1 + _ranks(a, n), 1 + _ranks(b, n)
    rows = np.stack([a, b, nth_b, nth_a, nth_a + np.bincount(b, minlength=n)[a],
                     nth_b + np.bincount(a, minlength=n)[b]])
    rows[:2] -= np.repeat(off[:-1], counts)
    cut = offsets(counts).tolist()
    return [(m, rows[:, lo:hi]) for m, lo, hi in zip(sizes, cut, cut[1:])]


def gcn_edges(frags) -> MessagePlan:
    """The MessagePlan of a batch of graphs stacked block-diagonally, read by
    every layer, merged from the graphs' `message_fragments` with each
    graph's node ids shifted past those before it. Its messages are every
    node's loop, then every row's a to b, then every row's b to a."""
    sizes, parts = zip(*frags)
    off = offsets(sizes)
    rows = np.concatenate(parts, axis=1)
    rows[:2] += np.repeat(off[:-1], [p.shape[1] for p in parts])
    n, (a, b) = int(off[-1]), rows[:2]
    loops = np.arange(n)
    src, dst = np.concatenate([loops, a, b]), np.concatenate([loops, b, a])
    count = np.bincount(dst, minlength=n)
    hist = np.bincount(count)
    # most messages first, by one stable sort on small keys (radix-sorted)
    pos = np.empty_like(count)
    pos[np.argsort((hist.size - 1 - count).astype(np.min_scalar_type(hist.size)),
                   kind="stable")] = loops
    rank = np.concatenate([np.zeros((2, n), dtype=np.int64), rows[2:4], rows[4:]], axis=1)
    # column q holds the nodes with more than q messages
    return MessagePlan(src, dst, rank, pos, offsets(n - np.cumsum(hist)[:-1]).tolist())


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
    the rows back in sentence order. Dropout is drawn once, on the
    embeddings, so both readers draw the same numbers from `rng`.
    """

    def __init__(self, p: Params, prefix, vocab_size, emb_dim, hid, n_layers=3):
        self.hid = hid
        self.emb = p.add(f"{prefix}/emb", (vocab_size, emb_dim))
        self.layers = []
        for l in range(n_layers):
            in_dim = emb_dim if l == 0 else 2 * hid
            layer = {}
            for d in ("f", "b"):
                layer[d] = {
                    "W": p.add(f"{prefix}/l{l}{d}/W", (in_dim, 4 * hid)),
                    "U": p.add(f"{prefix}/l{l}{d}/U", (hid, 4 * hid)),
                    "b": p.add(f"{prefix}/l{l}{d}/b", (4 * hid,), init="zeros"),
                }
            self.layers.append(layer)

    def _embed(self, ids, train, rng):
        """Packed embedding rows of a batch (dropped out in training), the
        row count of each step, and each token's packed row, sentence by
        sentence in input order."""
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
        return _dropout(T.embedding(self.emb, packed), train, rng), counts, pos

    @staticmethod
    def _scan(x, layer, d, counts):
        return T.lstm_scan(T.add(T.matmul(x, layer[d]["W"]), layer[d]["b"]),
                           layer[d]["U"], counts, reverse=d == "b")

    def encode_batch(self, ids, train=False, rng=None):
        """ids: B token-id sequences (rows of a (B, T) array work too) ->
        (N, 2h) top-layer states stacked by sentence in input order, N the
        total token count. Runs both directions of every layer."""
        x, counts, pos = self._embed(ids, train, rng)
        for layer in self.layers:
            x = T.concat([self._scan(x, layer, d, counts) for d in ("f", "b")], axis=1)
        return T.embedding(x, pos)

    def lm_states(self, ids, train=False, rng=None):
        """(N, h) first-layer forward states of the same batch, stacked as
        encode_batch stacks its rows: what the masked-word loss reads. Runs
        only that one projection and scan; the rows, the rng draws and every
        gradient through them equal those of a full-stack encode."""
        x, counts, pos = self._embed(ids, train, rng)
        return T.embedding(self._scan(x, self.layers[0], "f", counts), pos)


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


# ---------------------------------------------------------------------------
# structure-scoring heads

@dataclass
class ArcScores:
    """Arc and label logits of a batch, stacked by dependent: column 0 is the
    virtual root, column c the dependent's own sentence's token c - 1, and
    the columns past its sentence's length hold ArcLabelScorer.PAD_LOGIT. A
    label logit is the sum of its dependent's row and its head's row."""
    arc_logits: Tensor   # (total tokens, n_max + 1)
    dep_labels: Tensor   # (total tokens, n_labels)
    head_labels: Tensor  # (1 + total tokens, n_labels): the root, then every token
    off: np.ndarray      # token offsets of the batch's sentences

    def label_logits(self, cols) -> Tensor:
        """Each dependent's label logits at the arc from its column cols[k]."""
        head = np.where(cols > 0, np.repeat(self.off[:-1], np.diff(self.off)) + cols, 0)
        return T.add(self.dep_labels, T.embedding(self.head_labels, head))


class ArcLabelScorer:
    """Bilinear-plus-linear head/dependent scorer with a learned root column
    (Dozat & Manning 2017, arXiv:1611.01734). The linear term scores the head
    only: a dependent-only term adds the same value to every candidate of a
    dependent, so it cancels in the arc softmax and gets no gradient. Only
    the bilinear term is formed per candidate; the linear and label terms are
    projected once per token."""

    PAD_LOGIT = -1e9  # zero softmax weight, yet 0 * PAD_LOGIT stays finite

    def __init__(self, p: Params, prefix, in_dim, n_labels, arc_dim):
        a = arc_dim
        self.Wd = p.add(f"{prefix}/Wd", (in_dim, a))
        self.bd = p.add(f"{prefix}/bd", (a,), init="zeros")
        self.Wh = p.add(f"{prefix}/Wh", (in_dim, a))
        self.bh = p.add(f"{prefix}/bh", (a,), init="zeros")
        self.root = p.add(f"{prefix}/root", (1, a), init="zeros")
        self.A = p.add(f"{prefix}/A", (a, a))
        self.wh = p.add(f"{prefix}/wh", (a, 1))
        self.Wl = p.add(f"{prefix}/Wl", (2 * a, n_labels))
        self.bl = p.add(f"{prefix}/bl", (n_labels,), init="zeros")

    def __call__(self, mat: Tensor, off) -> ArcScores:
        """Scores of every dependent of rows [off[b], off[b + 1]) of `mat`."""
        lens = np.diff(off)
        n, col, a = mat.shape[0], np.arange(lens.max() + 1), self.A.shape[0]
        real = col <= np.repeat(lens, lens)[:, None]
        # row of each (dependent, column) candidate in [root; hh]: the root
        # for column 0 and for padding, else the sentence's token col - 1
        head = np.where(real & (col > 0), np.repeat(off[:-1], lens)[:, None] + col, 0).ravel()
        hd = T.tanh(T.add(T.matmul(mat, self.Wd), self.bd))
        heads = T.concat([self.root, T.tanh(T.add(T.matmul(mat, self.Wh), self.bh))], axis=0)
        dep = T.embedding(T.matmul(hd, self.A), np.repeat(np.arange(n), col.size))
        bilinear = T.sum_(T.mul(dep, T.embedding(heads, head)), axis=1, keepdims=True)
        lin = T.embedding(T.matmul(heads, self.wh), head)
        pad = np.where(real, 0.0, self.PAD_LOGIT).astype(mat.dtype)
        arc = T.add(T.reshape(T.add(bilinear, lin), (n, col.size)), Tensor(pad))
        return ArcScores(arc, T.add(T.matmul(hd, T.slice_rows(self.Wl, 0, a)), self.bl),
                         T.matmul(heads, T.slice_rows(self.Wl, a, 2 * a)), np.asarray(off))


@dataclass
class ScoredSpans:
    """Differentiable span scores of a batch: each sentence's spans in
    span_order, sentence after sentence, the layout of structures.chart_max."""
    tensor: Tensor   # (total spans, n_labels)
    off: np.ndarray  # token offsets of the batch's sentences


class SpanScorer:
    """Feedforward scorer over fencepost endpoint features [b_j - b_i; b_i; b_j],
    computed from W's row blocks as b_j (W1 + W3) + b_i (W2 - W1) + b with
    each term projected once per fencepost."""

    def __init__(self, p: Params, prefix, in_dim, n_labels):
        self.W = p.add(f"{prefix}/W", (3 * in_dim, n_labels))
        self.b = p.add(f"{prefix}/b", (n_labels,), init="zeros")

    def __call__(self, mat: Tensor, off) -> ScoredSpans:
        """Scores of every span of every sentence of rows [off[b], off[b + 1])."""
        d = mat.shape[1]
        w1, w2, w3 = (T.slice_rows(self.W, k * d, (k + 1) * d) for k in range(3))
        # fencepost k > 0 of sentence b is its token k - 1, row off[b] + k of
        # bounds; every fencepost 0 is the zero row
        bounds = T.concat([Tensor(np.zeros((1, d), dtype=mat.dtype)), mat], axis=0)
        spans = [(o, *span_order(n)) for o, n in zip(off[:-1], np.diff(off))]
        ends = T.embedding(T.matmul(bounds, T.add(w1, w3)),
                           np.concatenate([o + j for o, _, j in spans]))
        starts = T.embedding(T.matmul(bounds, T.sub(w2, w1)),
                             np.concatenate([np.where(i > 0, o + i, 0) for o, i, _ in spans]))
        return ScoredSpans(T.add(T.add(ends, starts), self.b), np.asarray(off))


# ---------------------------------------------------------------------------
# vocabulary bundle and encoded examples

class Codec:
    """Vocabularies shared by every model in one run, built from training data."""

    def __init__(self, examples, task):
        self.task = task
        token_lists, trees = [], {}
        dep_labels, tags, classes = set(), set(), set()
        for i, ex in enumerate(examples):
            self._check_kind(i, ex)
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

    def _check_kind(self, i, ex):
        kind = ex.payload_kind()
        if kind != self.task:
            raise DataError(f"example {i} has a {kind} payload, not one of task {self.task!r}")

    def check(self, examples):
        """Raise DataError at the first example whose payload is not of the
        codec's task, or whose class label or tag the codec lacks."""
        known = self.tags.stoi if self.task == "tag" else range(self.n_classes)
        for i, ex in enumerate(examples):
            self._check_kind(i, ex)
            for gold in ex.tags if self.task == "tag" else [ex.label]:
                if gold not in known:
                    raise DataError(f"example {i} has gold {gold!r}, not a {self.task} "
                                    f"class of the model ({len(known)} classes)")

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
    label outside the codec's vocabulary raises DataError when read. `plans`
    keeps, per teacher kind, the plan fragment of the view it reads, built by
    the first batch that holds the sentence."""

    def __init__(self, codec: Codec, ex: Example):
        self.codec, self.raw = codec, ex
        self.n = len(ex.sent)
        self.token_ids = codec.vocab.encode(ex.sent.tokens)
        self.plans = {}

    @cached_property
    def heads(self):
        return None if self.raw.dep is None else list(self.raw.dep.heads)

    @cached_property
    def dep_label_ids(self):
        return None if self.raw.dep is None else self.codec.dep_labels.encode(self.raw.dep.labels)

    @cached_property
    def dep_view(self):
        """(is_word, ids, edges) of both dependency teachers: every node is a
        token, read by its token id; edges holds (dependent, head) rows."""
        if self.raw.dep is None:
            return None
        return np.ones(self.n, dtype=bool), self.token_ids, dep_edges(self.raw.dep.heads)

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
    """An example's sides and its tag ids, built on first read so that data of
    any task can be encoded; its label and predicate are read from raw."""

    def __init__(self, codec: Codec, ex: Example):
        self.codec, self.raw = codec, ex
        self.main = EncodedSide(codec, ex)
        self.partner = EncodedSide(codec, ex.partner) if ex.partner is not None else None

    @cached_property
    def tag_ids(self):
        return self.codec.tags.encode(self.raw.tags)


# ---------------------------------------------------------------------------
# assembled models

BATCH_ROWS = 128  # sentences per forward pass when predicting


class BaseModel:
    """Common plumbing: params registry, batching, the task head."""

    def __init__(self, codec: Codec, rng, dtype=np.float32):
        self.codec = codec
        self.task = codec.task
        self.p = Params(rng, dtype)
        self.struct_heads = {}  # structure ("dep" or "con") -> its scorer

    def _make_head(self, rep_dim):
        """The task head: one linear layer over head_logits' features."""
        n = self.codec.n_classes
        if self.task == "tag":
            self.p.add("head/ind", (2, 16))
        width = {"pair": 5 * rep_dim, "tag": rep_dim + 16}.get(self.task, rep_dim)
        self.p.add("head/W", (width, n))
        self.p.add("head/b", (n,), init="zeros")

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
        """Task logits from already computed main-side (reps, offsets): a linear
        layer over the mean row (cls), over [u; v; u*v; u-v; u+v] of both
        sides' mean rows (pair), or over each row plus its predicate flag (tag)."""
        mat, off = main
        if self.task == "pair":
            u = segment_mean(mat, off)
            v = segment_mean(*self.reps([e.partner for e in encs], train, rng))
            feat = T.concat([u, v, T.mul(u, v), T.sub(u, v), T.add(u, v)], axis=1)
        elif self.task == "tag":
            flags = np.zeros(mat.shape[0], dtype=np.int64)
            flags[off[:-1] + np.array([e.raw.predicate for e in encs])] = 1
            feat = T.concat([mat, T.embedding(self.p["head/ind"], flags)], axis=1)
        else:
            feat = segment_mean(mat, off)
        return T.add(T.matmul(feat, self.p["head/W"]), self.p["head/b"])

    def add_structure_head(self, structure, arc_dim=64):
        """Register struct_heads[structure]: the arc/label scorer for "dep",
        the span scorer for "con". Teachers add their own structure's head
        for soft teacher structure targets; the student has both."""
        if structure == "dep":
            head = ArcLabelScorer(self.p, "arc", self.rep_dim, len(self.codec.dep_labels),
                                  arc_dim)
        else:
            head = SpanScorer(self.p, "span", self.rep_dim, len(self.codec.con_labels))
        self.struct_heads[structure] = head

    def parameters(self):
        return self.p.all()


class TeacherModel(BaseModel):
    """A tree teacher over one (is_word, ids, edges) view per sentence, the
    EncodedSide attribute `view`: word embeddings (and, over constituency
    trees, label embeddings), `layers`, and the task head. A TreeLSTM layer
    is an (up, down) pair of `cell`s; a GCN layer (cell None) is one (W, b)
    gate, its width the embedding's."""

    cell = None

    def __init__(self, codec, emb_dim=300, hidden=300, n_layers=2, *, rng,
                 dtype=np.float32):
        super().__init__(codec, rng, dtype)
        self.emb = self.p.add("emb", (len(codec.vocab), emb_dim))
        if self.structure == "con":
            self.label_emb = self.p.add("label_emb", (len(codec.con_labels), emb_dim))
        self.rep_dim = emb_dim if self.cell is None else 2 * hidden
        self.layers = []
        for l in range(n_layers):
            if self.cell is None:
                self.layers.append((self.p.add(f"l{l}/W", (emb_dim, emb_dim)),
                                    self.p.add(f"l{l}/b", (emb_dim,), init="zeros")))
            else:
                in_dim = emb_dim if l == 0 else 2 * hidden
                self.layers.append(tuple(self.cell(self.p, f"l{l}/{d}", in_dim, hidden)
                                         for d in ("up", "down")))
        self._make_head(self.rep_dim)

    def _fragments(self, sides):
        """Each side's plan fragment of the teacher's view; those the sides
        lack are built together and kept in their `plans`."""
        new = [s for s in sides if self.kind not in s.plans]
        if new:
            views = [getattr(s, self.view) for s in new]
            build = message_fragments if self.cell is None else level_fragments
            for s, frag in zip(new, build([v[1].size for v in views], [v[2] for v in views])):
                s.plans[self.kind] = frag
        return [s.plans[self.kind] for s in sides]

    def _encode(self, sides, train, rng):
        """Stacked token rows of a batch of sides plus their row offsets: node
        rows (a dependency tree's nodes are its tokens; over a constituency
        tree, word and label embeddings share one dropout and are
        interleaved by one gather), one plan merged from the sides'
        fragments that every layer reads, then the word nodes' rows."""
        if self.structure == "dep":
            x = _dropout(T.embedding(self.emb, np.concatenate([s.token_ids for s in sides])),
                         train, rng)
        else:
            views = [getattr(s, self.view) for s in sides]
            is_word = np.concatenate([v[0] for v in views])
            ids = np.concatenate([v[1] for v in views])
            x = _dropout(T.concat([T.embedding(self.emb, ids[is_word]),
                                   T.embedding(self.label_emb, ids[~is_word])], axis=0),
                         train, rng)
            order = np.empty_like(ids)  # each node's row in [words; labels]
            order[np.argsort(~is_word, kind="stable")] = np.arange(ids.size)
            x = T.embedding(x, order)
        plan = (gcn_edges if self.cell is None else level_plans)(self._fragments(sides))
        for layer in self.layers:
            x = gcn_layer(x, plan, *layer) if self.cell is None else tree_encode(plan, x, *layer)
        if self.structure == "con":
            x = T.embedding(x, np.flatnonzero(is_word))
        return x, offsets([s.n for s in sides])


class DepTreeLstmModel(TeacherModel):
    """Bidirectional Child-Sum TreeLSTM over the dependency tree."""

    kind = "tlstm-dep"
    structure = "dep"
    view = "dep_view"
    cell = ChildSumCell

    def reps(self, sides, train=False, rng=None):
        return self._encode(sides, train, rng)


class ConTreeLstmModel(TeacherModel):
    """Bidirectional binary N-ary TreeLSTM over the binarized constituency tree."""

    kind = "tlstm-con"
    structure = "con"
    view = "con_tree"
    cell = NaryCell

    def reps(self, sides, train=False, rng=None):
        return self._encode(sides, train, rng)


class GcnModel(TeacherModel):
    """Gated GCN over either syntactic graph; output width equals emb width."""

    def __init__(self, codec, structure, emb_dim=300, n_layers=2, *, rng,
                 dtype=np.float32):
        self.structure, self.kind = structure, f"gcn-{structure}"
        self.view = "dep_view" if structure == "dep" else "con_gcn"
        super().__init__(codec, emb_dim, None, n_layers, rng=rng, dtype=dtype)

    def reps(self, sides, train=False, rng=None):
        return self._encode(sides, train, rng)


class StudentModel(BaseModel):
    """3-layer BiLSTM student with task, language-model and structure heads."""

    kind = "student"

    def __init__(self, codec, emb_dim=300, hidden=350, n_layers=3, *, rng,
                 dtype=np.float32):
        super().__init__(codec, rng, dtype)
        self.encoder = StudentEncoder(self.p, "enc", len(codec.vocab), emb_dim, hidden, n_layers)
        self.rep_dim = 2 * hidden
        self._make_head(self.rep_dim)
        self.add_structure_head("dep", arc_dim=hidden)
        self.add_structure_head("con")
        self.lm_W = self.p.add("lm/W", (hidden, len(codec.vocab)))
        self.lm_b = self.p.add("lm/b", (len(codec.vocab),), init="zeros")
        self.lm_begin = self.p.add("lm/begin", (1, hidden), init="zeros")

    def add_projection(self, name, teacher_dim):
        """proj/f_t/<name> for one teacher plus (once) the student-side
        proj/f_s, both into the student's rep_dim."""
        for key, in_dim in (("f_s", self.rep_dim), (f"f_t/{name}", teacher_dim)):
            if f"proj/{key}/W" not in self.p.tensors:
                self.p.add(f"proj/{key}/W", (in_dim, self.rep_dim))
                self.p.add(f"proj/{key}/b", (self.rep_dim,), init="zeros")

    def project(self, which, mat: Tensor) -> Tensor:
        return T.add(T.matmul(mat, self.p[f"proj/{which}/W"]), self.p[f"proj/{which}/b"])

    def reps(self, sides, train=False, rng=None):
        """Stacked token rows of a batch of sides plus their row offsets, from
        one packed encoder batch."""
        return (self.encoder.encode_batch([s.token_ids for s in sides], train, rng),
                offsets([s.n for s in sides]))


def make_teacher(kind, codec, emb_dim=300, hidden=300, n_layers=2, *, rng,
                 dtype=np.float32):
    if kind in ("gcn-dep", "gcn-con"):
        return GcnModel(codec, kind[4:], emb_dim, n_layers, rng=rng, dtype=dtype)
    if kind not in ("tlstm-dep", "tlstm-con"):
        raise ValueError(f"unknown teacher kind {kind!r}")
    tree = DepTreeLstmModel if kind == "tlstm-dep" else ConTreeLstmModel
    return tree(codec, emb_dim, hidden, n_layers, rng=rng, dtype=dtype)


TEACHER_KINDS = ("tlstm-dep", "gcn-dep", "tlstm-con", "gcn-con")
