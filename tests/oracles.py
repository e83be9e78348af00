"""Brute-force oracles used by tests: exhaustive search over bracketings,
one tree-cell update with hand-set child states, the per-sentence
`EncGraph` tree builders and the level plans built from them
(`reference_level_plans`) that the edge-array `level_plans` must match
bitwise, the taped tree kernels (`reference_tree_encode`), the taped GCN
layer (`reference_gcn_layer`) and
teacher `reference_reps` that the one-op level pass, the one-op GCN layer and
the per-side edge and input arrays must match bitwise, the row-major
packed LSTM scan that the gate-major one must match bitwise, the fine-token bracket
parser that the coarse-token one must match, a laminarity check for
constituency span sets, the node-walking binarization, constituency GCN
graph, bracketed rendering, head percolation, unbinarization and tree
equality that the span-reading ones must match, the per-function training
loops of teacher pre-training and distillation that the shared `run_loop`
must match bitwise, the taped probe training loop and per-span/per-arc
instance builders (`reference_probe_train_eval`,
`reference_constituent_instances`, `reference_dependency_instances`) that the
closed-form probe step and gathered instances must match bitwise, the
per-tensor Adam (`ReferenceAdam`) and taped L2 fold (`reference_reg_loss`)
that the flat-buffer Adam and the one-op `reg_loss` must match bitwise, the
node-building synthetic generator (`reference_gen_synthetic`) whose corpora
the span-emitting one must equal, the recursive `BinTree` check, the
sorting `con_edges` walk and the `con_tree` view and induced trees built on
them (`reference_check_bintree`, `reference_con_edges`, `reference_con_tree`,
`reference_induced_trees`) that the one post-order walk of `BinTree` must
match, and generators of random bracketed trees and of mutated JSONL
records.

The search is deliberately independent of the chart code — plain Python
loops, first strict maximum kept, bracketings enumerated split-ascending /
left-major so the first maximum agrees with the documented chart tie-break
(lowest split, then lowest label id).
"""
import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from synkd import tensor as T
from synkd.distill import (DistillConfig, DistillError, anneal_alpha, ce_sum, combine_syn,
                           total_loss)
from synkd.encoders import ChildSumCell, _dropout, _level_plan, _row_keys, offsets
from synkd.structures import UNARY_SEP, BinTree, chart_max
from synkd.syntax_data import (ARC_LABEL, DET, HEAD_CHILD, NOUNS, NULL_LABEL, RELPRON,
                               SHAPE_WEIGHTS, SHAPES, ConstNode, ConstTree, DataError,
                               DepTree, Example, Sentence, _Grammar, percolate_deps,
                               render_bracketed)
from synkd.tensor import ADAM_EPS, BETA1, BETA2, Adam, Tensor
from synkd.train import (
    BatchSampler,
    RunState,
    Schedule,
    TeacherSignals,
    _emit,
    _optimize,
    dev_metric_key,
    evaluate,
    hard_targets,
    inject_loss_batch,
    output_loss_batch,
    prepare_student,
    sem_loss_batch,
    syn_loss_batch,
)


@dataclass
class EncGraph:
    """Rooted tree over encoder nodes plus the token -> node row map: the
    per-sentence tree format that edge arrays replaced.

    height (leaves 0) and depth (root 0) are each node's level in a batched
    bottom-up and top-down pass."""
    children: list     # per node: ordered child node indices
    parent: list       # per node: parent index, -1 at the root
    token_rows: list   # token position -> node index
    order: list        # topological order, children before parents
    height: np.ndarray = field(init=False)
    depth: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.children)
        height, depth, parent = [0] * n, [0] * n, self.parent
        for v in self.order:
            p = parent[v]
            if p >= 0 and height[p] <= height[v]:
                height[p] = height[v] + 1
        for v in reversed(self.order):
            if parent[v] >= 0:
                depth[v] = depth[parent[v]] + 1
        self.height, self.depth = np.array(height), np.array(depth)

    @property
    def edges(self):
        """(parent, child, slot) per tree edge, slot being the child's
        position among its siblings."""
        return np.array([(v, c, q) for v, cs in enumerate(self.children)
                         for q, c in enumerate(cs)], dtype=np.int64).reshape(-1, 3)


def dep_enc_graph(heads) -> EncGraph:
    n = len(heads)
    children = [[] for _ in range(n)]
    parent = [-1] * n
    for i, h in enumerate(heads):
        if h != 0:
            children[h - 1].append(i)
            parent[i] = h - 1
    root = heads.index(0)
    order = _topo_order(children, root, n)
    return EncGraph(children, parent, list(range(n)), order)


def split_of(spans, i, j):
    """The lowest k whose spans (i, k) and (k, j) are both in spans."""
    for k in range(i + 1, j):
        if (i, k) in spans and (k, j) in spans:
            return k
    raise DataError(f"span ({i}, {j}) has no binary split")


def reference_check_bintree(n, spans):
    """The recursive check of `BinTree` that its one post-order walk
    replaced: raises DataError unless spans is a full binary bracketing of
    (0, n)."""
    if n < 1:
        raise DataError("empty tree")
    if len(spans) != 2 * n - 1:
        raise DataError(f"binary tree over {n} tokens needs {2 * n - 1} spans, "
                        f"got {len(spans)}")
    if (0, n) not in spans:
        raise DataError(f"root span (0, {n}) missing")

    def check(i, j):
        # (i, j) is a span: the root is checked above, and split_of finds
        # only splits into two spans
        if j - i > 1:
            k = split_of(spans, i, j)
            check(i, k)
            check(k, j)

    check(0, n)


def reference_con_edges(spans):
    """The `con_edges` of the encoders that `BinTree.edges` replaced, over a
    binary tree's (i, j) spans in any order: the spans in post-order, which
    sorting by end, then by start descending gives, and one (child, parent)
    row of span indices per child, left child first. In post-order an inner
    node's children are the last two nodes still without a parent."""
    spans = sorted(spans, key=lambda s: (s[1], -s[0]))
    edges, roots = [], []
    for v, (i, j) in enumerate(spans):
        if j - i > 1:
            right, left = roots.pop(), roots.pop()
            edges += [(left, v), (right, v)]
        roots.append(v)
    return spans, np.array(edges, dtype=np.int64).reshape(-1, 2)


def reference_con_tree(side):
    """`EncodedSide.con_tree` as it was before `BinTree` kept its spans in
    post-order with their edges: sorted, walked and looked up per span, over
    the labels of the node-walking binarization."""
    labels = reference_binarized_spans(side.raw.con)
    spans, edges = reference_con_edges(labels)
    is_word = np.array([j - i == 1 for i, j in spans])
    ids = side.codec.con_labels.encode([labels[s] for s in spans])
    ids[is_word] = side.token_ids
    return is_word, ids, edges


def con_enc_graph(bt: BinTree):
    """Nodes are the binarized tree's spans; returns the graph plus each
    node's span so callers can pick word vs label inputs."""
    spans = []

    def build(i, j):
        if j - i == 1:
            spans.append((i, j))
            return len(spans) - 1
        k = split_of(bt.spans, i, j)
        left = build(i, k)
        right = build(k, j)
        spans.append((i, j))
        me = len(spans) - 1
        kids[me] = [left, right]
        return me

    kids = {}
    build(0, bt.n)
    m = len(spans)
    children = [kids.get(v, []) for v in range(m)]
    parent = [-1] * m
    for v, cs in enumerate(children):
        for c in cs:
            parent[c] = v
    token_rows = [None] * bt.n
    for v, (i, j) in enumerate(spans):
        if j - i == 1:
            token_rows[i] = v
    order = _topo_order(children, m - 1, m)
    return EncGraph(children, parent, token_rows, order), spans


def edge_enc_graph(n, edges) -> EncGraph:
    """The EncGraph of an n-node tree given as (child, parent) rows, the
    children of each node in row order."""
    children, parent = [[] for _ in range(n)], [-1] * n
    for c, p in np.asarray(edges).reshape(-1, 2).tolist():
        children[p].append(c)
        parent[c] = p
    return EncGraph(children, parent, list(range(n)),
                    _topo_order(children, parent.index(-1), n))


def _topo_order(children, root, n):
    """Reversed breadth-first order from the root: children before parents."""
    order = [root]
    for v in order:
        order.extend(children[v])
        if len(order) > n:
            raise DataError(f"node {v} closes a cycle")
    if len(order) != n:
        raise DataError("tree does not reach all nodes")
    order.reverse()
    return order


def reference_level_plans(graphs):
    """The `level_plans` over EncGraphs that the edge-array one replaced:
    each graph's (parent, child, slot) edges, heights and depths built per
    sentence in Python, then stacked."""
    node_off = offsets([len(g.children) for g in graphs])
    parent, child, slot = np.concatenate(
        [g.edges + (o, o, 0) for g, o in zip(graphs, node_off)]).T
    height = np.concatenate([g.height for g in graphs])
    depth = np.concatenate([g.depth for g in graphs])
    return (_level_plan(height, parent, child, slot),
            _level_plan(depth, child, parent, np.zeros_like(slot)))


@dataclass
class LevelKids:
    """Incoming edges of the parents in one level, ordered by (seg, slot):
    edge k feeds the state at buffer row src[k] (row 0 is the zero state) to
    the level's parent seg[k] as its slot[k]-th child."""
    seg: np.ndarray
    slot: np.ndarray
    src: np.ndarray


def _lstm_update(pre, hid, forget_sum):
    """h, c from [i, o, u] pre-activations plus the gated child-memory sum."""
    io = T.sigmoid(T.slice_cols(pre, 0, 2 * hid))
    c = T.mul(T.slice_cols(io, 0, hid), T.tanh(T.slice_cols(pre, 2 * hid, 3 * hid)))
    if forget_sum is not None:
        c = T.add(c, forget_sum)
    return T.mul(T.slice_cols(io, hid, 2 * hid), T.tanh(c)), c


def _childsum_level(cell, rec, xw, kids: LevelKids, H: Tensor, C: Tensor):
    hid, n = cell.hid, xw.shape[0]
    pre = T.slice_cols(xw, 0, 3 * hid)
    if not kids.src.size:
        return _lstm_update(pre, hid, None)
    order = np.lexsort((_row_keys(H.data[kids.src], C.data[kids.src]), kids.seg))
    seg, src = kids.seg[order], kids.src[order]
    kid_h, kid_c = T.embedding(H, src), T.embedding(C, src)
    u_iou, u_f = rec
    pre = T.add(pre, T.matmul(T.segment_sum(kid_h, seg, n), u_iou))
    f = T.sigmoid(T.add(T.embedding(T.slice_cols(xw, 3 * hid, 4 * hid), seg),
                        T.matmul(kid_h, u_f)))
    return _lstm_update(pre, hid, T.segment_sum(T.mul(f, kid_c), seg, n))


def _nary_level(cell, rec, xw, kids: LevelKids, H: Tensor, C: Tensor):
    (rec,) = rec
    hid, n, m = cell.hid, xw.shape[0], cell.n_ary
    if not kids.src.size:
        return _lstm_update(xw, hid, None)
    if kids.slot.max() >= m:
        raise ValueError(f"{kids.slot.max() + 1} children exceed N={m}; binarize first")
    rows = np.zeros((n, m), dtype=np.int64)  # absent children read the zero row
    rows[kids.seg, kids.slot] = kids.src
    flat = rows.reshape(-1)
    kid_h = T.reshape(T.embedding(H, flat), (n, m * hid))
    kid_c = T.reshape(T.embedding(C, flat), (n, m * hid))
    pre = T.add(xw, T.matmul(kid_h, rec))
    fc = T.mul(T.sigmoid(T.slice_cols(pre, 3 * hid, (3 + m) * hid)), kid_c)
    return _lstm_update(pre, hid, T.sum_(T.reshape(fc, (n, m, hid)), axis=1))


def reference_level(cell, rec, xw, kids: LevelKids, H: Tensor, C: Tensor):
    """The taped per-level kernel of either tree cell that the fused level
    pass replaced: the level's projected inputs plus its children's states to
    the new (h, c) rows, about 25 tape ops."""
    level = _childsum_level if isinstance(cell, ChildSumCell) else _nary_level
    return level(cell, rec, xw, kids, H, C)


def reference_tree_encode(graphs, x: Tensor, up_cell, down_cell) -> Tensor:
    """The taped `tree_encode` that the one-op level pass replaced, kept
    verbatim as the bitwise reference: one cell call per level and direction,
    the batch's edge array rebuilt on every call.

    x stacks every graph's node inputs in graph order. Bottom-up (up_cell):
    children feed parents, level by height. Top-down (down_cell): the parent
    state is the single child input of each node (roots get zero state), level
    by depth. Returns the (total nodes, 2 * hid) matrix [bottom-up | top-down]
    in the rows of x.
    """
    node_off = offsets([len(g.children) for g in graphs])
    if x.shape[0] != node_off[-1]:
        raise ValueError(f"{x.shape[0]} input rows for {node_off[-1]} tree nodes")
    # (parent, child, slot) per tree edge, slot being the child's position
    # among its siblings
    parent, child, slot = np.array(
        [(v + o, c + o, q) for g, o in zip(graphs, node_off)
         for v, cs in enumerate(g.children) for q, c in enumerate(cs)],
        dtype=np.int64).reshape(-1, 3).T
    height = np.concatenate([g.height for g in graphs])
    depth = np.concatenate([g.depth for g in graphs])
    return T.concat([_reference_level_pass(up_cell, x, height, parent, child, slot),
                     _reference_level_pass(down_cell, x, depth, child, parent,
                                           np.zeros_like(slot))],
                    axis=1)


def _reference_level_pass(cell, x, level, dst, src, slot):
    """Nodes sorted by level; each level's inputs come from the state buffer
    of lower levels, which grows by one block of rows per level."""
    perm = np.argsort(level, kind="stable")
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    dst, src = pos[dst], pos[src] + 1  # buffer row 0 is the zero state
    order = np.lexsort((slot, dst))
    dst, src, slot = dst[order], src[order], slot[order]
    w, b, rec = cell.fuse()
    H = C = Tensor(np.zeros((1, cell.hid), dtype=x.dtype))
    lo = 0
    for hi in np.cumsum(np.bincount(level)):
        a, z = np.searchsorted(dst, [lo, hi])
        kids = LevelKids(dst[a:z] - lo, slot[a:z], src[a:z])
        # projected per level, not once for all nodes: this keeps the float
        # rounding that existing checkpoints were trained with
        xw = T.add(T.matmul(T.embedding(x, perm[lo:hi]), w), b)
        h, c = reference_level(cell, rec, xw, kids, H, C)
        H, C = T.concat([H, h], axis=0), T.concat([C, c], axis=0)
        lo = hi
    return T.embedding(H, pos + 1)


def reference_gcn_edges(sizes, trees):
    """The `gcn_edges` over lists of (a, b) tuples that the array-reading one
    replaced. (src, dst) messages for a batch of graphs stacked
    block-diagonally: each node to itself, and both ways along every (a, b)
    edge of each graph's tree, as in a symmetric 0/1 adjacency with
    self-loops."""
    off = offsets(sizes)
    e = np.array([(a + o, b + o) for t, o in zip(trees, off) for a, b in t],
                 dtype=np.int64).reshape(-1, 2)
    loops = np.arange(off[-1])
    return np.concatenate([loops, e[:, 0], e[:, 1]]), np.concatenate([loops, e[:, 1], e[:, 0]])


def reference_gcn_layer(h: Tensor, edges, w: Tensor, b: Tensor) -> Tensor:
    """The taped `gcn_layer` that the one-op one replaced, over
    `reference_gcn_edges`' (src, dst) arrays: each node's features gated by
    its own sigmoid gate, summed over in-neighbors (self included) and
    rectified."""
    src, dst = edges
    gate = T.sigmoid(T.add(T.matmul(h, w), b))
    return T.relu(T.segment_sum(T.embedding(T.mul(h, gate), src), dst, h.shape[0]))


def _reference_node_rows(model, graph_inputs, train, rng) -> Tensor:
    """Stacked input rows for each graph's ("word" | "label", id) node
    inputs: word and label embeddings share one dropout and are
    interleaved by one gather."""
    inputs = [p for node_inputs in graph_inputs for p in node_inputs]
    is_word = np.array([k == "word" for k, _ in inputs], dtype=bool)
    ids = np.array([i for _, i in inputs], dtype=np.int64)
    x = _dropout(T.concat([T.embedding(model.emb, ids[is_word]),
                           T.embedding(model.label_emb, ids[~is_word])], axis=0),
                 train, rng)
    n_words = int(is_word.sum())
    order = np.empty(ids.size, dtype=np.int64)
    order[is_word] = np.arange(n_words)
    order[~is_word] = n_words + np.arange(ids.size - n_words)
    return T.embedding(x, order)


def _reference_con_tree(side):
    """(graph, node inputs) of the constituency TreeLSTM over the binarized
    tree: ("word", token id) at a leaf, ("label", label id) inside."""
    graph, spans = con_enc_graph(side.bintree)
    return graph, [("word", int(side.token_ids[i])) if j - i == 1
                   else ("label", side.bintree.spans[(i, j)]) for i, j in spans]


def reference_reps(model, sides, train=False, rng=None):
    """A tree teacher's `reps` as it was before the one-op level pass, the
    one-op GCN layer and the per-side edge and node-input arrays:
    `reference_tree_encode` for the TreeLSTMs, and for the GCNs
    `reference_gcn_layer` over the edge and input tuples rebuilt into arrays
    on every call."""
    if model.kind == "tlstm-dep":
        ids = np.concatenate([s.token_ids for s in sides])
        x = _dropout(T.embedding(model.emb, ids), train, rng)
        graphs = [dep_enc_graph(s.heads) for s in sides]
        for up, down in model.cells:
            x = reference_tree_encode(graphs, x, up, down)
        return x, offsets([s.n for s in sides])
    if model.kind == "tlstm-con":
        graphs, inputs = zip(*(_reference_con_tree(s) for s in sides))
        x = _reference_node_rows(model, inputs, train, rng)
        for up, down in model.cells:
            x = reference_tree_encode(graphs, x, up, down)
        node_off = offsets([len(g.children) for g in graphs])
        rows = np.concatenate([np.asarray(g.token_rows) + o
                               for g, o in zip(graphs, node_off)])
        return T.embedding(x, rows), offsets([s.n for s in sides])
    tok_off = offsets([s.n for s in sides])
    if model.structure == "dep":
        ids = np.concatenate([s.token_ids for s in sides])
        h = _dropout(T.embedding(model.emb, ids), train, rng)
        edges = reference_gcn_edges([s.n for s in sides],
                                    [[(i, hd - 1) for i, hd in enumerate(s.heads) if hd != 0]
                                     for s in sides])
    else:
        inputs, trees = zip(*(reference_con_gcn(s) for s in sides))
        sizes = [len(i) for i in inputs]
        h = _reference_node_rows(model, inputs, train, rng)
        edges = reference_gcn_edges(sizes, trees)
    for w, b in model.layers:
        h = reference_gcn_layer(h, edges, w, b)
    if model.structure == "con":  # token nodes lead each graph
        h = T.embedding(h, np.concatenate([o + np.arange(s.n) for o, s in
                                           zip(offsets(sizes), sides)]))
    return h, tok_off


def one_parent(cell, x, kids):
    """(h, c) of one parent with input row x and hand-set child states
    kids = [(h, c), ...] in slot order, through the taped level kernel."""
    w, b, rec = cell.fuse()
    zero = Tensor(np.zeros((1, cell.hid), dtype=x.dtype))
    k = len(kids)
    level = LevelKids(np.zeros(k, dtype=np.int64), np.arange(k), np.arange(1, k + 1))
    return reference_level(cell, rec, T.add(T.matmul(x, w), b), level,
                           T.concat([zero] + [h for h, _ in kids], axis=0),
                           T.concat([zero] + [c for _, c in kids], axis=0))


def all_bracketings(n):
    """Every full binary bracketing of (0, n) as a list of (i, j) spans."""
    memo = {}

    def shapes(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if j - i == 1:
            out = [[(i, j)]]
        else:
            out = []
            for k in range(i + 1, j):
                for left in shapes(i, k):
                    for right in shapes(k, j):
                        out.append([(i, j)] + left + right)
        memo[(i, j)] = out
        return out

    return shapes(0, n)


def enum_best(table, n, ref=None):
    """Exhaustive (tree, score) maximum, optionally hamming-augmented by ref."""
    best_tree, best_score = None, None
    for spans in all_bracketings(n):
        labeled = {}
        total = 0.0
        for (i, j) in spans:
            s_best, l_best = None, None
            for l in range(table.shape[2]):
                s = float(table[i, j, l])
                if ref is not None and ref.spans.get((i, j)) != l:
                    s += 1.0
                if s_best is None or s > s_best:
                    s_best, l_best = s, l
            labeled[(i, j)] = l_best
            total += s_best
        if best_score is None or total > best_score:
            best_tree, best_score = BinTree(n, labeled), total
    return best_tree, best_score


def catalan(n):
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def random_bintree(n, n_labels, rng):
    """Uniformly random bracketing shape with random labels."""
    shapes = all_bracketings(n)
    spans = shapes[rng.integers(len(shapes))]
    return BinTree(n, {s: int(rng.integers(n_labels)) for s in spans})


def random_table(n, n_labels, rng, scale=1.0):
    return (rng.standard_normal((n, n + 1, n_labels)) * scale).astype(np.float64)


def row_major_lstm_scan(xw: Tensor, u: Tensor, counts, reverse: bool = False) -> Tensor:
    """The packed scan over row-major (rows, 4h) gate blocks that the
    gate-major `lstm_scan` replaced, kept verbatim as the bitwise reference.

    One LSTM direction over a packed batch of sequences as a single op.

    Sequences are sorted longest first and counts[t] >= 1 of them run at step
    t (non-increasing). Step t is the row block of xw (sum(counts), 4h) after
    those of the steps before it, one row per running sequence, holding its
    input projection plus bias; u is the (h, 4h) recurrent matrix and gates
    are [i, f, o, u]. States start at zero: going forward a sequence drops out
    after its last step; reverse=True scans from the last step to the first
    and each sequence joins at its own last step. Returns the hidden states in
    xw's row layout; backward is hand-written BPTT over the saved gates."""
    counts = np.asarray(counts, dtype=np.int64).tolist()
    if xw.data.ndim != 2 or u.data.ndim != 2 or u.shape[1] != 4 * u.shape[0] \
            or xw.shape[1] != u.shape[1] or not counts or counts[-1] < 1 \
            or any(a < b for a, b in zip(counts, counts[1:])) \
            or sum(counts) != xw.shape[0]:
        raise ValueError(f"lstm_scan: need xw (sum(counts), 4h), u (h, 4h) and "
                         f"non-increasing positive counts, got {xw.shape}, "
                         f"{u.shape} and {counts}")
    hid = u.shape[0]
    starts = np.cumsum([0] + counts).tolist()
    order = range(len(counts) - 1, -1, -1) if reverse else range(len(counts))
    # scan-order blocks (lo, n, plo, m): rows [lo, lo + n) of a step, whose
    # first m rows continue rows [plo, plo + m) of the step before in scan order
    blocks = []
    for k, t in enumerate(order):
        p = order[k - 1] if k else t
        blocks.append((starts[t], counts[t], starts[p],
                       min(counts[t], counts[p]) if k else 0))
    xg = xw.data
    dtype = np.result_type(xw.data, u.data)
    acts = np.empty(xg.shape, dtype=dtype)  # activated [i, f, o, u]
    cells = np.empty((xg.shape[0], hid), dtype=dtype)
    tanh_c = np.empty_like(cells)
    hs = np.empty_like(cells)
    with np.errstate(over="ignore"):
        for lo, n, plo, m in blocks:
            z, c = acts[lo:lo + n], cells[lo:lo + n]
            if m:
                np.matmul(hs[plo:plo + m], u.data, out=z[:m])
                z[:m] += xg[lo:lo + m]
            if m < n:
                z[m:] = xg[lo + m:lo + n]
            sig = z[:, :3 * hid]
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
            np.multiply(z[:, :hid], z[:, 3 * hid:], out=c)
            if m:
                c[:m] += z[:m, hid:2 * hid] * cells[plo:plo + m]
            np.tanh(c, out=tanh_c[lo:lo + n])
            np.multiply(z[:, 2 * hid:3 * hid], tanh_c[lo:lo + n], out=hs[lo:lo + n])
    out = Tensor(hs)

    def prev(a):
        """Each row's state from the step before in scan order; zero where a
        sequence starts."""
        p = np.zeros_like(a)
        for lo, _, plo, m in blocks:
            p[lo:lo + m] = a[plo:plo + m]
        return p

    def back(grad):
        # d(pre-activation) = upstream * partner * activation slope, where the
        # upstream is dc for i, f, u and dh for o; everything but dc and dh is
        # known before the reverse sweep
        slope = acts.copy()
        slope[:, :3 * hid] *= 1.0 - acts[:, :3 * hid]
        slope[:, 3 * hid:] = 1.0 - acts[:, 3 * hid:] ** 2
        slope *= np.concatenate((acts[:, 3 * hid:], prev(cells), tanh_c,
                                 acts[:, :hid]), axis=1)
        dc_dh = acts[:, 2 * hid:3 * hid] * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(acts)
        # dh and dc of each row, plus what flows back from the step after it
        dh_all, dc_all = grad.copy(), np.zeros_like(cells)
        for lo, n, plo, m in reversed(blocks):
            dh = dh_all[lo:lo + n]
            dc = dh * dc_dh[lo:lo + n]
            dc += dc_all[lo:lo + n]
            np.multiply(np.concatenate((dc, dc, dh, dc), axis=1), slope[lo:lo + n],
                        out=dz[lo:lo + n])
            if m:
                np.multiply(dc[:m], acts[lo:lo + m, hid:2 * hid], out=dc_all[plo:plo + m])
                dh_all[plo:plo + m] += dz[lo:lo + m] @ u.data.T
        return [dz, prev(hs).T @ dz]

    return T._emit(out, (xw, u), back)


_TOKEN = re.compile(r"[()]|[^\s()]+")


def reference_parse_bracketed(text):
    """The bracket parser over one token per paren, label and word that the
    coarse-token `parse_bracketed` replaced, kept verbatim as the reference
    for its trees and its error messages and offsets.

    Every tree of PTB-style bracketed text, in one pass over its tokens;
    each node adds its leaf and span to its tree as it closes."""
    trees, stack = [], []  # stack: [label, first leaf, children, words] of open nodes
    want_label = False  # the token after "(" is the label unless it is "("
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if want_label:
            want_label = False
            if tok == ")":
                raise DataError(f"empty node at offset {m.start()}")
            if tok != "(":
                stack[-1][0] = tok
                continue
        if tok == "(":
            if not stack:
                leaves, spans = [], []
            stack.append([None, len(leaves), [], []])
            want_label = True
        elif not stack:
            raise DataError(f"expected '(' at offset {m.start()}")
        elif tok != ")":
            stack[-1][3].append(tok)
        else:
            label, start, children, words = stack.pop()
            if words and children:
                raise DataError(f"node {label!r} mixes words and subtrees at offset {m.end()}")
            if len(words) > 1:
                raise DataError(f"node {label!r} has multiple words at offset {m.end()}")
            if not words and not children:
                raise DataError(f"empty node {label!r} at offset {m.end()}")
            if label is None:  # PTB-style unlabeled wrapper, e.g. "( (S ...) )"
                if len(children) != 1:
                    raise DataError(f"unlabeled node must wrap one subtree at offset {m.end()}")
                node = children[0]
            elif words:
                node = ConstNode(label, word=words[0])
                leaves.append(words[0])
                spans.append((start, start + 1, label))
            else:
                node = ConstNode(label, children=children)
                spans.append((start, len(leaves), label))
            if stack:
                stack[-1][2].append(node)
            else:
                trees.append(ConstTree(node))
    if stack:
        raise DataError(f"unexpected end of input at offset {len(text)}")
    return trees


def check_laminar(spans, n):
    """Raise unless spans are pairwise nested-or-disjoint and cover (0, n)."""
    ivs = sorted({(i, j) for i, j, _ in spans})
    if (0, n) not in ivs:
        raise DataError(f"span set does not cover (0, {n})")
    for a, (i1, j1) in enumerate(ivs):
        for i2, j2 in ivs[a + 1:]:
            if i2 >= j1:
                break
            if i1 < i2 < j1 < j2:
                raise DataError(f"crossing spans ({i1},{j1}) and ({i2},{j2})")


def reference_binarized_spans(tree: ConstTree) -> dict:
    """The node-walking `binarize` that the span-reading one replaced, kept
    verbatim as the reference for its spans and their insertion order, which
    is post-order; returns the (i, j) -> label map it built its tree from.

    Right-branching binarization.

    Intermediate nodes introduced to split >2-child nodes carry NULL_LABEL;
    unary chains collapse into composite labels joined by '|', making
    unbinarize an exact inverse.
    """
    spans = {}

    def visit(node, start):
        if node.is_leaf:
            spans[(start, start + 1)] = node.label
            return start + 1, node.label
        if len(node.children) == 1:
            end, child_label = visit(node.children[0], start)
            label = node.label + UNARY_SEP + child_label
            spans[(start, end)] = label
            return end, label
        end = seq(node.children, start)
        spans[(start, end)] = node.label
        return end, node.label

    def seq(children, start):
        # chain children right-branching; the glue spans get the null label
        end, _ = visit(children[0], start)
        if len(children) == 1:
            return end
        rest_end = seq(children[1:], end)
        if len(children) > 2:
            spans[(end, rest_end)] = NULL_LABEL
        return rest_end

    visit(tree.root, 0)
    return spans


def reference_binarize(tree: ConstTree) -> BinTree:
    return BinTree(tree.n, reference_binarized_spans(tree), tokens=tree.leaves())


def reference_con_gcn(self):
    """The node-walking `EncodedSide.con_gcn` that the span-reading one
    replaced, kept verbatim as the reference for its node inputs and its
    edges in order; `self` is an `EncodedSide`.

    (node inputs, edges) of the constituency GCN over the original tree:
    token nodes 0..n-1, then one node per tree node (preterminals
    included)."""
    if self.raw.con is None:
        return None
    labels, edges = [], []

    def visit(node, start, parent_id):
        nid = self.n + len(labels)
        labels.append(node.label)
        if parent_id is not None:
            edges.append((parent_id, nid))
        if node.is_leaf:
            edges.append((nid, start))
            return start + 1
        pos = start
        for c in node.children:
            pos = visit(c, pos, nid)
        return pos

    visit(self.raw.con.root, 0, None)
    label_ids = self.codec.con_labels.encode(labels).tolist()
    return ([("word", int(t)) for t in self.token_ids]
            + [("label", l) for l in label_ids], edges)


def reference_render_bracketed(node) -> str:
    """The node-walking `render_bracketed` that the span-reading one replaced,
    kept verbatim as the reference for its text; it takes a tree or a node."""
    if isinstance(node, ConstTree):
        node = node.root
    if node.is_leaf:
        return f"({node.label} {node.word})"
    inner = " ".join(reference_render_bracketed(c) for c in node.children)
    return f"({node.label} {inner})"


def reference_percolate_deps(tree: ConstTree) -> DepTree:
    """The node-walking `percolate_deps` that the span-reading one replaced,
    kept verbatim as the reference for its heads, labels and messages.

    Dependency tree from head-child rules over the synthetic grammar."""
    n = tree.n
    heads = [None] * n
    labels = [None] * n

    def head_of(node, start):
        # returns (head token index 0-based, end position)
        if node.is_leaf:
            return start, start + 1
        rule = HEAD_CHILD.get(node.label)
        if rule is None:
            raise DataError(f"no head rule for constituent {node.label!r}")
        spans = []
        pos = start
        for c in node.children:
            h, pos = head_of(c, pos)
            spans.append((c, h))
        head_idx = next((h for c, h in spans if c.label == rule), None)
        if head_idx is None:
            raise DataError(f"head child {rule!r} missing under {node.label!r}")
        for c, h in spans:
            if h == head_idx:
                continue
            lab = ARC_LABEL.get((node.label, c.label))
            if lab is None:
                raise DataError(f"no arc label for {node.label!r} -> {c.label!r}")
            heads[h] = head_idx + 1
            labels[h] = lab
        return head_idx, pos

    root_head, _ = head_of(tree.root, 0)
    heads[root_head] = 0
    labels[root_head] = "root"
    return DepTree(heads, labels)


def reference_unbinarize(bt: BinTree, tokens=None) -> ConstTree:
    """The node-building `unbinarize` that the span-emitting one replaced,
    kept verbatim as the reference for its leaves and spans.

    Inverse of binarize: splice out null spans, unfold composite labels."""
    tokens = tokens if tokens is not None else bt.tokens
    if tokens is None:
        raise DataError("unbinarize needs tokens (none stored on the tree)")
    if len(tokens) != bt.n:
        raise DataError(f"token count {len(tokens)} != tree length {bt.n}")

    def wrap_unary(label, node_builder):
        parts = label.split(UNARY_SEP)
        node = node_builder(parts[-1])
        for lab in reversed(parts[:-1]):
            node = ConstNode(lab, children=[node])
        return node

    def build(i, j):
        label = bt.spans[(i, j)]
        if j - i == 1:
            return wrap_unary(label, lambda lab: ConstNode(lab, word=tokens[i]))
        kids = children(i, j)
        return wrap_unary(label, lambda lab: ConstNode(lab, children=kids))

    def children(i, j):
        k = split_of(bt.spans, i, j)
        out = []
        for a, b in ((i, k), (k, j)):
            if b - a > 1 and bt.spans[(a, b)] == NULL_LABEL:
                out.extend(children(a, b))
            else:
                out.append(build(a, b))
        return out

    root_label = bt.spans[(0, bt.n)]
    if root_label == NULL_LABEL and bt.n > 1:
        root = ConstNode(NULL_LABEL, children=children(0, bt.n))
    else:
        root = build(0, bt.n)
    return ConstTree(root)


def reference_induced_trees(model, encs):
    """The bracketed trees `cli induce` writes for encs with a student
    model, built as before `BinTree` kept its spans in post-order: each
    sentence's chart rows, in the chart's pre-order, as a plain span -> label
    map, unbinarized by split lookups."""
    itos, lines = model.codec.con_labels.itos, [None] * len(encs)
    for chunk in model.batches(encs):
        main = model.reps([encs[i].main for i in chunk])
        lens = np.diff(main[1])
        rows, _ = chart_max(lens, model.span_scorer(*main).tensor.data)
        for i, m, part in zip(chunk, lens.tolist(),
                              np.split(rows, np.cumsum(2 * lens - 1)[:-1])):
            tree = SimpleNamespace(n=m, spans={(a, b): itos[l] for a, b, l in part.tolist()})
            lines[i] = render_bracketed(reference_unbinarize(tree, encs[i].raw.sent.tokens))
    return lines


def reference_tree_eq(tree: ConstTree, other) -> bool:
    """The node-comparing `ConstTree.__eq__` that the span-comparing one
    replaced, kept verbatim as the reference for its answer."""
    return isinstance(other, ConstTree) and tree.root == other.root


def _pre(pos, word):
    return ConstNode(pos, word=word)


class _ReferenceGrammar(_Grammar):
    """The node-building sentence generator that the span-emitting
    `_Grammar.sentence` replaced, kept verbatim as the reference for its
    corpora and their random draws."""

    def simple_np(self, rng, num):
        noun = self.nouns[rng.integers(len(self.nouns))][num]
        return ConstNode("NP", [_pre("Det", DET), _pre("N", noun)])

    def sentence(self, rng, agree, max_len):
        while True:
            shape = rng.choice(len(SHAPES), p=SHAPE_WEIGHTS)
            subj_num = int(rng.integers(2))
            verb_num = subj_num if agree else 1 - subj_num
            verb = self.verbs[rng.integers(len(self.verbs))][verb_num]
            subj_noun = self.nouns[rng.integers(len(self.nouns))][subj_num]

            if rng.random() < 0.5:
                vp = ConstNode("VP", [_pre("V", verb),
                                      self.simple_np(rng, int(rng.integers(2)))])
            else:
                vp = ConstNode("VP", [_pre("V", verb),
                                      _pre("Adv", self.advs[rng.integers(len(self.advs))])])

            subj_core = [_pre("Det", DET), _pre("N", subj_noun)]
            name = SHAPES[shape]
            if name == "simple":
                subj = ConstNode("NP", subj_core)
                root = ConstNode("S", [subj, vp])
            elif name == "pp":
                pp = ConstNode("PP", [_pre("P", self.preps[rng.integers(len(self.preps))]),
                                      self.simple_np(rng, int(rng.integers(2)))])
                subj = ConstNode("NP", subj_core + [pp])
                root = ConstNode("S", [subj, vp])
            elif name == "rc":
                vpe = ConstNode("VPE", [_pre("VN", self.emb_verbs[rng.integers(len(self.emb_verbs))]),
                                        self.simple_np(rng, int(rng.integers(2)))])
                rc = ConstNode("RC", [_pre("RP", RELPRON), vpe])
                subj = ConstNode("NP", subj_core + [rc])
                root = ConstNode("S", [subj, vp])
            else:  # fronted PP, then a simple subject
                pp = ConstNode("PP", [_pre("P", self.preps[rng.integers(len(self.preps))]),
                                      self.simple_np(rng, int(rng.integers(2)))])
                subj = ConstNode("NP", subj_core)
                root = ConstNode("S", [pp, subj, vp])

            con = ConstTree(root)
            if con.n <= max_len:
                return con, subj, vp


def subject_number(subj):
    """0 (singular) or 1 (plural): the number of a subject NP node's noun."""
    noun = subj.children[1].word
    return 0 if any(noun == sg for sg, _ in NOUNS) else 1


def _reference_make_example(grammar, rng, task, label, max_len):
    con, subj, vp = grammar.sentence(rng, bool(label) if task != "pair" else True, max_len)
    tokens = con.leaves()
    ex = Example(Sentence(tokens), percolate_deps(con), con)
    if task == "cls":
        ex.label = label
    elif task == "tag":
        vi = len(tokens) - ConstTree(vp).n
        i = vi - ConstTree(subj).n
        tags = ["O"] * len(tokens)
        tags[i] = "B-SUBJ"
        for k in range(i + 1, vi):
            tags[k] = "I-SUBJ"
        ex.tags = tags
        ex.predicate = vi
    elif task == "pair":
        num1 = subject_number(subj)
        while True:
            con2, subj2, _ = grammar.sentence(rng, True, max_len)
            if (subject_number(subj2) == num1) == bool(label):
                break
        ex.label = label
        ex.partner = Example(Sentence(con2.leaves()), percolate_deps(con2), con2)
    else:
        raise DataError(f"unknown task {task!r}")
    return ex


def reference_gen_synthetic(n_examples, max_len=12, seed=0, task="cls", grammar_size=5):
    """The node-building `gen_synthetic` that the span-emitting one replaced,
    kept verbatim as the reference for its corpora; also returns how many
    class-balance retries it made."""
    if max_len > 20:
        raise DataError("max_len must be <= 20")
    if max_len < 4:
        raise DataError("max_len too small for any sentence shape")
    grammar = _ReferenceGrammar(grammar_size)
    achievable = [k for k in range(n_examples + 1)
                  if 0.4 * n_examples <= k <= 0.6 * n_examples]
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt])
        if task == "tag":
            labels = [1] * n_examples
        else:
            labels = [int(rng.integers(2)) for _ in range(n_examples)]
        examples = [_reference_make_example(grammar, rng, task, lab, max_len)
                    for lab in labels]
        if task == "tag" or not achievable or sum(labels) in achievable:
            for ex in examples:
                ex.validate()
            return examples, attempt
        attempt += 1


def random_bracketed(rng, depth=0):
    """Bracketed text of a random tree: unary chains, nodes of 1-4 children,
    odd labels and words, and random spacing around the parens."""
    sp = lambda: ["", " ", "  ", "\n "][int(rng.integers(4))]
    label = ["S", "NP", "A|B", "é", "x-1", "Ünï"][int(rng.integers(6))]
    if depth >= 3 or rng.random() < 0.3:
        word = ["a", "bb", "ß", "w.1", "9"][int(rng.integers(5))]
        return f"({sp()}{label} {sp()}{word}{sp()})"
    kids = " ".join(random_bracketed(rng, depth + 1)
                    for _ in range(int(rng.integers(1, 5))))
    return f"({sp()}{label}{sp()} {kids}{sp()})"


# every JSON type, empty values included
JSON_VALUES = [None, True, False, 0, 1, -1, 2.5, "", "x", "OOO", "(S x)", [], [0], ["x"],
               [True], [None], [1.0], [[]], {}, {"a": 1}]


def record_mutants(record, rng):
    """Mutated copies of a JSONL record: the record replaced by each JSON
    value, each field set to each JSON value and dropped, a random item of
    each list field set to each scalar, the list cut short, and each payload
    field it lacks plus an unknown one added."""
    yield from JSON_VALUES
    for key, value in record.items():
        for v in JSON_VALUES:
            yield {**record, key: v}
        yield {k: v for k, v in record.items() if k != key}
        if isinstance(value, list):
            k = int(rng.integers(len(value)))
            for v in JSON_VALUES:
                if not isinstance(v, (list, dict)):
                    yield {**record, key: value[:k] + [v] + value[k + 1:]}
            yield {**record, key: value[:-1]}
    for key in ("label", "tags", "predicate", "pair_tokens", "pair_con_tree", "note"):
        if key not in record:
            for v in JSON_VALUES:
                yield {**record, key: v}


class ReferenceAdam:
    """`tensor.Adam` as it was before it owned one flat buffer per dtype: one
    moment pair, one isfinite scan and a dozen numpy calls per parameter, and
    the parameters keep their own arrays. Its moments are already per
    parameter, so `views` is the identity and `save_run_state` can write
    them."""

    def __init__(self, params, lr: float = 1e-5):
        self.params = list(params)
        self.lr = lr
        self.state = {}

    @property
    def skipped(self) -> int:
        return self.state.get("skipped", 0)

    def views(self, flats):
        return flats

    def step(self) -> bool:
        params, state = self.params, self.state
        if "m" not in state:
            state["m"] = [np.zeros_like(p.data) for p in params]
            state["v"] = [np.zeros_like(p.data) for p in params]
            state["t"] = 0
            state["skipped"] = 0
        for p, m in zip(params, state["m"]):
            if m.shape != p.data.shape:
                raise ValueError(
                    f"adam state shape {m.shape} does not match param shape {p.data.shape}")
        gs = []
        for p in params:
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            if not np.isfinite(g).all():
                state["skipped"] += 1
                return False
            gs.append(g)
        state["t"] += 1
        t = state["t"]
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for p, g, m, v in zip(params, gs, state["m"], state["v"]):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        return True

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def reference_reg_loss(params, zeta: float) -> Tensor:
    """`reg_loss` as a taped left fold: a mul and a sum_ per tensor, the sums
    added in order, then one scale."""
    total = None
    for p in params:
        sq = T.sum_(T.mul(p, p))
        total = sq if total is None else T.add(total, sq)
    if total is None:
        return Tensor(np.array(0.0))
    return T.scale(total, zeta / 2.0)


def _eval_and_stop(model, state, dev_data, eval_every, patience, log) -> bool:
    """Early-stopping bookkeeping; returns True when patience is exhausted."""
    if dev_data is None or state.t % eval_every != 0:
        return False
    metrics = evaluate(model, dev_data)
    key = dev_metric_key(model.task)
    for name, value in metrics.items():
        _emit(log, state.t, "dev", name, value)
    state.history.append({"iteration": state.t, "metric": key,
                          "value": metrics[key]})
    if metrics[key] > state.best_metric:
        state.best_metric = metrics[key]
        state.best_iter = state.t
        state.best_params = model.p.state_dict()
        state.bad_evals = 0
    else:
        state.bad_evals += 1
    return state.bad_evals >= patience


def reference_train_teacher(model, train_data, dev_data, *, iters=2000, batch_size=32,
                            lr=1e-3, eval_every=200, patience=10, seed=0, log=None,
                            co_train_struct=False) -> RunState:
    """`train_teacher` with its own copy of the training loop, as it was
    before both training functions shared `run_loop`; kept verbatim as the
    reference their trajectories must match bit for bit. It steps
    `ReferenceAdam`, and the student's copy adds `reference_reg_loss`, so the
    comparison covers the flat-buffer Adam and the one-op L2 term too.

    Supervised pre-training of one tree teacher with early stopping.

    With co_train_struct the teacher's arc/label (dep) or span (con) head is
    fitted to the input parses alongside the task loss, enabling soft
    structure targets during distillation.
    """
    for enc in list(train_data) + list(dev_data or []):
        if model.structure == "dep" and enc.main.raw.dep is None:
            raise DataError("teacher needs dependency annotation")
        if model.structure == "con" and enc.main.raw.con is None:
            raise DataError("teacher needs constituency annotation")
    if co_train_struct and not hasattr(model, "struct_head"):
        model.add_structure_head()
    state = RunState(seed=seed, adam=ReferenceAdam(model.parameters(), lr=lr))
    _emit(log, 0, "train", "n_params", model.p.n_scalars())
    sampler = BatchSampler(train_data)
    n_dep = len(model.codec.dep_labels)
    while state.t < iters:
        idxs = sampler.draw(state.rng, batch_size)
        encs = [train_data[i] for i in idxs]

        def build_loss():
            loss, main = output_loss_batch(model, encs, idxs, None, [], 1.0, rng=state.rng)
            if not co_train_struct:
                return loss
            struct = inject_loss_batch(model.struct_head, model.structure, main,
                                       [hard_targets(model.structure, encs, n_dep)])
            return T.scale(T.add(loss, T.scale(struct, 1.0 / len(encs))), 0.5)

        val = _optimize(state, build_loss, f"teacher/{model.kind}")
        state.t += 1
        _emit(log, state.t, "train", "loss", val)
        if _eval_and_stop(model, state, dev_data, eval_every, patience, log):
            state.stopped = True
            break
    if state.best_params is not None:
        model.p.load_state_dict(state.best_params)
    return state


def reference_distill_student(student, teachers, train_data, dev_data,
                              cfg: DistillConfig = None, sched: Schedule = None, *,
                              batch_size=32, lr=1e-5, eval_every=200, patience=10,
                              seed=0, log=None, state=None, signals=None,
                              stop_after=None) -> RunState:
    """`distill_student` with its own copy of the training loop, kept like
    `reference_train_teacher`.

    Algorithm-1 turn-taking distillation (teachers=None trains the plain
    supervised student with the same plumbing).

    Early phase (t <= G1): per batch optimize L_sem, then per teacher in the
    fixed visiting order optimize L_output and, per the G2 flag, that
    teacher's dependency or constituency syntax loss (plus L_reg). Late
    phase: one L_all step per batch. `stop_after` suspends mid-run without
    restoring the best checkpoint, for save/resume.
    """
    cfg = cfg or DistillConfig()
    sched = sched or Schedule()
    if teachers is not None:
        student_vocab = student.codec.vocab.itos
        for m in teachers.all:
            if m.codec.vocab.itos != student_vocab:
                raise DistillError(f"teacher/student vocab mismatch ({m.kind})")
        prepare_student(student, teachers, cfg)
        if signals is None:
            signals = TeacherSignals(teachers, train_data, cfg,
                                     len(student.codec.dep_labels))
    if state is None:
        state = RunState(seed=seed, adam=ReferenceAdam(student.parameters(), lr=lr))
    sampler = BatchSampler(train_data)
    reg_params = student.parameters()

    while state.t < sched.total:
        if stop_after is not None and state.t >= stop_after:
            return state
        idxs = sampler.draw(state.rng, batch_size)
        encs = [train_data[i] for i in idxs]
        t_now = state.t + 1
        alpha = cfg.alpha_fixed if cfg.alpha_fixed is not None \
            else anneal_alpha(t_now, sched.total)
        rng = state.rng
        parts = {"loss_output": 0.0, "loss_syn": 0.0, "loss_sem": 0.0}

        if teachers is None:
            parts["loss_output"] = _optimize(state, lambda: output_loss_batch(
                student, encs, idxs, None, [], 1.0, rng=rng)[0], "supervised")
        elif t_now <= sched.g1:
            if cfg.lam2 > 0:
                parts["loss_sem"] = _optimize(
                    state, lambda: sem_loss_batch(student, encs, cfg, rng), "sem")
            dep_turn = sched.dep_turn(t_now)
            out_vals, syn_vals = [], []
            for m in teachers.all:
                out_vals.append(_optimize(state, lambda m=m: output_loss_batch(
                    student, encs, idxs, signals, [m.kind], alpha, rng=rng)[0],
                    f"output/{m.kind}"))
                takes_turn = (m.structure == "dep") == dep_turn
                if cfg.lam1 > 0 and takes_turn:
                    def syn_plus_reg(m=m):
                        main = student.reps([enc.main for enc in encs], True, rng)
                        syn = syn_loss_batch(student, main, idxs, signals, cfg, [m])
                        if cfg.zeta > 0:
                            return T.add(syn, reference_reg_loss(reg_params, cfg.zeta))
                        return syn
                    syn_vals.append(_optimize(state, syn_plus_reg,
                                              f"{m.structure}/{m.kind}"))
            parts["loss_output"] = float(np.mean(out_vals))
            if syn_vals:
                parts["loss_syn"] = float(np.mean(syn_vals))
        else:
            def all_loss():
                kinds = [m.kind for m in teachers.all]
                out_loss, main = output_loss_batch(
                    student, encs, idxs, signals, kinds, alpha, rng=rng)
                parts["loss_output"] = float(out_loss.data)
                syn = sem = reg = None
                if cfg.lam1 > 0:
                    # a structure type with no teachers (or zero weight under
                    # eta) drops out; a lone group keeps full weight
                    dep_t = teachers.dep if cfg.eta > 0.0 else []
                    con_t = teachers.con if cfg.eta < 1.0 else []
                    if dep_t and con_t:
                        syn = combine_syn(
                            syn_loss_batch(student, main, idxs, signals, cfg, dep_t),
                            syn_loss_batch(student, main, idxs, signals, cfg, con_t),
                            cfg.eta)
                    elif dep_t or con_t:
                        syn = syn_loss_batch(student, main, idxs, signals, cfg,
                                             dep_t or con_t)
                if syn is not None:
                    parts["loss_syn"] = float(syn.data)
                    if cfg.zeta > 0:
                        reg = reference_reg_loss(reg_params, cfg.zeta)
                if cfg.lam2 > 0:
                    sem = sem_loss_batch(student, encs, cfg, rng)
                    parts["loss_sem"] = float(sem.data)
                return total_loss(out_loss, syn=syn, sem=sem, reg=reg,
                                  lam1=cfg.lam1, lam2=cfg.lam2)

            _optimize(state, all_loss, "all")

        state.t += 1
        for name, value in parts.items():
            _emit(log, state.t, "train", name, value)
        if _eval_and_stop(student, state, dev_data, eval_every, patience, log):
            state.stopped = True
            break

    if state.best_params is not None:
        student.p.load_state_dict(state.best_params)
    return state


def _reference_main_rows(model, data):
    """Detached top-layer rows of each example's main side, in data order, from
    one pass per `model.batches` chunk; the frozen backbone stays off any tape."""
    reps = [None] * len(data)
    for chunk in model.batches(data):
        mat, off = model.reps([data[i].main for i in chunk])
        for b, i in enumerate(chunk):
            reps[i] = mat.data[off[b]:off[b + 1]].copy()
    return reps


def reference_constituent_instances(model, data):
    """One instance per labeled span of the original tree: feature
    [r_end - r_start; r_start; r_end], target the span's label id; one
    `concatenate` per span, as before the instances were gathered."""
    if any(enc.raw.con is None for enc in data):
        raise DataError("constituent probing needs constituency annotation")
    feats, labels = [], []
    for enc, reps in zip(data, _reference_main_rows(model, data)):
        for i, j, label in enc.raw.con.spans():
            a, b = reps[i], reps[j - 1]
            feats.append(np.concatenate([b - a, a, b]))
            labels.append(label)
    return np.stack(feats), model.codec.con_labels.encode(labels)


def reference_dependency_instances(model, data):
    """One instance per non-root arc: feature [r_head; r_dep], target the
    arc's relation label id; one `concatenate` per arc."""
    if any(enc.main.heads is None for enc in data):
        raise DataError("dependency probing needs dependency annotation")
    feats, labels = [], []
    for enc, reps in zip(data, _reference_main_rows(model, data)):
        for i, h in enumerate(enc.main.heads):
            if h == 0:
                continue
            feats.append(np.concatenate([reps[h - 1], reps[i]]))
            labels.append(int(enc.main.dep_label_ids[i]))
    return np.stack(feats), np.array(labels, dtype=np.int64)


def reference_probe_train_eval(model, kind, train_data, eval_data, *, iters=400,
                               batch=64, lr=1e-2, seed=0):
    """`probe_train_eval` as it was on the tape: each step records matmul,
    add and `ce_sum` scaled by 1/take and walks the reverse tape; its loop is
    kept verbatim as the reference the closed-form step must match bit for
    bit."""
    build = {"constituent-labeling": reference_constituent_instances,
             "dependency-labeling": reference_dependency_instances}[kind]
    x_tr, y_tr = build(model, train_data)
    x_ev, y_ev = build(model, eval_data)
    n_classes = int(max(y_tr.max(), y_ev.max())) + 1
    rng = np.random.default_rng(seed)
    dtype = x_tr.dtype
    w = T.xavier((x_tr.shape[1], n_classes), rng, dtype=dtype)
    b = T.zeros((n_classes,), dtype=dtype, requires_grad=True)
    opt = Adam([w, b], lr=lr)
    for _ in range(iters):
        take = min(batch, len(x_tr))
        idx = rng.choice(len(x_tr), size=take, replace=False)
        opt.zero_grad()
        with T.Tape() as tape:
            logits = T.add(T.matmul(Tensor(x_tr[idx]), w), b)
            loss = T.scale(ce_sum(logits, y_tr[idx]), 1.0 / take)
            tape.backward(loss)
        opt.step()
    pred = (x_ev @ w.data + b.data).argmax(axis=1)
    return 100.0 * float((pred == y_ev).mean()), y_ev
