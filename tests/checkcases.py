"""Registered gradient-check instances: one suite per encoder, fused op and
loss; acceptance test 1 runs every suite.

Every make_case builds a small random float64 instance (hidden sizes <= 6,
sentences <= 5 tokens) and returns (f, params) for the finite-difference
harness in gradcheck.py. Token ids and targets are constants; everything with
real-valued data is checked.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from gradcheck import rand_param
from synkd import tensor as T
from synkd.distill import (
    combine_syn,
    con_inject_loss,
    dep_inject_loss,
    feat_distill,
    one_hot,
    output_distill_loss,
    reg_loss,
    semantic_lm_loss,
    total_loss,
)
from synkd.encoders import (
    ArcLabelScorer,
    ChildSumCell,
    NaryCell,
    Params,
    ScoredSpans,
    SpanScorer,
    StudentEncoder,
    dep_edges,
    gcn_edges,
    gcn_layer,
    level_plans,
    offsets,
    tree_encode,
)
from synkd.structures import BinTree, span_ids, tree_spans
from synkd.tensor import Tensor

F64 = np.float64


def random_heads(rng, n):
    """Random rooted dependency tree: each node attaches to an earlier node
    of a random permutation, which rules out cycles."""
    perm = list(rng.permutation(n))
    heads = [0] * n
    for k, v in enumerate(perm[1:], start=1):
        heads[v] = perm[int(rng.integers(k))] + 1
    return heads


def random_binary_spans(rng, i, j, n_labels, out):
    """Inserts the spans of a random bracketing of (i, j) into out in post-order."""
    label = int(rng.integers(n_labels))
    if j - i > 1:
        k = int(rng.integers(i + 1, j))
        random_binary_spans(rng, i, k, n_labels, out)
        random_binary_spans(rng, k, j, n_labels, out)
    out[(i, j)] = label


def random_bintree(rng, n, n_labels):
    spans = {}
    random_binary_spans(rng, 0, n, n_labels, spans)
    return BinTree(n, spans)


def weighted_sum(mat, rng):
    """Scalarize a matrix with a fixed random functional."""
    w = Tensor(rng.standard_normal(mat.shape).astype(F64))
    return T.sum_(T.mul(mat, w))


def batch_sizes(rng):
    """Sentence lengths of a mixed batch of three trees."""
    return [1 + int(rng.integers(1, 5)) for _ in range(3)]


# ----------------------------------------------------------------- encoders

def dep_tree(heads):
    """(size, edges) of a dependency tree, as `level_plans` reads it."""
    return len(heads), dep_edges(heads)


def con_tree(bt):
    """(size, edges) of a binarized constituency tree over its spans."""
    return 2 * bt.n - 1, bt.edges


def plans_of(trees):
    """The level plans of a batch of (size, edges) trees."""
    return level_plans(*zip(*trees))


def star_graph():
    """A root with three children: in the top-down pass one parent state
    feeds several nodes."""
    return dep_tree([0, 1, 1, 1])


def unary_graph():
    """Node 1 has a single child, so its second N-ary slot is absent."""
    return 4, np.array([[0, 1], [1, 2], [3, 2]])


def case_childsum(rng):
    in_dim, hid = 3, 2
    p = Params(rng, F64)
    up = ChildSumCell(p, "up", in_dim, hid)
    down = ChildSumCell(p, "down", in_dim, hid)
    trees = [dep_tree(random_heads(rng, n)) for n in batch_sizes(rng)] + [star_graph()]
    x = rand_param(rng, (sum(n for n, _ in trees), in_dim))

    def f():
        return weighted_sum(tree_encode(plans_of(trees), x, up, down),
                            np.random.default_rng(0))

    return f, p.all() + [x]


def case_nary(rng):
    in_dim, hid = 3, 2
    p = Params(rng, F64)
    up = NaryCell(p, "up", in_dim, hid, n_ary=2)
    down = NaryCell(p, "down", in_dim, hid, n_ary=2)
    trees = [con_tree(random_bintree(rng, n, 2)) for n in batch_sizes(rng)]
    trees.append(unary_graph())
    x = rand_param(rng, (sum(n for n, _ in trees), in_dim))

    def f():
        return weighted_sum(tree_encode(plans_of(trees), x, up, down),
                            np.random.default_rng(0))

    return f, p.all() + [x]


def case_gcn(rng):
    d = 3
    sizes = batch_sizes(rng)
    trees = [dep_edges(random_heads(rng, n)) for n in sizes]
    # a star in (parent, child) rows, as constituency graphs give them, whose
    # hub fills every column of the message plan, and a lone node
    sizes += [4, 1]
    trees += [star_graph()[1][:, ::-1], np.zeros((0, 2), dtype=np.int64)]
    edges = gcn_edges(sizes, trees)
    x = rand_param(rng, (sum(sizes), d))
    ws = [rand_param(rng, (d, d)) for _ in range(2)]
    bs = [rand_param(rng, (d,)) for _ in range(2)]

    def f():
        h = x
        for w, b in zip(ws, bs):
            h = gcn_layer(h, edges, w, b)
        return T.sum_(T.mul(h, Tensor(np.full(h.shape, 0.7, dtype=F64))))

    return f, [x] + ws + bs


def case_student_bilstm(rng):
    # a packed batch of three lengths in shuffled order
    vocab, emb, hid, layers = 6, 3, 2, 2
    p = Params(rng, F64)
    enc = StudentEncoder(p, "s", vocab, emb, hid, n_layers=layers)
    ids = [rng.integers(0, vocab, size=n) for n in rng.permutation([1, 2, 3])]
    w_top = Tensor(rng.standard_normal((6, 2 * hid)).astype(F64))
    w_l1 = Tensor(rng.standard_normal((6, hid)).astype(F64))

    def f():
        out = enc.encode_batch(ids)
        return T.add(T.sum_(T.mul(out["top"], w_top)),
                     T.sum_(T.mul(out["l1f"], w_l1)))

    return f, p.all()


# --------------------------------------------------------------- primitives

def case_segment_sum(rng):
    rows, n_seg = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    seg = rng.integers(0, n_seg, size=rows)
    x = rand_param(rng, (rows, 3))
    return (lambda: weighted_sum(T.segment_sum(x, seg, n_seg),
                                 np.random.default_rng(0))), [x]


def case_lstm_scan(rng):
    # both directions of an equal-length batch (B=3, T=4) and of a packed one
    # whose length-1 row leaves after the first step going forward and joins
    # at the last step in reverse, plus a one-step scan
    hid = 2
    u = rand_param(rng, (hid, 4 * hid))
    counts = ([3] * 4, [3, 2, 1, 1], [3])
    xws = [rand_param(rng, (sum(c), 4 * hid), scale=1.0) for c in counts]
    runs = [(0, False), (0, True), (1, False), (1, True), (2, bool(rng.integers(2)))]

    def f():
        outs = [T.lstm_scan(xws[i], u, counts[i], rev) for i, rev in runs]
        return reduce(T.add, [weighted_sum(o, np.random.default_rng(k))
                              for k, o in enumerate(outs)])

    return f, [u] + xws


def case_log_softmax(rng):
    x = rand_param(rng, (int(rng.integers(1, 4)), int(rng.integers(2, 5))), scale=2.0)
    axis = int(rng.integers(0, 2))
    return (lambda: weighted_sum(T.log_softmax(x, axis=axis),
                                 np.random.default_rng(0))), [x]


# ------------------------------------------------------------------- losses

def case_output_distill(rng):
    b, c = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    y = one_hot(rng.integers(0, c, size=b), c)
    teachers = [rng.dirichlet(np.ones(c), size=b) for _ in range(2)]
    logits = rand_param(rng, (b, c), scale=1.0)
    alpha = float(rng.random())
    return (lambda: output_distill_loss(y, teachers, logits, alpha)), [logits]


def case_feat_distill(rng):
    n = int(rng.integers(1, 6))
    dt, ds, common = 4, 3, 3
    t_mat = Tensor(rng.standard_normal((n, dt)).astype(F64))
    s_mat = rand_param(rng, (n, ds))
    wt = rand_param(rng, (dt, common))
    ws = rand_param(rng, (ds, common))
    f = lambda: feat_distill(T.matmul(t_mat, wt), T.matmul(s_mat, ws))
    return f, [s_mat, wt, ws]


def case_syn_combine(rng):
    n, d = int(rng.integers(1, 5)), 3
    a_t = Tensor(rng.standard_normal((n, d)).astype(F64))
    b_t = Tensor(rng.standard_normal((n, d)).astype(F64))
    s = rand_param(rng, (n, d))
    eta = float(rng.random())
    f = lambda: combine_syn(feat_distill(a_t, s), feat_distill(b_t, s), eta)
    return f, [s]


def case_semantic_lm(rng):
    h, vocab, sizes = 3, 6, [2, 3]
    student = type("LM", (), {})()
    student.lm_W = rand_param(rng, (h, vocab))
    student.lm_b = rand_param(rng, (vocab,))
    student.lm_begin = rand_param(rng, (1, h))
    l1f = rand_param(rng, (sum(sizes), h))
    targets = [(0, 0, int(rng.integers(vocab))),
               (1, int(rng.integers(1, sizes[1])), int(rng.integers(vocab)))]
    f = lambda: semantic_lm_loss(student, l1f, offsets(sizes), targets)
    return f, [l1f, student.lm_W, student.lm_b, student.lm_begin]


def case_dep_inject(rng):
    # a mixed-length batch through the scorer, so the padded candidate
    # columns are checked along with the loss
    n_labels, p, sizes = int(rng.integers(1, 4)), Params(rng, F64), batch_sizes(rng)
    scorer = ArcLabelScorer(p, "arc", 3, n_labels, 3)
    mat, off = rand_param(rng, (sum(sizes), 3), scale=1.0), offsets(sizes)
    targets = []
    for n in sizes:
        arc = one_hot(random_heads(rng, n), n + 1)
        targets.append((arc, rng.dirichlet(np.ones(n_labels), size=n), arc.argmax(axis=1)))
    return (lambda: dep_inject_loss(scorer(mat, off), targets)), p.all() + [mat]


def case_con_inject(rng):
    # a mixed-length batch through the scorer, so W, b and the token rows are
    # checked along with the loss; reference spans score 10 lower, so
    # relabeling T* (two labels at least) gains 11 a span on average and
    # every hinge stays far above its kink
    n_labels, p, sizes = int(rng.integers(2, 4)), Params(rng, F64), batch_sizes(rng)
    scorer = SpanScorer(p, "span", 3, n_labels)
    scorer.b.data[...] = rng.standard_normal(n_labels)
    mat, off = rand_param(rng, (sum(sizes), 3), scale=1.0), offsets(sizes)
    refs = [random_bintree(rng, n, n_labels) for n in sizes]
    shift = np.zeros((sum(n * (n + 1) // 2 for n in sizes), n_labels))
    shift.reshape(-1)[span_ids(sizes, tree_spans(refs), n_labels)] = -10.0

    def f():
        scored = scorer(mat, off)
        return con_inject_loss(ScoredSpans(T.add(scored.tensor, Tensor(shift)), off), refs)

    return f, p.all() + [mat]


def case_reg(rng):
    # the first tensor also feeds a second term, so the L2 op's gradient adds
    # to one it did not make
    ps = [rand_param(rng, (2, 3)), rand_param(rng, (4,))]
    w = Tensor(rng.standard_normal((2, 3)))
    zeta = float(rng.random()) + 0.1
    return (lambda: T.add(reg_loss(ps, zeta), T.sum_(T.tanh(T.mul(ps[0], w))))), ps


def case_total(rng):
    b, c = 2, 3
    y = one_hot(rng.integers(0, c, size=b), c)
    teachers = [rng.dirichlet(np.ones(c), size=b)]
    logits = rand_param(rng, (b, c), scale=1.0)

    n, d = 3, 3
    t_dep = Tensor(rng.standard_normal((n, d)).astype(F64))
    t_con = Tensor(rng.standard_normal((n, d)).astype(F64))
    s_mat = rand_param(rng, (n, d))

    h, vocab = 3, 5
    student = type("LM", (), {})()
    student.lm_W = rand_param(rng, (h, vocab))
    student.lm_b = rand_param(rng, (vocab,))
    student.lm_begin = rand_param(rng, (1, h))
    l1f = rand_param(rng, (n, h))
    masked = [(0, 0, 1), (0, 2, 3)]

    params = [logits, s_mat, l1f, student.lm_W, student.lm_b, student.lm_begin]

    def f():
        out = output_distill_loss(y, teachers, logits, alpha=0.5)
        syn = combine_syn(feat_distill(t_dep, s_mat), feat_distill(t_con, s_mat), 0.5)
        sem = semantic_lm_loss(student, l1f, [0, n], masked)
        reg = reg_loss(params, 0.2)
        return total_loss(out, syn=syn, sem=sem, reg=reg, lam1=0.6, lam2=0.2)

    return f, params


SUITES = {
    "childsum_treelstm": case_childsum,
    "nary_treelstm": case_nary,
    "gcn": case_gcn,
    "student_bilstm": case_student_bilstm,
    "segment_sum": case_segment_sum,
    "log_softmax": case_log_softmax,
    "lstm_scan": case_lstm_scan,
    "output_distill": case_output_distill,
    "feat_distill": case_feat_distill,
    "syn_combine": case_syn_combine,
    "semantic_lm": case_semantic_lm,
    "dep_inject": case_dep_inject,
    "con_inject": case_con_inject,
    "reg": case_reg,
    "total": case_total,
}
