"""Encoder cells, tree/graph encoding, student BiLSTM, heads, scorers."""
import math
import re

import numpy as np
import pytest

from checkcases import dep_tree, plans_of, random_bintree, random_heads, star_graph, unary_graph
from gradcheck import check_case
from oracles import (con_enc_graph, dep_enc_graph, edge_enc_graph, one_parent,
                     random_bracketed, reference_binarize, reference_binarized_spans,
                     reference_con_gcn, reference_con_tree, reference_induced_trees,
                     reference_batch_level_plans, reference_gcn_edges, reference_gcn_layer,
                     reference_level_plans, reference_message_tables,
                     reference_percolate_deps,
                     reference_render_bracketed, reference_tree_eq, reference_reps,
                     reference_tree_encode, reference_unbinarize,
                     row_major_lstm_scan, split_of)
from synkd import cli
from synkd import encoders as E
from synkd import syntax_data as D
from synkd import tensor as T
from synkd.structures import (UNARY_SEP, BinTree, binarize, chart_max, chart_trees, span_ids,
                              tree_spans, unbinarize)
from synkd.tensor import Tensor
from synkd.train import evaluate, hard_targets

F64 = np.float64


def make_childsum(in_dim, hid, rng, fill=None):
    p = E.Params(rng, F64)
    cell = E.ChildSumCell(p, "c", in_dim, hid)
    if fill is not None:
        for t in p.all():
            t.data[...] = fill
    return cell, p


def make_nary(in_dim, hid, rng, n_ary=2, fill=None):
    p = E.Params(rng, F64)
    cell = E.NaryCell(p, "c", in_dim, hid, n_ary=n_ary)
    if fill is not None:
        for t in p.all():
            t.data[...] = fill
    return cell, p


def state(h, c):
    return (Tensor(np.array([[h]], dtype=F64)), Tensor(np.array([[c]], dtype=F64)))


def random_state(rng, hid):
    return (Tensor(rng.standard_normal((1, hid))), Tensor(rng.standard_normal((1, hid))))


def bottom_up(trees, x, cell):
    """The bottom-up half of tree_encode: its first hid columns."""
    return E.tree_encode(plans_of(trees), x, cell, cell).data[:, :cell.hid]


def leaf(cell, x):
    """h of a lone leaf: the bottom-up pass over a one-node graph."""
    return bottom_up([dep_tree([0])], x, cell)


RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# cells

def test_params_without_a_generator_make_zeros_and_models_need_one():
    p = E.Params(None, F64)
    assert not p.add("w", (3, 4)).data.any() and p["w"].dtype == F64
    with pytest.raises(ValueError, match="unknown init 'ones'"):
        p.add("v", (2,), init="ones")
    # a model's generator is a required keyword: a forgotten one fails at once
    codec = E.Codec(D.gen_synthetic(4, seed=0), "cls")
    for kind in ("student", *E.TEACHER_KINDS):
        with pytest.raises(TypeError, match="rng"):
            E.StudentModel(codec) if kind == "student" else E.make_teacher(kind, codec)


def test_childsum_zero_params_leaf():
    cell, _ = make_childsum(3, 4, RNG, fill=0.0)
    out = leaf(cell, Tensor(np.ones((1, 3), dtype=F64)))
    np.testing.assert_array_equal(out, np.zeros((1, 4)))


def test_childsum_scalar_hand_case():
    # x=1, one child h=c=0.5, all weights 1, biases 0
    cell, _ = make_childsum(1, 1, RNG, fill=1.0)
    for name in ("c/bi", "c/bf", "c/bo", "c/bu"):
        cell.b[name[-1]].data[...] = 0.0
    out_h, out_c = one_parent(cell, Tensor(np.array([[1.0]], dtype=F64)),
                              [state(0.5, 0.5)])
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = o = f = sig(1.0 + 0.5)
    u = math.tanh(1.5)
    c = i * u + f * 0.5
    h = o * math.tanh(c)
    assert out_h.data[0, 0] == pytest.approx(h, abs=1e-12)
    assert out_c.data[0, 0] == pytest.approx(c, abs=1e-12)


def test_childsum_permutation_invariant_bitwise():
    rng = np.random.default_rng(1)
    cell, _ = make_childsum(3, 5, rng)
    x = Tensor(rng.standard_normal((1, 3)))
    kids = [random_state(rng, 5) for _ in range(4)]
    a, _ = one_parent(cell, x, kids)
    b, _ = one_parent(cell, x, list(reversed(kids)))
    c, _ = one_parent(cell, x, [kids[2], kids[0], kids[3], kids[1]])
    assert a.data.tobytes() == b.data.tobytes() == c.data.tobytes()


def test_nary_zero_params_leaf():
    cell, _ = make_nary(3, 4, RNG, fill=0.0)
    out = leaf(cell, Tensor(np.ones((1, 3), dtype=F64)))
    np.testing.assert_array_equal(out, np.zeros((1, 4)))


def test_nary_order_sensitive():
    rng = np.random.default_rng(2)
    cell, _ = make_nary(3, 4, rng)
    x = Tensor(rng.standard_normal((1, 3)))
    k1, k2 = random_state(rng, 4), random_state(rng, 4)
    a, _ = one_parent(cell, x, [k1, k2])
    b, _ = one_parent(cell, x, [k2, k1])
    assert not np.allclose(a.data, b.data)


def test_nary_scalar_hand_case():
    # N=2, two children with h=c=0.5, x=1, all weights 1, biases 0
    cell, p = make_nary(1, 1, RNG, fill=1.0)
    for g in ("i", "o", "u", "f"):
        cell.b[g].data[...] = 0.0
    out_h, _ = one_parent(cell, Tensor(np.array([[1.0]], dtype=F64)),
                          [state(0.5, 0.5), state(0.5, 0.5)])
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = o = sig(2.0)
    u = math.tanh(2.0)
    f = sig(2.0)
    c = i * u + 2 * (f * 0.5)
    h = o * math.tanh(c)
    assert out_h.data[0, 0] == pytest.approx(h, abs=1e-12)


def test_childsum_equals_nary1_on_chain():
    rng = np.random.default_rng(3)
    cs, pcs = make_childsum(3, 4, rng)
    na, pna = make_nary(3, 4, rng, n_ary=1)
    for g in ("i", "o", "u"):
        na.W[g].data[...] = cs.W[g].data
        na.b[g].data[...] = cs.b[g].data
        na.U[g][0].data[...] = cs.U[g].data
    na.W["f"].data[...] = cs.W["f"].data
    na.b["f"].data[...] = cs.b["f"].data
    na.Uf[0][0].data[...] = cs.U["f"].data
    x = Tensor(rng.standard_normal((1, 3)))
    kid = random_state(rng, 4)
    a_h, a_c = one_parent(cs, x, [kid])
    b_h, b_c = one_parent(na, x, [kid])
    np.testing.assert_allclose(a_h.data, b_h.data, atol=1e-9)
    np.testing.assert_allclose(a_c.data, b_c.data, atol=1e-9)
    # leaf case too
    np.testing.assert_allclose(leaf(cs, x), leaf(na, x), atol=1e-9)


def test_gate_ranges():
    rng = np.random.default_rng(4)
    cell, _ = make_childsum(3, 6, rng)
    out_h, out_c = one_parent(cell, Tensor(rng.standard_normal((1, 3)) * 5),
                              [random_state(rng, 6)])
    assert np.all(np.abs(np.tanh(out_c.data)) < 1.0)
    assert np.all(np.abs(out_h.data) < 1.0)


# ---------------------------------------------------------------------------
# tree encoding

def chain_graph(n):
    heads = [i + 2 for i in range(n - 1)] + [0]  # head of i is i+1; last is root
    return dep_tree(heads)


def test_tree_encode_chain_is_sequential():
    rng = np.random.default_rng(5)
    cell, _ = make_childsum(3, 4, rng)
    n = 5
    xs = [Tensor(rng.standard_normal((1, 3))) for _ in range(n)]
    rows = bottom_up([chain_graph(n)], T.concat(xs), cell)
    st = None
    for i in range(n):
        st = one_parent(cell, xs[i], [] if st is None else [st])
        np.testing.assert_array_equal(rows[i:i + 1], st[0].data)


def test_tree_encode_both_doubles_width():
    rng = np.random.default_rng(6)
    up, _ = make_childsum(3, 4, rng)
    down, _ = make_childsum(3, 4, rng)
    xs = Tensor(rng.standard_normal((4, 3)))
    g = chain_graph(4)
    rows = E.tree_encode(plans_of([g]), xs, up, down)
    assert rows.shape == (4, 8)
    assert bottom_up([g], xs, up).shape == (4, 4)


def test_tree_encode_sibling_permutation():
    # star tree: child order permuted in the graph, Child-Sum unchanged, N-ary not
    rng = np.random.default_rng(7)
    xs = Tensor(rng.standard_normal((4, 3)))
    g1 = 4, np.array([[0, 3], [1, 3], [2, 3]])
    g2 = 4, np.array([[2, 3], [0, 3], [1, 3]])
    cs, _ = make_childsum(3, 4, rng)
    a = bottom_up([g1], xs, cs)[3]
    b = bottom_up([g2], xs, cs)[3]
    assert a.tobytes() == b.tobytes()
    na, _ = make_nary(3, 4, rng, n_ary=3)
    a = bottom_up([g1], xs, na)[3]
    b = bottom_up([g2], xs, na)[3]
    assert not np.allclose(a, b)


def test_tree_encode_fd_gradient():
    rng = np.random.default_rng(8)
    p = E.Params(rng, F64)
    up = E.ChildSumCell(p, "up", 3, 3)
    down = E.ChildSumCell(p, "down", 3, 3)
    g = dep_tree([2, 0, 2])
    xs_data = rng.standard_normal((3, 3))

    def f():
        rows = E.tree_encode(plans_of([g]), Tensor(xs_data), up, down)
        return T.sum_(T.tanh(T.embedding(rows, np.arange(3))))

    assert check_case(f, p.all()) < 1e-6


# (tokens, dependency heads, tree): a single-node tree, unary chains in both
# trees, and equal leaves under one head, whose Child-Sum states tie when no
# dropout separates them
TREE_CORNERS = [
    ("a", [0], "(A a)"),
    ("x y z", [0, 1, 2], "(S (A (B (C x))) (D (E y)) (F z))"),
    ("a a a b", [4, 4, 4, 0], "(S (A a) (A a) (A a) (B b))"),
]


def corner_examples(task):
    sides = [dict(sent=D.Sentence(words.split()), dep=D.DepTree(heads, ["dep"] * len(heads)),
                  con=D.parse_bracketed(con)[0]) for words, heads, con in TREE_CORNERS]
    if task == "tag":
        return [D.Example(**s, tags=["O"] * len(s["sent"]), predicate=0) for s in sides]
    if task == "pair":
        return [D.Example(**s, label=k % 2, partner=D.Example(**sides[k - 1]))
                for k, s in enumerate(sides)]
    return [D.Example(**s, label=k % 2) for k, s in enumerate(sides)]


def logits_and_grads(model, encs, train):
    """Logits of a batch and every parameter's gradient of a fixed random
    functional of them."""
    for t in model.parameters():
        t.grad = None
    with T.Tape() as tape:
        out = model.logits(encs, train=train, rng=np.random.default_rng(5))
        w = np.random.default_rng(6).standard_normal(out.shape).astype(out.dtype)
        tape.backward(T.sum_(T.mul(out, Tensor(w))))
    return [out.data] + [t.grad for t in model.parameters()]


def assert_teachers_match_reference(kinds, task, monkeypatch):
    """Outputs and gradients of each teacher kind equal those of its
    `reference_reps`, bitwise, in f32 and f64, with and without dropout."""
    data = D.gen_synthetic(10, seed=35, task=task, max_len=9) + corner_examples(task)
    codec = E.Codec(data, task)
    encs = [codec.encode(ex) for ex in data]
    for kind in kinds:
        for dtype in (np.float32, F64):
            model = E.make_teacher(kind, codec, emb_dim=5, hidden=4, dtype=dtype,
                                   rng=np.random.default_rng(3))
            rng = np.random.default_rng(4)
            for t in model.parameters():  # nonzero biases too
                t.data[...] = rng.standard_normal(t.shape) * 0.5
            for train in (True, False):
                got = logits_and_grads(model, encs, train)
                with monkeypatch.context() as m:
                    m.setattr(model, "reps", lambda sides, train=False, rng=None:
                              reference_reps(model, sides, train, rng))
                    want = logits_and_grads(model, encs, train)
                for name, g, r in zip(["logits"] + model.p.names(), got, want):
                    where = f"{kind} {task} {dtype.__name__} train={train} {name}"
                    assert (g is None) == (r is None), where
                    np.testing.assert_array_equal(g, r, err_msg=where)


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_child_sum_single_input_level_keeps_negative_zero_bitwise(dtype):
    # a level whose nodes have one child each skips the sibling sort and the
    # add.at sums: its scatter plus +0 must give their bits, for a child
    # whose state is -0.0 (its sums read +0.0) and for the zero state too
    rng = np.random.default_rng(48)
    p = E.Params(rng, dtype)
    cell = E.ChildSumCell(p, "c", 3, 4)
    for t in p.all():
        t.data[...] = rng.standard_normal(t.shape)
    recs = [r.data for r in cell.fuse()[2]]
    H, C = (rng.standard_normal((6, 4)).astype(dtype) for _ in range(2))
    H[0] = C[0] = 0.0
    H[2] = C[2] = -0.0
    seg, slot, src = np.arange(4), np.zeros(4, dtype=np.int64), np.array([2, 5, 0, 2])
    xw = rng.standard_normal((4, 16)).astype(dtype)
    d_pre, dc = rng.standard_normal((4, 12)).astype(dtype), rng.standard_normal((4, 4)).astype(dtype)
    dc[3] = -0.0
    runs = []
    for single in (True, False):
        pre, forget, saved = cell.forward(recs, xw, seg, slot, src, single, H, C)
        d_xw, (rows, d_kid_h, d_kid_c), d_rec = cell.backward(recs, saved, d_pre, dc)
        runs.append([pre, forget, saved[5], d_xw, rows, d_kid_h, d_kid_c, *d_rec])
    names = ["pre", "forget", "kid_sum", "d_xw", "rows", "d_kid_h", "d_kid_c", "d_u_iou", "d_u_f"]
    for name, got, want in zip(names, *runs):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert not np.signbit(runs[0][2][[0, 3]]).any()


def test_nary_teacher_rejects_a_node_with_more_children_than_n():
    # a binarized view never has one, so the teacher is handed a view whose
    # root has three children: the plan's fan-in is checked before any level
    data = [chain_example(3)]
    codec = E.Codec(data, "cls")
    side = codec.encode(data[0]).main
    ids = np.concatenate([side.token_ids, codec.con_labels.encode(["S"])])
    side.__dict__["con_tree"] = (np.arange(4) < 3, ids, np.array([[0, 3], [1, 3], [2, 3]]))
    model = E.make_teacher("tlstm-con", codec, emb_dim=5, hidden=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape("3 children exceed N=2; binarize first")):
        model.reps([side])


@pytest.mark.parametrize("task", ["cls", "tag", "pair"])
def test_tree_encode_matches_taped_reference_bitwise(task, monkeypatch):
    # pair batches read every cell twice on one tape, so ChildSum's unfused
    # U_f adds the partner pass's level gradients before the main pass's
    assert_teachers_match_reference(("tlstm-dep", "tlstm-con"), task, monkeypatch)


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_tree_encode_on_corner_graphs_matches_taped_reference_bitwise(dtype):
    # a lone node, a chain, N-ary nodes with one and two absent children
    # (unary_graph) and three leaves with equal inputs under one root
    rng = np.random.default_rng(36)
    trees = [dep_tree([0]), chain_graph(4), unary_graph(), star_graph()]
    graphs = [edge_enc_graph(*t) for t in trees]
    x_data = rng.standard_normal((13, 3)).astype(dtype)
    x_data[10:13] = x_data[10]
    for cell in (E.ChildSumCell, lambda *a, **k: E.NaryCell(*a, n_ary=3, **k)):
        p = E.Params(rng, dtype)
        up, down = (cell(p, name, 3, 4) for name in ("up", "down"))
        for t in p.all():
            t.data[...] = rng.standard_normal(t.shape)
        w = rng.standard_normal((13, 8)).astype(dtype)
        runs = []
        for encode in (lambda x: E.tree_encode(plans_of(trees), x, up, down),
                       lambda x: reference_tree_encode(graphs, x, up, down)):
            x = Tensor(x_data.copy(), requires_grad=True)
            for t in p.all():
                t.grad = None
            with T.Tape() as tape:
                out = encode(x)
                tape.backward(T.sum_(T.mul(out, Tensor(w))))
            runs.append([out.data, x.grad] + [t.grad for t in p.all()])
        for name, g, r in zip(["out", "x"] + p.names(), *runs):
            np.testing.assert_array_equal(g, r, err_msg=name)


def assert_plans_equal(got, want, where):
    for direction, g, w in zip(("up", "down"), got, want):
        np.testing.assert_array_equal(g.perm, w.perm, err_msg=f"{where} {direction} perm")
        np.testing.assert_array_equal(g.pos, w.pos, err_msg=f"{where} {direction} pos")
        assert len(g.levels) == len(w.levels), where
        for k, (gl, wl) in enumerate(zip(g.levels, w.levels)):
            for name, a, b in zip(("lo", "hi", "seg", "slot", "src"), gl, wl):
                np.testing.assert_array_equal(a, b, err_msg=f"{where} {direction} {k} {name}")


def test_level_plans_from_edges_match_graph_reference_bitwise():
    # random dependency trees of 1..30 tokens and random binarized trees over
    # as many, one token included, batched a few at a time; the binarized
    # trees' spans come in the order of the recursive graph builder's nodes
    rng = np.random.default_rng(41)
    batches = [[1], [1, 1], [2, 1, 30]] + [rng.integers(1, 31, size=rng.integers(1, 6)).tolist()
                                           for _ in range(40)]
    for ns in batches:
        heads = [random_heads(rng, n) for n in ns]
        assert_plans_equal(E.level_plans(E.level_fragments(ns, [E.dep_edges(h) for h in heads])),
                           reference_level_plans([dep_enc_graph(h) for h in heads]),
                           f"dep {ns}")
        bts = [random_bintree(rng, n, 3) for n in ns]
        graphs, trees = [], []
        for bt in bts:
            graph, want = con_enc_graph(bt)
            assert list(bt.spans) == want
            graphs.append(graph)
            trees.append(bt.edges)
        assert_plans_equal(E.level_plans(E.level_fragments([2 * n - 1 for n in ns], trees)),
                           reference_level_plans(graphs), f"con {ns}")


@pytest.mark.parametrize("edges", [[[0, 1], [1, 2], [2, 0]], [[0, 0]], [[3, 0], [0, 1], [1, 0]]])
def test_level_plans_reject_a_cycle(edges):
    # no root above these nodes: the ancestor walk stops after as many rounds
    # as the batch has nodes
    with pytest.raises(D.DataError, match="closes a cycle"):
        E.level_fragments([2, 4], [np.array([[1, 0]]), np.array(edges)])


def test_level_fragments_reject_a_node_with_two_parents():
    with pytest.raises(D.DataError, match="two parents"):
        E.level_fragments([3], [np.array([[1, 0], [1, 2]])])


def mixed_sides(rng, n_batches=30):
    """Batches of encoded sides, each drawn from a pool that mixes one-token
    sentences, stars, desk sentences and 30-token sentences whose
    dependency heads are random and whose constituency tree is a chain."""
    pool = [chain_example(1), star_example(9), star_example(2)] + D.gen_synthetic(12, seed=44)
    for _ in range(3):
        words = [f"w{i}" for i in range(30)]
        pool.append(D.Example(D.Sentence(words),
                              D.DepTree(random_heads(rng, 30), ["dep"] * 30),
                              D.parse_bracketed(right_branching(words))[0], label=0))
    codec = E.Codec(pool, "cls")
    for _ in range(n_batches):
        picks = rng.choice(len(pool), size=int(rng.integers(1, 9)), replace=False)
        yield [codec.encode(pool[i]).main for i in picks]


def view_batch(sides, view):
    """(sizes, edge arrays) of one view of a batch of sides."""
    views = [getattr(s, view) for s in sides]
    return [v[1].size for v in views], [v[2] for v in views]


def assert_flags_hold(plan, where):
    """single marks exactly the levels whose nodes have one input at most,
    fan_in is the most inputs of any node."""
    most = 0
    for lo, hi, seg, slot, src, single in plan.levels:
        kids = np.bincount(seg, minlength=hi - lo)
        assert single == (kids.max(initial=0) <= 1), where
        most = max(most, int(kids.max(initial=0)))
    assert plan.fan_in == most, where


def test_merged_level_plans_match_batch_builders_bitwise():
    # fragments built a batch at a time or one tree at a time merge into the
    # plans that one ancestor walk over the stacked batch built, for the
    # dependency and the binarized constituency view
    rng = np.random.default_rng(45)
    for sides in mixed_sides(rng):
        for view, graph in (("dep_view", lambda s: dep_enc_graph(s.heads)),
                            ("con_tree", lambda s: con_enc_graph(s.bintree)[0])):
            sizes, trees = view_batch(sides, view)
            want = reference_batch_level_plans(sizes, trees)
            assert_plans_equal(want, reference_level_plans([graph(s) for s in sides]),
                               f"{view} reference {sizes}")
            alone = [f for n, t in zip(sizes, trees) for f in E.level_fragments([n], [t])]
            for frags in (E.level_fragments(sizes, trees), alone):
                got = E.level_plans(frags)
                assert_plans_equal(got, want, f"{view} {sizes}")
                for direction, plan, ref in zip(("up", "down"), got, want):
                    assert_flags_hold(plan, f"{view} {direction} {sizes}")
                    assert plan.fan_in == ref.fan_in, f"{view} {direction} {sizes}"


def right_branching(words):
    if len(words) == 1:
        return f"(A {words[0]})"
    return f"(S (A {words[0]}) {right_branching(words[1:])})"


def chain_example(n):
    """An n-token sentence whose dependency and constituency trees are chains."""
    words = [f"w{i}" for i in range(n)]
    return D.Example(D.Sentence(words), D.DepTree(list(range(n)), ["dep"] * n),
                     D.parse_bracketed(right_branching(words))[0], label=0)


def star_example(n):
    """An n-token sentence whose first token heads every other one and whose
    constituency root has a preterminal per token."""
    words = [f"w{i}" for i in range(n)]
    con = "(S " + " ".join(f"(X {w})" for w in words) + ")"
    return D.Example(D.Sentence(words), D.DepTree([0] + [1] * (n - 1), ["dep"] * n),
                     D.parse_bracketed(con)[0], label=0)


def tape_len(model, enc):
    with T.Tape() as tape:
        model.logits([enc], train=True, rng=np.random.default_rng(1))
    return len(tape)


def test_tree_teacher_tape_length_independent_of_depth():
    # a 3-node and a 12-node chain: each level pass is one tape op
    data = [chain_example(3), chain_example(12)]
    codec = E.Codec(data, "cls")
    short, long = (codec.encode(ex) for ex in data)
    for kind in ("tlstm-dep", "tlstm-con"):
        model = E.make_teacher(kind, codec, emb_dim=5, hidden=4, rng=np.random.default_rng(0))
        assert tape_len(model, short) == tape_len(model, long), kind


def test_gcn_teacher_tape_length_one_op_per_layer():
    # chains of 3 and 12 tokens and a 12-token star: each layer is one tape
    # op, whatever the sentence length or fan-out
    data = [chain_example(3), chain_example(12), star_example(12)]
    codec = E.Codec(data, "cls")
    encs = [codec.encode(ex) for ex in data]
    for kind in ("gcn-dep", "gcn-con"):
        two, three = ([tape_len(E.make_teacher(kind, codec, emb_dim=5, n_layers=n,
                                               rng=np.random.default_rng(0)), enc)
                       for enc in encs] for n in (2, 3))
        assert len(set(two)) == 1 and [b - a for a, b in zip(two, three)] == [1, 1, 1], kind


def test_teacher_reps_tape_length_is_pinned():
    # one reps(train=True) over a batch of mixed lengths: the embedding and
    # its dropout; per TreeLSTM layer the cells' fused-block concats (6
    # Child-Sum, 10 N-ary), two level passes and their concat, per GCN layer
    # one op; a constituency view adds the label embedding, the concat, the
    # interleaving gather and the word gather, which a dependency view skips
    data = [chain_example(1), star_example(9)] + D.gen_synthetic(8, seed=41, task="cls")
    codec = E.Codec(data, "cls")
    sides = [codec.encode(ex).main for ex in data]
    for kind, ops in {"tlstm-dep": 20, "gcn-dep": 4, "tlstm-con": 32, "gcn-con": 8}.items():
        model = E.make_teacher(kind, codec, emb_dim=6, hidden=5, rng=np.random.default_rng(0))
        with T.Tape() as tape:
            model.reps(sides, train=True, rng=np.random.default_rng(1))
        assert len(tape) == ops, kind


# ---------------------------------------------------------------------------
# GCN

def dense_adjacency(n, edges):
    """Symmetric 0/1 adjacency with self-loops, the reference for gcn_edges."""
    a = np.eye(n)
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return a


def test_gcn_zero_params_half_gate():
    h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F64)
    w = Tensor(np.zeros((2, 2), dtype=F64))
    b = Tensor(np.zeros(2, dtype=F64))
    out = E.gcn_layer(Tensor(h), E.gcn_edges(E.message_fragments([2], [[(0, 1)]])), w, b)
    expected = np.maximum(0.5 * (dense_adjacency(2, [(0, 1)]) @ h), 0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_gcn_single_node_self_loop():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((1, 3))
    w = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    out = E.gcn_layer(Tensor(h), E.gcn_edges(E.message_fragments([1], [[]])), Tensor(w), Tensor(b))
    gate = 1 / (1 + np.exp(-(h @ w + b)))
    np.testing.assert_allclose(out.data, np.maximum(h * gate, 0), atol=1e-12)


def test_gcn_fd_gradient():
    rng = np.random.default_rng(10)
    p = E.Params(rng, F64)
    w = p.add("W", (3, 3))
    b = p.add("b", (3,), init="zeros")
    h_data = rng.standard_normal((4, 3))
    edges = E.gcn_edges(E.message_fragments([4], [[(0, 1), (1, 2), (2, 3)]]))

    def f():
        return T.sum_(T.tanh(E.gcn_layer(Tensor(h_data), edges, w, b)))

    assert check_case(f, [w, b]) < 1e-6


@pytest.mark.parametrize("task", ["cls", "tag", "pair"])
def test_gcn_reps_match_tuple_reference_bitwise(task, monkeypatch):
    # the per-side edge and input arrays give the messages and input rows the
    # tuple lists rebuilt on every call gave
    assert_teachers_match_reference(("gcn-dep", "gcn-con"), task, monkeypatch)


def gcn_batches():
    """(sizes, edge arrays) of the dependency graphs, in (dependent, head)
    rows, and of the constituency graphs, in (parent, child) rows, of a batch
    mixing a one-token sentence, a 9-token star and desk sentences."""
    data = [chain_example(1), star_example(9)] + D.gen_synthetic(8, seed=41, task="cls")
    codec = E.Codec(data, "cls")
    sides = [codec.encode(ex).main for ex in data]
    return {"dep": ([s.n for s in sides], [s.dep_view[2] for s in sides]),
            "con": ([s.con_gcn[0].size for s in sides], [s.con_gcn[2] for s in sides])}


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_gcn_layer_matches_taped_reference_bitwise(dtype):
    # two layers of the one-op layer over a message plan against the taped
    # composition over (src, dst) arrays: output and every gradient, with
    # and without dropout on the input
    def run(layer, n, train):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((n, 5)).astype(dtype), requires_grad=True)
        params = [Tensor((rng.standard_normal(shape) * 0.5).astype(dtype), requires_grad=True)
                  for _ in range(2) for shape in ((5, 5), (5,))]
        with T.Tape() as tape:
            h = T.dropout(x, E.EMB_DROPOUT, np.random.default_rng(13)) if train else x
            for w, b in zip(params[::2], params[1::2]):
                h = layer(h, w, b)
            weights = rng.standard_normal(h.shape).astype(dtype)
            tape.backward(T.sum_(T.mul(h, Tensor(weights))))
        return [h.data] + [t.grad for t in [x] + params]

    for structure, (sizes, trees) in gcn_batches().items():
        plan = E.gcn_edges(E.message_fragments(sizes, trees))
        edges = reference_gcn_edges(sizes, trees)
        for train in (True, False):
            got = run(lambda h, w, b: E.gcn_layer(h, plan, w, b), sum(sizes), train)
            want = run(lambda h, w, b: reference_gcn_layer(h, edges, w, b), sum(sizes), train)
            for name, g, r in zip(["out", "x", "W0", "b0", "W1", "b1"], got, want):
                where = f"{structure} {dtype.__name__} train={train} {name}"
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), where


def test_gcn_message_plan_columns_hold_each_message_once(monkeypatch):
    # column q holds the nodes with more than q messages, so a star in the
    # batch adds columns only its hub reads; the backward table is built by a
    # backward pass alone, which sums rows as the forward does, not by add.at
    def no_add_rows(*_):
        raise AssertionError("the GCN layer called _add_rows")

    for structure, (sizes, trees) in gcn_batches().items():
        plan = E.gcn_edges(E.message_fragments(sizes, trees))
        counts = np.bincount(plan.dst)
        assert np.diff(plan.bounds).tolist() == [(counts > q).sum()
                                                 for q in range(counts.max())], structure
        assert plan.into.size == sum(sizes) + 2 * sum(len(t) for t in trees), structure
        h = Tensor(np.random.default_rng(14).standard_normal((sum(sizes), 3)),
                   requires_grad=True)
        w, b = Tensor(np.eye(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        E.gcn_layer(h, plan, w, b)
        assert "out_of" not in vars(plan), structure
        with monkeypatch.context() as m:
            m.setattr(T, "_add_rows", no_add_rows)
            with T.Tape() as tape:
                tape.backward(T.sum_(E.gcn_layer(h, plan, w, b)))
        assert "out_of" in vars(plan) and h.grad is not None, structure


def test_merged_message_plans_match_batch_builders_bitwise():
    # fragments built a batch at a time or one graph at a time merge into
    # the messages, node order, columns and both tables that the batch
    # builder's argsorts gave, for the dependency and the constituency graph
    rng = np.random.default_rng(46)
    for sides in mixed_sides(rng):
        for view in ("dep_view", "con_gcn"):
            sizes, graphs = view_batch(sides, view)
            src, dst = reference_gcn_edges(sizes, graphs)
            pos, bounds, into, out_of = reference_message_tables(sizes, graphs)
            alone = [f for n, g in zip(sizes, graphs) for f in E.message_fragments([n], [g])]
            for frags in (E.message_fragments(sizes, graphs), alone):
                plan = E.gcn_edges(frags)
                for name, got, want in (("src", plan.src, src), ("dst", plan.dst, dst),
                                        ("pos", plan.pos, pos), ("into", plan.into, into),
                                        ("out_of", plan.out_of, out_of)):
                    np.testing.assert_array_equal(got, want, err_msg=f"{view} {sizes} {name}")
                assert plan.bounds == bounds, f"{view} {sizes}"


def test_second_reps_builds_no_fragment(monkeypatch):
    # a side keeps each teacher kind's fragment: a second reps over the same
    # sides builds none, a batch with new sides builds only theirs, and
    # every batch encodes as it did the first time
    built = []
    for name in ("level_fragments", "message_fragments"):
        def counting(sizes, graphs, real=getattr(E, name)):
            built.append(len(sizes))
            return real(sizes, graphs)
        monkeypatch.setattr(E, name, counting)
    data = [chain_example(1), star_example(9)] + D.gen_synthetic(8, seed=47, task="cls")
    codec = E.Codec(data, "cls")
    sides = [codec.encode(ex).main for ex in data]
    for kind in E.TEACHER_KINDS:
        model = E.make_teacher(kind, codec, emb_dim=6, hidden=5, rng=np.random.default_rng(0))
        built.clear()
        first = model.reps(sides[:6])[0].data
        assert built == [6], kind
        assert model.reps(sides[:6])[0].data.tobytes() == first.tobytes(), kind
        assert model.reps(sides[3:])[0].data.tobytes() == model.reps(sides[3:])[0].data.tobytes()
        assert built == [6, 4], kind
        assert all(kind in s.plans for s in sides), kind


def test_gcn_reps_without_tape_build_no_backward_table(monkeypatch):
    plans, real = [], E.gcn_edges

    def recording(*args):
        plans.append(real(*args))
        return plans[-1]

    monkeypatch.setattr(E, "gcn_edges", recording)
    data = D.gen_synthetic(6, seed=43, task="cls")
    codec = E.Codec(data, "cls")
    encs = [codec.encode(ex) for ex in data]
    for kind in ("gcn-dep", "gcn-con"):
        model = E.make_teacher(kind, codec, emb_dim=5, n_layers=2, rng=np.random.default_rng(0))
        model.logits(encs)
        with T.Tape() as tape:
            tape.backward(T.sum_(model.logits(encs, train=True, rng=np.random.default_rng(1))))
    assert ["out_of" in vars(p) for p in plans] == [False, True, False, True]


# ---------------------------------------------------------------------------
# student

def make_student_encoder(vocab, emb, hid, layers=3, seed=0, dtype=F64):
    p = E.Params(np.random.default_rng(seed), dtype)
    enc = E.StudentEncoder(p, "s", vocab, emb, hid, layers)
    return enc, p


def encode_one(enc, ids):
    ids = np.asarray(ids)[None, :]
    return enc.encode_batch(ids), enc.lm_states(ids)


def test_student_single_token():
    enc, _ = make_student_encoder(10, 4, 5)
    reps, l1f = encode_one(enc, [3])
    assert reps.shape == (1, 10)
    assert l1f.shape == (1, 5)


def test_student_paper_width():
    enc, _ = make_student_encoder(20, 8, 350)
    reps, _ = encode_one(enc, [1, 2, 3])
    assert reps.shape == (3, 700)


def test_student_batch_matches_single():
    enc, _ = make_student_encoder(12, 4, 5, layers=2)
    ids = np.array([[1, 2, 3], [4, 5, 6]])
    top = enc.encode_batch(ids).data
    for b in range(2):
        reps, _ = encode_one(enc, ids[b])
        got = top[3 * b:3 * (b + 1)]  # stacked by sentence
        np.testing.assert_allclose(got, reps.data, atol=1e-12)


def test_student_reversal_swaps_halves_with_tied_weights():
    enc, p = make_student_encoder(15, 6, 4, layers=3)
    h = 4
    for l, layer in enumerate(enc.layers):
        for k in ("W", "U", "b"):
            layer["b"][k].data[...] = layer["f"][k].data
        if l > 0:
            w = layer["f"]["W"]
            w.data[h:, :] = w.data[:h, :]
            layer["b"]["W"].data[...] = w.data
    ids = [2, 7, 3, 9, 4]
    fwd, _ = encode_one(enc, ids)
    rev, _ = encode_one(enc, ids[::-1])
    n = len(ids)
    swapped = np.concatenate([rev.data[:, h:], rev.data[:, :h]], axis=1)
    np.testing.assert_allclose(fwd.data, swapped[::-1], atol=1e-12)


def sentence_rows(bsz, steps):
    """Step-major row t*B + b of each sentence-stacked row b*T + t."""
    return (np.arange(steps) * bsz + np.arange(bsz)[:, None]).reshape(-1)


def reference_bilstm(enc, ids):
    """Per-step stacked BiLSTM built from elementary tape ops:
    gates = (x@W + h@U) + b in the order [i, f, o, u]; returns top, l1f
    stacked by sentence."""
    bsz, steps = ids.shape
    hid = enc.hid
    x = [T.embedding(enc.emb, ids[:, t]) for t in range(steps)]
    l1f = None
    for l, layer in enumerate(enc.layers):
        outs = {}
        for d, ps in layer.items():
            h = c = Tensor(np.zeros((bsz, hid)))
            hs = [None] * steps
            for t in (range(steps - 1, -1, -1) if d == "b" else range(steps)):
                z = T.add(T.add(T.matmul(x[t], ps["W"]), T.matmul(h, ps["U"])), ps["b"])
                i, f, o = (T.sigmoid(T.slice_cols(z, k * hid, (k + 1) * hid))
                           for k in range(3))
                u = T.tanh(T.slice_cols(z, 3 * hid, 4 * hid))
                c = T.add(T.mul(f, c), T.mul(i, u))
                h = hs[t] = T.mul(o, T.tanh(c))
            outs[d] = hs
        if l == 0:
            l1f = T.concat(outs["f"], axis=0)
        x = [T.concat([outs["f"][t], outs["b"][t]], axis=1) for t in range(steps)]
    rows = sentence_rows(bsz, steps)
    return T.embedding(T.concat(x, axis=0), rows), T.embedding(l1f, rows)


@pytest.mark.parametrize("steps", [1, 5])
def test_student_matches_per_step_reference(steps):
    enc, p = make_student_encoder(11, 4, 3, layers=2, seed=8)
    brng = np.random.default_rng(9)
    for t in p.all():
        if t.data.ndim == 1:  # nonzero biases, so their place in the sum is tested
            t.data[...] = brng.standard_normal(t.shape)
    ids = np.random.default_rng(10).integers(0, 11, size=(3, steps))
    w_top = Tensor(np.random.default_rng(11).standard_normal((steps * 3, 6)))
    w_l1 = Tensor(np.random.default_rng(12).standard_normal((steps * 3, 3)))

    def run(encode):
        for t in p.all():
            t.grad = None
        with T.Tape() as tape:
            top, l1f = encode()
            tape.backward(T.add(T.sum_(T.mul(top, w_top)), T.sum_(T.mul(l1f, w_l1))))
        return top.data, l1f.data, [t.grad.copy() for t in p.all()]

    def fused():
        return enc.encode_batch(ids), enc.lm_states(ids)

    got, want = run(fused), run(lambda: reference_bilstm(enc, ids))
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    for name, g, r in zip(p.names(), got[2], want[2]):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)


def set_biases(p, seed):
    """Nonzero biases, so their place in the gate sums is tested."""
    rng = np.random.default_rng(seed)
    for t in p.all():
        if t.data.ndim == 1:
            t.data[...] = rng.standard_normal(t.shape)


def encode_and_grads(p, encode, w_top, w_l1):
    """top, l1f and every parameter gradient of sum(top*w_top) + sum(l1f*w_l1),
    where encode() returns a list of (top, l1f) pieces stacked by sentence."""
    for t in p.all():
        t.grad = None
    with T.Tape() as tape:
        pieces = encode()
        top = T.concat([a for a, _ in pieces], axis=0)
        l1f = T.concat([b for _, b in pieces], axis=0)
        tape.backward(T.add(T.sum_(T.mul(top, w_top)), T.sum_(T.mul(l1f, w_l1))))
    return top.data, l1f.data, [t.grad.copy() for t in p.all()]


def test_student_packed_matches_batch_of_one():
    # lengths 1, 3 and 7 in shuffled input order: packed, every sentence
    # leaves (forward) and joins (reverse) the scan at its own length
    enc, p = make_student_encoder(11, 4, 3, layers=3, seed=13)
    set_biases(p, 14)
    rng = np.random.default_rng(15)
    ids = [rng.integers(0, 11, size=n) for n in (3, 1, 7)]
    w_top = Tensor(rng.standard_normal((11, 6)))
    w_l1 = Tensor(rng.standard_normal((11, 3)))

    def packed():
        return [(enc.encode_batch(ids), enc.lm_states(ids))]

    def one_by_one():
        return [(enc.encode_batch([s]), enc.lm_states([s])) for s in ids]

    got = encode_and_grads(p, packed, w_top, w_l1)
    want = encode_and_grads(p, one_by_one, w_top, w_l1)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    for name, g, r in zip(p.names(), got[2], want[2]):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)


def step_major_lstm_scan(xw, u, bsz, reverse=False):
    """The equal-length scan over a step-major (T*B, 4h) batch that the
    packed `lstm_scan` replaced, kept verbatim as the bitwise reference."""
    hid = u.shape[0]
    steps = xw.shape[0] // bsz
    dtype = np.result_type(xw.data, u.data)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    xg = xw.data.reshape(steps, bsz, 4 * hid)
    acts = np.empty((steps, bsz, 4 * hid), dtype=dtype)
    cells = np.empty((steps, bsz, hid), dtype=dtype)
    tanh_c = np.empty_like(cells)
    hs = np.empty_like(cells)
    with np.errstate(over="ignore"):
        for k, t in enumerate(order):
            z = acts[t]
            if k:
                np.matmul(hs[order[k - 1]], u.data, out=z)
                z += xg[t]
            else:
                z[...] = xg[t]
            sig = z[:, :3 * hid]
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
            np.multiply(z[:, :hid], z[:, 3 * hid:], out=cells[t])
            if k:
                cells[t] += z[:, hid:2 * hid] * cells[order[k - 1]]
            np.tanh(cells[t], out=tanh_c[t])
            np.multiply(z[:, 2 * hid:3 * hid], tanh_c[t], out=hs[t])
    out = Tensor(hs.reshape(steps * bsz, hid))

    def prev(a):
        p = np.zeros_like(a)
        if reverse:
            p[:-1] = a[1:]
        else:
            p[1:] = a[:-1]
        return p

    def back(grad):
        slope = acts.copy()
        slope[..., :3 * hid] *= 1.0 - acts[..., :3 * hid]
        slope[..., 3 * hid:] = 1.0 - acts[..., 3 * hid:] ** 2
        slope *= np.concatenate((acts[..., 3 * hid:], prev(cells), tanh_c,
                                 acts[..., :hid]), axis=2)
        dc_dh = acts[..., 2 * hid:3 * hid] * (1.0 - tanh_c * tanh_c)
        gh = grad.reshape(steps, bsz, hid)
        dz_all = np.empty_like(acts)
        dh_next = dc_next = 0.0
        for t in reversed(order):
            dh = gh[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            np.multiply(np.concatenate((dc, dc, dh, dc), axis=1), slope[t], out=dz_all[t])
            dc_next = dc * acts[t, :, hid:2 * hid]
            dh_next = dz_all[t] @ u.data.T
        dz = dz_all.reshape(steps * bsz, 4 * hid)
        return [dz, prev(hs).reshape(steps * bsz, hid).T @ dz]

    return T._emit(out, (xw, u), back)


def step_major_encode(enc, ids, train, rng):
    """The equal-length student encoder before packing: step-major rows,
    gathered into sentence order at the end."""
    bsz, steps = ids.shape
    x = T.embedding(enc.emb, ids.T.reshape(-1))
    if train:
        x = T.dropout(x, E.EMB_DROPOUT, rng)
    l1f = None
    for l, layer in enumerate(enc.layers):
        fwd, bwd = (step_major_lstm_scan(T.add(T.matmul(x, layer[d]["W"]), layer[d]["b"]),
                                         layer[d]["U"], bsz, reverse=d == "b")
                    for d in ("f", "b"))
        if l == 0:
            l1f = fwd
        x = T.concat([fwd, bwd], axis=1)
    rows = sentence_rows(bsz, steps)
    return T.embedding(x, rows), T.embedding(l1f, rows)


def test_student_equal_length_matches_step_major_scan_bitwise():
    # float32 as in training, with nonzero biases and embedding dropout
    p = E.Params(np.random.default_rng(16), np.float32)
    enc = E.StudentEncoder(p, "s", 13, 5, 4, 3)
    set_biases(p, 17)
    rng = np.random.default_rng(18)
    ids = rng.integers(0, 13, size=(4, 6))
    w_top = Tensor(rng.standard_normal((24, 8)).astype(np.float32))
    w_l1 = Tensor(rng.standard_normal((24, 4)).astype(np.float32))

    def packed():
        # each reader draws the same dropout mask from a fresh generator
        return [(enc.encode_batch(ids, train=True, rng=np.random.default_rng(19)),
                 enc.lm_states(ids, train=True, rng=np.random.default_rng(19)))]

    def reference():
        # top and l1f from two reference graphs, as the two readers build them
        top, _ = step_major_encode(enc, ids, True, np.random.default_rng(19))
        _, l1f = step_major_encode(enc, ids, True, np.random.default_rng(19))
        return [(top, l1f)]

    got = encode_and_grads(p, packed, w_top, w_l1)
    want = encode_and_grads(p, reference, w_top, w_l1)
    assert got[0].dtype == np.float32
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    for name, g, r in zip(p.names(), got[2], want[2]):
        np.testing.assert_array_equal(g, r, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_student_mixed_lengths_match_row_major_scan_bitwise(dtype, monkeypatch):
    # mixed lengths, so the forward scans lose rows and the reverse ones gain
    # them; with nonzero biases and embedding dropout
    p = E.Params(np.random.default_rng(20), dtype)
    enc = E.StudentEncoder(p, "s", 13, 5, 4, 3)
    set_biases(p, 21)
    rng = np.random.default_rng(22)
    ids = [rng.integers(0, 13, size=n) for n in (3, 1, 7, 7, 2, 5)]
    w_top = Tensor(rng.standard_normal((25, 8)).astype(dtype))
    w_l1 = Tensor(rng.standard_normal((25, 4)).astype(dtype))

    def encode():
        return [(enc.encode_batch(ids, train=True, rng=np.random.default_rng(23)),
                 enc.lm_states(ids, train=True, rng=np.random.default_rng(23)))]

    got = encode_and_grads(p, encode, w_top, w_l1)
    monkeypatch.setattr(T, "lstm_scan", row_major_lstm_scan)
    want = encode_and_grads(p, encode, w_top, w_l1)
    assert got[0].dtype == dtype
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    for name, g, r in zip(p.names(), got[2], want[2]):
        np.testing.assert_array_equal(g, r, err_msg=name)


def test_student_tape_length_independent_of_steps():
    enc, _ = make_student_encoder(9, 4, 3, layers=3)

    def tape_len(steps):
        with T.Tape() as tape:
            enc.encode_batch(np.zeros((2, steps), dtype=np.int64))
        return len(tape)

    assert tape_len(3) == tape_len(12)


def test_student_fd_gradient():
    enc, p = make_student_encoder(8, 3, 3, layers=2, seed=4)
    ids = np.array([[1, 2, 0, 5]])

    def f():
        return T.sum_(T.tanh(enc.encode_batch(ids)))

    assert check_case(f, p.all()) < 1e-6


# ---------------------------------------------------------------------------
# heads

def head_model(task, seed):
    data = D.gen_synthetic(4, seed=seed, task=task, max_len=6)
    codec = E.Codec(data, task)
    model = E.make_teacher("gcn-dep", codec, emb_dim=4, n_layers=1, dtype=F64,
                           rng=np.random.default_rng(seed))
    return model, [codec.encode(ex) for ex in data]


def test_pair_head_width_and_zero_diff():
    model, encs = head_model("pair", 11)
    w = model.p["head/W"]
    assert w.shape == (20, model.codec.n_classes)
    w.data[...] = 0.0
    w.data[12:16, :] = 1.0  # only the u-v block contributes
    for enc in encs:
        enc.partner = enc.main
    out = model.logits(encs)
    np.testing.assert_allclose(out.data, np.zeros(out.shape), atol=1e-12)


def test_tag_head_shape():
    model, encs = head_model("tag", 12)
    assert model.p["head/ind"].shape == (2, 16)
    assert model.p["head/W"].shape == (4 + 16, model.codec.n_classes)
    out = model.logits(encs)
    assert out.shape == (sum(enc.main.n for enc in encs), model.codec.n_classes)


# ---------------------------------------------------------------------------
# arc scorer

def make_arc_scorer(in_dim, n_labels, arc_dim, seed=0):
    p = E.Params(np.random.default_rng(seed), F64)
    return E.ArcLabelScorer(p, "a", in_dim, n_labels, arc_dim), p


def test_arc_probs_normalized_and_uniform_at_zero():
    scorer, p = make_arc_scorer(5, 3, 4)
    reps = Tensor(np.random.default_rng(0).standard_normal((4, 5)))
    out = scorer(reps, E.offsets([4]))
    probs = T.softmax(out.arc_logits, axis=1).data
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-6)
    assert out.dep_labels.shape == (4, 3) and out.head_labels.shape == (5, 3)
    for t in p.all():
        t.data[...] = 0.0
    probs = T.softmax(scorer(reps, E.offsets([4])).arc_logits, axis=1).data
    np.testing.assert_allclose(probs, np.full((4, 5), 0.2), atol=1e-9)


def test_arc_scores_match_hand_computation():
    scorer, p = make_arc_scorer(3, 2, 3, seed=7)
    rng = np.random.default_rng(1)
    reps = rng.standard_normal((2, 3))
    out = scorer(Tensor(reps), E.offsets([2]))
    hd = np.tanh(reps @ scorer.Wd.data + scorer.bd.data)
    hh = np.tanh(reps @ scorer.Wh.data + scorer.bh.data)
    cand = np.vstack([scorer.root.data, hh])
    expect = hd @ scorer.A.data @ cand.T
    expect += np.ones((2, 1)) @ (cand @ scorer.wh.data).T
    np.testing.assert_allclose(out.arc_logits.data, expect, atol=1e-9)
    sm = np.exp(expect) / np.exp(expect).sum(axis=1, keepdims=True)
    got = T.softmax(out.arc_logits, axis=1).data
    np.testing.assert_allclose(got, sm, atol=1e-6)


# ---------------------------------------------------------------------------
# span scorer

def make_span_scorer(in_dim, n_labels, seed=0):
    p = E.Params(np.random.default_rng(seed), F64)
    return E.SpanScorer(p, "s", in_dim, n_labels), p


def test_span_scorer_table_size():
    scorer, _ = make_span_scorer(4, 3)
    reps = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
    out = scorer(reps, E.offsets([5]))
    assert out.tensor.shape == (5 * 6 // 2, 3)
    i, j = E.span_order(5)
    assert list(zip(i, j)) == [(i, j) for i in range(5) for j in range(i + 1, 6)]
    # the computed flat index of every labeled span reads that span's row
    tree = BinTree(5, {(a, b): (a + b) % 3 for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                                       (3, 5), (2, 5), (1, 5), (0, 5)]})
    chart = np.zeros((5, 6, 3))
    chart[i, j] = out.tensor.data
    np.testing.assert_array_equal(out.tensor.data.reshape(-1)[span_ids([5], tree_spans([tree]), 3)],
                                  [chart[a, b, l] for (a, b), l in tree.spans.items()])


def test_span_scorer_zero_params_tie_break():
    scorer, p = make_span_scorer(4, 2)
    for t in p.all():
        t.data[...] = 0.0
    reps = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
    out = scorer(reps, E.offsets([4]))
    assert np.all(out.tensor.data == 0.0)
    spans, (score,) = chart_max([4], out.tensor.data)
    (tree,) = chart_trees([4], spans)
    assert score == 0.0
    assert split_of(tree.spans, 0, 4) == 1
    assert all(l == 0 for l in tree.spans.values())


def test_span_scorer_fd_gradient():
    scorer, p = make_span_scorer(3, 2, seed=5)
    reps_data = np.random.default_rng(2).standard_normal((3, 3))

    def f():
        out = scorer(Tensor(reps_data), E.offsets([3]))
        return T.sum_(T.tanh(out.tensor))

    assert check_case(f, p.all()) < 1e-6


# ---------------------------------------------------------------------------
# codec and models

def test_codec_and_teacher_row_counts():
    data = D.gen_synthetic(12, seed=31)
    codec = E.Codec(data, "cls")
    rng = np.random.default_rng(0)
    enc = codec.encode(data[0])
    n = enc.main.n
    for kind in E.TEACHER_KINDS:
        model = E.make_teacher(kind, codec, emb_dim=8, hidden=6, rng=rng)
        reps, _ = model.reps([enc.main])
        assert reps.shape[0] == n, kind
        logits = model.logits([enc])
        assert logits.shape == (1, codec.n_classes)


def test_student_model_reps_and_logits():
    data = D.gen_synthetic(8, seed=32)
    codec = E.Codec(data, "cls")
    student = E.StudentModel(codec, emb_dim=8, hidden=6, rng=np.random.default_rng(1))
    enc = codec.encode(data[0])
    main = student.reps([enc.main])
    assert main[0].shape == (enc.main.n, 12)
    assert student.logits([enc]).shape == (1, 2)
    arcs = student.struct_heads["dep"](*main)
    assert arcs.arc_logits.shape == (enc.main.n, enc.main.n + 1)
    spans = student.struct_heads["con"](*main)
    assert spans.tensor.shape[1] == len(codec.con_labels)


@pytest.mark.parametrize("task", ["cls", "pair", "tag"])
def test_batched_reps_and_logits_match_single(task):
    data = D.gen_synthetic(7, seed=34, task=task, max_len=9)
    codec = E.Codec(data, task)
    encs = [codec.encode(ex) for ex in data]
    assert len({e.main.n for e in encs}) > 1  # a mixed-length batch
    models = [E.make_teacher(kind, codec, emb_dim=8, hidden=6, dtype=F64,
                             rng=np.random.default_rng(3)) for kind in E.TEACHER_KINDS]
    student = E.StudentModel(codec, emb_dim=8, hidden=6, n_layers=2, dtype=F64,
                             rng=np.random.default_rng(4))
    for m in models + [student]:
        mat, off = m.reps([e.main for e in encs])
        np.testing.assert_array_equal(off, np.cumsum([0] + [e.main.n for e in encs]))
        single = np.concatenate([m.reps([e.main])[0].data for e in encs])
        np.testing.assert_allclose(mat.data, single, rtol=0, atol=1e-12, err_msg=m.kind)
    for m in models + [student]:
        single = np.concatenate([m.logits([e]).data for e in encs])
        np.testing.assert_allclose(m.logits(encs).data, single, rtol=0, atol=1e-12,
                                   err_msg=m.kind)


def test_childsum_sibling_permutation_in_batch_is_bitwise():
    rng = np.random.default_rng(13)
    up, _ = make_childsum(3, 4, rng)
    down, _ = make_childsum(3, 4, rng)
    star = [[1, 3, 4, 2], [], [], [], [5], []]  # node 0 has four children

    def graph(children):
        return len(children), np.array([(c, v) for v, cs in enumerate(children) for c in cs])

    others = [dep_tree([2, 0, 2]), dep_tree([0, 1, 1, 3])]
    x = Tensor(rng.standard_normal((13, 3)))
    base = E.tree_encode(plans_of([others[0], graph(star), others[1]]), x, up, down)
    for perm in ([2, 4, 1, 3], [4, 3, 2, 1]):
        permuted = [perm] + star[1:]
        got = E.tree_encode(plans_of([others[0], graph(permuted), others[1]]), x, up, down)
        assert got.data.tobytes() == base.data.tobytes()


def _binarized_con_labels(examples):
    labels = set()
    for ex in examples:
        for side in (ex, ex.partner) if ex.partner is not None else (ex,):
            labels.update(l for _, _, l in side.con.spans())
            labels.update(binarize(side.con).spans.values())
    return D.LabelVocab.build(sorted(labels), reserve_null=True).itos


def test_codec_con_labels_match_binarization():
    desk = D.gen_synthetic(1000, max_len=12, seed=0)
    assert E.Codec(desk, "cls").con_labels.itos == _binarized_con_labels(desk)
    pairs = D.gen_synthetic(40, seed=34, task="pair")
    assert E.Codec(pairs, "pair").con_labels.itos == _binarized_con_labels(pairs)
    hand = []
    for text in ["(S (X (Y (A a))) (B b) (C c) (D d))", "(R (S (T (A a) (B b) (C c))))",
                 "(S (NP (N n)))", "(A (A (A a)))", "(S (U (V (W w) (X x))) (Y (Z z)))",
                 "(S (A a) (Q (R (B b) (C c) (D d) (E e))))"]:
        (con,) = D.parse_bracketed(text)
        hand.append(D.Example(D.Sentence(con.leaves()),
                              D.DepTree(list(range(con.n)), ["dep"] * con.n), con, label=0))
    codec = E.Codec(hand, "cls")
    assert codec.con_labels.itos == _binarized_con_labels(hand)
    assert {"X|Y|A", "R|S|T", "S|NP|N", "A|A|A", "U|V"} <= set(codec.con_labels.itos)


HAND_TREES = [
    "(A a)", "(A (B b))", "(S (A (B (C x))))", "(S (X (Y (A a))) (B b) (C c) (D d))",
    "(R (S (T (A a) (B b) (C c))))", "(S (A a) (Q (R (B b) (C c) (D d) (E e))))",
    "( (S (A a) (B b) (C c)) )", "((S (NP (N n)) (VP (V v) (NP (D d) (N m)))))",
    "(S (U (V (W w) (X x))) (Y (Z z)))", "(S (A a) (B (C c)) (D (E (F f) (G g) (H h))))",
]


def _chain_example(con):
    return D.Example(D.Sentence(con.leaves()),
                     D.DepTree(list(range(con.n)), ["dep"] * con.n), con, label=0)


def test_span_binarize_and_con_gcn_match_node_walks():
    # generated trees built from nodes and parsed back from their text, random
    # bracketed trees, and hand cases: unary chains over preterminals and
    # internal nodes, unlabeled wrappers, and nodes of 3 and 4 children
    rng = np.random.default_rng(37)
    trees = []
    for ex in D.gen_synthetic(60, seed=38) + D.gen_synthetic(20, seed=39, task="pair"):
        for side in (ex, ex.partner) if ex.partner is not None else (ex,):
            trees += [side.con, *D.parse_bracketed(D.render_bracketed(side.con))]
    trees += [D.parse_bracketed(random_bracketed(rng))[0] for _ in range(200)]
    hand = [D.parse_bracketed(text)[0] for text in HAND_TREES]
    trees += hand + [D.ConstTree(t.root) for t in hand]
    codec = E.Codec([_chain_example(t) for t in trees], "cls")
    for con in trees:
        got, want = binarize(con), reference_binarize(con)
        assert list(got.spans.items()) == list(want.spans.items()), D.render_bracketed(con)
        # binarize inserts its spans in the post-order BinTree keeps
        assert list(got.spans) == list(reference_binarized_spans(con)), D.render_bracketed(con)
        assert got.n == want.n
        side = codec.encode(_chain_example(con)).main
        is_word, node_ids, edges = side.con_gcn
        want_inputs, want_edges = reference_con_gcn(side)
        assert [("word" if w else "label", i) for w, i in
                zip(is_word.tolist(), node_ids.tolist())] == want_inputs, D.render_bracketed(con)
        assert edges.tolist() == [list(e) for e in want_edges], D.render_bracketed(con)
        ids = codec.con_labels.encode(want.spans.values()).tolist()
        assert list(side.bintree.spans.items()) == list(zip(want.spans, ids))
    assert sum(UNARY_SEP in l for t in trees for l in binarize(t).spans.values()) > 100
    assert sum(D.NULL_LABEL in binarize(t).spans.values() for t in trees) > 100


def long_corpus(n_sentences, seed):
    """Sentences of 3-5 generated clauses under one (S ...) root, composed as
    the long-analysis benchmark composes them: the first clause keeps its
    dependency root, and every later clause's root attaches to it by conj."""
    ks = np.random.default_rng([seed, 1]).integers(3, 6, size=n_sentences)
    clauses = iter(D.gen_synthetic(int(ks.sum()), max_len=12, seed=seed))
    out = []
    for k in ks.tolist():
        parts = [next(clauses) for _ in range(k)]
        root = parts[0].dep.heads.index(0) + 1
        tokens, heads, labels = [], [], []
        for c in parts:
            off = len(tokens)
            heads += [h + off if h else root if off else 0 for h in c.dep.heads]
            labels += [lab if h or not off else "conj" for h, lab in zip(c.dep.heads, c.dep.labels)]
            tokens += c.sent.tokens
        con = D.ConstTree(D.ConstNode("S", [c.con.root for c in parts]))
        out.append(D.Example(D.Sentence(tokens), D.DepTree(heads, labels), con,
                             label=parts[0].label))
        out[-1].validate()
    return out


def test_con_tree_hard_targets_and_induce_match_the_sorting_builders(tmp_path):
    # on the desk corpora of seeds 0-4 in every task and on long composed
    # sentences, the constituency TreeLSTM's arrays, the mode-B hard span rows
    # and the trees induce writes are those of the builders that sorted a
    # tree's spans and walked them again
    corpora = {f"{task}{seed}": (D.gen_synthetic(30, seed=seed, task=task), task)
               for task in ("cls", "pair", "tag") for seed in range(5)}
    corpora["long"] = (long_corpus(12, seed=5), "cls")
    assert np.mean([len(ex.sent) for ex in corpora["long"][0]]) > 20
    D.save_jsonl(corpora["cls0"][0], tmp_path / "train.jsonl")
    assert cli.main(["distill", "--train", str(tmp_path / "train.jsonl"), "--iters", "2",
                     "--batch", "8", "--emb-dim", "8", "--hidden", "6", "--layers", "1",
                     "--out", str(tmp_path / "student")]) == 0
    student = cli.load_model_dir(str(tmp_path / "student"))
    for name, (data, task) in corpora.items():
        codec = E.Codec(data, task)
        encs = [codec.encode(ex) for ex in data]
        for side in [s for enc in encs for s in (enc.main, enc.partner) if s is not None]:
            for got, want in zip(side.con_tree, reference_con_tree(side)):
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)
        want = [[i, j, codec.con_labels.stoi[l]] for enc in encs
                for (i, j), l in reference_binarized_spans(enc.main.raw.con).items()]
        assert tree_spans(hard_targets("con", encs, len(codec.dep_labels))).tolist() == want, name
        D.save_jsonl(data, tmp_path / f"{name}.jsonl")
        assert cli.main(["induce", "--model", str(tmp_path / "student"), "--data",
                         str(tmp_path / f"{name}.jsonl"), "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "induced_trees.txt").read_text(encoding="utf-8").splitlines()
        assert lines == reference_induced_trees(student, [student.codec.encode(ex) for ex in data]), name


def _heads_or_message(percolate, tree):
    try:
        dep = percolate(tree)
    except D.DataError as e:
        return str(e)
    return dep.heads, dep.labels


def _renamed(tree, labels):
    """Copies of a tree with one span's label renamed to each of labels."""
    spans = tree.spans()
    for k, (i, j, old) in enumerate(spans):
        for new in labels:
            if new != old:
                yield D.ConstTree._parsed(tree.leaves(), spans[:k] + [(i, j, new)] + spans[k + 1:])


def test_span_render_percolate_unbinarize_and_eq_match_node_walks():
    # generated cls, pair and tag trees and long composed ones, built from
    # nodes and parsed back; random bracketed trees; hand cases; and trees
    # unbinarized from charts over null and composite labels
    rng = np.random.default_rng(51)
    built = []
    for task, seed in (("cls", 52), ("pair", 53), ("tag", 54)):
        for ex in D.gen_synthetic(40, seed=seed, task=task):
            built += [ex.con] + ([ex.partner.con] if ex.partner is not None else [])
    clauses, k = D.gen_synthetic(60, seed=55), 0
    for size in [3, 4, 5] * 5:
        built.append(D.ConstTree(D.ConstNode("S", [c.con.root for c in clauses[k:k + size]])))
        k += size
    trees = built + [D.parse_bracketed(D.render_bracketed(t))[0] for t in built]
    trees += [D.parse_bracketed(random_bracketed(rng))[0] for _ in range(200)]
    hand = [D.parse_bracketed(text)[0] for text in HAND_TREES]
    trees += hand + [D.ConstTree(t.root) for t in hand]
    labels = [D.NULL_LABEL, "S", "NP", "VP", "S|VP", "NP|N|X", D.NULL_LABEL + "|A"]
    lens = [n for n in range(1, 25) for _ in range(20)]
    rows = rng.normal(size=(sum(n * (n + 1) // 2 for n in lens), len(labels)))
    for bt in chart_trees(lens, chart_max(lens, rows)[0]):
        bt.spans = {s: labels[l] for s, l in bt.spans.items()}
        tokens = [f"w{i}" for i in range(bt.n)]
        got, want = unbinarize(bt, tokens), reference_unbinarize(bt, tokens)
        assert (got.leaves(), got.spans()) == (want.leaves(), want.spans())
        trees.append(got)

    for t in trees:
        text = reference_render_bracketed(t)
        assert D.render_bracketed(t) == text
        bt = binarize(t)
        got, want = unbinarize(bt, t.leaves()), reference_unbinarize(bt, t.leaves())
        assert (got.leaves(), got.spans()) == (want.leaves(), want.spans()), text
        # the node walk checks a node's head rule before its children, so on
        # a tree with several faults it may name an outer one first
        heads = _heads_or_message(D.percolate_deps, t)
        ref_heads = _heads_or_message(reference_percolate_deps, t)
        assert heads == ref_heads or (
            type(heads) is str and ref_heads.startswith("no head rule")), text
    for t in built[:60]:  # valid trees, so each copy has one fault
        for bad in _renamed(t, ["XX", "NP", "VP", "N"]):
            assert (_heads_or_message(D.percolate_deps, bad)
                    == _heads_or_message(reference_percolate_deps, bad))
    answers = []
    for a, b in zip(trees, trees[1:] + trees[:1]):
        for other in (a, b, unbinarize(binarize(a), a.leaves()),
                      D.parse_bracketed(D.render_bracketed(a))[0], D.render_bracketed(a)):
            answers.append(a == other)
            assert answers[-1] == reference_tree_eq(a, other)
    assert repr(hand[3].root) == reference_render_bracketed(hand[3].root)
    assert 0 < sum(answers) < len(answers)
    assert sum(type(_heads_or_message(D.percolate_deps, t)) is tuple for t in trees) >= len(built)
    with pytest.raises(D.DataError, match="token count 2 != tree length 1"):
        unbinarize(BinTree(1, {(0, 1): "A"}), ["a", "b"])


def test_loaded_trees_build_no_nodes_in_eval_and_forward(tmp_path, monkeypatch):
    # the student reads no tree and every walk over a tree reads its spans, so
    # loading, encoding, running the models, rendering, head percolation,
    # comparing trees and induce build no ConstNode
    D.save_jsonl(D.gen_synthetic(16, seed=40, max_len=12), tmp_path / "d.jsonl")
    assert cli.main(["distill", "--train", str(tmp_path / "d.jsonl"), "--iters", "2",
                     "--batch", "8", "--emb-dim", "8", "--hidden", "6", "--layers", "1",
                     "--out", str(tmp_path / "student")]) == 0
    built, bintrees = [], []
    init, post_init = D.ConstNode.__init__, BinTree.__post_init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def counting_post_init(self):
        bintrees.append(self.n)
        post_init(self)

    monkeypatch.setattr(D.ConstNode, "__init__", counting_init)
    monkeypatch.setattr(BinTree, "__post_init__", counting_post_init)
    data = D.load_jsonl(tmp_path / "d.jsonl")
    codec = E.Codec(data, "cls")
    encs = [codec.encode(ex) for ex in data]
    rng = np.random.default_rng(41)
    evaluate(E.StudentModel(codec, emb_dim=8, hidden=6, n_layers=2, rng=rng), encs)
    for kind in ("gcn-con", "tlstm-con"):
        evaluate(E.make_teacher(kind, codec, emb_dim=8, hidden=6, rng=rng), encs)
    assert all(e.main.con_gcn and e.main.bintree for e in encs)
    for ex in data:
        assert D.percolate_deps(ex.con) == ex.dep
        assert D.parse_bracketed(D.render_bracketed(ex.con)) == [ex.con]
    del bintrees[:]
    assert cli.main(["induce", "--model", str(tmp_path / "student"), "--data",
                     str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "induced")]) == 0
    assert bintrees == [len(ex.sent) for ex in data]  # one per sentence, from the chart
    assert built == []
    data[0].con.root  # the counter does see nodes built on a read of root
    assert len(built) == len(data[0].con.spans())


def test_codec_round_trip():
    data = D.gen_synthetic(8, seed=33, task="pair")
    codec = E.Codec(data, "pair")
    back = E.Codec.from_json(codec.to_json())
    assert back.vocab.itos == codec.vocab.itos
    assert back.con_labels.itos == codec.con_labels.itos
    assert back.n_classes == codec.n_classes
