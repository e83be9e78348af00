import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import synkd.tensor as T
from synkd.distill import (
    DistillConfig,
    DistillError,
    TeacherSet,
    anneal_alpha,
    ce_sum,
    combine_syn,
    con_inject_loss,
    dep_inject_loss,
    feat_distill,
    hard_arc_targets,
    mask_ids,
    one_hot,
    output_distill_loss,
    reg_loss,
    sample_mask_positions,
    semantic_lm_loss,
    soft_arc_targets,
    soft_con_targets,
    total_loss,
)
from synkd.cli import main
from synkd.encoders import (ArcLabelScorer, ArcScores, Params, ScoredSpans, SpanScorer,
                            offsets, span_order)
from synkd.structures import BinTree, SpanScores, cyk_max, span_ids, tree_spans
from synkd.syntax_data import DataError
from synkd.tensor import Tensor

from gradcheck import analytic_grad, check_case
from oracles import (enum_best, random_bintree, random_table, reference_arc_scores,
                     reference_dep_inject_loss, reference_reg_loss, reference_span_scores)


def scored_from_array(arr):
    arr = np.asarray(arr, dtype=np.float64)
    # infer n from the span count n(n+1)/2
    n = int((math.isqrt(8 * arr.shape[0] + 1) - 1) // 2)
    return ScoredSpans(Tensor(arr, requires_grad=True), offsets([n]))


# ---------------------------------------------------------------- schedule

def test_alpha_schedule():
    assert anneal_alpha(0, 10) == 0.0
    assert anneal_alpha(10, 10) == 1.0
    assert anneal_alpha(3, 10) == pytest.approx(0.3, abs=0)
    with pytest.raises(DistillError):
        anneal_alpha(1, 0)
    with pytest.raises(DistillError):
        anneal_alpha(11, 10)


def test_config_validation():
    cfg = DistillConfig()
    assert cfg.eta == 0.5 and cfg.lam1 == 0.6 and cfg.lam2 == 0.2 and cfg.zeta == 0.2
    for bad in (dict(eta=1.5), dict(mode="C"), dict(teacher_mode="warm"),
                dict(mask_ratio=0.0), dict(lam1=-0.1)):
        with pytest.raises(DistillError):
            DistillConfig(**bad)


def test_temperature(tmp_path, capsys):
    # training never applied a temperature, so there is no knob for one
    with pytest.raises(TypeError):
        DistillConfig(temperature=2.0)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"temperature": 2.0}))
    assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'temperature'" in capsys.readouterr().err


# ---------------------------------------------------------- output distill

def logits_for(probs):
    return Tensor(np.log(np.asarray(probs, dtype=np.float64)), requires_grad=True)


def test_output_distill_hand_value():
    # alpha=0.5, Y=[1,0], teacher [0.6,0.4], student [0.5,0.5]
    # -> target [0.8,0.2], loss = -0.8 ln .5 - 0.2 ln .5 = ln 2
    y = np.array([[1.0, 0.0]])
    loss = output_distill_loss(y, [np.array([[0.6, 0.4]])],
                               logits_for([[0.5, 0.5]]), alpha=0.5)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_output_distill_alpha_endpoints():
    rng = np.random.default_rng(7)
    y = one_hot([2], 4)
    p_t = rng.dirichlet(np.ones(4), size=1)
    p_s = rng.dirichlet(np.ones(4), size=1)
    logits = logits_for(p_s)
    at1 = output_distill_loss(y, [p_t], logits, alpha=1.0).item()
    gold_only = output_distill_loss(y, [], logits, alpha=0.3).item()
    assert at1 == pytest.approx(gold_only, abs=1e-9)
    assert at1 == pytest.approx(-math.log(p_s[0, 2]), abs=1e-9)

    at0 = output_distill_loss(y, [p_t], logits, alpha=0.0).item()
    expect = -(p_t[0] * np.log(p_s[0])).sum()
    assert at0 == pytest.approx(expect, abs=1e-9)


def test_output_distill_teacher_mean():
    y = one_hot([0], 2)
    p1 = np.array([[0.9, 0.1]])
    p2 = np.array([[0.5, 0.5]])
    logits = logits_for([[0.4, 0.6]])
    got = output_distill_loss(y, [p1, p2], logits, alpha=0.0).item()
    mix = (p1 + p2) / 2
    assert got == pytest.approx(-(mix[0] * np.log([0.4, 0.6])).sum(), abs=1e-12)


def test_output_distill_batch_mean():
    y = one_hot([0, 1], 2)
    logits = logits_for([[0.7, 0.3], [0.2, 0.8]])
    got = output_distill_loss(y, [], logits, alpha=1.0).item()
    assert got == pytest.approx((-math.log(0.7) - math.log(0.8)) / 2, abs=1e-12)


def test_output_distill_rejects_unnormalized():
    logits = logits_for([[0.5, 0.5]])
    with pytest.raises(DistillError):
        output_distill_loss(np.array([[0.9, 0.2]]), [], logits, alpha=1.0)
    with pytest.raises(DistillError):
        output_distill_loss(one_hot([0], 2), [np.array([[0.5, 0.6]])], logits, alpha=0.5)
    with pytest.raises(DistillError):
        output_distill_loss(one_hot([0], 2), [np.array([[0.2, 0.3, 0.5]])], logits, alpha=0.5)


def test_output_distill_minimized_at_target():
    # gradient wrt logits vanishes exactly when softmax(logits) == target
    y = one_hot([1], 3)
    p_t = np.array([[0.2, 0.5, 0.3]])
    target = 0.4 * y + 0.6 * p_t
    logits = Tensor(np.log(target), requires_grad=True)
    with T.Tape() as tape:
        loss = output_distill_loss(y, [p_t], logits, alpha=0.4)
        tape.backward(loss)
    assert np.abs(logits.grad).max() < 1e-12


@pytest.mark.parametrize("gold", [0, 1])
def test_output_distill_confident_logits_stay_finite(gold):
    # float32 softmax underflows at a 120 logit gap; 0 * log 0 used to give NaN
    logits = Tensor(np.array([[0.0, 120.0]], dtype=np.float32), requires_grad=True)
    with T.Tape() as tape:
        loss = output_distill_loss(one_hot([gold], 2), [], logits, 1.0)
        tape.backward(loss)
    assert loss.item() == pytest.approx(120.0 if gold == 0 else 0.0, abs=1e-4)
    assert np.isfinite(logits.grad).all()


def test_output_distill_gradient():
    rng = np.random.default_rng(3)
    y = one_hot(rng.integers(0, 4, size=3), 4)
    p_t = rng.dirichlet(np.ones(4), size=3)
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    err = check_case(lambda: output_distill_loss(y, [p_t], logits, alpha=0.3), [logits])
    assert err < 1e-6


# ------------------------------------------------------------ feat distill

def test_feat_distill_identity_projections():
    t = Tensor(np.array([[1.0, 2.0]]))
    s = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
    assert feat_distill(t, s).item() == pytest.approx(2.5, abs=1e-12)


def test_feat_distill_zero_at_match():
    m = Tensor(np.array([[0.3, -0.7], [1.0, 2.0]]))
    assert feat_distill(m, m).item() == 0.0


def test_feat_distill_row_mismatch():
    with pytest.raises(DistillError):
        feat_distill(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))


def test_feat_distill_gradient():
    rng = np.random.default_rng(11)
    t_mat = Tensor(rng.normal(size=(4, 3)))
    s_mat = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    wt = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    ws = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    f = lambda: feat_distill(T.matmul(t_mat, wt), T.matmul(s_mat, ws))
    assert check_case(f, [s_mat, wt, ws]) < 1e-6


# ------------------------------------------------------------- combine_syn

def test_combine_syn_endpoints_exact():
    ta, tb = Tensor(np.array(2.0)), Tensor(np.array(4.0))
    assert combine_syn(ta, tb, 1.0) is ta
    assert combine_syn(ta, tb, 0.0) is tb
    assert combine_syn(ta, tb, 0.25).item() == pytest.approx(3.5, abs=1e-12)
    with pytest.raises(DistillError):
        combine_syn(ta, tb, 1.2)


def test_combine_syn_linear():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, eta, c = rng.normal(), rng.normal(), rng.random(), rng.random() + 0.5
        scaled = combine_syn(Tensor(np.array(c * a)), Tensor(np.array(c * b)), eta)
        plain = combine_syn(Tensor(np.array(a)), Tensor(np.array(b)), eta)
        assert scaled.item() == pytest.approx(c * plain.item())


# ------------------------------------------------------------ semantic LM

def lm_student(h, vocab, rng=None, zeros=False):
    if zeros:
        w = np.zeros((h, vocab))
        b = np.zeros(vocab)
        begin = np.zeros((1, h))
    else:
        w = rng.normal(size=(h, vocab))
        b = rng.normal(size=vocab)
        begin = rng.normal(size=(1, h))
    return SimpleNamespace(
        lm_W=Tensor(w, requires_grad=True),
        lm_b=Tensor(b, requires_grad=True),
        lm_begin=Tensor(begin, requires_grad=True),
    )


def test_semantic_lm_uniform_hand_value():
    # untrained uniform predictor over vocab 50, three masks -> 3 ln 50
    stu = lm_student(h=4, vocab=50, zeros=True)
    l1f = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
    targets = [(0, 0, 7), (0, 2, 13), (0, 4, 49)]
    loss = semantic_lm_loss(stu, l1f, off=[0, 6], targets=targets)
    assert loss.item() == pytest.approx(3 * math.log(50.0), abs=1e-9)


def test_semantic_lm_empty_mask_is_zero():
    stu = lm_student(h=4, vocab=10, zeros=True)
    l1f = Tensor(np.zeros((3, 4)))
    assert semantic_lm_loss(stu, l1f, off=[0, 3], targets=[]).item() == 0.0


def test_semantic_lm_position_zero_uses_begin_state():
    rng = np.random.default_rng(5)
    stu = lm_student(h=4, vocab=10, rng=rng)
    l1f = Tensor(rng.normal(size=(5, 4)))
    with T.Tape() as tape:
        loss = semantic_lm_loss(stu, l1f, off=[0, 5], targets=[(0, 0, 3)])
        tape.backward(loss)
    assert np.abs(stu.lm_begin.grad).max() > 0  # begin state actually used
    # and a j>0 mask must not touch it
    stu2 = lm_student(h=4, vocab=10, rng=np.random.default_rng(5))
    with T.Tape() as tape:
        loss = semantic_lm_loss(stu2, l1f, off=[0, 5], targets=[(0, 2, 3)])
        tape.backward(loss)
    assert stu2.lm_begin.grad is None  # never on the tape for that path


def test_semantic_lm_sentence_offset_rows():
    # sentences of lengths 4, 2, 3 stacked at offsets 0, 4, 6: a mask at
    # (b, j > 0) reads row off[b] + j - 1, a mask at j = 0 reads no row
    rng = np.random.default_rng(9)
    stu = lm_student(h=3, vocab=6, rng=rng)
    l1f_data = rng.normal(size=(9, 3))
    l1f = Tensor(l1f_data, requires_grad=True)
    targets = [(1, 1, 4), (0, 3, 2), (2, 0, 5), (2, 2, 1)]
    with T.Tape() as tape:
        loss = semantic_lm_loss(stu, l1f, off=[0, 4, 6, 9], targets=targets)
        tape.backward(loss)
    touched = np.where(np.abs(l1f.grad).sum(axis=1) > 0)[0]
    assert touched.tolist() == [2, 4, 7]


def test_semantic_lm_gradient():
    rng = np.random.default_rng(21)
    stu = lm_student(h=4, vocab=8, rng=rng)
    l1f = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    targets = [(0, 0, 1), (1, 0, 2), (0, 2, 5), (1, 1, 7)]
    f = lambda: semantic_lm_loss(stu, l1f, off=[0, 3, 6], targets=targets)
    assert check_case(f, [l1f, stu.lm_W, stu.lm_b, stu.lm_begin]) < 1e-6


def test_sample_mask_positions_forced():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pos = sample_mask_positions(8, 0.15, rng)
        assert len(pos) >= 1
        assert all(0 <= j < 8 for j in pos)
    with pytest.raises(DistillError):
        sample_mask_positions(0, 0.15, rng)


def test_sample_mask_positions_match_scalar_draws():
    # one vector draw of n uniforms: the positions and the generator's state
    # after it equal those of n scalar draws
    for seed in range(40):
        for n, ratio in ((1, 0.15), (5, 0.15), (12, 0.5), (30, 0.05)):
            got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [j for j in range(n) if ref.random() < ratio] or [int(ref.integers(n))]
            assert sample_mask_positions(n, ratio, got) == want
            assert got.bit_generator.state == ref.bit_generator.state


def test_mask_ids():
    ids = [np.array([5, 6, 7]), np.array([8, 9, 10, 11])]
    out = mask_ids(ids, [(0, 1, 6), (1, 2, 10)], mask_id=2)
    assert [a.tolist() for a in out] == [[5, 2, 7], [8, 9, 2, 11]]
    assert ids[0][1] == 6  # original untouched


# ------------------------------------------------------------- dep inject

def uniform_arc_scores(n, n_labels):
    return ArcScores(
        arc_logits=Tensor(np.zeros((n, n + 1)), requires_grad=True),
        dep_labels=Tensor(np.zeros((n, n_labels)), requires_grad=True),
        head_labels=Tensor(np.zeros((n + 1, n_labels)), requires_grad=True),
        off=offsets([n]),
    )


def test_dep_inject_uniform_hand_value():
    # hard teacher, student uniform over n+1 = 3 heads, 2 tokens:
    # arc term = 2 ln 3; one label type keeps the label term at exactly 0
    target = hard_arc_targets([0, 1], [0, 0], n_labels=1)
    loss = dep_inject_loss(uniform_arc_scores(2, 1), [target])
    assert loss.item() == pytest.approx(2 * math.log(3.0), abs=1e-9)


def test_dep_inject_zero_at_hard_match():
    arc, lab, best = hard_arc_targets([0, 1, 1], [1, 0, 2], n_labels=3)
    scores = ArcScores(
        arc_logits=Tensor(200.0 * (arc - 0.5), requires_grad=True),
        dep_labels=Tensor(200.0 * (lab - 0.5), requires_grad=True),
        head_labels=Tensor(np.zeros((4, 3)), requires_grad=True),
        off=offsets([3]),
    )
    assert dep_inject_loss(scores, [(arc, lab, best)]).item() < 1e-6


def test_dep_inject_soft_lower_bound_is_teacher_entropy():
    rng = np.random.default_rng(4)
    n, L = 3, 2
    t_arc = rng.dirichlet(np.ones(n + 1), size=n)
    t_lab = rng.dirichlet(np.ones(L), size=n)
    best = t_arc.argmax(axis=1)
    scores = ArcScores(
        arc_logits=Tensor(np.log(t_arc)),
        dep_labels=Tensor(np.log(t_lab)),
        head_labels=Tensor(np.zeros((n + 1, L))),
        off=offsets([n]),
    )
    got = dep_inject_loss(scores, [(t_arc, t_lab, best)]).item()
    entropy = -(t_arc * np.log(t_arc)).sum() - (t_lab * np.log(t_lab)).sum()
    assert got == pytest.approx(entropy, abs=1e-9)
    # any other student is strictly worse
    other = uniform_arc_scores(n, L)
    assert dep_inject_loss(other, [(t_arc, t_lab, best)]).item() > entropy


def test_dep_inject_monotone_in_head_mass():
    # hard teachers: loss strictly decreases as mass on the parsed head grows
    arc, lab, best = hard_arc_targets([2, 0], [0, 0], n_labels=1)
    prev = None
    for z in np.linspace(-2.0, 4.0, 13):
        logits = np.zeros((2, 3))
        logits[0, 2] = z
        logits[1, 0] = z
        scores = ArcScores(Tensor(logits), Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))),
                           offsets([2]))
        val = dep_inject_loss(scores, [(arc, lab, best)]).item()
        if prev is not None:
            assert val < prev
        prev = val


def test_dep_inject_shape_mismatch():
    target = hard_arc_targets([0, 1], [0, 0], n_labels=2)
    with pytest.raises(DistillError):
        dep_inject_loss(uniform_arc_scores(3, 2), [target])
    with pytest.raises(DistillError):
        dep_inject_loss(uniform_arc_scores(2, 3), [target])
    with pytest.raises(DistillError):
        dep_inject_loss(uniform_arc_scores(2, 2), [target, target])


def test_dep_inject_best_arc_outside_its_sentence():
    # a 2-token and a 3-token sentence: column 3 of the first lies past its
    # length, where label_logits would read the second's first token
    rng = np.random.default_rng(0)
    L = 2
    scores = ArcScores(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, L))),
                       Tensor(rng.normal(size=(6, L))), offsets([2, 3]))
    targets = [hard_arc_targets([2, 0], [0, 1], L), hard_arc_targets([0, 1, 2], [1, 0, 1], L)]
    assert np.isfinite(dep_inject_loss(scores, targets).item())
    for b, k, col in ((0, 1, 3), (0, 0, -1), (1, 2, 4)):
        arc, lab, best = targets[b]
        bad = list(targets)
        bad[b] = (arc, lab, np.where(np.arange(best.size) == k, col, best))
        with pytest.raises(DistillError, match=f"best arc {col} outside its sentence"):
            dep_inject_loss(scores, bad)
    arc, lab, best = targets[0]
    with pytest.raises(DistillError, match="target shapes"):  # one best arc short
        dep_inject_loss(scores, [(arc, lab, best[:1]), targets[1]])


def test_dep_inject_gradient():
    rng = np.random.default_rng(13)
    n, L = 3, 2
    arc, lab, best = hard_arc_targets([0, 1, 2], [1, 0, 1], n_labels=L)
    scores = ArcScores(
        arc_logits=Tensor(rng.normal(size=(n, n + 1)), requires_grad=True),
        dep_labels=Tensor(rng.normal(size=(n, L)), requires_grad=True),
        head_labels=Tensor(rng.normal(size=(n + 1, L)), requires_grad=True),
        off=offsets([n]),
    )
    f = lambda: dep_inject_loss(scores, [(arc, lab, best)])
    assert check_case(f, [scores.arc_logits, scores.dep_labels, scores.head_labels]) < 1e-6


# ------------------------------------------------------------- con inject

def test_con_inject_margin_satisfied():
    rng = np.random.default_rng(2)
    ref = random_bintree(4, 3, rng)
    scored = scored_from_array(np.zeros((10, 3)))
    scored.tensor.data.reshape(-1)[span_ids([4], tree_spans([ref]), 3)] = 10.0
    assert con_inject_loss(scored, [ref]).item() == 0.0


def test_con_inject_uniform_zero_matches_enumeration():
    # all-zero scores, n=3, |L|=1: loss = hamming(augmented argmax, T*)
    rng = np.random.default_rng(8)
    n = 3
    ref = random_bintree(n, 1, rng)
    scored = scored_from_array(np.zeros((n * (n + 1) // 2, 1)))
    loss = con_inject_loss(scored, [ref]).item()
    _, aug_best = enum_best(np.zeros((n, n + 1, 1)), n, ref=ref)
    assert loss == pytest.approx(aug_best, abs=1e-9)
    assert loss >= 1.0  # some span must disagree under the +1 bonus


def test_con_inject_nonnegative_and_matches_chart():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        n_l = int(rng.integers(1, 4))
        ref = random_bintree(n, n_l, rng)
        table = random_table(n, n_l, rng)
        scored = scored_from_array(table[span_order(n)])
        loss = con_inject_loss(scored, [ref]).item()
        assert loss >= 0.0
        _, aug = enum_best(table, n, ref=ref)
        expect = max(0.0, aug - sum(table[i, j, l] for (i, j), l in ref.spans.items()))
        assert loss == pytest.approx(expect, abs=1e-9)


def test_con_inject_length_mismatch():
    rng = np.random.default_rng(1)
    ref = random_bintree(3, 2, rng)
    scored = scored_from_array(np.zeros((10, 2)))
    with pytest.raises(DistillError):
        con_inject_loss(scored, [ref])
    with pytest.raises(DistillError):
        con_inject_loss(scored, [])


def test_con_inject_and_soft_targets_reject_bad_scores():
    # the batched chart keeps the per-sentence checks: a non-finite score in
    # any sentence's spans, and a reference label outside the score table
    rng = np.random.default_rng(3)
    sizes, n_labels = [2, 4, 1], 2
    refs = [random_bintree(n, n_labels, rng) for n in sizes]
    rows = rng.normal(size=(3 + 10 + 1, n_labels))
    rows[3 + 7, 1] = np.inf  # sentence 1, span (2, 3)
    scored = ScoredSpans(Tensor(rows, requires_grad=True), offsets(sizes))
    with pytest.raises(DataError, match=r"span \(2, 3\) of sentence 1"):
        con_inject_loss(scored, refs)
    span_scorer = SpanScorer(Params(rng, np.float64), "span", 2, n_labels)
    mat = rng.normal(size=(sum(sizes), 2))
    mat[4] = np.nan  # token 2 of sentence 1: every span reaching past it
    with pytest.raises(DataError, match="of sentence 1"):
        soft_con_targets(span_scorer, (Tensor(mat), offsets(sizes)))
    rows[3 + 7, 1] = 0.0
    refs[2].spans[(0, 1)] = n_labels
    with pytest.raises(DataError, match="outside score table"):
        con_inject_loss(scored, refs)


def test_con_inject_gradient():
    rng = np.random.default_rng(23)
    n, n_l = 4, 2
    ref = random_bintree(n, n_l, rng)
    rows = rng.normal(size=(n * (n + 1) // 2, n_l))
    scored = scored_from_array(rows)
    if con_inject_loss(scored, [ref]).item() <= 0:  # need an active hinge
        pytest.skip("hinge inactive for this draw")
    f = lambda: con_inject_loss(scored, [ref])
    assert check_case(f, [scored.tensor]) < 1e-6


# ------------------------------------------------- batched structure heads

def test_batched_structure_heads_match_batch_of_one():
    rng = np.random.default_rng(41)
    sizes, d, n_labels = [3, 5, 2], 4, 3
    p = Params(rng, np.float64)
    arc_scorer = ArcLabelScorer(p, "arc", d, n_labels, 4)
    span_scorer = SpanScorer(p, "span", d, n_labels)
    for t in p.all():  # nonzero root row and biases too
        t.data[...] = rng.normal(size=t.shape)
    mat, off = Tensor(rng.normal(size=(sum(sizes), d))), offsets(sizes)
    singles = [(Tensor(mat.data[lo:hi]), offsets([hi - lo]))
               for lo, hi in zip(off[:-1], off[1:])]
    arcs, spans = arc_scorer(mat, off), span_scorer(mat, off)
    span_lo = offsets([n * (n + 1) // 2 for n in sizes])
    soft_arcs = soft_arc_targets(arc_scorer, (mat, off))
    soft_trees = soft_con_targets(span_scorer, (mat, off))
    refs = [random_bintree(n, n_labels, rng) for n in sizes]
    arc_probs = T.softmax(arcs.arc_logits, axis=1).data
    close = dict(rtol=0, atol=1e-12)
    dep_sum = con_sum = 0.0
    for b, (lo, n) in enumerate(zip(off, sizes)):
        one_arcs, one_spans = arc_scorer(*singles[b]), span_scorer(*singles[b])
        np.testing.assert_allclose(arcs.arc_logits.data[lo:lo + n, :n + 1],
                                   one_arcs.arc_logits.data, **close)
        np.testing.assert_allclose(arcs.dep_labels.data[lo:lo + n],
                                   one_arcs.dep_labels.data, **close)
        np.testing.assert_allclose(arcs.head_labels.data[np.r_[0, lo + 1:lo + n + 1]],
                                   one_arcs.head_labels.data, **close)
        assert (arc_probs[lo:lo + n, n + 1:] == 0.0).all()  # padded candidates
        np.testing.assert_allclose(spans.tensor.data[span_lo[b]:span_lo[b + 1]],
                                   one_spans.tensor.data, **close)
        (arc, lab, best), = soft_arc_targets(arc_scorer, singles[b])
        np.testing.assert_allclose(soft_arcs[b][0], arc, **close)
        np.testing.assert_allclose(soft_arcs[b][1], lab, **close)
        np.testing.assert_array_equal(soft_arcs[b][2], best)
        assert soft_trees[b] == soft_con_targets(span_scorer, singles[b])[0]
        table = np.zeros((n, n + 1, n_labels))
        table[span_order(n)] = one_spans.tensor.data
        assert soft_trees[b] == cyk_max(SpanScores(n, table))[0]
        dep_sum += dep_inject_loss(one_arcs, [soft_arcs[b]]).item()
        con_sum += con_inject_loss(one_spans, [refs[b]]).item()
    assert dep_inject_loss(arcs, soft_arcs).item() == pytest.approx(dep_sum, rel=1e-12)
    assert con_sum > 0.0
    assert con_inject_loss(spans, refs).item() == pytest.approx(con_sum, rel=1e-12)


def _rel_close(got, want):
    """Equal within 1e-12 relative to the largest entry of `want`."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_structure_heads_match_candidate_references_f64():
    # the heads score from per-token projections, which regroups the sums of
    # the per-candidate references, so they agree in float64 within rounding
    rng = np.random.default_rng(47)
    d, n_labels = 5, 4
    for sizes in ([3, 5, 2], [1, 4], [6], [2, 1, 7, 3]):
        p = Params(rng, np.float64)
        arc_scorer = ArcLabelScorer(p, "arc", d, n_labels, 3)
        span_scorer = SpanScorer(p, "span", d, n_labels)
        for t in p.all():  # nonzero root row and biases too
            t.data[...] = rng.normal(size=t.shape)
        mat, off = Tensor(rng.normal(size=(sum(sizes), d)), requires_grad=True), offsets(sizes)
        lens = np.repeat(sizes, sizes)
        arcs, spans = arc_scorer(mat, off), span_scorer(mat, off)
        ref_arc, ref_lab = reference_arc_scores(arc_scorer, mat, off)
        real = np.arange(ref_arc.shape[1]) <= lens[:, None]
        _rel_close(arcs.arc_logits.data[real], ref_arc.data[real])
        np.testing.assert_allclose(arcs.arc_logits.data[~real], ref_arc.data[~real],
                                   rtol=1e-12, atol=0)  # padded columns
        rows = np.arange(lens.size)
        for cols in (rng.integers(0, lens + 1), np.zeros_like(lens), lens):
            _rel_close(arcs.label_logits(cols).data, ref_lab.data[rows, cols])
        ref_span = reference_span_scores(span_scorer, mat, off)
        _rel_close(spans.tensor.data, ref_span.data)

        targets = []
        for n in sizes:
            arc = rng.dirichlet(np.ones(n + 1), size=n)
            targets.append((arc, rng.dirichlet(np.ones(n_labels), size=n), arc.argmax(axis=1)))
        refs = [random_bintree(n, n_labels, rng) for n in sizes]
        losses = [
            (lambda: dep_inject_loss(arc_scorer(mat, off), targets),
             lambda: reference_dep_inject_loss(*reference_arc_scores(arc_scorer, mat, off),
                                               off, targets)),
            (lambda: con_inject_loss(span_scorer(mat, off), refs),
             lambda: con_inject_loss(
                 ScoredSpans(reference_span_scores(span_scorer, mat, off), off), refs))]
        for new, ref in losses:
            assert new().item() == pytest.approx(ref().item(), rel=1e-12, abs=0)
            assert ref().item() > 0.0  # an active con hinge, so gradients flow
            for got, want in zip(analytic_grad(new, p.all() + [mat]),
                                 analytic_grad(ref, p.all() + [mat])):
                _rel_close(got, want)


# ----------------------------------------------------------- reg and total

def test_reg_loss_hand_value():
    theta = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    assert reg_loss([theta], 0.2).item() == pytest.approx(2.5, abs=1e-12)
    assert reg_loss([], 0.2).item() == 0.0
    zero = Tensor(np.zeros(5), requires_grad=True)
    assert reg_loss([zero], 0.7).item() == 0.0


def test_reg_loss_quadratic_homogeneity():
    rng = np.random.default_rng(6)
    ps = [Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=4))]
    doubled = [Tensor(2 * p.data) for p in ps]
    assert reg_loss(doubled, 0.3).item() == pytest.approx(
        4 * reg_loss(ps, 0.3).item(), rel=1e-12)


def test_reg_loss_gradient_is_zeta_theta():
    theta = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    with T.Tape() as tape:
        loss = reg_loss([theta], 0.4)
        tape.backward(loss)
    np.testing.assert_allclose(theta.grad, 0.4 * theta.data, atol=1e-12)


@pytest.mark.parametrize("dtypes", [(np.float32,) * 4, (np.float32, np.float64) * 2])
def test_reg_loss_bitwise_matches_taped_fold(dtypes):
    # two parameters also feed a second term, one recorded before the L2 term
    # and one after it, so their adjoints add up in both orders; one tensor
    # is a constant that gets no gradient
    rng = np.random.default_rng(23)
    shapes = [(4, 3), (5,), (), (2, 2, 3)]
    init = [rng.standard_normal(s).astype(d) for s, d in zip(shapes, dtypes)]
    other, const = (Tensor(rng.standard_normal(s).astype(dtypes[0])) for s in ((4, 3), 3))

    def run(reg):
        ps = [Tensor(a.copy(), requires_grad=True) for a in init]
        with T.Tape() as tape:
            before = T.sum_(T.mul(ps[0], other))
            loss = T.add(before, reg(ps[:2] + [const] + ps[2:], 0.3))
            loss = T.add(loss, T.sum_(T.tanh(ps[3])))
            tape.backward(loss)
        return loss.data.tobytes(), [(p.grad.dtype, p.grad.tobytes()) for p in ps]

    assert run(reg_loss) == run(reference_reg_loss)


def test_total_loss_arithmetic():
    mk = lambda v: Tensor(np.array(v))
    got = total_loss(mk(1.0), syn=mk(2.0), sem=mk(3.0), lam1=0.6, lam2=0.2)
    assert got.item() == pytest.approx(2.8, abs=1e-9)
    assert total_loss(mk(1.5)).item() == 1.5
    with_reg = total_loss(mk(1.0), syn=mk(2.0), sem=mk(3.0), reg=mk(0.25),
                          lam1=0.6, lam2=0.2)
    assert with_reg.item() == pytest.approx(3.05, abs=1e-9)


def test_total_loss_rejects_nan():
    mk = lambda v: Tensor(np.array(v))
    with pytest.raises(FloatingPointError):
        total_loss(mk(float("nan")))
    with pytest.raises(FloatingPointError):
        total_loss(mk(1.0), sem=mk(float("inf")), lam1=0.0, lam2=0.1)


def test_total_loss_gradient_composition():
    out = Tensor(np.array(0.0), requires_grad=True)
    syn = Tensor(np.array(0.0), requires_grad=True)
    sem = Tensor(np.array(0.0), requires_grad=True)
    with T.Tape() as tape:
        loss = total_loss(T.mul(out, out), syn=T.scale(syn, 1.0),
                          sem=T.scale(sem, 1.0), lam1=0.6, lam2=0.2)
        tape.backward(loss)
    assert syn.grad.item() == pytest.approx(0.6)
    assert sem.grad.item() == pytest.approx(0.2)


# ------------------------------------------------------------- misc pieces

def test_ce_sum():
    logits = Tensor(np.log(np.array([[0.25, 0.75], [0.5, 0.5]])))
    got = ce_sum(logits, [1, 0]).item()
    assert got == pytest.approx(-math.log(0.75) - math.log(0.5), abs=1e-12)
    with pytest.raises(DistillError):
        ce_sum(logits, [1, 0, 1])


def test_one_hot():
    out = one_hot([2, 0], 3)
    assert out.tolist() == [[0, 0, 1], [1, 0, 0]]
    assert out.dtype == np.float64


def test_hard_arc_targets_rows_equal_one_hot_bytes():
    # the rows gathered from the cached identity tables are one_hot's bytes,
    # and each call gets arrays of its own that it may write to
    rng = np.random.default_rng(71)
    for n in (1, 2, 7, 30):
        heads = rng.integers(0, n + 1, size=n)
        labels = rng.integers(0, 5, size=n)
        arc, lab, best = hard_arc_targets(heads.tolist(), labels, n_labels=5)
        for got, want in ((arc, one_hot(heads, n + 1)), (lab, one_hot(labels, 5))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(best, heads)
        arc[:] = 7.0
        lab[:] = 7.0
        again = hard_arc_targets(heads, labels, n_labels=5)
        assert again[0].tobytes() == one_hot(heads, n + 1).tobytes()
        assert again[1].tobytes() == one_hot(labels, 5).tobytes()


def test_teacher_set_structure_check():
    dep = SimpleNamespace(structure="dep", kind="tlstm-dep")
    con = SimpleNamespace(structure="con", kind="gcn-con")
    ts = TeacherSet(dep=[dep], con=[con])
    assert len(ts) == 2 and ts.all == [dep, con]
    with pytest.raises(DistillError):
        TeacherSet(dep=[con])
