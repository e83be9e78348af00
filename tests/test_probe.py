import csv
import json

import gradcheck
import numpy as np
import oracles
import pytest

from synkd import encoders, probe
from synkd import tensor as T
from synkd.distill import ce_sum
from synkd.encoders import Codec, StudentModel
from synkd.probe import (
    PROBE_KINDS,
    ce_mean_grads,
    constituent_instances,
    dependency_instances,
    dominance_scores,
    example_scores,
    majority_accuracy,
    probe_train_eval,
    syntax_distribution,
    write_distribution,
)
from synkd.syntax_data import DataError, Example, example_from_dict, gen_synthetic
from synkd.tensor import Adam, Tensor
from synkd.train import params_fingerprint


def small_data(n=32, seed=0, task="cls", max_len=8):
    examples = gen_synthetic(n, max_len=max_len, seed=seed, task=task, grammar_size=4)
    codec = Codec(examples, task)
    return codec, [codec.encode(ex) for ex in examples]


def small_student(codec, seed=1, dtype=np.float32):
    return StudentModel(codec, emb_dim=10, hidden=8, n_layers=2,
                        rng=np.random.default_rng(seed), dtype=dtype)


# ------------------------------------------------------------------- probing

def test_instance_shapes():
    codec, encs = small_data(8)
    student = small_student(codec)
    x_con, y_con = constituent_instances(student, encs)
    x_dep, y_dep = dependency_instances(student, encs)
    width = student.rep_dim
    assert x_con.shape == (len(y_con), 3 * width)
    assert x_dep.shape == (len(y_dep), 2 * width)
    # every labeled span of every original tree contributes one instance
    assert len(y_con) == sum(len(e.raw.con.spans()) for e in encs)
    # root-attached tokens have no head token and are skipped
    assert len(y_dep) == sum(sum(1 for h in e.main.heads if h != 0) for e in encs)


def test_probe_runs_and_tracks_majority():
    codec, encs = small_data(40, seed=3)
    student = small_student(codec)
    train, held = encs[:30], encs[30:]
    for kind in PROBE_KINDS:
        acc, y_held = probe_train_eval(student, kind, train, held, iters=200, seed=0)
        assert 0.0 <= acc <= 100.0
        build = constituent_instances if kind == PROBE_KINDS[0] else dependency_instances
        np.testing.assert_array_equal(y_held, build(student, held)[1])
        assert acc >= majority_accuracy(y_held) - 15.0


def test_probe_never_mutates_backbone():
    codec, encs = small_data(16, seed=4)
    student = small_student(codec)
    before = params_fingerprint(student.p)
    probe_train_eval(student, "dependency-labeling", encs[:12], encs[12:], iters=50)
    probe_train_eval(student, "constituent-labeling", encs[:12], encs[12:], iters=50)
    assert params_fingerprint(student.p) == before


def test_probe_rejects_unknown_kind():
    codec, encs = small_data(8)
    with pytest.raises(ValueError, match="probe task"):
        probe_train_eval(small_student(codec), "pos-tagging", encs[:4], encs[4:])


def test_probe_rejects_missing_annotation():
    codec, encs = small_data(8, seed=5)
    bare = [codec.encode(Example(e.raw.sent, None, None, label=e.raw.label))
            for e in encs]
    student = small_student(codec)
    with pytest.raises(DataError, match="constituency"):
        probe_train_eval(student, "constituent-labeling", bare[:4], bare[4:])
    with pytest.raises(DataError, match="dependency"):
        probe_train_eval(student, "dependency-labeling", bare[:4], bare[4:])


def test_probe_without_instances_names_task_and_split():
    codec, encs = small_data(8, seed=5)
    one_token = codec.encode(example_from_dict(
        {"tokens": ["runs"], "dep_heads": [0], "dep_labels": ["root"],
         "con_tree": "(S (V runs))", "label": 0}))
    student = small_student(codec)
    kind = "dependency-labeling"
    with pytest.raises(DataError, match=f"{kind} probe has no instances in the train split"):
        probe_train_eval(student, kind, [one_token] * 3, encs)
    with pytest.raises(DataError, match=f"{kind} probe has no instances in the held-out split"):
        probe_train_eval(student, kind, encs, [one_token])
    with pytest.raises(DataError, match="constituent-labeling probe has no instances"):
        probe_train_eval(student, "constituent-labeling", [], encs)


def _trained(monkeypatch, module, fn, *args, **kw):
    """fn's (accuracy, held-out labels) plus the bytes of the probe's final
    w and b, read off the Adam that `module` builds."""
    made = []

    def keep(params, lr):
        made.append(Adam(params, lr=lr))
        return made[-1]

    monkeypatch.setattr(module, "Adam", keep)
    acc, y_held = fn(*args, **kw)
    w, b = made[0].params
    return acc, y_held.tobytes(), w.data.tobytes(), b.data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_probe_bitwise_matches_tape_reference(monkeypatch, dtype):
    # a few sentences per `batches` pass, so the gathers cross pass borders
    monkeypatch.setattr(encoders, "BATCH_ROWS", 24)
    codec, encs = small_data(24, seed=9)
    student = small_student(codec, dtype=dtype)
    train, held = encs[:18], encs[18:]
    assert 1 < len(student.batches(train)) < len(train) // 2
    n_train = {}
    for kind, build, ref in (
            (PROBE_KINDS[0], constituent_instances, oracles.reference_constituent_instances),
            (PROBE_KINDS[1], dependency_instances, oracles.reference_dependency_instances)):
        x, y = build(student, train)
        x_ref, y_ref = ref(student, train)
        assert x.dtype == x_ref.dtype == dtype and x.shape == x_ref.shape
        assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
        n_train[kind] = len(y)
    for kind in PROBE_KINDS:
        for batch in (16, n_train[kind], n_train[kind] + 7):
            for seed in (0, 1, 2):
                kw = dict(iters=40, batch=batch, lr=5e-2, seed=seed)
                got = _trained(monkeypatch, probe, probe_train_eval,
                               student, kind, train, held, **kw)
                want = _trained(monkeypatch, oracles, oracles.reference_probe_train_eval,
                                student, kind, train, held, **kw)
                assert got == want, (kind, batch, seed)


def test_probe_gradient_matches_finite_differences_f64():
    rng = np.random.default_rng(11)
    for n, d, c in ((1, 3, 2), (5, 4, 3), (7, 6, 5)):
        x = rng.normal(size=(n, d))
        targets = rng.integers(c, size=n)
        w = Tensor(rng.normal(size=(d, c)), requires_grad=True)
        b = Tensor(rng.normal(size=(c,)), requires_grad=True)

        def loss():  # the loss the probe optimized on the tape
            return T.scale(ce_sum(T.add(T.matmul(Tensor(x), w), b), targets), 1.0 / n)

        num_w, num_b = gradcheck.numeric_grad(loss, [w, b])
        got_w, got_b = ce_mean_grads(x, targets, w.data, b.data)
        assert got_w.dtype == got_b.dtype == np.float64
        assert gradcheck.rel_err(got_w, num_w) < gradcheck.RTOL
        assert gradcheck.rel_err(got_b, num_b) < gradcheck.RTOL


# ----------------------------------------------------------------- dominance

def test_dominance_hand_cases():
    full = [1, 1, 1, 0]
    dep_only = [1, 1, 0, 0]   # trained with dependency injection only
    con_only = [0, 1, 1, 0]   # trained with constituency injection only
    dom = dominance_scores(full, dep_only, con_only)
    # ex0 flips only when dependency is removed -> pure dependency leaning
    # ex2 flips only when constituency is removed -> pure constituency leaning
    assert dom.tolist() == [1.0, 0.5, 0.0, 0.5]


def test_dominance_equal_drops_and_clipping():
    # both ablations hurt equally -> exactly balanced
    assert dominance_scores([1.0], [0.0], [0.0])[0] == 0.5
    # an ablated model beating the full model is clipped, not negative credit
    assert dominance_scores([0.4], [1.0], [0.4])[0] == 0.5


def test_dominance_range_and_monotonicity():
    rng = np.random.default_rng(0)
    full = rng.random(50)
    dep_only = rng.random(50)
    con_only = rng.random(50)
    dom = dominance_scores(full, dep_only, con_only)
    assert np.all((dom >= 0.0) & (dom <= 1.0))
    # lowering the constituency-only score (bigger dependency-side drop) can
    # only push dominance toward the dependency end
    dom_hi = dominance_scores(full, dep_only, np.maximum(con_only - 0.3, 0.0))
    assert np.all(dom_hi >= dom - 1e-12)


def test_example_scores_binary_for_classification():
    codec, encs = small_data(12, seed=6)
    student = small_student(codec)
    scores = example_scores(student, encs)
    assert scores.shape == (12,)
    assert set(np.unique(scores)) <= {0.0, 1.0}


def test_example_scores_fractional_for_tagging():
    codec, encs = small_data(12, seed=7, task="tag")
    student = small_student(codec)
    scores = example_scores(student, encs)
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_syntax_distribution_histogram_sums(tmp_path):
    codec, encs = small_data(24, seed=8)
    full = small_student(codec, seed=1)
    dep_only = small_student(codec, seed=2)
    con_only = small_student(codec, seed=3)
    scores, summary = syntax_distribution(full, dep_only, con_only, encs)
    assert len(scores) == 24
    assert sum(row["count"] for row in summary["bins"]) == 24
    assert len(summary["bins"]) == 10
    csv_path, json_path = write_distribution(tmp_path, scores, summary)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 11
    assert sum(int(r[2]) for r in rows[1:]) == 24
    with open(json_path) as fh:
        loaded = json.load(fh)
    assert loaded["n"] == 24
    assert 0.0 <= loaded["mean_dominance"] <= 1.0
