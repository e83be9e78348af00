"""Syntactic probing on frozen representations and the dependency-vs-
constituency dominance analysis over eta-ablated students.

Probes are linear softmax classifiers over detached top-layer token
representations, trained by Adam on a closed-form gradient with no tape; the
backbone is never part of a computation graph, so its parameters cannot move.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

from . import tensor as T
from .distill import ce_sum  # noqa: F401  (perfbench's tracer test reads probe.ce_sum)
from .syntax_data import DataError, fresh
from .tensor import Adam

PROBE_KINDS = ("constituent-labeling", "dependency-labeling")


def _main_rows(model, data):
    """Detached top-layer rows of every example's main side stacked in one
    matrix, and each example's first row in it, from one pass per
    `model.batches` chunk; the frozen backbone stays off any tape."""
    mats, first, base = [], np.zeros(len(data), dtype=np.int64), 0
    for chunk in model.batches(data):
        mat, off = model.reps([data[i].main for i in chunk])
        mats.append(mat.data)
        first[list(chunk)] = base + off[:-1]
        base += int(off[-1])
    return np.concatenate(mats), first


def constituent_instances(model, data):
    """One instance per labeled span of the original tree: feature
    [r_end - r_start; r_start; r_end], target the span's label id."""
    if any(enc.raw.con is None for enc in data):
        raise DataError("constituent probing needs constituency annotation")
    rows, first = _main_rows(model, data)
    starts, ends, labels = [], [], []
    for enc, o in zip(data, first.tolist()):
        for i, j, label in enc.raw.con.spans():
            starts.append(o + i)
            ends.append(o + j - 1)
            labels.append(label)
    a, b = rows[starts], rows[ends]
    return np.concatenate([b - a, a, b], axis=1), model.codec.con_labels.encode(labels)


def dependency_instances(model, data):
    """One instance per non-root arc: feature [r_head; r_dep], target the
    arc's relation label id."""
    if any(enc.main.heads is None for enc in data):
        raise DataError("dependency probing needs dependency annotation")
    rows, first = _main_rows(model, data)
    heads, deps, labels = [], [], []
    for enc, o in zip(data, first.tolist()):
        for i, h in enumerate(enc.main.heads):
            if h == 0:
                continue
            heads.append(o + h - 1)
            deps.append(o + i)
            labels.append(int(enc.main.dep_label_ids[i]))
    return (np.concatenate([rows[heads], rows[deps]], axis=1),
            np.array(labels, dtype=np.int64))


def _instances(model, data, kind, split):
    """The probe instances of one split; a split without any is a DataError."""
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe task {kind!r}; expected one of {PROBE_KINDS}")
    build = constituent_instances if kind == PROBE_KINDS[0] else dependency_instances
    x, y = build(model, data) if data else (None, ())
    if len(y) == 0:
        raise DataError(f"{kind} probe has no instances in the {split} split")
    return x, y


def majority_accuracy(labels) -> float:
    labels = np.asarray(labels)
    return 100.0 * float(np.bincount(labels).max()) / len(labels)


def ce_mean_grads(x, targets, w, b, out=(None, None)):
    """Gradients of the mean over rows of -log softmax(x @ w + b)[row, target]
    with respect to w and b, i.e. x.T @ (softmax - onehot) / n and its column
    sums, written into out = (gw, gb) when given. They equal bitwise the tape's
    backward through `add(matmul(x, w), b)`, `ce_sum` and a 1/n scale, which is
    g - exp(y) * rowsum(g) for g = c = -1/n at the targets: rowsum(g) is c."""
    logits = x @ w + b
    z = logits - logits.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    c = (np.ones((), dtype=y.dtype) * float(1.0 / len(x))) * -1.0
    g = np.exp(y)
    g *= -c
    g[np.arange(len(x)), targets] += c
    return np.matmul(x.T, g, out=out[0]), np.sum(g, axis=0, out=out[1])


def probe_train_eval(model, kind, train_data, eval_data, *, iters=400,
                     batch=64, lr=1e-2, seed=0) -> tuple[float, np.ndarray]:
    """Train a linear probe on frozen representations; returns held-out
    accuracy in percent and the held-out instances' labels."""
    x_tr, y_tr = _instances(model, train_data, kind, "train")
    x_ev, y_ev = _instances(model, eval_data, kind, "held-out")
    n_classes = int(max(y_tr.max(), y_ev.max())) + 1
    rng = np.random.default_rng(seed)
    dtype = x_tr.dtype
    w = T.xavier((x_tr.shape[1], n_classes), rng, dtype=dtype)
    b = T.zeros((n_classes,), dtype=dtype, requires_grad=True)
    opt = Adam([w, b], lr=lr)
    take = min(batch, len(x_tr))
    w.grad, b.grad = np.empty_like(w.data), np.empty_like(b.data)
    for _ in range(iters):
        idx = rng.choice(len(x_tr), size=take, replace=False)
        ce_mean_grads(x_tr[idx], y_tr[idx], w.data, b.data, out=(w.grad, b.grad))
        opt.step()
    pred = (x_ev @ w.data + b.data).argmax(axis=1)
    return 100.0 * float((pred == y_ev).mean()), y_ev


# ---------------------------------------------------------------------------
# eta-ablation dominance analysis

def example_scores(model, data) -> np.ndarray:
    """Per-example correctness in [0, 1]: 0/1 for classification, the token
    accuracy for tagging (per-example F1 is ill-defined)."""
    from .train import predict

    preds = predict(model, data)
    scores = np.zeros(len(data))
    for i, enc in enumerate(data):
        if model.task == "tag":
            scores[i] = float(np.mean(np.asarray(preds[i]) == np.asarray(enc.tag_ids)))
        else:
            scores[i] = float(preds[i] == enc.raw.label)
    return scores


def dominance_scores(full_scores, dep_only_scores, con_only_scores) -> np.ndarray:
    """Per-example dependency dominance in [0, 1].

    The drop under removing dependency injection (the eta=0, constituency-only
    student) is compared with the drop under removing constituency (eta=1).
    Equal drops give 0.5; a pure dependency-side drop gives 1.0.
    """
    full = np.asarray(full_scores, dtype=np.float64)
    drop_dep = np.maximum(0.0, full - np.asarray(con_only_scores, dtype=np.float64))
    drop_con = np.maximum(0.0, full - np.asarray(dep_only_scores, dtype=np.float64))
    total = drop_dep + drop_con
    out = np.full(len(full), 0.5)
    nz = total > 0
    out[nz] = drop_dep[nz] / total[nz]
    return out


def syntax_distribution(full_model, dep_only_model, con_only_model, data):
    """Dominance scores plus a histogram summary for the plot pipeline."""
    scores = dominance_scores(
        example_scores(full_model, data),
        example_scores(dep_only_model, data),
        example_scores(con_only_model, data),
    )
    counts, edges = np.histogram(scores, bins=10, range=(0.0, 1.0))
    summary = {
        "n": int(len(scores)),
        "mean_dominance": float(scores.mean()),
        "dep_leaning_share": float((scores > 0.5).mean()),
        "bins": [{"lo": float(edges[k]), "hi": float(edges[k + 1]),
                  "count": int(counts[k])} for k in range(len(counts))],
    }
    return scores, summary


def write_distribution(out_dir, scores, summary):
    """CSV histogram plus a JSON summary, consumed by external plotting."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "dominance_hist.csv")
    with open(fresh(csv_path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for row in summary["bins"]:
            writer.writerow([row["lo"], row["hi"], row["count"]])
    json_path = os.path.join(out_dir, "dominance_summary.json")
    with open(fresh(json_path), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return csv_path, json_path
