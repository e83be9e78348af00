"""Training orchestration: teacher pre-training, the turn-taking distillation
schedule, evaluation, checkpoints and run logs.

Teachers are trained first and frozen; their class distributions, feature
matrices and structure targets are precomputed once per training set, so the
distillation loop itself never runs a teacher forward pass. All stochasticity
(batch draws, mask sampling, dropout) flows from the single run generator,
which makes saved runs resume bitwise-identically.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import tensor as T
from .distill import (
    DistillConfig,
    DistillError,
    TeacherSet,
    anneal_alpha,
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
from .encoders import offsets, side_views
from .syntax_data import MASK, DataError, fresh
from .tensor import Adam, Tensor


# ---------------------------------------------------------------------------
# schedule

@dataclass
class Schedule:
    """Turn-taking control: early phase up to g1 with the syntax flag flipping
    every g2 iterations, then the joint phase to `total`."""
    total: int = 10_000
    g1: int = 300
    g2: int = 128
    dep_first: bool = True

    def __post_init__(self):
        if not 0 < self.g2 <= self.g1 <= self.total:
            raise ValueError(
                f"need 0 < G2 <= G1 <= T, got T={self.total} G1={self.g1} G2={self.g2}")

    def dep_turn(self, t: int) -> bool:
        """Flag used at iteration t; it toggles after every iteration where
        t mod g2 == 0, so each value is held for g2 consecutive iterations."""
        if t < 1:
            raise ValueError(f"iterations start at 1, got {t}")
        return self.dep_first ^ ((((t - 1) // self.g2) % 2) == 1)


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"SYD1"
VERSION = 1


def save_checkpoint(path, state: dict):
    """Binary named-array store: magic, version byte, then per array the
    name length, UTF-8 name, rank, dims and a little-endian f32 payload."""
    with open(fresh(path), "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        for name, arr in state.items():
            nb = name.encode("utf-8")
            if len(nb) > 0xFFFF:
                raise ValueError(f"parameter name too long: {name[:40]}...")
            a = np.asarray(arr)
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(bytes([a.ndim]))
            for d in a.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_checkpoint(path) -> dict:
    """Name -> array of a SYD1 file, each a read-only view of the file's bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a SYD1 checkpoint")
    if len(blob) == 4:
        raise ValueError(f"{path}: truncated checkpoint")
    if blob[4] != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {blob[4]}")
    pos, out = 5, {}

    def need(k):
        if pos + k > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")

    while pos < len(blob):
        need(2)
        (ln,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        need(ln + 1)
        name = blob[pos:pos + ln].decode("utf-8")
        pos += ln
        rank = blob[pos]
        pos += 1
        need(4 * rank)
        dims = struct.unpack_from(f"<{rank}I", blob, pos) if rank else ()
        pos += 4 * rank
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        need(4 * count)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos)
        out[name] = arr.reshape(dims)
        pos += 4 * count
    return out


def params_fingerprint(p) -> str:
    """SHA-256 over names and raw parameter bytes, for bitwise comparisons."""
    h = hashlib.sha256()
    for name in p.names():
        h.update(name.encode("utf-8"))
        h.update(p[name].data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run logs

class RunLog:
    """Append-only JSONL metric log: {iteration, split, metric, value}."""

    def __init__(self, path):
        self.fh = open(path, "a", encoding="utf-8")

    def log(self, iteration, split, metric, value):
        row = {"iteration": int(iteration), "split": split,
               "metric": metric, "value": float(value)}
        self.fh.write(json.dumps(row) + "\n")

    def flush(self):
        self.fh.flush()

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_log(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _emit(log, iteration, split, metric, value, flush=False):
    if log is not None:
        log.log(iteration, split, metric, value)
        if flush:
            log.flush()


# ---------------------------------------------------------------------------
# batching

class BatchSampler:
    """Length-bucketed batch draws.

    Batches are sampled per iteration (bucket chosen proportionally to size,
    members without replacement) instead of by epoch shuffling, so the sampler
    itself is stateless and resuming only needs the run generator.
    """

    def __init__(self, data):
        if not data:
            raise ValueError("empty training set")
        buckets = {}
        for i, enc in enumerate(data):
            key = (enc.main.n, enc.partner.n if enc.partner is not None else -1)
            buckets.setdefault(key, []).append(i)
        self.buckets = [np.array(v, dtype=np.int64)
                        for _, v in sorted(buckets.items())]
        sizes = np.array([len(b) for b in self.buckets], dtype=np.float64)
        self.probs = sizes / sizes.sum()

    def draw(self, rng, batch_size):
        k = int(rng.choice(len(self.buckets), p=self.probs))
        bucket = self.buckets[k]
        take = min(batch_size, len(bucket))
        picks = rng.choice(len(bucket), size=take, replace=False)
        return [int(bucket[i]) for i in picks]


# ---------------------------------------------------------------------------
# batch plumbing

def gold_rows(model, encs) -> np.ndarray:
    """One-hot targets aligned with the batched logits (stacked by sentence
    for tags)."""
    n_classes = model.codec.n_classes
    if model.task == "tag":
        return one_hot(np.concatenate([enc.tag_ids for enc in encs]), n_classes)
    return one_hot([enc.raw.label for enc in encs], n_classes)


def hard_targets(structure, encs, n_dep_labels):
    """Mode-B targets of the main sides straight from their parses: arc/label
    one-hots (dep) or binarized trees (con), one per example."""
    if structure == "dep":
        return [hard_arc_targets(enc.main.heads, enc.main.dep_label_ids, n_dep_labels)
                for enc in encs]
    return side_views([enc.main for enc in encs], "bintree")


def _blocks(arr, off):
    """Per-example row blocks [off[b], off[b + 1]) of a stacked array."""
    return [arr[off[b]:off[b + 1]].copy() for b in range(len(off) - 1)]


# ---------------------------------------------------------------------------
# frozen-teacher signals

class TeacherSignals:
    """Everything the distillation loop needs from the frozen teachers, one
    pass per `batches` chunk per dataset, indexed by example position."""

    def __init__(self, teachers: TeacherSet, data, cfg: DistillConfig, n_dep_labels):
        soft = cfg.mode == "B" and cfg.teacher_mode == "soft"
        for m in teachers.all:
            if soft and m.structure not in m.struct_heads:
                raise DistillError(f"teacher {m.kind} has no structure head for soft targets")
        # features and structure targets feed only the syntax loss, off at lam1 = 0
        syn = cfg.lam1 > 0
        self.task_dists = {m.kind: [] for m in teachers.all}
        self.feats = {m.kind: [] for m in teachers.all} if syn and cfg.mode == "A" else None
        # mode-B structure targets per teacher kind: arc/label targets of the
        # dependency teachers, reference trees T* of the constituency ones
        self.targets = {m.kind: [] for m in teachers.all}
        for m in teachers.all:
            for chunk in m.batches(data):
                encs = [data[i] for i in chunk]
                mat, off = main = m.reps([enc.main for enc in encs])
                dists = T.softmax(m.head_logits(encs, main), axis=-1).data
                self.task_dists[m.kind] += _blocks(dists, off) if m.task == "tag" \
                    else list(dists)
                if self.feats is not None:
                    self.feats[m.kind] += _blocks(mat.data, off)
                if soft and syn:
                    soft_targets = soft_arc_targets if m.structure == "dep" \
                        else soft_con_targets
                    self.targets[m.kind] += soft_targets(m.struct_heads[m.structure], main)
        if syn and cfg.mode == "B" and cfg.teacher_mode == "hard":
            hard = {s: hard_targets(s, data, n_dep_labels)
                    for s in {m.structure for m in teachers.all}}
            self.targets = {m.kind: hard[m.structure] for m in teachers.all}

    def dist_rows(self, kind, idxs, task):
        """Teacher distribution rows aligned with the batched student logits."""
        per_ex = [self.task_dists[kind][i] for i in idxs]
        return np.concatenate(per_ex) if task == "tag" else np.stack(per_ex)


# ---------------------------------------------------------------------------
# loss assembly over a batch

def output_loss_batch(model, encs, idxs, signals, kinds, alpha, rng=None):
    """Output loss of any model against gold mixed with the given teachers'
    distributions, plus the main side's (rows, offsets) for reuse."""
    main = model.reps([enc.main for enc in encs], train=True, rng=rng)
    logits = model.head_logits(encs, main, train=True, rng=rng)
    teacher_rows = [signals.dist_rows(k, idxs, model.task) for k in kinds] \
        if signals is not None else []
    return output_distill_loss(gold_rows(model, encs), teacher_rows, logits, alpha), main


def inject_loss_batch(model, structure, main, target_sets):
    """Mode-B loss of the model's head of one structure over a batch's (rows,
    offsets) against each set of per-sentence targets, summed over the sets
    and the batch."""
    scores = model.struct_heads[structure](*main)
    inject = dep_inject_loss if structure == "dep" else con_inject_loss
    return reduce(T.add, [inject(scores, targets) for targets in target_sets])


def syn_loss_batch(student, main, idxs, signals, cfg, models):
    """Mode-A feature regression or mode-B structure injection for one batch
    from the student's main-side (rows, offsets), averaged over the batch and
    the given teachers (all share one structure type)."""
    kinds = [m.kind for m in models]
    mat, _ = main
    if cfg.mode == "A":
        total = reduce(T.add, [feat_distill(
            student.project(f"f_t/{k}",
                            Tensor(np.concatenate([signals.feats[k][i] for i in idxs]))),
            student.project("f_s", mat)) for k in kinds])
    else:
        total = inject_loss_batch(student, models[0].structure, main,
                                  [[signals.targets[k][i] for i in idxs] for k in kinds])
    return T.scale(total, 1.0 / (len(idxs) * len(kinds)))


def sem_loss_batch(student, encs, cfg, rng):
    """Masked-word loss over a batch (per-example sums, averaged over the
    batch); masking and the extra forward run on the main side, and that
    forward runs only the first layer's forward direction, all the loss reads."""
    ids = [enc.main.token_ids for enc in encs]
    targets = []
    for b, enc in enumerate(encs):
        for j in sample_mask_positions(enc.main.n, cfg.mask_ratio, rng):
            targets.append((b, j, int(ids[b][j])))
    l1f = student.encoder.lm_states(mask_ids(ids, targets, MASK), train=True, rng=rng)
    loss = semantic_lm_loss(student, l1f, offsets([enc.main.n for enc in encs]), targets)
    return T.scale(loss, 1.0 / len(encs))


# ---------------------------------------------------------------------------
# prediction and metrics

def predict(model, data):
    """Task predictions; class ids for cls/pair, tag-id arrays for tag.

    The student path consumes token ids (plus the task's predicate input)
    only — no tree annotation is touched.
    """
    if not data:
        raise ValueError("empty evaluation set")
    preds = [None] * len(data)
    for chunk in model.batches(data):
        encs = [data[i] for i in chunk]
        lab = model.logits(encs).data.argmax(axis=-1)
        if model.task == "tag":
            lab = _blocks(lab, offsets([enc.main.n for enc in encs]))
        for i, pred in zip(chunk, lab):
            preds[i] = pred if model.task == "tag" else int(pred)
    return preds


def classification_metrics(golds, preds) -> dict:
    golds = np.asarray(golds)
    preds = np.asarray(preds)
    acc = 100.0 * float((golds == preds).mean())
    f1s = []
    for c in sorted(set(golds.tolist()) | set(preds.tolist())):
        tp = int(((preds == c) & (golds == c)).sum())
        fp = int(((preds == c) & (golds != c)).sum())
        fn = int(((preds != c) & (golds == c)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    return {"accuracy": acc, "macro_f1": 100.0 * float(np.mean(f1s))}


def tagging_metrics(gold_seqs, pred_seqs, o_id) -> dict:
    correct = total = tp = fp = fn = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        for g, p in zip(gold, pred):
            total += 1
            correct += int(g == p)
            if p == g and g != o_id:
                tp += 1
            else:
                if p != o_id:
                    fp += 1
                if g != o_id:
                    fn += 1
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return {"accuracy": 100.0 * correct / total, "token_f1": 100.0 * f1}


def evaluate(model, data) -> dict:
    """Deterministic dev/test metrics; accuracy+macro-F1 for classification,
    span-agnostic token F1 for tagging."""
    preds = predict(model, data)
    if model.task == "tag":
        o_id = model.codec.tags.stoi.get("O", -1)
        return tagging_metrics([enc.tag_ids for enc in data], preds, o_id)
    return classification_metrics([enc.raw.label for enc in data], preds)


def dev_metric_key(task):
    return "token_f1" if task == "tag" else "accuracy"


# ---------------------------------------------------------------------------
# run state

@dataclass
class RunState:
    seed: int
    t: int = 0
    rng: np.random.Generator = None
    adam: Adam = None
    history: list = field(default_factory=list)
    best_metric: float = -math.inf
    best_iter: int = -1
    best_params: dict | None = None
    bad_evals: int = 0
    trace: list = field(default_factory=list)
    stopped: bool = False

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)


def save_run_state(run_dir, model, state: RunState):
    os.makedirs(run_dir, exist_ok=True)
    save_checkpoint(os.path.join(run_dir, "params.syd1"), model.p.state_dict())
    if state.best_params is not None:
        save_checkpoint(os.path.join(run_dir, "best.syd1"), state.best_params)
    adam_state = state.adam.state if state.adam is not None else {}
    if adam_state:
        moments = {}
        for name, m, v in zip(model.p.names(), state.adam.views(adam_state["m"]),
                              state.adam.views(adam_state["v"])):
            moments[f"m/{name}"] = m
            moments[f"v/{name}"] = v
        save_checkpoint(os.path.join(run_dir, "adam.syd1"), moments)
    meta = {
        "seed": state.seed,
        "t": state.t,
        "rng_state": state.rng.bit_generator.state,
        "history": state.history,
        "best_metric": state.best_metric,
        "best_iter": state.best_iter,
        "bad_evals": state.bad_evals,
        "trace": state.trace,
        "stopped": state.stopped,
        "adam_t": adam_state.get("t", 0),
        "adam_skipped": adam_state.get("skipped", 0),
        "lr": state.adam.lr if state.adam is not None else None,
    }
    with open(fresh(os.path.join(run_dir, "state.json")), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def load_run_state(run_dir, model, lr=None) -> RunState:
    """Restore parameters, the optimizer's moments and counters (skipped steps
    included) and the generator. The model must already have the same
    parameter set registered, a mode-A student's projections included."""
    with open(os.path.join(run_dir, "state.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    model.p.load_state_dict(load_checkpoint(os.path.join(run_dir, "params.syd1")))
    adam = Adam(model.parameters(), lr=lr if lr is not None else meta["lr"])
    adam_path = os.path.join(run_dir, "adam.syd1")
    if os.path.exists(adam_path):
        moments = load_checkpoint(adam_path)
        adam.init_state(meta["adam_t"], meta["adam_skipped"])
        for key in ("m", "v"):
            for name, view in zip(model.p.names(), adam.views(adam.state[key])):
                arr = moments[f"{key}/{name}"]
                if arr.shape != view.shape:
                    raise ValueError(f"adam {key} shape {arr.shape} does not match "
                                     f"param {name!r} shape {view.shape}")
                view[...] = arr
    rng = np.random.default_rng(meta["seed"])
    rng.bit_generator.state = meta["rng_state"]
    best_path = os.path.join(run_dir, "best.syd1")
    best = load_checkpoint(best_path) if os.path.exists(best_path) else None
    return RunState(
        seed=meta["seed"], t=meta["t"], rng=rng, adam=adam,
        history=meta["history"], best_metric=meta["best_metric"],
        best_iter=meta["best_iter"], best_params=best,
        bad_evals=meta["bad_evals"],
        trace=[tuple(x) for x in meta["trace"]], stopped=meta["stopped"])


# ---------------------------------------------------------------------------
# optimization helpers

def _optimize(state: RunState, build_loss, what):
    """One update: forward, finiteness check, backward, Adam step, trace. A
    FloatingPointError leaves with the failed objective as its `objective`."""
    state.adam.zero_grad()
    with T.Tape() as tape:
        try:
            loss = build_loss()
            val = float(loss.data)
            if not np.isfinite(val):
                raise FloatingPointError(
                    f"iteration {state.t + 1}: non-finite {what} loss ({val})")
        except FloatingPointError as e:
            e.objective = what
            raise
        # a loss that degenerated to a constant (e.g. every hinge in the
        # batch at zero) has no gradient; the step is a no-op
        if tape.contains(loss):
            tape.backward(loss)
            state.adam.step()
    state.trace.append((state.t + 1, what))
    return val


def run_loop(model, state, data, step, total, dev_data, *, batch_size, eval_every,
             patience, log, stop_after=None) -> RunState:
    """The training loop of teachers and student alike: draw a batch, let
    `step(encs, idxs)` make its updates and return its loss parts, log them,
    eval on dev with early stopping, and finally restore the best parameters.
    `stop_after` suspends mid-run without that restore, for save/resume. Dev
    rows, and the `nonfinite/<objective>` row of a failed step, are flushed."""
    sampler = BatchSampler(data)
    if dev_data is not None and not dev_data:
        raise ValueError("empty dev set")
    key = dev_metric_key(model.task)
    while state.t < total:
        if stop_after is not None and state.t >= stop_after:
            return state
        idxs = sampler.draw(state.rng, batch_size)
        try:
            parts = step([data[i] for i in idxs], idxs)
        except FloatingPointError as e:
            _emit(log, state.t + 1, "train", f"nonfinite/{e.objective}", 1.0, flush=True)
            raise
        state.t += 1
        for name, value in parts.items():
            _emit(log, state.t, "train", name, value)
        if dev_data is None or state.t % eval_every != 0:
            continue
        metrics = evaluate(model, dev_data)
        for name, value in metrics.items():
            _emit(log, state.t, "dev", name, value, flush=True)
        state.history.append({"iteration": state.t, "metric": key, "value": metrics[key]})
        if metrics[key] > state.best_metric:
            state.best_metric = metrics[key]
            state.best_iter = state.t
            state.best_params = model.p.state_dict()
            state.bad_evals = 0
        else:
            state.bad_evals += 1
        if state.bad_evals >= patience:
            state.stopped = True
            break
    if state.best_params is not None:
        model.p.load_state_dict(state.best_params)
    return state


# ---------------------------------------------------------------------------
# teacher pre-training

def train_teacher(model, train_data, dev_data, *, iters=2000, batch_size=32,
                  lr=1e-3, eval_every=200, patience=10, seed=0, log=None,
                  co_train_struct=False) -> RunState:
    """Supervised pre-training of one tree teacher with early stopping.

    With co_train_struct the teacher's arc/label (dep) or span (con) head is
    fitted to the input parses alongside the task loss, enabling soft
    structure targets during distillation.
    """
    for enc in list(train_data) + list(dev_data or []):
        if model.structure == "dep" and enc.main.raw.dep is None:
            raise DataError("teacher needs dependency annotation")
        if model.structure == "con" and enc.main.raw.con is None:
            raise DataError("teacher needs constituency annotation")
    if co_train_struct and model.structure not in model.struct_heads:
        model.add_structure_head(model.structure)
    state = RunState(seed=seed, adam=Adam(model.parameters(), lr=lr))
    _emit(log, 0, "train", "n_params", model.p.n_scalars())
    n_dep = len(model.codec.dep_labels)

    def step(encs, idxs):
        def build_loss():
            loss, main = output_loss_batch(model, encs, idxs, None, [], 1.0, rng=state.rng)
            if not co_train_struct:
                return loss
            struct = inject_loss_batch(model, model.structure, main,
                                       [hard_targets(model.structure, encs, n_dep)])
            return T.scale(T.add(loss, T.scale(struct, 1.0 / len(encs))), 0.5)

        return {"loss": _optimize(state, build_loss, f"teacher/{model.kind}")}

    return run_loop(model, state, train_data, step, iters, dev_data,
                    batch_size=batch_size, eval_every=eval_every,
                    patience=patience, log=log)


# ---------------------------------------------------------------------------
# distillation

def prepare_student(student, teachers, cfg):
    """Register mode-A projection parameters (idempotent); must run before the
    optimizer or any checkpoint of the student is created."""
    if teachers is not None and cfg.mode == "A" and cfg.lam1 > 0:
        for m in teachers.all:
            student.add_projection(m.kind, m.rep_dim)


def distill_student(student, teachers, train_data, dev_data,
                    cfg: DistillConfig = None, sched: Schedule = None, *,
                    batch_size=32, lr=1e-5, eval_every=200, patience=10,
                    seed=0, log=None, state=None, signals=None,
                    stop_after=None) -> RunState:
    """Algorithm-1 turn-taking distillation (teachers=None trains the plain
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
        state = RunState(seed=seed, adam=Adam(student.parameters(), lr=lr))
    reg_params = student.parameters()

    def step(encs, idxs):
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
                            return T.add(syn, reg_loss(reg_params, cfg.zeta))
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
                        reg = reg_loss(reg_params, cfg.zeta)
                if cfg.lam2 > 0:
                    sem = sem_loss_batch(student, encs, cfg, rng)
                    parts["loss_sem"] = float(sem.data)
                return total_loss(out_loss, syn=syn, sem=sem, reg=reg,
                                  lam1=cfg.lam1, lam2=cfg.lam2)

            _optimize(state, all_loss, "all")
        return parts

    return run_loop(student, state, train_data, step, sched.total, dev_data,
                    batch_size=batch_size, eval_every=eval_every,
                    patience=patience, log=log, stop_after=stop_after)
