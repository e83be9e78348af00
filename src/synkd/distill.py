"""Distillation and auxiliary losses, teacher ensembling, annealing schedule.

Covers output distillation against an annealed teacher/gold mixture, feature
regression (mode A), the masked-word semantic loss, structure injection
(mode B: arc/label cross-entropy plus a CYK structured hinge), and L2
regularization over the student parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .structures import chart_max, chart_trees, span_ids, tree_spans
from .structures import cyk_augmented  # noqa: F401 (perfbench/tests/test_tracing.py)
from .tensor import Tensor


class DistillError(ValueError):
    pass


@dataclass
class DistillConfig:
    eta: float = 0.5
    lam1: float = 0.6
    lam2: float = 0.2
    zeta: float = 0.2
    total_iters: int = 10_000
    mode: str = "B"              # syntax injection: A = features, B = structures
    teacher_mode: str = "hard"   # arc/label/span targets: soft heads or parse one-hots
    mask_ratio: float = 0.15
    alpha_fixed: float | None = None  # overrides the linear schedule when set

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DistillError(f"eta must be in [0, 1], got {self.eta}")
        if self.lam1 < 0 or self.lam2 < 0 or self.zeta < 0:
            raise DistillError("lam1, lam2 and zeta must be non-negative")
        if self.mode not in ("A", "B"):
            raise DistillError(f"injection mode must be A or B, got {self.mode!r}")
        if self.teacher_mode not in ("soft", "hard"):
            raise DistillError(f"teacher mode must be soft or hard, got {self.teacher_mode!r}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise DistillError(f"mask ratio must be in (0, 1), got {self.mask_ratio}")
        if self.total_iters < 1:
            raise DistillError("total_iters must be >= 1")
        if self.alpha_fixed is not None and not 0.0 <= self.alpha_fixed <= 1.0:
            raise DistillError(f"alpha_fixed must be in [0, 1], got {self.alpha_fixed}")


@dataclass
class TeacherSet:
    """Frozen, pre-trained teachers grouped by structure type."""
    dep: list = field(default_factory=list)
    con: list = field(default_factory=list)

    def __post_init__(self):
        for m in self.dep:
            if m.structure != "dep":
                raise DistillError(f"{m.kind} is not a dependency teacher")
        for m in self.con:
            if m.structure != "con":
                raise DistillError(f"{m.kind} is not a constituency teacher")

    @property
    def all(self):
        return list(self.dep) + list(self.con)

    def __len__(self):
        return len(self.dep) + len(self.con)


def anneal_alpha(t: int, total: int) -> float:
    """Linear teacher annealing: gold weight grows 0 -> 1 over training."""
    if total == 0:
        raise DistillError("annealing needs total iterations > 0")
    if not 0 <= t <= total:
        raise DistillError(f"iteration {t} outside [0, {total}]")
    return t / total


def _check_normalized(name, arr):
    s = np.asarray(arr).sum(axis=-1)
    if np.abs(s - 1.0).max() > 1e-4:
        raise DistillError(f"{name} rows must sum to 1 (max deviation {np.abs(s - 1).max():.2e})")


def output_distill_loss(y, teacher_dists, student_logits: Tensor, alpha: float) -> Tensor:
    """Cross-entropy against the annealed mixture alpha*Y + (1-alpha)*mean(P_t).

    y and each teacher distribution are (B, C) arrays; student_logits is the
    (B, C) logit tensor. With no teachers the target is the gold one-hot.
    Returns the batch mean.
    """
    y = np.asarray(y, dtype=np.float64)
    _check_normalized("gold one-hot", y)
    if teacher_dists:
        for d in teacher_dists:
            if np.asarray(d).shape != y.shape:
                raise DistillError(
                    f"teacher distribution shape {np.asarray(d).shape} != {y.shape}")
            _check_normalized("teacher distribution", d)
        mix = np.mean([np.asarray(d, dtype=np.float64) for d in teacher_dists], axis=0)
        target = alpha * y + (1.0 - alpha) * mix
    else:
        target = y
    log_p = T.log_softmax(student_logits, axis=-1)
    target_t = Tensor(target.astype(log_p.dtype))
    return T.scale(T.mean(T.sum_(T.mul(target_t, log_p), axis=1)), -1.0)


def feat_distill(teacher_mat: Tensor, student_mat: Tensor, f_t, f_s) -> Tensor:
    """0.5 * sum_j ||f_t(r_j^tree) - f_s(r_j^s)||^2 over aligned token rows."""
    if teacher_mat.shape[0] != student_mat.shape[0]:
        raise DistillError(
            f"row mismatch: teacher {teacher_mat.shape[0]} vs student {student_mat.shape[0]}")
    diff = T.sub(f_t(teacher_mat), f_s(student_mat))
    return T.scale(T.sum_(T.mul(diff, diff)), 0.5)


def combine_syn(l_dep: Tensor, l_con: Tensor, eta: float) -> Tensor:
    """eta * L_dep + (1 - eta) * L_con; endpoints pass one side through exactly."""
    if not 0.0 <= eta <= 1.0:
        raise DistillError(f"eta must be in [0, 1], got {eta}")
    if eta == 0.0:
        return l_con
    if eta == 1.0:
        return l_dep
    return T.add(T.scale(l_dep, eta), T.scale(l_con, 1.0 - eta))


def ce_sum(logits: Tensor, targets) -> Tensor:
    """Sum of -log softmax(logits)[k, target_k] over rows."""
    targets = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if targets.shape != (n,):
        raise DistillError(f"target shape {targets.shape} != ({n},)")
    log_p = T.log_softmax(logits, axis=-1)
    picked = T.take(log_p, np.arange(n) * c + targets)
    return T.scale(T.sum_(picked), -1.0)


def sample_mask_positions(n: int, ratio: float, rng: np.random.Generator):
    """Each position masked independently at `ratio`; at least one forced."""
    if n < 1:
        raise DistillError("empty sentence")
    pos = [j for j in range(n) if rng.random() < ratio]
    if not pos:
        pos = [int(rng.integers(n))]
    return pos


def semantic_lm_loss(student, l1f: Tensor, off, targets) -> Tensor:
    """Masked-word prediction from the prior-word forward state.

    l1f: (N, h) layer-1 forward states computed over the MASKED input ids,
    stacked by sentence with sentence b at rows [off[b], off[b + 1]).
    targets: iterable of (b, j, token_id) for masked positions; position 0
    is predicted from the learned begin state. Returns the sum of
    cross-entropies (not the mean), one term per masked position.
    """
    targets = list(targets)
    if not targets:
        return Tensor(np.array(0.0, dtype=l1f.dtype))
    loss = None
    prior = [(b, j, tok) for b, j, tok in targets if j > 0]
    begin = [(b, j, tok) for b, j, tok in targets if j == 0]
    if prior:
        rows = np.array([off[b] + j - 1 for b, j, _ in prior], dtype=np.int64)
        logits = T.add(T.matmul(T.embedding(l1f, rows), student.lm_W), student.lm_b)
        loss = ce_sum(logits, [tok for _, _, tok in prior])
    if begin:
        k = len(begin)
        tile = Tensor(np.ones((k, 1), dtype=l1f.dtype))
        logits = T.add(T.matmul(T.matmul(tile, student.lm_begin), student.lm_W),
                       student.lm_b)
        b_loss = ce_sum(logits, [tok for _, _, tok in begin])
        loss = b_loss if loss is None else T.add(loss, b_loss)
    return loss


def mask_ids(ids, positions, mask_id: int):
    """Copies of the token-id sequences with each (b, j, _) position masked."""
    out = [np.array(s, dtype=np.int64) for s in ids]
    for b, j, _ in positions:
        out[b][j] = mask_id
    return out


def hard_arc_targets(heads, dep_label_ids, n_labels):
    """One-hot arc/label targets straight from the parse."""
    heads = np.asarray(heads, dtype=np.int64)
    return one_hot(heads, heads.size + 1), one_hot(dep_label_ids, n_labels), heads


def soft_arc_targets(scorer, main):
    """Per sentence of a batch's (rows, offsets): an arc scorer's arc
    distribution, its label distribution at the argmax arc, and that arc."""
    scores = scorer(*main)
    arc = T.softmax(scores.arc_logits, axis=1).data.astype(np.float64)
    best = arc.argmax(axis=1)  # padded candidates have zero weight
    lab = T.softmax(scores.label_logits, axis=-1).data[np.arange(best.size), best]
    off = main[1]
    return [(arc[lo:hi, :hi - lo + 1].copy(), lab[lo:hi].astype(np.float64), best[lo:hi])
            for lo, hi in zip(off[:-1], off[1:])]


def soft_con_targets(scorer, main):
    """Per sentence of a batch's (rows, offsets): a span scorer's CYK argmax
    tree, used as T* in soft mode."""
    lens = np.diff(main[1])
    return chart_trees(lens, chart_max(lens, scorer(*main).tensor.data)[0])


def dep_inject_loss(scores, targets) -> Tensor:
    """Arc cross-entropy over every dependent plus label cross-entropy at the
    teacher's best arc per dependent, summed over the batch; targets holds
    per sentence its (n, n + 1) arc and (n, n_labels) label distributions and
    its (n,) best arcs."""
    arc_logits = scores.arc_logits
    n, cols = arc_logits.shape
    n_labels = scores.label_logits.shape[2]
    lens = np.diff(scores.off)
    shapes = [((k, k + 1), (k, n_labels)) for k in lens]
    if [(np.shape(arc), np.shape(lab)) for arc, lab, _ in targets] != shapes:
        raise DistillError(f"arc/label target shapes differ from {shapes}")
    teacher_arc = np.zeros((n, cols), dtype=np.float64)
    for lo, k, (arc, _, _) in zip(scores.off, lens, targets):
        teacher_arc[lo:lo + k, :k + 1] = arc
    teacher_label = np.concatenate([lab for _, lab, _ in targets]).astype(np.float64)
    teacher_best = np.concatenate([best for _, _, best in targets]).astype(np.int64)
    _check_normalized("arc target", teacher_arc)
    _check_normalized("label target", teacher_label)

    log_arc = T.log_softmax(arc_logits, axis=1)
    arc_term = T.scale(T.sum_(T.mul(Tensor(teacher_arc.astype(log_arc.dtype)), log_arc)), -1.0)

    log_lab = T.log_softmax(scores.label_logits, axis=-1)
    flat = (np.arange(n) * cols + teacher_best)[:, None] * n_labels + np.arange(n_labels)
    picked = T.take(log_lab, flat.reshape(-1))
    lab_term = T.scale(T.sum_(T.mul(Tensor(teacher_label.reshape(-1).astype(log_lab.dtype)),
                                    picked)), -1.0)
    return T.add(arc_term, lab_term)


def con_inject_loss(scored, trees) -> Tensor:
    """Structured hinge max(0, max_t [Scr(t) + hamming(t, T*)] - Scr(T*)),
    summed over the batch; trees holds T* per sentence of `scored`.

    One Hamming-augmented chart runs over the whole batch; gradients flow
    into the scores of the offending trees' spans (+) and the reference spans
    (-) of the sentences whose hinge is active.
    """
    lens = np.diff(scored.off)
    if [t.n for t in trees] != lens.tolist():
        raise DistillError(f"reference lengths {[t.n for t in trees]} != scored "
                           f"lengths {lens.tolist()}")
    data, n_labels = scored.tensor.data, scored.tensor.shape[1]
    star = span_ids(lens, tree_spans(trees), n_labels)
    hat, aug = chart_max(lens, data, star)
    # Scr(T*) of each sentence, summed one span at a time in its tree's order
    per = 2 * lens - 1
    scr = np.zeros((lens.size, per.max()))
    scr[np.arange(per.max()) < per[:, None]] = data.reshape(-1)[star]
    active = np.repeat(aug - np.cumsum(scr, axis=1)[:, -1] > 0, per)
    if not active.any():
        return Tensor(np.array(0.0, dtype=data.dtype))
    hat, star = span_ids(lens, hat, n_labels)[active], star[active]
    delta = np.isin(hat, star, invert=True).sum()
    gap = T.sub(T.sum_(T.take(scored.tensor, hat)), T.sum_(T.take(scored.tensor, star)))
    return T.add(gap, Tensor(np.array(float(delta), dtype=data.dtype)))


def reg_loss(params, zeta: float) -> Tensor:
    """(zeta / 2) * ||Theta||^2 over the given parameter tensors, one tape op."""
    params = list(params)
    if not params:
        return Tensor(np.array(0.0))
    return T.scaled_sq_sum(params, zeta / 2.0)


def total_loss(output: Tensor, syn=None, sem=None, reg=None,
               lam1: float = 0.6, lam2: float = 0.2) -> Tensor:
    """L_all = L_output + lam1 * L_syn + lam2 * L_sem (+ L_reg)."""
    for name, part in (("output", output), ("syn", syn), ("sem", sem), ("reg", reg)):
        if part is not None and not np.isfinite(np.asarray(part.data)).all():
            raise FloatingPointError(f"non-finite {name} loss component")
    loss = output
    if syn is not None:
        loss = T.add(loss, T.scale(syn, lam1))
    if sem is not None:
        loss = T.add(loss, T.scale(sem, lam2))
    if reg is not None:
        loss = T.add(loss, reg)
    return loss


def one_hot(labels, n_classes) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out
