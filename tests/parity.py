"""Model-level parity hashes, for diffing two source trees.

Prints one line per (task, dtype, model kind): the student and the four tree
teachers, each over a cls, pair and tag codec in float32 and float64. A line
hashes the freshly built parameters, then the logits, loss and every
parameter gradient of one train-mode batch, and gives that batch's tape
length. The student carries its structure heads and two mode-A projections;
each teacher carries its own structure head. A refactor meant to keep
behaviour prints the same lines before and after:

    PYTHONPATH=<old checkout>/src python tests/parity.py > before.txt
    PYTHONPATH=src python tests/parity.py > after.txt
    diff before.txt after.txt

Only the model-level API is used (make_teacher, StudentModel, reps,
head_logits, struct_heads, add_projection, project), so the script runs
unchanged on either side of a change to the components beneath it.
"""
from __future__ import annotations

import hashlib
import sys

import numpy as np

from synkd import tensor as T
from synkd.distill import output_distill_loss
from synkd.encoders import TEACHER_KINDS, Codec, StudentModel, make_teacher
from synkd.syntax_data import gen_synthetic
from synkd.tensor import Tensor
from synkd.train import gold_rows, hard_targets, inject_loss_batch, params_fingerprint

TASKS = ("cls", "pair", "tag")
DTYPES = (np.float32, np.float64)
KINDS = ("student",) + TEACHER_KINDS
# teacher kinds whose mode-A projections the student registers, with their widths
PROJECTIONS = (("tlstm-dep", 10), ("gcn-con", 6))


def build(kind, codec, dtype, emb=6, hidden=5, layers=2, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "student":
        model = StudentModel(codec, emb_dim=emb, hidden=hidden, n_layers=layers,
                             rng=rng, dtype=dtype)
        for name, width in PROJECTIONS:
            model.add_projection(name, width)
    else:
        model = make_teacher(kind, codec, emb_dim=emb, hidden=hidden, n_layers=layers,
                             rng=rng, dtype=dtype)
        model.add_structure_head(model.structure)
    return model


def batch_hash(model, encs, seed=4):
    """Hash of one train-mode forward and backward pass, and its tape length:
    the task loss, every structure head's loss against the gold parses and,
    for the student, a feature regression through each projection."""
    rng = np.random.default_rng(seed)
    for t in model.parameters():
        t.grad = None
    with T.Tape() as tape:
        main = model.reps([e.main for e in encs], train=True, rng=rng)
        logits = model.head_logits(encs, main, train=True, rng=rng)
        loss = output_distill_loss(gold_rows(model, encs), [], logits, 1.0)
        for structure in model.struct_heads:
            targets = hard_targets(structure, encs, len(model.codec.dep_labels))
            loss = T.add(loss, inject_loss_batch(model, structure, main, [targets]))
        if model.kind == "student":
            mat = main[0]
            for name, width in PROJECTIONS:
                feats = Tensor(rng.standard_normal((mat.shape[0], width)).astype(mat.dtype))
                diff = T.sub(model.project(f"f_t/{name}", feats), model.project("f_s", mat))
                loss = T.add(loss, T.scale(T.sum_(T.mul(diff, diff)), 0.5))
        tape.backward(loss)
    h = hashlib.sha256(logits.data.tobytes() + loss.data.tobytes())
    for name in model.p.names():
        g = model.p[name].grad
        h.update(name.encode("utf-8") + (b"-" if g is None else g.tobytes()))
    return h.hexdigest(), len(tape)


def lines(n=6, max_len=6):
    """The parity lines, in (task, dtype, kind) order."""
    out = []
    for task in TASKS:
        examples = gen_synthetic(n, max_len=max_len, seed=0, task=task, grammar_size=4)
        codec = Codec(examples, task)
        encs = [codec.encode(ex) for ex in examples]
        for dtype in DTYPES:
            for kind in KINDS:
                model = build(kind, codec, dtype)
                init = params_fingerprint(model.p)
                batch, tape = batch_hash(model, encs)
                out.append(f"{task} {np.dtype(dtype).name} {kind} init={init[:16]} "
                           f"batch={batch[:16]} tape={tape}")
    return out


if __name__ == "__main__":
    sys.stdout.write("\n".join(lines()) + "\n")
