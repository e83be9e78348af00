"""Per-objective cost of one mode-B distillation step, at fixed dims.

Algorithm 1's early phase optimizes the masked-word objective (`sem`), one
output objective per teacher (`output/<kind>`) and the syntax objective of
the teachers whose turn it is (`dep/<kind>`, `con/<kind>`); the late phase
makes one joint step (`all`). This script builds a student, a gcn-dep and a
gcn-con teacher and a cls corpus of equal-length sentences, so that every
batch holds 32 of them, lets `distill_student` run three
iterations (early dep turn, early con turn, late phase) and keeps the loss
closure of each objective instead of optimizing it. It then times each
closure in-process, best of N: the forward pass that builds the loss on a
tape, `Tape.backward`, and one `Adam.step`. It prints one JSON line per
(dims, objective):

    {"dims": "desk", "emb": 24, "hidden": 16, "layers": 2, "batch": 32,
     "tokens": 8, "objective": "sem", "forward_ms": ..., "backward_ms": ..., "adam_ms": ...,
     "tape_ops": ..., "repeats": 5}

`desk` is the `distill` benchmark workload's student (embeddings 24, hidden
16, 2 layers); `cli` is the CLI's defaults (300, 350, 3 layers). The
teachers and the corpus are the same at both.

Then it prints one line per tree-teacher kind at the benchmark workloads'
teacher dims: the forward-only `reps` ms over 128 desk sentences, best of N,
cold (on freshly encoded sides, so the call builds their views and plan
fragments) and warm (a second call on the same sides):

    {"teacher": "tlstm-dep", "emb": 24, "hidden": 16, "layers": 2,
     "sentences": 128, "cold_ms": ..., "warm_ms": ..., "repeats": 5}

Then one line per parse view a tree teacher reads (`dep_view`, `con_tree`,
`con_gcn`) and corpus: the ms to build that view of every side of a batch of
freshly encoded sides, and nothing else, best of N, over the first 1, 32 and
128 desk sentences and over 40 long sentences of `perfbench/longgen.py`
(3-5 clauses, the long-analysis workload's):

    {"view": "con_gcn", "corpus": "long", "sentences": 40, "build_ms": ...,
     "repeats": 5}

Then, per dims, one line per model kind (the four teachers, then the
student): the ms to build the model, drawing its parameters, and the ms of
`cli.load_model_dir` on its saved run directory, best of N. The student takes
the dims' sizes; the teachers take the benchmark workloads' at `desk` and the
CLI's defaults (300, 300, 2 layers) at `cli`:

    {"load": "student", "dims": "cli", "emb": 300, "hidden": 350, "layers": 3,
     "build_ms": ..., "load_ms": ..., "repeats": 5}

Last, per dims, one line per model kind and `encoders.BATCH_ROWS` value
(the shipped one first, then a sweep): `train.predict` over a 1,000-sentence
desk corpus, at the load lines' sizes, with the number of passes
`model.batches` makes, the mean encoder rows per pass (tokens, or the nodes
of a constituency teacher's view) and the warm predict ms per sentence, best
of N (a first call builds the views and plan fragments). This is the sweep
that sets BATCH_ROWS:

    {"predict": "gcn-con", "dims": "desk", "emb": 24, "hidden": 16, "layers": 2,
     "sentences": 1000, "budget": 4096, "passes": ..., "rows_per_pass": ...,
     "ms_per_sent": ..., "repeats": 5}

Usage:

    PYTHONPATH=src python tests/stepbench.py [--dims desk|cli|tiny ...] [--repeats N]

Only `distill_student` and the private `train._optimize` it calls per
objective, `make_teacher` and `reps` for the teacher lines,
`cli.save_model_dir`, `cli.write_resolved` and `cli.load_model_dir` for the
load lines, `encoders.side_views` for the view lines (a tree without it
reads the view side by side), and `train.predict`, `batches` and `encoders.BATCH_ROWS` for the
predict lines are used, so the script runs unchanged against an older
checkout's `src/` for a before/after pair on one machine (where BATCH_ROWS
counted sentences, the passes and rows per pass show it).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from functools import partial

import numpy as np

from synkd import cli
from synkd import encoders
from synkd import tensor as T
from synkd import train
from synkd.distill import DistillConfig, TeacherSet
from synkd.encoders import TEACHER_KINDS, Codec, StudentModel, make_teacher
from synkd.syntax_data import gen_synthetic

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from longgen import long_corpus  # noqa: E402

# name -> (student embedding width, hidden width, BiLSTM layers)
DIMS = {"tiny": (6, 5, 2), "desk": (24, 16, 2), "cli": (300, 350, 3)}
BATCH, N_TRAIN, MAX_LEN, TEACHER_EMB = 32, 200, 12, 24
FIELDS = ("dims", "emb", "hidden", "layers", "batch", "tokens", "objective", "forward_ms",
          "backward_ms", "adam_ms", "tape_ops", "repeats")
# teacher lines: the benchmark workloads' teacher (embeddings, hidden, layers)
TEACHER_DIMS, TEACHER_SENTS = (24, 16, 2), 128
TEACHER_FIELDS = ("teacher", "emb", "hidden", "layers", "sentences", "cold_ms", "warm_ms",
                  "repeats")
# load and predict lines: the teachers' (embeddings, hidden, layers) per dims
LOAD_TEACHER_DIMS = {"tiny": (6, 5, 2), "desk": TEACHER_DIMS, "cli": (300, 300, 2)}
LOAD_FIELDS = ("load", "dims", "emb", "hidden", "layers", "build_ms", "load_ms", "repeats")
# predict lines: the sentences predicted and the BATCH_ROWS values swept
PREDICT_SENTS, BUDGETS = 1000, (1024, 2048, 4096, 8192, 16384)
PREDICT_FIELDS = ("predict", "dims", "emb", "hidden", "layers", "sentences", "budget",
                  "passes", "rows_per_pass", "ms_per_sent", "repeats")
CON_VIEWS = {"tlstm-con": "con_tree", "gcn-con": "con_gcn"}  # views whose nodes are rows
# view lines: the views, the desk batch sizes and the long sentences
VIEWS, VIEW_SENTS, LONG_SENTS = ("dep_view", "con_tree", "con_gcn"), (1, 32, 128), 40
VIEW_FIELDS = ("view", "corpus", "sentences", "build_ms", "repeats")


def corpus(seed=0):
    """The sentences of the corpus's most common length, and that length."""
    examples = gen_synthetic(N_TRAIN, max_len=MAX_LEN, seed=seed, task="cls")
    lens = [len(ex.sent.tokens) for ex in examples]
    n = max(set(lens), key=lens.count)
    return [ex for ex, m in zip(examples, lens) if m == n], n


def objectives(examples, emb, hidden, layers, seed=0):
    """{objective: (build_loss, adam)} of the first three iterations of a
    mode-B run: sem, output/*, dep/* (iteration 1), con/* (2) and all (3)."""
    codec = Codec(examples, "cls")
    data = [codec.encode(ex) for ex in examples]
    dep, con = (make_teacher(kind, codec, emb_dim=TEACHER_EMB, rng=np.random.default_rng(seed))
                for kind in ("gcn-dep", "gcn-con"))
    student = StudentModel(codec, emb_dim=emb, hidden=hidden, n_layers=layers,
                           rng=np.random.default_rng(seed))
    kept = {}

    def keep(state, build_loss, what):
        kept.setdefault(what, (build_loss, state.adam))
        return 0.0

    optimize, train._optimize = train._optimize, keep
    try:
        train.distill_student(student, TeacherSet(dep=[dep], con=[con]), data, None,
                              DistillConfig(total_iters=3, mode="B", teacher_mode="hard"),
                              train.Schedule(total=3, g1=2, g2=1), batch_size=BATCH,
                              lr=1e-4, seed=seed)
    finally:
        train._optimize = optimize
    return kept


def measure(build_loss, adam, repeats):
    """Best-of-`repeats` forward, backward and Adam ms, and the tape length."""
    best = [np.inf] * 3
    for _ in range(repeats):
        adam.zero_grad()
        with T.Tape() as tape:
            t0 = time.perf_counter()
            loss = build_loss()
            t1 = time.perf_counter()
            tape.backward(loss)
            t2 = time.perf_counter()
        adam.step()
        t3 = time.perf_counter()
        best = [min(b, 1e3 * d) for b, d in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
    return best, len(tape)


def rows(name, repeats=5):
    emb, hidden, layers = DIMS[name]
    examples, n = corpus()
    out = []
    for what, (build_loss, adam) in objectives(examples, emb, hidden, layers).items():
        (fwd, bwd, opt), ops = measure(build_loss, adam, repeats)
        out.append(dict(zip(FIELDS, (name, emb, hidden, layers, BATCH, n, what,
                                     round(fwd, 3), round(bwd, 3), round(opt, 3),
                                     ops, repeats))))
    return out


def teacher_rows(repeats=5):
    """Best-of-`repeats` cold and warm forward `reps` ms of each tree-teacher
    kind over the same 128 desk sentences."""
    examples = gen_synthetic(TEACHER_SENTS, max_len=MAX_LEN, seed=0, task="cls")
    codec = Codec(examples, "cls")
    emb, hidden, layers = TEACHER_DIMS
    out = []
    for kind in TEACHER_KINDS:
        model = make_teacher(kind, codec, emb_dim=emb, hidden=hidden, n_layers=layers,
                             rng=np.random.default_rng(0))
        cold = warm = np.inf
        for _ in range(repeats):
            sides = [codec.encode(ex).main for ex in examples]
            t0 = time.perf_counter()
            model.reps(sides)
            t1 = time.perf_counter()
            model.reps(sides)
            t2 = time.perf_counter()
            cold, warm = min(cold, 1e3 * (t1 - t0)), min(warm, 1e3 * (t2 - t1))
        out.append(dict(zip(TEACHER_FIELDS, (kind, emb, hidden, layers, TEACHER_SENTS,
                                             round(cold, 3), round(warm, 3), repeats))))
    return out


def build_views(sides, view):
    """Every side's `view`: in one call where `encoders.side_views` exists,
    else read side by side."""
    if hasattr(encoders, "side_views"):
        return encoders.side_views(sides, view)
    return [getattr(s, view) for s in sides]


def view_rows(repeats=5):
    """Best-of-`repeats` ms to build each parse view of fresh sides, over the
    first 1, 32 and 128 desk sentences and over 40 long sentences."""
    desk = gen_synthetic(max(VIEW_SENTS), max_len=MAX_LEN, seed=0, task="cls")
    corpora = [("desk", desk[:k]) for k in VIEW_SENTS] + [("long", long_corpus(LONG_SENTS, 1))]
    codec = Codec(desk + corpora[-1][1], "cls")
    out = []
    for name, examples in corpora:
        for view in VIEWS:
            best = np.inf
            for _ in range(repeats):
                sides = [codec.encode(ex).main for ex in examples]
                t0 = time.perf_counter()
                build_views(sides, view)
                best = min(best, 1e3 * (time.perf_counter() - t0))
            out.append(dict(zip(VIEW_FIELDS, (view, name, len(examples), round(best, 4),
                                              repeats))))
    return out


def spec(kind, name):
    """The command that saves a model kind, its size keys, its sizes at dims
    `name` and its builder."""
    if kind == "student":
        return "distill", ("emb_dim", "hidden", "layers"), DIMS[name], StudentModel
    return ("train-teacher", ("teacher_emb", "teacher_hidden", "teacher_layers"),
            LOAD_TEACHER_DIMS[name], partial(make_teacher, kind))


def load_rows(name, repeats=5):
    """Best-of-`repeats` build and `cli.load_model_dir` ms of each model kind
    at dims `name`, on the corpus of the objective lines."""
    codec = Codec(corpus()[0], "cls")
    out = []
    for kind in (*TEACHER_KINDS, "student"):
        command, keys, sizes, build = spec(kind, name)
        built = loaded = np.inf
        with tempfile.TemporaryDirectory() as run_dir:
            for _ in range(repeats):
                t0 = time.perf_counter()
                model = build(codec, *sizes, rng=np.random.default_rng(0))
                built = min(built, 1e3 * (time.perf_counter() - t0))
            cli.save_model_dir(run_dir, model)
            cli.write_resolved(os.path.join(run_dir, "config.resolved.json"), command,
                               dict(zip(keys, sizes)), {"model_kind": kind})
            for _ in range(repeats):
                t0 = time.perf_counter()
                cli.load_model_dir(run_dir)
                loaded = min(loaded, 1e3 * (time.perf_counter() - t0))
        out.append(dict(zip(LOAD_FIELDS, (kind, name, *sizes, round(built, 3),
                                          round(loaded, 3), repeats))))
    return out


def predict_rows(name, repeats=5):
    """Per model kind at dims `name` and per BATCH_ROWS value: the passes and
    mean encoder rows per pass of `train.predict` over the same desk
    sentences, and its warm ms per sentence, best of `repeats`."""
    examples = gen_synthetic(PREDICT_SENTS, max_len=MAX_LEN, seed=0, task="cls")
    codec = Codec(examples, "cls")
    shipped, out = encoders.BATCH_ROWS, []
    try:
        for kind in (*TEACHER_KINDS, "student"):
            _, _, sizes, build = spec(kind, name)
            model = build(codec, *sizes, rng=np.random.default_rng(0))
            data = [codec.encode(ex) for ex in examples]
            rows = sum(len(getattr(e.main, CON_VIEWS[kind])[1]) if kind in CON_VIEWS
                       else e.main.n for e in data)
            for budget in dict.fromkeys((shipped, *BUDGETS)):
                encoders.BATCH_ROWS = budget
                passes = len(model.batches(data))
                train.predict(model, data)
                best = np.inf
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    train.predict(model, data)
                    best = min(best, 1e3 * (time.perf_counter() - t0))
                out.append(dict(zip(PREDICT_FIELDS, (
                    kind, name, *sizes, len(data), budget, passes, round(rows / passes, 1),
                    round(best / len(data), 4), repeats))))
    finally:
        encoders.BATCH_ROWS = shipped
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dims", nargs="+", choices=sorted(DIMS), default=["desk", "cli"])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    for name in args.dims:
        for row in rows(name, args.repeats):
            print(json.dumps(row), flush=True)
    for row in teacher_rows(args.repeats) + view_rows(args.repeats):
        print(json.dumps(row), flush=True)
    for name in args.dims:
        for row in load_rows(name, args.repeats):
            print(json.dumps(row), flush=True)
    for name in args.dims:
        for row in predict_rows(name, args.repeats):
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    sys.exit(main())
