"""The three workloads: what each sets up, what one timed round does, and
which outputs it checks.

All run the `cls` task at desk dims (embeddings 24, hidden 16) with batch 32.
Rounds of one run repeat a fixed amount of work made from the workload seed,
so their medians are comparable. A round returns each timing metric as a
(seconds-based, reference-seconds-based) pair; see speed.py.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter
from time import perf_counter

import numpy as np

from synkd import cli
from synkd.distill import DistillConfig, TeacherSet
from synkd.encoders import Codec, StudentModel, make_teacher
from synkd.syntax_data import gen_synthetic, load_jsonl, parse_bracketed, save_jsonl
from synkd.train import (
    RunLog,
    Schedule,
    TeacherSignals,
    distill_student,
    evaluate,
    load_checkpoint,
    params_fingerprint,
    save_checkpoint,
    train_teacher,
)

from longgen import length_profile, long_corpus

DIMS = {"emb_dim": 24, "hidden": 16}
BATCH = 32
LR = 1e-2
N_TRAIN, N_DEV, N_TEST, MAX_LEN = 1000, 200, 200, 12


class Ops:
    """Attempted and failed operations. A stage that raises is recorded with
    its message and the run goes on; an output check that does not hold is a
    failed operation too."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failing stage is a benchmark result
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok


class Stages:
    """Seconds and reference seconds per stage name, summed over a round."""

    def __init__(self, clock):
        self.clock = clock
        self.secs = Counter()
        self.ref = Counter()

    def run(self, name, fn, *args, **kwargs):
        out, secs, ref = self.clock.timed(fn, *args, **kwargs)
        self.secs[name] += secs
        self.ref[name] += ref
        return out

    def rate(self, name, count):
        return count / self.secs[name], count / self.ref[name]

    def total(self, *names):
        return sum(self.secs[n] for n in names), sum(self.ref[n] for n in names)


class IterClock(RunLog):
    """RunLog that time-stamps the first row of each training iteration.

    A row is logged after its iteration's update, so an iteration lasts from
    the end of the previous row (the previous iteration or its dev eval) to
    its own first row; dev evals fall outside every iteration.
    """

    def __init__(self, path):
        super().__init__(path)
        self.spans = []
        self.values = []
        self._iter = None
        self._last = perf_counter()

    def start(self):
        self._last = perf_counter()

    def log(self, iteration, split, metric, value):
        now = perf_counter()
        if split == "train" and iteration > 0 and iteration != self._iter:
            self.spans.append((self._last, now))
            self._iter = iteration
        self.values.append(float(value))
        super().log(iteration, split, metric, value)
        self._last = perf_counter()

    def all_finite(self):
        return all(math.isfinite(v) for v in self.values)


class DrawCounter(list):
    """Training set that counts the sentences and tokens of drawn batches."""

    def __init__(self, data):
        super().__init__(data)
        self.sents = 0
        self.tokens = 0

    def __getitem__(self, i):
        enc = super().__getitem__(i)
        self.sents += 1
        self.tokens += enc.main.n
        return enc


def _desk_corpus(seed):
    splits = [gen_synthetic(n, max_len=MAX_LEN, seed=seed + bump)
              for bump, n in enumerate((N_TRAIN, N_DEV, N_TEST))]
    codec = Codec(splits[0], "cls")
    train, dev, test = ([codec.encode(ex) for ex in part] for part in splits)
    return codec, train, dev, test


def _checkpoint_round_trip(ops, path, model, what):
    state = model.p.state_dict()
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    same = back.keys() == state.keys() and all(
        np.array_equal(back[k], state[k]) for k in state)
    ops.check(f"{what} checkpoint round trip", same)


def _steps(state):
    return state.adam.state.get("t", 0), len(state.trace)


class Teachers:
    """Trains all four tree teachers for fixed iteration counts, evaluates
    each on dev, then computes TeacherSignals for the four over the train
    set. Round k covers the k-th of PARTS interleaved slices of train and
    dev and draws its batches from its own seed, so PARTS rounds cover both
    sets while every stage is sampled across the whole run."""

    name = "teachers"
    PARTS = 4
    min_rounds = cycle = PARTS
    ITERS = {"tlstm-dep": 2, "tlstm-con": 1, "gcn-dep": 10, "gcn-con": 10}

    def setup(self, seed, work, ops):
        codec, train, dev, _ = _desk_corpus(seed)
        return {"seed": seed, "work": work, "codec": codec, "train": train, "dev": dev}

    def round(self, ctx, ops, k, tag, stages):
        part = k % self.PARTS
        seed, codec, train = ctx["seed"], ctx["codec"], ctx["train"]
        run_seed = seed * self.PARTS + part
        dev = ctx["dev"][part::self.PARTS]
        drawn = DrawCounter(train)
        models, steps = {}, [0, 0]

        def fit(kind, iters):
            model = make_teacher(kind, codec, rng=np.random.default_rng(run_seed), **DIMS)
            with IterClock(os.path.join(ctx["work"], f"{tag}-{kind}.jsonl")) as log:
                state = stages.run("train", train_teacher, model, drawn, None, iters=iters,
                                   batch_size=BATCH, lr=LR, seed=run_seed, log=log)
            ops.check(f"{kind} losses finite", log.all_finite())
            ops.check(f"{kind} iterations", len(log.spans) == iters,
                      f"{len(log.spans)} != {iters}")
            steps[:] = [a + b for a, b in zip(steps, _steps(state))]
            metrics = stages.run("eval", evaluate, model, dev)
            ops.check(f"{kind} dev accuracy", 0.0 <= metrics["accuracy"] <= 100.0)
            _checkpoint_round_trip(ops, os.path.join(ctx["work"], f"{tag}-{kind}.syd1"),
                                   model, kind)
            models[kind] = model

        for kind, iters in self.ITERS.items():
            ops.call(f"train_teacher {kind}", fit, kind, iters)

        sig_data = train[part::self.PARTS]

        def signals():
            tset = TeacherSet(dep=[models["tlstm-dep"], models["gcn-dep"]],
                              con=[models["tlstm-con"], models["gcn-con"]])
            sig = stages.run("signals", TeacherSignals, tset, sig_data, DistillConfig(),
                             len(codec.dep_labels))
            for kind, dists in sig.task_dists.items():
                rows = np.concatenate([np.asarray(d).reshape(1, -1) for d in dists])
                ops.check(f"{kind} signals are distributions",
                          np.isfinite(rows).all() and np.allclose(rows.sum(1), 1, atol=1e-4))

        ops.call("TeacherSignals", signals)
        n_models = len(self.ITERS)
        return {
            "teacher_infer_sent_per_s": stages.rate("signals", n_models * len(sig_data)),
            "eval_sent_per_s": stages.rate("eval", n_models * len(dev)),
            "teacher_train_sent_per_s": stages.rate("train", drawn.sents),
            "teacher_train_tok_per_s": stages.rate("train", drawn.tokens),
            "round_s": stages.total("train", "eval", "signals"),
            "steps": steps,
        }


class Distill:
    """Cheap gcn-dep + gcn-con teachers trained in set-up, then one mode-B
    turn-taking run (hard targets, masked-LM loss, dep and con injection,
    early phase alternating every G2, joint phase, periodic dev eval) and a
    student evaluation. Every round repeats the same run."""

    name = "distill"
    min_rounds, cycle = 3, 1
    TEACHER_ITERS = 30
    ITERS, G1, G2, EVAL_EVERY = 75, 25, 10, 25
    EVAL_REPEATS = 100

    def setup(self, seed, work, ops):
        codec, train, dev, test = _desk_corpus(seed)
        teachers = []
        for kind in ("gcn-dep", "gcn-con"):
            model = make_teacher(kind, codec, rng=np.random.default_rng(seed), **DIMS)
            train_teacher(model, train, None, iters=self.TEACHER_ITERS,
                          batch_size=BATCH, lr=LR, seed=seed)
            teachers.append(model)
        return {"seed": seed, "work": work, "codec": codec, "train": train, "dev": dev,
                "test": test, "tset": TeacherSet(dep=teachers[:1], con=teachers[1:]),
                "fingerprint": [params_fingerprint(m.p) for m in teachers]}

    def round(self, ctx, ops, k, tag, stages):
        seed, codec, train, tset = ctx["seed"], ctx["codec"], ctx["train"], ctx["tset"]
        cfg = DistillConfig(total_iters=self.ITERS, mode="B", teacher_mode="hard")
        sched = Schedule(total=self.ITERS, g1=self.G1, g2=self.G2)
        student = StudentModel(codec, n_layers=2, rng=np.random.default_rng(seed), **DIMS)
        out = {}
        sig = ops.call("TeacherSignals", stages.run, "signals", TeacherSignals, tset,
                       train, cfg, len(codec.dep_labels))

        def run():
            with IterClock(os.path.join(ctx["work"], f"{tag}-distill.jsonl")) as log:
                log.start()
                state = stages.run("distill", distill_student, student, tset, train,
                                   ctx["dev"], cfg, sched, batch_size=BATCH, lr=LR,
                                   eval_every=self.EVAL_EVERY, patience=10 ** 6,
                                   seed=seed, log=log, signals=sig)
            ops.check("distill losses finite", log.all_finite())
            ops.check("distill iterations", len(log.spans) == self.ITERS,
                      f"{len(log.spans)} != {self.ITERS}")
            ops.check("teachers frozen", [params_fingerprint(m.p) for m in tset.all]
                      == ctx["fingerprint"])
            out.update(iter_ms=[tuple(1e3 * v for v in stages.clock.measure(*span))
                                for span in log.spans],
                       steps=list(_steps(state)), fingerprint=params_fingerprint(student.p))

        ops.call("distill_student", run)

        def score():
            for _ in range(self.EVAL_REPEATS):
                metrics = stages.run("eval", evaluate, student, ctx["test"])
                ops.check("test accuracy", 0.0 <= metrics["accuracy"] <= 100.0)
            _checkpoint_round_trip(ops, os.path.join(ctx["work"], f"{tag}-student.syd1"),
                                   student, "student")

        ops.call("evaluate student", score)
        return {
            "teacher_infer_sent_per_s": stages.rate("signals", len(tset) * len(train)),
            "eval_sent_per_s": stages.rate("eval", self.EVAL_REPEATS * len(ctx["test"])),
            "distill_iter_per_s": stages.rate("distill", self.ITERS),
            "round_s": stages.total("signals", "distill", "eval"),
            **out,
        }


def _cli(ops, name, argv, stages=None):
    """Run one synkd command in-process, timed as stage `name` when stages
    are given; returns its last stdout JSON line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv) if stages is None else stages.run(name, cli.main, argv)
    if not ops.check(f"{name} exit code", rc == 0, f"(rc={rc})"):
        raise RuntimeError(f"{name} exited with {rc}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


class LongAnalysis:
    """Long composed sentences: forward-only eval of four teachers and the
    student, tree induction and both probe tasks, all through the CLI.
    Every round repeats the same commands on the same files."""

    name = "long-analysis"
    min_rounds, cycle = 2, 1
    N_TRAIN, N_TEST = 40, 40
    # the student's eval batches sentences of equal length, so its cost
    # follows how many lengths a set holds; a larger set of its own keeps
    # that share steady across seeds
    N_STUDENT_EVAL, STUDENT_EVALS = 120, 3
    TEACHERS = ("tlstm-dep", "tlstm-con", "gcn-dep", "gcn-con")
    PROBES = ("dependency-labeling", "constituent-labeling")

    def setup(self, seed, work, ops):
        ctx = {"seed": seed, "work": work}
        sets = {"train": long_corpus(self.N_TRAIN, seed),
                "test": long_corpus(self.N_TEST, seed + 1),
                "student_eval": long_corpus(self.N_STUDENT_EVAL, seed + 2)}
        for name, examples in sets.items():
            ctx[name] = os.path.join(work, f"long-{name}.jsonl")
            save_jsonl(examples, ctx[name])
        ctx["test_examples"] = load_jsonl(ctx["test"])
        ctx["profile"] = {name: length_profile(ex) for name, ex in sets.items()}
        common = ["--seed", str(seed), "--train", ctx["train"], "--lr", str(LR)]
        for kind in self.TEACHERS:
            _cli(ops, f"train-teacher {kind}", [
                "train-teacher", "--kind", kind, "--out", os.path.join(work, kind),
                "--iters", "1", "--batch", "4", "--teacher-emb", "24",
                "--teacher-hidden", "16", *common])
        ctx["student"] = os.path.join(work, "student")
        _cli(ops, "distill", [
            "distill", "--teachers", ",".join(os.path.join(work, k) for k in
                                              ("gcn-dep", "gcn-con")),
            "--out", ctx["student"], "--mode", "B", "--iters", "4", "--g1", "2",
            "--g2", "1", "--batch", "8", "--emb-dim", "24", "--hidden", "16",
            "--layers", "2", *common])
        with open(os.path.join(ctx["student"], "model.syd1"), "rb") as fh:
            ctx["fingerprint"] = fh.read()
        return ctx

    def round(self, ctx, ops, k, tag, stages):
        work, test, examples = ctx["work"], ctx["test"], ctx["test_examples"]
        n, out = len(examples), {}
        for kind in self.TEACHERS:
            report = ops.call(f"eval {kind}", _cli, ops, "eval teacher", [
                "eval", "--model", os.path.join(work, kind), "--data", test,
                "--out", os.path.join(work, f"{tag}-eval-{kind}")], stages) or {}
            ops.check(f"eval {kind} count", report.get("n") == n)
        for rep in range(self.STUDENT_EVALS):
            report = ops.call("eval student", _cli, ops, "eval student", [
                "eval", "--model", ctx["student"], "--data", ctx["student_eval"],
                "--out", os.path.join(work, f"{tag}-eval-student")], stages) or {}
            ops.check("eval student count", report.get("n") == self.N_STUDENT_EVAL)

        def induce():
            report = _cli(ops, "induce", [
                "induce", "--model", ctx["student"], "--data", test,
                "--out", os.path.join(work, f"{tag}-induce")], stages)
            check_induced(ops, examples, report["trees"], report["heads"], out)

        ops.call("induce", induce)
        for task in self.PROBES:
            report = ops.call(f"probe {task}", _cli, ops, "probe", [
                "probe", "--model", ctx["student"], "--probe-task", task,
                "--train", ctx["train"], "--data", test,
                "--out", os.path.join(work, f"{tag}-probe-{task}")], stages) or {}
            ops.check(f"probe {task} accuracy", 0.0 <= report.get("accuracy", -1) <= 100.0)
        return {
            "teacher_infer_sent_per_s": stages.rate("eval teacher", len(self.TEACHERS) * n),
            "eval_sent_per_s": stages.rate("eval student",
                                           self.STUDENT_EVALS * self.N_STUDENT_EVAL),
            "induce_sent_per_s": stages.rate("induce", n),
            "probe_s": stages.total("probe"),
            "round_s": stages.total("eval teacher", "eval student", "induce", "probe"),
            "single_root_share": out.get("single_root_share"),
            "steps": [0, 0],
        }


def check_induced(ops, examples, trees_path, heads_path, out):
    """Induced trees have n leaves; induced heads are n in-range ints."""
    with open(trees_path, encoding="utf-8") as fh:
        trees = [line for line in fh.read().splitlines() if line]
    with open(heads_path, encoding="utf-8") as fh:
        heads = [[int(h) for h in line.split()] for line in fh.read().splitlines() if line]
    ops.check("induced tree count", len(trees) == len(examples) == len(heads))
    bad_trees = bad_heads = single_root = 0
    for ex, tree, hs in zip(examples, trees, heads):
        n = len(ex.sent)
        parsed = parse_bracketed(tree)
        bad_trees += len(parsed) != 1 or parsed[0].leaves() != ex.sent.tokens
        bad_heads += len(hs) != n or not all(0 <= h <= n for h in hs)
        single_root += hs.count(0) == 1
    ops.check("induced trees have n leaves", bad_trees == 0, f"({bad_trees} bad)")
    ops.check("induced heads in range", bad_heads == 0, f"({bad_heads} bad)")
    out["single_root_share"] = single_root / max(1, len(heads))


WORKLOADS = {w.name: w for w in (Teachers(), Distill(), LongAnalysis())}
