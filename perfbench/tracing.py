"""Traced runs: wrappers around synkd's public calls, installed from outside
the program and removed afterwards.

Every wrapped call records a span (name, start, end, parent, run id) in
memory. Tensor ops are too many for one span each, so their wrappers only
count calls and add up time, split by whether a tape was recording. A wrapper
is bound everywhere the original function is reachable by name, including
names other modules imported by value (``synkd.cli.cyk_max``,
``synkd.distill.cyk_augmented``, ``synkd.probe.ce_sum``, ...), so no call
escapes.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from synkd import cli, distill, encoders, probe, structures, syntax_data, train
from synkd import tensor as T

from benchstats import self_times

TENSOR_OPS = ("add", "sub", "mul", "scale", "neg", "matmul", "reshape", "transpose",
              "concat", "sigmoid", "tanh", "relu", "softmax", "log", "sum_", "mean",
              "dropout", "embedding", "take", "slice_rows", "slice_cols")
TEACHER_KINDS = ("tlstm-dep", "tlstm-con", "gcn-dep", "gcn-con")
LOSSES = ("output_distill", "dep_inject", "con_inject", "semantic_lm", "reg")
CLI_COMMANDS = ("eval", "induce", "probe")


def _teacher_or_student(args):
    return "student" if isinstance(args[0], encoders.StudentModel) else "teacher"


class Tracer:
    """Spans and counters of one traced pass. As a context manager it
    installs the wrappers on entry and restores the originals on exit;
    extra_modules are benchmark modules whose by-value imports of synkd
    names are rebound too."""

    def __init__(self, run_id, extra_modules=()):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op_s = {"taped": 0.0, "untaped": 0.0}
        self.op_calls = 0
        self._op_busy = False
        self._undo = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == "synkd" or name.startswith("synkd.")]
        self._modules += list(extra_modules)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            ops_before = tracer.op_calls
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (label, start, end, parent, tracer.run_id)
            if after is not None:
                after(label, args, result, tracer.op_calls - ops_before)
            return result

        return wrapper

    def _op(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_busy:  # an op built from another op counts once
                return fn(*args, **kwargs)
            tracer._op_busy = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._op_busy = False
                tracer.op_calls += 1
                taped = T.active_tape() is not None
                tracer.op_s["taped" if taped else "untaped"] += elapsed

        return wrapper

    def _rebind(self, original, wrapper):
        """Point every module-level name bound to `original` at `wrapper`."""
        for mod in self._modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _function(self, fn, name, after=None):
        self._rebind(fn, self._spanned(fn, name, after))

    def _method(self, cls, attr, name, after=None):
        self._patch(cls, attr, self._spanned(cls.__dict__[attr], name, after))

    # -- counters fed by wrappers ------------------------------------------

    def _count_reps(self, label, args, result, ops):
        kind = label.split("/", 1)[1]
        self.counts[f"reps_calls/{kind}"] += 1
        self.counts[f"reps_ops/{kind}"] += ops

    def _count_cyk(self, label, args, result, ops):
        self.counts["cyk_calls"] += 1
        self.counts["cyk_n_sum"] += args[0].n

    def _count_predict(self, label, args, result, ops):
        self.counts[f"predict_sents/{label.split('/', 1)[1]}"] += len(args[1])

    def _count_adam(self, label, args, result, ops):
        self.counts["adam_steps" if result else "adam_skipped"] += 1

    def _count_loaded(self, label, args, result, ops):
        self.counts["jsonl_sents"] += len(result)

    def _count_call(self, label, args, result, ops):
        self.counts[f"calls/{label}"] += 1

    # -- install / remove --------------------------------------------------

    def install(self):
        for op in TENSOR_OPS:
            self._rebind(getattr(T, op), self._op(getattr(T, op)))
        tracer = self
        tape_exit = T.Tape.__dict__["__exit__"]

        def counting_exit(tape, *exc):
            tracer.counts["tape_ops"] += len(tape)
            return tape_exit(tape, *exc)

        self._patch(T.Tape, "__exit__", counting_exit)
        self._method(T.Tape, "backward", "tensor.backward")
        self._method(T.Adam, "step", "tensor.adam_step", self._count_adam)

        for cls in (encoders.DepTreeLstmModel, encoders.ConTreeLstmModel,
                    encoders.GcnModel, encoders.StudentModel):
            self._method(cls, "reps", lambda a: f"encoders.reps/{a[0].kind}",
                         self._count_reps)
        self._method(encoders.StudentEncoder, "encode_batch", "encoders.encode_batch")
        self._method(encoders.ArcLabelScorer, "__call__", "encoders.scorer/arc")
        self._method(encoders.SpanScorer, "__call__", "encoders.scorer/span")
        self._function(encoders.make_teacher, "encoders.make_teacher")

        self._method(structures.SpanScores, "__init__", "structures.SpanScores")
        self._function(structures.cyk_max, "structures.cyk_max", self._count_cyk)
        self._function(structures.cyk_augmented, "structures.cyk_augmented",
                       self._count_cyk)

        for loss in LOSSES:
            self._function(getattr(distill, f"{loss}_loss"), f"distill.{loss}",
                           self._count_call)
        self._function(distill.ce_sum, "distill.ce_sum")

        self._method(train.TeacherSignals, "__init__", "train.TeacherSignals")
        self._method(train.BatchSampler, "draw", "train.batch_draw")
        self._function(train.train_teacher, "train.train_teacher")
        self._function(train.distill_student, "train.distill_student")
        self._function(train.evaluate, "train.evaluate")
        self._function(train.predict, lambda a: f"train.predict/{_teacher_or_student(a)}",
                       self._count_predict)
        self._function(train.save_checkpoint, "train.save_checkpoint")
        self._function(train.load_checkpoint, "train.load_checkpoint")

        self._function(syntax_data.load_jsonl, "syntax_data.load_jsonl",
                       self._count_loaded)
        self._function(syntax_data.save_jsonl, "syntax_data.save_jsonl")
        self._function(syntax_data.gen_synthetic, "syntax_data.gen_synthetic")

        self._function(probe.probe_train_eval, "probe.probe_train_eval")
        self._function(probe.constituent_instances, "probe.instances")
        self._function(probe.dependency_instances, "probe.instances")

        for command in CLI_COMMANDS + ("train_teacher", "distill"):
            self._function(getattr(cli, f"cmd_{command}"), f"cli.{command}")
        self._function(cli.load_model_dir, "cli.load_model_dir")
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def totals(self):
        """Inclusive seconds, self seconds and call count per span name."""
        incl, own, calls = defaultdict(float), defaultdict(float), Counter()
        for span, self_s in zip(self.spans, self_times(self.spans)):
            incl[span[0]] += span[2] - span[1]
            own[span[0]] += self_s
            calls[span[0]] += 1
        return incl, own, calls

    def child_seconds(self, parent_name, child_name):
        """Seconds spent in direct children named child_name of spans named
        parent_name."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def write(self, path, extra=None):
        incl, own, calls = self.totals()
        doc = {"run_id": self.run_id,
               "fields": ["name", "start", "end", "parent", "run_id"],
               "spans": self.spans,
               "by_name": {k: {"calls": calls[k], "incl_s": incl[k], "self_s": own[k]}
                           for k in sorted(incl)},
               "counts": dict(self.counts), "op_s": self.op_s,
               **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _unit(name):
    if name.endswith(("_ms", "_ms_per_sent")) or "_ms." in name or "_ms_per_sent." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "share"
    if name.endswith("mean_n"):
        return "tokens"
    return "count"


def per_layer_metrics(tracer, steps):
    """Per-layer metrics of one traced set-up plus one traced round, as
    {name: (value, unit)}.

    steps: (Adam steps, optimisation attempts) summed over the RunStates the
    round's training calls returned.
    """
    incl, _, _ = tracer.totals()
    c = tracer.counts

    def ms(name):
        return 1e3 * incl.get(name, 0.0)

    def per(num, den):
        return num / den if den else 0.0

    m = {
        "tensor.tape_ops": c["tape_ops"],
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.op_ms.taped": 1e3 * tracer.op_s["taped"],
        "tensor.op_ms.untaped": 1e3 * tracer.op_s["untaped"],
        "tensor.adam_step_ms": ms("tensor.adam_step"),
        "tensor.adam_steps": c["adam_steps"],
        "tensor.adam_skipped": c["adam_skipped"],
    }
    for kind in TEACHER_KINDS:
        n = c[f"reps_calls/{kind}"]
        m[f"encoders.reps_ms_per_sent.{kind}"] = per(ms(f"encoders.reps/{kind}"), n)
        m[f"encoders.tape_ops_per_sent.{kind}"] = per(c[f"reps_ops/{kind}"], n)
    m["encoders.encode_batch_ms"] = ms("encoders.encode_batch")
    m["encoders.scorer_ms.arc"] = ms("encoders.scorer/arc")
    m["encoders.scorer_ms.span"] = ms("encoders.scorer/span")
    m["structures.cyk_calls"] = c["cyk_calls"]
    m["structures.cyk_ms"] = ms("structures.cyk_max") + ms("structures.cyk_augmented")
    m["structures.cyk_mean_n"] = per(c["cyk_n_sum"], c["cyk_calls"])
    m["structures.spanscores_ms"] = ms("structures.SpanScores")
    for loss in LOSSES:
        m[f"distill.loss_ms.{loss}"] = ms(f"distill.{loss}")
        m[f"distill.loss_calls.{loss}"] = c[f"calls/distill.{loss}"]
    m["train.signals_s"] = incl.get("train.TeacherSignals", 0.0)
    for who in ("teacher", "student"):
        m[f"train.predict_ms_per_sent.{who}"] = per(ms(f"train.predict/{who}"),
                                                     c[f"predict_sents/{who}"])
    m["train.checkpoint_save_ms"] = ms("train.save_checkpoint")
    m["train.checkpoint_load_ms"] = ms("train.load_checkpoint")
    m["train.batch_draw_ms"] = ms("train.batch_draw")
    m["train.useful_step_share"] = per(steps[0], steps[1])
    m["syntax_data.load_jsonl_ms_per_sent"] = per(ms("syntax_data.load_jsonl"),
                                                  c["jsonl_sents"])
    m["syntax_data.gen_synthetic_s"] = incl.get("syntax_data.gen_synthetic", 0.0)
    m["probe.instances_ms"] = ms("probe.instances")
    m["probe.train_ms"] = ms("probe.probe_train_eval") - 1e3 * tracer.child_seconds(
        "probe.probe_train_eval", "probe.instances")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = incl.get(f"cli.{command}", 0.0)
    m["trace.spans"] = len(tracer.spans)
    return {name: (value, _unit(name)) for name, value in m.items()}
