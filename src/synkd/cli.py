"""Command-line surface: data generation, teacher pre-training, distillation,
evaluation, probing and structure induction.

Configuration comes from an optional JSON file (--config) merged with flag
overrides; ablation matrices are scripted by varying the JSON. A command
takes, checks and writes to the ``config.resolved.json`` of its output
directory only the keys it reads (``COMMANDS``), and every failure produces a
single machine-parseable JSON line on stderr plus a nonzero exit code.
"""
from __future__ import annotations

import os

# one BLAS thread unless the user set one: numpy reads these on first import,
# and this code's matrices are too small to gain from thread hand-off
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from functools import partial

import numpy as np

from .distill import DistillConfig, DistillError, TeacherSet, soft_arc_targets, soft_con_targets
from .encoders import Codec, StudentModel, TEACHER_KINDS, make_teacher
from .probe import (
    PROBE_KINDS,
    majority_accuracy,
    probe_train_eval,
    syntax_distribution,
    write_distribution,
)
from .structures import cyk_max, unbinarize  # noqa: F401 (cyk_max: perfbench/tracing.py)
from .syntax_data import DataError, fresh, gen_synthetic, load_jsonl, render_bracketed, save_jsonl
from .train import (
    RunLog,
    Schedule,
    distill_student,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train_teacher,
)


class CliError(Exception):
    """User-facing configuration or input problem; printed as one JSON line."""


# ---------------------------------------------------------------------------
# configuration

TASK_ALIASES = {"classify": "cls", "pair": "pair", "tag": "tag"}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return _is_int(v) or isinstance(v, float)


# A rule is (predicate, requirement named when the predicate fails, argparse
# options of the key's flag, or None for a key no command takes as a flag).

def _at_least(lo):
    return lambda v: _is_int(v) and v >= lo, f"integer >= {lo}", {"type": int}


def _one_of(choices):
    return (lambda v: isinstance(v, str) and v in choices,
            f"one of {'|'.join(choices)}", {"choices": list(choices)})


def _optional(rule):
    pred, req, opts = rule
    return lambda v: v is None or pred(v), req, opts


def _help(rule, text):
    pred, req, opts = rule
    return pred, req, {**opts, "help": text}


PATH = (lambda v: v is None or isinstance(v, str), "path string", {})
FLAG = (lambda v: isinstance(v, bool), "boolean", {"action": "store_true", "default": None})
WEIGHT = (lambda v: _is_num(v) and v >= 0.0, ">= 0", {"type": float})
UNIT = (lambda v: _is_num(v) and 0.0 <= v <= 1.0, "in [0, 1]", {"type": float})
STRINGS = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
           "list of strings", {})


# key: (default, *rule); the one place a key and its flag are declared
CONFIG = {
    # run identity
    "task": ("classify", *_one_of(TASK_ALIASES)),
    "seed": (0, *_at_least(0)),
    "out": (None, *PATH),
    # data paths / file layout
    "train": (None, *PATH),
    "dev": (None, *PATH),
    "data": (None, *PATH),
    "teachers": (None, lambda v: v is None or isinstance(v, str) or STRINGS[0](v),
                 "comma-separated dirs or list of dirs",
                 {"help": "comma-separated teacher run dirs"}),
    "model": (None, *_help(PATH, "run dir holding the checkpoint")),
    "dep_only": (None, *_help(PATH, "run dir of the eta=1 student")),
    "con_only": (None, *_help(PATH, "run dir of the eta=0 student")),
    # distillation scalars
    "mode": ("B", *_one_of(("A", "B"))),
    "teacher_mode": ("hard", *_one_of(("soft", "hard"))),
    "eta": (0.5, *UNIT),
    "lambda1": (0.6, *WEIGHT),
    "lambda2": (0.2, *WEIGHT),
    "zeta": (0.2, *WEIGHT),
    "alpha_fixed": (None, *_optional(UNIT)),
    "mask_ratio": (0.15, lambda v: _is_num(v) and 0.0 < v < 1.0, "in (0, 1)", None),
    # schedule / optimization; a null lr takes the command's default
    "iters": (10_000, *_at_least(1)),
    "g1": (300, *_at_least(1)),
    "g2": (128, *_at_least(1)),
    "batch": (32, *_at_least(1)),
    "lr": (None, *_optional((lambda v: _is_num(v) and v > 0.0, "> 0", {"type": float}))),
    "eval_every": (200, *_at_least(1)),
    "patience": (10, *_at_least(1)),
    # model sizes
    "emb_dim": (300, *_at_least(1)),
    "hidden": (350, *_at_least(1)),
    "layers": (3, *_at_least(1)),
    "teacher_emb": (300, *_at_least(1)),
    "teacher_hidden": (300, *_at_least(1)),
    "teacher_layers": (2, *_at_least(1)),
    # teacher pre-training
    "kind": (None, *_optional(_one_of(TEACHER_KINDS))),
    "co_train_struct": (False, *FLAG),
    # synthetic data generation
    "n": (1000, *_at_least(1)),
    "n_dev": (200, *_at_least(0)),
    "n_test": (200, *_at_least(0)),
    "max_len": (12, lambda v: _is_int(v) and 4 <= v <= 20, "integer in [4, 20]", {"type": int}),
    "grammar_size": (5, *_at_least(2)),
    # probing
    "probe_task": (None, *_optional(_one_of(PROBE_KINDS))),
    "probe_iters": (400, *_at_least(1)),
}

# a model dir's codec.json key: its rule; a key whose rule passes null may be left out
CODEC_KEYS = {"task": _one_of(("cls", "pair", "tag")), "vocab": STRINGS, "dep_labels": STRINGS,
              "con_labels": STRINGS, "tags": _optional(STRINGS), "n_classes": _at_least(1)}

_SCHEDULE = "iters batch lr eval_every patience"

# command: (help, every config key it reads, its defaults); the one list of the
# keys a command takes (as flags, but for config-only ones), checks and records
COMMANDS = {
    "gen-data": ("write synthetic train/dev/test JSONL",
                 "seed task out n n_dev n_test max_len grammar_size", {}),
    "train-teacher": ("supervised tree-teacher pre-training",
                      f"seed out kind train dev {_SCHEDULE} teacher_emb teacher_hidden "
                      "teacher_layers co_train_struct", {"iters": 2000, "lr": 1e-3}),
    "distill": ("distill frozen teachers into the student",
                "seed out train dev teachers teacher_mode emb_dim hidden layers mode "
                f"eta lambda1 lambda2 zeta alpha_fixed mask_ratio g1 g2 {_SCHEDULE}",
                {"lr": 1e-5}),
    "eval": ("metrics of a saved model on a dataset", "out model data", {}),
    "probe": ("linear probes and dominance analysis",
              "seed out model train data probe_task probe_iters dep_only con_only", {}),
    "induce": ("emit induced trees and head lists", "out model data", {}),
}


def resolve(args, command):
    """Every key `command` reads: defaults < per-command defaults < JSON
    config < explicit flags.

    Returns the effective config plus the set of keys the user set
    explicitly (anything else may be adapted, e.g. schedule defaults for
    short runs).
    """
    _, keys, command_defaults = COMMANDS[command]
    cfg = {key: command_defaults.get(key, CONFIG[key][0]) for key in keys.split()}
    explicit = set()
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = _read_json(config_path, "config file")
        if "command" in loaded and isinstance(loaded.get("config"), dict):
            # a config.resolved.json replays its own command only; one written
            # before each command recorded its own keys holds every command's
            if loaded["command"] != command:
                raise CliError(f"config {config_path} records a {loaded['command']!r} run, "
                               f"not {command!r}")
            loaded = {k: v for k, v in loaded["config"].items() if k in cfg or k not in CONFIG}
        for key in loaded:
            if key not in CONFIG:
                raise CliError(f"config {config_path}: unknown key {key!r}")
        for key in loaded:
            if key not in cfg:
                raise CliError(f"config {config_path}: key {key!r} is not read by {command}")
        cfg.update(loaded)
        explicit.update(loaded)
    for key, val in vars(args).items():
        if key in cfg and val is not None:
            cfg[key] = val
            explicit.add(key)
    for key, val in cfg.items():
        _, pred, req, _ = CONFIG[key]
        if not pred(val):
            raise CliError(f"config key {key!r}={val!r} invalid: expected {req}")
    if "lr" in cfg and cfg["lr"] is None:
        cfg["lr"] = command_defaults.get("lr")
    return cfg, explicit


def need(cfg, key):
    if cfg.get(key) is None:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _check_out(cfg, out):
    """Refuse an --out that is a model dir the run would overwrite."""
    read = [cfg[key] for key in ("model", "dep_only", "con_only") if key in cfg]
    for d in read + (_teacher_dirs(cfg) if "teachers" in cfg else []):
        if d and os.path.realpath(d) == os.path.realpath(out):
            raise CliError(f"--out {out} is the model dir {d} this command reads")


def write_resolved(path, command, cfg, artifacts):
    payload = {"command": command, "config": dict(cfg)}
    if artifacts:
        payload["artifacts"] = artifacts
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# model directories

def save_model_dir(out_dir, model):
    save_checkpoint(os.path.join(out_dir, "model.syd1"), model.p.state_dict())
    with open(fresh(os.path.join(out_dir, "codec.json")), "w", encoding="utf-8") as fh:
        json.dump(model.codec.to_json(), fh)


def _read_json(path, what):
    """A JSON object file: a --config or a model directory's."""
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"{path}: invalid JSON ({e.msg})") from None
    if not isinstance(payload, dict):
        raise CliError(f"{path}: top level must be an object")
    return payload


def load_model_dir(path):
    """Rebuild a saved model (teacher or student) from its run directory: its
    kind and sizes from config.resolved.json, its optional parts (a student's
    mode-A projections, a teacher's structure head) from the checkpoint's
    parameter names, and every array from the checkpoint, none drawn."""
    meta = _read_json(os.path.join(path, "config.resolved.json"), "run config")
    if not all(isinstance(meta.get(part, {}), dict) for part in ("config", "artifacts")):
        raise CliError(f"{path}: config.resolved.json 'config' and 'artifacts' must be objects")
    codec = _read_json(os.path.join(path, "codec.json"), "codec")
    for key, (pred, req, _) in CODEC_KEYS.items():
        if key not in codec and not pred(None):
            raise CliError(f"{path}: codec.json lacks key {key!r}")
        if not pred(codec.get(key)):
            raise CliError(f"{path}: codec.json key {key!r} invalid: expected {req}")
    if codec["task"] == "tag" and not codec.get("tags"):
        raise CliError(f"{path}: codec.json key 'tags' invalid: expected a non-empty "
                       "list of strings for task 'tag'")
    mcfg = meta.get("config", {})
    kind = meta.get("artifacts", {}).get("model_kind")
    if kind == "student":
        dims, build = ("emb_dim", "hidden", "layers"), StudentModel
    elif kind in TEACHER_KINDS:
        dims = ("teacher_emb", "teacher_hidden", "teacher_layers")
        build = partial(make_teacher, kind)
    else:
        raise CliError(f"{path}: unrecognized model_kind {kind!r}")
    for key in dims:
        if key not in mcfg:
            raise CliError(f"{path}: config.resolved.json lacks key {key!r}")
        _, pred, req, _ = CONFIG[key]
        if not pred(mcfg[key]):
            raise CliError(f"{path}: config.resolved.json key {key!r}={mcfg[key]!r} "
                           f"invalid: expected {req}")
    model = build(Codec.from_json(codec), *(mcfg[key] for key in dims), rng=None)
    state = load_checkpoint(os.path.join(path, "model.syd1"))
    for name, arr in state.items():
        if kind == "student":
            if name.startswith("proj/f_t/") and name.endswith("/W") and arr.ndim == 2:
                model.add_projection(name[len("proj/f_t/"):-len("/W")], arr.shape[0])
        elif name.startswith(("arc/", "span/")) and not model.struct_heads:
            model.add_structure_head(model.structure)
    model.p.load_state_dict(state)
    return model


def _load_encs(cfg, key, codec=None, gold=True):
    """The encoded examples of a data file and their codec: `codec`, or one
    built from them for their first payload's task. Where the command reads
    the file's gold, a payload of another task or a gold label the codec
    lacks is refused, naming the file and the example, before any model runs."""
    path = need(cfg, key)
    if not os.path.exists(path):
        raise CliError(f"data file not found: {path}")
    examples = load_jsonl(path)
    try:
        if codec is None:
            if not examples:
                raise ValueError("empty training set")
            codec = Codec(examples, examples[0].payload_kind())
        elif gold:
            codec.check(examples)
    except DataError as e:
        raise CliError(f"{path}: {e}") from None
    return [codec.encode(ex) for ex in examples], codec


def _best_dev(state):
    return None if state.best_iter < 0 else state.best_metric


# ---------------------------------------------------------------------------
# commands: cmd_<name>(cfg, out, explicit) returns its report line and the
# artifacts of its config.resolved.json, both written by main

def cmd_gen_data(cfg, out, explicit):
    task = TASK_ALIASES[cfg["task"]]
    report = {"out": out}
    for split, count, bump in (("train", cfg["n"], 0), ("dev", cfg["n_dev"], 1),
                               ("test", cfg["n_test"], 2)):
        if count < 1:
            continue
        examples = gen_synthetic(count, max_len=cfg["max_len"],
                                 seed=cfg["seed"] + bump, task=task,
                                 grammar_size=cfg["grammar_size"])
        path = os.path.join(out, f"{split}.jsonl")
        save_jsonl(examples, path)
        report[split] = path
        report[f"n_{split}"] = count
    return report, None


def cmd_train_teacher(cfg, out, explicit):
    kind = need(cfg, "kind")
    train_encs, codec = _load_encs(cfg, "train")
    dev_encs = _load_encs(cfg, "dev", codec)[0] if cfg["dev"] else None
    model = make_teacher(kind, codec, emb_dim=cfg["teacher_emb"],
                         hidden=cfg["teacher_hidden"],
                         n_layers=cfg["teacher_layers"],
                         rng=np.random.default_rng(cfg["seed"]))
    with RunLog(fresh(os.path.join(out, "log.jsonl"))) as log:  # one run's rows
        state = train_teacher(model, train_encs, dev_encs, iters=cfg["iters"],
                              batch_size=cfg["batch"], lr=cfg["lr"],
                              eval_every=cfg["eval_every"],
                              patience=cfg["patience"], seed=cfg["seed"],
                              log=log, co_train_struct=cfg["co_train_struct"])
    save_model_dir(out, model)
    return ({"kind": kind, "iters_run": state.t, "best_dev": _best_dev(state), "out": out},
            {"model_kind": kind})


def _teacher_dirs(cfg):
    spec = cfg["teachers"] or []
    return [d.strip() for d in (spec.split(",") if isinstance(spec, str) else spec)]


def _load_teachers(cfg):
    """The frozen teachers and their codec, the first teacher's; (None, None)
    when no teacher is named."""
    dirs = _teacher_dirs(cfg)
    if not dirs:
        return None, None
    dep, con, codec = [], [], None
    for d in dirs:
        if not d:
            raise CliError(f"--teachers {cfg['teachers']!r} has an empty entry")
        model = load_model_dir(d)
        if model.kind not in TEACHER_KINDS:
            raise CliError(f"{d}: not a teacher checkpoint ({model.kind!r})")
        codec = codec or model.codec
        if model.codec.to_json() != codec.to_json():
            raise CliError(f"{d}: teacher codec differs from the first teacher's")
        if cfg["teacher_mode"] == "soft" and model.structure not in model.struct_heads:
            raise CliError(f"{d}: teacher lacks a structure head; retrain with "
                           "co_train_struct for teacher_mode=soft")
        (dep if model.structure == "dep" else con).append(model)
    return TeacherSet(dep=dep, con=con), codec


def cmd_distill(cfg, out, explicit):
    teachers, codec = _load_teachers(cfg)
    train_encs, codec = _load_encs(cfg, "train", codec)
    dev_encs = _load_encs(cfg, "dev", codec)[0] if cfg["dev"] else None
    dcfg = DistillConfig(
        eta=cfg["eta"],
        lam1=cfg["lambda1"],
        lam2=cfg["lambda2"],
        zeta=cfg["zeta"],
        mode=cfg["mode"],
        teacher_mode=cfg["teacher_mode"],
        mask_ratio=cfg["mask_ratio"],
        alpha_fixed=cfg["alpha_fixed"],
    )
    # default phase lengths shrink to fit short runs; explicit values are
    # taken literally and validated by the schedule itself
    if "g1" not in explicit:
        cfg["g1"] = min(cfg["g1"], cfg["iters"])
    if "g2" not in explicit:
        cfg["g2"] = min(cfg["g2"], cfg["g1"])
    sched = Schedule(total=cfg["iters"], g1=cfg["g1"], g2=cfg["g2"])
    student = StudentModel(codec, emb_dim=cfg["emb_dim"], hidden=cfg["hidden"],
                           n_layers=cfg["layers"],
                           rng=np.random.default_rng(cfg["seed"]))
    with RunLog(fresh(os.path.join(out, "log.jsonl"))) as log:  # one run's rows
        state = distill_student(student, teachers, train_encs, dev_encs,
                                dcfg, sched, batch_size=cfg["batch"],
                                lr=cfg["lr"], eval_every=cfg["eval_every"],
                                patience=cfg["patience"], seed=cfg["seed"],
                                log=log)
    save_model_dir(out, student)
    return ({"iters_run": state.t, "best_dev": _best_dev(state), "out": out},
            {"model_kind": "student"})


def cmd_eval(cfg, out, explicit):
    model = load_model_dir(need(cfg, "model"))
    encs, _ = _load_encs(cfg, "data", model.codec)
    metrics = evaluate(model, encs)
    report = {"command": "eval", "data": cfg["data"], "n": len(encs), **metrics}
    with open(fresh(os.path.join(out, "eval.json")), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report, None


def cmd_probe(cfg, out, explicit):
    kind = need(cfg, "probe_task")
    model = load_model_dir(need(cfg, "model"))
    train_encs, _ = _load_encs(cfg, "train", model.codec, gold=False)
    # the dominance analysis reads the eval set's gold through every model,
    # encoded once with --model's codec
    ablations = []
    for key in ("dep_only", "con_only") if cfg["dep_only"] or cfg["con_only"] else ():
        ablations.append(load_model_dir(need(cfg, key)))
        if ablations[-1].codec.to_json() != model.codec.to_json():
            raise CliError(f"{cfg[key]}: codec differs from the --model's")
    eval_encs, _ = _load_encs(cfg, "data", model.codec, gold=bool(ablations))
    acc, y_eval = probe_train_eval(model, kind, train_encs, eval_encs,
                                   iters=cfg["probe_iters"], seed=cfg["seed"])
    report = {"command": "probe", "probe_task": kind, "accuracy": acc,
              "majority_baseline": majority_accuracy(y_eval),
              "n_eval_instances": int(len(y_eval))}
    if ablations:
        scores, summary = syntax_distribution(model, *ablations, eval_encs)
        write_distribution(out, scores, summary)
        report["dominance"] = summary
    with open(fresh(os.path.join(out, "probe.json")), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report, None


def cmd_induce(cfg, out, explicit):
    """Write each sentence's CYK tree and argmax heads, one pass per `batches` chunk."""
    model = load_model_dir(need(cfg, "model"))
    if model.kind != "student":
        raise CliError("induce needs a student checkpoint with structure heads")
    encs, _ = _load_encs(cfg, "data", model.codec, gold=False)
    con_itos = model.codec.con_labels.itos
    tree_lines, head_lines = [None] * len(encs), [None] * len(encs)
    for chunk in model.batches(encs):
        main = model.reps([encs[i].main for i in chunk])
        for i, (_, _, heads), bt in zip(chunk,
                                        soft_arc_targets(model.struct_heads["dep"], main),
                                        soft_con_targets(model.struct_heads["con"], main)):
            head_lines[i] = " ".join(str(int(h)) for h in heads)
            bt.spans = {s: con_itos[l] for s, l in bt.spans.items()}
            tree_lines[i] = render_bracketed(unbinarize(bt, encs[i].raw.sent.tokens))
    trees_path = os.path.join(out, "induced_trees.txt")
    heads_path = os.path.join(out, "induced_heads.txt")
    with open(fresh(trees_path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(tree_lines) + "\n")
    with open(fresh(heads_path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(head_lines) + "\n")
    return {"n": len(encs), "trees": trees_path, "heads": heads_path}, None


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def build_parser():
    parser = _Parser(prog="synkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, keys, _) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file")
        for key in keys.split():
            if CONFIG[key][3] is not None:
                p.add_argument("--" + key.replace("_", "-"), **CONFIG[key][3])
    return parser


_PARSER = None  # built by the first main call and reused by the later ones


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg, explicit = resolve(args, args.command)
        out = need(cfg, "out")
        _check_out(cfg, out)
        os.makedirs(out, exist_ok=True)
        # a failed run leaves no resolved config to mark its dir as finished
        resolved = fresh(os.path.join(out, "config.resolved.json"))
        # looked up by name on every call, so a rebound cli.cmd_* is the one called
        report, artifacts = globals()["cmd_" + args.command.replace("-", "_")](cfg, out, explicit)
        write_resolved(resolved, args.command, cfg, artifacts)
    except CliError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1
    except (DataError, DistillError, FloatingPointError, ValueError, OSError) as e:
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return 1
    print(json.dumps({"command": args.command, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
