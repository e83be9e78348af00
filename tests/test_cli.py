import argparse
import functools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from synkd import cli
from synkd.cli import CONFIG, build_parser, main, resolve
from synkd.encoders import TEACHER_KINDS
from synkd.syntax_data import example_to_dict, gen_synthetic, parse_bracketed
from synkd.train import load_checkpoint, read_log, save_checkpoint


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(out):
    lines = [l for l in out.strip().splitlines() if l.strip()]
    return json.loads(lines[-1])


# --------------------------------------------------------------- small corpus

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny generated corpus + four trained teachers, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["gen-data", "--seed", "7", "--n", "40", "--n-dev", "10",
               "--n-test", "10", "--max-len", "8", "--grammar-size", "4",
               "--out", str(data)])
    assert rc == 0
    teacher_dirs = []
    for kind in ("tlstm-dep", "gcn-dep", "tlstm-con", "gcn-con"):
        out = root / f"t_{kind}"
        rc = main(["train-teacher", "--kind", kind,
                   "--train", str(data / "train.jsonl"),
                   "--dev", str(data / "dev.jsonl"),
                   "--iters", "20", "--batch", "8", "--teacher-emb", "10",
                   "--teacher-hidden", "8", "--teacher-layers", "1",
                   "--eval-every", "10", "--seed", "3", "--out", str(out)])
        assert rc == 0
        teacher_dirs.append(str(out))
    return {"root": root, "data": data, "teachers": ",".join(teacher_dirs)}


def distill_args(workspace, out, *extra):
    return ["distill", "--train", str(workspace["data"] / "train.jsonl"),
            "--dev", str(workspace["data"] / "dev.jsonl"),
            "--teachers", workspace["teachers"],
            "--iters", "6", "--g1", "4", "--g2", "2", "--batch", "4",
            "--emb-dim", "10", "--hidden", "8", "--layers", "2",
            "--eval-every", "3", "--seed", "5", "--out", str(out), *extra]


# ------------------------------------------------------------------- gen-data

def test_gen_data_byte_identical(tmp_path, capsys):
    args = ["gen-data", "--seed", "7", "--n", "25", "--n-dev", "0",
            "--n-test", "0", "--max-len", "8"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "train.jsonl").read_bytes()
    b = (tmp_path / "b" / "train.jsonl").read_bytes()
    assert a == b
    assert main(["gen-data", "--seed", "8", "--n", "25", "--n-dev", "0",
                 "--n-test", "0", "--max-len", "8",
                 "--out", str(tmp_path / "c")]) == 0
    assert a != (tmp_path / "c" / "train.jsonl").read_bytes()
    capsys.readouterr()


def test_gen_data_resolved_config(tmp_path, capsys):
    rc, out, _ = run(capsys, "gen-data", "--seed", "9", "--n", "5", "--n-dev",
                     "0", "--n-test", "0", "--max-len", "6",
                     "--out", str(tmp_path / "d"))
    assert rc == 0
    resolved = json.loads((tmp_path / "d" / "config.resolved.json").read_text())
    assert resolved["command"] == "gen-data"
    assert resolved["config"]["seed"] == 9
    assert resolved["config"]["n"] == 5
    assert resolved["config"]["max_len"] == 6


# ------------------------------------------------------------------- pipeline

def test_teacher_artifacts(workspace):
    first = workspace["teachers"].split(",")[0]
    for name in ("model.syd1", "codec.json", "log.jsonl", "config.resolved.json"):
        assert os.path.exists(os.path.join(first, name)), name
    with open(os.path.join(first, "config.resolved.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["artifacts"]["model_kind"] == "tlstm-dep"


def test_distill_eval_pipeline(workspace, tmp_path, capsys):
    student = tmp_path / "student"
    rc, out, _ = run(capsys, *distill_args(workspace, student))
    assert rc == 0
    assert last_json(out)["iters_run"] == 6
    meta = json.loads((student / "config.resolved.json").read_text())
    assert meta["artifacts"]["model_kind"] == "student"

    rc, out, _ = run(capsys, "eval", "--model", str(student), "--data",
                     str(workspace["data"] / "test.jsonl"),
                     "--out", str(tmp_path / "ev"))
    assert rc == 0
    report = last_json(out)
    assert 0.0 <= report["accuracy"] <= 100.0
    assert json.loads((tmp_path / "ev" / "eval.json").read_text()) == report


def _no_constants(name):
    raise ValueError(f"not valid JSON: {name}")


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_best_dev_is_null_when_no_dev_eval_ran(workspace, tmp_path, capsys, command):
    data = workspace["data"]
    if command == "train-teacher":
        args = ["train-teacher", "--kind", "gcn-dep", "--train", str(data / "train.jsonl"),
                "--dev", str(data / "dev.jsonl"), "--iters", "2", "--teacher-emb", "10",
                "--teacher-hidden", "8", "--out", str(tmp_path / "t")]
    else:
        args = distill_args(workspace, tmp_path / "s", "--iters", "2", "--g1", "2",
                            "--g2", "1")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1], parse_constant=_no_constants)["best_dev"] is None


@pytest.fixture(scope="module")
def default_run(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert main(distill_args(workspace, out)) == 0
    return [(out / f).read_bytes() for f in ("model.syd1", "log.jsonl")]


@pytest.mark.parametrize("switch, value", [
    ("--no-syn", ["--lambda1", "0"]), ("--no-sem", ["--lambda2", "0"]),
    ("--no-reg", ["--zeta", "0"]), ("--no-anneal", ["--alpha-fixed", "1"])])
def test_distill_ablation_switch_is_its_value(workspace, default_run, tmp_path, capsys,
                                              switch, value):
    # the paper's ablations (no syntax injection, no semantic loss, no
    # regularizer, no annealing) are config values, not switches of their own;
    # each value changes what the run writes
    rc, _, err = run(capsys, *distill_args(workspace, tmp_path / "switch", switch))
    assert rc == 2
    assert one_error_line(err) == f"unrecognized arguments: {switch}"
    assert main(distill_args(workspace, tmp_path / "value", *value)) == 0
    capsys.readouterr()
    written = [(tmp_path / "value" / f).read_bytes() for f in ("model.syd1", "log.jsonl")]
    assert all(a != b for a, b in zip(written, default_run))


def test_resolved_config_reproduces_run(workspace, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(distill_args(workspace, out1)) == 0
    # replay from the resolved config alone; only the output dir changes
    assert main(["distill", "--config", str(out1 / "config.resolved.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "model.syd1").read_bytes() == (out2 / "model.syd1").read_bytes()
    capsys.readouterr()


def test_resolved_config_with_every_command_keys_replays(workspace, tmp_path, capsys):
    # runs before each command recorded only its own keys wrote all CONFIG keys;
    # the replay skips the other commands' keys and records only its own
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(distill_args(workspace, out1)) == 0
    old = _pad_to_every_key(shutil.copytree(out1, tmp_path / "old"))
    assert main(["distill", "--config", os.path.join(old, "config.resolved.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "model.syd1").read_bytes() == (out2 / "model.syd1").read_bytes()
    configs = [json.loads((o / "config.resolved.json").read_text())["config"]
               for o in (out1, out2)]
    assert configs[1] == {**configs[0], "out": str(out2)}
    capsys.readouterr()


def test_resolved_config_replays_only_its_own_command(workspace, tmp_path, capsys):
    resolved = os.path.join(workspace["teachers"].split(",")[0], "config.resolved.json")
    rc, out, err = run(capsys, "distill", "--config", resolved, "--out", str(tmp_path / "s"))
    assert rc == 1 and not out
    assert one_error_line(err) == f"config {resolved} records a 'train-teacher' run, not 'distill'"
    assert not (tmp_path / "s").exists()


def test_distill_zero_lambdas_zero_components(workspace, tmp_path, capsys):
    out = tmp_path / "zl"
    rc, _, _ = run(capsys, *distill_args(workspace, out, "--lambda1", "0",
                                         "--lambda2", "0"))
    assert rc == 0
    rows = read_log(out / "log.jsonl")
    syn = [r["value"] for r in rows if r["metric"] == "loss_syn"]
    sem = [r["value"] for r in rows if r["metric"] == "loss_sem"]
    outp = [r["value"] for r in rows if r["metric"] == "loss_output"]
    assert syn and sem and outp
    assert all(v == 0.0 for v in syn)
    assert all(v == 0.0 for v in sem)
    assert any(v > 0.0 for v in outp)


def test_distill_without_teachers_is_supervised(workspace, tmp_path, capsys):
    out = tmp_path / "sup"
    rc, _, _ = run(capsys, "distill", "--train",
                   str(workspace["data"] / "train.jsonl"),
                   "--iters", "3", "--batch", "4", "--emb-dim", "8",
                   "--hidden", "6", "--layers", "1", "--seed", "1",
                   "--out", str(out))
    assert rc == 0
    assert (out / "model.syd1").exists()


def test_mode_a_round_trip(workspace, tmp_path, capsys):
    student = tmp_path / "sa"
    rc, _, _ = run(capsys, *distill_args(workspace, student, "--mode", "A"))
    assert rc == 0
    assert any(k.startswith("proj/f_t/") for k in load_checkpoint(student / "model.syd1"))
    rc, out, _ = run(capsys, "eval", "--model", str(student), "--data",
                     str(workspace["data"] / "test.jsonl"),
                     "--out", str(tmp_path / "eva"))
    assert rc == 0


def test_soft_mode_needs_structure_heads(workspace, tmp_path, capsys):
    rc, _, err = run(capsys, *distill_args(workspace, tmp_path / "soft",
                                           "--teacher-mode", "soft"))
    assert rc == 1
    assert "structure head" in json.loads(err.strip().splitlines()[-1])["error"]


def test_soft_mode_round_trip(workspace, tmp_path, capsys):
    # teachers co-trained with structure heads reload those heads and feed a
    # soft-mode distill run
    data = workspace["data"]
    teachers = []
    for kind, prefix in (("gcn-dep", "arc/"), ("gcn-con", "span/")):
        out = tmp_path / kind
        assert main(["train-teacher", "--kind", kind, "--co-train-struct",
                     "--train", str(data / "train.jsonl"), "--iters", "4", "--batch", "8",
                     "--teacher-emb", "10", "--teacher-hidden", "8", "--teacher-layers", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        model = cli.load_model_dir(str(out))
        state, saved = model.p.state_dict(), load_checkpoint(out / "model.syd1")
        assert sorted(state) == sorted(saved)
        assert all(np.array_equal(state[k], saved[k]) for k in saved)
        assert any(k.startswith(prefix) for k in state)
        teachers.append(str(out))
    capsys.readouterr()
    rc, out, err = run(capsys, *distill_args({**workspace, "teachers": ",".join(teachers)},
                                             tmp_path / "soft", "--teacher-mode", "soft"))
    assert rc == 0, err
    assert last_json(out)["command"] == "distill"


def test_probe_command(workspace, tmp_path, capsys):
    student = tmp_path / "sp"
    assert main(distill_args(workspace, student)) == 0
    rc, out, _ = run(capsys, "probe", "--model", str(student),
                     "--train", str(workspace["data"] / "train.jsonl"),
                     "--data", str(workspace["data"] / "test.jsonl"),
                     "--probe-task", "dependency-labeling",
                     "--probe-iters", "40", "--out", str(tmp_path / "pr"))
    assert rc == 0
    report = last_json(out)
    assert report["probe_task"] == "dependency-labeling"
    assert 0.0 <= report["accuracy"] <= 100.0
    assert (tmp_path / "pr" / "probe.json").exists()
    assert (tmp_path / "pr" / "config.resolved.json").exists()


def test_probe_dominance_outputs(workspace, tmp_path, capsys):
    full = tmp_path / "full"
    dep_only = tmp_path / "dep1"
    con_only = tmp_path / "con0"
    assert main(distill_args(workspace, full)) == 0
    assert main(distill_args(workspace, dep_only, "--eta", "1")) == 0
    assert main(distill_args(workspace, con_only, "--eta", "0")) == 0
    rc, out, _ = run(capsys, "probe", "--model", str(full),
                     "--train", str(workspace["data"] / "train.jsonl"),
                     "--data", str(workspace["data"] / "test.jsonl"),
                     "--probe-task", "dependency-labeling",
                     "--probe-iters", "20",
                     "--dep-only", str(dep_only), "--con-only", str(con_only),
                     "--out", str(tmp_path / "dom"))
    assert rc == 0
    summary = last_json(out)["dominance"]
    assert sum(b["count"] for b in summary["bins"]) == summary["n"] == 10
    assert (tmp_path / "dom" / "dominance_hist.csv").exists()
    assert (tmp_path / "dom" / "dominance_summary.json").exists()


def test_probe_without_instances_is_one_json_error_line(workspace, tmp_path, capsys):
    one_token = tmp_path / "one.jsonl"
    one_token.write_text(json.dumps({
        "tokens": ["runs"], "dep_heads": [0], "dep_labels": ["root"],
        "con_tree": "(S (V runs))", "label": 0}) + "\n")
    gcn_dep = workspace["teachers"].split(",")[1]
    rc, out, err = run(capsys, "probe", "--model", gcn_dep,
                       "--train", str(one_token),
                       "--data", str(workspace["data"] / "test.jsonl"),
                       "--probe-task", "dependency-labeling",
                       "--probe-iters", "5", "--out", str(tmp_path / "pr"))
    assert rc == 1 and not out
    assert one_error_line(err) == ("DataError: dependency-labeling probe has no "
                                   "instances in the train split")


# -------------------------------------------------------------------- induce

def test_induce_outputs_and_two_token_bracketing(workspace, tmp_path, capsys):
    student = tmp_path / "si"
    assert main(distill_args(workspace, student)) == 0
    # a two-token sentence admits exactly one binary bracketing
    two = tmp_path / "two.jsonl"
    two.write_text(json.dumps({
        "tokens": ["the", "dog"],
        "dep_heads": [2, 0],
        "dep_labels": ["det", "root"],
        "con_tree": "(NP (Det the) (N dog))",
        "label": 0,
    }) + "\n")
    rc, out, _ = run(capsys, "induce", "--model", str(student), "--data",
                     str(two), "--out", str(tmp_path / "ind"))
    assert rc == 0
    trees = (tmp_path / "ind" / "induced_trees.txt").read_text().strip().splitlines()
    heads = (tmp_path / "ind" / "induced_heads.txt").read_text().strip().splitlines()
    assert len(trees) == 1 and len(heads) == 1
    parsed = parse_bracketed(trees[0])[0]
    positions = {(i, j) for i, j, _ in parsed.spans()}
    assert positions == {(0, 1), (1, 2), (0, 2)}
    head_vals = [int(h) for h in heads[0].split()]
    assert len(head_vals) == 2
    assert all(0 <= h <= 2 for h in head_vals)


def unseen_label_data(workspace, path, old, new):
    """The test split with every `old` replaced by `new`, which training never saw."""
    text = (workspace["data"] / "test.jsonl").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return path


def one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])["error"]


def test_unseen_labels_fail_only_models_that_read_them(workspace, tmp_path, capsys):
    student = tmp_path / "su"
    assert run(capsys, *distill_args(workspace, student))[0] == 0
    con_data = unseen_label_data(workspace, tmp_path / "con.jsonl", "(Det the)", "(DT the)")
    dep_data = unseen_label_data(workspace, tmp_path / "dep.jsonl", '"det"', '"dt"')
    # the student reads token ids only
    for data in (con_data, dep_data):
        rc, out, _ = run(capsys, "eval", "--model", str(student), "--data", str(data),
                         "--out", str(tmp_path / "ev"))
        assert rc == 0 and last_json(out)["n"] == 10
    rc, _, _ = run(capsys, "induce", "--model", str(student), "--data", str(con_data),
                   "--out", str(tmp_path / "ind"))
    assert rc == 0
    # the constituency teachers and the constituent probe read the labels
    for teacher in workspace["teachers"].split(",")[2:]:
        rc, out, err = run(capsys, "eval", "--model", teacher, "--data", str(con_data),
                           "--out", str(tmp_path / "evt"))
        assert rc == 1 and not out
        assert one_error_line(err) == "DataError: unknown label 'DT'"
    rc, _, err = run(capsys, "probe", "--model", str(student),
                     "--train", str(workspace["data"] / "train.jsonl"),
                     "--data", str(con_data), "--probe-task", "constituent-labeling",
                     "--probe-iters", "5", "--out", str(tmp_path / "pr"))
    assert rc == 1
    assert one_error_line(err) == "DataError: unknown label 'DT'"


def test_student_with_dependent_arc_term_rejected(workspace, tmp_path, capsys):
    # a student saved while the arc scorer still had its dependent-only term
    student = tmp_path / "sw"
    assert run(capsys, *distill_args(workspace, student))[0] == 0
    state = load_checkpoint(student / "model.syd1")
    state["arc/wd"] = np.zeros((8, 1), dtype=np.float32)
    save_checkpoint(student / "model.syd1", state)
    rc, out, err = run(capsys, "eval", "--model", str(student), "--data",
                       str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path / "ev"))
    assert rc == 1 and not out
    assert "arc/wd" in one_error_line(err)


def test_induce_rejects_teacher_checkpoint(workspace, tmp_path, capsys):
    first = workspace["teachers"].split(",")[0]
    rc, _, err = run(capsys, "induce", "--model", first, "--data",
                     str(workspace["data"] / "test.jsonl"),
                     "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "student" in json.loads(err.strip().splitlines()[-1])["error"]


# --------------------------------------------------------- data of another task

TASK_FLAGS = {"cls": "classify", "pair": "pair", "tag": "tag"}


@pytest.fixture(scope="module")
def task_runs(tmp_path_factory):
    """Per task: a small corpus and a one-step supervised student over it."""
    root = tmp_path_factory.mktemp("tasks")
    runs = {}
    for task, flag in TASK_FLAGS.items():
        data = root / task
        assert main(["gen-data", "--task", flag, "--seed", "3", "--n", "16", "--n-dev", "0",
                     "--n-test", "6", "--max-len", "8", "--grammar-size", "4",
                     "--out", str(data)]) == 0
        student = root / f"{task}-student"
        assert main(["distill", "--task", flag, "--train", str(data / "train.jsonl"),
                     "--iters", "1", "--batch", "4", "--emb-dim", "8", "--hidden", "6",
                     "--layers", "1", "--out", str(student)]) == 0
        runs[task] = {"data": data, "student": str(student)}
    return runs


def payload_error(path, data_task, model_task):
    return f"{path}: example 0 has a {data_task} payload, not one of task {model_task!r}"


OTHER_TASKS = [(m, d) for m in TASK_FLAGS for d in TASK_FLAGS if m != d]


@pytest.mark.parametrize("model_task, data_task", OTHER_TASKS)
def test_eval_on_data_of_another_task_is_one_json_error_line(task_runs, tmp_path, capsys,
                                                            model_task, data_task):
    data = task_runs[data_task]["data"] / "test.jsonl"
    rc, out, err = run(capsys, "eval", "--model", task_runs[model_task]["student"],
                       "--data", str(data), "--out", str(tmp_path / "ev"))
    assert rc == 1 and not out
    assert one_error_line(err) == payload_error(data, data_task, model_task)
    assert not (tmp_path / "ev" / "eval.json").exists()


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
@pytest.mark.parametrize("data_task", ["pair", "tag"])
def test_training_on_data_of_another_task_is_one_json_error_line(task_runs, tmp_path, capsys,
                                                                command, data_task):
    train = task_runs[data_task]["data"] / "train.jsonl"
    extra = ["--kind", "gcn-dep"] if command == "train-teacher" else []
    rc, out, err = run(capsys, command, "--task", "classify", "--train", str(train),
                       "--iters", "1", "--out", str(tmp_path / "out"), *extra)
    assert rc == 1 and not out
    assert one_error_line(err) == payload_error(train, data_task, "cls")
    assert not (tmp_path / "out" / "log.jsonl").exists()


@pytest.mark.parametrize("split", ["train", "dev"])
def test_distill_label_outside_the_teachers_classes_fails_before_training(
        workspace, tmp_path, capsys, split):
    records = [json.loads(l) for l in
               (workspace["data"] / f"{split}.jsonl").read_text().splitlines()]
    records[1]["label"] = 2  # the teachers' codec has classes 0 and 1
    path = tmp_path / f"{split}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    args = distill_args(workspace, tmp_path / "s")
    args[args.index(f"--{split}") + 1] = str(path)
    rc, out, err = run(capsys, *args)
    assert rc == 1 and not out
    assert one_error_line(err) == (f"{path}: example 1 has gold 2, not a cls class "
                                   "of the model (2 classes)")
    assert not (tmp_path / "s" / "log.jsonl").exists()


@pytest.mark.parametrize("model_task, data_task", OTHER_TASKS)
def test_induce_and_probe_read_data_of_any_task(task_runs, tmp_path, capsys,
                                                model_task, data_task):
    # neither reads a payload, so a file of another task gives the same
    # results as its sentences under the student's own task
    student, data = task_runs[model_task]["student"], task_runs[data_task]["data"]
    rc, out, err = run(capsys, "induce", "--model", student,
                       "--data", str(data / "test.jsonl"), "--out", str(tmp_path / "ind"))
    assert rc == 0, err
    assert last_json(out)["n"] == 6
    rc, out, err = run(capsys, "probe", "--model", student, "--train", str(data / "train.jsonl"),
                       "--data", str(data / "test.jsonl"), "--probe-task", "dependency-labeling",
                       "--probe-iters", "5", "--out", str(tmp_path / "pr"))
    assert rc == 0, err
    assert 0.0 <= last_json(out)["accuracy"] <= 100.0


def test_probe_dominance_refuses_data_of_another_task(task_runs, tmp_path, capsys):
    student = task_runs["cls"]["student"]
    data = task_runs["tag"]["data"] / "test.jsonl"
    rc, out, err = run(capsys, "probe", "--model", student,
                       "--train", str(task_runs["cls"]["data"] / "train.jsonl"),
                       "--data", str(data), "--probe-task", "dependency-labeling",
                       "--probe-iters", "5", "--dep-only", student, "--con-only", student,
                       "--out", str(tmp_path / "pr"))
    assert rc == 1 and not out
    assert one_error_line(err) == payload_error(data, "tag", "cls")


@pytest.mark.parametrize("other", ["tag-student", "cls-student-of-other-data"])
@pytest.mark.parametrize("key", ["dep-only", "con-only"])
def test_probe_dominance_refuses_a_model_of_another_codec(workspace, model_dirs, task_runs,
                                                          tmp_path, capsys, other, key):
    # the eval set is encoded once, with --model's codec, for all three models
    student = model_dirs["student-B"]
    odd = task_runs["tag" if other == "tag-student" else "cls"]["student"]
    ablation = {"dep-only": student, "con-only": student, key: odd}
    rc, out, err = run(capsys, "probe", "--model", student,
                       "--train", str(workspace["data"] / "train.jsonl"),
                       "--data", str(workspace["data"] / "test.jsonl"),
                       "--probe-task", "dependency-labeling", "--probe-iters", "5",
                       "--dep-only", ablation["dep-only"], "--con-only", ablation["con-only"],
                       "--out", str(tmp_path / "pr"))
    assert rc == 1 and not out
    assert one_error_line(err) == f"{odd}: codec differs from the --model's"


_DROP = object()


@pytest.mark.parametrize("name, where, value, message", [
    pytest.param("config.resolved.json", ("config", "teacher_emb"), _DROP,
                 "{model}: config.resolved.json lacks key 'teacher_emb'",
                 id="config.resolved.json-teacher_emb"),
    pytest.param("codec.json", ("vocab",), _DROP, "{model}: codec.json lacks key 'vocab'",
                 id="codec.json-vocab"),
    pytest.param("config.resolved.json", ("config", "teacher_hidden"), "4",
                 "{model}: config.resolved.json key 'teacher_hidden'='4' invalid: "
                 "expected integer >= 1", id="config.resolved.json-teacher_hidden"),
    pytest.param("codec.json", ("vocab",), 5,
                 "{model}: codec.json key 'vocab' invalid: expected list of strings",
                 id="codec.json-vocab-int"),
    pytest.param("codec.json", ("dep_labels",), None,
                 "{model}: codec.json key 'dep_labels' invalid: expected list of strings",
                 id="codec.json-dep_labels-null"),
    pytest.param("codec.json", ("con_labels",), ["S", 1],
                 "{model}: codec.json key 'con_labels' invalid: expected list of strings",
                 id="codec.json-con_labels-int-entry"),
    pytest.param("codec.json", ("tags",), "O",
                 "{model}: codec.json key 'tags' invalid: expected list of strings",
                 id="codec.json-tags-str"),
    pytest.param("codec.json", ("task",), "classify",
                 "{model}: codec.json key 'task' invalid: expected one of cls|pair|tag",
                 id="codec.json-task"),
    pytest.param("codec.json", ("n_classes",), "x",
                 "{model}: codec.json key 'n_classes' invalid: expected integer >= 1",
                 id="codec.json-n_classes-str"),
    pytest.param("codec.json", ("n_classes",), 0,
                 "{model}: codec.json key 'n_classes' invalid: expected integer >= 1",
                 id="codec.json-n_classes-zero"),
    pytest.param("config.resolved.json", ("artifacts",), [],
                 "{model}: config.resolved.json 'config' and 'artifacts' must be objects",
                 id="config.resolved.json-artifacts"),
    pytest.param("config.resolved.json", (), [],
                 "{model}/config.resolved.json: top level must be an object",
                 id="config.resolved.json-list"),
    pytest.param("codec.json", (), [], "{model}/codec.json: top level must be an object",
                 id="codec.json-list"),
])
def test_incomplete_model_dir_is_one_json_error_line(workspace, tmp_path, capsys,
                                                     name, where, value, message):
    # value goes to the key path `where` (the whole file when empty); _DROP deletes the key
    model = tmp_path / "m"
    shutil.copytree(workspace["teachers"].split(",")[0], model)
    payload = json.loads((model / name).read_text())
    if not where:
        payload = value
    else:
        *outer, key = where
        fields = functools.reduce(dict.__getitem__, outer, payload)
        if value is _DROP:
            del fields[key]
        else:
            fields[key] = value
    (model / name).write_text(json.dumps(payload))
    rc, out, err = run(capsys, "eval", "--model", str(model), "--data",
                       str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path / "ev"))
    assert rc == 1 and not out
    assert "Traceback" not in err
    assert one_error_line(err) == message.format(model=model)


@pytest.mark.parametrize("tags", [_DROP, None, []], ids=["absent", "null", "empty"])
def test_tag_codec_without_tags_is_one_json_error_line(workspace, tmp_path, capsys, tags):
    # every per-key rule passes these; eval used to die encoding the tags
    model = tmp_path / "m"
    shutil.copytree(workspace["teachers"].split(",")[0], model)
    codec = json.loads((model / "codec.json").read_text())
    codec["task"] = "tag"
    if tags is _DROP:
        del codec["tags"]
    else:
        codec["tags"] = tags
    (model / "codec.json").write_text(json.dumps(codec))
    rc, out, err = run(capsys, "eval", "--model", str(model), "--data",
                       str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path / "ev"))
    assert rc == 1 and not out
    assert "Traceback" not in err
    assert one_error_line(err) == (f"{model}: codec.json key 'tags' invalid: expected a "
                                   "non-empty list of strings for task 'tag'")


@pytest.mark.parametrize("name", ["config.resolved.json", "codec.json"])
def test_model_dir_file_that_is_not_json_is_one_json_error_line(workspace, tmp_path,
                                                                capsys, name):
    model = tmp_path / "m"
    shutil.copytree(workspace["teachers"].split(",")[0], model)
    (model / name).write_text('{"command": ')
    rc, out, err = run(capsys, "eval", "--model", str(model), "--data",
                       str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path / "ev"))
    assert rc == 1 and not out
    assert "Traceback" not in err
    assert one_error_line(err) == f"{model}/{name}: invalid JSON (Expecting value)"


def test_model_dir_with_a_removed_key_loads_but_does_not_replay(workspace, tmp_path, capsys):
    # every command used to write the no_* ablation switches into its resolved config
    model = tmp_path / "m"
    shutil.copytree(workspace["teachers"].split(",")[0], model)
    resolved = model / "config.resolved.json"
    meta = json.loads(resolved.read_text())
    meta["config"]["no_sem"] = False
    resolved.write_text(json.dumps(meta))
    rc, out, _ = run(capsys, "eval", "--model", str(model), "--data",
                     str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path / "ev"))
    assert rc == 0 and last_json(out)["n"] == 10
    rc, out, err = run(capsys, "train-teacher", "--config", str(resolved),
                       "--out", str(tmp_path / "t"))
    assert rc == 1 and not out
    assert one_error_line(err) == f"config {resolved}: unknown key 'no_sem'"


# -------------------------------------------------------------------- errors

def _edited_teacher(workspace, tmp_path, name, edit):
    """A copy of the first teacher's directory whose JSON file `name` went
    through edit."""
    model = tmp_path / "m"
    shutil.copytree(workspace["teachers"].split(",")[0], model)
    payload = json.loads((model / name).read_text())
    edit(payload)
    (model / name).write_text(json.dumps(payload))
    return str(model)


def _config_case(text, message):
    def case(workspace, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        return ["gen-data", "--config", str(path), "--out", str(tmp_path / "x")], \
            message.format(path=path)
    return case


def _unknown_kind_case(workspace, tmp_path, capsys):
    model = _edited_teacher(workspace, tmp_path, "config.resolved.json",
                            lambda meta: meta["artifacts"].update(model_kind="bogus"))
    return (["eval", "--model", model, "--data", str(workspace["data"] / "test.jsonl"),
             "--out", str(tmp_path / "ev")], f"{model}: unrecognized model_kind 'bogus'")


def _student_teacher_case(workspace, tmp_path, capsys):
    student = tmp_path / "student"
    assert main(["distill", "--train", str(workspace["data"] / "train.jsonl"),
                 "--iters", "1", "--batch", "4", "--emb-dim", "8", "--hidden", "6",
                 "--layers", "1", "--out", str(student)]) == 0
    capsys.readouterr()
    return (distill_args({**workspace, "teachers": str(student)}, tmp_path / "s"),
            f"{student}: not a teacher checkpoint ('student')")


def _codec_mismatch_case(workspace, tmp_path, capsys):
    other = _edited_teacher(workspace, tmp_path, "codec.json",
                            lambda codec: codec["dep_labels"].reverse())
    teachers = workspace["teachers"].split(",")[0] + "," + other
    return (distill_args({**workspace, "teachers": teachers}, tmp_path / "s"),
            f"{other}: teacher codec differs from the first teacher's")


@pytest.mark.parametrize("case", [
    pytest.param(_config_case(None, "config file not found: {path}"), id="config-missing"),
    pytest.param(_config_case('{"n": ', "{path}: invalid JSON (Expecting value)"),
                 id="config-invalid-json"),
    pytest.param(_config_case("[1]", "{path}: top level must be an object"),
                 id="config-not-an-object"),
    pytest.param(lambda workspace, tmp_path, capsys: (["gen-data"], "missing required option --out"),
                 id="missing-required-option"),
    pytest.param(_unknown_kind_case, id="unknown-model-kind"),
    pytest.param(lambda workspace, tmp_path, capsys: (
        distill_args(workspace, tmp_path / "s", "--task", "pair"),
        "model was built for task 'cls', requested 'pair'; pass a matching --task"),
        id="task-differs-from-teachers"),
    pytest.param(_student_teacher_case, id="student-as-teacher"),
    pytest.param(_codec_mismatch_case, id="teacher-codecs-differ"),
])
def test_cli_error_is_one_json_line(workspace, tmp_path, capsys, case):
    argv, message = case(workspace, tmp_path, capsys)
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and not out
    assert "Traceback" not in err
    assert one_error_line(err) == message


def test_unknown_flag_exits_2_with_json(capsys):
    rc, _, err = run(capsys, "distill", "--bogus-flag")
    assert rc == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])


def test_invalid_range_rejected(tmp_path, capsys):
    rc, _, err = run(capsys, "gen-data", "--max-len", "99",
                     "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "max_len" in json.loads(err.strip().splitlines()[-1])["error"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    # a key no command reads is named before one that only another command reads
    for text in ('{"mystery": 3}', '{"eta": 1, "mystery": 3}'):
        cfg.write_text(text)
        for command in ("gen-data", "eval"):
            rc, _, err = run(capsys, command, "--config", str(cfg),
                             "--out", str(tmp_path / "x"))
            assert rc == 1
            assert one_error_line(err) == f"config {cfg}: unknown key 'mystery'"


@pytest.mark.parametrize("command, key, value", [
    ("eval", "eta", 0.1), ("eval", "probe_iters", 5), ("eval", "seed", 1),
    ("induce", "task", "classify"), ("probe", "task", "pair"), ("gen-data", "mask_ratio", 0.1),
])
def test_config_key_the_command_does_not_read_is_one_json_error_line(tmp_path, capsys,
                                                                     command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc, out, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1 and not out
    assert one_error_line(err) == f"config {cfg}: key {key!r} is not read by {command}"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flag", [("eval", "--seed"), ("eval", "--task"),
                                           ("induce", "--seed"), ("induce", "--task"),
                                           ("probe", "--task")])
def test_flag_the_command_does_not_read_is_unknown(tmp_path, capsys, command, flag):
    rc, out, err = run(capsys, command, flag, "1", "--out", str(tmp_path / "x"))
    assert rc == 2 and not out
    assert f"unrecognized arguments: {flag} 1" in one_error_line(err)


# one wrongly typed value per config key, run by a command that reads the key
WRONG_TYPES = {
    "task": ("gen-data", 1), "seed": ("gen-data", "1"), "out": ("gen-data", 1),
    "n": ("gen-data", "10"), "n_dev": ("gen-data", "2"), "n_test": ("gen-data", 2.0),
    "max_len": ("gen-data", "8"), "grammar_size": ("gen-data", [4]),
    "train": ("train-teacher", 1), "dev": ("train-teacher", ["dev.jsonl"]),
    "kind": ("train-teacher", 1), "iters": ("train-teacher", "5"),
    "batch": ("train-teacher", "8"), "lr": ("train-teacher", "0.1"),
    "eval_every": ("train-teacher", "1"), "patience": ("train-teacher", "3"),
    "teacher_emb": ("train-teacher", "8"), "teacher_hidden": ("train-teacher", "8"),
    "teacher_layers": ("train-teacher", "1"), "co_train_struct": ("train-teacher", "yes"),
    "teachers": ("distill", [1]), "teacher_mode": ("distill", 1), "mode": ("distill", 1),
    "eta": ("distill", "0.5"), "lambda1": ("distill", "0"), "lambda2": ("distill", "0"),
    "zeta": ("distill", "0"), "alpha_fixed": ("distill", "1"), "mask_ratio": ("distill", "0.1"),
    "g1": ("distill", "4"), "g2": ("distill", "2"), "emb_dim": ("distill", "8"),
    "hidden": ("distill", "8"), "layers": ("distill", "1"),
    "model": ("eval", 1), "data": ("eval", 2), "dep_only": ("probe", 1), "con_only": ("probe", 1),
    "probe_task": ("probe", 1), "probe_iters": ("probe", "5"),
}


@pytest.mark.parametrize("key", sorted(CONFIG))
def test_mistyped_config_value_is_one_json_error_line(tmp_path, capsys, key):
    command, value = WRONG_TYPES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc, _, err = run(capsys, command, "--config", str(cfg))
    assert rc == 1
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert f"config key {key!r}=" in json.loads(line)["error"]


def test_null_lr_takes_the_command_default(tmp_path):
    cfg = tmp_path / "lr.json"
    cfg.write_text('{"lr": null}')
    for command, lr in (("train-teacher", 1e-3), ("distill", 1e-5)):
        args = build_parser().parse_args([command, "--config", str(cfg)])
        assert resolve(args, command)[0]["lr"] == lr
    # eval reads no lr, so a config that sets one is refused
    with pytest.raises(cli.CliError, match="key 'lr' is not read by eval"):
        resolve(build_parser().parse_args(["eval", "--config", str(cfg)]), "eval")


def test_mistyped_label_is_one_json_error_line(tmp_path, capsys):
    rc, _, _ = run(capsys, "gen-data", "--seed", "2", "--n", "4", "--n-dev", "0",
                   "--n-test", "0", "--out", str(tmp_path / "d"))
    assert rc == 0
    path = tmp_path / "d" / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[2]["label"] = 0.5
    path.write_text("".join(json.dumps(d) + "\n" for d in records))
    rc, _, err = run(capsys, "train-teacher", "--kind", "gcn-dep", "--train", str(path),
                     "--out", str(tmp_path / "t"))
    assert rc == 1
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == (
        "DataError: line 3: label must be a non-negative integer, got 0.5")


@pytest.mark.parametrize("task, key, value, message", [
    ("cls", "dep_heads", "12", "dep_heads must be a list of integers"),
    ("cls", "con_tree", 3, "con_tree must be a string"),
    ("cls", "tokens", 4, "tokens must be a list of strings"),
    ("cls", "dep_labels", None, "dep_labels must be a list of strings"),
    ("tag", "tags", "OOO", "tags must be a list of strings"),
    ("pair", "pair_dep_heads", [0.0], "pair_dep_heads must be a list of integers"),
    ("cls", "tags", ["O"], "tag payload missing 'predicate'"),
    ("tag", "label", 1, "tag payload with stray field 'label'"),
])
def test_mistyped_field_is_one_json_error_line(tmp_path, capsys, task, key, value, message):
    records = [example_to_dict(ex) for ex in gen_synthetic(3, seed=6, task=task)]
    records[1][key] = value
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in records))
    rc, _, err = run(capsys, "train-teacher", "--kind", "gcn-con", "--train", str(path),
                     "--task", "classify" if task == "cls" else task,
                     "--out", str(tmp_path / "t"))
    assert rc == 1
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == f"DataError: line 2: {message}"


def test_missing_files_rejected(tmp_path, capsys):
    rc, _, err = run(capsys, "eval", "--model", str(tmp_path / "nosuch"),
                     "--data", "also-nosuch.jsonl", "--out", str(tmp_path / "x"))
    assert rc == 1
    assert json.loads(err.strip().splitlines()[-1])["error"]
    rc, _, err = run(capsys, "distill", "--train",
                     str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "y"))
    assert rc == 1


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_missing_dev_file_is_a_data_file_error(workspace, tmp_path, capsys, command):
    # a missing --dev reads like a missing --train, before any training
    dev = str(tmp_path / "no-dev.jsonl")
    extra = ["--kind", "gcn-dep"] if command == "train-teacher" else []
    rc, _, err = run(capsys, command, "--train", str(workspace["data"] / "train.jsonl"),
                     "--dev", dev, "--out", str(tmp_path / "out"), *extra)
    assert rc == 1
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": f"data file not found: {dev}"}


@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_empty_dev_file_fails_before_training(workspace, tmp_path, capsys, command):
    dev = tmp_path / "empty.jsonl"
    dev.write_text("")
    extra = ["--kind", "gcn-dep"] if command == "train-teacher" else []
    rc, out, err = run(capsys, command, "--train", str(workspace["data"] / "train.jsonl"),
                       "--dev", str(dev), "--iters", "5", "--eval-every", "4",
                       "--out", str(tmp_path / "out"), *extra)
    assert rc == 1 and not out
    assert one_error_line(err) == "ValueError: empty dev set"
    assert all(r["iteration"] == 0 for r in read_log(tmp_path / "out" / "log.jsonl"))
    assert not (tmp_path / "out" / "model.syd1").exists()


def test_empty_teachers_entry_is_one_json_error_line(workspace, tmp_path, capsys,
                                                     monkeypatch):
    # an empty entry would name the working directory, here a teacher's dir
    first = workspace["teachers"].split(",")[0]
    monkeypatch.chdir(first)
    for spec in (f"{first},", f"{first}, ,{first}", ","):
        rc, out, err = run(capsys, *distill_args({**workspace, "teachers": spec},
                                                 tmp_path / "s"))
        assert rc == 1 and not out
        assert one_error_line(err) == f"--teachers {spec!r} has an empty entry"


def _contract_argv(command, workspace, tmp_path, out):
    data = workspace["data"]
    train, test = str(data / "train.jsonl"), str(data / "test.jsonl")
    student = str(tmp_path / "student")
    if command == "induce":
        assert main(["distill", "--train", train, "--iters", "1", "--batch", "4",
                     "--emb-dim", "8", "--hidden", "6", "--layers", "1",
                     "--out", student]) == 0
    argv = {
        "gen-data": ["--n", "5", "--n-dev", "0", "--n-test", "0", "--max-len", "6"],
        "train-teacher": ["--kind", "gcn-con", "--train", train, "--iters", "2",
                          "--teacher-emb", "6", "--teacher-hidden", "4",
                          "--teacher-layers", "1"],
        "distill": distill_args(workspace, out, "--iters", "2", "--g1", "2", "--g2", "1")[1:],
        "eval": ["--model", workspace["teachers"].split(",")[1], "--data", test],
        "probe": ["--model", workspace["teachers"].split(",")[1], "--train", train,
                  "--data", test, "--probe-task", "dependency-labeling",
                  "--probe-iters", "5"],
        "induce": ["--model", student, "--data", test],
    }[command]
    return [command, *argv] if command == "distill" else [command, *argv, "--out", str(out)]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_writes_one_report_line_and_its_resolved_config(
        workspace, tmp_path, capsys, command):
    argv = _contract_argv(command, workspace, tmp_path, tmp_path / "out")
    capsys.readouterr()
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and not err
    (line,) = out.splitlines()
    assert json.loads(line)["command"] == command
    resolved = json.loads((tmp_path / "out" / "config.resolved.json").read_text())
    assert resolved["command"] == command
    artifacts = {"train-teacher": {"model_kind": "gcn-con"},
                 "distill": {"model_kind": "student"}}.get(command)
    assert resolved.get("artifacts") == artifacts


@pytest.mark.parametrize("command", [*cli.COMMANDS, "probe-dominance"])
def test_rerun_replaces_every_file_and_ends_as_a_fresh_dir(workspace, tmp_path, capsys,
                                                           command):
    # a rerun into the same --out unlinks each file it writes and writes it
    # anew rather than truncating it in place: a hard link taken before the
    # rerun keeps the old file, and the dir ends as one run leaves a fresh dir
    # (log.jsonl holds that run's rows only)
    out = tmp_path / "out"
    if command == "probe-dominance":
        teachers = workspace["teachers"].split(",")
        argv = [*_contract_argv("probe", workspace, tmp_path, out),
                "--dep-only", teachers[0], "--con-only", teachers[2]]
    else:
        argv = _contract_argv(command, workspace, tmp_path, out)
    assert main(argv) == 0
    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    for name in first:
        os.link(out / name, tmp_path / f"{name}.before")
    assert main(argv) == 0
    capsys.readouterr()
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == first
    for name in first:
        assert not os.path.samefile(out / name, tmp_path / f"{name}.before"), name
    assert {"gen-data": {"train.jsonl"}, "train-teacher": {"model.syd1", "log.jsonl"},
            "distill": {"codec.json", "log.jsonl"}, "eval": {"eval.json"},
            "probe": {"probe.json"}, "induce": {"induced_trees.txt", "induced_heads.txt"},
            "probe-dominance": {"dominance_hist.csv", "dominance_summary.json"},
            }[command] | {"config.resolved.json"} <= set(first)


class _ReadKeys(dict):
    """A config that records each key read from it into `reads`."""

    def __init__(self, cfg, reads):
        super().__init__(cfg)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_command_reads_and_records_exactly_the_keys_it_declares(workspace, tmp_path, capsys,
                                                                  monkeypatch, command):
    # a declared key that the run never reads is a knob that changes nothing
    argv = _contract_argv(command, workspace, tmp_path, tmp_path / "out")
    reads, ran = set(), set()
    resolve_all, run_command = cli.resolve, getattr(cli, "cmd_" + command.replace("-", "_"))

    def recording(args, name):
        cfg, explicit = resolve_all(args, name)
        return _ReadKeys(cfg, reads), explicit

    def recording_run(cfg, out, explicit):
        # only the command's own reads count: main reads "out" for every command,
        # and reads the model dirs it checks --out against before the command runs
        reads.clear()
        result = run_command(cfg, out, explicit)
        ran.update(reads)
        return result

    monkeypatch.setattr(cli, "resolve", recording)
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), recording_run)
    assert main(argv) == 0
    capsys.readouterr()
    resolved = json.loads((tmp_path / "out" / "config.resolved.json").read_text())
    assert ran | {"out"} == set(cli.COMMANDS[command][1].split()) == set(resolved["config"])


@pytest.mark.parametrize("case", ["eval", "eval-dot", "eval-link", "distill-teacher",
                                  "probe-dep-only", "probe-con-only"])
def test_out_that_is_a_model_dir_the_run_reads_is_refused_untouched(workspace, tmp_path,
                                                                    capsys, case):
    teachers = workspace["teachers"].split(",")
    data = workspace["data"]
    model = tmp_path / "m"
    shutil.copytree(teachers[1], model)
    out = str(model)
    if case == "eval-dot":
        out = os.path.join(out, ".")
    elif case == "eval-link":
        out = str(tmp_path / "link")
        os.symlink(model, out)
    probe = ["probe", "--model", teachers[1], "--probe-task", "dependency-labeling",
             "--train", str(data / "train.jsonl"), "--data", str(data / "test.jsonl"),
             "--out", out]
    argv = {"distill-teacher": distill_args({**workspace, "teachers": f"{teachers[0]},{model}"},
                                            out),
            "probe-dep-only": [*probe, "--dep-only", str(model), "--con-only", teachers[2]],
            "probe-con-only": [*probe, "--dep-only", teachers[0], "--con-only", str(model)],
            }.get(case, ["eval", "--model", str(model), "--data", str(data / "test.jsonl"),
                         "--out", out])
    before = {name: ((model / name).read_bytes(), os.stat(model / name).st_ino)
              for name in os.listdir(model)}
    rc, stdout, err = run(capsys, *argv)
    assert rc == 1 and not stdout
    assert one_error_line(err) == f"--out {out} is the model dir {model} this command reads"
    assert {name: ((model / name).read_bytes(), os.stat(model / name).st_ino)
            for name in os.listdir(model)} == before


def test_failed_rerun_leaves_no_resolved_config(workspace, tmp_path, capsys):
    # config.resolved.json marks a finished run, so a failed rerun must not keep the old one
    out, model = tmp_path / "ev", workspace["teachers"].split(",")[1]
    assert main(["eval", "--model", model, "--data", str(workspace["data"] / "test.jsonl"),
                 "--out", str(out)]) == 0
    assert (out / "config.resolved.json").exists()
    missing = str(tmp_path / "missing.jsonl")
    rc, _, err = run(capsys, "eval", "--model", model, "--data", missing, "--out", str(out))
    assert rc == 1 and one_error_line(err) == f"data file not found: {missing}"
    assert not (out / "config.resolved.json").exists()


@pytest.fixture(scope="module")
def model_dirs(workspace, tmp_path_factory):
    """A model dir of every layout: each teacher kind without and with a
    co-trained structure head, and students of modes A and B."""
    root = tmp_path_factory.mktemp("dirs")
    dirs = dict(zip(TEACHER_KINDS, workspace["teachers"].split(",")))
    for kind in TEACHER_KINDS:
        dirs[f"{kind}+head"] = str(root / kind)
        assert main(["train-teacher", "--kind", kind, "--co-train-struct",
                     "--train", str(workspace["data"] / "train.jsonl"), "--iters", "2",
                     "--batch", "8", "--teacher-emb", "10", "--teacher-hidden", "8",
                     "--teacher-layers", "1", "--seed", "3",
                     "--out", dirs[f"{kind}+head"]]) == 0
    for mode in "AB":
        dirs[f"student-{mode}"] = str(root / f"student-{mode}")
        assert main(distill_args(workspace, dirs[f"student-{mode}"], "--mode", mode,
                                 "--iters", "2", "--g1", "2", "--g2", "1")) == 0
    return dirs


@pytest.mark.parametrize("name", [*TEACHER_KINDS, *(f"{k}+head" for k in TEACHER_KINDS),
                                  "student-A", "student-B"])
def test_model_dir_round_trip_keeps_checkpoint_names(model_dirs, name):
    # a dir's optional parts come back from its checkpoint's names alone
    saved = list(load_checkpoint(os.path.join(model_dirs[name], "model.syd1")))
    assert cli.load_model_dir(model_dirs[name]).p.names() == saved
    # every layout is here: students always hold both heads
    heads = any(n.startswith(("arc/", "span/")) for n in saved)
    projections = any(n.startswith("proj/f_t/") for n in saved)
    assert heads == (name.endswith("+head") or name.startswith("student"))
    assert projections == (name == "student-A")


@pytest.mark.parametrize("name, part, key, value", [
    ("student-A", "artifacts", "projections", "from-model"),
    ("student-A", "artifacts", "projections", [1]),
    ("student-A", "artifacts", "projections", {"f_t/x": 3}),
    ("gcn-dep", "config", "co_train_struct", True),
    ("tlstm-con+head", "config", "co_train_struct", False),
])
def test_model_dir_ignores_keys_that_named_its_optional_parts(workspace, model_dirs, tmp_path,
                                                              capsys, name, part, key, value):
    # dirs written before the checkpoint alone named a model's optional parts
    # recorded them as a `projections` artifact or by `co_train_struct`
    model = tmp_path / "m"
    shutil.copytree(model_dirs[name], model)
    meta = json.loads((model / "config.resolved.json").read_text())
    if value == "from-model":
        value = {k[len("proj/"):-len("/W")]: list(w.shape) for k, w in
                 cli.load_model_dir(str(model)).p.tensors.items()
                 if k.startswith("proj/") and k.endswith("/W")}
    meta[part][key] = value
    (model / "config.resolved.json").write_text(json.dumps(meta))
    reports = []
    for d in (model_dirs[name], model):
        rc, out, err = run(capsys, "eval", "--model", str(d), "--data",
                           str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path / "ev"))
        assert rc == 0, err
        reports.append((out, (tmp_path / "ev" / "eval.json").read_bytes()))
    assert reports[0] == reports[1]


def _pad_to_every_key(model_dir):
    """The model dir, its config.resolved.json rewritten as runs wrote it before
    each command recorded only its own keys: every CONFIG key, the others at
    their defaults."""
    resolved = os.path.join(model_dir, "config.resolved.json")
    with open(resolved, encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["config"] = {**{key: default for key, (default, *_) in CONFIG.items()},
                      **meta["config"]}
    with open(resolved, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return str(model_dir)


@pytest.mark.parametrize("command, name, made", [
    ("eval", "tlstm-con", "eval.json"), ("eval", "student-A", "eval.json"),
    ("probe", "student-B", "probe.json"), ("induce", "student-B", "induced_trees.txt"),
    ("distill", None, "model.syd1"),
])
def test_model_dirs_that_hold_every_command_keys_still_load(workspace, model_dirs, tmp_path,
                                                            capsys, command, name, made):
    data = workspace["data"]
    made_bytes = []
    for padded in (False, True):
        dirs = workspace["teachers"].split(",") if name is None else [model_dirs[name]]
        if padded:
            dirs = [_pad_to_every_key(shutil.copytree(d, tmp_path / f"old{i}"))
                    for i, d in enumerate(dirs)]
        out = tmp_path / f"out-{padded}"
        argv = {
            "eval": ["eval", "--model", dirs[0], "--data", str(data / "test.jsonl")],
            "probe": ["probe", "--model", dirs[0], "--probe-task", "constituent-labeling",
                      "--probe-iters", "5", "--train", str(data / "train.jsonl"),
                      "--data", str(data / "test.jsonl")],
            "induce": ["induce", "--model", dirs[0], "--data", str(data / "test.jsonl")],
            "distill": distill_args({**workspace, "teachers": ",".join(dirs)}, out)[:-2],
        }[command]
        rc, _, err = run(capsys, *argv, "--out", str(out))
        assert rc == 0, err
        made_bytes.append((out / made).read_bytes())
    assert made_bytes[0] == made_bytes[1]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "synkd.cli", "gen-data", "--seed", "1", "--n",
         "4", "--n-dev", "0", "--n-test", "0", "--max-len", "6",
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["command"] == "gen-data"


def test_cli_pins_one_blas_thread_unless_set():
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import os, sys; import synkd.cli; assert 'numpy' in sys.modules; "
            f"print(*(os.environ[v] for v in {blas!r}))")
    for given, expect in ((None, "1 1 1"), ("3", "3 1 1")):
        env = {k: v for k, v in os.environ.items() if k not in blas}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == expect.split()


# ------------------------------------------------------------------- flag set

# every command's flags as (type, choices, action, default): the pinned CLI
# surface that the parser built from CONFIG and COMMANDS must match
_STR, _INT, _FLOAT = (None, None, "store", None), (int, None, "store", None), \
    (float, None, "store", None)
_SWITCH = (None, None, "store_true", None)
_TASK = {"--task": (None, ["classify", "pair", "tag"], "store", None)}
_COMMON = {"--config": _STR, "--seed": _INT, "--out": _STR, **_TASK}
_MODEL_DATA = {"--config": _STR, "--out": _STR, "--model": _STR, "--data": _STR}
_SCHEDULE = {"--iters": _INT, "--batch": _INT, "--lr": _FLOAT, "--eval-every": _INT,
             "--patience": _INT}
FLAG_SET = {
    "gen-data": {**_COMMON, "--n": _INT, "--n-dev": _INT, "--n-test": _INT,
                 "--max-len": _INT, "--grammar-size": _INT},
    "train-teacher": {
        **_COMMON, **_SCHEDULE, "--train": _STR, "--dev": _STR,
        "--kind": (None, ["tlstm-dep", "gcn-dep", "tlstm-con", "gcn-con"], "store", None),
        "--teacher-emb": _INT, "--teacher-hidden": _INT, "--teacher-layers": _INT,
        "--co-train-struct": _SWITCH},
    "distill": {
        **_COMMON, **_SCHEDULE, "--train": _STR, "--dev": _STR, "--teachers": _STR,
        "--teacher-mode": (None, ["soft", "hard"], "store", None),
        "--emb-dim": _INT, "--hidden": _INT, "--layers": _INT,
        "--mode": (None, ["A", "B"], "store", None), "--eta": _FLOAT,
        "--lambda1": _FLOAT, "--lambda2": _FLOAT, "--zeta": _FLOAT,
        "--alpha-fixed": _FLOAT, "--g1": _INT, "--g2": _INT},
    "eval": _MODEL_DATA,
    "probe": {
        **_MODEL_DATA, "--seed": _INT, "--train": _STR,
        "--probe-task": (None, ["constituent-labeling", "dependency-labeling"], "store", None),
        "--probe-iters": _INT, "--dep-only": _STR, "--con-only": _STR},
    "induce": _MODEL_DATA,
}
_ACTIONS = {argparse._StoreAction: "store", argparse._StoreTrueAction: "store_true"}


def test_flag_set_is_pinned():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(FLAG_SET)
    dests = set()
    for command, parser in sub.choices.items():
        flags = {}
        for a in parser._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            (flag,) = a.option_strings
            flags[flag] = (a.type, a.choices, _ACTIONS.get(type(a), type(a).__name__),
                           a.default)
            dests.add(a.dest)
        assert flags == FLAG_SET[command], command
        # a command's keys are its flags, and distill's config-only mask_ratio
        keys = {f[2:].replace("-", "_") for f in flags} - {"config"}
        assert set(cli.COMMANDS[command][1].split()) == keys | (
            {"mask_ratio"} if command == "distill" else set()), command
    # every key but mask_ratio can be set from the command line
    assert dests == set(CONFIG) - {"mask_ratio"} | {"config"}
    assert {c: len(keys.split()) for c, (_, keys, _) in cli.COMMANDS.items()} == {
        "gen-data": 8, "train-teacher": 15, "distill": 24, "eval": 3, "probe": 9, "induce": 3}


def test_main_builds_its_parser_once_and_calls_the_current_command(monkeypatch, tmp_path,
                                                                    capsys):
    # the tracer rebinds cli.cmd_* after the parser exists; main must call the
    # rebound function, not one bound when the parser was built
    monkeypatch.setattr(cli, "_PARSER", None)
    built, ran = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "cmd_eval",
                        lambda cfg, out, explicit: ran.append("first") or ({}, None))
    assert main(["eval", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(cli, "cmd_eval",
                        lambda cfg, out, explicit: ran.append("second") or ({}, None))
    assert main(["eval", "--data", "x.jsonl", "--out", str(tmp_path)]) == 0
    assert built == [1] and ran == ["first", "second"]
    capsys.readouterr()
