import json
import os
import subprocess
import sys
import time

import stepbench
from synkd.encoders import BATCH_ROWS, TEACHER_KINDS


def test_stepbench_prints_one_timed_line_per_objective():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(stepbench.__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")])}
    start = time.perf_counter()
    printed = subprocess.run([sys.executable, stepbench.__file__, "--dims", "tiny",
                              "--repeats", "2"], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
    wall_ms = 1e3 * (time.perf_counter() - start)
    rows = [json.loads(line) for line in printed]
    loads = [r for r in rows if "load" in r]
    teachers = [r for r in rows if "teacher" in r]
    predicts = [r for r in rows if "predict" in r]
    views = [r for r in rows if "view" in r]
    rows = [r for r in rows if not {"teacher", "view", "load", "predict"} & set(r)]
    assert [r["objective"] for r in rows] == ["sem", "output/gcn-dep", "dep/gcn-dep",
                                              "output/gcn-con", "con/gcn-con", "all"]
    # one line per tree-teacher kind after the objectives, each timing its
    # cold and its warm reps over the same sentences, then one view line per
    # corpus and view, then one load line per model kind, then one predict
    # line per model kind and budget, the shipped BATCH_ROWS first
    assert printed[len(rows):] == [json.dumps(r) for r in teachers + views + loads + predicts]
    assert [(r["corpus"], r["sentences"], r["view"]) for r in views] == [
        (corpus, k, view) for corpus, k in (("desk", 1), ("desk", 32), ("desk", 128), ("long", 40))
        for view in ("dep_view", "con_tree", "con_gcn")]
    for r in views:
        assert tuple(r) == stepbench.VIEW_FIELDS
        assert r["repeats"] == 2 and r["build_ms"] > 0
    assert [r["load"] for r in loads] == [*TEACHER_KINDS, "student"]
    budgets = list(dict.fromkeys((BATCH_ROWS, *stepbench.BUDGETS)))
    assert [(r["predict"], r["budget"]) for r in predicts] == [
        (kind, b) for kind in (*TEACHER_KINDS, "student") for b in budgets]
    for r in predicts:
        assert tuple(r) == stepbench.PREDICT_FIELDS
        assert (r["dims"], r["emb"], r["hidden"], r["layers"]) == ("tiny", 6, 5, 2)
        assert r["sentences"] == 1000 and r["repeats"] == 2 and r["ms_per_sent"] > 0
        # no pass holds more rows than the budget, a lone long sentence aside
        assert 1 <= r["passes"] < 1000 and r["rows_per_pass"] <= r["budget"]
    for kind in (*TEACHER_KINDS, "student"):
        mine = [r for r in predicts if r["predict"] == kind]
        # every budget packs the same rows (rows per pass is rounded to 0.1),
        # and a larger budget makes no more passes
        total = [r["passes"] * r["rows_per_pass"] for r in mine]
        assert max(total) - min(total) <= 0.1 * max(r["passes"] for r in mine), kind
        by_budget = sorted(mine, key=lambda r: r["budget"])
        assert all(a["passes"] >= b["passes"] for a, b in zip(by_budget, by_budget[1:])), kind
    rows_of = {r["predict"]: r["passes"] * r["rows_per_pass"] for r in predicts}
    # the student and the dep teachers count tokens, the con teachers more
    assert rows_of["student"] == rows_of["tlstm-dep"] == rows_of["gcn-dep"]
    assert rows_of["gcn-con"] > rows_of["tlstm-con"] > rows_of["student"]
    for r in loads:
        assert tuple(r) == stepbench.LOAD_FIELDS
        assert (r["dims"], r["emb"], r["hidden"], r["layers"]) == ("tiny", 6, 5, 2)
        assert r["repeats"] == 2 and r["build_ms"] > 0 and r["load_ms"] > 0
    assert [r["teacher"] for r in teachers] == list(TEACHER_KINDS)
    for r in teachers:
        assert tuple(r) == stepbench.TEACHER_FIELDS
        assert (r["emb"], r["hidden"], r["layers"], r["sentences"]) == (24, 16, 2, 128)
        assert r["repeats"] == 2 and r["cold_ms"] > 0 and r["warm_ms"] > 0
    for r in rows:
        assert tuple(r) == stepbench.FIELDS
        assert (r["dims"], r["emb"], r["hidden"], r["layers"]) == ("tiny", 6, 5, 2)
        assert r["batch"] == 32 and r["tokens"] > 1 and r["repeats"] == 2
        assert isinstance(r["tape_ops"], int) and r["tape_ops"] > 0
        assert all(r[k] > 0 for k in ("forward_ms", "backward_ms", "adam_ms"))
    # milliseconds: every timed phase fits in the run's wall time, and the
    # joint step's forward pass (over a hundred tape ops) is not under 50 us
    assert sum(r[k] for r in rows for k in ("forward_ms", "backward_ms", "adam_ms")) + sum(
        r["cold_ms"] + r["warm_ms"] for r in teachers) + sum(r["build_ms"] for r in views) + sum(
        r["build_ms"] + r["load_ms"] for r in loads) + sum(
        r["ms_per_sent"] * r["sentences"] for r in predicts) < wall_ms
    joint = rows[-1]
    assert joint["forward_ms"] > 0.05
    # the masked-word step runs one scan, not the whole stack: the fewest ops
    assert rows[0]["tape_ops"] == min(r["tape_ops"] for r in rows)
    assert joint["tape_ops"] == max(r["tape_ops"] for r in rows)
