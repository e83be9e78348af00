import json
import os
import subprocess
import sys
import time

import stepbench
from synkd.encoders import TEACHER_KINDS


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
    rows = [r for r in rows if "teacher" not in r and "load" not in r]
    assert [r["objective"] for r in rows] == ["sem", "output/gcn-dep", "dep/gcn-dep",
                                              "output/gcn-con", "con/gcn-con", "all"]
    # one line per tree-teacher kind after the objectives, each timing its
    # cold and its warm reps over the same sentences, then one load line per
    # model kind
    assert printed[len(rows):] == [json.dumps(r) for r in teachers + loads]
    assert [r["load"] for r in loads] == [*TEACHER_KINDS, "student"]
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
        r["cold_ms"] + r["warm_ms"] for r in teachers) + sum(
        r["build_ms"] + r["load_ms"] for r in loads) < wall_ms
    joint = rows[-1]
    assert joint["forward_ms"] > 0.05
    # the masked-word step runs one scan, not the whole stack: the fewest ops
    assert rows[0]["tape_ops"] == min(r["tape_ops"] for r in rows)
    assert joint["tape_ops"] == max(r["tape_ops"] for r in rows)
