import json
import os
import subprocess
import sys
import time

import stepbench


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
    assert [r["objective"] for r in rows] == ["sem", "output/gcn-dep", "dep/gcn-dep",
                                              "output/gcn-con", "con/gcn-con", "all"]
    for r in rows:
        assert tuple(r) == stepbench.FIELDS
        assert (r["dims"], r["emb"], r["hidden"], r["layers"]) == ("tiny", 6, 5, 2)
        assert r["batch"] == 32 and r["tokens"] > 1 and r["repeats"] == 2
        assert isinstance(r["tape_ops"], int) and r["tape_ops"] > 0
        assert all(r[k] > 0 for k in ("forward_ms", "backward_ms", "adam_ms"))
    # milliseconds: every timed phase fits in the run's wall time, and the
    # joint step's forward pass (over a hundred tape ops) is not under 50 us
    assert sum(r[k] for r in rows for k in ("forward_ms", "backward_ms", "adam_ms")) < wall_ms
    joint = rows[-1]
    assert joint["forward_ms"] > 0.05
    # the masked-word step runs one scan, not the whole stack: the fewest ops
    assert rows[0]["tape_ops"] == min(r["tape_ops"] for r in rows)
    assert joint["tape_ops"] == max(r["tape_ops"] for r in rows)
