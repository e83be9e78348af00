import os
import subprocess
import sys

import parity


def test_parity_script_prints_one_stable_line_per_task_dtype_and_model():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(parity.__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")])}
    printed = subprocess.run([sys.executable, parity.__file__], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
    # a second process prints the same hashes as this one
    assert printed == parity.lines()
    assert len(printed) == 30
    rows = [line.split() for line in printed]
    assert [r[:3] for r in rows] == [[task, dtype, kind] for task in parity.TASKS
                                     for dtype in ("float32", "float64")
                                     for kind in parity.KINDS]
    for r in rows:
        assert [f.split("=")[0] for f in r[3:]] == ["init", "batch", "tape"]
    # every model differs from every other, and the tape holds the same ops in
    # either dtype
    assert len({r[3] for r in rows}) == len({r[4] for r in rows}) == 30
    tapes = {(r[0], r[2]): r[5] for r in rows if r[1] == "float32"}
    assert all(tapes[(r[0], r[2])] == r[5] for r in rows)
