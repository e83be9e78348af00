import math
import time

import numpy as np
import pytest

from synkd.distill import one_hot, output_distill_loss, total_loss
from synkd.tensor import Tensor

from speed import Clock
from workloads import DrawCounter, IterClock, Ops


def test_raising_stage_is_a_failed_op_and_later_stages_run():
    ops = Ops()

    def confident_student():
        # gold class 1 at float32 logits [0, 120]: the output loss is NaN
        logits = Tensor(np.array([[0.0, 120.0]], dtype=np.float32))
        with np.errstate(all="ignore"):
            return total_loss(output_distill_loss(one_hot([1], 2), [], logits, 1.0))

    assert ops.call("distill", confident_student) is None
    assert ops.call("evaluate", lambda: 7) == 7
    ops.check("holds", True)
    ops.check("breaks", False, "(3 bad)")
    assert ops.attempted == 4
    assert len(ops.failures) == 2
    assert ops.failures[0].startswith("distill: FloatingPointError: non-finite")
    assert ops.failures[1] == "check breaks failed (3 bad)"


def test_iter_clock_times_iterations_and_leaves_out_dev_evals(tmp_path):
    with IterClock(tmp_path / "log.jsonl") as log:
        log.log(0, "train", "n_params", 10)
        for t in (1, 2, 3):
            time.sleep(0.01)
            for name in ("loss_output", "loss_syn"):
                log.log(t, "train", name, 0.5)
            if t == 2:
                time.sleep(0.05)  # a dev eval between iterations 2 and 3
                log.log(t, "dev", "accuracy", 50.0)
    assert len(log.spans) == 3
    assert all(0.009 <= end - start < 0.045 for start, end in log.spans)
    assert log.all_finite()
    assert len((tmp_path / "log.jsonl").read_text().splitlines()) == 8
    with IterClock(tmp_path / "nan.jsonl") as log:
        log.log(1, "train", "loss", math.nan)
    assert not log.all_finite()


class _Enc:
    def __init__(self, n):
        self.main = type("Side", (), {"n": n})()


def test_draw_counter_counts_indexed_draws_only():
    data = DrawCounter([_Enc(3), _Enc(5), _Enc(7)])
    assert len(list(data)) == 3 and data.sents == 0
    picked = [data[i] for i in (2, 0, 2)]
    assert [e.main.n for e in picked] == [7, 3, 7]
    assert (data.sents, data.tokens) == (3, 17)


def test_clock_leaves_probes_out_of_stage_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    with Clock() as clock:
        start = time.perf_counter()
        out, secs, ref = clock.timed(busy, 0.3)
        wall = time.perf_counter() - start
    assert out == "done"
    assert len(clock.took) >= 3  # the timer fired during the stage
    assert secs == pytest.approx(0.3, abs=0.02) and wall > secs
    assert 0 < clock.pace(start, start + wall) <= 2.0
    assert ref == pytest.approx(secs * clock.pace(start, start + wall))
