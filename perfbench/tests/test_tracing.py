import numpy as np

from synkd import cli, distill, probe, structures
from synkd import tensor as T

from tracing import Tracer, per_layer_metrics


def test_wrappers_reach_names_imported_by_value_and_are_removed():
    originals = (cli.cyk_max, distill.cyk_augmented, probe.ce_sum, T.add)
    with Tracer("t") as tracer:
        assert cli.cyk_max is structures.cyk_max is not originals[0]
        assert distill.cyk_augmented is not originals[1]
        assert probe.ce_sum is distill.ce_sum is not originals[2]
        scores = structures.SpanScores(3, np.random.default_rng(0).normal(size=(3, 4, 2)))
        cli.cyk_max(scores)
        w = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.neg(T.mul(w, w)))  # neg runs scale inside: one op
            tape.backward(loss)
        T.add(w, w)
    assert (cli.cyk_max, distill.cyk_augmented, probe.ce_sum, T.add) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["structures.SpanScores", "structures.cyk_max", "tensor.backward"]
    metrics = per_layer_metrics(tracer, (3, 4))
    assert metrics["tensor.tape_ops"] == (3, "count")
    assert metrics["structures.cyk_calls"] == (1, "count")
    assert metrics["structures.cyk_mean_n"] == (3.0, "tokens")
    assert metrics["train.useful_step_share"] == (0.75, "share")
    assert tracer.op_calls == 4
    assert tracer.op_s["taped"] > 0 and tracer.op_s["untaped"] > 0


def test_spans_record_parent_and_run_id():
    with Tracer("run-7") as tracer:
        structures.cyk_max(structures.SpanScores(2, np.zeros((2, 3, 1))))
    (name0, s0, e0, p0, r0), (name1, s1, e1, p1, r1) = tracer.spans
    assert (p0, p1, r0, r1) == (-1, -1, "run-7", "run-7")
    assert s0 <= e0 <= s1 <= e1
