"""synkd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest perfbench/tests        # the benchmark's own tests

Run from the root of a checkout; synkd is imported from its src/. A run
builds its inputs from --seed, repeats timed rounds of the workload for about
--seconds, never fewer than the workload's minimum, and reports medians over
rounds. It sets up three times, between the first rounds; setup_s is the
median. Stage timings come in seconds and in reference seconds, that is
seconds rescaled to the machine's uncontended speed by a probe that runs
alongside (speed.py).

A report line with every metric, its unit and its sample count precedes the
result line {"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}.
With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
run times one plain round, installs the tracing wrappers (tracing.py),
repeats set-up and the round, and reports the per-layer metrics of that
traced pass plus the tracing overhead; the spans go to .perfbench_out/.
"""
import os

# one BLAS thread: numpy reads these when it is first imported, and the
# benchmark's matrices are too small for more threads to pay
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3

END_TO_END = {"setup_s": "s", "round_ref_s": "ref_s",
              "teacher_infer_sent_per_ref_s": "1/ref_s", "eval_sent_per_ref_s": "1/ref_s"}


def _load_program():
    """Import synkd from this checkout's src/ and nowhere else."""
    if not (SRC / "synkd" / "__init__.py").is_file():
        sys.exit(f"error: no synkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import synkd
    if Path(synkd.__file__).resolve().parent != (SRC / "synkd").resolve():
        sys.exit(f"error: synkd imported from {synkd.__file__}, not {SRC}")


def _machine():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def _same_across(ops, what, values):
    values = [v for v in values if v is not None]
    if len(values) > 1:
        ops.check(f"{what} identical across repeats of one seed",
                  all(v == values[0] for v in values))


def _setup(wl, args, ops, work_root, tag):
    work = os.path.join(work_root, tag)
    os.makedirs(work)
    start = perf_counter()
    ctx = ops.call(f"setup {tag}", wl.setup, args.seed, work, ops)
    secs = perf_counter() - start
    if ctx is None:
        raise SystemExit(f"error: set-up failed: {ops.failures[-1]}")
    return ctx, secs


def _round(wl, ctx, ops, k, tag):
    import speed
    from workloads import Stages
    gc.collect()
    with speed.Clock() as clock:
        start = perf_counter()
        result = ops.call(f"round {tag}", wl.round, ctx, ops, k, tag, Stages(clock))
        wall = perf_counter() - start
    if result is not None:
        result["wall_s"] = wall
    return result, wall


def _ref_name(key):
    """teacher_infer_sent_per_s -> teacher_infer_sent_per_ref_s, round_s -> round_ref_s"""
    return key[:-len("_s")] + "_ref_s"


def _unit(name):
    base = "ref_s" if name.endswith("_ref_s") else "s"
    return f"1/{base}" if "_per_" in name else base


def _report(wl, args, ctx, rounds, setup_secs, ops, machine):
    """Every measured metric with its unit and sample count; each round's
    seconds-based and reference-seconds-based values are kept apart."""
    from benchstats import latency_summary
    done = [r for r in rounds if r is not None]
    metrics = {"setup_s": {"value": statistics.median(setup_secs), "unit": "s",
                           "n": len(setup_secs)}}
    for key in sorted({k for r in done for k, v in r.items() if isinstance(v, tuple)}):
        for i, name in enumerate((key, _ref_name(key))):
            vals = [r[key][i] for r in done if key in r]
            metrics[name] = {"value": statistics.median(vals), "unit": _unit(name),
                             "n": len(vals)}
    for name, unit in (("distill_iter_ms", "ms"), ("distill_iter_ref_ms", "ref_ms")):
        iter_ms = [pair[name != "distill_iter_ms"] for r in done for pair in r.get("iter_ms", [])]
        if iter_ms:
            lat = latency_summary(iter_ms)
            metrics[f"{name}_p50"] = {"value": lat["p50"], "unit": unit, "n": lat["n"]}
            if "tail" in lat:
                metrics[f"{name}_p{lat['tail_q']:g}"] = {"value": lat["tail"], "unit": unit,
                                                        "n": lat["n"]}
    if any("single_root_share" in r for r in done):
        metrics["single_root_share"] = {
            "value": statistics.median(r["single_root_share"] for r in done),
            "unit": "share", "n": len(done)}
    report = {"workload": wl.name, "seed": args.seed, "machine": machine,
              "round_walls_s": [r["wall_s"] for r in done], "setup_s": setup_secs,
              "metrics": metrics, "failures": ops.failures}
    if "profile" in ctx:
        report["lengths"] = ctx["profile"]
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import longgen
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    machine = _machine()
    OUT.mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=OUT)
    ops = workloads.Ops()
    try:
        # set-ups are spread between the first rounds, so their median does
        # not rest on one stretch of machine load
        setup_secs, fingerprints = [], []

        def set_up():
            new_ctx, secs = _setup(wl, args, ops, work_root, f"setup{len(setup_secs)}")
            setup_secs.append(secs)
            fingerprints.append(new_ctx.get("fingerprint"))
            return new_ctx

        # rounds come in whole cycles (a cycle covers the workload's data
        # once); another cycle starts only if it still fits in --seconds
        rounds, walls = [], []
        start = perf_counter()

        def more():
            if args.trace:
                return not rounds
            if len(rounds) < wl.min_rounds or len(rounds) % wl.cycle:
                return True
            return perf_counter() - start + wl.cycle * statistics.median(walls) <= args.seconds

        ctx = set_up()
        while more():
            if rounds and len(setup_secs) < SETUP_REPS:
                ctx = set_up()
            result, wall = _round(wl, ctx, ops, len(rounds), f"r{len(rounds)}")
            rounds.append(result)
            walls.append(wall)
        while len(setup_secs) < SETUP_REPS:
            set_up()
        _same_across(ops, "set-up models", fingerprints)
        _same_across(ops, "student fingerprint",
                     [r.get("fingerprint") for r in rounds if r])

        if args.trace:
            run_id = f"{wl.name}-seed{args.seed}"
            with tracing.Tracer(run_id, (workloads, longgen)) as tracer:
                t_ctx, _ = _setup(wl, args, ops, work_root, "traced-setup")
                traced, traced_wall = _round(wl, t_ctx, ops, 0, "traced")
            steps = traced["steps"] if traced else (0, 0)
            metrics = tracing.per_layer_metrics(tracer, steps)
            metrics["trace.overhead_s"] = (traced_wall - walls[0], "s")
            overhead_ref = (traced["round_s"][1] - rounds[0]["round_s"][1]
                            if traced and rounds[0] else None)
            metrics["trace.overhead_ref_s"] = (overhead_ref, "ref_s")
            tracer.write(OUT / f"trace-{run_id}.json",
                         {"machine": machine, "untraced_wall_s": walls[0],
                          "traced_wall_s": traced_wall})
            out_metrics = {k: {"value": _finite(v), "unit": unit}
                           for k, (v, unit) in metrics.items()}
        else:
            report = _report(wl, args, ctx, rounds, setup_secs, ops, machine)
            print(json.dumps(report))
            out_metrics = {k: {"value": _finite(report["metrics"].get(k, {}).get("value")),
                               "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for failure in ops.failures:
        print(f"failed: {failure}", file=sys.stderr)
    correct = not ops.failures and all(m["value"] is not None for m in out_metrics.values())
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
