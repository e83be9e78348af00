"""Central finite-difference gradient checking.

The generic harness perturbs each parameter element by +/-eps in float64 and
compares the two-sided difference quotient against the tape gradient. The
model and loss suites are registered in checkcases.SUITES, and the gradient
acceptance test runs each of them through run_suite.
"""
from __future__ import annotations

import math

import numpy as np

from synkd.tensor import Tape, Tensor

EPS = 1e-5
RTOL = 1e-5
ATOL = 1e-8


def _scalar(x) -> float:
    return x.item() if isinstance(x, Tensor) else float(x)


def numeric_grad(f, params, eps: float = EPS):
    """Central-difference gradient of scalar f() w.r.t. each param's data."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = _scalar(f())
            flat[i] = orig - eps
            fm = _scalar(f())
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def analytic_grad(f, params):
    """Tape gradient of scalar f() w.r.t. params."""
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    return [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


def rel_err(a: np.ndarray, n: np.ndarray) -> float:
    """Worst-case elementwise relative error with an absolute floor.

    Near-zero entries are judged on |a - n| alone (the ATOL floor), everything
    else on |a - n| / max(|a|, |n|). A non-finite gradient on either side is
    an infinite error, so no max over cases or params can drop it.
    """
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ATOL / RTOL)
    err = float((np.abs(a - n) / denom).max())
    return err if math.isfinite(err) else math.inf


def check_case(f, params, eps: float = EPS) -> float:
    """Max relative error between tape and FD gradients for one instance.

    f must be a deterministic scalar function of the params' current data
    (rebuild the graph on every call).
    """
    ana = analytic_grad(f, params)
    num = numeric_grad(f, params, eps=eps)
    return max(rel_err(a, n) for a, n in zip(ana, num))


def run_suite(name: str, make_case, n_cases: int, seed: int = 0) -> dict:
    """Run n_cases random instances of one named check.

    make_case(rng) -> (f, params) builds a fresh random instance in float64.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        f, params = make_case(rng)
        for p in params:
            if p.data.dtype != np.float64:
                raise ValueError(f"{name}: gradient checks must run in float64")
        worst = max(worst, check_case(f, params))
    return {"name": name, "cases": n_cases, "max_rel_err": worst, "ok": worst < RTOL}


def rand_param(rng: np.random.Generator, shape, scale: float = 0.5) -> Tensor:
    """Small random float64 parameter; small enough to keep losses well-conditioned."""
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

