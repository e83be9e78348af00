"""Autodiff engine tests: forward values, finite-difference gradients, Adam."""
import numpy as np
import pytest

from gradcheck import check_case, rand_param, run_suite
from oracles import ReferenceAdam, row_major_lstm_scan
from synkd import tensor as T

RNG = np.random.default_rng(12345)


def f64(arr, requires_grad=True):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# forward values

def test_forward_values():
    assert T.sigmoid(f64([0.0])).data[0] == pytest.approx(0.5)
    assert T.tanh(f64([0.0])).data[0] == 0.0
    np.testing.assert_allclose(T.relu(f64([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    s = T.softmax(f64(RNG.standard_normal((4, 5))), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-12)
    assert T.log(f64([np.e])).data[0] == pytest.approx(1.0)
    assert T.sum_(f64([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0
    assert T.mean(f64([[1.0, 2.0], [3.0, 4.0]])).item() == 2.5


def test_dtype_defaults():
    assert T.Tensor([1, 2, 3]).dtype == np.float32
    assert T.Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
    assert T.add(T.Tensor(np.zeros(3)), T.Tensor(np.ones(3))).dtype == np.float64


def test_broadcast_suffix_only():
    a = f64(RNG.standard_normal((3, 4)))
    b = f64(RNG.standard_normal(4))
    assert T.add(a, b).shape == (3, 4)
    with pytest.raises(ValueError):
        T.add(f64(np.zeros((3, 4))), f64(np.zeros(3)))
    with pytest.raises(ValueError):
        T.mul(f64(np.zeros((3, 1))), f64(np.zeros((3, 4))))


def test_shape_errors():
    with pytest.raises(ValueError):
        T.matmul(f64(np.zeros((2, 3))), f64(np.zeros((2, 3))))
    with pytest.raises(ValueError):
        T.embedding(f64(np.zeros((4, 3))), [0, 4])
    with pytest.raises(ValueError):
        T.take(f64(np.zeros((2, 2))), [4])
    with pytest.raises(ValueError):
        T.concat([])
    u = f64(np.zeros((2, 8)))
    T.lstm_scan(f64(np.zeros((5, 8))), u, [2, 2, 1])
    with pytest.raises(ValueError):  # counts sum to 4, not the 5 rows
        T.lstm_scan(f64(np.zeros((5, 8))), u, [2, 2])
    with pytest.raises(ValueError):  # counts increase
        T.lstm_scan(f64(np.zeros((5, 8))), u, [2, 3])
    with pytest.raises(ValueError):  # a step with no running sequence
        T.lstm_scan(f64(np.zeros((5, 8))), u, [3, 2, 0])
    with pytest.raises(ValueError):  # no steps
        T.lstm_scan(f64(np.zeros((0, 8))), u, [])
    with pytest.raises(ValueError):  # gate width is not 4h
        T.lstm_scan(f64(np.zeros((4, 6))), f64(np.zeros((2, 6))), [2, 2])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hid", [3, 16])
@pytest.mark.parametrize("counts", [[5, 5, 3, 3, 1], [4]])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_scan_matches_row_major_reference_bitwise(dtype, hid, counts, reverse):
    # [5, 5, 3, 3, 1] makes rows drop out going forward and join in reverse;
    # [4] is a one-step scan with no recurrent product
    rng = np.random.default_rng(hid * 10 + len(counts))
    xw = T.Tensor((2.0 * rng.standard_normal((sum(counts), 4 * hid))).astype(dtype),
                  requires_grad=True)
    u = T.Tensor(rng.standard_normal((hid, 4 * hid)).astype(dtype), requires_grad=True)
    w = T.Tensor(rng.standard_normal((sum(counts), hid)).astype(dtype))

    def run(scan):
        xw.grad = u.grad = None
        with T.Tape() as tape:
            out = scan(xw, u, counts, reverse)
            tape.backward(T.sum_(T.mul(out, w)))
        return out.data, xw.grad, u.grad

    got, want = run(T.lstm_scan), run(row_major_lstm_scan)
    assert got[0].dtype == dtype
    for name, g, r in zip(("h", "d xw", "d u"), got, want):
        np.testing.assert_array_equal(g, r, err_msg=name)


# ---------------------------------------------------------------------------
# hand-computed gradients

def test_grad_square():
    x = f64([1.0, -2.0, 3.0])
    with T.Tape() as tape:
        tape.backward(T.sum_(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


def test_grad_fanout_accumulates():
    x = f64([2.0])
    with T.Tape() as tape:
        tape.backward(T.sum_(T.add(x, x)))
    assert x.grad[0] == 2.0


def test_backward_twice_accumulates():
    x = f64([1.0])
    for _ in range(2):
        with T.Tape() as tape:
            tape.backward(T.sum_(x))
    assert x.grad[0] == 2.0


def test_backward_requires_scalar_on_tape():
    x = f64([1.0, 2.0])
    with T.Tape() as tape:
        y = T.mul(x, x)
        with pytest.raises(ValueError):
            tape.backward(y)
    loose = T.Tensor(np.array(0.0))
    with T.Tape() as tape:
        T.sum_(x)
        with pytest.raises(ValueError):
            tape.backward(loose)


def test_tapes_do_not_nest():
    with T.Tape():
        with pytest.raises(RuntimeError):
            with T.Tape():
                pass


def test_no_tape_forward_untracked():
    x = f64([1.0])
    y = T.mul(x, x)
    assert not y._track
    assert x.grad is None


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive

def _fd_ok(f, params, tol=1e-6):
    assert check_case(f, params) < tol


def test_fd_elementwise():
    a = rand_param(RNG, (3, 4))
    b = rand_param(RNG, (3, 4))
    _fd_ok(lambda: T.sum_(T.mul(T.add(a, b), T.sub(a, b))), [a, b])


def test_fd_broadcast_bias():
    a = rand_param(RNG, (3, 4))
    b = rand_param(RNG, (4,))
    _fd_ok(lambda: T.sum_(T.tanh(T.add(a, b))), [a, b])


def test_fd_matmul_transpose():
    a = rand_param(RNG, (3, 4))
    b = rand_param(RNG, (3, 5))
    _fd_ok(lambda: T.sum_(T.matmul(T.transpose(a), b)), [a, b])


def test_fd_concat():
    a = rand_param(RNG, (2, 3))
    b = rand_param(RNG, (4, 3))
    c = rand_param(RNG, (2, 2))
    _fd_ok(lambda: T.sum_(T.sigmoid(T.concat([a, b], axis=0))), [a, b])
    _fd_ok(lambda: T.sum_(T.relu(T.concat([a, c], axis=1))), [a, c])


def test_fd_nonlinearities():
    x = rand_param(RNG, (4, 3))
    _fd_ok(lambda: T.sum_(T.sigmoid(x)), [x])
    _fd_ok(lambda: T.sum_(T.tanh(x)), [x])
    _fd_ok(lambda: T.mean(T.mul(T.relu(x), x)), [x])


def test_fd_softmax_log():
    x = rand_param(RNG, (3, 5))
    w = rand_param(RNG, (3, 5))
    _fd_ok(lambda: T.sum_(T.mul(w, T.log(T.softmax(x, axis=-1)))), [x, w])


def test_fd_reductions():
    x = rand_param(RNG, (3, 4))
    _fd_ok(lambda: T.sum_(T.mul(T.mean(x, axis=0), x)), [x])
    _fd_ok(lambda: T.mean(T.sum_(T.mul(x, x), axis=1)), [x])


def test_fd_embedding_take_slices():
    tab = rand_param(RNG, (6, 4))
    ids = np.array([0, 2, 2, 5])
    _fd_ok(lambda: T.sum_(T.tanh(T.embedding(tab, ids))), [tab])
    x = rand_param(RNG, (3, 4))
    _fd_ok(lambda: T.sum_(T.mul(T.take(x, [0, 5, 5, 11]), T.take(x, [1, 2, 3, 4]))), [x])
    _fd_ok(lambda: T.sum_(T.mul(T.slice_rows(x, 1, 3), T.slice_rows(x, 0, 2))), [x])
    _fd_ok(lambda: T.sum_(T.tanh(T.slice_cols(x, 1, 3))), [x])


def test_fd_scale_neg():
    x = rand_param(RNG, (5,))
    _fd_ok(lambda: T.sum_(T.add(T.scale(x, 2.5), T.neg(x))), [x])


def test_fd_reshape():
    x = rand_param(RNG, (2, 6))
    _fd_ok(lambda: T.sum_(T.mul(T.reshape(x, (3, 4)), T.reshape(x, (3, 4)))), [x])
    assert T.reshape(x, (4, 3)).shape == (4, 3)


def test_fd_random_graphs():
    # small random op pipelines, fresh shapes each round
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, d = rng.integers(2, 5), rng.integers(2, 5)
        w = rand_param(rng, (d, d))
        b = rand_param(rng, (d,))
        x = rand_param(rng, (n, d))

        def f():
            h = T.tanh(T.add(T.matmul(x, w), b))
            h = T.softmax(h, axis=-1)
            return T.sum_(T.mul(h, T.sigmoid(x)))

        _fd_ok(f, [w, b, x])


def test_nan_gradient_fails_the_check():
    # a NaN gradient is an infinite error, whichever param holds it and
    # whichever case of the suite it comes from
    def make_case(rng):
        clean, hole = rand_param(rng, (2,)), rand_param(rng, (2,))
        mask = T.Tensor(np.array([np.nan, 1.0]))
        f = lambda: T.add(T.sum_(T.mul(clean, clean)), T.sum_(T.mul(hole, mask)))
        return f, [clean, hole]

    f, params = make_case(np.random.default_rng(0))
    assert check_case(f, params) == check_case(f, params[::-1]) == np.inf
    result = run_suite("nan", make_case, 2)
    assert result["max_rel_err"] == np.inf and not result["ok"]


# ---------------------------------------------------------------------------
# dropout

def test_dropout_identity_cases():
    x = f64(RNG.standard_normal((4, 3)))
    rng = np.random.default_rng(0)
    assert T.dropout(x, 0.0, rng) is x
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, rng)


def test_dropout_mask_and_grad():
    x = rand_param(RNG, (50, 8))
    y = T.dropout(x, 0.4, np.random.default_rng(3))
    kept = y.data != 0
    np.testing.assert_allclose(y.data[kept], x.data[kept] / 0.6)
    # mask is deterministic given the rng seed, so FD sees a fixed function
    _fd_ok(lambda: T.sum_(T.mul(T.dropout(x, 0.4, np.random.default_rng(3)), x)), [x])


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_hand_value():
    # with m/v bias correction, step 1 moves by lr * g/(|g| + eps) ~ lr * sign(g)
    p = T.Tensor(np.array([1.0, -1.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([0.5, -3.0])
    opt = T.Adam([p], lr=0.1)
    assert opt.step()
    np.testing.assert_allclose(p.data, [0.9, -0.9], atol=1e-7)


def test_adam_none_grad_is_zero():
    p = T.Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
    opt = T.Adam([p], lr=0.1)
    assert opt.step()
    np.testing.assert_allclose(p.data, np.ones(3))


def test_adam_skips_nonfinite():
    p = T.Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
    p.grad = np.array([np.nan, 1.0])
    opt = T.Adam([p], lr=0.1)
    assert not opt.step()
    assert opt.skipped == 1
    np.testing.assert_allclose(p.data, np.ones(2))


def test_adam_two_steps_match_reference():
    # straight transcription of the update equations, independent of the impl
    g1, g2 = np.array([0.3, -0.7]), np.array([-0.2, 0.4])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    ref = np.array([0.5, 0.5])
    m = v = np.zeros(2)
    for t, g in [(1, g1), (2, g2)]:
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = T.Tensor(np.array([0.5, 0.5], dtype=np.float64), requires_grad=True)
    opt = T.Adam([p], lr=lr)
    for g in (g1, g2):
        p.grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, ref, atol=1e-12)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(11)
        p = T.Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        opt = T.Adam([p], lr=1e-3)
        for _ in range(5):
            with T.Tape() as tape:
                tape.backward(T.sum_(T.mul(p, p)))
            opt.step()
            opt.zero_grad()
        return p.data.copy()

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


ADAM_SHAPES = [(3, 4), (5,), (), (2, 3, 2), (7,), (1, 1)]


def test_adam_flat_bitwise_matches_per_tensor():
    # once per dtype: mixed shapes in one buffer, None grads, grad scales from
    # 1e-6 to 1e2 and one NaN step
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(17)
        init = [rng.standard_normal(shape).astype(dtype) for shape in ADAM_SHAPES]
        flat = [T.Tensor(a.copy(), requires_grad=True) for a in init]
        ref = [T.Tensor(a.copy(), requires_grad=True) for a in init]
        opt, ref_opt = T.Adam(flat, lr=1e-2), ReferenceAdam(ref, lr=1e-2)
        assert opt.buffer.dtype == dtype and opt.state == {}

        def same():
            for key in ("m", "v"):
                assert opt.state[key].dtype == dtype
                for a, b in zip(opt.views(opt.state[key]), ref_opt.state[key]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert all(p.data.tobytes() == q.data.tobytes() for p, q in zip(flat, ref))
            assert (opt.state["t"], opt.skipped) == (ref_opt.state["t"], ref_opt.skipped)

        for k in range(50):
            for p, q in zip(flat, ref):
                if rng.random() < 0.2:
                    p.grad = q.grad = None
                else:
                    g = rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 2, p.shape)
                    p.grad, q.grad = g.astype(p.dtype), g.astype(p.dtype)
            if k == 20:
                before = ([p.data.copy() for p in flat],
                          [opt.state["m"].copy(), opt.state["v"].copy()], opt.state["t"])
                flat[3].grad = ref[3].grad = np.full(flat[3].shape, np.nan)
                assert not opt.step() and not ref_opt.step()
                assert all(a.tobytes() == p.data.tobytes() for a, p in zip(before[0], flat))
                assert all(a.tobytes() == opt.state[key].tobytes()
                           for a, key in zip(before[1], ("m", "v")))
                assert opt.state["t"] == before[2] and opt.skipped == 1
            else:
                assert opt.step() and ref_opt.step()
            same()
        for p in flat:
            assert np.shares_memory(p.data, opt.buffer)


def test_adam_refuses_parameters_of_two_dtypes():
    # one flat buffer holds one dtype; a model's Params has one
    p32 = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    p64 = T.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match=r"more than one dtype \(float32, float64\)"):
        T.Adam([p32, p64])
    assert p32.data.base is None and p64.data.base is None


def test_adam_refuses_rebound_data_and_misshapen_grads():
    p = T.Tensor(np.ones(3), requires_grad=True)
    opt = T.Adam([p], lr=0.1)
    p.grad = np.ones(2)
    with pytest.raises(ValueError, match="grad shape"):
        opt.step()
    p.data = np.ones(3)
    with pytest.raises(RuntimeError, match="rebound"):
        opt.step()
    with pytest.raises(ValueError, match="listed twice"):
        T.Adam([p, p])
