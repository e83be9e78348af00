"""Minimal reverse-mode autodiff over numpy arrays.

Every primitive op records (output, parents, backprop closure) on the
currently active Tape; creation order is a valid topological order, so
backward() just walks the tape in reverse accumulating vector-Jacobian
products. Ops run forward-only (no recording) when no tape is active,
which is the evaluation path.

float32 is the training default; building a graph from float64 tensors
keeps everything in float64, which is what the gradient checks use.
"""
from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32

_ACTIVE_TAPE = None


class Tensor:
    """Dense n-d array plus optional gradient.

    `requires_grad` marks leaves (parameters) whose .grad gets populated by
    backward(). Tensors derived from tracked tensors are tracked internally
    but only requires_grad tensors keep a .grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "_track")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._track = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive ops for one forward pass."""

    def __init__(self):
        self._entries = []  # (out, parents tuple, backfn(grad)->list of grads)
        self._outputs = set()

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._entries)

    def contains(self, t: Tensor) -> bool:
        """Whether `t` was produced on this tape (false for constants)."""
        return id(t) in self._outputs

    def _record(self, out: Tensor, parents, backfn):
        out._track = True
        self._entries.append((out, parents, backfn))
        self._outputs.add(id(out))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(t) into t.grad for every requires_grad ancestor.

        Calling twice without zeroing grads accumulates.
        """
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._outputs:
            raise ValueError("loss was not produced on this tape")
        adjoint = {id(loss): np.ones_like(loss.data)}
        holder = {id(loss): loss}
        for out, parents, backfn in reversed(self._entries):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for p, pg in zip(parents, backfn(g)):
                if pg is None or not p._track:
                    continue
                k = id(p)
                if k in adjoint:
                    adjoint[k] = adjoint[k] + pg
                else:
                    adjoint[k] = pg
                    holder[k] = p
        for k, g in adjoint.items():
            t = holder[k]
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g


def active_tape():
    return _ACTIVE_TAPE


def _emit(out: Tensor, parents, backfn) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(p._track for p in parents):
        tape._record(out, parents, backfn)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# shape plumbing

def _suffix_broadcastable(a: np.ndarray, b: np.ndarray) -> bool:
    # equal shapes, or the smaller shape is a suffix of the larger
    if a.shape == b.shape:
        return True
    small, big = (a, b) if a.ndim <= b.ndim else (b, a)
    return big.shape[big.ndim - small.ndim:] == small.shape


def _check_elementwise(op: str, a: Tensor, b: Tensor):
    if not _suffix_broadcastable(a.data, b.data):
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)
    out = Tensor(a.data + b.data)

    def back(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return _emit(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("sub", a, b)
    out = Tensor(a.data - b.data)

    def back(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)]

    return _emit(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)
    out = Tensor(a.data * b.data)

    def back(g):
        return [_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)]

    return _emit(out, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def back(g):
        return [g * c]

    return _emit(out, (a,), back)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def back(g):
        return [g @ b.data.T, a.data.T @ g]

    return _emit(out, (a, b), back)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy())

    def back(g):
        return [g.reshape(a.shape)]

    return _emit(out, (a,), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose: expected 2-d tensor, got shape {a.shape}")
    out = Tensor(a.data.T.copy())

    def back(g):
        return [g.T]

    return _emit(out, (a,), back)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: empty input list")
    nd = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != nd:
            raise ValueError(
                f"concat: rank mismatch {tensors[0].shape} and {t.shape}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return list(np.split(g, offsets, axis=axis))

    return _emit(out, tuple(tensors), back)


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)

    def back(g):
        return [g * y * (1.0 - y)]

    return _emit(out, (a,), back)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def back(g):
        return [g * (1.0 - y * y)]

    return _emit(out, (a,), back)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    pos = a.data > 0

    def back(g):
        return [g * pos]

    return _emit(out, (a,), back)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.shape[axis] == 0:
        raise ValueError(f"softmax over empty axis {axis} of shape {a.shape}")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return [y * (g - dot)]

    return _emit(out, (a,), back)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(a)) without forming the probabilities, so an underflowed
    class gives a large negative log-probability instead of -inf."""
    if a.shape[axis] == 0:
        raise ValueError(f"log_softmax over empty axis {axis} of shape {a.shape}")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(y)

    def back(g):
        return [g - np.exp(y) * g.sum(axis=axis, keepdims=True)]

    return _emit(out, (a,), back)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def back(g):
        return [g / a.data]

    return _emit(out, (a,), back)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def back(g):
        if axis is None:
            return [np.broadcast_to(g, a.shape).astype(a.dtype, copy=True)]
        gg = g if keepdims else np.expand_dims(g, axis)
        return [np.broadcast_to(gg, a.shape).astype(a.dtype, copy=True)]

    return _emit(out, (a,), back)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))

    def back(g):
        if axis is None:
            return [np.broadcast_to(g / count, a.shape).astype(a.dtype, copy=True)]
        gg = g if keepdims else np.expand_dims(g, axis)
        return [np.broadcast_to(gg / count, a.shape).astype(a.dtype, copy=True)]

    return _emit(out, (a,), back)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept entries by 1/(1-p) so eval needs no rescale."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    mask = (rng.random(a.shape) >= p).astype(a.dtype) / (1.0 - p)
    out = Tensor(a.data * mask)

    def back(g):
        return [g * mask]

    return _emit(out, (a,), back)


def _add_rows(acc: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc[ids[k]] += rows[k] for k in order, i.e. np.add.at over axis 0, run
    as the much faster flat (1-d) ufunc.at with the same accumulation order."""
    d = acc.shape[1]
    np.add.at(acc.reshape(-1), (ids[:, None] * d + np.arange(d)).reshape(-1),
              rows.reshape(-1))
    return acc


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-d tensor; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"embedding ids must be 1-d, got shape {ids.shape}")
    if table.data.ndim != 2:
        raise ValueError(f"embedding table must be 2-d, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding id out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[ids])

    def back(g):
        return [_add_rows(np.zeros_like(table.data), ids, g)]

    return _emit(out, (table,), back)


def take(a: Tensor, flat_ids) -> Tensor:
    """Gather scalar entries by flat (row-major) index; returns a 1-d tensor."""
    flat_ids = np.asarray(flat_ids, dtype=np.int64)
    if flat_ids.size and (flat_ids.min() < 0 or flat_ids.max() >= a.size):
        raise ValueError(f"take index out of range for size {a.size}")
    out = Tensor(a.data.reshape(-1)[flat_ids])

    def back(g):
        ga = np.zeros(a.size, dtype=a.dtype)
        np.add.at(ga, flat_ids, g)
        return [ga.reshape(a.shape)]

    return _emit(out, (a,), back)


def segment_sum(x: Tensor, seg_ids, n_segments: int) -> Tensor:
    """Row i of the result sums the rows of x whose segment id is i, added in
    row order (so a fixed row order gives bitwise-fixed sums); empty segments
    are zero. Backward gathers each row's segment gradient."""
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if x.data.ndim != 2 or seg_ids.shape != (x.shape[0],):
        raise ValueError(f"segment_sum: need one segment id per row of a 2-d "
                         f"tensor, got {seg_ids.shape} ids for shape {x.shape}")
    if seg_ids.size and (seg_ids.min() < 0 or seg_ids.max() >= n_segments):
        raise ValueError(f"segment id out of range for {n_segments} segments")
    out = Tensor(_add_rows(np.zeros((n_segments, x.shape[1]), dtype=x.dtype),
                           seg_ids, x.data))

    def back(g):
        return [g[seg_ids]]

    return _emit(out, (x,), back)


def lstm_scan(xw: Tensor, u: Tensor, counts, reverse: bool = False) -> Tensor:
    """One LSTM direction over a packed batch of sequences as a single op.

    Sequences are sorted longest first and counts[t] >= 1 of them run at step
    t (non-increasing). Step t is the row block of xw (sum(counts), 4h) after
    those of the steps before it, one row per running sequence, holding its
    input projection plus bias; u is the (h, 4h) recurrent matrix and gates
    are [i, f, o, u]. States start at zero: going forward a sequence drops out
    after its last step; reverse=True scans from the last step to the first
    and each sequence joins at its own last step. Returns the hidden states in
    xw's row layout; backward is hand-written BPTT over the saved gates.

    Inside, the gates of step rows [lo, lo + n) live gate-major in one flat
    buffer: a contiguous (4, n, h) block at offset 4h * lo, filled from xw and
    the recurrent product through transposed views, so every gate op of a
    step runs on contiguous memory. The recurrent product stays one
    (m, h) @ (h, 4h) matmul, the same BLAS call as on row-major rows, so the
    result does not depend on how the BLAS kernel orders sums for a narrower
    matrix. Backward copies the blocks back to (rows, 4h) once."""
    counts = np.asarray(counts, dtype=np.int64).tolist()
    if xw.data.ndim != 2 or u.data.ndim != 2 or u.shape[1] != 4 * u.shape[0] \
            or xw.shape[1] != u.shape[1] or not counts or counts[-1] < 1 \
            or any(a < b for a, b in zip(counts, counts[1:])) \
            or sum(counts) != xw.shape[0]:
        raise ValueError(f"lstm_scan: need xw (sum(counts), 4h), u (h, 4h) and "
                         f"non-increasing positive counts, got {xw.shape}, "
                         f"{u.shape} and {counts}")
    hid = u.shape[0]
    starts = np.cumsum([0] + counts).tolist()
    order = range(len(counts) - 1, -1, -1) if reverse else range(len(counts))
    # scan-order blocks (lo, n, plo, m): rows [lo, lo + n) of a step, whose
    # first m rows continue rows [plo, plo + m) of the step before in scan order
    blocks = []
    for k, t in enumerate(order):
        p = order[k - 1] if k else t
        blocks.append((starts[t], counts[t], starts[p],
                       min(counts[t], counts[p]) if k else 0))
    xg = xw.data
    dtype = np.result_type(xw.data, u.data)
    gates = np.empty(xg.size, dtype=dtype)  # activated [i, f, o, u], gate-major blocks

    def block(lo, n):
        return gates[4 * hid * lo:4 * hid * (lo + n)].reshape(4, n, hid)

    def gate_major(a, lo, n):
        """Rows [lo, lo + n) of a (rows, 4h) array as a (4, n, h) view."""
        return a[lo:lo + n].reshape(n, 4, hid).transpose(1, 0, 2)

    rec = np.empty((counts[0], 4 * hid), dtype=dtype)  # one step's h_prev @ u
    cells = np.empty((xg.shape[0], hid), dtype=dtype)
    tanh_c = np.empty_like(cells)
    hs = np.empty_like(cells)
    with np.errstate(over="ignore"):
        for lo, n, plo, m in blocks:
            z, c = block(lo, n), cells[lo:lo + n]
            if m:
                np.matmul(hs[plo:plo + m], u.data, out=rec[:m])
                np.add(gate_major(rec, 0, m), gate_major(xg, lo, m), out=z[:, :m])
            if m < n:
                z[:, m:] = gate_major(xg, lo + m, n - m)
            sig = z[:3]
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            np.tanh(z[3], out=z[3])
            np.multiply(z[0], z[3], out=c)
            if m:
                c[:m] += z[1, :m] * cells[plo:plo + m]
            np.tanh(c, out=tanh_c[lo:lo + n])
            np.multiply(z[2], tanh_c[lo:lo + n], out=hs[lo:lo + n])
    out = Tensor(hs)

    def prev(a):
        """Each row's state from the step before in scan order; zero where a
        sequence starts."""
        p = np.zeros_like(a)
        for lo, _, plo, m in blocks:
            p[lo:lo + m] = a[plo:plo + m]
        return p

    def back(grad):
        acts = np.empty(xg.shape, dtype=dtype)
        for lo, n, _, _ in blocks:
            gate_major(acts, lo, n)[...] = block(lo, n)
        # d(pre-activation) = upstream * partner * activation slope, where the
        # upstream is dc for i, f, u and dh for o; everything but dc and dh is
        # known before the reverse sweep
        slope = acts.copy()
        slope[:, :3 * hid] *= 1.0 - acts[:, :3 * hid]
        slope[:, 3 * hid:] = 1.0 - acts[:, 3 * hid:] ** 2
        slope *= np.concatenate((acts[:, 3 * hid:], prev(cells), tanh_c,
                                 acts[:, :hid]), axis=1)
        dc_dh = acts[:, 2 * hid:3 * hid] * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(acts)
        # dh and dc of each row, plus what flows back from the step after it
        dh_all, dc_all = grad.copy(), np.zeros_like(cells)
        for lo, n, plo, m in reversed(blocks):
            dh = dh_all[lo:lo + n]
            dc = dh * dc_dh[lo:lo + n]
            dc += dc_all[lo:lo + n]
            np.multiply(np.concatenate((dc, dc, dh, dc), axis=1), slope[lo:lo + n],
                        out=dz[lo:lo + n])
            if m:
                np.multiply(dc[:m], acts[lo:lo + m, hid:2 * hid], out=dc_all[plo:plo + m])
                dh_all[plo:plo + m] += dz[lo:lo + m] @ u.data.T
        return [dz, prev(hs).T @ dz]

    return _emit(out, (xw, u), back)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[start:stop].copy())

    def back(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return [ga]

    return _emit(out, (a,), back)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"slice_cols expects a 2-d tensor, got shape {a.shape}")
    out = Tensor(a.data[:, start:stop].copy())

    def back(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        return [ga]

    return _emit(out, (a,), back)


def scaled_sq_sum(tensors, c: float) -> Tensor:
    """c * (sum of the squared entries of every tensor) as one op, bitwise
    equal to the left fold scale(add(...add(sum_(mul(t0, t0)), ...)), c):
    each tensor's squares are summed on their own and the sums added in
    order. Backward gives each tensor the fold's two mul contributions, one
    after the other, so it lists each tensor twice among its parents."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("scaled_sq_sum: empty input list")
    c = float(c)
    total = None
    for t in tensors:
        sq = np.asarray((t.data * t.data).sum())
        total = sq if total is None else np.asarray(total + sq)
    out = Tensor(total * c)

    def back(g):
        gc = g * c
        grads = []
        for t in tensors:
            d = t.data * np.asarray(gc, dtype=t.dtype)
            grads += [d, d]
        return grads

    return _emit(out, tuple(t for t in tensors for _ in range(2)), back)


# ---------------------------------------------------------------------------
# Adam

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam optimizer over a fixed parameter list.

    The optimizer owns the parameters' storage: one flat buffer per dtype.
    On construction it copies each parameter's data into its buffer and
    rebinds `data` to a view of it, so one elementwise update over a buffer
    steps every parameter of that dtype. From then on a parameter is set by
    writing into its `data` in place (as `Params.load_state_dict` does);
    `step` refuses a parameter whose `data` was rebound.

    state holds first/second moment arrays ("m", "v", one flat array per
    buffer), the step count "t" and a "skipped" counter; it is empty until
    the first step. `views` splits flat arrays such as state["m"] into
    per-parameter views.
    """

    def __init__(self, params, lr: float = 1e-5):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("Adam: a parameter is listed twice")
        self.lr = lr
        self.state = {}
        dtypes = list(dict.fromkeys(p.dtype for p in self.params))
        ends = [0] * len(dtypes)
        self._slots = []  # per parameter: (buffer index, start, stop)
        for p in self.params:
            b = dtypes.index(p.dtype)
            self._slots.append((b, ends[b], ends[b] + p.size))
            ends[b] += p.size
        self.buffers = [np.empty(n, dtype=d) for d, n in zip(dtypes, ends)]
        self._views = self.views(self.buffers)
        for p, view in zip(self.params, self._views):
            view[...] = p.data
            p.data = view
        self._grads = [np.zeros_like(buf) for buf in self.buffers]
        self._grad_views = self.views(self._grads)

    def views(self, flats):
        """Per-parameter views, in parameter order, of arrays laid out like
        the buffers (one flat array per dtype)."""
        return [flats[b][lo:hi].reshape(p.shape)
                for p, (b, lo, hi) in zip(self.params, self._slots)]

    def init_state(self, t: int = 0, skipped: int = 0):
        """Zero moments at step count t; the first step calls this."""
        self.state = {"m": [np.zeros_like(buf) for buf in self.buffers],
                      "v": [np.zeros_like(buf) for buf in self.buffers],
                      "t": t, "skipped": skipped}

    @property
    def skipped(self) -> int:
        return self.state.get("skipped", 0)

    def step(self) -> bool:
        """One update in place. The gradients are gathered into one flat
        array per buffer, each in its parameter's dtype (None counts as
        zeros); any non-finite value skips the whole step and bumps the
        skipped counter. Returns True when the update was applied."""
        if "m" not in self.state:
            self.init_state()
        state = self.state
        for p, view, gview in zip(self.params, self._views, self._grad_views):
            if p.data is not view:
                raise RuntimeError(
                    "Adam: a parameter's data was rebound; write into it in place")
            if p.grad is None:
                gview.fill(0)
            elif p.grad.shape != view.shape:
                raise ValueError(
                    f"grad shape {p.grad.shape} does not match param shape {view.shape}")
            else:
                gview[...] = p.grad
        if not all(np.isfinite(g).all() for g in self._grads):
            state["skipped"] += 1
            return False
        state["t"] += 1
        t = state["t"]
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for buf, g, m, v in zip(self.buffers, self._grads, state["m"], state["v"]):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            buf -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        return True

    def zero_grad(self):
        for p in self.params:
            p.grad = None
