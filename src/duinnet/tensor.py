"""Dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays. Every differentiable operation records
its inputs and a backward closure on the output node; ``Tensor.backward()``
topologically orders the recorded graph (a :class:`GradTape`) and replays it
in reverse, accumulating gradients into every reachable leaf that has
``requires_grad`` set. An intermediate node's gradient is dropped as soon as
its own backward closure has run; inside :class:`no_grad` nothing is recorded.
A node's first gradient is written into a fresh C-ordered buffer, or, for a
parameter an ``nn.Adam`` owns, into that parameter's view of the optimizer's
flat gradient arena, so the optimizer reads every gradient without a copy.

Two precisions are supported: float32 (training default) and float64
(gradient-check suites). The default is switchable via
:func:`set_default_dtype`.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Sequence

import numpy as np
from scipy import sparse

_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A dense n-dimensional array node in a reverse-mode autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_backward", "_grad_buf",
                 "_on_worker")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._grad_buf: np.ndarray | None = None  # set while an nn.Adam owns this leaf
        self._on_worker = False  # built on side_by_side's worker thread

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- graph machinery -----------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` (broadcast to this node's shape) into ``grad``. The first
        ``g`` is one ``np.add(g, 0, out=buf)`` into a fresh buffer or the owning
        optimizer's arena view: the bits of ``zeros_like(data) += g``, C order
        included (sums over an F-ordered gradient round differently)."""
        if self.grad is None:
            buf = self._grad_buf
            self.grad = np.add(g, 0, out=np.empty_like(self.data) if buf is None else buf)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def backward(self) -> "GradTape":
        """Backpropagate from this (scalar) tensor through the recorded graph.

        Each closure runs on the thread that built its node, after the other
        thread has run every earlier node of the reversed tape that writes
        this node's gradient or a gradient this one writes too; so every
        gradient takes the same additions, in the same order, as in one
        sweep. A closure is dropped once run: a second backward through its
        node raises RuntimeError.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        tape = GradTape.trace(self)
        order = tape.entries[::-1]
        if any(node._parents and node._backward is None for node in order):
            raise RuntimeError("backward() through a graph whose backward has already run; "
                               "build the graph again")
        self.grad = np.ones_like(self.data)
        if _ROLE.on_worker or not any(node._on_worker for node in order):
            for node in order:
                node._run_backward(self)
        else:
            _sweep_on_two_threads(order, self)
        return tape

    def _run_backward(self, root: "Tensor") -> None:
        if self._backward is not None and self.grad is not None:
            self._backward(self.grad)
            self._backward = None  # frees what only the closure held
            if self is not root:
                self.grad = None  # every consumer has already run: free it


class GradTape:
    """Topologically ordered record of the operations reaching one output.

    ``entries`` lists graph nodes such that every node's inputs appear before
    the node itself; the backward sweep visits each entry exactly once, in
    reverse. The graph may be built from two threads at once, as
    ``side_by_side`` builds a model's two branches: a node records only its
    parents, and the order comes from them alone. Tracing runs after every
    thread that built the graph is done; ``Tensor.backward`` then splits the
    reversed entries between the threads that built them, in their order.
    """

    def __init__(self, entries: list[Tensor]):
        self.entries = entries

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return cls(order)

    def __len__(self) -> int:
        return len(self.entries)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


_GRAD_ENABLED = True


class no_grad:
    """Context in which operations record no graph.

    Outputs made inside it are constants (no parents, no backward closure),
    so a forward pass keeps nothing alive for a backward pass that will not
    run. Contexts nest. The setting is one flag for the whole process, read
    by every thread that builds a graph, so it must not be entered or left
    while a forward pass runs, on any thread.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev, _GRAD_ENABLED = _GRAD_ENABLED, False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


# -- branch runners and the worker thread they share with backward -----------------


def in_turn(f, g):
    """Branch runner: ``(f(), g())``, called one after the other."""
    return f(), g()


class _ThreadRole(threading.local):
    on_worker = False  # set on side_by_side's worker thread when it starts


_ROLE = _ThreadRole()


def _new_pool() -> ThreadPoolExecutor:
    """side_by_side's one worker. Its thread starts on the first ``submit``;
    the executor's lock lets concurrent first calls start only one."""
    return ThreadPoolExecutor(1, thread_name_prefix="duinnet-branch",
                              initializer=setattr, initargs=(_ROLE, "on_worker", True))


_POOL = _new_pool()


def _renew_pool() -> None:
    """In a forked child, which has no copy of the worker thread."""
    global _POOL
    _POOL = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool)


def side_by_side(f, g):
    """Branch runner: ``(f(), g())`` with ``g`` on one worker thread while ``f``
    runs on the calling thread. NumPy and BLAS release the GIL inside large
    kernels, so the two overlap on two cores.

    ``g`` is always finished before anything propagates, so no branch is left
    writing (to BatchNorm buffers, say) after its caller has handled an
    error. ``f``'s error wins over ``g``'s, as in ``in_turn``. Each branch
    builds its own part of the graph, and ``Tensor.backward`` runs each part
    on the thread that built it. There is one worker, so ``g`` must not call
    ``side_by_side`` itself.
    """
    future = _POOL.submit(g)
    try:
        a = f()
    finally:
        wait([future])
    return a, future.result()


def _sweep_on_two_threads(order: list[Tensor], root: Tensor) -> None:
    """Run ``order``'s closures, each on the thread that built its node (0:
    this one, 1: the worker). A node first waits until the other thread has
    run ``need`` of its nodes: every earlier one there that writes this
    node's gradient, or a gradient this node writes too."""
    plans: tuple[list, list] = ([], [])
    writers: dict[int, list[int]] = {}  # id -> nodes of each thread up to its last writer
    for node in order:
        if node._backward is None:
            continue  # a leaf
        t = int(node._on_worker)
        need = writers.get(id(node), (0, 0))[1 - t]
        for p in node._parents:
            w = writers.setdefault(id(p), [0, 0])
            need = max(need, w[1 - t])
            w[t] = len(plans[t]) + 1
        plans[t].append((node, need))
    done, failed, cond = [0, 0], [], threading.Condition()

    def run(t: int) -> None:
        try:
            for k, (node, need) in enumerate(plans[t]):
                if done[1 - t] < need:
                    with cond:
                        cond.wait_for(lambda: done[1 - t] >= need or failed)
                        if failed:
                            return  # the other thread raised: its error propagates
                node._run_backward(root)
                with cond:
                    done[t] = k + 1
                    cond.notify()
        except BaseException:
            with cond:
                failed.append(t)
                cond.notify()
            raise

    side_by_side(lambda: run(0), lambda: run(1))


def _make(out_data: np.ndarray, op: str, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op = op
        out._parents = tuple(parents)
        out._backward = backward
        out._on_worker = _ROLE.on_worker
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _make(a.data - b.data, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, "mul", (a, b), bw)


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; NaN and -0.0 map to +0.0, as ``np.where(a > 0, a, 0)`` does."""
    out_data = np.fmax(a.data, 0)

    def bw(g):
        a._accumulate(g * (out_data > 0))

    return _make(out_data, "relu", (a,), bw)


def sqrt_safe(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Exact sqrt forward; backward denominator floored at sqrt(eps) so zero
    inputs (coincident points in distance losses) yield a finite subgradient."""
    out_data = np.sqrt(a.data)

    def bw(g):
        a._accumulate(g * 0.5 / np.maximum(out_data, np.sqrt(eps)))

    return _make(out_data, "sqrt_safe", (a,), bw)


# -- linear algebra / structure -------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``(..., m, k) x (..., k, n)``, then ``+= bias`` for an optional (n,) ``bias``:
    both operands have the same leading (batch) axes, which do not broadcast,
    and each batch slice is one 2-D product."""
    if (a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a.data @ b.data
    if bias is not None:
        if bias.shape != b.shape[-1:]:
            raise DimensionError(f"matmul bias shape {bias.shape} does not match {b.shape}")
        out += bias.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.reshape(-1, bias.shape[0]).sum(axis=0))

    return _make(out, "matmul", (a, b) if bias is None else (a, b, bias), bw)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    axes_t = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes_t)

    def bw(g):
        a._accumulate(np.transpose(g, inv))

    return _make(np.transpose(a.data, axes_t), "transpose", (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def bw(g):
        a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), "reshape", (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), "concat", tensors, bw)


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Select slices along ``axis``; indices are constants (no index gradient)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise IndexError(f"gather index out of range for axis {axis} of size {a.shape[axis]}")

    def bw(g):
        # scatter-add as one (n, m) 0/1 CSR product; its columns are sorted by a
        # stable argsort, so each row sums its picks in position order from
        # zero, exactly as np.add.at does
        n, m = a.shape[axis], idx.size
        pre, post = a.shape[:axis], a.shape[axis + 1:]
        gm = np.moveaxis(g.reshape(pre + (m,) + post), axis, 0).reshape(m, math.prod(pre + post))
        flat = idx.reshape(-1)
        # the narrowest key type: a stable sort of 8- or 16-bit keys is a radix sort
        cols = np.argsort(flat.astype(np.min_scalar_type(n)), kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=n), out=indptr[1:])
        scatter = sparse.csr_array((np.ones(m, dtype=g.dtype), cols, indptr), shape=(n, m))
        a._accumulate(np.moveaxis((scatter @ gm).reshape((n,) + pre + post), 0, axis))

    return _make(np.take(a.data, idx, axis=axis), "gather", (a,), bw)


# -- reductions ------------------------------------------------------------------


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def bw(g):
        ge = g if keepdims or axis is None else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(ge, a.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), "reduce_sum", (a,), bw)


def reduce_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]

    def bw(g):
        ge = g if keepdims or axis is None else np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(ge / n, a.shape))

    return _make(a.data.mean(axis=axis, keepdims=keepdims), "reduce_mean", (a,), bw)


def _reduce_select(a: Tensor, axis: int, argfn, valfn, name: str):
    idx = argfn(a.data, axis=axis)  # numpy picks the first (lowest-index) extremum
    out_data = valfn(a.data, axis=axis)

    def bw(g):
        acc = np.zeros_like(a.data)  # each output picked exactly one element
        np.put_along_axis(acc, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        a._accumulate(acc)

    return _make(out_data, name, (a,), bw), idx


def reduce_max(a: Tensor, axis: int):
    """Max along ``axis``; returns (values, argmax). Ties go to the lowest index;
    gradient flows only to the selected elements."""
    return _reduce_select(a, axis, np.argmax, np.max, "reduce_max")


def reduce_min(a: Tensor, axis: int):
    """Min along ``axis``; returns (values, argmin), same subgradient rule as max."""
    return _reduce_select(a, axis, np.argmin, np.min, "reduce_min")


# -- normalizers / softmax ---------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise FloatingPointError("softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot))

    return _make(out_data, "softmax", (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis with learnable affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data
    n = x.shape[-1]

    def bw(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gx = g * gain.data
            t1 = gx.sum(axis=-1, keepdims=True)
            t2 = (gx * xhat).sum(axis=-1, keepdims=True)
            x._accumulate(inv * (gx - t1 / n - xhat * t2 / n))

    return _make(out_data, "layer_norm", (x, gain, bias), bw)


def batch_norm_1d(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
    relu: bool = False,
) -> Tensor:
    """Batch normalization of the channels (last axis) over every other axis,
    optionally followed by ReLU in the same node. An (h, w, c) feature map is
    normalized as its (h * w, c) view, so no reshape node surrounds it.

    In training mode normalizes by batch statistics and updates the running
    buffers in place; in eval mode uses the running buffers as constants.
    With ``relu`` the output is bit-identical to
    ``relu(batch_norm_1d(...))``, without a second node or its mask. Backward
    recomputes the normalized input from ``x`` (Chen et al. 2016,
    arXiv:1604.06174), so the node keeps only (c,) statistics besides its
    input and output.
    """
    xd, c = x.data, x.shape[-1]  # reductions run over (-1, c) views of contiguous data
    if training:
        rows = xd.reshape(-1, c)
        mu = rows.mean(axis=0)
        var = rows.var(axis=0)
        n = rows.shape[0]
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * n / max(n - 1, 1))
    else:
        mu = running_mean.copy()  # a later train-mode forward moves the buffer
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)

    def normalized(*wider) -> np.ndarray:
        """``(x - mu) * inv``, then cast up to the dtype a product with
        ``wider`` would have, so in-place arithmetic rounds as that product."""
        xhat = xd.reshape(-1, c) - mu
        xhat *= inv
        return xhat.astype(np.result_type(xhat, *wider), copy=False)

    out_data = normalized(gain.data, bias.data)
    out_data *= gain.data
    out_data += bias.data
    if relu:
        np.fmax(out_data, 0, out=out_data)
    out_data = out_data.reshape(x.shape)

    def bw(g):
        g = g.reshape(-1, c)
        if relu:
            g = g * (out_data.reshape(-1, c) > 0)
        if gain.requires_grad or (x.requires_grad and training):
            xhat = normalized(g)
            prod = g * xhat
        if gain.requires_grad:
            gain._accumulate(prod.sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            # the masked g is this closure's own: scale it in place
            gx = np.multiply(g, gain.data, out=g if relu else None)
            if training:  # inv * (gx - mean(gx) - xhat * mean(gx * xhat))
                t1 = gx.mean(axis=0)
                xhat *= np.multiply(gx, xhat, out=prod).mean(axis=0)
                gx -= t1
                gx -= xhat
            gx *= inv
            x._accumulate(gx.reshape(x.shape))

    return _make(out_data, "batch_norm_1d", (x, gain, bias), bw)


# -- convolution -------------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution on a single (H, W, Cin) image with (kh, kw, Cin, Cout) weights.

    Shifted GEMM (kn2row; Anderson et al. 2017, arXiv:1709.03395), with no
    im2col matrix. The zero-padded image is split into ``stride``-squared
    polyphase images, each flattened to rows of ``Cin`` values at one common
    width ``Wq``. Tap ``(i, j)`` is then one GEMM on a contiguous row range of
    phase ``(i % stride, j % stride)``, starting at row
    ``(i // stride) * Wq + j // stride``. The output is computed over the full
    width ``Wq``, and its last ``Wq - Wo`` columns, which wrap across image
    rows, are dropped. Backward uses the same row ranges, with zeros in those
    columns of the output gradient. Taps are summed one at a time, so float32
    results round differently from a single (Ho*Wo, kh*kw*Cin) product.
    """
    H, W, Cin = x.shape
    kh, kw, wcin, Cout = w.shape
    if wcin != Cin:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape}, weight {w.shape}")
    s, pad = stride, padding
    Ho = (H + 2 * pad - kh) // s + 1
    Wo = (W + 2 * pad - kw) // s + 1
    Hq, Wq = -(-(H + 2 * pad) // s), -(-(W + 2 * pad) // s)
    n = Ho * Wq  # output rows computed, wrapped columns included
    phases = sorted({(i % s, j % s) for i in range(kh) for j in range(kw)})
    # (phase, first row, weight) per tap; a window is xq[phase, row : row + n]
    taps = [(phases.index((i % s, j % s)), (i // s) * Wq + j // s, w.data[i, j])
            for i in range(kh) for j in range(kw)]

    def image_slices(a: int, c: int):
        """x[src] holds exactly the pixels of phase (a, c), at grid[dst]."""
        r0, c0 = (a - pad) % s, (c - pad) % s
        y0, q0 = (r0 + pad) // s, (c0 + pad) // s
        src = (slice(r0, None, s), slice(c0, None, s))
        dst = (slice(y0, y0 + len(range(r0, H, s))), slice(q0, q0 + len(range(c0, W, s))))
        return src, dst

    def grid(arr: np.ndarray, k: int) -> np.ndarray:
        return arr[k, : Hq * Wq].reshape(Hq, Wq, Cin)

    # the last window of a row range runs (kw - 1) // s rows past the image
    xq = np.zeros((len(phases), Hq * Wq + (kw - 1) // s, Cin), dtype=x.data.dtype)
    for k, phase in enumerate(phases):
        src, dst = image_slices(*phase)
        grid(xq, k)[dst] = x.data[src]
    (k, r, wij), rest = taps[0], taps[1:]
    acc = xq[k, r : r + n] @ wij
    prod = np.empty_like(acc)
    for k, r, wij in rest:
        np.matmul(xq[k, r : r + n], wij, out=prod)
        acc += prod
    out = acc.reshape(Ho, Wq, Cout)[:, :Wo]
    out_data = out + b.data if b is not None else out
    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        if b is not None and b.requires_grad:
            b._accumulate(g.reshape(Ho * Wo, Cout).sum(axis=0))
        if not (w.requires_grad or x.requires_grad):
            return
        gq = np.zeros((Ho, Wq, Cout), dtype=g.dtype)
        gq[:, :Wo] = g
        gq = gq.reshape(n, Cout)
        if w.requires_grad:
            w._accumulate(np.stack([xq[k, r : r + n].T @ gq for k, r, _ in taps])
                          .reshape(w.shape))
        if x.requires_grad:
            dxq = np.zeros_like(xq)
            prod = np.empty((n, Cin), dtype=np.result_type(gq, w.data))
            for k, r, wij in taps:
                np.matmul(gq, wij.T, out=prod)
                dxq[k, r : r + n] += prod
            dx = np.zeros_like(x.data)
            for k, phase in enumerate(phases):
                src, dst = image_slices(*phase)
                dx[src] = grid(dxq, k)[dst]
            x._accumulate(dx)

    return _make(out_data, "conv2d", parents, bw)


# -- checkpoint archive --------------------------------------------------------------

_CKPT_MAGIC = b"DPCK\x01\n"


def save_checkpoint(path, params: dict[str, Tensor]) -> None:
    """Write a flat parameter archive.

    Byte layout (all integers little-endian):
      magic ``DPCK\\x01\\n`` | u32 entry count | entries.
      Each entry: u16 name length | name utf-8 | u8 ndim | u32 dims... |
      float32 little-endian values, C order.

    The archive is written to ``<path>.tmp`` and renamed over ``path``, so a
    write that fails part-way leaves the previous file untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<I", len(params)))
            for name in sorted(params):
                t = params[name]
                enc = name.encode("utf-8")
                f.write(struct.pack("<H", len(enc)))
                f.write(enc)
                f.write(struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape))
                f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
            f.flush()
            os.fsync(f.fileno())  # else a crash after the rename can leave an empty file
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a parameter archive back as name -> float32 array; a bad magic or a
    truncated file raises ValueError naming ``path``."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            if f.tell() + n > size:
                raise ValueError(f"{path}: truncated checkpoint ({size} bytes)")
            return f.read(n)

        magic = f.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a parameter checkpoint (bad magic)")
        (count,) = struct.unpack("<I", read(4))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            n = math.prod(shape)  # exact: a wrapped product could pass the size check
            data = np.frombuffer(read(4 * n), dtype="<f4").reshape(shape)
            out[name] = data.astype(np.float32)
    return out
