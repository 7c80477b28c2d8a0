"""Autodiff engine: forward semantics, finite-difference gradients, checkpoints."""

from __future__ import annotations

import inspect
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (batch_norm_1d_stored_oracle, conv2d_im2col_oracle, gather_add_at_oracle,
                     reduce_select_add_at_oracle)

from duinnet import tensor as T
from duinnet.gradcheck import PRIMITIVE_CHECKS, check_fn
from duinnet.tensor import DimensionError, Tensor


# -- forward semantics ------------------------------------------------------------


def test_matmul_identity():
    m = np.arange(9, dtype=np.float64).reshape(3, 3)
    out = T.matmul(T.tensor(np.eye(3)), T.tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_values():
    out = T.matmul(T.tensor([[1.0, 2.0], [3.0, 4.0]]), T.tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        T.matmul(T.tensor(np.zeros((2, 3))), T.tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_batched_matches_per_slice_products():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 5, 2))
    out = T.matmul(T.tensor(a), T.tensor(b))
    assert out.shape == (3, 4, 2)
    for h in range(3):
        np.testing.assert_array_equal(out.data[h], a[h] @ b[h])


@pytest.mark.parametrize("sa,sb", [
    ((2, 3, 4), (3, 4, 5)),  # leading (batch) axes differ
    ((2, 3, 4), (4, 5)),     # different numbers of axes
    ((3,), (3, 2)),          # 1-D operand
    ((2, 3), (3,)),
], ids=["batch-mismatch", "ndim-mismatch", "1d-left", "1d-right"])
def test_matmul_batched_shape_errors_name_both_shapes(sa, sb):
    with pytest.raises(DimensionError) as exc:
        T.matmul(T.tensor(np.zeros(sa)), T.tensor(np.zeros(sb)))
    assert str(sa) in str(exc.value) and str(sb) in str(exc.value)


def test_softmax_constant_row():
    out = T.softmax(T.tensor([[2.0, 2.0, 2.0]]), axis=-1)
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_analytic_pair():
    out = T.softmax(T.tensor([0.0, np.log(3.0)]), axis=-1)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).standard_normal((4, 7))
    out = T.softmax(T.tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
def test_softmax_row_sums_property(x):
    out = T.softmax(T.tensor(x), axis=-1)
    assert np.all(out.data >= 0)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(3), atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        T.softmax(T.tensor([np.nan, 1.0]))


def test_layer_norm_constant_row_maps_to_zero():
    out = T.layer_norm(T.tensor([[5.0, 5.0, 5.0]]), T.tensor(np.ones(3)),
                       T.tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-10)


def test_layer_norm_already_normalized_row():
    out = T.layer_norm(T.tensor([[-1.0, 1.0]]), T.tensor(np.ones(2)),
                       T.tensor(np.zeros(2)), eps=1e-14)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_row_statistics():
    x = np.random.default_rng(3).standard_normal((6, 8))
    out = T.layer_norm(T.tensor(x), T.tensor(np.ones(8)), T.tensor(np.zeros(8)),
                       eps=1e-12)
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
    var = out.data.var(axis=-1)
    assert np.all(var > 1 - 1e-6) and np.all(var < 1 + 1e-6)


def test_layer_norm_requires_positive_eps():
    with pytest.raises(ValueError):
        T.layer_norm(T.tensor([[1.0, 2.0]]), T.tensor(np.ones(2)),
                     T.tensor(np.zeros(2)), eps=0.0)


def test_relu_values():
    for dtype in (np.float32, np.float64):
        a = np.array([-1.0, -0.0, 0.0, 2.0, np.nan, -np.inf, np.inf], dtype=dtype)
        out = T.relu(T.tensor(a)).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 2.0, 0.0, 0.0, np.inf])
        assert out.dtype == dtype and not np.signbit(out).any()  # NaN, -0.0 become +0.0
        assert out.tobytes() == np.where(a > 0, a, 0).tobytes()


def test_gather_repeats_rows():
    m = np.arange(6, dtype=np.float64).reshape(3, 2)
    out = T.gather(T.tensor(m), [0, 0], axis=0)
    np.testing.assert_array_equal(out.data, m[[0, 0]])


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        T.gather(T.tensor(np.zeros((3, 2))), [5], axis=0)


_SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def _value_and_grad(op, xd, seed):
    """``op(x)``'s value and the gradient of a random weighted sum of it."""
    x = T.tensor(xd, requires_grad=True)
    out = op(x)
    upstream = np.random.default_rng(seed).standard_normal(out.shape).astype(xd.dtype)
    T.reduce_sum(T.mul(out, T.tensor(upstream))).backward()
    return out.data, x.grad


@settings(max_examples=150, deadline=None)
@given(shape=_SHAPES, data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**31))
@example(shape=(2, 3), data=None, dtype=np.float32, seed=0)  # axis 1, as per-head slicing
def test_gather_matches_add_at_oracle(shape, data, dtype, seed):
    """Duplicate and empty index lists, every axis: the CSR scatter of gather's
    backward gives the same bits as np.add.at."""
    if data is None:
        axis, idx = 1, [2, 0, 2, 2]
    else:
        axis = data.draw(st.integers(0, len(shape) - 1))
        idx = data.draw(st.lists(st.integers(0, shape[axis] - 1), max_size=9))
    xd = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    got = _value_and_grad(lambda x: T.gather(x, idx, axis=axis), xd, seed + 1)
    want = _value_and_grad(lambda x: gather_add_at_oracle(x, idx, axis=axis), xd, seed + 1)
    for g, o in zip(got, want):
        assert g.dtype == o.dtype and np.array_equal(g, o)


@settings(max_examples=100, deadline=None)
@given(shape=_SHAPES, data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       op=st.sampled_from(["max", "min"]), seed=st.integers(0, 2**31))
def test_reduce_select_matches_add_at_oracle(shape, data, dtype, op, seed):
    """Values from {-1, 0, 1} force ties: values, picks and gradient match the
    np.add.at body bit for bit."""
    axis = data.draw(st.integers(0, len(shape) - 1))
    xd = np.random.default_rng(seed).integers(-1, 2, shape).astype(dtype)
    fns = {"max": (T.reduce_max, np.argmax, np.max), "min": (T.reduce_min, np.argmin, np.min)}
    fn, argfn, valfn = fns[op]
    got = _value_and_grad(lambda x: fn(x, axis=axis)[0], xd, seed + 1)
    want = _value_and_grad(
        lambda x: reduce_select_add_at_oracle(x, axis, argfn, valfn)[0], xd, seed + 1)
    np.testing.assert_array_equal(fn(T.tensor(xd), axis=axis)[1], argfn(xd, axis=axis))
    for g, o in zip(got, want):
        assert g.dtype == o.dtype and np.array_equal(g, o)


def test_reduce_min_max_lowest_index_ties():
    x = T.tensor(np.array([[1.0, 1.0, 0.5], [2.0, 2.0, 2.0]]), requires_grad=True)
    vals, args = T.reduce_max(x, axis=1)
    np.testing.assert_array_equal(args, [0, 0])
    T.reduce_sum(vals).backward()
    np.testing.assert_array_equal(x.grad, [[1, 0, 0], [1, 0, 0]])


def test_batch_norm_eval_uses_running_stats():
    gain, bias = T.tensor(np.ones(2)), T.tensor(np.zeros(2))
    rm, rv = np.array([1.0, 2.0]), np.array([4.0, 9.0])
    x = T.tensor(np.array([[3.0, 5.0]]))
    out = T.batch_norm_1d(x, gain, bias, rm, rv, training=False, eps=0.0)
    np.testing.assert_allclose(out.data, [[1.0, 1.0]])
    np.testing.assert_array_equal(rm, [1.0, 2.0])  # eval never touches the buffers


def test_batch_norm_train_normalizes_batch():
    gain, bias = T.tensor(np.ones(3)), T.tensor(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    x = np.random.default_rng(1).standard_normal((32, 3))
    out = T.batch_norm_1d(T.tensor(x), gain, bias, rm, rv, training=True, eps=1e-12)
    assert np.abs(out.data.mean(axis=0)).max() < 1e-10
    np.testing.assert_allclose(out.data.var(axis=0), np.ones(3), atol=1e-6)
    assert not np.allclose(rm, 0)  # running buffers were updated in place


# -- gradients --------------------------------------------------------------------

@pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CHECKS, ids=[c[0] for c in PRIMITIVE_CHECKS])
def test_primitive_gradients(name, fn, shapes):
    rng = np.random.default_rng(hash(name) % 2**32)
    err = check_fn(fn, [rng.standard_normal(s) for s in shapes])
    assert err < 1e-4


# Ops whose gradients have their own test below instead of a registry entry.
DEDICATED_GRADIENT_TESTS = ("layer_norm", "batch_norm_1d", "conv2d")


def _records_node(fn) -> bool:
    """Whether ``fn`` calls ``T._make``, directly or through a private helper."""
    names = fn.__code__.co_names
    return "_make" in names or any(
        _records_node(getattr(T, n)) for n in names
        if n.startswith("_") and inspect.isfunction(getattr(T, n, None)))


def test_every_op_has_a_gradient_check():
    ops = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
           if fn.__module__ == T.__name__ and not name.startswith("_") and _records_node(fn)}
    assert {"matmul", "reduce_max", "conv2d"} <= ops  # the scan finds direct and helper calls
    assert set(DEDICATED_GRADIENT_TESTS) <= ops
    checked = set(DEDICATED_GRADIENT_TESTS)
    for name, fn, shapes in PRIMITIVE_CHECKS:
        # an entry is named after its op, optionally with a "_<variant>" suffix,
        # and must put that op on the tape
        leaves = [T.tensor(np.ones(s), requires_grad=True) for s in shapes]
        on_tape = {node._op for node in fn(*leaves).backward().entries}
        checked |= {name, name.rsplit("_", 1)[0]} & on_tape
    assert sorted(ops - checked) == []


def test_matmul_gradient_tight():
    rng = np.random.default_rng(5)
    err = check_fn(lambda a, b: T.reduce_sum(T.matmul(a, b)),
                   [rng.standard_normal((5, 4)), rng.standard_normal((4, 3))])
    assert err < 1e-6


def test_softmax_gradient_tight():
    rng = np.random.default_rng(6)
    err = check_fn(lambda a: T.reduce_sum(T.mul(a, T.softmax(a, axis=-1))),
                   [rng.standard_normal((4, 7))])
    assert err < 1e-6


def test_layer_norm_gradient():
    rng = np.random.default_rng(7)
    err = check_fn(lambda x, g, b: T.reduce_sum(T.mul(T.layer_norm(x, g, b), x)),
                   [rng.standard_normal((4, 6)), rng.standard_normal(6),
                    rng.standard_normal(6)])
    assert err < 1e-4


def _batch_norm_gradient_error(training: bool, relu: bool) -> float:
    rng = np.random.default_rng(8)
    mean, var = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)

    def fn(x, g, b):
        rm, rv = mean.copy(), var.copy()
        return T.reduce_sum(T.mul(
            T.batch_norm_1d(x, g, b, rm, rv, training=training, relu=relu), x))

    return check_fn(fn, [rng.standard_normal((6, 4)), rng.standard_normal(4),
                         rng.standard_normal(4)])


def test_batch_norm_gradient_train_mode():
    assert _batch_norm_gradient_error(training=True, relu=False) < 1e-4
    assert _batch_norm_gradient_error(training=True, relu=True) < 1e-4


def test_batch_norm_gradient_eval_mode():
    assert _batch_norm_gradient_error(training=False, relu=False) < 1e-4
    assert _batch_norm_gradient_error(training=False, relu=True) < 1e-4


_BN_VARIANTS = {
    "fused": lambda *a: T.batch_norm_1d(*a, relu=True),
    "unfused": lambda *a: T.relu(T.batch_norm_1d(*a)),
    "oracle": lambda *a: T.relu(batch_norm_1d_stored_oracle(*a)),
    "bn": T.batch_norm_1d,
    "bn_oracle": batch_norm_1d_stored_oracle,
}


def _bn_value_and_grads(variant, xd, gd, bd, rm, rv, training, upstream):
    x, gain, bias = (T.tensor(a, requires_grad=True) for a in (xd, gd, bd))
    out = _BN_VARIANTS[variant](x, gain, bias, rm, rv, training)
    T.reduce_sum(T.mul(out, T.tensor(upstream))).backward()
    return [out.data, x.grad, gain.grad, bias.grad, rm, rv]


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_relu_matches_unfused(dtype, training):
    """The fused node against relu(batch_norm_1d(...)) and against the former
    stored-xhat body, with and without ReLU: output, the three gradients and
    the running buffers are the same bits, with NaN inputs, a constant
    channel and a zero bias (outputs exactly on the ReLU kink)."""
    rng = np.random.default_rng(11)
    xd = rng.standard_normal((40, 6)).astype(dtype)
    xd[:, 1] = 0.5                    # constant channel: xhat is exactly 0
    xd[3, 4] = np.nan                 # train: NaN channel; eval: one NaN row entry
    xd[7, 2] = 0.0
    gd = rng.standard_normal(6).astype(dtype)
    bd = rng.standard_normal(6).astype(dtype)
    bd[1] = 0.0                       # the constant channel's output is exactly 0
    rm = rng.standard_normal(6).astype(dtype)
    rm[2] = 0.0
    rv = rng.uniform(0.5, 2.0, 6).astype(dtype)
    upstream = rng.standard_normal((40, 6)).astype(dtype)
    runs = {v: _bn_value_and_grads(v, xd, gd, bd, rm.copy(), rv.copy(), training, upstream)
            for v in _BN_VARIANTS}
    assert (runs["fused"][0] == 0).any() and np.isnan(runs["fused"][1]).any() == training
    for a, b in [("fused", "unfused"), ("fused", "oracle"), ("bn", "bn_oracle")]:
        for name, g, o in zip(("out", "dx", "dgain", "dbias", "running_mean", "running_var"),
                              runs[a], runs[b]):
            assert g.dtype == o.dtype and np.array_equal(g, o, equal_nan=True), (a, b, name)


def test_batch_norm_relu_mixed_precision_matches_unfused():
    """float32 input with float64 gain and bias: the fused node widens as the
    former out-of-place products did."""
    rng = np.random.default_rng(12)
    xd = rng.standard_normal((16, 3)).astype(np.float32)
    gd, bd = rng.standard_normal(3), rng.standard_normal(3)
    upstream = rng.standard_normal((16, 3))
    for training in (True, False):
        stats = (np.zeros(3, np.float32), np.ones(3, np.float32))
        got = _bn_value_and_grads("fused", xd, gd, bd, *map(np.copy, stats), training,
                                  upstream)
        want = _bn_value_and_grads("oracle", xd, gd, bd, *map(np.copy, stats), training,
                                   upstream)
        for g, o in zip(got, want):
            assert g.dtype == o.dtype and np.array_equal(g, o)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batch_norm_relu_node_keeps_only_channel_statistics(training):
    """Besides its input and output data, the fused node's backward closure
    holds only (c,) arrays: no normalized input and no ReLU mask."""
    rng = np.random.default_rng(13)
    x = T.tensor(rng.standard_normal((64, 8)), requires_grad=True)
    gain, bias = T.tensor(np.ones(8), requires_grad=True), T.tensor(np.zeros(8))
    out = T.batch_norm_1d(x, gain, bias, np.zeros(8), np.ones(8), training, relu=True)
    def closed_over(fn):
        return [c.cell_contents for c in fn.__closure__ or ()]

    top = closed_over(out._backward)  # and what the functions it calls hold
    cells = top + [v for f in top if inspect.isfunction(f) for v in closed_over(f)]
    kept = [c for c in cells if isinstance(c, np.ndarray)]
    assert any(a is x.data for a in kept) and any(a is out.data for a in kept)
    assert all(a.shape == (8,) for a in kept if a is not x.data and a is not out.data)


@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batch_norm_over_leading_axes_matches_reshape_wrapped(training, relu):
    """An (h, w, c) map is normalized as its (h * w, c) rows, bit for bit,
    with no reshape node on either side of the batch norm."""
    rng = np.random.default_rng(15)
    xd, gd, bd, upstream = (rng.standard_normal(s).astype(np.float32)
                            for s in ((5, 6, 4), (4,), (4,), (5, 6, 4)))
    rm, rv = rng.standard_normal(4).astype(np.float32), rng.uniform(0.5, 2, 4).astype(np.float32)
    results = []
    for wrapped in (False, True):
        x, gain, bias = (T.tensor(a, requires_grad=True) for a in (xd, gd, bd))
        buffers = (rm.copy(), rv.copy())
        if wrapped:
            out = T.reshape(T.batch_norm_1d(T.reshape(x, (30, 4)), gain, bias, *buffers,
                                            training, relu=relu), (5, 6, 4))
        else:
            out = T.batch_norm_1d(x, gain, bias, *buffers, training, relu=relu)
        tape = T.reduce_sum(T.mul(out, T.tensor(upstream))).backward()
        assert ("reshape" in {node._op for node in tape.entries}) == wrapped
        results.append([out.data, x.grad, gain.grad, bias.grad, *buffers])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_batch_norm_eval_node_ignores_later_buffer_updates():
    """An eval-mode node's backward reads its own copy of the running mean, so
    a train-mode forward between its forward and backward changes nothing."""
    rng = np.random.default_rng(14)
    xd, gd = rng.standard_normal((10, 4)), rng.standard_normal(4)
    rm, rv = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
    grads = []
    for moved in (False, True):
        x, gain = T.tensor(xd, requires_grad=True), T.tensor(gd, requires_grad=True)
        buffers = (rm.copy(), rv.copy())
        out = T.batch_norm_1d(x, gain, T.tensor(np.zeros(4)), *buffers, training=False,
                              relu=True)
        if moved:
            T.batch_norm_1d(T.tensor(xd + 5.0), gain, T.tensor(np.zeros(4)), *buffers,
                            training=True)
            assert not np.array_equal(buffers[0], rm)
        T.reduce_sum(T.mul(out, out)).backward()
        grads.append((x.grad, gain.grad))
    for g, o in zip(*grads):
        assert np.array_equal(g, o)


def test_conv2d_gradient():
    rng = np.random.default_rng(9)

    def fn(x, w, b):
        out = T.conv2d(x, w, b, stride=1, padding=1)
        return T.reduce_sum(T.mul(out, out))

    err = check_fn(fn, [rng.standard_normal((5, 5, 2)),
                        rng.standard_normal((3, 3, 2, 3)),
                        rng.standard_normal(3)])
    assert err < 1e-4


def _conv_value_and_grads(conv, xd, wd, bd, stride, padding, upstream_seed):
    x, w = T.tensor(xd, requires_grad=True), T.tensor(wd, requires_grad=True)
    b = None if bd is None else T.tensor(bd, requires_grad=True)
    out = conv(x, w, b, stride=stride, padding=padding)
    upstream = np.random.default_rng(upstream_seed).standard_normal(out.shape)
    T.reduce_sum(T.mul(out, T.tensor(upstream))).backward()
    return [out.data, x.grad, w.grad] + ([] if b is None else [b.grad])


@settings(max_examples=120, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), cin=st.integers(1, 5),
       cout=st.integers(1, 4), k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
       padding=st.sampled_from([0, 1]), bias=st.booleans(), seed=st.integers(0, 2**31))
@example(h=1, w=1, cin=2, cout=3, k=3, stride=2, padding=1, bias=False, seed=0)
@example(h=1, w=1, cin=1, cout=1, k=1, stride=1, padding=0, bias=True, seed=0)
@example(h=6, w=5, cin=5, cout=2, k=3, stride=2, padding=1, bias=True, seed=1)
def test_conv2d_matches_im2col_oracle(h, w, cin, cout, k, stride, padding, bias, seed):
    """Shifted-GEMM conv2d against the im2col body: value and all gradients."""
    assume(h + 2 * padding >= k and w + 2 * padding >= k)
    rng = np.random.default_rng(seed)
    xd, wd = rng.standard_normal((h, w, cin)), rng.standard_normal((k, k, cin, cout))
    bd = rng.standard_normal(cout) if bias else None
    got = _conv_value_and_grads(T.conv2d, xd, wd, bd, stride, padding, seed + 1)
    want = _conv_value_and_grads(conv2d_im2col_oracle, xd, wd, bd, stride, padding, seed + 1)
    for name, g, o in zip(("out", "dx", "dw", "db"), got, want):
        assert g.shape == o.shape, name
        assert np.abs(g - o).max() <= 1e-10 * max(np.abs(o).max(), 1e-300), name


def test_conv2d_forward_retains_under_four_times_its_input():
    """Output plus backward closure of a 3x3, padding-1, 16 -> 16 channel
    convolution stay under 4x the input's bytes (an im2col matrix alone is 9x)."""
    rng = np.random.default_rng(13)
    x = T.tensor(rng.standard_normal((64, 64, 16)).astype(np.float32), requires_grad=True)
    w = T.tensor(rng.standard_normal((3, 3, 16, 16)).astype(np.float32), requires_grad=True)
    b = T.tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = T.conv2d(x, w, b, stride=1, padding=1)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert retained < 4 * x.data.nbytes, retained / x.data.nbytes


def test_no_grad_nests_and_restores_after_an_error():
    a = T.tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            with T.no_grad():
                pass
            out = T.add(a, a)
            assert not out._parents and out._backward is None and not out.requires_grad
            raise RuntimeError
    out = T.add(a, a)
    assert out._parents == (a, a) and out.requires_grad


def test_random_op_compositions():
    """Chains of <= 10 random primitives keep analytic and numeric grads aligned."""
    rng = np.random.default_rng(11)
    unary = [
        lambda t: T.relu(t),
        lambda t: T.softmax(t, axis=-1),
        lambda t: T.mul(t, t),
        lambda t: T.add(t, T.tensor(0.5)),
        lambda t: T.transpose(T.matmul(T.transpose(t), t)),
        lambda t: T.sqrt_safe(T.add(T.mul(t, t), T.tensor(0.3))),
    ]
    for trial in range(8):
        ops = [unary[i] for i in rng.integers(0, len(unary), size=rng.integers(2, 10))]

        def build(a, ops=ops):
            t = a
            for op in ops:
                t = op(t)
            return T.reduce_sum(t)

        err = check_fn(build, [rng.standard_normal((4, 4))])
        assert err < 1e-4, f"trial {trial}: rel err {err}"


def test_backward_populates_only_requires_grad_leaves():
    a = T.tensor(np.ones((2, 2)), requires_grad=True)
    b = T.tensor(np.ones((2, 2)))
    out = T.reduce_sum(T.mul(a, b))
    out.backward()
    assert a.grad is not None
    assert b.grad is None


def test_gradients_accumulate_over_paths():
    a = T.tensor(np.array([2.0]), requires_grad=True)
    out = T.reduce_sum(T.add(T.mul(a, a), a))  # d/da (a^2 + a) = 2a + 1
    out.backward()
    np.testing.assert_allclose(a.grad, [5.0])


def test_forward_determinism():
    x = np.random.default_rng(12).standard_normal((8, 8)).astype(np.float32)
    r1 = T.softmax(T.matmul(T.tensor(x), T.tensor(x)), axis=-1).data
    r2 = T.softmax(T.matmul(T.tensor(x), T.tensor(x)), axis=-1).data
    assert np.array_equal(r1, r2)


def test_scalar_outputs_stay_zero_dim():
    out = T.reduce_mean(T.tensor(np.ones((3, 2))))
    assert out.shape == ()
    assert float(out.data) == 1.0


# -- checkpoint format -------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    entries = {
        "enc.weight": T.tensor(rng.standard_normal((3, 4)).astype(np.float32)),
        "enc.bias": T.tensor(rng.standard_normal(4).astype(np.float32)),
        "scalar": T.tensor(np.array([7.0], dtype=np.float32)),
    }
    path = tmp_path / "model.ckpt"
    T.save_checkpoint(path, entries)
    loaded = T.load_checkpoint(path)
    assert set(loaded) == set(entries)
    for name, t in entries.items():
        np.testing.assert_array_equal(loaded[name], t.data.astype(np.float32))


def test_checkpoint_magic_header(tmp_path):
    path = tmp_path / "model.ckpt"
    T.save_checkpoint(path, {"w": T.tensor(np.zeros(2, dtype=np.float32))})
    assert path.read_bytes().startswith(b"DPCK\x01\n")


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        T.load_checkpoint(path)


# the one-entry file is 46 bytes: magic and count 10, entry header 12, values 24
@pytest.mark.parametrize("keep", [8, 16, 26, -3],
                         ids=["count", "entry-header", "values", "partial-value"])
def test_checkpoint_truncated_raises_value_error(tmp_path, keep):
    path = tmp_path / "model.ckpt"
    T.save_checkpoint(path, {"w": T.tensor(np.ones((2, 3), dtype=np.float32))})
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated"):
        T.load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda b: b"DPCK\x01\n" + b),
    # one entry with a well-formed name and header, arbitrary dims and values
    st.builds(lambda dims, body: (b"DPCK\x01\n" + struct.pack("<IH", 1, 1) + b"w"
                                  + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + body),
              st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)), max_size=4),
              st.binary(max_size=64)),
))
def test_load_checkpoint_fuzz_raises_only_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        arrays = T.load_checkpoint(path)
    except ValueError:
        return
    assert all(a.dtype == np.float32 for a in arrays.values())


class _FailingEntry:
    """A parameter whose values cannot be read, so the write stops after the
    entries sorted before it."""
    ndim, shape = 1, (2,)

    @property
    def data(self):
        raise OSError("disk full")


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    T.save_checkpoint(path, {"w": T.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))})
    before = path.read_bytes()
    entries = {"a": T.tensor(np.ones(4, dtype=np.float32)), "z": _FailingEntry()}
    with pytest.raises(OSError, match="disk full"):
        T.save_checkpoint(path, entries)
    assert path.read_bytes() == before
    np.testing.assert_array_equal(T.load_checkpoint(path)["w"],
                                  np.arange(6, dtype=np.float32).reshape(2, 3))
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
