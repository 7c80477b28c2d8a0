"""Central finite-difference gradient verification, shared by tests and the CLI.

All checks run at 64-bit precision with the step ``STEP`` (1e-5). Relative error
is |analytic - numeric| / max(|numeric|, 1), elementwise, reported as a max.
``PRIMITIVE_CHECKS`` registers one scalar-valued graph per differentiable
op; :func:`gradient_suite` runs them plus the cross-attention, generator-block
and completion-loss checks, and both ``duinnet gradcheck`` and the test suite
consume it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .model.attention import CrossAttentionBlock
from .model.generator import GeneratorBlock
from .model.network import completion_loss
from .nn import Module
from .tensor import Tensor

STEP = 1e-5  # central-difference step


def _batch_norm(training: bool, relu: bool):
    """``batch_norm_1d`` times its input, over fresh copies of fixed running
    statistics (training mode updates them in place)."""
    def fn(x, g, b):
        rm, rv = np.linspace(-1.0, 1.0, 4), np.linspace(0.5, 2.0, 4)
        return T.reduce_sum(T.mul(
            T.batch_norm_1d(x, g, b, rm, rv, training=training, relu=relu), x))
    return fn


# (name, scalar-valued graph, input shapes). A name is its op, optionally with
# a "_<variant>" suffix.
PRIMITIVE_CHECKS = [
    ("add", lambda a, b: T.reduce_sum(T.add(a, b)), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: T.reduce_sum(T.add(a, b)), [(3, 4), (4,)]),
    ("sub", lambda a, b: T.reduce_sum(T.sub(a, b)), [(3, 4), (3, 4)]),
    ("mul", lambda a, b: T.reduce_sum(T.mul(a, b)), [(3, 4), (3, 4)]),
    ("relu", lambda a: T.reduce_sum(T.relu(a)), [(4, 4)]),
    ("sqrt_safe", lambda a: T.reduce_sum(T.sqrt_safe(T.add(T.mul(a, a), T.tensor(1.0)))),
     [(4,)]),
    ("matmul", lambda a, b: T.reduce_sum(T.matmul(a, b)), [(5, 4), (4, 3)]),
    ("matmul_batched", lambda a, b: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))),
     [(2, 5, 4), (2, 4, 3)]),
    ("matmul_bias", lambda x, w, b: T.reduce_sum(T.mul(T.matmul(x, w, b), T.matmul(x, w, b))),
     [(5, 4), (4, 3), (3,)]),
    ("transpose", lambda a: T.reduce_sum(T.mul(T.transpose(a), T.transpose(a))), [(3, 5)]),
    ("reshape", lambda a: T.reduce_sum(T.mul(T.reshape(a, (2, 6)), T.reshape(a, (2, 6)))),
     [(3, 4)]),
    ("concat", lambda a, b: T.reduce_sum(T.mul(T.concat([a, b], axis=0),
                                               T.concat([a, b], axis=0))),
     [(2, 3), (4, 3)]),
    ("gather", lambda a: T.reduce_sum(T.gather(a, [0, 2, 2, 1], axis=0)), [(4, 3)]),
    ("reduce_sum_axis", lambda a: T.reduce_sum(T.mul(T.reduce_sum(a, axis=1), T.tensor(2.0))),
     [(3, 4)]),
    ("reduce_mean", lambda a: T.reduce_mean(T.mul(a, a)), [(3, 4)]),
    ("reduce_max", lambda a: T.reduce_sum(T.reduce_max(a, axis=1)[0]), [(4, 5)]),
    ("reduce_min", lambda a: T.reduce_sum(T.reduce_min(a, axis=1)[0]), [(4, 5)]),
    ("softmax", lambda a: T.reduce_sum(T.mul(a, T.softmax(a, axis=-1))), [(4, 7)]),
    ("layer_norm", lambda x, g, b: T.reduce_sum(T.mul(T.layer_norm(x, g, b), x)),
     [(4, 6), (6,), (6,)]),
    *[(f"batch_norm_1d_{mode}{'_relu' if relu else ''}", _batch_norm(mode == "train", relu),
       [(6, 4), (4,), (4,)]) for mode in ("train", "eval") for relu in (False, True)],
    ("conv2d", lambda x, w, b: T.reduce_sum(T.mul(T.conv2d(x, w, b, padding=1),
                                                  T.conv2d(x, w, b, padding=1))),
     [(5, 5, 2), (3, 3, 2, 3), (3,)]),
]


def finite_diff(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f at x (same shape as x)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        fp = f()
        flat[i] = orig - STEP
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * STEP)
    return g


def _max_err(forward, tensors) -> float:
    """Max relative error of d forward() / d tensor over every entry of ``tensors``.

    ``forward`` is a zero-argument callable building a fresh scalar graph from
    the tensors' current data, which only the differencing perturbs.
    """
    forward().backward()
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = finite_diff(lambda: float(forward().data), t.data)
        err = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(err.max(initial=0.0)))
    return worst


def check_fn(build, inputs: list[np.ndarray]) -> float:
    """Max relative error over all inputs of scalar-valued ``build(*tensors)``.

    ``build`` must construct a fresh graph from leaf tensors on each call.
    The caller's arrays are copied to float64 leaves.
    """
    leaves = [Tensor(np.ascontiguousarray(x, dtype=np.float64), requires_grad=True)
              for x in inputs]
    return _max_err(lambda: build(*leaves), leaves)


def check_module_params(module: Module, forward) -> float:
    """Max relative error of d forward() / d params over every parameter entry;
    the parameters are cast to float64 first."""
    module.to_dtype(np.float64)
    module.zero_grad()
    return _max_err(forward, module.parameters())


def gradient_suite(rng: np.random.Generator):
    """Yield ``(name, rel_err, tol)`` for every ``PRIMITIVE_CHECKS`` entry, then
    a cross-attention block, a generator block and the completion loss.

    Inputs are drawn from ``rng`` in that order; module weights come from
    their own fixed seeds. Runs at float64 and restores the default dtype.
    """
    prev = T.default_dtype()
    T.set_default_dtype(np.float64)
    try:
        for name, fn, shapes in PRIMITIVE_CHECKS:
            yield name, check_fn(fn, [rng.standard_normal(s) for s in shapes]), 1e-4
        ca = CrossAttentionBlock(8, 2, np.random.default_rng(4))
        q0, kv0 = rng.standard_normal((5, 8)), rng.standard_normal((7, 8))
        err = check_module_params(ca, lambda: T.reduce_sum(ca(T.tensor(q0), T.tensor(kv0))))
        yield "cross_attention_block", err, 1e-4
        blk = GeneratorBlock(8, 4, np.random.default_rng(5))
        blk.eval()
        f0 = rng.standard_normal((6, 8))
        err = check_module_params(blk, lambda: T.reduce_sum(blk(T.tensor(f0))))
        yield "generator_block", err, 1e-4
        gt = T.tensor(rng.standard_normal((16, 3)))
        err = check_fn(lambda a: completion_loss(a, a, gt, "standard"),
                       [rng.standard_normal((16, 3))])
        yield "completion_loss", err, 1e-3
    finally:
        T.set_default_dtype(prev)
