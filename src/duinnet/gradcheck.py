"""Central finite-difference gradient verification, shared by tests and the CLI.

All checks run at 64-bit precision with the default step 1e-5. Relative error
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

# (name, scalar-valued graph, input shapes). A name is its op, optionally with
# a "_<variant>" suffix; layer_norm, batch_norm_1d and conv2d have their own
# gradient tests instead.
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
]


def finite_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x (same shape as x)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(np.abs(numeric), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


def check_fn(build, inputs: list[np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error over all inputs of scalar-valued ``build(*tensors)``.

    ``build`` must construct a fresh graph from leaf tensors on each call.
    The caller's arrays are copied to float64 leaves; only the copies are
    perturbed during differencing.
    """
    leaves = [Tensor(np.ascontiguousarray(x, dtype=np.float64), requires_grad=True)
              for x in inputs]
    out = build(*leaves)
    out.backward()
    worst = 0.0
    for leaf in leaves:
        numeric = finite_diff(lambda: float(build(*leaves).data), leaf.data, eps)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        worst = max(worst, rel_err(analytic, numeric))
    return worst


def check_module_params(module: Module, forward, eps: float = 1e-5) -> float:
    """Max relative error of d forward() / d params over every parameter entry.

    ``forward`` is a zero-argument callable returning a scalar Tensor built
    from the module's current parameters, which are cast to float64 first.
    """
    module.to_dtype(np.float64)
    out = forward()
    module.zero_grad()
    out.backward()
    worst = 0.0
    for _, p in module.named_parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_diff(lambda: float(forward().data), p.data, eps)
        worst = max(worst, rel_err(analytic, numeric))
    return worst


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
