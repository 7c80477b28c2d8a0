"""Layers and optimizer built on the autodiff tensor engine.

Modules hold named parameters (dotted paths, e.g. ``dfi.pc_path.ca1.q_proj.weight``)
and can be serialized through the flat checkpoint archive in :mod:`duinnet.tensor`.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class: children and parameters are discovered from attributes."""

    buffer_names: tuple[str, ...] = ()

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(self, prefix: str = ""):
        for name, attr in vars(self).items():
            full = f"{prefix}{name}" if prefix else name
            if isinstance(attr, Tensor) and attr.requires_grad:
                yield full, attr
            elif isinstance(attr, Module):
                yield from attr.named_parameters(full + ".")
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def named_modules(self, prefix: str = ""):
        """(dotted name, module) of this module ("") and every descendant."""
        yield prefix, self
        for name, attr in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(attr, Module):
                yield from attr.named_modules(full)
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item.named_modules(f"{full}.{i}")

    def modules(self):
        return (m for _, m in self.named_modules())

    def named_buffers(self):
        """(dotted name, array) of every non-parameter state array, e.g.
        ``apg.pc_blocks.0.lbr1.bn.running_mean``; a module lists its own in
        ``buffer_names``."""
        for prefix, m in self.named_modules():
            for name in m.buffer_names:
                yield f"{prefix}.{name}" if prefix else name, getattr(m, name)

    def train(self, mode: bool = True):
        for m in self.modules():
            if hasattr(m, "training"):
                m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def to_dtype(self, dtype):
        """Convert all parameters and buffers in place (for 64-bit grad checks)."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        owners = dict(self.named_modules())
        for name, buf in list(self.named_buffers()):
            owner, _, attr = name.rpartition(".")
            setattr(owners[owner], attr, buf.astype(dtype))
        return self

    def state_dict(self) -> dict[str, Tensor]:
        """Parameters by name, and buffers as ``buf.<name>`` tensors that share
        the module's arrays."""
        state = dict(self.named_parameters())
        state.update((f"buf.{name}", Tensor(buf)) for name, buf in self.named_buffers())
        return state

    def load_state_dict(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from ``arrays``, and every buffer from its
        ``buf.<name>`` entry; other entries (optimizer state) are ignored.

        An archive without any ``buf.`` entry leaves the buffers as they are.
        Every entry is checked before anything is set: a missing one raises
        KeyError, a mis-shaped one ValueError.
        """
        params = dict(self.named_parameters())
        buffers = {}
        if any(k.startswith("buf.") for k in arrays):
            buffers = {f"buf.{name}": buf for name, buf in self.named_buffers()}
        for name, target in [*params.items(), *buffers.items()]:
            kind = "buffer" if name in buffers else "parameter"
            if name not in arrays:
                raise KeyError(f"checkpoint missing {kind} '{name}'")
            arr = arrays[name]
            if arr.shape != target.shape:
                raise ValueError(
                    f"shape mismatch for {kind} '{name}': "
                    f"checkpoint {tuple(arr.shape)} vs model {target.shape}"
                )
        for name, p in params.items():
            p.data = arrays[name].astype(p.data.dtype).copy()
        for name, buf in buffers.items():
            np.copyto(buf, arrays[name])


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(T.default_dtype())


class Linear(Module):
    """Affine map of the rows of an (n, in_dim) tensor."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (in_dim, out_dim), in_dim), requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, (out_dim,), in_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim, dtype=T.default_dtype()), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=T.default_dtype()), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.eps)


class BatchNorm1d(Module):
    """Batch normalization of the last (dim) axis over all others; with
    ``relu`` it is followed by ReLU in the same tape node."""

    buffer_names = ("running_mean", "running_var")

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5,
                 relu: bool = False):
        self.gain = Tensor(np.ones(dim, dtype=T.default_dtype()), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=T.default_dtype()), requires_grad=True)
        self.running_mean = np.zeros(dim, dtype=T.default_dtype())
        self.running_var = np.ones(dim, dtype=T.default_dtype())
        self.momentum = momentum
        self.eps = eps
        self.relu = relu
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_norm_1d(
            x, self.gain, self.bias, self.running_mean, self.running_var,
            self.training, self.momentum, self.eps, self.relu,
        )


class Conv2d(Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0, bias: bool = True):
        fan_in = kernel * kernel * in_ch
        self.weight = Tensor(_uniform_init(rng, (kernel, kernel, in_ch, out_ch), fan_in),
                             requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, (out_ch,), fan_in), requires_grad=True) if bias else None
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class LBR(Module):
    """Linear + batch norm + ReLU triple, the generator's building block."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.linear = Linear(in_dim, out_dim, rng)
        self.bn = BatchNorm1d(out_dim, relu=True)

    def __call__(self, x: Tensor) -> Tensor:
        return self.bn(self.linear(x))


class Adam:
    """Adam with optional stepwise learning-rate decay schedule."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
