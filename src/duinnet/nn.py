"""Layers and optimizer built on the autodiff tensor engine.

Modules hold named parameters (dotted paths, e.g. ``dfi.pc_path.ca1.q_proj.weight``)
and can be serialized through the flat checkpoint archive in :mod:`duinnet.tensor`.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor, in_turn


class Module:
    """Base class: children and parameters are discovered from attributes."""

    buffer_names: tuple[str, ...] = ()

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(self):
        """(dotted name, tensor) of every module's own ``requires_grad`` tensors."""
        for prefix, m in self.named_modules():
            for name, attr in vars(m).items():
                if isinstance(attr, Tensor) and attr.requires_grad:
                    yield f"{prefix}.{name}" if prefix else name, attr

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
        """Convert all parameters and buffers in place (for 64-bit grad checks).

        Converted parameters leave any ``Adam`` arena that held them, and that
        optimizer's ``step`` raises from then on.
        """
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = p._grad_buf = None
        for m in self.modules():
            for name in m.buffer_names:
                setattr(m, name, getattr(m, name).astype(dtype))
        return self

    def state_dict(self) -> dict[str, Tensor]:
        """Parameters by name, and buffers as ``buf.<name>`` tensors that share
        the module's arrays."""
        state = dict(self.named_parameters())
        state.update((f"buf.{name}", Tensor(buf)) for name, buf in self.named_buffers())
        return state

    def load_state_dict(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the parameters and buffers (see ``load_state``)."""
        load_state(self.state_dict(), arrays)


def load_state(table: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy each ``arrays`` entry into the array of the same-named ``table`` tensor.

    Parameters are required; the ``buf.`` and ``opt.`` groups are each all or
    none, so a group that ``arrays`` lacks entirely keeps its values. Entries
    the table lacks are ignored. Every entry is checked before any is copied:
    a missing one raises KeyError, a mis-shaped one ValueError, naming it.
    """
    present = {k[:4] for k in arrays if k.startswith(("buf.", "opt."))}
    checked = []
    for name, target in table.items():
        group = name[:4] if name.startswith(("buf.", "opt.")) else None
        if group is not None and group not in present:
            continue
        if name not in arrays:
            if group is None:
                raise KeyError(f"checkpoint missing parameter '{name}'")
            raise KeyError(f"checkpoint missing '{name}': '{group}' entries load "
                           "all or none, never one without its pair")
        if arrays[name].shape != target.shape:
            raise ValueError(f"shape mismatch for '{name}': checkpoint "
                             f"{tuple(arrays[name].shape)} vs model {target.shape}")
        checked.append((target.data, arrays[name]))
    for dst, src in checked:
        np.copyto(dst, src)


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(T.default_dtype())


class Linear(Module):
    """Affine map of the rows of an (n, in_dim) tensor."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Tensor(_uniform_init(rng, (in_dim, out_dim), in_dim), requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, (out_dim,), in_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalization with ``T.layer_norm``'s eps (1e-5)."""

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, dtype=T.default_dtype()), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=T.default_dtype()), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class BatchNorm1d(Module):
    """Batch normalization of the last (dim) axis over all others, with
    ``T.batch_norm_1d``'s momentum (0.1) and eps (1e-5); with ``relu`` it is
    followed by ReLU in the same tape node."""

    buffer_names = ("running_mean", "running_var")

    def __init__(self, dim: int, relu: bool = False):
        self.gain = Tensor(np.ones(dim, dtype=T.default_dtype()), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=T.default_dtype()), requires_grad=True)
        self.running_mean = np.zeros(dim, dtype=T.default_dtype())
        self.running_var = np.ones(dim, dtype=T.default_dtype())
        self.relu = relu
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_norm_1d(
            x, self.gain, self.bias, self.running_mean, self.running_var,
            self.training, relu=self.relu,
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
    """Adam with betas (0.9, 0.999) and eps 1e-8; ``TrainState`` sets ``lr``
    for its step-decay schedule. ``step`` applies no gradient that holds a
    NaN or an infinity: it returns that parameter's index instead of None.

    It owns its parameters' storage, as the flat parameter of PyTorch FSDP
    does (Zhao et al. 2023, arXiv:2304.11277): each ``p.data``, gradient
    (written there by ``Tensor._accumulate``) and moment ``m[i]``, ``v[i]`` is
    a C-contiguous view of one of four flat arrays. ``step`` runs the
    per-array operations, in their order, over each maximal run of
    consecutive parameters that have a gradient, ``CHUNK`` elements at a
    time, so the bits equal a loop over the arrays; a parameter whose
    ``grad`` is None is skipped, and its moments do not decay. A later Adam
    over the same parameters takes them over; once a ``p.data`` is no longer
    this arena's view (that, or ``Module.to_dtype``), ``step`` raises.
    """

    CHUNK = 32768  # elements per update pass; whole-run temporaries were slower

    def __init__(self, params: list[Tensor], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        if len({p.dtype for p in params}) > 1:
            raise ValueError("Adam: parameters of mixed dtypes cannot share one arena")
        self._bounds = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self._data = np.concatenate([p.data.ravel() for p in params])
        self._grad = np.empty_like(self._data)
        self._m, self._v = np.zeros_like(self._data), np.zeros_like(self._data)
        self.m, self.v = [], []
        for p, lo, hi in zip(params, self._bounds, self._bounds[1:]):
            p.data = self._data[lo:hi].reshape(p.shape)
            p._grad_buf = self._grad[lo:hi].reshape(p.shape)
            self.m.append(self._m[lo:hi].reshape(p.shape))
            self.v.append(self._v[lo:hi].reshape(p.shape))
        self._owned = [p.data for p in params]

    def _runs(self) -> list[list[int]]:
        """[first, last + 1) parameter indices of each maximal run of
        consecutive parameters that have a gradient, with every such gradient
        in the arena (one assigned from outside is copied in)."""
        runs: list[list[int]] = []
        for i, (p, data) in enumerate(zip(self.params, self._owned)):
            if p.data is not data:
                raise RuntimeError(f"Adam: parameter {i} {p.shape} no longer lives in this "
                                   "optimizer's arena (taken over by another Adam, or "
                                   "rebound by to_dtype); build a new optimizer")
            if p.grad is None:
                continue
            if p.grad is not p._grad_buf:
                np.copyto(p._grad_buf, p.grad)
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        return runs

    def _halves(self, runs: list[list[int]]) -> tuple[list[slice], list[slice]]:
        """The runs' ``CHUNK``-element slices of the arena, in two contiguous halves."""
        chunks = [slice(lo, min(lo + self.CHUNK, self._bounds[j]))
                  for i, j in runs for lo in range(self._bounds[i], self._bounds[j], self.CHUNK)]
        h = (len(chunks) + 1) // 2
        return chunks[:h], chunks[h:]

    def step(self, pair=in_turn) -> int | None:
        """One update, returning None; the branch runner ``pair`` checks, then
        updates, the two halves of the arena's slices (elementwise, so the bits
        do not depend on the split). Where a gradient holds a NaN or an
        infinity it changes no parameter, moment or ``t``, and returns the
        index of the first such parameter, found by an ordered scan."""
        b1, b2 = 0.9, 0.999
        runs = self._runs()
        halves = self._halves(runs)

        def finite(chunks: list[slice]) -> bool:
            return all(np.isfinite(self._grad[s]).all() for s in chunks)

        if not all(pair(lambda: finite(halves[0]), lambda: finite(halves[1]))):
            return next(k for i, j in runs for k in range(i, j)
                        if not np.isfinite(self.params[k].grad).all())
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t

        def update(chunks: list[slice]) -> None:
            for s in chunks:
                g, m, v = self._grad[s], self._m[s], self._v[s]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                self._data[s] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)

        pair(lambda: update(halves[0]), lambda: update(halves[1]))
        return None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
