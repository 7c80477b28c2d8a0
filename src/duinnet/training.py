"""Single-process training loop with checkpoint/resume and loss-curve logging."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import tensor as T
from .model.network import DuInNet
from .nn import Adam, load_state


class TrainState:
    def __init__(self, model: DuInNet, lr: float = 1e-4, decay_steps: tuple[int, ...] = ()):
        self.model = model
        self.params = model.parameters()
        self.named = dict(model.named_parameters())
        self.opt = Adam(self.params, lr=lr)
        self.base_lr = lr
        self.decay_steps = tuple(sorted(decay_steps))
        self.step = 0

    def _current_lr(self) -> float:
        lr = self.base_lr
        for s in self.decay_steps:
            if self.step >= s:
                lr *= 0.1
        return lr

    def train_step(self, partial, image, gt, mode: str = "standard") -> float:
        self.model.train()
        self.opt.zero_grad()
        # the forward moves the BatchNorm running buffers; a failed step puts
        # them back, and both checks come before the update, so it changes no state
        buffers = [(buf, buf.copy()) for _, buf in self.model.named_buffers()]
        try:
            out = self.model(partial, image)
            loss = self.model.loss(out, gt, mode=mode)
            loss.backward()
            value = float(loss.data)
            if not np.isfinite(value):
                raise FloatingPointError(f"non-finite loss at step {self.step}")
            for name, p in self.named.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise FloatingPointError(
                        f"non-finite gradient of '{name}' at step {self.step}")
        except BaseException:
            for buf, saved in buffers:
                np.copyto(buf, saved)
            raise
        self.opt.lr = self._current_lr()
        self.opt.step()
        self.step += 1
        return value

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict[str, T.Tensor]:
        """The model's table plus each parameter's Adam moments as
        ``opt.m.<name>`` and ``opt.v.<name>``, sharing the optimizer's arrays."""
        table = self.model.state_dict()
        table.update((f"opt.m.{name}", T.tensor(m)) for name, m in zip(self.named, self.opt.m))
        table.update((f"opt.v.{name}", T.tensor(v)) for name, v in zip(self.named, self.opt.v))
        return table

    def save(self, path) -> None:
        T.save_checkpoint(path, {**self.state_dict(),
                                 "meta.step": T.tensor(np.array([float(self.step)])),
                                 "meta.opt_t": T.tensor(np.array([float(self.opt.t)]))})

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy model, Adam moments and step from checkpoint arrays (``nn.load_state``)."""
        load_state(self.state_dict(), arrays)
        self.step = int(arrays.get("meta.step", np.zeros(1))[0])
        self.opt.t = int(arrays.get("meta.opt_t", np.zeros(1))[0])


def train_loop(state: TrainState, samples, steps: int, mode: str = "standard",
               curve_path=None, checkpoint_path=None,
               verbose: bool = False) -> list[tuple[int, float]]:
    """Cycle through ``samples`` (list of (partial, image, gt)) in order.

    Appends (step, loss) rows to the curve file as it goes and checkpoints
    every 100 steps; a non-finite loss raises FloatingPointError from
    ``TrainState.train_step``.
    """
    curve: list[tuple[int, float]] = []
    f = open(curve_path, "a") if curve_path else None
    try:
        for _ in range(steps):
            step = state.step
            partial, image, gt = samples[step % len(samples)]
            loss = state.train_step(partial, image, gt, mode=mode)
            curve.append((step, loss))
            if f:
                f.write(f"{step}\t{loss:.8g}\n")
            if verbose and step % 25 == 0:
                print(f"step {step}  loss {loss:.6f}")
            if checkpoint_path and state.step % 100 == 0:
                state.save(checkpoint_path)
    finally:
        if f:
            f.close()
    if checkpoint_path:
        state.save(checkpoint_path)
    return curve
