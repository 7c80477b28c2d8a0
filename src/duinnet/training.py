"""Single-process training loop with checkpoint/resume and loss-curve logging."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import tensor as T
from .model import network
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
        # the forward moves the BatchNorm running buffers; a failed step puts them
        # back, and ``opt.step`` updates nothing on a bad gradient: no state changes
        buffers = [(buf, buf.copy()) for _, buf in self.model.named_buffers()]
        try:
            out = self.model(partial, image)
            loss = self.model.loss(out, gt, mode=mode)
            loss.backward()
            value = float(loss.data)
            if not np.isfinite(value):
                raise FloatingPointError(f"non-finite loss at step {self.step}")
            self.opt.lr = self._current_lr()
            bad = self.opt.step(network.branch_runner(self.model.cfg))
            if bad is not None:
                raise FloatingPointError(
                    f"non-finite gradient of '{list(self.named)[bad]}' at step {self.step}")
        except BaseException:
            for buf, saved in buffers:
                np.copyto(buf, saved)
            raise
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
        """Copy model, Adam moments and step from checkpoint arrays (``nn.load_state``),
        after checking that each step counter is one whole number >= 0."""
        counts = {name: arrays.get(name, np.zeros(1)).reshape(-1)
                  for name in ("meta.step", "meta.opt_t")}
        for name, v in counts.items():
            if v.size != 1 or not 0 <= v[0] < np.inf or v[0] % 1:
                raise ValueError(f"'{name}' must hold one finite, non-negative whole number, "
                                 f"got {np.array2string(v, threshold=4)}")
        load_state(self.state_dict(), arrays)
        self.step, self.opt.t = (int(v[0]) for v in counts.values())


def train_loop(state: TrainState, samples, steps: int, mode: str = "standard",
               curve_path=None, checkpoint_path=None,
               verbose: bool = False) -> list[tuple[int, float]]:
    """Cycle through ``samples`` (list of (partial, image, gt)) in order.

    Writes (step, loss) rows to the curve file as it goes, a fresh file at step
    0 and appended to on resume, and checkpoints every 100 steps and after the
    last step, never twice at one step; a non-finite loss raises
    FloatingPointError from ``TrainState.train_step``.
    """
    curve: list[tuple[int, float]] = []
    f = open(curve_path, "a" if state.step else "w") if curve_path else None
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
    if checkpoint_path and (steps == 0 or state.step % 100):
        state.save(checkpoint_path)
    return curve
