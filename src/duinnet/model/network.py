"""The full completion network and its training loss."""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

import numpy as np

from .. import geometry, tensor as T
from ..nn import Module
from ..tensor import Tensor, in_turn, side_by_side
from .attention import DualFeatureInteractor
from .config import ModelConfig
from .encoders import ImageEncoder, PointEncoder
from .generator import AdaptivePointGenerator


def chamfer_l1_t(a: Tensor, b: Tensor, pair=in_turn) -> Tensor:
    """Differentiable symmetric mean nearest-neighbor distance (the mean of both directions).

    ``geometry.nearest`` picks each point's nearest neighbor in the other cloud
    off the tape (ties to the lowest index), and only those |a| + |b| pairs are
    differentiated, so the tape holds O(|a| + |b|) values, not an (|a|, |b|, 3)
    difference. The chosen indices are constants; gradients flow only to the
    selected pairs. The two directions are built by the branch runner ``pair``;
    the value and gradients are the same either way.
    """
    def side(p, q):  # mean distance from each point of p to its nearest point of q
        d = T.sub(p, T.gather(q, geometry.nearest(q.data, p.data), axis=0))
        return T.reduce_mean(T.sqrt_safe(T.reduce_sum(T.mul(d, d), axis=1)))

    half = T.tensor(0.5, dtype=a.dtype)
    ab, ba = pair(lambda: side(a, b), lambda: side(b, a))
    return T.mul(T.add(ab, ba), half)


def completion_loss(p_gen1: Tensor, p_gen2: Tensor, p_gt, mode: str = "standard",
                    pair=in_turn) -> Tensor:
    """Sum of both generated clouds' l1 Chamfer terms, or only the first in
    denoising mode (noisy partials make the resampled branch counterproductive)."""
    gt = p_gt if isinstance(p_gt, Tensor) else T.tensor(np.asarray(p_gt, dtype=p_gen1.data.dtype))
    if mode == "standard":
        return T.add(chamfer_l1_t(p_gen1, gt, pair), chamfer_l1_t(p_gen2, gt, pair))
    if mode == "denoising":
        return chamfer_l1_t(p_gen1, gt, pair)
    raise ValueError(f"unknown loss mode {mode!r}")


def assemble_outputs(p_gen1: Tensor, p_in: np.ndarray, n: int) -> Tensor:
    """Concatenate the input partial with the generated cloud and FPS to n points.

    The partial rows are constants; FPS indices are treated as constants, so
    gradients reach only the generated points that survive the selection.
    """
    cat = T.concat([T.tensor(np.asarray(p_in, dtype=p_gen1.data.dtype)), p_gen1], axis=0)
    idx = geometry.fps(cat.data, n)
    return T.gather(cat, idx, axis=0)


@functools.cache
def _blas_threads() -> int | None:
    """Threads of NumPy's bundled OpenBLAS, or None where it has no
    ``scipy_openblas_get_num_threads64_``; read once per process."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def branch_runner(cfg: ModelConfig):
    """How ``DuInNet.forward`` runs each stage's point and image branches.

    Side by side when two cores are usable, BLAS runs one thread and
    C >= 192: there the branches' kernels are large enough that each thread
    spends most of its time with the GIL released. In eval forwards with
    both cores granted, C = 192 and 256 ran 1.05-1.62x as fast side by
    side, C = 128 0.85-1.34x and ``mini`` 0.85x (``BENCH_towers.json``).
    Over two BLAS threads, four busy threads share two cores: a paper train
    step took 1.022 s side by side and 0.756 s in turn
    (``BENCH_backward.json``).
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    wide = cfg.C >= 192 and (cores or 1) >= 2
    return side_by_side if wide and _blas_threads() == 1 else in_turn


class DuInNet(Module):
    """Dual-path multimodal completion network.

    Takes a partial point cloud (resampled to N points) and one rendered view,
    and produces two complete clouds: the generator output and its FPS blend
    with the input partial. The encoders, the interactor's paths and the
    generator's block groups form a point branch and an image branch per
    stage, run by ``branch_runner``; the result is the same either way.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.point_encoder = PointEncoder(cfg, rng)
        self.image_encoder = ImageEncoder(cfg, rng)
        self.dfi = DualFeatureInteractor(cfg.C, cfg.heads, rng)
        self.apg = AdaptivePointGenerator(cfg, rng)

    def forward(self, partial, image) -> dict:
        cfg = self.cfg
        pts = np.asarray(partial, dtype=np.float64)
        up = geometry.resample_to(geometry.PointCloud(pts), cfg.N).points
        pair = branch_runner(cfg)
        f_pc, f_img = pair(lambda: self.point_encoder(up), lambda: self.image_encoder(image))
        f_pc_fu, f_img_fu = self.dfi(f_pc, f_img, pair)
        p_gen1 = self.apg(f_pc_fu, f_img_fu, pair)
        p_gen2 = assemble_outputs(p_gen1, pts, cfg.N)
        return {
            "p_gen1": p_gen1, "p_gen2": p_gen2,
            "f_pc": f_pc, "f_img": f_img,
            "f_pc_fu": f_pc_fu, "f_img_fu": f_img_fu,
        }

    __call__ = forward

    def loss(self, out: dict, p_gt, mode: str = "standard") -> Tensor:
        return completion_loss(out["p_gen1"], out["p_gen2"], p_gt, mode, branch_runner(self.cfg))
