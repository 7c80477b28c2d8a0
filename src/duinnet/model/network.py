"""The full completion network and its training loss."""

from __future__ import annotations

import numpy as np

from .. import geometry, tensor as T
from ..nn import Module
from ..tensor import Tensor
from .attention import DualFeatureInteractor
from .config import ModelConfig
from .encoders import ImageEncoder, PointEncoder
from .generator import AdaptivePointGenerator


def chamfer_l1_t(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable symmetric mean nearest-neighbor distance (halved per side).

    ``geometry.nearest`` picks each point's nearest neighbor in the other cloud
    off the tape (ties to the lowest index), and only those |a| + |b| pairs are
    differentiated, so the tape holds O(|a| + |b|) values, not an (|a|, |b|, 3)
    difference. The chosen indices are constants; gradients flow only to the
    selected pairs.
    """
    def side(p, q):  # mean distance from each point of p to its nearest point of q
        d = T.sub(p, T.gather(q, geometry.nearest(q.data, p.data), axis=0))
        return T.reduce_mean(T.sqrt_safe(T.reduce_sum(T.mul(d, d), axis=1)))

    half = T.tensor(0.5, dtype=a.dtype)
    return T.add(T.mul(side(a, b), half), T.mul(side(b, a), half))


def completion_loss(p_gen1: Tensor, p_gen2: Tensor, p_gt, mode: str = "standard") -> Tensor:
    """Sum of both generated clouds' l1 Chamfer terms, or only the first in
    denoising mode (noisy partials make the resampled branch counterproductive)."""
    gt = p_gt if isinstance(p_gt, Tensor) else T.tensor(np.asarray(p_gt, dtype=p_gen1.data.dtype))
    if mode == "standard":
        return T.add(chamfer_l1_t(p_gen1, gt), chamfer_l1_t(p_gen2, gt))
    if mode == "denoising":
        return chamfer_l1_t(p_gen1, gt)
    raise ValueError(f"unknown loss mode {mode!r}")


def assemble_outputs(p_gen1: Tensor, p_in: np.ndarray, n: int) -> Tensor:
    """Concatenate the input partial with the generated cloud and FPS to n points.

    The partial rows are constants; FPS indices are treated as constants, so
    gradients reach only the generated points that survive the selection.
    """
    cat = T.concat([T.tensor(np.asarray(p_in, dtype=p_gen1.data.dtype)), p_gen1], axis=0)
    idx = geometry.fps(cat.data, n)
    return T.gather(cat, idx, axis=0)


class DuInNet(Module):
    """Dual-path multimodal completion network.

    Takes a partial point cloud (resampled to N points) and one rendered view,
    and produces two complete clouds: the generator output and its FPS blend
    with the input partial.
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
        f_pc = self.point_encoder(up)
        f_img = self.image_encoder(image)
        f_pc_fu, f_img_fu = self.dfi(f_pc, f_img)
        p_gen1 = self.apg(f_pc_fu, f_img_fu)
        p_gen2 = assemble_outputs(p_gen1, pts, cfg.N)
        return {
            "p_gen1": p_gen1, "p_gen2": p_gen2,
            "f_pc": f_pc, "f_img": f_img,
            "f_pc_fu": f_pc_fu, "f_img_fu": f_img_fu,
        }

    __call__ = forward

    def loss(self, out: dict, p_gt, mode: str = "standard") -> Tensor:
        return completion_loss(out["p_gen1"], out["p_gen2"], p_gt, mode)
