"""Point and image encoders.

The point branch stacks two set-abstraction stages (FPS centers + kNN
grouping + shared MLP + per-group max pool), each followed by a local vector
self-attention layer with learned relative-position encoding. Net effect:
N points in, N/16 tokens of width C out, no global pooling.

The image branch is a from-scratch residual conv stack with four stride-2
stages (16x spatial reduction), ending at C channels; the final map is
flattened row-major to (side/16)^2 tokens.
"""

from __future__ import annotations

import numpy as np

from .. import geometry, tensor as T
from ..nn import BatchNorm1d, Conv2d, Linear, Module
from ..tensor import Tensor
from .config import ModelConfig


class SharedMLP(Module):
    """Two Linear+BN+ReLU layers applied pointwise to flattened groups."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.l1 = Linear(in_dim, out_dim, rng)
        self.bn1 = BatchNorm1d(out_dim, relu=True)
        self.l2 = Linear(out_dim, out_dim, rng)
        self.bn2 = BatchNorm1d(out_dim, relu=True)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.bn1(self.l1(x))
        return self.bn2(self.l2(x))


class SetAbstraction(Module):
    """Downsample by ``stride`` via FPS; aggregate k-neighborhoods by max pool."""

    def __init__(self, in_dim: int, out_dim: int, k: int, stride: int,
                 rng: np.random.Generator):
        self.mlp = SharedMLP(in_dim + 3, out_dim, rng)
        self.k = k
        self.stride = stride

    def __call__(self, points: np.ndarray, feats: Tensor):
        n = len(points)
        m = n // self.stride
        center_idx = geometry.fps(points, m, seed_rule="farthest_from_centroid")
        centers = points[center_idx]
        nbr = geometry.knn(points, centers, min(self.k, n))  # (m, k)
        k = nbr.shape[1]
        rel = points[nbr.reshape(-1)] - np.repeat(centers, k, axis=0)
        group_feats = T.gather(feats, nbr.reshape(-1), axis=0)
        rel_t = T.tensor(rel.astype(feats.data.dtype))
        x = T.concat([group_feats, rel_t], axis=1)        # (m*k, in+3)
        x = self.mlp(x)
        x = T.reshape(x, (m, k, -1))
        pooled, _ = T.reduce_max(x, axis=1)
        return centers, pooled


class PointTransformerLayer(Module):
    """Vector self-attention over each point's k-neighborhood.

    Per-channel attention over neighbors with an MLP positional term on
    coordinate differences; residual connection on the input features.
    """

    def __init__(self, dim: int, k: int, rng: np.random.Generator):
        self.q = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.val = Linear(dim, dim, rng)
        self.pos1 = Linear(3, dim, rng)
        self.pos2 = Linear(dim, dim, rng)
        self.attn1 = Linear(dim, dim, rng)
        self.attn2 = Linear(dim, dim, rng)
        self.k = k
        self.dim = dim

    def __call__(self, points: np.ndarray, feats: Tensor) -> Tensor:
        n = len(points)
        k = min(self.k, n)
        nbr = geometry.knn(points, points, k)             # (n, k)
        q = self.q(feats)                                 # (n, C)
        key = T.gather(self.key(feats), nbr.reshape(-1), axis=0)   # (n*k, C)
        val = T.gather(self.val(feats), nbr.reshape(-1), axis=0)
        rel = points[np.repeat(np.arange(n), k)] - points[nbr.reshape(-1)]
        pos = self.pos2(T.relu(self.pos1(T.tensor(rel.astype(feats.data.dtype)))))
        q_rep = T.gather(q, np.repeat(np.arange(n), k), axis=0)
        gamma = self.attn2(T.relu(self.attn1(T.add(T.sub(q_rep, key), pos))))
        gamma = T.reshape(gamma, (n, k, self.dim))
        w = T.softmax(gamma, axis=1)                       # per-channel over neighbors
        msg = T.reshape(T.add(val, pos), (n, k, self.dim))
        out = T.reduce_sum(T.mul(w, msg), axis=1)
        return T.add(feats, out)


class PointEncoder(Module):
    """N x 3 coordinates -> N/16 x C tokens."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        half = cfg.C // 2
        self.sab1 = SetAbstraction(3, half, cfg.k, 4, rng)
        self.pt1 = PointTransformerLayer(half, cfg.k, rng)
        self.sab2 = SetAbstraction(half, cfg.C, cfg.k, 4, rng)
        self.pt2 = PointTransformerLayer(cfg.C, cfg.k, rng)

    def __call__(self, points: np.ndarray) -> Tensor:
        points = np.asarray(points, dtype=np.float64)
        feats = T.tensor(points.astype(T.default_dtype()))
        centers, feats = self.sab1(points, feats)
        feats = self.pt1(centers, feats)
        centers, feats = self.sab2(centers, feats)
        return self.pt2(centers, feats)


class ResidualBlock(Module):
    def __init__(self, in_ch: int, out_ch: int, stride: int, rng: np.random.Generator):
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng, stride=stride, padding=1)
        self.bn1 = BatchNorm1d(out_ch, relu=True)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng, stride=1, padding=1)
        self.bn2 = BatchNorm1d(out_ch)
        self.skip = self.skip_bn = None
        if stride != 1 or in_ch != out_ch:
            self.skip = Conv2d(in_ch, out_ch, 1, rng, stride=stride, bias=False)
            self.skip_bn = BatchNorm1d(out_ch)

    def __call__(self, x: Tensor) -> Tensor:
        y = self.bn1(self.conv1(x))
        y = self.bn2(self.conv2(y))
        s = x if self.skip is None else self.skip_bn(self.skip(x))
        return T.relu(T.add(y, s))


class ImageEncoder(Module):
    """side x side x 3 image -> (side/16)^2 x C tokens."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.side = cfg.image_side
        c0 = max(cfg.C // 8, 4)
        chans = [c0, max(cfg.C // 4, 4), max(cfg.C // 2, 4), cfg.C]
        self.stem = Conv2d(3, c0, 3, rng, stride=1, padding=1)
        self.stem_bn = BatchNorm1d(c0, relu=True)
        stages = []
        in_ch = c0
        for ch in chans:
            stages.append(ResidualBlock(in_ch, ch, 2, rng))
            stages.append(ResidualBlock(ch, ch, 1, rng))
            in_ch = ch
        self.stages = stages

    def __call__(self, image: np.ndarray) -> Tensor:
        image = T.tensor(np.asarray(image, dtype=T.default_dtype()))
        if image.shape[:2] != (self.side, self.side) or image.shape[2] != 3:
            raise ValueError(f"expected {self.side}x{self.side}x3 image, got {image.shape}")
        x = self.stem_bn(self.stem(image))
        for block in self.stages:
            x = block(x)
        h, w, c = x.shape
        return T.reshape(x, (h * w, c))
