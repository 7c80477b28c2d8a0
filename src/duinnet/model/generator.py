"""Adaptive point generator: block-wise decoding of fused features to 3D points."""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..nn import LBR, Linear, Module, in_turn
from ..tensor import Tensor
from .config import ModelConfig


class GeneratorBlock(Module):
    """One feature-to-coordinates block.

    Stage 1 maps each of the ``rows`` fused tokens C -> 2C -> 2C -> 2C -> C/4.
    Stage 2 turns the map into a (block_points x rows) shape weight via two
    more LBRs, a linear layer and a transpose. Stage 3 mixes weight x map and
    projects C/4 -> 3.
    """

    def __init__(self, C: int, block_points: int, rng: np.random.Generator):
        c4 = C // 4
        self.lbr1 = LBR(C, 2 * C, rng)
        self.lbr2 = LBR(2 * C, 2 * C, rng)
        self.lbr3 = LBR(2 * C, 2 * C, rng)
        self.lbr4 = LBR(2 * C, c4, rng)
        self.lbr5 = LBR(c4, c4, rng)
        self.lbr6 = LBR(c4, block_points, rng)
        self.linear1 = Linear(block_points, block_points, rng)
        self.linear2 = Linear(c4, 3, rng)

    def __call__(self, fused: Tensor) -> Tensor:
        f_map = self.lbr4(self.lbr3(self.lbr2(self.lbr1(fused))))     # (rows, C/4)
        w = self.linear1(self.lbr6(self.lbr5(f_map)))                  # (rows, block_points)
        f_w = T.transpose(w)                                           # (block_points, rows)
        return self.linear2(T.matmul(f_w, f_map))                      # (block_points, 3)


class AdaptivePointGenerator(Module):
    """n_pc point-path blocks followed by n_img image-path blocks, concatenated.

    The two groups read different tokens, so ``pair`` (an ``nn`` branch
    runner) may run them at once.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.pc_blocks = [GeneratorBlock(cfg.C, cfg.block_points, rng)
                          for _ in range(cfg.n_pc_blocks)]
        self.img_blocks = [GeneratorBlock(cfg.C, cfg.block_points, rng)
                           for _ in range(cfg.n_img_blocks)]

    def __call__(self, f_pc_fu: Tensor, f_img_fu: Tensor, pair=in_turn) -> Tensor:
        pc, img = pair(lambda: [blk(f_pc_fu) for blk in self.pc_blocks],
                       lambda: [blk(f_img_fu) for blk in self.img_blocks])
        return T.concat(pc + img, axis=0)
