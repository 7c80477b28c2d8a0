"""Model configuration and the paper-scale / desk-scale dimension profiles."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    C: int = 256                # feature width
    N: int = 2048               # output point count
    k: int = 16                 # neighborhood size in the point encoder
    heads: int = 4              # attention heads
    n_blocks: int = 16          # total generator blocks
    n_img_blocks: int = 8       # blocks fed by image features (N_img)
    block_points: int = 128     # points emitted per block
    image_side: int = 224

    def __post_init__(self):
        if self.n_blocks * self.block_points != self.N:
            raise ConfigError(
                f"n_blocks*block_points must equal N: {self.n_blocks}x{self.block_points} != {self.N}"
            )
        if not 0 <= self.n_img_blocks <= self.n_blocks:
            raise ConfigError(f"n_img_blocks={self.n_img_blocks} outside [0, {self.n_blocks}]")
        if self.k < 1:
            raise ConfigError(f"k={self.k} must be >= 1 (neighbours per point)")
        if self.C % self.heads:
            raise ConfigError(f"C={self.C} not divisible by heads={self.heads}")
        if self.C % 4:
            raise ConfigError(f"C={self.C} must be divisible by 4 (generator map width C/4)")
        if self.N % 16:
            raise ConfigError(f"N={self.N} must be divisible by 16 (encoder downsampling)")
        if self.image_side % 16:
            raise ConfigError(f"image_side={self.image_side} must be divisible by 16")

    @property
    def n_pc_blocks(self) -> int:
        return self.n_blocks - self.n_img_blocks

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


def mini_config(**overrides) -> ModelConfig:
    base = dict(C=32, N=256, k=8, heads=4, n_blocks=4, n_img_blocks=2,
                block_points=64, image_side=32)
    base.update(overrides)
    return ModelConfig(**base)


def make_config(profile: str, **overrides) -> ModelConfig:
    if profile == "paper":
        return ModelConfig(**overrides)
    if profile == "mini":
        return mini_config(**overrides)
    raise ConfigError(f"unknown profile {profile!r}")
