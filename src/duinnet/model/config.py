"""Model configuration and the paper-scale / desk-scale dimension profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


class ConfigError(ValueError):
    pass


def check_image_side(side: int) -> None:
    if side <= 0 or side % 16:
        raise ConfigError(f"image_side={side} must be a positive multiple of 16 "
                          "(the image encoder downsamples by 16)")


@dataclass
class ModelConfig:
    C: int = 256                # feature width
    N: int = 2048               # output point count
    k: int = 16                 # neighborhood size in the point encoder
    n_blocks: int = 16          # total generator blocks
    n_img_blocks: int = 8       # blocks fed by image features (N_img)
    image_side: int = 224
    heads: ClassVar[int] = 4    # attention heads

    def __post_init__(self):
        if self.N <= 0 or self.N % 16:
            raise ConfigError(f"N={self.N} must be a positive multiple of 16 "
                              "(encoder downsampling)")
        if self.n_blocks < 1 or self.N % self.n_blocks:
            raise ConfigError(f"n_blocks={self.n_blocks} does not divide N={self.N}")
        if not 0 <= self.n_img_blocks <= self.n_blocks:
            raise ConfigError(f"n_img_blocks={self.n_img_blocks} outside [0, {self.n_blocks}]")
        if self.k < 1:
            raise ConfigError(f"k={self.k} must be >= 1 (neighbours per point)")
        if self.C <= 0 or self.C % 4:
            raise ConfigError(f"C={self.C} must be a positive multiple of 4 "
                              f"({self.heads} attention heads, generator map width C/4)")
        check_image_side(self.image_side)

    @property
    def block_points(self) -> int:
        """Points emitted per generator block."""
        return self.N // self.n_blocks

    @property
    def n_pc_blocks(self) -> int:
        return self.n_blocks - self.n_img_blocks


def mini_config(**overrides) -> ModelConfig:
    base = dict(C=32, N=256, k=8, n_blocks=4, n_img_blocks=2, image_side=32)
    base.update(overrides)
    return ModelConfig(**base)


def make_config(profile: str, **overrides) -> ModelConfig:
    if profile == "paper":
        return ModelConfig(**overrides)
    if profile == "mini":
        return mini_config(**overrides)
    raise ConfigError(f"unknown profile {profile!r}")
