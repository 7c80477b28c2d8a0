"""Multi-head cross/self-attention blocks and the dual feature interactor."""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..nn import LayerNorm, Linear, Module, in_turn
from ..tensor import Tensor


class CrossAttentionBlock(Module):
    """Pre-projection multi-head attention with residual-on-query and FFN.

    q_src rows attend over kv_src rows; the first residual adds the projected
    query (not the raw source), then layer norm, then a position-wise
    feed-forward (width 2C) with a second residual + norm. Self-attention is
    the q_src == kv_src case.
    """

    def __init__(self, C: int, heads: int, rng: np.random.Generator):
        if C % heads:
            raise T.DimensionError(f"attention width C={C} not divisible by heads={heads}")
        self.C = C
        self.heads = heads
        self.q_proj = Linear(C, C, rng)
        self.k_proj = Linear(C, C, rng)
        self.v_proj = Linear(C, C, rng)
        self.out_proj = Linear(C, C, rng)
        self.norm1 = LayerNorm(C)
        self.norm2 = LayerNorm(C)
        self.ffn1 = Linear(C, 2 * C, rng)
        self.ffn2 = Linear(2 * C, C, rng)
        self.last_attn: np.ndarray | None = None  # (H, M, L) weights, diagnostics only

    def __call__(self, q_src: Tensor, kv_src: Tensor) -> Tensor:
        if q_src.shape[-1] != self.C or kv_src.shape[-1] != self.C:
            raise T.DimensionError(
                f"attention width mismatch: q {q_src.shape}, kv {kv_src.shape}, expected C={self.C}"
            )
        q = self.q_proj(q_src)
        k = self.k_proj(kv_src)
        v = self.v_proj(kv_src)
        M, L, H, dh = q.shape[0], k.shape[0], self.heads, self.C // self.heads
        qh = T.transpose(T.reshape(q, (M, H, dh)), (1, 0, 2))  # (H, M, dh)
        kh = T.transpose(T.reshape(k, (L, H, dh)), (1, 2, 0))  # (H, dh, L)
        vh = T.transpose(T.reshape(v, (L, H, dh)), (1, 0, 2))  # (H, L, dh)
        scores = T.mul(T.matmul(qh, kh), T.tensor(1.0 / np.sqrt(dh), dtype=q.dtype))
        w = T.softmax(scores, axis=-1)
        self.last_attn = w.data
        heads_out = T.transpose(T.matmul(w, vh), (1, 0, 2))  # (M, H, dh)
        attn = self.out_proj(T.reshape(heads_out, (M, self.C)))
        x = self.norm1(T.add(q, attn))
        ff = self.ffn2(T.relu(self.ffn1(x)))
        return self.norm2(T.add(x, ff))


class InteractorPath(Module):
    """CA1 (attend to the other modality) -> SA -> CA2 (attend to own input)."""

    def __init__(self, C: int, heads: int, rng: np.random.Generator):
        self.ca1 = CrossAttentionBlock(C, heads, rng)
        self.sa = CrossAttentionBlock(C, heads, rng)
        self.ca2 = CrossAttentionBlock(C, heads, rng)

    def __call__(self, own: Tensor, other: Tensor) -> Tensor:
        x = self.ca1(own, other)
        x = self.sa(x, x)
        return self.ca2(x, own)


class DualFeatureInteractor(Module):
    """Two symmetric, independently parameterized interaction paths.

    Neither path reads the other's result, so ``pair`` (an ``nn`` branch
    runner) may run them at once.
    """

    def __init__(self, C: int, heads: int, rng: np.random.Generator):
        self.pc_path = InteractorPath(C, heads, rng)
        self.img_path = InteractorPath(C, heads, rng)

    def __call__(self, f_pc: Tensor, f_img: Tensor, pair=in_turn) -> tuple[Tensor, Tensor]:
        return pair(lambda: self.pc_path(f_pc, f_img), lambda: self.img_path(f_img, f_pc))
