"""Cross-modal fusion of focal-stack and RGB feature maps.

Two steps.  First each stream is enhanced with complementary information
from the other: the focal volume passes through a 3-D conv (kernel
COMP_KERNEL) and a slice-mean before joining the RGB map, the RGB map passes
through a 2-D conv and is broadcast to every focal slice, and each sum is
refined by a per-slice 1x1 conv.  The slice mean commutes with the
convolution, so it is taken first: one 2-D conv over per-tap slice sums gives
the same complement at 1/S of the work.  Second, the enhanced slices plus the
enhanced RGB map form a bundle of N = S + 1 features (RGB in the last slot)
that is collapsed by two rounds of per-slice scalar attention:

    gamma_j = sigmoid(fc(dropout(gap(f_j))))          coarse weights
    F_f1    = sum_j gamma_j f_j / sum_j gamma_j       convex combination
    lambda_j = sigmoid(fc(dropout(gap([f_j, F_f1])))) relation weights
    F_f2    = sum_j gamma_j lambda_j [f_j, F_f1] / sum_j gamma_j lambda_j

and a final 3x3 conv maps the 2*C1 channels of F_f2 back to C1.  The pair
bundle [f_j, F_f1] is never built.  Pooling is per channel, so the relation
head reads [gap(f_j), gap(F_f1)], 2*C1 numbers per slice.  The F_f1 half of
F_f2 is a convex combination of N copies of F_f1, so it is F_f1 itself:
F_f2 = [sum_j gamma_j lambda_j f_j / sum_j gamma_j lambda_j, F_f1].

Both normalized sums are convex combinations, so every element of F_f1 and
F_f2 stays inside the elementwise min/max envelope of its inputs; zeroing the
attention heads turns both into plain means.  A block called with an rng is
in training mode: both heads drop pooled features at ops.DROPOUT_RATE (0.5),
drawing from that rng.  Without one it is in eval mode and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .ops import (
    Conv2d,
    Linear,
    concat,
    conv2d,
    dropout,
    global_avg_pool,
    kaiming_normal,
    sigmoid,
    zeros,
)
from .params import ModuleParams
from .tensor import Tensor, broadcast_to, reduce, reshape, transpose

COMP_KERNEL = (3, 3, 3)                  # focal->rgb 3-D conv kernel: slices, height, width


class Cmfa:
    """Fuses [S,C1,H,W] focal features with a [1,C1,H,W] RGB feature."""

    def __init__(self, params: ModuleParams, name: str, channels: int,
                 rng: np.random.Generator):
        if channels < 1:
            raise ConfigError(f"channels must be >= 1, got {channels}")
        self.channels = C1 = channels
        scope = params.child(name)
        comp = scope.child("focal_to_rgb")
        self.comp_weight = comp.add(
            "weight", kaiming_normal(rng, (C1, C1) + COMP_KERNEL, C1 * math.prod(COMP_KERNEL))
        )
        self.comp_bias = comp.add("bias", zeros(rng, C1))
        self.rgb_to_focal = Conv2d(scope, "rgb_to_focal", C1, C1, 3, rng)
        self.post_rgb = Conv2d(scope, "post_rgb", C1, C1, 1, rng)
        self.post_focal = Conv2d(scope, "post_focal", C1, C1, 1, rng)
        self.gamma_head = Linear(scope, "gamma_head", C1, 1, rng)
        self.lambda_head = Linear(scope, "lambda_head", 2 * C1, 1, rng)
        self.fuse = Conv2d(scope, "fuse", 2 * C1, C1, 3, rng)

    # -- step one: cross-residual enhancement --------------------------------

    def enhance(self, f_focal: Tensor, f_rgb: Tensor) -> tuple[Tensor, Tensor]:
        c, h, w = f_focal.shape[1:]
        if f_rgb.shape != (1, c, h, w):
            raise ShapeError(
                f"rgb feature {f_rgb.shape} does not pair with focal {f_focal.shape}"
            )
        rgb_out = self.post_rgb(f_rgb + self.complement(f_focal))
        focal_out = self.post_focal(f_focal + self.rgb_to_focal(f_rgb))
        return focal_out, rgb_out

    def complement(self, f_focal: Tensor) -> Tensor:
        """Slice mean of the 'same' 3-D conv over the [1,C1,S,H,W] focal volume: [1,C1,H,W].

        Under 'same' padding, slice tap j of the 3-D kernel reads slices
        [j - r, S + j - r) clipped to the stack (r = ks // 2) over all S
        output slices.  So the mean is one 2-D conv of the per-tap slice
        sums, stacked on the channel axis, with the tap axis of the weight
        folded into its input channels, divided by S.  A tap that reads no
        slice (|j - r| >= S) drops out with its weight slice.
        """
        s, c = f_focal.shape[:2]
        ks = self.comp_weight.shape[2]
        r = ks // 2
        lo, hi = max(0, r - s + 1), min(ks, r + s)
        weight, bias = self.comp_weight, self.comp_bias
        if f_focal.dtype != weight.dtype:
            # fold float32 copies: reshaping the float64 parameters would put entries on the tape
            weight, bias = (Tensor(p.data.astype(f_focal.dtype)) for p in (weight, bias))
        sums = [
            reduce(f_focal[max(0, j - r) : min(s, s + j - r)], 0, "sum", keepdims=True)
            for j in range(lo, hi)
        ]
        weight = transpose(weight, (0, 2, 1, 3, 4))[:, lo:hi]
        weight = reshape(weight, (c, (hi - lo) * c) + weight.shape[3:])
        return conv2d(concat(sums, axis=1), weight) / s + reshape(bias, (1, c, 1, 1))

    # -- step two: attention over the slice bundle -----------------------------

    def _head(self, linear, pooled: Tensor, rng) -> Tensor:
        """Per-slice weights in (0, 1) from pooled features [N, K]; dropout when given an rng."""
        if rng is not None:
            pooled = dropout(pooled, rng)
        return reshape(sigmoid(linear(pooled)), (pooled.shape[0],))

    def self_attention_weights(self, slices: Tensor, rng=None) -> Tensor:
        return self._head(self.gamma_head, global_avg_pool(slices), rng)

    def global_aggregate(self, slices: Tensor, gamma: Tensor) -> Tensor:
        n = slices.shape[0]
        g = reshape(gamma, (n, 1, 1, 1))
        return reduce(slices * g, 0, "sum", keepdims=True) / gamma.sum()

    def relation_attention_weights(self, slices: Tensor, f1: Tensor, rng=None) -> Tensor:
        n, c = slices.shape[:2]
        pooled = concat([global_avg_pool(slices), broadcast_to(global_avg_pool(f1), (n, c))],
                        axis=1)
        return self._head(self.lambda_head, pooled, rng)

    def relation_aggregate(self, slices: Tensor, f1: Tensor,
                           gamma: Tensor, lam: Tensor) -> Tensor:
        return concat([self.global_aggregate(slices, gamma * lam), f1], axis=1)

    def __call__(self, f_focal: Tensor, f_rgb: Tensor, rng=None) -> Tensor:
        """The fused [1,C1,H,W] map; given an rng, both attention heads drop out."""
        focal2, rgb2 = self.enhance(f_focal, f_rgb)
        slices = concat([focal2, rgb2], axis=0)
        gamma = self.self_attention_weights(slices, rng)
        f1 = self.global_aggregate(slices, gamma)
        lam = self.relation_attention_weights(slices, f1, rng)
        f2 = self.relation_aggregate(slices, f1, gamma, lam)
        return self.fuse(f2)
