"""Cross-modal fusion of focal-stack and RGB feature maps.

Two steps.  First each stream is enhanced with complementary information
from the other: the focal volume passes through a 3-D conv and a slice-mean
before joining the RGB map, the RGB map passes through a 2-D conv and is
broadcast to every focal slice, and each sum is refined by a per-slice 1x1
conv.  The slice mean commutes with the convolution, so it is taken first:
one 2-D conv over per-tap slice sums gives the same complement at 1/S of
the work.  Second, the enhanced slices plus the enhanced RGB map form a bundle
of N = S + 1 features (RGB in the last slot) that is collapsed by two rounds
of per-slice scalar attention:

    gamma_j = sigmoid(fc(dropout(gap(f_j))))          coarse weights
    F_f1    = sum_j gamma_j f_j / sum_j gamma_j       convex combination
    lambda_j = sigmoid(fc(dropout(gap([f_j, F_f1])))) relation weights
    F_f2    = sum_j gamma_j lambda_j [f_j, F_f1] / sum_j gamma_j lambda_j

and a final 3x3 conv maps the 2*C1 channels of F_f2 back to C1.  Both
normalized sums are convex combinations, so every element of F_f1 and F_f2
stays inside the elementwise min/max envelope of its inputs; zeroing the
attention heads turns both into plain means.  In training mode both heads
drop pooled features at the fixed rate DROPOUT_RATE = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, UsageError
from .ops import (
    Conv2Spec,
    Conv2d,
    Conv3d,
    Linear,
    concat,
    conv2d,
    dropout,
    global_avg_pool,
    sigmoid,
)
from .params import ModuleParams
from .tensor import Tensor, broadcast_to, reduce, reshape, transpose

DROPOUT_RATE = 0.5                       # on the pooled features of both attention heads


@dataclass(frozen=True)
class CmfaConfig:
    channels: int                        # C1, per-slice feature channels
    comp_kernel: tuple[int, int, int] = (3, 3, 3)  # focal->rgb 3-D conv kernel

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if any(k % 2 == 0 for k in self.comp_kernel):
            raise ConfigError(f"complement kernel extents must be odd, got {self.comp_kernel}")


class Cmfa:
    """Fuses [S,C1,H,W] focal features with a [1,C1,H,W] RGB feature."""

    def __init__(self, params: ModuleParams, name: str, config: CmfaConfig,
                 rng: np.random.Generator):
        self.config = config
        scope = params.child(name)
        C1 = config.channels
        self.focal_to_rgb = Conv3d(scope, "focal_to_rgb", C1, C1,
                                   kernel=config.comp_kernel, rng=rng)
        self.rgb_to_focal = Conv2d(scope, "rgb_to_focal", Conv2Spec(C1, C1, (3, 3)), rng)
        self.post_rgb = Conv2d(scope, "post_rgb", Conv2Spec(C1, C1, (1, 1)), rng)
        self.post_focal = Conv2d(scope, "post_focal", Conv2Spec(C1, C1, (1, 1)), rng)
        self.gamma_head = Linear(scope, "gamma_head", C1, 1, rng)
        self.lambda_head = Linear(scope, "lambda_head", 2 * C1, 1, rng)
        self.fuse = Conv2d(scope, "fuse", Conv2Spec(2 * C1, C1, (3, 3)), rng)

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
        """Slice mean of ``focal_to_rgb`` over the [1,C1,S,H,W] focal volume: [1,C1,H,W].

        Under 'same' padding, slice tap j of the 3-D kernel reads slices
        [j - r, S + j - r) clipped to the stack (r = ks // 2) over all S
        output slices.  So the mean is one 2-D conv of the per-tap slice
        sums, stacked on the channel axis, with the tap axis of the weight
        folded into its input channels, divided by S.  A tap that reads no
        slice (|j - r| >= S) drops out with its weight slice.
        """
        s, c = f_focal.shape[:2]
        conv = self.focal_to_rgb
        ks = conv.weight.shape[2]
        r = ks // 2
        lo, hi = max(0, r - s + 1), min(ks, r + s)
        sums = [
            reduce(f_focal[max(0, j - r) : min(s, s + j - r)], 0, "sum", keepdims=True)
            for j in range(lo, hi)
        ]
        weight = transpose(conv.weight, (0, 2, 1, 3, 4))[:, lo:hi]
        weight = reshape(weight, (c, (hi - lo) * c) + weight.shape[3:])
        return conv2d(concat(sums, axis=1), weight) / s + reshape(conv.bias, (1, c, 1, 1))

    # -- step two: attention over the slice bundle -----------------------------

    def bundle(self, f_focal: Tensor, f_rgb: Tensor) -> Tensor:
        """Stack focal slices and the RGB feature (last slot) along axis 0."""
        return concat([f_focal, f_rgb], axis=0)

    def _head(self, linear, feats: Tensor, mode: str, rng) -> Tensor:
        pooled = global_avg_pool(feats)
        if mode == "train":
            if rng is None:
                raise UsageError("train mode needs an rng for dropout")
            pooled = dropout(pooled, DROPOUT_RATE, "train", rng)
        elif mode != "eval":
            raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
        return reshape(sigmoid(linear(pooled)), (feats.shape[0],))

    def self_attention_weights(self, slices: Tensor, mode: str = "eval", rng=None) -> Tensor:
        return self._head(self.gamma_head, slices, mode, rng)

    def global_aggregate(self, slices: Tensor, gamma: Tensor) -> Tensor:
        n = slices.shape[0]
        g = reshape(gamma, (n, 1, 1, 1))
        return reduce(slices * g, 0, "sum", keepdims=True) / gamma.sum()

    def _paired(self, slices: Tensor, f1: Tensor) -> Tensor:
        n, c, h, w = slices.shape
        return concat([slices, broadcast_to(f1, (n, c, h, w))], axis=1)

    def relation_attention_weights(self, slices: Tensor, f1: Tensor,
                                   mode: str = "eval", rng=None) -> Tensor:
        return self._head(self.lambda_head, self._paired(slices, f1), mode, rng)

    def relation_aggregate(self, slices: Tensor, f1: Tensor,
                           gamma: Tensor, lam: Tensor) -> Tensor:
        pairs = self._paired(slices, f1)
        w = gamma * lam
        n = slices.shape[0]
        weighted = reduce(pairs * reshape(w, (n, 1, 1, 1)), 0, "sum", keepdims=True)
        return weighted / w.sum()

    def __call__(self, f_focal: Tensor, f_rgb: Tensor,
                 mode: str = "eval", rng=None) -> Tensor:
        focal2, rgb2 = self.enhance(f_focal, f_rgb)
        slices = self.bundle(focal2, rgb2)
        gamma = self.self_attention_weights(slices, mode, rng)
        f1 = self.global_aggregate(slices, gamma)
        lam = self.relation_attention_weights(slices, f1, mode, rng)
        f2 = self.relation_aggregate(slices, f1, gamma, lam)
        return self.fuse(f2)

