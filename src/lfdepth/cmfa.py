"""Cross-modal fusion of focal-stack and RGB feature maps.

Two steps.  First each stream is enhanced with complementary information
from the other: the focal volume passes through a 3-D conv and a slice-mean
before joining the RGB map, the RGB map passes through a 2-D conv and is
broadcast to every focal slice, and each sum is refined by a per-slice 1x1
conv.  Second, the enhanced slices plus the enhanced RGB map form a bundle
of N = S + 1 features (RGB in the last slot) that is collapsed by two rounds
of per-slice scalar attention:

    gamma_j = sigmoid(fc(dropout(gap(f_j))))          coarse weights
    F_f1    = sum_j gamma_j f_j / sum_j gamma_j       convex combination
    lambda_j = sigmoid(fc(dropout(gap([f_j, F_f1])))) relation weights
    F_f2    = sum_j gamma_j lambda_j [f_j, F_f1] / sum_j gamma_j lambda_j

and a final 3x3 conv maps the 2*C1 channels of F_f2 back to C1.  Both
normalized sums are convex combinations, so every element of F_f1 and F_f2
stays inside the elementwise min/max envelope of its inputs; zeroing the
attention heads turns both into plain means.
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
    dropout,
    global_avg_pool,
    sigmoid,
)
from .params import ModuleParams
from .tensor import Tensor, broadcast_to, reduce, reshape, transpose


@dataclass(frozen=True)
class CmfaConfig:
    channels: int                        # C1, per-slice feature channels
    dropout_rate: float = 0.5
    comp_kernel: tuple[int, int, int] = (3, 3, 3)  # focal->rgb 3-D conv kernel

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
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
        s, c, h, w = f_focal.shape
        if f_rgb.shape != (1, c, h, w):
            raise ShapeError(
                f"rgb feature {f_rgb.shape} does not pair with focal {f_focal.shape}"
            )
        volume = reshape(transpose(f_focal, (1, 0, 2, 3)), (1, c, s, h, w))
        complement = reduce(self.focal_to_rgb(volume), 2, "mean")  # [1,C1,H,W]
        rgb_out = self.post_rgb(f_rgb + complement)
        focal_out = self.post_focal(f_focal + self.rgb_to_focal(f_rgb))
        return focal_out, rgb_out

    # -- step two: attention over the slice bundle -----------------------------

    def bundle(self, f_focal: Tensor, f_rgb: Tensor) -> Tensor:
        """Stack focal slices and the RGB feature (last slot) along axis 0."""
        return concat([f_focal, f_rgb], axis=0)

    def _head(self, linear, feats: Tensor, mode: str, rng) -> Tensor:
        pooled = global_avg_pool(feats)
        if mode == "train":
            if rng is None:
                raise UsageError("train mode needs an rng for dropout")
            pooled = dropout(pooled, self.config.dropout_rate, "train", rng)
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

