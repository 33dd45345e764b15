"""Network assembly: two-stream encoder, context blocks, fusion, decoder, loss.

An RGB image [1,3,H,W] and a focal stack [S,3,H,W] each pass through their
own five-stage backbone (two 3x3 convs + ReLU per stage, 2x2 max pooling
between stages).  Side outputs are taken from stages 3, 4, 5 at strides
4, 8, 16.  Each side output goes through a context block (the full
reasoning block, one of its single branches, or a plain stack of
PLAIN_STACK_DEPTH convs, depending on the configuration), the two streams
are fused per stage, and a top-down decoder produces the one depth map:

    P5 = conv(F5)
    P4 = conv(concat(up2(P5), F4))
    P3 = conv(concat(up2(P4), F3))
    depth = upsample(sigmoid(conv1x1(P3)), 4)

The loss combines an L1 term, a forward-difference gradient term, and a
surface-normal cosine term, all computed in normalized [0,1] depth space.
Training runs one scene per step; there is no batching and no
deep-supervision head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cmfa import Cmfa
from .cru import Cru, CruConfig, zero_fuse
from .errors import ConfigError, ShapeError, UsageError
from .ops import Conv2d, concat, max_pool2, relu, sigmoid, upsample_bilinear
from .params import ModuleParams
from .tensor import Tensor, narrow, reshape, sqrt

SIDE_STAGES = (2, 3, 4)          # stage indices (0-based) that emit side outputs
SIDE_STRIDES = (4, 8, 16)
PLAIN_STACK_DEPTH = 6            # convs in the context fallback when use_cru is off


@dataclass(frozen=True)
class NetworkConfig:
    height: int = 64
    width: int = 64
    slices: int = 12
    stage_channels: tuple[int, ...] = (16, 32, 64, 64, 64)
    decoder_channels: int = 64
    use_rgb_stream: bool = True
    use_focal_stream: bool = True
    use_cru: bool = True
    use_cru_md: bool = True      # branch switches, meaningful when use_cru
    use_cru_mg: bool = True
    use_cmfa: bool = True
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    learning_rate: float = 1e-4
    lr_drop: float = 3e-5
    lr_drop_epoch: int = 40
    epochs: int = 50

    def __post_init__(self):
        if not (self.use_rgb_stream or self.use_focal_stream):
            raise ConfigError("at least one input stream must be enabled")
        if self.height < 16 or self.width < 16 or self.height % 16 or self.width % 16:
            raise ConfigError(
                f"input size must be a positive multiple of 16, got {self.height}x{self.width}"
            )
        if self.slices < 1:
            raise ConfigError(f"slice count must be >= 1, got {self.slices}")
        if len(self.stage_channels) != 5 or any(c < 1 for c in self.stage_channels):
            raise ConfigError(f"need five positive stage channels, got {self.stage_channels}")
        if self.decoder_channels < 1:
            raise ConfigError(f"decoder channels must be >= 1, got {self.decoder_channels}")
        # chained comparisons: NaN fails both, and a huge JSON int needs no float conversion
        if len(self.loss_weights) != 3 or not all(0 <= w < math.inf for w in self.loss_weights):
            raise ConfigError(
                f"loss_weights must be three finite values >= 0, got {self.loss_weights}"
            )
        if self.use_cru and not (self.use_cru_md or self.use_cru_mg):
            raise ConfigError("use_cru needs at least one of use_cru_md / use_cru_mg")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("learning_rate", "lr_drop"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def stage_size(self, stage: int) -> tuple[int, int]:
        stride = SIDE_STRIDES[SIDE_STAGES.index(stage)]
        return self.height // stride, self.width // stride


class Backbone:
    """Five [conv-relu-conv-relu] stages, 2x2 max pool between stages."""

    def __init__(self, params: ModuleParams, name: str, stage_channels, rng):
        scope = params.child(name)
        self.convs = []
        cin = 3
        for i, cout in enumerate(stage_channels, start=1):
            a = Conv2d(scope, f"stage{i}a", cin, cout, 3, rng)
            b = Conv2d(scope, f"stage{i}b", cout, cout, 3, rng)
            self.convs.append((a, b))
            cin = cout

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        outs = []
        for i, (a, b) in enumerate(self.convs):
            if i > 0:
                x = max_pool2(x)
            x = relu(b(relu(a(x))))
            if i in SIDE_STAGES:
                outs.append(x)
        return tuple(outs)


class PlainStack:
    """The no-reasoning fallback: PLAIN_STACK_DEPTH x [3x3 conv + ReLU], channel-preserving."""

    def __init__(self, params: ModuleParams, name: str, channels: int, rng):
        scope = params.child(name)
        self.convs = [
            Conv2d(scope, f"layer{i + 1}", channels, channels, 3, rng)
            for i in range(PLAIN_STACK_DEPTH)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for conv in self.convs:
            x = relu(conv(x))
        return x


class FlattenFusion:
    """Slice-flattened concatenation of both streams plus a fusion conv."""

    def __init__(self, params: ModuleParams, name: str, channels: int, slices: int,
                 with_rgb: bool, rng):
        total = channels * (slices + (1 if with_rgb else 0))
        self.with_rgb = with_rgb
        self.conv = Conv2d(params.child(name), "fuse", total, channels, 3, rng)

    def __call__(self, focal: Tensor | None, rgb: Tensor | None) -> Tensor:
        parts = []
        if focal is not None:
            s, c, h, w = focal.shape
            parts.append(reshape(focal, (1, s * c, h, w)))
        if self.with_rgb:
            parts.append(rgb)
        return self.conv(parts[0] if len(parts) == 1 else concat(parts, axis=1))


class DepthNet:
    """The assembled network; owns its parameter tree."""

    def __init__(self, config: NetworkConfig, rng: np.random.Generator):
        self.config = config
        self.params = ModuleParams()
        cc = config

        backbones = self.params.child("backbone")
        self.rgb_backbone = (
            Backbone(backbones, "rgb", cc.stage_channels, rng) if cc.use_rgb_stream else None
        )
        self.focal_backbone = (
            Backbone(backbones, "focal", cc.stage_channels, rng) if cc.use_focal_stream else None
        )

        self.context: dict[str, list] = {"rgb": [], "focal": []}
        for stream in ("rgb", "focal"):
            if (stream == "rgb" and not cc.use_rgb_stream) or (
                stream == "focal" and not cc.use_focal_stream
            ):
                continue
            for stage in SIDE_STAGES:
                channels = cc.stage_channels[stage]
                name = f"stage{stage + 1}"
                if cc.use_cru:
                    block = Cru(
                        self.params.child("cru").child(stream),
                        name,
                        CruConfig(
                            channels,
                            use_dilated=cc.use_cru_md,
                            use_graph=cc.use_cru_mg,
                        ),
                        rng,
                    )
                    block.warmup(*cc.stage_size(stage))
                    # start as identity: the graph branch multiplies activation
                    # matrices and is orders of magnitude too hot at random
                    # init, which would park the prediction head's sigmoid in
                    # saturation; the fusion conv un-zeroes after one step
                    zero_fuse(block)
                else:
                    block = PlainStack(
                        self.params.child("plain").child(stream),
                        name,
                        channels,
                        rng,
                    )
                self.context[stream].append(block)

        self.fusion: list = []
        both = cc.use_rgb_stream and cc.use_focal_stream
        for stage in SIDE_STAGES:
            channels = cc.stage_channels[stage]
            name = f"stage{stage + 1}"
            if both and cc.use_cmfa:
                self.fusion.append(Cmfa(self.params.child("cmfa"), name, channels, rng))
            elif cc.use_focal_stream:
                self.fusion.append(
                    FlattenFusion(
                        self.params.child("fusion"), name, channels, cc.slices, both, rng
                    )
                )
            else:
                self.fusion.append(None)  # rgb only: stage features pass through

        dec = self.params.child("decoder")
        d = cc.decoder_channels
        c3, c4, c5 = (cc.stage_channels[s] for s in SIDE_STAGES)
        self.p5_conv = Conv2d(dec, "p5", c5, d, 3, rng)
        self.p4_conv = Conv2d(dec, "p4", d + c4, d, 3, rng)
        self.p3_conv = Conv2d(dec, "p3", d + c3, d, 3, rng)
        self.head = Conv2d(dec, "head", d, 1, 1, rng)

    # -- forward -----------------------------------------------------------

    def _stream_features(self, stream: str, x: Tensor):
        backbone = self.rgb_backbone if stream == "rgb" else self.focal_backbone
        feats = backbone(x)
        return [block(f) for block, f in zip(self.context[stream], feats)]

    def __call__(self, rgb: Tensor | None, focal: Tensor | None,
                 mode: str = "eval", rng=None) -> Tensor:
        """Depth map [1,1,H,W] with values in (0,1)."""
        cc = self.config
        if cc.use_rgb_stream and rgb is None:
            raise UsageError("configuration uses the rgb stream but none was given")
        if cc.use_focal_stream and focal is None:
            raise UsageError("configuration uses the focal stream but none was given")
        if rgb is not None and rgb.shape != (1, 3, cc.height, cc.width):
            raise ShapeError(f"rgb input must be [1,3,{cc.height},{cc.width}], got {rgb.shape}")
        if focal is not None and focal.shape != (cc.slices, 3, cc.height, cc.width):
            raise ShapeError(
                f"focal input must be [{cc.slices},3,{cc.height},{cc.width}], got {focal.shape}"
            )

        rgb_feats = self._stream_features("rgb", rgb) if cc.use_rgb_stream else None
        focal_feats = self._stream_features("focal", focal) if cc.use_focal_stream else None

        fused = []
        for k in range(len(SIDE_STAGES)):
            fuser = self.fusion[k]
            if isinstance(fuser, Cmfa):
                fused.append(fuser(focal_feats[k], rgb_feats[k], mode, rng))
            elif isinstance(fuser, FlattenFusion):
                fused.append(
                    fuser(focal_feats[k], rgb_feats[k] if rgb_feats else None)
                )
            else:
                fused.append(rgb_feats[k])
        f3, f4, f5 = fused

        p5 = relu(self.p5_conv(f5))
        p4 = relu(self.p4_conv(concat([upsample_bilinear(p5, 2), f4], axis=1)))
        p3 = relu(self.p3_conv(concat([upsample_bilinear(p4, 2), f3], axis=1)))
        return upsample_bilinear(sigmoid(self.head(p3)), 4)


# -- loss --------------------------------------------------------------------


def _dx(t: Tensor) -> Tensor:
    return narrow(t, (slice(None), slice(None), slice(None), slice(1, None))) - narrow(
        t, (slice(None), slice(None), slice(None), slice(0, -1))
    )


def _dy(t: Tensor) -> Tensor:
    return narrow(t, (slice(None), slice(None), slice(1, None), slice(None))) - narrow(
        t, (slice(None), slice(None), slice(0, -1), slice(None))
    )


def _crop_common(dx: Tensor, dy: Tensor) -> tuple[Tensor, Tensor]:
    # dx is [*,H,W-1], dy is [*,H-1,W]; both crop to [*,H-1,W-1]
    dx = narrow(dx, (slice(None), slice(None), slice(0, -1), slice(None)))
    dy = narrow(dy, (slice(None), slice(None), slice(None), slice(0, -1)))
    return dx, dy


def loss_terms(pred: Tensor, gt: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(L1, gradient, surface-normal) terms; each a non-negative scalar."""
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    if pred.ndim != 4 or pred.shape[2] < 2 or pred.shape[3] < 2:
        raise ShapeError(f"need [1,1,H,W] maps with H,W >= 2, got {pred.shape}")

    l1 = (pred - gt).abs().mean()

    dxp, dyp = _crop_common(_dx(pred), _dy(pred))
    dxg, dyg = _crop_common(_dx(gt), _dy(gt))
    grad = ((dxp - dxg).abs() + (dyp - dyg).abs()).mean()

    # normals n = (-dx, -dy, 1); cosine via the dot product of unnormalized
    # vectors over the product of their norms (norms >= 1, never zero)
    dot = dxp * dxg + dyp * dyg + 1.0
    norm_p = sqrt(dxp * dxp + dyp * dyp + 1.0)
    norm_g = sqrt(dxg * dxg + dyg * dyg + 1.0)
    normal = (1.0 - dot / (norm_p * norm_g)).mean()

    return l1, grad, normal


def prediction_loss(pred: Tensor, gt: Tensor,
                    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> Tensor:
    """Weighted sum of the three loss terms."""
    l1, grad, normal = loss_terms(pred, gt)
    return weights[0] * l1 + weights[1] * grad + weights[2] * normal


# -- ablation ladder -----------------------------------------------------------

LADDER = {
    "rgb": dict(use_rgb_stream=True, use_focal_stream=False, use_cru=False, use_cmfa=False),
    "focal stack": dict(use_rgb_stream=False, use_focal_stream=True, use_cru=False,
                        use_cmfa=False),
    "Baseline": dict(use_cru=False, use_cmfa=False),
    "+CRU": dict(use_cru=True, use_cmfa=False),
    "+CMFA": dict(use_cru=False, use_cmfa=True),
    "+CRU(md)+CMFA": dict(use_cru=True, use_cru_md=True, use_cru_mg=False, use_cmfa=True),
    "+CRU(mg)+CMFA": dict(use_cru=True, use_cru_md=False, use_cru_mg=True, use_cmfa=True),
    "+CRU+CMFA(Ours)": dict(use_cru=True, use_cmfa=True),
}


def ladder_config(base: NetworkConfig, name: str) -> NetworkConfig:
    """The configuration for one named ablation ladder rung."""
    if name not in LADDER:
        raise UsageError(f"unknown ladder configuration {name!r}; choose from {list(LADDER)}")
    return replace(base, **LADDER[name])
