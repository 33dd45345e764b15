"""Network assembly: two-stream encoder, context blocks, fusion, decoder, loss.

An RGB image [1,3,H,W] and a focal stack [S,3,H,W] each pass through their
own five-stage backbone (two 3x3 convs + ReLU per stage, 2x2 max pooling
between stages).  Every ReLU in the network is fused into the conv before
it (``Conv2d(..., relu=True)``): the backbone stages, the plain context
stack, the dilated-pyramid convs of the CRU and the three decoder convs.
Side outputs are taken from stages 3, 4, 5 at strides 4, 8, 16.  Each side
output goes through a context block (the full reasoning block, one of its
single branches, or a plain stack of PLAIN_STACK_DEPTH convs, depending on
the configuration), the two streams are fused per stage, and a top-down
decoder produces the one depth map:

    P5 = relu(conv(F5))
    P4 = relu(conv(concat(up2(P5), F4)))
    P3 = relu(conv(concat(up2(P4), F3)))
    depth = upsample(sigmoid(conv1x1(P3)), 4)

Every stage fusion is called as ``fuse(focal, rgb, rng)``, and a block called
with an rng is in training mode (CMFA's attention heads drop out).  Only
``DepthNet`` reads the 'train'/'eval' mode: it hands each fusion its rng in
'train' mode and None in 'eval' mode.  With the rgb stream alone a stage has
no fusion and its rgb features pass through.

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
from .cru import Cru, zero_fuse
from .errors import ConfigError, ShapeError, UsageError
from .ops import Conv2d, concat, max_pool2, sigmoid, upsample_bilinear
from .params import ModuleParams
from .tensor import Tensor, reshape, sqrt

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
        if self.use_cru and not (self.use_cru_md or self.use_cru_mg):
            raise ConfigError("use_cru needs at least one of use_cru_md / use_cru_mg")
        side = [self.stage_channels[s] for s in SIDE_STAGES]
        if self.use_cru and self.use_cru_md and any(c % 2 for c in side):
            raise ConfigError(f"use_cru_md needs even side-stage channels, got {side}")
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
            a = Conv2d(scope, f"stage{i}a", cin, cout, 3, rng, relu=True)
            b = Conv2d(scope, f"stage{i}b", cout, cout, 3, rng, relu=True)
            self.convs.append((a, b))
            cin = cout

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        outs = []
        for i, (a, b) in enumerate(self.convs):
            if i > 0:
                x = max_pool2(x)
            x = b(a(x))
            if i in SIDE_STAGES:
                outs.append(x)
        return tuple(outs)


class PlainStack:
    """The no-reasoning fallback: PLAIN_STACK_DEPTH x [3x3 conv + ReLU], channel-preserving."""

    def __init__(self, params: ModuleParams, name: str, channels: int, rng):
        scope = params.child(name)
        self.convs = [
            Conv2d(scope, f"layer{i + 1}", channels, channels, 3, rng, relu=True)
            for i in range(PLAIN_STACK_DEPTH)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for conv in self.convs:
            x = conv(x)
        return x


class FlattenFusion:
    """Slice-flattened focal stack, with the rgb map when given, into a fusion conv (no dropout)."""

    def __init__(self, params: ModuleParams, name: str, channels: int, slices: int,
                 with_rgb: bool, rng):
        total = channels * (slices + (1 if with_rgb else 0))
        self.conv = Conv2d(params.child(name), "fuse", total, channels, 3, rng)

    def __call__(self, focal: Tensor, rgb: Tensor | None, rng=None) -> Tensor:
        s, c, h, w = focal.shape
        flat = reshape(focal, (1, s * c, h, w))
        return self.conv(flat if rgb is None else concat([flat, rgb], axis=1))


class DepthNet:
    """The assembled network; owns its parameter tree.

    With ``rng`` None it draws and allocates no parameter values: each is a
    read-only zero placeholder (``ops.kaiming_normal``) until
    ``params.load_state`` puts a loaded array in its place.
    """

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

        self.context = {
            stream: [self._context_block(stream, stage, rng) for stage in SIDE_STAGES]
            for stream, on in (("rgb", cc.use_rgb_stream), ("focal", cc.use_focal_stream))
            if on
        }

        self.fusion = [self._fusion_block(stage, rng) for stage in SIDE_STAGES]

        dec = self.params.child("decoder")
        d = cc.decoder_channels
        c3, c4, c5 = (cc.stage_channels[s] for s in SIDE_STAGES)
        self.p5_conv = Conv2d(dec, "p5", c5, d, 3, rng, relu=True)
        self.p4_conv = Conv2d(dec, "p4", d + c4, d, 3, rng, relu=True)
        self.p3_conv = Conv2d(dec, "p3", d + c3, d, 3, rng, relu=True)
        self.head = Conv2d(dec, "head", d, 1, 1, rng)

    def _context_block(self, stream: str, stage: int, rng):
        cc = self.config
        channels = cc.stage_channels[stage]
        name = f"stage{stage + 1}"
        if not cc.use_cru:
            return PlainStack(self.params.child("plain").child(stream), name, channels, rng)
        block = Cru(self.params.child("cru").child(stream), name, channels,
                    cc.stage_size(stage), rng, dilated=cc.use_cru_md, graph=cc.use_cru_mg)
        # start as identity: the graph branch multiplies activation matrices
        # and is orders of magnitude too hot at random init, which would park
        # the prediction head's sigmoid in saturation; the fusion conv
        # un-zeroes after one step.  A blank model's placeholders are zero and
        # read-only.
        if rng is not None:
            zero_fuse(block)
        return block

    def _fusion_block(self, stage: int, rng):
        cc = self.config
        channels = cc.stage_channels[stage]
        name = f"stage{stage + 1}"
        both = cc.use_rgb_stream and cc.use_focal_stream
        if both and cc.use_cmfa:
            return Cmfa(self.params.child("cmfa"), name, channels, rng)
        if cc.use_focal_stream:
            return FlattenFusion(self.params.child("fusion"), name, channels, cc.slices, both, rng)
        return None  # rgb only: the stage's rgb features pass through

    # -- forward -----------------------------------------------------------

    def _stream_features(self, stream: str, x: Tensor):
        backbone = self.rgb_backbone if stream == "rgb" else self.focal_backbone
        feats = backbone(x)
        return [block(f) for block, f in zip(self.context[stream], feats)]

    def __call__(self, rgb: Tensor | None, focal: Tensor | None,
                 mode: str = "eval", rng=None) -> Tensor:
        """Depth map [1,1,H,W] with values in (0,1); 'train' mode needs an rng for dropout."""
        if mode not in ("train", "eval"):
            raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "train" and rng is None:
            raise UsageError("train mode needs an rng for dropout")
        cc = self.config
        if cc.use_rgb_stream and rgb is None:
            raise UsageError("configuration uses the rgb stream but none was given")
        if cc.use_focal_stream and focal is None:
            raise UsageError("configuration uses the focal stream but none was given")
        if rgb is not None and rgb.shape != (1, 3, cc.height, cc.width):
            raise ShapeError(f"rgb input has shape {rgb.shape}, "
                             f"the model takes one 3x{cc.height}x{cc.width} image")
        if focal is not None and focal.shape != (cc.slices, 3, cc.height, cc.width):
            raise ShapeError(f"focal stack has shape {focal.shape} (slices, 3, H, W), "
                             f"the model takes {cc.slices} slices of 3x{cc.height}x{cc.width}")

        absent = [None] * len(SIDE_STAGES)
        rgb_feats = self._stream_features("rgb", rgb) if cc.use_rgb_stream else absent
        focal_feats = self._stream_features("focal", focal) if cc.use_focal_stream else absent
        dropout_rng = rng if mode == "train" else None
        f3, f4, f5 = (
            fuse(f, r, dropout_rng) if fuse else r
            for fuse, f, r in zip(self.fusion, focal_feats, rgb_feats)
        )

        p5 = self.p5_conv(f5)
        p4 = self.p4_conv(concat([upsample_bilinear(p5, 2), f4], axis=1))
        p3 = self.p3_conv(concat([upsample_bilinear(p4, 2), f3], axis=1))
        return upsample_bilinear(sigmoid(self.head(p3)), 4)


# -- loss --------------------------------------------------------------------


def _differences(t: Tensor) -> tuple[Tensor, Tensor]:
    """Forward differences along W and H of [*,*,H,W], both cropped to [*,*,H-1,W-1]."""
    dx = t[:, :, :, 1:] - t[:, :, :, :-1]
    dy = t[:, :, 1:, :] - t[:, :, :-1, :]
    return dx[:, :, :-1, :], dy[:, :, :, :-1]


def loss_terms(pred: Tensor, gt: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(L1, gradient, surface-normal) terms; each a non-negative scalar."""
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    if pred.ndim != 4 or pred.shape[2] < 2 or pred.shape[3] < 2:
        raise ShapeError(f"need [1,1,H,W] maps with H,W >= 2, got {pred.shape}")

    l1 = (pred - gt).abs().mean()

    dxp, dyp = _differences(pred)
    dxg, dyg = _differences(gt)
    grad = ((dxp - dxg).abs() + (dyp - dyg).abs()).mean()

    # normals n = (-dx, -dy, 1); cosine via the dot product of unnormalized
    # vectors over the product of their norms (norms >= 1, never zero)
    dot = dxp * dxg + dyp * dyg + 1.0
    norm_p = sqrt(dxp * dxp + dyp * dyp + 1.0)
    norm_g = sqrt(dxg * dxg + dyg * dyg + 1.0)
    normal = (1.0 - dot / (norm_p * norm_g)).mean()

    return l1, grad, normal


def prediction_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """The sum of the three loss terms, each weighted 1."""
    l1, grad, normal = loss_terms(pred, gt)
    return l1 + grad + normal


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
