"""Differentiable neural operators built on the tensor core.

Convolutions are cross-correlations (no kernel flip).  ``conv2d`` and
``conv3d`` only check shapes and resolve padding; both run one N-d core,
``_conv``, over [N, C, *spatial].  The core computes tap by tap: each kernel
offset contributes one strided slice of the padded input, so forward and
backward need one small matmul per kernel offset and no materialized im2col
buffer.  All operators register gradients on the tape.

Axis conventions: 2-D feature maps are [slices, channels, height, width];
3-D convolution inputs are [batch, channels, slices, height, width].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from .params import ModuleParams
from .tensor import Tensor, _accum, _track, as_tensor, concat_tensors, reduce


# -- activations ---------------------------------------------------------------

_ONE_BELOW = np.nextafter(1.0, 0.0)
_ZERO_ABOVE = np.nextafter(0.0, 1.0)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g):
        _accum(x, g * mask)

    return _track(np.where(mask, x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, clamped into the open interval (0, 1)."""
    x = as_tensor(x)
    pos = x.data >= 0
    e = np.exp(np.where(pos, -x.data, x.data))  # exp of a non-positive number
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    s = np.clip(s, _ZERO_ABOVE, _ONE_BELOW)

    def backward(g):
        _accum(x, g * s * (1.0 - s))

    return _track(s, (x,), backward)


def dropout(x: Tensor, rate: float, mode: str, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity in eval mode, 1/(1-rate) scaling in train."""
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise UsageError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    x = as_tensor(x)
    scale = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g):
        _accum(x, g * scale)

    return _track(x.data * scale, (x,), backward)


# -- convolutions ----------------------------------------------------------------


@dataclass(frozen=True)
class Conv2Spec:
    """Static description of a 2-D convolution layer."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: int = 1
    dilation: int = 1
    padding: str = "same"

    def __post_init__(self):
        if self.dilation < 1 or self.stride < 1:
            raise ShapeError("stride and dilation must be >= 1")
        _pads(self.padding, self.kernel, self.dilation)


def _out_extent(n: int, k: int, stride: int, dilation: int, pad: int) -> int:
    return (n + 2 * pad - dilation * (k - 1) - 1) // stride + 1


def _pads(padding: str, kernel, dilation: int) -> tuple[int, ...]:
    """Per-axis zero padding: none for 'valid', extent-preserving for 'same'."""
    if padding == "valid":
        return (0,) * len(kernel)
    if padding != "same":
        raise ShapeError(f"unknown padding mode {padding!r}")
    if any(k % 2 == 0 for k in kernel):
        raise ShapeError(f"'same' padding needs odd kernel extents, got {tuple(kernel)}")
    return tuple(dilation * (k - 1) // 2 for k in kernel)


def _conv(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int,
    dilation: int,
    pads: tuple[int, ...],
) -> Tensor:
    """Cross-correlation of [N, C, *spatial] with [C_out, C, *kernel].

    The one tap loop behind conv2d and conv3d: kernel offsets are visited in
    lexicographic order and each adds one [C_out, C] x [C, L] matmul.
    """
    N, C, *spatial = x.shape
    CO, CI, *kernel = weight.shape
    if C != CI:
        raise ShapeError(f"convolution channel mismatch: input {C}, kernel {CI}")
    out_sp = tuple(
        _out_extent(n, k, stride, dilation, p) for n, k, p in zip(spatial, kernel, pads)
    )
    if min(out_sp) < 1:
        raise ShapeError(f"convolution of input {x.shape} with kernel {tuple(kernel)} is empty")

    lead = (slice(None), slice(None))
    xp = np.pad(x.data, ((0, 0), (0, 0)) + tuple((p, p) for p in pads))
    L = math.prod(out_sp)
    # (weight index, strided window of the padded input) per kernel offset
    taps = [
        (
            lead + offset,
            lead + tuple(
                slice(o * dilation, o * dilation + stride * (m - 1) + 1, stride)
                for o, m in zip(offset, out_sp)
            ),
        )
        for offset in itertools.product(*map(range, kernel))
    ]

    out = np.zeros((N, CO, L))
    for widx, window in taps:
        out += np.matmul(weight.data[widx], xp[window].reshape(N, C, L))
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape((N, CO) + out_sp)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gm = g.reshape(N, CO, L)
        if bias is not None:
            _accum(bias, g.sum(axis=(0,) + tuple(range(2, g.ndim))))
        if weight.requires_grad:
            dw = np.empty_like(weight.data)
            for widx, window in taps:
                pr = xp[window].reshape(N, C, L)
                dw[widx] = np.matmul(gm, pr.transpose(0, 2, 1)).sum(axis=0)
            _accum(weight, dw)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for widx, window in taps:
                dxp[window] += np.matmul(weight.data[widx].T, gm).reshape((N, C) + out_sp)
            _accum(x, dxp[lead + tuple(slice(p, p + n) for p, n in zip(pads, spatial))])

    return _track(out, parents, backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    dilation: int = 1,
    padding: str = "same",
) -> Tensor:
    """2-D cross-correlation over [S, C, H, W], applied per slice.

    ``weight`` is [C_out, C_in, kh, kw]; zero padding keeps H, W under
    'same' padding with stride 1.
    """
    x = as_tensor(x)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(
            f"conv2d expects [S, C, H, W] and a 4-D kernel, got {x.shape} and {weight.shape}"
        )
    return _conv(x, weight, bias, stride, dilation, _pads(padding, weight.shape[2:], dilation))


def conv3d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    padding: str = "same",
) -> Tensor:
    """3-D cross-correlation over [B, C, S, H, W] (slice axis is spatial).

    ``weight`` is [C_out, C_in, ks, kh, kw]; 'valid' drops padding on every
    axis, 'same' preserves all extents.  Stride and dilation are 1.
    """
    x = as_tensor(x)
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(
            f"conv3d expects [B, C, S, H, W] and a 5-D kernel, got {x.shape} and {weight.shape}"
        )
    return _conv(x, weight, bias, 1, 1, _pads(padding, weight.shape[2:], 1))


def fc(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: [*, K] -> [*, L] with weight [K, L]."""
    x = as_tensor(x)
    K, L = weight.shape
    if x.shape[-1] != K:
        raise ShapeError(f"fc expects last extent {K}, got {x.shape}")
    lead = x.shape[:-1]
    xf = x.data.reshape(-1, K)
    out = xf @ weight.data
    if bias is not None:
        out = out + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gf = g.reshape(-1, L)
        if bias is not None:
            _accum(bias, gf.sum(axis=0))
        _accum(weight, xf.T @ gf)
        _accum(x, (gf @ weight.data.T).reshape(x.shape))

    return _track(out.reshape(lead + (L,)), parents, backward)


# -- pooling / resampling ---------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [S, C, H, W] -> [S, C]."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [S, C, H, W], got {x.shape}")
    return reduce(x, (2, 3), "mean")


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route to the first maximum."""
    x = as_tensor(x)
    S, C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"max_pool2 needs even spatial extents, got {H}x{W}")
    oh, ow = H // 2, W // 2
    windows = (
        x.data.reshape(S, C, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5).reshape(S, C, oh, ow, 4)
    )
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        buf = np.zeros((S, C, oh, ow, 4))
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        dx = buf.reshape(S, C, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(S, C, H, W)
        _accum(x, dx)

    return _track(out, (x,), backward)


def _bilinear_axis(n_in: int, factor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # align-corners-false source coordinates, clamped at the low edge;
    # the high edge degenerates to i0 == i1 so any fraction is harmless
    dst = np.arange(n_in * factor)
    src = np.maximum((dst + 0.5) / factor - 0.5, 0.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, frac


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling by an integer factor (align-corners false)."""
    if not isinstance(factor, int) or factor < 1:
        raise UsageError(f"upsample factor must be an integer >= 1, got {factor}")
    x = as_tensor(x)
    if factor == 1:
        return x
    S, C, H, W = x.shape
    i0, i1, fy = _bilinear_axis(H, factor)
    j0, j1, fx = _bilinear_axis(W, factor)
    wy, wx = fy[:, None], fx[None, :]
    corners = (
        (i0, j0, (1 - wy) * (1 - wx)),
        (i0, j1, (1 - wy) * wx),
        (i1, j0, wy * (1 - wx)),
        (i1, j1, wy * wx),
    )
    out = np.zeros((S, C, H * factor, W * factor))
    for ii, jj, w in corners:
        out += w * x.data[:, :, ii[:, None], jj[None, :]]

    def backward(g):
        dx = np.zeros((H * W, S * C))
        gf = g.reshape(S * C, -1)
        for ii, jj, w in corners:
            flat = (ii[:, None] * W + jj[None, :]).ravel()
            np.add.at(dx, flat, (w.ravel() * gf).T)
        _accum(x, dx.T.reshape(S, C, H, W))

    return _track(out, (x,), backward)


concat = concat_tensors


# -- parameterized layers -----------------------------------------------------


def kaiming_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Conv2d:
    """Conv2Spec + its weight/bias registered under ``params.child(name)``."""

    def __init__(self, params: ModuleParams, name: str, spec: Conv2Spec, rng: np.random.Generator):
        kh, kw = spec.kernel
        scope = params.child(name)
        fan_in = spec.in_channels * kh * kw
        self.weight = scope.add(
            "weight", kaiming_normal(rng, (spec.out_channels, spec.in_channels, kh, kw), fan_in)
        )
        self.bias = scope.add("bias", np.zeros(spec.out_channels))
        self.spec = spec

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.spec.stride,
            dilation=self.spec.dilation,
            padding=self.spec.padding,
        )


class Conv3d:
    def __init__(
        self,
        params: ModuleParams,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int, int] = (3, 3, 3),
        padding: str = "same",
        rng: np.random.Generator | None = None,
    ):
        ks, kh, kw = kernel
        scope = params.child(name)
        fan_in = in_channels * ks * kh * kw
        self.weight = scope.add(
            "weight", kaiming_normal(rng, (out_channels, in_channels, ks, kh, kw), fan_in)
        )
        self.bias = scope.add("bias", np.zeros(out_channels))
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d(x, self.weight, self.bias, padding=self.padding)


class Linear:
    def __init__(self, params: ModuleParams, name: str, in_features: int, out_features: int, rng):
        scope = params.child(name)
        self.weight = scope.add("weight", kaiming_normal(rng, (in_features, out_features), in_features))
        self.bias = scope.add("bias", np.zeros(out_features))

    def __call__(self, x: Tensor) -> Tensor:
        return fc(x, self.weight, self.bias)
