"""Differentiable neural operators built on the tensor core.

Convolutions are cross-correlations (no kernel flip).  ``conv2d`` and
``conv3d`` only check shapes and resolve padding; both run one N-d core,
``_conv``, over [N, C, *spatial].  The core is an im2col GEMM (Chellapilla
et al. 2006) in blocks of at most ``_BLOCK_BYTES`` of columns: each block is
copied out of one strided window view of the padded input and multiplied by
the [C_out, C*K] weight matrix.  A 1x1 stride-1 kernel's columns are the
input itself, so its blocks are views of the input and nothing is copied.
Backward walks the columns of the stride-spread, padded g once: the input
gradient is the forward GEMM of those columns with the flipped kernel
(Dumoulin & Visin 2016, section 4), and the weight gradient multiplies the
input by the same columns.  All operators register gradients on the tape.

``conv2d(..., relu=True)`` (and ``Conv2d(..., relu=True)``) applies the ReLU
in place on the convolution's output, and its backward recovers the ReLU
mask from that output, so the tape keeps no pre-activation.  The model
applies every ReLU this way.  Backward passes hand the gradients they
allocate to ``tensor._accum`` as ``fresh``, which takes them without a copy.

Every operator computes and allocates in its input's dtype.  Convolutions
and ``fc`` cast a float64 weight and bias to a float32 input's dtype where
they read them (a no-op in float64), so one parameter tree serves float64
training and float32 inference without being changed.  ``dropout`` always
drops at DROPOUT_RATE, the rate of CMFA's attention heads.

Axis conventions: 2-D feature maps are [slices, channels, height, width];
3-D convolution inputs are [batch, channels, slices, height, width].
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, UsageError
from .params import ModuleParams
from .tensor import Tensor, _accum, _track, as_tensor, concat_tensors, reduce


# -- activations ---------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    """max(x, 0), with NaN and -0 mapped to +0.

    The model fuses its ReLUs into the convolution (``conv2d(..., relu=True)``);
    this unfused op is kept for callers outside the package.
    """
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g):
        _accum(x, g * mask, fresh=True)

    return _track(np.where(mask, x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, clamped into the open interval (0, 1)."""
    x = as_tensor(x)
    pos = x.data >= 0
    e = np.exp(np.where(pos, -x.data, x.data))  # exp of a non-positive number
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    # bounds in the input's dtype (float64's nextafter(1, 0) is 1 in float32); the low
    # one is the smallest normal number, so that upsampling the map cannot underflow to 0
    info = np.finfo(s.dtype)
    s = np.clip(s, info.tiny, 1 - info.epsneg)

    def backward(g):
        _accum(x, g * s * (1.0 - s), fresh=True)

    return _track(s, (x,), backward)


DROPOUT_RATE = 0.5  # CMFA's, on the pooled features of both attention heads


def dropout(x: Tensor, rng: np.random.Generator) -> Tensor:
    """Inverted dropout at DROPOUT_RATE, kept values scaled by 1/(1-rate); training only."""
    x = as_tensor(x)
    keep = rng.random(x.shape) >= DROPOUT_RATE
    scale = (keep / (1.0 - DROPOUT_RATE)).astype(x.data.dtype, copy=False)

    def backward(g):
        _accum(x, g * scale, fresh=True)

    return _track(x.data * scale, (x,), backward)


# -- convolutions ----------------------------------------------------------------


def _pads(padding: str, kernel, dilation: int) -> tuple[int, ...]:
    """Per-axis zero padding: none for 'valid', extent-preserving for 'same'."""
    if padding == "valid":
        return (0,) * len(kernel)
    if padding != "same":
        raise ShapeError(f"unknown padding mode {padding!r}")
    if any(k % 2 == 0 for k in kernel):
        raise ShapeError(f"'same' padding needs odd kernel extents, got {tuple(kernel)}")
    return tuple(dilation * (k - 1) // 2 for k in kernel)


# Upper bound on the bytes of one block of im2col columns.
_BLOCK_BYTES = 8 << 20


def _pad(a: np.ndarray, pads) -> np.ndarray:
    """``a`` [N, C, *spatial] zero-padded by ``pads`` on both sides of each spatial axis."""
    if not any(pads):
        return a
    out = np.zeros(a.shape[:2] + tuple(n + 2 * p for n, p in zip(a.shape[2:], pads)), a.dtype)
    out[(slice(None),) * 2 + tuple(slice(p, p + n) for p, n in zip(pads, a.shape[2:]))] = a
    return out


def _columns(xp: np.ndarray, kernel, stride: int, dilation: int, out_sp):
    """Yield (items, rows, cols): the im2col columns of padded ``xp`` in blocks.

    A block is a run of whole items or, when one item's columns exceed
    _BLOCK_BYTES, a run of rows of the first output axis of one item.
    ``cols`` is [n, C, *kernel, rows, *rest], the input under each tap,
    copied into one reused buffer: it is valid until the next block is drawn.
    A 1x1 kernel at stride 1 has the input itself as its columns, so there
    ``cols`` is a read-only view of ``xp``, with no buffer and no copy.  The
    blocks are the same either way, so sums over them keep their order.
    """
    N, C = xp.shape[:2]
    D = len(kernel)
    CK = C * math.prod(kernel)
    win = sliding_window_view(
        xp, tuple(dilation * (k - 1) + 1 for k in kernel), tuple(range(2, 2 + D))
    )[
        (slice(None),) * 2
        + tuple(slice(0, stride * (m - 1) + 1, stride) for m in out_sp)
        + (slice(None, None, dilation),) * D
    ].transpose((0, 1) + tuple(range(2 + D, 2 + 2 * D)) + tuple(range(2, 2 + D)))

    rows, row_len = out_sp[0], math.prod(out_sp[1:])
    block_rows = max(1, _BLOCK_BYTES // (xp.itemsize * CK * row_len))
    per = max(1, min(N, block_rows // rows))
    block_rows = min(block_rows, rows)
    view = stride == 1 and CK == C
    buf = None if view else np.empty(per * CK * block_rows * row_len, xp.dtype)
    for n in range(0, N, per):
        for r in range(0, rows, block_rows):
            items, rs = slice(n, n + per), slice(r, r + block_rows)
            src = win[(items,) + (slice(None),) * (1 + D) + (rs,)]
            if view:
                cols = src
            else:
                cols = buf[: src.size].reshape(src.shape)
                np.copyto(cols, src)
            yield items, rs, cols


def _correlate(xp: np.ndarray, w: np.ndarray, bias, stride: int, dilation: int, out_sp):
    """Cross-correlation of padded ``xp`` [N, C, *] with ``w`` [C_out, C, *kernel].

    One [C_out, C*K] x [C*K, L] matmul per item of each block, written
    straight into the output, plus ``bias`` unless it is None.
    """
    CO = w.shape[0]
    w2 = w.reshape(CO, -1)
    out = np.empty((xp.shape[0], CO) + tuple(out_sp), xp.dtype)
    for items, rs, cols in _columns(xp, w.shape[2:], stride, dilation, out_sp):
        # whole items, or rows of one item: a view of ``out`` either way
        dst = out[items, :, rs].reshape(len(cols), CO, -1)
        np.matmul(w2, cols.reshape(len(cols), w2.shape[1], -1), out=dst)
        if bias is not None:
            dst += bias[:, None]
    return out


def _conv(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int,
    dilation: int,
    pads: tuple[int, ...],
    relu: bool = False,
) -> Tensor:
    """Cross-correlation of [N, C, *spatial] with [C_out, C, *kernel], then ReLU if ``relu``.

    The one core behind conv2d and conv3d; forward and backward share the
    im2col blocks of ``_columns``.  The ReLU runs in place on the fresh
    output, as np.where(out > 0, out, 0.0) would: fmax maps NaN to 0, and
    adding +0.0 maps -0 to +0.  Backward masks g with out > 0, so the tape
    keeps neither the pre-activation nor a mask.  Backward takes one walk
    over the columns of g, spread by the stride and padded by
    dilation*(k-1) - pad, at stride 1 over the input extent.  The input
    gradient is the transpose of the convolution: the kernel, flipped and
    with its channel axes swapped, times those columns, as ``_correlate``
    computes it.  The weight gradient reads the same columns: it sums
    cols @ x^T over the blocks, which is the flipped kernel gradient as
    [C_out*K, C].
    """
    N, C, *spatial = x.shape
    CO, CI, *kernel = weight.shape
    if C != CI:
        raise ShapeError(f"convolution channel mismatch: input {C}, kernel {CI}")
    # positions where a window may start; the output takes every stride-th one
    starts = tuple(n + 2 * p - dilation * (k - 1) for n, k, p in zip(spatial, kernel, pads))
    out_sp = tuple((s - 1) // stride + 1 for s in starts)
    if min(out_sp) < 1:
        raise ShapeError(f"convolution of input {x.shape} with kernel {tuple(kernel)} is empty")

    D = len(kernel)
    dtype = x.data.dtype
    xp = _pad(x.data, pads)
    b = None if bias is None else bias.data.astype(dtype, copy=False)
    out = _correlate(xp, weight.data.astype(dtype, copy=False), b, stride, dilation, out_sp)
    if relu:
        np.fmax(out, 0.0, out=out)  # NaN -> 0
        out += 0.0  # -0 -> +0
    parents = (x, weight) if bias is None else (x, weight, bias)

    # the closure holds x, weight, bias and out, and no other array
    def backward(g):
        if relu:
            g *= out > 0  # g is this node's own gradient buffer (see tensor._accum)
        if bias is not None:
            _accum(bias, g.sum(axis=(0,) + tuple(range(2, g.ndim))), fresh=True)
        if not (x.requires_grad or weight.requires_grad):
            return
        if starts != out_sp:
            spread = np.zeros((N, CO) + starts)
            spread[(slice(None),) * 2 + (slice(None, None, stride),) * D] = g
            g = spread
        back = tuple(dilation * (k - 1) - p for k, p in zip(kernel, pads))
        taps = tuple(range(2, 2 + D))
        # [C, CO*K]: the flipped kernel with its channel axes swapped
        wt = np.flip(weight.data, taps).swapaxes(0, 1).reshape(C, -1)
        dx = np.empty(x.shape) if x.requires_grad else None
        dw = np.zeros(wt.shape[::-1]) if weight.requires_grad else None
        for items, rs, cols in _columns(_pad(g, back), kernel, 1, dilation, spatial):
            cols = cols.reshape(len(cols), wt.shape[1], -1)
            if dx is not None:
                np.matmul(wt, cols, out=dx[items, :, rs].reshape(len(cols), C, -1))
            if dw is not None:
                xb = x.data[items, :, rs].reshape(len(cols), C, -1)
                dw += np.matmul(cols, xb.transpose(0, 2, 1)).sum(axis=0)
        if dw is not None:
            # [CO*K, C] -> [CO, C, *kernel], taps flipped back
            dw = np.moveaxis(dw.reshape((CO, *kernel, C)), -1, 1)
            _accum(weight, np.flip(dw, taps))
        if dx is not None:
            _accum(x, dx, fresh=True)

    return _track(out, parents, backward)


def _check_step(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ShapeError(f"{name} must be an integer >= 1, got {value!r}")


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    dilation: int = 1,
    padding: str = "same",
    relu: bool = False,
) -> Tensor:
    """2-D cross-correlation over [S, C, H, W], applied per slice, then ReLU if ``relu``.

    ``weight`` is [C_out, C_in, kh, kw]; zero padding keeps H, W under
    'same' padding with stride 1.  ``stride`` and ``dilation`` are integers
    >= 1.
    """
    x = as_tensor(x)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(
            f"conv2d expects [S, C, H, W] and a 4-D kernel, got {x.shape} and {weight.shape}"
        )
    _check_step("stride", stride)
    _check_step("dilation", dilation)
    return _conv(x, weight, bias, stride, dilation, _pads(padding, weight.shape[2:], dilation),
                 relu)


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """3-D cross-correlation over [B, C, S, H, W] (slice axis is spatial).

    ``weight`` is [C_out, C_in, ks, kh, kw]; 'same' zero padding preserves
    all extents.  Stride and dilation are 1.
    """
    x = as_tensor(x)
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(
            f"conv3d expects [B, C, S, H, W] and a 5-D kernel, got {x.shape} and {weight.shape}"
        )
    return _conv(x, weight, bias, 1, 1, _pads("same", weight.shape[2:], 1))


def fc(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: [*, K] -> [*, L] with weight [K, L]."""
    x = as_tensor(x)
    K, L = weight.shape
    if x.shape[-1] != K:
        raise ShapeError(f"fc expects last extent {K}, got {x.shape}")
    lead = x.shape[:-1]
    xf = x.data.reshape(-1, K)
    out = xf @ weight.data.astype(xf.dtype, copy=False)
    if bias is not None:
        out = out + bias.data.astype(xf.dtype, copy=False)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gf = g.reshape(-1, L)
        if bias is not None:
            _accum(bias, gf.sum(axis=0), fresh=True)
        _accum(weight, xf.T @ gf, fresh=True)
        _accum(x, (gf @ weight.data.T).reshape(x.shape), fresh=True)

    return _track(out.reshape(lead + (L,)), parents, backward)


# -- pooling / resampling ---------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [S, C, H, W] -> [S, C]."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [S, C, H, W], got {x.shape}")
    return reduce(x, (2, 3), "mean")


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route to the first maximum in scan order.

    Pairwise maxima over the four stride-2 views, in the scan order
    (0,0), (0,1), (1,0), (1,1) of each window.  np.maximum returns its
    second operand when both compare equal (+0 and -0), so the earlier view
    goes second.  The gradient goes to the first view equal to the output.
    """
    x = as_tensor(x)
    S, C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"max_pool2 needs even spatial extents, got {H}x{W}")
    offsets = [(i, j) for i in (0, 1) for j in (0, 1)]
    views = [x.data[:, :, i::2, j::2] for i, j in offsets]
    out = np.maximum(np.maximum(views[3], views[2]), np.maximum(views[1], views[0]))

    def backward(g):
        dx = np.zeros((S, C, H, W))
        free = np.ones(out.shape, dtype=bool)
        for (i, j), v in zip(offsets, views):
            hit = free & (v == out)
            np.copyto(dx[:, :, i::2, j::2], g, where=hit)
            free &= ~hit
        _accum(x, dx, fresh=True)

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
    dtype = x.data.dtype
    wy, wx = fy[:, None].astype(dtype, copy=False), fx[None, :].astype(dtype, copy=False)
    corners = (
        (i0, j0, (1 - wy) * (1 - wx)),
        (i0, j1, (1 - wy) * wx),
        (i1, j0, wy * (1 - wx)),
        (i1, j1, wy * wx),
    )
    out = np.zeros((S, C, H * factor, W * factor), dtype)
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


def kaiming_normal(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    """He-normal init values of ``shape``, the one place a layer draws them.

    With ``rng`` None it draws nothing and returns zeros: a model built that
    way has every parameter path and shape, for values that are loaded next.
    """
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Conv2d:
    """Stride-1 'same' k x k convolution, weight and bias under ``params.child(name)``.

    With ``relu`` set, every call applies the ReLU fused into the convolution.
    """

    def __init__(self, params: ModuleParams, name: str, in_channels: int, out_channels: int,
                 kernel: int, rng: np.random.Generator, dilation: int = 1, relu: bool = False):
        _check_step("dilation", dilation)
        _pads("same", (kernel, kernel), dilation)
        scope = params.child(name)
        self.weight = scope.add(
            "weight",
            kaiming_normal(rng, (out_channels, in_channels, kernel, kernel),
                           in_channels * kernel * kernel),
        )
        self.bias = scope.add("bias", np.zeros(out_channels))
        self.dilation = dilation
        self.relu = relu

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, dilation=self.dilation, relu=self.relu)


class Linear:
    def __init__(self, params: ModuleParams, name: str, in_features: int, out_features: int, rng):
        scope = params.child(name)
        self.weight = scope.add("weight", kaiming_normal(rng, (in_features, out_features), in_features))
        self.bias = scope.add("bias", np.zeros(out_features))

    def __call__(self, x: Tensor) -> Tensor:
        return fc(x, self.weight, self.bias)
