"""Differentiable neural operators built on the tensor core.

Only the convolutions, ``max_pool2``, ``sigmoid`` and ``relu`` write their
own backward pass; the other operators are compositions of tape ops, which
differentiate them.  ``fc`` is reshape, ``matmul`` and add; ``dropout`` is a
product with a constant mask; ``upsample_bilinear`` is Uy @ x @ Ux^T with
constant interpolation matrices.

Convolutions are cross-correlations (no kernel flip).  ``conv2d`` and
``conv3d`` check shapes and padding and run one N-d core, ``_conv``, over
[N, C, *spatial].  The core computes only stride-1 correlations that keep
the extent: ``_margins`` pads each axis by dilation*(k-1), half on each
side, an even kernel's extra one high.  'valid' padding and a stride are a
``narrow`` of its result, whose backward scatters g back into zeros
(Dumoulin & Visin 2016, section 4).  The core is an im2col GEMM (Chellapilla
et al. 2006) in blocks of at most ``_BLOCK_BYTES`` of columns.  Blocks are
copied from a flat copy of the input, zero-padded along every spatial axis
but the last and with the last axis's pads as margins at its two ends.  A
tap's offset along the last axis is then a shift of the row-major run, so
the column of each (item, channel, tap) is one contiguous run of rows x W
elements: one strided view and one copy per block.  Entries that the shift
carries past a row's edge (rows further, when it is wider than the map) are
zeroed after the copy, where horizontal zero padding held zeros, so the
columns are the padded input's byte for byte.  A 1x1 kernel's columns are
the input itself: its blocks are views, and nothing is copied.
A block is at most 2 MiB, the L2 cache of one core, so the GEMM reads
columns that the copy has just left in cache; larger blocks spill to L3
between the two.  At 1 MiB the small GEMMs cost more than the cache saves.
Each output element is one dot product over C*K whichever block holds it, so
the forward does not depend on the block size (a test pins 8 MiB against the
default); the weight gradient's per-block sums do, by rounding.
Backward walks the columns of g, padded by the mirrored margins, once: the
input gradient is the forward GEMM of those columns with the flipped kernel,
and the weight gradient multiplies the input by the same columns.  When the
input takes no gradient (a backbone's first convolution reads the image), the
weight gradient walks the columns of the input instead, C*K rows where g's
have C_out*K.

``conv2d(..., relu=True)`` (and ``Conv2d(..., relu=True)``) applies the ReLU
in place on the convolution's output, and its backward recovers the ReLU
mask from that output, so the tape keeps no pre-activation.  The model
applies every ReLU this way.  Each backward closure holds its inputs' tape
entries (``x._node``), never the input tensors, and only the arrays
it reads: a convolution keeps its input and weight, and its output only
with the fused ReLU.  Backward passes hand the gradients they allocate to
``tensor._accum`` as ``fresh``, which takes them without a copy.

Every operator computes and allocates in its input's dtype.  Convolutions
cast a float64 weight and bias to a float32 input's dtype where they read
them (a no-op in float64), as the tape ops do, so one parameter tree serves
float64 training and float32 inference without being changed.  ``dropout``
always drops at DROPOUT_RATE, the rate of CMFA's attention heads.

Axis conventions: 2-D feature maps are [slices, channels, height, width];
3-D convolution inputs are [batch, channels, slices, height, width].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, UsageError
from .params import ModuleParams
from .tensor import Tensor, _accum, _track, as_tensor, concat, matmul, reduce, reshape


# -- activations ---------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    """max(x, 0), with NaN and -0 mapped to +0.

    The model fuses its ReLUs into the convolution (``conv2d(..., relu=True)``);
    this unfused op is kept for callers outside the package.
    """
    x = as_tensor(x)
    mask = x.data > 0
    nx = x._node

    def backward(g):
        _accum(nx, g * mask, fresh=True)

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
    nx = x._node

    def backward(g):
        _accum(nx, g * s * (1.0 - s), fresh=True)

    return _track(s, (x,), backward)


DROPOUT_RATE = 0.5  # CMFA's, on the pooled features of both attention heads


def dropout(x: Tensor, rng: np.random.Generator) -> Tensor:
    """Train-time inverted dropout at DROPOUT_RATE: x times a constant mask of 0 or 1/(1-rate)."""
    x = as_tensor(x)
    return x * ((rng.random(x.shape) >= DROPOUT_RATE) / (1.0 - DROPOUT_RATE))


# -- convolutions ----------------------------------------------------------------


def _margins(kernel, dilation: int) -> tuple[tuple[int, int], ...]:
    """Per-axis (low, high) zero padding that keeps the extent, an even kernel's extra one high."""
    return tuple((r // 2, r - r // 2) for r in (dilation * (k - 1) for k in kernel))


def _check_padding(padding: str, kernel) -> None:
    if padding not in ("same", "valid"):
        raise ShapeError(f"unknown padding mode {padding!r}")
    if padding == "same" and any(k % 2 == 0 for k in kernel):
        raise ShapeError(f"'same' padding needs odd kernel extents, got {tuple(kernel)}")


# Upper bound on the bytes of one block of im2col columns: the 2 MiB L2 of a
# core, so a block is still cached when its GEMM reads it (see the module notes).
_BLOCK_BYTES = 2 << 20


def _columns(x: np.ndarray, kernel, dilation: int, pads):
    """Yield (items, rows, cols): the im2col columns of ``x`` [N, C, *spatial] in blocks.

    ``pads`` is the (low, high) zero padding of each axis; each pair sums to
    dilation*(k-1), so the output keeps the extent of ``x``.  A block is a
    run of whole items or, when one item's columns exceed _BLOCK_BYTES, a run
    of rows of the first axis of one item.  ``cols`` is [n, C, *kernel, rows,
    *rest], copied in runs (see the module notes) into one reused buffer and
    valid until the next block is drawn; the ndarray constructor checks that
    the window of runs lies inside the flat copy.  A 1x1 kernel's ``cols`` is
    a view of ``x`` in the same blocks, so sums over them keep their order.
    """
    N, C, *sp = x.shape
    D, CK = len(kernel), C * math.prod(kernel)
    rows, row_len = sp[0], math.prod(sp[1:])
    block_rows = max(1, _BLOCK_BYTES // (x.itemsize * CK * row_len))
    per = max(1, min(N, block_rows // rows))
    block_rows = min(block_rows, rows)
    win, wraps, buf = x[(slice(None),) * 2 + (None,) * D], [], None  # a 1x1 kernel's view
    if CK > C:
        *outer, (lo, hi) = pads
        body = (N, C, *(n + a + b for n, (a, b) in zip(sp[:-1], outer)), sp[-1])
        flat = np.zeros(lo + math.prod(body) + hi, x.dtype)
        padded = flat[lo : lo + math.prod(body)].reshape(body)
        padded[(slice(None),) * 2 + tuple(slice(a, a + n) for n, (a, _) in zip(sp[:-1], outer))] = x
        win = np.ndarray((N, C, *kernel, *sp), x.dtype, flat, 0, padded.strides[:2]
                         + tuple(dilation * s for s in padded.strides[2:]) + padded.strides[2:])
        for t in range(kernel[-1]):  # the entries tap t shifts across a row edge
            shift, W = dilation * t - lo, sp[-1]
            if shift:
                cut = slice(0, min(W, -shift)) if shift < 0 else slice(max(0, W - shift), W)
                wraps.append((slice(None),) * (1 + D) + (t, Ellipsis, cut))
        buf = np.empty(per * CK * block_rows * row_len, x.dtype)
    for n in range(0, N, per):
        for r in range(0, rows, block_rows):
            items, rs = slice(n, n + per), slice(r, r + block_rows)
            src = win[(items,) + (slice(None),) * (1 + D) + (rs,)]
            if buf is None:
                cols = src
            else:
                cols = buf[: src.size].reshape(src.shape)
                np.copyto(cols, src)
                for key in wraps:
                    cols[key] = 0
            yield items, rs, cols


def _correlate(x: np.ndarray, w: np.ndarray, bias, dilation: int, pads):
    """Cross-correlation of ``x`` [N, C, *] padded by ``pads`` with ``w`` [C_out, C, *kernel].

    One [C_out, C*K] x [C*K, L] matmul per item of each block, written straight
    into the output of ``x``'s extent, plus ``bias`` unless it is None.
    """
    CO, _, *kernel = w.shape
    w2 = w.reshape(CO, -1)
    out = np.empty((x.shape[0], CO) + x.shape[2:], x.dtype)
    for items, rs, cols in _columns(x, kernel, dilation, pads):
        # whole items, or rows of one item: a view of ``out`` either way
        dst = out[items, :, rs].reshape(len(cols), CO, -1)
        np.matmul(w2, cols.reshape(len(cols), w2.shape[1], -1), out=dst)
        if bias is not None:
            dst += bias[:, None]
    return out


def _conv(x: Tensor, weight: Tensor, bias: Tensor | None, dilation: int, relu: bool = False):
    """Extent-keeping stride-1 cross-correlation of [N, C, *spatial] with [C_out, C, *kernel].

    The one core behind conv2d and conv3d, then a ReLU if ``relu``; forward
    and backward share the im2col blocks of ``_columns``, padded by
    ``_margins``.  The ReLU runs in place on the fresh output, as
    np.where(out > 0, out, 0.0) would: fmax maps NaN to 0, and adding +0.0
    maps -0 to +0.  Backward masks g with out > 0, so the tape keeps neither
    the pre-activation nor a mask.  Backward takes one walk over the columns
    of g under the mirrored margins.  The input gradient is the transpose of
    the convolution: the kernel, flipped and with its channel axes swapped,
    times those columns.  The weight gradient sums cols @ x^T over the same
    blocks, the flipped kernel gradient as [C_out*K, C].  When x takes no
    gradient, it instead sums g @ cols^T over the forward's blocks of x's
    columns, already [C_out, C*K]: C*K column rows where g's have C_out*K.
    """
    _, C, *spatial = x.shape
    CO, CI, *kernel = weight.shape
    if C != CI:
        raise ShapeError(f"convolution channel mismatch: input {C}, kernel {CI}")
    if bias is not None and bias.shape != (CO,):
        raise ShapeError(f"convolution bias must be [{CO}], got {bias.shape}")
    if not all(spatial):
        raise ShapeError(f"convolution of input {x.shape} with kernel {tuple(kernel)} is empty")

    dtype = x.data.dtype
    pads = _margins(kernel, dilation)
    b = None if bias is None else bias.data.astype(dtype, copy=False)
    out = _correlate(x.data, weight.data.astype(dtype, copy=False), b, dilation, pads)
    if relu:
        np.fmax(out, 0.0, out=out)  # NaN -> 0
        out += 0.0  # -0 -> +0
    parents = (x, weight) if bias is None else (x, weight, bias)
    nx, nw, nb = x._node, weight._node, None if bias is None else bias._node
    xd, wd, kept = x.data, weight.data, out if relu else None

    # the closure holds the inputs' tape entries, x's and the weight's data,
    # and the output only when it recovers the ReLU mask from it
    def backward(g):
        if relu:
            g *= kept > 0  # g is this entry's own gradient buffer (see tensor._accum)
        if nb is not None:
            _accum(nb, g.sum(axis=(0,) + tuple(range(2, g.ndim))), fresh=True)
        if nx is None:
            if nw is not None:
                CK = C * math.prod(kernel)
                dw = np.zeros((CO, CK))
                for items, rs, cols in _columns(xd, kernel, dilation, pads):
                    gb = g[items, :, rs].reshape(len(cols), CO, -1)
                    cols = cols.reshape(len(cols), CK, -1)
                    dw += np.matmul(gb, cols.transpose(0, 2, 1)).sum(axis=0)
                _accum(nw, dw.reshape(wd.shape), fresh=True)
            return
        taps = tuple(range(2, 2 + len(kernel)))
        # [C, CO*K]: the flipped kernel with its channel axes swapped
        wt = np.flip(wd, taps).swapaxes(0, 1).reshape(C, -1)
        dx = np.empty(xd.shape)
        dw = np.zeros(wt.shape[::-1]) if nw is not None else None
        for items, rs, cols in _columns(g, kernel, dilation, tuple(p[::-1] for p in pads)):
            cols = cols.reshape(len(cols), wt.shape[1], -1)
            np.matmul(wt, cols, out=dx[items, :, rs].reshape(len(cols), C, -1))
            if dw is not None:
                xb = xd[items, :, rs].reshape(len(cols), C, -1)
                dw += np.matmul(cols, xb.transpose(0, 2, 1)).sum(axis=0)
        if dw is not None:
            # [CO*K, C] -> [CO, C, *kernel], taps flipped back
            dw = np.moveaxis(dw.reshape((CO, *kernel, C)), -1, 1)
            _accum(nw, np.flip(dw, taps))
        _accum(nx, dx, fresh=True)

    return _track(out, parents, backward)


def _check_step(name: str, value, error: type[Exception] = ShapeError) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1,
           dilation: int = 1, padding: str = "same", relu: bool = False) -> Tensor:
    """2-D cross-correlation over [S, C, H, W], applied per slice, then ReLU if ``relu``.

    ``weight`` is [C_out, C_in, kh, kw]; zero padding keeps H, W under
    'same' padding with stride 1.  ``stride`` and ``dilation`` are integers
    >= 1.  The result is a narrow of the extent-keeping one: every
    stride-th row and column, from the first whole window under 'valid'.
    """
    x = as_tensor(x)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(
            f"conv2d expects [S, C, H, W] and a 4-D kernel, got {x.shape} and {weight.shape}"
        )
    _check_step("stride", stride)
    _check_step("dilation", dilation)
    kernel = weight.shape[2:]
    _check_padding(padding, kernel)
    keep = (slice(None, None, stride),) * 2
    if padding == "valid":
        pads = _margins(kernel, dilation)
        if any(n <= lo + hi for n, (lo, hi) in zip(x.shape[2:], pads)):
            raise ShapeError(f"convolution of input {x.shape} with kernel {tuple(kernel)} is empty")
        keep = tuple(slice(lo, n - hi, stride) for n, (lo, hi) in zip(x.shape[2:], pads))
    out = _conv(x, weight, bias, dilation, relu)
    return out if padding == "same" and stride == 1 else out[(slice(None),) * 2 + keep]


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
    _check_padding("same", weight.shape[2:])
    return _conv(x, weight, bias, 1)


def fc(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: [*, K] -> [*, L] with weight [K, L]."""
    x = as_tensor(x)
    if weight.ndim != 2 or x.ndim < 1 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"fc expects [*, K] and a [K, L] weight, got {x.shape} and {weight.shape}")
    lead = x.shape[:-1]
    out = matmul(reshape(x, (math.prod(lead), x.shape[-1])), weight)
    if bias is not None:
        out = out + bias
    return reshape(out, lead + weight.shape[1:])


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
    if x.ndim != 4:
        raise ShapeError(f"max_pool2 expects [S, C, H, W], got {x.shape}")
    S, C, H, W = x.shape
    if H % 2 or W % 2:
        raise ShapeError(f"max_pool2 needs even spatial extents, got {H}x{W}")
    offsets = [(i, j) for i in (0, 1) for j in (0, 1)]
    views = [x.data[:, :, i::2, j::2] for i, j in offsets]
    out = np.maximum(np.maximum(views[3], views[2]), np.maximum(views[1], views[0]))
    nx = x._node

    def backward(g):
        dx = np.zeros((S, C, H, W))
        free = np.ones(out.shape, dtype=bool)
        for (i, j), v in zip(offsets, views):
            hit = free & (v == out)
            np.copyto(dx[:, :, i::2, j::2], g, where=hit)
            free &= ~hit
        _accum(nx, dx, fresh=True)

    return _track(out, (x,), backward)


def _bilinear_matrix(n_in: int, factor: int) -> np.ndarray:
    """[n_in * factor, n_in]: row i interpolates output position i from the input.

    Align-corners-false source coordinates, clamped at the low edge; at the
    high edge both taps fall on the last input, so their weights sum to 1.
    """
    dst = np.arange(n_in * factor)
    src = np.maximum((dst + 0.5) / factor - 0.5, 0.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    m = np.zeros((n_in * factor, n_in))
    m[dst, i0] = 1 - frac
    m[dst, np.minimum(i0 + 1, n_in - 1)] += frac
    return m


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling of [S, C, H, W] by an integer factor (align-corners false)."""
    _check_step("upsample factor", factor, UsageError)
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"upsample_bilinear expects [S, C, H, W], got {x.shape}")
    if factor == 1:
        return x
    H, W = x.shape[2:]
    return matmul(matmul(_bilinear_matrix(H, factor), x), _bilinear_matrix(W, factor).T)


# -- parameterized layers -----------------------------------------------------


def kaiming_normal(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    """He-normal init values of ``shape``, the one place a layer draws them.

    With ``rng`` None it draws nothing and allocates nothing: it returns a
    read-only zero view of ``shape`` (``np.broadcast_to`` of one scalar).  A
    model built that way has every parameter path and shape for values that
    ``ModuleParams.load_state`` puts in place next; it never fills a buffer
    that the load throws away.  A placeholder that is never loaded stays
    read-only, so writing to it (an optimizer step, say) raises.
    """
    if rng is None:
        return np.broadcast_to(np.float64(0.0), shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Zero init values of ``shape`` (biases); with ``rng`` None the read-only
    placeholder of ``kaiming_normal``.  Draws nothing either way."""
    return kaiming_normal(None, shape, 1) if rng is None else np.zeros(shape)


class Conv2d:
    """Stride-1 'same' k x k convolution, weight and bias under ``params.child(name)``.

    With ``relu`` set, every call applies the ReLU fused into the convolution.
    """

    def __init__(self, params: ModuleParams, name: str, in_channels: int, out_channels: int,
                 kernel: int, rng: np.random.Generator, dilation: int = 1, relu: bool = False):
        _check_step("dilation", dilation)
        _check_padding("same", (kernel, kernel))
        scope = params.child(name)
        self.weight = scope.add(
            "weight",
            kaiming_normal(rng, (out_channels, in_channels, kernel, kernel),
                           in_channels * kernel * kernel),
        )
        self.bias = scope.add("bias", zeros(rng, out_channels))
        self.dilation = dilation
        self.relu = relu

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, dilation=self.dilation, relu=self.relu)


class Linear:
    def __init__(self, params: ModuleParams, name: str, in_features: int, out_features: int, rng):
        scope = params.child(name)
        self.weight = scope.add("weight", kaiming_normal(rng, (in_features, out_features), in_features))
        self.bias = scope.add("bias", zeros(rng, out_features))

    def __call__(self, x: Tensor) -> Tensor:
        return fc(x, self.weight, self.bias)
