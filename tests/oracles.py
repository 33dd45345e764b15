"""Independent reference implementations used to check the package.

Everything in here is deliberately written the slow, obvious way (scalar
loops, dense windows, central differences) and never calls back into the
package's backward pass or fast paths.  If a test compares the library to
one of these and both agree, the agreement is meaningful.  The exceptions are
the previous bodies of rewritten functions, kept to pin a rewrite bit for bit;
each says in its docstring what it shares with the package.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lfdepth import ops
from lfdepth.errors import UsageError
from lfdepth.tensor import _accum, _track, as_tensor


def fd_gradients(loss_fn, tensors, step=1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. each tensor.

    ``loss_fn`` must recompute the forward pass from scratch using the
    tensors' current ``.data`` buffers; this function perturbs those raw
    buffers in place and restores them.
    """
    grads = []
    for t in tensors:
        flat = t.data.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = float(loss_fn())
            flat[i] = saved - step
            lo = float(loss_fn())
            flat[i] = saved
            g[i] = (hi - lo) / (2.0 * step)
        grads.append(g.reshape(t.data.shape))
    return grads


def fd_gradients_sampled(loss_fn, tensors, rng, per_tensor=4, step=1e-5):
    """Like fd_gradients but only at a few random entries per tensor.

    Returns a list of (flat_index, derivative) lists, one per tensor.
    """
    out = []
    for t in tensors:
        flat = t.data.ravel()
        n = min(per_tensor, flat.size)
        picks = rng.choice(flat.size, size=n, replace=False)
        rows = []
        for i in picks:
            saved = flat[i]
            flat[i] = saved + step
            hi = float(loss_fn())
            flat[i] = saved - step
            lo = float(loss_fn())
            flat[i] = saved
            rows.append((int(i), (hi - lo) / (2.0 * step)))
        out.append(rows)
    return out


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), floor)
    return float(np.max(np.abs(a - b)) / scale)


def conv2d_direct(x, w, b=None, stride=1, dilation=1, padding="same"):
    """Cross-correlation by quadruple loop over output pixels and taps."""
    S, C, H, W = x.shape
    CO, CI, kh, kw = w.shape
    assert C == CI
    if padding == "same":
        ph, pw = dilation * (kh - 1) // 2, dilation * (kw - 1) // 2
    else:
        ph = pw = 0
    oh = (H + 2 * ph - dilation * (kh - 1) - 1) // stride + 1
    ow = (W + 2 * pw - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((S, CO, oh, ow))
    for s in range(S):
        for co in range(CO):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(C):
                        for a in range(kh):
                            for bb in range(kw):
                                iy = oy * stride + a * dilation - ph
                                ix = ox * stride + bb * dilation - pw
                                if 0 <= iy < H and 0 <= ix < W:
                                    acc += x[s, ci, iy, ix] * w[co, ci, a, bb]
                    out[s, co, oy, ox] = acc + (0.0 if b is None else b[co])
    return out


def conv3d_direct(x, w, b=None, padding="same"):
    B, C, S, H, W = x.shape
    CO, CI, ks, kh, kw = w.shape
    assert C == CI
    if padding == "same":
        ps, ph, pw = (ks - 1) // 2, (kh - 1) // 2, (kw - 1) // 2
    else:
        ps = ph = pw = 0
    os_, oh, ow = S + 2 * ps - ks + 1, H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    out = np.zeros((B, CO, os_, oh, ow))
    for bt in range(B):
        for co in range(CO):
            for oz in range(os_):
                for oy in range(oh):
                    for ox in range(ow):
                        acc = 0.0
                        for ci in range(C):
                            for c in range(ks):
                                for a in range(kh):
                                    for bb in range(kw):
                                        iz, iy, ix = oz + c - ps, oy + a - ph, ox + bb - pw
                                        if 0 <= iz < S and 0 <= iy < H and 0 <= ix < W:
                                            acc += x[bt, ci, iz, iy, ix] * w[co, ci, c, a, bb]
                        out[bt, co, oz, oy, ox] = acc + (0.0 if b is None else b[co])
    return out


def cmfa_complement_3d(focal, w, b):
    """The CMFA focal->RGB complement the way the paper states it.

    ``focal`` [S, C, H, W] is turned into the [1, C, S, H, W] volume, passed
    through the 'same' 3-D convolution with ``w`` [C, C, ks, kh, kw] and
    ``b``, and averaged over the slice axis: [1, C, H, W].  ``Cmfa.enhance``
    computed it this way before it took the slice mean first.
    """
    volume = np.ascontiguousarray(focal.transpose(1, 0, 2, 3))[None]
    return conv3d_direct(volume, w, b).mean(axis=2)


def cmfa_relation_pairs(slices, f1, gamma, w, b):
    """The CMFA relation stage on the pair bundle, the way the paper states it.

    ``slices`` [N, C, H, W] and ``f1`` [1, C, H, W] form the bundle
    pairs_j = [f_j, F_f1] of [N, 2C, H, W]; in eval mode
    lambda = sigmoid(gap(pairs) @ w + b) and
    F_f2 = sum_j gamma_j lambda_j pairs_j / sum_j gamma_j lambda_j.
    Returns (lambda [N], F_f2 [1, 2C, H, W]).  ``Cmfa`` built this bundle
    before it pooled each half on its own.  The arithmetic repeats the
    package's pooling, affine map and clamped, sign-split sigmoid step for
    step, so lambda can be compared bit for bit.
    """
    n, _, h, w_ = slices.shape
    pairs = np.concatenate([slices, np.broadcast_to(f1, slices.shape)], axis=1)
    z = (pairs.sum(axis=(2, 3)) / float(h * w_) @ w + b).reshape(n)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    lam = np.clip(np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)),
                  np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    wts = gamma * lam
    f2 = (pairs * wts[:, None, None, None]).sum(axis=0, keepdims=True) / wts.sum()
    return lam, f2


def pad_reference(a, pads):
    """``a`` [N, C, *spatial] zero-padded by the (low, high) pairs of ``pads``."""
    padded = tuple(n + lo + hi for n, (lo, hi) in zip(a.shape[2:], pads))
    out = np.zeros(a.shape[:2] + padded, a.dtype)
    out[(slice(None),) * 2 + tuple(slice(lo, lo + n) for n, (lo, _) in zip(a.shape[2:], pads))] = a
    return out


def columns_reference(x, kernel, dilation, pads):
    """The blocks of ``ops._columns``, each copied out of a sliding window over the padded input.

    This was ``ops._columns`` before it copied contiguous runs of a flat copy,
    and it shares none of that code: it pads ``x`` by ``pads`` and copies each
    block row by row from a window view, into a C-contiguous array.  Only the
    block plan is the package's, as it reads ``ops._BLOCK_BYTES``, so the new
    walk must yield the same (items, rows) and the same bytes.
    """
    xp = pad_reference(x, pads)
    N, C = xp.shape[:2]
    D = len(kernel)
    CK = C * math.prod(kernel)
    win = sliding_window_view(
        xp, tuple(dilation * (k - 1) + 1 for k in kernel), tuple(range(2, 2 + D))
    )[(Ellipsis,) + (slice(None, None, dilation),) * D]
    out_sp = win.shape[2 : 2 + D]
    win = win.transpose((0, 1) + tuple(range(2 + D, 2 + 2 * D)) + tuple(range(2, 2 + D)))
    rows, row_len = out_sp[0], math.prod(out_sp[1:])
    block_rows = max(1, ops._BLOCK_BYTES // (xp.itemsize * CK * row_len))
    per = max(1, min(N, block_rows // rows))
    block_rows = min(block_rows, rows)
    for n in range(0, N, per):
        for r in range(0, rows, block_rows):
            items, rs = slice(n, n + per), slice(r, r + block_rows)
            yield items, rs, np.ascontiguousarray(win[(items,) + (slice(None),) * (1 + D) + (rs,)])


def correlate_reference(x, w, dilation, pads):
    """Cross-correlation of ``x`` padded by ``pads`` with ``w``: one GEMM per item of each
    block of ``columns_reference``, as ``ops._correlate`` computes it."""
    CO, _, *kernel = w.shape
    w2 = w.reshape(CO, -1)
    out_sp = tuple(n + lo + hi - dilation * (k - 1)
                   for n, (lo, hi), k in zip(x.shape[2:], pads, kernel))
    out = np.empty((x.shape[0], CO) + out_sp, x.dtype)
    for items, rs, cols in columns_reference(x, kernel, dilation, pads):
        dst = out[items, :, rs].reshape(len(cols), CO, -1)
        np.matmul(w2, cols.reshape(len(cols), w2.shape[1], -1), out=dst)
    return out


def conv_backward_two_walks(x, w, g, dilation, pads):
    """Input and weight gradients of a convolution of ``x`` padded by ``pads``, for output ``g``.

    ``ops._conv`` had this backward before it took both gradients from one
    walk.  The weight gradient walks the columns of the padded input and sums
    g @ cols^T; the input gradient correlates g, padded by dilation*(k-1)
    less each pad, with the flipped, channel-swapped kernel.  It runs on
    ``columns_reference``, so the package's input gradient must agree bit for
    bit and its weight gradient up to summation order.  Returns (dx, dw).
    """
    C = x.shape[1]
    CO, _, *kernel = w.shape
    CK = C * math.prod(kernel)
    dw = np.zeros((CO, CK))
    for items, rs, cols in columns_reference(x, kernel, dilation, pads):
        gb = g[items, :, rs].reshape(len(cols), CO, -1)
        dw += np.matmul(gb, cols.reshape(len(cols), CK, -1).transpose(0, 2, 1)).sum(axis=0)

    reach = (dilation * (k - 1) for k in kernel)
    back = tuple((r - lo, r - hi) for r, (lo, hi) in zip(reach, pads))
    flipped = np.flip(w, tuple(range(2, 2 + len(kernel)))).swapaxes(0, 1)
    dx = correlate_reference(g, flipped, dilation, back)
    return dx, dw.reshape(w.shape)


def backward_keep_all(loss):
    """``Tensor.backward`` as it was before it freed the tape while walking it.

    The same postorder over tape entries and the same per-entry steps, but
    the walk runs over ``reversed(topo)`` and keeps every closure it has run
    until the last entry has run, so the list and the closures keep every
    array the tape holds to the end.  It calls the package's backward
    closures, so gradients must agree with ``loss.backward()`` bit for bit.
    """
    root = loss._node
    topo = []
    visited = {root}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p not in visited:
                visited.add(p)
                stack.append((p, iter(p._parents)))
                break
        else:
            topo.append(node)
            stack.pop()
    root.grad = np.ones(root.shape)
    ran = []
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
        if node._parents:
            ran.append(node._backward_fn)  # held, with the arrays it keeps, to the end
            node.grad = None
            node._parents = ()
            node._backward_fn = None


def relu(x):
    """The unfused ReLU tape op: np.where(x > 0, x, 0.0), backward g * (x > 0).

    The model applied this after each convolution before the ReLU was fused
    into ``ops.conv2d``; composed with an unfused ``conv2d`` it must agree
    with ``conv2d(..., relu=True)`` bit for bit.  It records on the package's
    tape (``_track``) and copies its gradient in through ``_accum``.
    """
    x = as_tensor(x)
    mask, nx = x.data > 0, x._node

    def backward(g):
        _accum(nx, g * mask)

    return _track(np.where(mask, x.data, 0.0), (x,), backward)


def max_pool2_argmax(x, g):
    """2x2 stride-2 max pooling of ``x`` [S, C, H, W] and its input gradient for ``g``.

    An argmax over a transposed copy of the windows: ties go to the first
    maximum in scan order.  ``ops.max_pool2`` had this body before it moved
    to pairwise maxima of strided views; it must still agree bit for bit.
    """
    S, C, H, W = x.shape
    oh, ow = H // 2, W // 2
    windows = x.reshape(S, C, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5).reshape(S, C, oh, ow, 4)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    buf = np.zeros((S, C, oh, ow, 4))
    np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
    dx = buf.reshape(S, C, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(S, C, H, W)
    return out, dx


def bilinear_direct(x, factor):
    """Per-pixel bilinear upsampling, align-corners false, low edge clamped."""
    S, C, H, W = x.shape
    out = np.zeros((S, C, H * factor, W * factor))

    def locate(o, n):
        src = (o + 0.5) / factor - 0.5
        if src < 0.0:
            src = 0.0
        lo = int(math.floor(src))
        lam = src - lo
        hi = min(lo + 1, n - 1)
        return lo, hi, lam

    for oy in range(H * factor):
        i0, i1, ly = locate(oy, H)
        for ox in range(W * factor):
            j0, j1, lx = locate(ox, W)
            out[:, :, oy, ox] = (
                (1 - ly) * (1 - lx) * x[:, :, i0, j0]
                + (1 - ly) * lx * x[:, :, i0, j1]
                + ly * (1 - lx) * x[:, :, i1, j0]
                + ly * lx * x[:, :, i1, j1]
            )
    return out


def gaussian_blur_dense(img, sigma):
    """Spatially varying Gaussian blur, one dense window per pixel.

    ``img`` is [H, W] or [C, H, W]; ``sigma`` is [H, W].  A pixel with
    sigma == 0 is copied through.  Window radius is ceil(3*sigma); weights
    are renormalized over the taps that fall inside the image.
    """
    single = img.ndim == 2
    if single:
        img = img[None]
    C, H, W = img.shape
    out = np.zeros_like(img)
    for y in range(H):
        for x in range(W):
            s = sigma[y, x]
            if s <= 0.0:
                out[:, y, x] = img[:, y, x]
                continue
            r = int(math.ceil(3.0 * s))
            acc = np.zeros(C)
            wsum = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < H and 0 <= xx < W:
                        wgt = math.exp(-(dx * dx + dy * dy) / (2.0 * s * s))
                        acc += wgt * img[:, yy, xx]
                        wsum += wgt
            out[:, y, x] = acc / wsum
    return out[0] if single else out


def defocus_blur_gather(img, sigma):
    """Full-image tap loop: every window offset gathers the whole image.

    The renderer ``synthdata.defocus_blur`` had this body before it moved to
    clipped slice gathers; it must still agree bit for bit.
    """
    c, h, w = img.shape
    if sigma.shape != (h, w):
        raise UsageError(f"sigma {sigma.shape} does not match image {img.shape}")
    if np.any(sigma < 0):
        raise UsageError("sigma must be non-negative")
    active = sigma > 0.0
    if not np.any(active):
        return img.copy()

    radius = np.zeros((h, w), dtype=np.int64)
    radius[active] = np.ceil(3.0 * sigma[active]).astype(np.int64)
    rmax = int(radius.max())

    inv_two_s2 = np.zeros((h, w))
    inv_two_s2[active] = 1.0 / (2.0 * sigma[active] ** 2)

    num = np.zeros((c, h, w))
    den = np.zeros((h, w))
    ys, xs = np.mgrid[0:h, 0:w]
    for dy in range(-rmax, rmax + 1):
        for dx in range(-rmax, rmax + 1):
            inside = (np.abs(dy) <= radius) & (np.abs(dx) <= radius)
            sy, sx = ys + dy, xs + dx
            inside &= (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
            if not np.any(inside):
                continue
            wgt = np.where(
                inside, np.exp(-(dy * dy + dx * dx) * inv_two_s2), 0.0
            )
            syc, sxc = np.clip(sy, 0, h - 1), np.clip(sx, 0, w - 1)
            num += wgt[None] * img[:, syc, sxc]
            den += wgt

    out = img.copy()
    out[:, active] = num[:, active] / den[active]
    return out


def moving_average(values, window: int = 5) -> list[float]:
    if window < 1 or len(values) < window:
        return []
    return [
        float(np.mean(values[i : i + window]))
        for i in range(len(values) - window + 1)
    ]


def is_monotone_decreasing(values, tolerance: float = 0.0) -> bool:
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def corrupted(blob: bytes):
    """Hypothesis strategy: ``blob`` with up to four bits flipped, then cut short."""
    from hypothesis import strategies as st

    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)), max_size=4)

    def apply(args):
        flipped, cut = args
        out = bytearray(blob)
        for i, bit in flipped:
            out[i] ^= 1 << bit
        return bytes(out[:cut])

    return st.tuples(flips, st.integers(0, len(blob))).map(apply)
