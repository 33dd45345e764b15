"""Independent reference implementations used to check the package.

Everything in here is deliberately written the slow, obvious way (scalar
loops, dense windows, central differences) and never calls back into the
package's backward pass or fast paths.  If a test compares the library to
one of these and both agree, the agreement is meaningful.
"""

import math

import numpy as np

from lfdepth.errors import UsageError


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
