"""Synthetic focal-stack scenes rendered with a thin-lens defocus model.

A scene is a registered triple: an all-in-focus RGB image, S refocused
slices, and a ground-truth depth map normalized to [0,1].  Each slice s is
the RGB image blurred pixel-by-pixel with a Gaussian whose width grows with
the distance between the pixel's depth and the slice's focus depth:

    sigma(x) = k * |depth(x) - d_s|

using a square window of per-pixel radius ceil(3*sigma), renormalized over
the taps that land inside the image.  Pixels exactly in focus copy through
untouched.  Focus depths sit at the midpoints of S equal depth bins.

The renderer visits each window offset (tap) once.  It stores the image flat
with zero columns after each row, so a tap over a run of rows reads one
contiguous range, and it computes one weight map per (|dy|, |dx|) pair for
the eight taps that share it; see ``defocus_blur``.

On disk a scene is a directory: rgb.ppm (P6), focal_00.ppm .. focal_{S-1}.ppm,
depth.pgm (P5, 16-bit big-endian, round(depth*65535)), and meta.json.  A
dataset is a directory of such scene folders plus manifest.json naming the
train/test split.  read_scene raises FormatError, naming the file, when a
focal slice or the depth map differs in size from rgb.ppm.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FormatError, UsageError
from .jsonio import read_fields, read_json
from .pnm import read_pgm16, read_ppm, write_pgm16, write_ppm

DEPTH_STYLES = ("planes", "slanted", "blobs")
TEXTURE_STYLES = ("checker", "noise", "stripes")
TRAIN_FRACTION = 0.8            # share of a generated dataset in the train split


@dataclass(frozen=True)
class GenSpec:
    height: int = 64
    width: int = 64
    slices: int = 12
    blur_gain: float = 4.0      # sigma in pixels per unit depth offset
    depth_style: str = "planes"
    texture_style: str = "checker"
    seed: int = 0

    def __post_init__(self):
        if self.height % 16 or self.width % 16:
            raise ConfigError(f"scene size must be divisible by 16, got {self.height}x{self.width}")
        if self.slices < 2:
            raise ConfigError(f"need at least 2 slices, got {self.slices}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.blur_gain) and self.blur_gain >= 0):
            raise ConfigError(f"blur gain must be finite and >= 0, got {self.blur_gain}")
        if self.depth_style not in DEPTH_STYLES:
            raise ConfigError(f"depth style must be one of {DEPTH_STYLES}, got {self.depth_style!r}")
        if self.texture_style not in TEXTURE_STYLES:
            raise ConfigError(
                f"texture style must be one of {TEXTURE_STYLES}, got {self.texture_style!r}"
            )


@dataclass
class Scene:
    rgb: np.ndarray            # [3,H,W] float64 in [0,1]
    focal: np.ndarray          # [S,3,H,W]
    depth: np.ndarray          # [1,H,W] in [0,1]
    focus_depths: np.ndarray   # [S], strictly increasing in (0,1)


def focus_depths(slices: int) -> np.ndarray:
    """Midpoints of ``slices`` equal depth bins."""
    return (np.arange(slices) + 0.5) / slices


# -- field synthesis ---------------------------------------------------------


def _depth_field(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    if spec.depth_style == "planes":
        depth = np.full((h, w), float(rng.uniform(0.15, 0.85)))
        for _ in range(int(rng.integers(2, 5))):
            y0, x0 = int(rng.integers(0, h - 4)), int(rng.integers(0, w - 4))
            y1 = int(rng.integers(y0 + 4, h + 1))
            x1 = int(rng.integers(x0 + 4, w + 1))
            depth[y0:y1, x0:x1] = rng.uniform(0.1, 0.9)
        return depth
    if spec.depth_style == "slanted":
        yy, xx = np.mgrid[0:h, 0:w]
        gx, gy = rng.uniform(-1, 1, 2)
        ramp = gx * xx / w + gy * yy / h
        lo, hi = ramp.min(), ramp.max()
        span = hi - lo if hi > lo else 1.0
        return 0.1 + 0.8 * (ramp - lo) / span
    # blobs
    yy, xx = np.mgrid[0:h, 0:w]
    depth = np.full((h, w), float(rng.uniform(0.3, 0.7)))
    for _ in range(int(rng.integers(3, 7))):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        radius = rng.uniform(0.1, 0.3) * min(h, w)
        bump = rng.uniform(-0.4, 0.4) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2)
        )
        depth += bump
    return np.clip(depth, 0.05, 0.95)


def _texture(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    if spec.texture_style == "checker":
        cell = int(rng.integers(4, 9))
        yy, xx = np.mgrid[0:h, 0:w]
        parity = ((yy // cell) + (xx // cell)) % 2
        c0, c1 = rng.uniform(0.1, 0.9, (2, 3))
        img = np.where(parity[None], c1[:, None, None], c0[:, None, None])
        img = img + rng.normal(0, 0.02, (3, h, w))
        return np.clip(img, 0.0, 1.0)
    if spec.texture_style == "noise":
        coarse = rng.uniform(0.1, 0.9, (3, max(2, h // 8), max(2, w // 8)))
        img = np.stack([_upsample_nn_smooth(c, h, w) for c in coarse])
        return np.clip(img, 0.0, 1.0)
    # stripes
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.zeros((3, h, w))
    for c in range(3):
        theta = rng.uniform(0, np.pi)
        freq = rng.uniform(2, 8) * 2 * np.pi / max(h, w)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
        img[c] = 0.5 + 0.4 * wave
    return np.clip(img, 0.0, 1.0)


def _upsample_nn_smooth(coarse: np.ndarray, h: int, w: int) -> np.ndarray:
    """Nearest-neighbor upsample followed by a small box smoothing."""
    ch, cw = coarse.shape
    ys = np.minimum((np.arange(h) * ch) // h, ch - 1)
    xs = np.minimum((np.arange(w) * cw) // w, cw - 1)
    img = coarse[ys[:, None], xs[None, :]]
    padded = np.pad(img, 1, mode="edge")
    return (
        padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
        + padded[1:-1, :-2] + padded[1:-1, 1:-1] + padded[1:-1, 2:]
        + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
    ) / 9.0


# -- defocus rendering ---------------------------------------------------------


# Upper bound on the bytes of the tap weight maps defocus_blur holds at once.
_BAND_BYTES = 4 << 20


def defocus_blur(img: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Spatially varying Gaussian gather over square per-pixel windows.

    ``img`` is a finite [C,H,W]; ``sigma`` is [H,W] of finite, non-negative
    widths.  Window radius is ceil(3*sigma) per pixel; weights renormalize
    over in-bounds taps; sigma == 0 pixels copy through exactly.

    Layout: with R the largest radius, the image and a ones channel (which
    sums the weights) are stored flat, each row followed by R zero columns
    that also serve as the zeros before the next row, with R more zeros in
    front.  Rows are W + R long, so tap (dy, dx) over output rows [y0, y1)
    reads one contiguous range, (y0 + dy) * (W + R) + dx past the leading
    zeros, for one multiply and one add; the R extra columns of each output
    row are dropped.  A tap covers only the rows that its ring
    max(|dy|, |dx|) reaches and whose source row is in the image, and is
    skipped when no column that its ring reaches has a source column inside.

    Exactness: pixels with a smaller window get weight 0 and taps that fall
    outside the image read zeros, so every term this skips or adds beyond a
    full-image gather is a +-0.0 product, which leaves a sum unchanged.
    Taps accumulate in one fixed (dy, dx) order at every pixel, so the result
    equals that gather bit for bit.

    Weights: the map of tap (dy, dx) depends only on {|dy|, |dx|}, so one
    exp serves the eight offsets (+-a, +-b) and (+-b, +-a).  Rows are
    rendered in bands whose maps fit in ``_BAND_BYTES`` (a default 64x64
    scene is one band); each pixel keeps its tap order.  A map that would
    overflow the budget even in a one-row band is recomputed at each use.
    Radii are capped at the image size, beyond which no tap lands inside.
    """
    if img.ndim != 3:
        raise UsageError(f"image must be [C,H,W], got shape {img.shape}")
    c, h, w = img.shape
    if sigma.shape != (h, w):
        raise UsageError(f"sigma {sigma.shape} does not match image {img.shape}")
    if not (np.all(np.isfinite(img)) and np.all(np.isfinite(sigma))):
        raise UsageError("image and sigma must be finite")
    if np.any(sigma < 0):
        raise UsageError("sigma must be non-negative")
    active = sigma > 0.0
    if not np.any(active):
        return img.copy()

    radius = np.zeros((h, w), dtype=np.int64)
    radius[active] = np.ceil(np.minimum(3.0 * sigma[active], max(h, w))).astype(np.int64)
    rmax = int(radius.max())

    # sigma is clipped so that sigma**2 neither underflows to 0 (the centre
    # tap would be exp(-0 * inf) = nan) nor overflows.  The weights do not
    # change: below 1e-150 all but the centre tap still get exp(-huge) = 0,
    # above 1e150 every tap still gets exp(-tiny) = 1.
    inv_two_s2 = np.zeros((h, w))
    inv_two_s2[active] = 1.0 / (2.0 * np.clip(sigma[active], 1e-150, 1e150) ** 2)

    ring_rows = _reach_spans(radius.max(axis=1), rmax)
    ring_cols = _reach_spans(radius.max(axis=0), rmax)

    # Both on padded rows, where the pad columns get radius 0.
    wp = w + rmax
    radius = np.pad(radius, ((0, 0), (0, rmax)))
    inv_two_s2 = np.pad(inv_two_s2, ((0, 0), (0, rmax)))

    src = np.zeros((c + 1, rmax + h * wp + rmax))
    grid = src[:, rmax : rmax + h * wp].reshape(c + 1, h, wp)
    grid[:c, :, :w] = img
    grid[c, :, :w] = 1.0
    acc = np.zeros((c + 1, h * wp))

    pairs = (rmax + 1) * (rmax + 2) // 2
    band = min(h, max(1, _BAND_BYTES // (pairs * wp * 8)))
    tmp = np.empty((c + 1, band * wp))
    for b0 in range(0, h, band):
        b1 = min(b0 + band, h)
        band_rows = [(max(r0, b0), min(r1, b1)) for r0, r1 in ring_rows]
        # A ring-r tap's weight is exp(-(dy^2 + dx^2) * inv), where inv is
        # 1/(2 sigma^2) at pixels whose radius reaches r and inf elsewhere,
        # so that exp(-inf) gives them weight 0.
        ring_inv = [
            np.where(radius[r0:r1] >= ring, inv_two_s2[r0:r1], np.inf)
            for ring, (r0, r1) in enumerate(band_rows)
        ]
        weights, held = {}, 0
        for dy in range(-rmax, rmax + 1):
            for dx in range(-rmax, rmax + 1):
                ring = max(abs(dy), abs(dx))
                ry0, ry1 = band_rows[ring]
                y0, y1 = max(ry0, -dy), min(ry1, h - dy)
                cx0, cx1 = ring_cols[ring]
                if y0 >= y1 or max(cx0, -dx) >= min(cx1, w - dx):
                    continue
                key = (ring, min(abs(dy), abs(dx)))
                wgt = weights.get(key)
                if wgt is None:
                    wgt = np.exp(-(dy * dy + dx * dx) * ring_inv[ring].ravel())
                    if held + wgt.nbytes <= _BAND_BYTES:
                        weights[key] = wgt
                        held += wgt.nbytes
                n = (y1 - y0) * wp
                at = (y0 - ry0) * wp
                s0 = rmax + (y0 + dy) * wp + dx
                np.multiply(wgt[at : at + n], src[:, s0 : s0 + n], out=tmp[:, :n])
                acc[:, y0 * wp : y1 * wp] += tmp[:, :n]

    acc = acc.reshape(c + 1, h, wp)[:, :, :w]
    out = img.copy()
    np.divide(acc[:c], acc[c], out=out, where=active)
    return out


def _reach_spans(reach: np.ndarray, rmax: int) -> list[tuple[int, int]]:
    """[start, stop) of the indices i with reach[i] >= r, for r = 0..rmax."""
    hit = reach >= np.arange(rmax + 1)[:, None]
    start = hit.argmax(axis=1)
    stop = len(reach) - hit[:, ::-1].argmax(axis=1)
    return list(zip(start.tolist(), stop.tolist()))


def generate_scene(spec: GenSpec) -> Scene:
    rng = np.random.default_rng(spec.seed)
    depth = _depth_field(spec, rng)
    rgb = _texture(spec, rng)
    ds = focus_depths(spec.slices)
    focal = np.empty((spec.slices, 3, spec.height, spec.width))
    for s, d in enumerate(ds):
        focal[s] = defocus_blur(rgb, spec.blur_gain * np.abs(depth - d))
    return Scene(rgb=rgb, focal=focal, depth=depth[None], focus_depths=ds)


# -- augmentation -----------------------------------------------------------------


@dataclass(frozen=True)
class AugmentPolicy:
    flip_chance: float = 0.5
    max_rotation_deg: float = 5.0
    color_low: float = 0.6
    color_high: float = 1.4


def _rotate_bilinear(img: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate [*,H,W] about the center, bilinear sampling, reflect padding."""
    *lead, h, w = img.shape
    theta = math.radians(degrees)
    cos, sin = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    # inverse map: output pixel pulls from rotated source coordinates
    sy = cy + (yy - cy) * cos - (xx - cx) * sin
    sx = cx + (yy - cy) * sin + (xx - cx) * cos

    def reflect(v, n):
        # reflect without repeating the border sample (period 2n-2)
        v = np.abs(v)
        period = 2 * n - 2 if n > 1 else 1
        v = v % period
        return np.where(v >= n, period - v, v)

    y0 = np.floor(sy)
    x0 = np.floor(sx)
    fy, fx = sy - y0, sx - x0
    flat = img.reshape(-1, h, w)
    out = np.empty_like(flat)
    corners = [
        (y0, x0, (1 - fy) * (1 - fx)),
        (y0, x0 + 1, (1 - fy) * fx),
        (y0 + 1, x0, fy * (1 - fx)),
        (y0 + 1, x0 + 1, fy * fx),
    ]
    acc = np.zeros((flat.shape[0], h, w))
    for cyi, cxi, wgt in corners:
        iy = reflect(cyi, h).astype(np.int64)
        ix = reflect(cxi, w).astype(np.int64)
        acc += wgt[None] * flat[:, iy, ix]
    out[:] = acc
    return out.reshape(*lead, h, w)


def _grayscale(img: np.ndarray) -> np.ndarray:
    """Luminance of [...,3,H,W], keeping the channel axis."""
    r, g, b = img[..., 0, :, :], img[..., 1, :, :], img[..., 2, :, :]
    lum = 0.299 * r + 0.587 * g + 0.114 * b
    return np.repeat(lum[..., None, :, :], 3, axis=-3)


def _color_jitter(img: np.ndarray, brightness: float, contrast: float,
                  saturation: float) -> np.ndarray:
    out = img * brightness
    # contrast pulls toward each image's own mean luminance
    mean = _grayscale(out).mean(axis=(-3, -2, -1), keepdims=True)
    out = mean + contrast * (out - mean)
    gray = _grayscale(out)
    out = gray + saturation * (out - gray)
    return np.clip(out, 0.0, 1.0)


def augment(scene: Scene, rng: np.random.Generator,
            policy: AugmentPolicy = AugmentPolicy()) -> Scene:
    """Jointly flip/rotate all maps; color-jitter the images but not depth."""
    rgb, focal, depth = scene.rgb, scene.focal, scene.depth
    if rng.random() < policy.flip_chance:
        rgb = rgb[:, :, ::-1]
        focal = focal[:, :, :, ::-1]
        depth = depth[:, :, ::-1]
    degrees = float(rng.uniform(-policy.max_rotation_deg, policy.max_rotation_deg))
    if degrees != 0.0:
        rgb = _rotate_bilinear(rgb, degrees)
        focal = _rotate_bilinear(focal, degrees)
        depth = _rotate_bilinear(depth, degrees)
        depth = np.clip(depth, 0.0, 1.0)
    b, c, s = rng.uniform(policy.color_low, policy.color_high, 3)
    rgb = _color_jitter(np.ascontiguousarray(rgb), b, c, s)
    focal = _color_jitter(np.ascontiguousarray(focal), b, c, s)
    return Scene(
        rgb=rgb,
        focal=focal,
        depth=np.ascontiguousarray(depth),
        focus_depths=scene.focus_depths.copy(),
    )


# -- on-disk format ---------------------------------------------------------------


def write_scene(scene: Scene, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_ppm(os.path.join(dirpath, "rgb.ppm"), _to_u8(scene.rgb))
    for s in range(scene.focal.shape[0]):
        write_ppm(os.path.join(dirpath, f"focal_{s:02d}.ppm"), _to_u8(scene.focal[s]))
    write_pgm16(
        os.path.join(dirpath, "depth.pgm"),
        np.round(scene.depth[0] * 65535.0).astype(np.uint16),
    )
    meta = {
        "slices": int(scene.focal.shape[0]),
        "focus_depths": [float(d) for d in scene.focus_depths],
    }
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)


def read_scene(dirpath) -> Scene:
    meta_path = os.path.join(dirpath, "meta.json")
    meta = read_json(meta_path)
    try:
        meta = read_fields(meta, {"slices": int, "focus_depths": tuple[float, ...]}, {})
    except FormatError as err:
        raise FormatError(f"{meta_path}: {err}") from None
    slices = meta["slices"]
    ds = np.asarray(meta["focus_depths"], dtype=np.float64)
    if len(ds) != slices or np.any(np.diff(ds) <= 0):
        raise FormatError(f"{meta_path}: focus depths must be strictly increasing, one per slice")

    rgb = read_ppm(os.path.join(dirpath, "rgb.ppm")).astype(np.float64) / 255.0
    focal = np.empty((slices, *rgb.shape))
    for s in range(slices):
        path = os.path.join(dirpath, f"focal_{s:02d}.ppm")
        focal[s] = _same_size(read_ppm(path), rgb, path).astype(np.float64) / 255.0
    path = os.path.join(dirpath, "depth.pgm")
    depth = _same_size(read_pgm16(path), rgb, path).astype(np.float64) / 65535.0
    return Scene(rgb=rgb, focal=focal, depth=depth[None], focus_depths=ds)


def _same_size(img: np.ndarray, rgb: np.ndarray, path) -> np.ndarray:
    """``img``, unless its H x W differs from ``rgb``'s: then FormatError naming ``path``."""
    if img.shape[-2:] != rgb.shape[-2:]:
        raise FormatError(
            f"{path}: image is {img.shape[-2]}x{img.shape[-1]}, "
            f"but rgb.ppm is {rgb.shape[-2]}x{rgb.shape[-1]}"
        )
    return img


def _to_u8(img: np.ndarray) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


# -- dataset ---------------------------------------------------------------------


def generate_dataset(root, count: int, base: GenSpec) -> dict:
    """Write ``count`` scenes under ``root`` with a train/test manifest.

    Scene i uses seed base.seed + i and cycles through depth/texture styles
    so both splits cover every combination.  The first
    round(TRAIN_FRACTION * count) scenes, but at least one and at most
    count - 1, form the train split.
    """
    if count < 2:
        raise UsageError(f"need at least 2 scenes for a split, got {count}")
    os.makedirs(root, exist_ok=True)
    names = []
    for i in range(count):
        spec = replace(
            base,
            seed=base.seed + i,
            depth_style=DEPTH_STYLES[i % len(DEPTH_STYLES)],
            texture_style=TEXTURE_STYLES[(i // len(DEPTH_STYLES)) % len(TEXTURE_STYLES)],
        )
        name = f"scene_{i:04d}"
        write_scene(generate_scene(spec), os.path.join(root, name))
        names.append(name)
    cut = max(1, int(round(count * TRAIN_FRACTION)))
    cut = min(cut, count - 1)
    manifest = {"train": names[:cut], "test": names[cut:]}
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def split_names(root, split: str) -> list[str]:
    """Scene names of one split, read from the dataset's manifest.json."""
    path = os.path.join(root, "manifest.json")
    manifest = read_json(path)
    if isinstance(manifest, dict) and split not in manifest:
        raise UsageError(f"manifest has no split {split!r}; available: {list(manifest)}")
    try:
        return read_fields(manifest, {split: tuple[str, ...]}, {})[split]
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


def load_split(root, split: str) -> list[Scene]:
    return [read_scene(os.path.join(root, name)) for name in split_names(root, split)]
