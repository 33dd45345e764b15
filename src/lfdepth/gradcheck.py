"""Finite-difference verification of the backward pass.

Each scope builds a small seeded fixture, runs one analytic backward, then
re-derives a few sampled entries per tensor by central differences on the
raw parameter buffers (step 1e-5).  The relative error per tensor is the
worst sampled |analytic - numeric| divided by the larger of the two
magnitudes (floored at 1e-6 so noise on dead entries cannot dominate).

Biases are shifted off zero before checking: a zero bias can park a
pre-activation exactly on the relu kink, where the true derivative is
one-sided and central differences report garbage even though the backward
rule is correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmfa import Cmfa
from .cru import Cru, CruConfig
from .errors import NumericalCheckError, UsageError
from .model import DepthNet, NetworkConfig, prediction_loss
from .ops import (
    conv2d,
    conv3d,
    fc,
    global_avg_pool,
    max_pool2,
    relu,
    sigmoid,
    upsample_bilinear,
)
from .params import ModuleParams
from .tensor import Tensor, concat_tensors, matmul

SCOPES = ("ops", "cru", "cmfa", "model")
DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class GroupReport:
    name: str
    max_rel_err: float
    samples: int
    refined: int = 0     # entries re-estimated at a smaller step, see below

    def line(self) -> str:
        note = f", {self.refined} refined" if self.refined else ""
        return f"{self.name:<48s} rel err {self.max_rel_err:.3e} ({self.samples} samples{note})"


def _fd_entry(forward, flat, i, step: float) -> float:
    saved = flat[i]
    flat[i] = saved + step
    hi = float(forward().data)
    flat[i] = saved - step
    lo = float(forward().data)
    flat[i] = saved
    return (hi - lo) / (2.0 * step)


def _check_tensors(
    forward, named, rng, samples: int, step: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[GroupReport]:
    """Compare analytic gradients of ``forward()`` against sampled FD.

    The primary estimate uses the given step.  An entry that disagrees is
    re-estimated once at step/10: in a relu network a random evaluation
    point occasionally has some pre-activation within the step of zero, and
    the central difference then straddles the kink and reports a one-sided
    slope even though the backward rule is exact.  The refined estimate is
    only trusted if it agrees with the analytic value; a genuinely wrong
    gradient fails at every step because finite differences converge to the
    true derivative, not to the claimed one.
    """
    tensors = [t for _, t in named]
    for t in tensors:
        t.grad = None
    out = forward()
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    reports = []
    for (name, t), an in zip(named, analytic):
        flat = t.data.ravel()
        an_flat = an.ravel()
        n = min(samples, flat.size)
        picks = rng.choice(flat.size, size=n, replace=False)
        fd_vals = np.empty(n)
        an_vals = np.empty(n)
        refined = 0
        for row, i in enumerate(picks):
            fd = _fd_entry(forward, flat, i, step)
            an_i = an_flat[i]
            if abs(an_i - fd) > tolerance * max(abs(an_i), abs(fd), _REL_FLOOR):
                finer = _fd_entry(forward, flat, i, step / 10.0)
                if abs(an_i - finer) <= tolerance * max(abs(an_i), abs(finer), _REL_FLOOR):
                    fd = finer
                    refined += 1
            fd_vals[row] = fd
            an_vals[row] = an_i
        scale = max(np.max(np.abs(an_vals)), np.max(np.abs(fd_vals)), _REL_FLOOR)
        err = float(np.max(np.abs(an_vals - fd_vals)) / scale)
        reports.append(GroupReport(name=name, max_rel_err=err, samples=n, refined=refined))
    return reports


def _weighted_mean(out: Tensor, rng) -> Tensor:
    """Project onto a fixed random direction so no term can cancel silently."""
    weights = Tensor(rng.normal(size=out.shape), requires_grad=False)
    return (out * weights).mean()


def _shift_biases(params: ModuleParams, rng) -> None:
    for path, t in params.tensors():
        if path.endswith("bias"):
            t.data += 0.1 * rng.standard_normal(t.shape)


# -- fixtures -------------------------------------------------------------------


def _scope_ops(seed: int, samples: int, step: float) -> list[GroupReport]:
    rng = np.random.default_rng(seed)
    reports = []

    def check(name, forward, tensors):
        named = [(f"{name}.{label}", t) for label, t in tensors]
        reports.extend(_check_tensors(forward, named, rng, samples, step))

    x = Tensor(rng.normal(size=(2, 3, 9, 9)), requires_grad=True)
    w = Tensor(0.3 * rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    b = Tensor(0.1 * rng.normal(size=(4,)), requires_grad=True)
    check(
        "conv2d_strided_dilated",
        lambda: _weighted_mean(
            relu(conv2d(x, w, b, stride=2, dilation=2, padding="valid")),
            np.random.default_rng(seed + 1),
        ),
        [("x", x), ("w", w), ("b", b)],
    )

    xv = Tensor(rng.normal(size=(1, 2, 3, 5, 5)), requires_grad=True)
    wv = Tensor(0.3 * rng.normal(size=(3, 2, 3, 3, 3)), requires_grad=True)
    bv = Tensor(0.1 * rng.normal(size=(3,)), requires_grad=True)
    check(
        "conv3d_same",
        lambda: _weighted_mean(sigmoid(conv3d(xv, wv, bv)), np.random.default_rng(seed + 2)),
        [("x", xv), ("w", wv), ("b", bv)],
    )

    xf = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    wf = Tensor(0.3 * rng.normal(size=(7, 4)), requires_grad=True)
    bf = Tensor(0.1 * rng.normal(size=(4,)), requires_grad=True)
    check(
        "fc",
        lambda: _weighted_mean(sigmoid(fc(xf, wf, bf)), np.random.default_rng(seed + 3)),
        [("x", xf), ("w", wf), ("b", bf)],
    )

    xp = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    check(
        "max_pool2",
        lambda: _weighted_mean(max_pool2(xp), np.random.default_rng(seed + 4)),
        [("x", xp)],
    )

    xu = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    check(
        "upsample_bilinear",
        lambda: _weighted_mean(upsample_bilinear(xu, 2), np.random.default_rng(seed + 5)),
        [("x", xu)],
    )

    xg = Tensor(rng.normal(size=(3, 4, 5, 5)), requires_grad=True)
    check(
        "global_avg_pool",
        lambda: _weighted_mean(global_avg_pool(xg), np.random.default_rng(seed + 6)),
        [("x", xg)],
    )

    xa = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    xb = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    xc = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    check(
        "matmul_concat",
        lambda: _weighted_mean(
            concat_tensors([matmul(xa, xb), xc], axis=2),
            np.random.default_rng(seed + 7),
        ),
        [("a", xa), ("b", xb), ("c", xc)],
    )

    # a constant input, as in each backbone's first conv: only the weight
    # and bias need a gradient
    xi = Tensor(rng.normal(size=(2, 3, 8, 8)))
    wi = Tensor(0.3 * rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    bi = Tensor(0.1 * rng.normal(size=(4,)), requires_grad=True)
    check(
        "conv2d_weight_only",
        lambda: _weighted_mean(
            relu(conv2d(xi, wi, bi, stride=2)), np.random.default_rng(seed + 8)
        ),
        [("w", wi), ("b", bi)],
    )
    return reports


def _scope_cru(seed: int, samples: int, step: float) -> list[GroupReport]:
    rng = np.random.default_rng(seed)
    params = ModuleParams()
    block = Cru(params, "cru", CruConfig(channels=4), rng)
    block.warmup(6, 6)
    _shift_biases(params, rng)
    x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=False)
    forward = lambda: _weighted_mean(block(x), np.random.default_rng(seed + 1))
    return _check_tensors(forward, params.tensors(), rng, samples, step)


def _scope_cmfa(seed: int, samples: int, step: float) -> list[GroupReport]:
    rng = np.random.default_rng(seed)
    params = ModuleParams()
    block = Cmfa(params, "cmfa", 2, rng)
    _shift_biases(params, rng)
    focal = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=False)
    rgbf = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=False)
    forward = lambda: _weighted_mean(
        block(focal, rgbf, mode="eval"), np.random.default_rng(seed + 1)
    )
    return _check_tensors(forward, params.tensors(), rng, samples, step)


def micro_config() -> NetworkConfig:
    """The reduced-width full model used for composed gradient checks."""
    return NetworkConfig(
        height=32, width=32, slices=4,
        stage_channels=(4, 8, 8, 8, 8), decoder_channels=8,
    )


def _scope_model(seed: int, samples: int, step: float) -> list[GroupReport]:
    rng = np.random.default_rng(seed)
    model = DepthNet(micro_config(), rng)
    # The constructor zeroes the context-fusion convs for stable training;
    # re-randomize them here, small, so gradient flows into every branch
    # without the graph branch's large inner activations swamping the rest.
    for path, t in model.params.tensors():
        if t.data.size and not np.any(t.data):
            t.data += 1e-3 * rng.standard_normal(t.shape)
    _shift_biases(model.params, rng)
    # Keep every sigmoid input in its live region: a saturated sigmoid has
    # derivative ~1e-13, indistinguishable from zero at FD step 1e-5.
    model.params.get("decoder.head.weight").data *= 0.05
    for path, t in model.params.tensors():
        if ".gamma_head." in path or ".lambda_head." in path:
            t.data *= 0.1
        # The graph branch multiplies activation matrices, so its raw scale
        # at random init is O(1e3); the loss then has enough curvature along
        # the fuse-weight coordinates that a central difference at step 1e-5
        # measures curvature, not slope (the FD estimate converges to the
        # analytic gradient as the step shrinks).  Damping the mixing
        # matrices conditions the check point without changing what is
        # being differentiated.
        if path.endswith("node_mix") or path.endswith("channel_mix"):
            t.data *= 0.01

    cfg = model.config
    rgb = Tensor(rng.uniform(0, 1, (1, 3, cfg.height, cfg.width)), requires_grad=False)
    focal = Tensor(
        rng.uniform(0, 1, (cfg.slices, 3, cfg.height, cfg.width)), requires_grad=False
    )
    gt = Tensor(rng.uniform(0.1, 0.9, (1, 1, cfg.height, cfg.width)), requires_grad=False)

    forward = lambda: prediction_loss(model(rgb, focal, mode="eval"), gt, cfg.loss_weights)
    return _check_tensors(forward, model.params.tensors(), rng, samples, step)


_SCOPE_FNS = {
    "ops": _scope_ops,
    "cru": _scope_cru,
    "cmfa": _scope_cmfa,
    "model": _scope_model,
}


def check_scope(
    scope: str,
    seed: int = 0,
    *,
    samples: int = 3,
    step: float = DEFAULT_STEP,
) -> list[GroupReport]:
    if scope not in _SCOPE_FNS:
        raise UsageError(f"unknown gradcheck scope {scope!r}; choose from {SCOPES}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return _SCOPE_FNS[scope](seed, samples, step)


def assert_all_pass(reports: list[GroupReport], tolerance: float = DEFAULT_TOLERANCE) -> None:
    # written so that a NaN error fails rather than slipping past the comparison
    bad = [r for r in reports if not (r.max_rel_err < tolerance)]
    if bad:
        worst = max(bad, key=lambda r: r.max_rel_err)
        raise NumericalCheckError(
            f"{len(bad)} of {len(reports)} parameter groups exceed "
            f"tolerance {tolerance:g}; worst is {worst.name} at {worst.max_rel_err:.3e}"
        )
