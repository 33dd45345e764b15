"""Acceptance gate: one test per shipping criterion, tolerances pinned.

These are the binding end-to-end checks.  Each test states its contract in
the docstring; thresholds were either fixed up front or measured once from
the first verified run and frozen.  The two training criteria are slow by
nature (several minutes each); everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from lfdepth.cmfa import Cmfa
from lfdepth.cru import Cru, CruConfig, node_count, zero_fuse
from lfdepth.gradcheck import SCOPES, assert_all_pass, check_scope
from lfdepth.metrics import evaluate
from lfdepth.model import NetworkConfig
from lfdepth.ops import conv2d
from lfdepth.params import ModuleParams
from lfdepth.synthdata import (
    GenSpec,
    defocus_blur,
    focus_depths,
    generate_dataset,
    generate_scene,
    load_split,
    read_scene,
    write_scene,
)
from lfdepth.tensor import Tensor
from lfdepth.train import (
    ablation_run,
    format_table,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

from oracles import gaussian_blur_dense, is_monotone_decreasing, moving_average

GRAD_TOLERANCE = 1e-4          # max relative error, backward vs central FD
GRAD_BUDGET_SECONDS = 300.0
IDENTITY_ATOL = 1e-12          # fusion-block reduction identities
CONVEXITY_SLACK = 1e-12        # roundoff slack on convex-combination envelopes
DEFOCUS_ORACLE_ATOL = 1e-10    # gather vs dense blur, per pixel

# Overfit recipe, measured once and frozen: the first verified run reached
# step loss 0.0087 from an initial 0.2325 (ratio 0.037) in 113 seconds.
OVERFIT_SCENE = GenSpec(height=32, width=32, slices=6, blur_gain=3.0,
                        depth_style="slanted", seed=42)
OVERFIT_CONFIG = NetworkConfig(height=32, width=32, slices=6, epochs=300,
                               learning_rate=3e-4, lr_drop=3e-4, lr_drop_epoch=1000)
OVERFIT_SEED = 1
OVERFIT_STEPS = 300
OVERFIT_LOSS_MAX = 0.05
OVERFIT_RATIO_MAX = 0.20
OVERFIT_BUDGET_SECONDS = 600.0

# Comparison-run recipe, frozen after calibration: ten epochs over the
# 32-scene train split with one learning-rate drop settle every variant's
# smoothed loss; the tolerance absorbs sub-1e-3 jitter from dropout noise
# on other BLAS builds (the recorded run is strictly monotone).
ABLATION_DATASET = GenSpec(height=64, width=64, slices=12, blur_gain=2.0, seed=11)
ABLATION_SCENES = 40
ABLATION_CONFIG = NetworkConfig(height=64, width=64, slices=12,
                                stage_channels=(4, 8, 16, 16, 16),
                                decoder_channels=16, epochs=10,
                                learning_rate=3e-4, lr_drop=1e-4, lr_drop_epoch=6)
ABLATION_NAMES = ["Baseline", "+CRU", "+CMFA", "+CRU+CMFA(Ours)"]
ABLATION_SEED = 0
MONOTONE_TOLERANCE = 1e-3


def test_criterion_1_gradients_match_finite_differences():
    """Every operator and the composed model at micro scale: backward against
    central finite differences at step 1e-5, max relative error < 1e-4,
    within a five-minute budget."""
    t0 = time.monotonic()
    reports = []
    for scope in SCOPES:
        scoped = check_scope(scope, seed=0)
        assert_all_pass(scoped, tolerance=GRAD_TOLERANCE)
        reports += scoped
    elapsed = time.monotonic() - t0
    worst = max(r.max_rel_err for r in reports)
    assert worst < GRAD_TOLERANCE
    assert elapsed < GRAD_BUDGET_SECONDS, f"gradient checks took {elapsed:.0f}s"


def test_criterion_2_identity_reductions():
    """(a) The context block with a zeroed fusion conv is an exact identity.
    (b) The fusion block with identity-reduced enhancement and zeroed
    attention heads equals a plain mean followed by its final conv."""
    # (a) zero fusion conv: residual path only, bit-exact
    params = ModuleParams()
    block = Cru(params, "cru", CruConfig(channels=4), np.random.default_rng(0))
    block.warmup(6, 6)
    zero_fuse(block)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 6, 6)))
    y = block(x)
    assert np.max(np.abs(y.data - x.data)) == 0.0

    # (b) identity-reduced enhancement + zeroed heads = plain-mean fusion
    params = ModuleParams()
    fuser = Cmfa(params, "cmfa", 4, np.random.default_rng(2))
    c = fuser.channels
    for t in (fuser.comp_weight, fuser.comp_bias, fuser.rgb_to_focal.weight,
              fuser.rgb_to_focal.bias):
        t.data[...] = 0.0
    for conv in (fuser.post_rgb, fuser.post_focal):
        conv.weight.data[...] = np.eye(c).reshape(c, c, 1, 1)
        conv.bias.data[...] = 0.0
    for head in (fuser.gamma_head, fuser.lambda_head):
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0

    rng = np.random.default_rng(3)
    focal = Tensor(rng.standard_normal((5, 4, 6, 6)))
    rgb = Tensor(rng.standard_normal((1, 4, 6, 6)))
    out = fuser(focal, rgb)
    mean = np.concatenate([focal.data, rgb.data], axis=0).mean(axis=0, keepdims=True)
    want = conv2d(Tensor(np.concatenate([mean, mean], axis=1)),
                  fuser.fuse.weight, fuser.fuse.bias)
    assert np.max(np.abs(out.data - want.data)) < IDENTITY_ATOL


def test_criterion_3_attention_convexity_and_threshold_order():
    """Both attention aggregates are convex combinations: each output element
    stays inside the elementwise min/max envelope of its slice family, and
    the attention scalars live strictly inside (0,1).  Threshold accuracies
    are ordered on random metric pairs."""
    checked = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(3, 8))
        c = int(rng.integers(2, 5))
        h = int(rng.integers(4, 7))
        w = int(rng.integers(4, 7))
        params = ModuleParams()
        block = Cmfa(params, "cmfa", c, rng)
        slices = Tensor(rng.standard_normal((n, c, h, w)))

        gamma = block.self_attention_weights(slices)
        assert np.all(gamma.data > 0.0) and np.all(gamma.data < 1.0)
        f1 = block.global_aggregate(slices, gamma)
        lo = slices.data.min(axis=0, keepdims=True)
        hi = slices.data.max(axis=0, keepdims=True)
        assert np.all(f1.data >= lo - CONVEXITY_SLACK)
        assert np.all(f1.data <= hi + CONVEXITY_SLACK)

        lam = block.relation_attention_weights(slices, f1)
        assert np.all(lam.data > 0.0) and np.all(lam.data < 1.0)
        f2 = block.relation_aggregate(slices, f1, gamma, lam)
        pairs = np.concatenate(
            [slices.data, np.broadcast_to(f1.data, slices.data.shape)], axis=1
        )
        lo2 = pairs.min(axis=0, keepdims=True)
        hi2 = pairs.max(axis=0, keepdims=True)
        assert np.all(f2.data >= lo2 - CONVEXITY_SLACK)
        assert np.all(f2.data <= hi2 + CONVEXITY_SLACK)
        checked += 1
    assert checked == 100

    rng = np.random.default_rng(77)
    for _ in range(100):
        pred = rng.uniform(0.01, 3.0, 50)
        gt = rng.uniform(0.01, 3.0, 50)
        m = evaluate(pred, gt)
        assert m.d1 <= m.d2 <= m.d3


def test_criterion_4_node_count_formula():
    """Graph node budget: floor(W*H / (4 * 2^(i-1))) clamped to at least one
    node, for every size in {2..64}^2 and branch index in {1,2,3}, against
    plain floor arithmetic."""
    for w in range(2, 65):
        for h in range(2, 65):
            for i in (1, 2, 3):
                want = max(1, math.floor((w * h) / (4.0 * 2.0 ** (i - 1))))
                got = node_count(w, h, i)
                assert got == want, (w, h, i)


def test_criterion_5_defocus_matches_dense_oracle():
    """Constant-depth scenes: the vectorized per-pixel gather agrees with a
    dense per-pixel blur oracle to 1e-10; zero blur gain and exactly
    in-focus pixels reproduce the sharp image bit for bit."""
    base = generate_scene(GenSpec(height=16, width=16, slices=4, blur_gain=2.5,
                                  texture_style="noise", seed=21))
    ds = focus_depths(4)
    for const_depth in (0.1, 0.55, 0.93):
        sigma = 2.5 * np.abs(np.full((16, 16), const_depth) - ds[2])
        got = defocus_blur(base.rgb, sigma)
        want = gaussian_blur_dense(base.rgb, sigma)
        assert np.max(np.abs(got - want)) <= DEFOCUS_ORACLE_ATOL

    sharp = generate_scene(GenSpec(height=16, width=16, slices=4, blur_gain=0.0, seed=22))
    for s in range(4):
        np.testing.assert_array_equal(sharp.focal[s], sharp.rgb)

    in_focus = defocus_blur(base.rgb, 2.5 * np.abs(np.full((16, 16), ds[1]) - ds[1]))
    np.testing.assert_array_equal(in_focus, base.rgb)


@pytest.mark.slow
def test_criterion_6_overfit_sanity():
    """The full model overfits one small scene in 300 steps: final loss under
    0.05 and under 20% of the initial loss, bit-identical across repeated
    seeded runs, inside a ten-minute budget."""
    scene = generate_scene(OVERFIT_SCENE)
    t0 = time.monotonic()
    first = train_model([scene], OVERFIT_CONFIG, OVERFIT_SEED,
                        max_steps=OVERFIT_STEPS, eval_every=0, augment_data=False)
    second = train_model([scene], OVERFIT_CONFIG, OVERFIT_SEED,
                         max_steps=OVERFIT_STEPS, eval_every=0, augment_data=False)
    elapsed = time.monotonic() - t0

    losses = first.log.step_losses
    assert len(losses) == OVERFIT_STEPS
    initial, final = losses[0], losses[-1]
    assert final < OVERFIT_LOSS_MAX, f"final loss {final:.4f}"
    assert final < OVERFIT_RATIO_MAX * initial, f"ratio {final / initial:.3f}"

    assert second.log.step_losses == losses
    sa, sb = first.model.params.state(), second.model.params.state()
    assert sa.keys() == sb.keys()
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key])

    assert elapsed < OVERFIT_BUDGET_SECONDS, f"overfit runs took {elapsed:.0f}s"


@pytest.mark.slow
def test_criterion_7_ablation_signal(tmp_path):
    """All four model variants train to convergence on the shared desk-scale
    dataset and schedule (5-epoch moving-average loss non-increasing), and
    the comparison table is emitted.  Relative ranking is reported, not
    asserted: at ten desk-scale epochs the ordering between variants is not
    stable run to run, so only convergence is binding."""
    root = tmp_path / "dataset"
    generate_dataset(root, ABLATION_SCENES, ABLATION_DATASET)
    train_scenes = load_split(root, "train")
    test_scenes = load_split(root, "test")
    assert len(train_scenes) == 32 and len(test_scenes) == 8

    results = ablation_run(train_scenes, ABLATION_NAMES, ABLATION_CONFIG,
                           ABLATION_SEED, eval_scenes=test_scenes,
                           augment_data=False)

    for result in results:
        assert len(result.log.epoch_losses) == ABLATION_CONFIG.epochs
        assert all(np.isfinite(v) for v in result.log.step_losses)
        ma = moving_average(result.log.epoch_losses, 5)
        assert len(ma) == ABLATION_CONFIG.epochs - 4
        assert is_monotone_decreasing(ma, tolerance=MONOTONE_TOLERANCE), (
            f"{result.name}: smoothed loss not monotone: {ma}"
        )

    table = format_table(results)
    print("\n" + table)
    lines = table.splitlines()
    assert lines[0].split() == ["model", "rms", "abs", "rel", "sq", "rel", "d1", "d2", "d3"]
    assert len(lines) == 2 + len(ABLATION_NAMES)
    for name, line in zip(ABLATION_NAMES, lines[2:]):
        assert line.startswith(name)
        assert len(line.split()) == len(name.split()) + 6


def test_criterion_8_round_trips_and_perfect_metrics(tmp_path):
    """Scene files and checkpoints survive write/read bit for bit, and the
    metric suite returns exactly (0,0,0,1,1,1) when prediction equals
    ground truth on random positive maps."""
    scene = generate_scene(GenSpec(height=16, width=16, slices=3, blur_gain=2.0, seed=31))
    write_scene(scene, tmp_path / "a")
    first = read_scene(tmp_path / "a")
    write_scene(first, tmp_path / "b")
    second = read_scene(tmp_path / "b")
    np.testing.assert_array_equal(second.rgb, first.rgb)
    np.testing.assert_array_equal(second.focal, first.focal)
    np.testing.assert_array_equal(second.depth, first.depth)
    np.testing.assert_array_equal(second.focus_depths, first.focus_depths)
    for name in ("rgb.ppm", "focal_00.ppm", "focal_01.ppm", "focal_02.ppm",
                 "depth.pgm", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    config = NetworkConfig(height=16, width=16, slices=2,
                           stage_channels=(2, 4, 4, 4, 4), decoder_channels=4,
                           epochs=2)
    tiny = generate_scene(GenSpec(height=16, width=16, slices=2, blur_gain=2.0, seed=32))
    state = train_model([tiny], config, seed=5, until_epoch=2, eval_every=1)
    save_checkpoint(tmp_path / "ck.lfdp", state)
    loaded = load_checkpoint(tmp_path / "ck.lfdp")
    save_checkpoint(tmp_path / "ck2.lfdp", loaded)
    assert (tmp_path / "ck.lfdp").read_bytes() == (tmp_path / "ck2.lfdp").read_bytes()
    assert (tmp_path / "ck.lfdp.json").read_bytes() == (tmp_path / "ck2.lfdp.json").read_bytes()
    sa, sb = state.model.params.state(), loaded.model.params.state()
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key])

    rng = np.random.default_rng(33)
    for _ in range(100):
        shape = tuple(rng.integers(2, 9, size=int(rng.integers(1, 4))))
        gt = rng.uniform(0.05, 5.0, shape)
        m = evaluate(gt.copy(), gt)
        assert m.row() == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
