import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from lfdepth import ops, tensor
from lfdepth.errors import ConfigError, ShapeError, UsageError
from lfdepth.model import (
    LADDER,
    Backbone,
    DepthNet,
    NetworkConfig,
    ladder_config,
    loss_terms,
    prediction_loss,
)
from lfdepth.params import ModuleParams, write_container
from lfdepth.tensor import Tensor
from lfdepth.train import Adam

from oracles import fd_gradients_sampled, max_rel_err, relu as oracle_relu

TOL = 1e-4


def small_config(**kw):
    base = dict(
        height=32,
        width=32,
        slices=3,
        stage_channels=(4, 8, 8, 8, 8),
        decoder_channels=8,
    )
    base.update(kw)
    return NetworkConfig(**base)


def scene_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    rgb = Tensor(rng.uniform(0.0, 1.0, (1, 3, cfg.height, cfg.width)))
    focal = Tensor(rng.uniform(0.0, 1.0, (cfg.slices, 3, cfg.height, cfg.width)))
    gt = Tensor(rng.uniform(0.1, 0.9, (1, 1, cfg.height, cfg.width)))
    return rgb, focal, gt


# -- config validation ---------------------------------------------------------


def test_config_rejects_indivisible_size():
    with pytest.raises(ConfigError):
        small_config(height=33)
    with pytest.raises(ConfigError):
        small_config(width=20)


@pytest.mark.parametrize("key, value", [("height", 0), ("width", -16), ("decoder_channels", 0)])
def test_config_rejects_non_positive_extents(key, value):
    with pytest.raises(ConfigError):
        small_config(**{key: value})


NON_FINITE_SETTINGS = [
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("learning_rate", 0.0),
    ("lr_drop", math.nan),
    ("lr_drop", -math.inf),
]


@pytest.mark.parametrize("key, value", NON_FINITE_SETTINGS)
def test_config_rejects_non_finite_rates_and_weights(key, value):
    with pytest.raises(ConfigError, match=key):
        small_config(**{key: value})


def test_config_rejects_no_streams():
    with pytest.raises(ConfigError):
        small_config(use_rgb_stream=False, use_focal_stream=False)


def test_config_rejects_cru_with_no_branches():
    with pytest.raises(ConfigError):
        small_config(use_cru=True, use_cru_md=False, use_cru_mg=False)


@pytest.mark.parametrize("stage", [2, 3, 4])
def test_config_rejects_odd_side_channels_with_the_dilated_branch(stage):
    channels = [4, 8, 8, 8, 8]
    channels[stage] = 5
    with pytest.raises(ConfigError, match="even"):
        small_config(stage_channels=tuple(channels))
    # the dilated branch is the one that halves channels; without it any count works
    small_config(stage_channels=tuple(channels), use_cru_md=False)
    small_config(stage_channels=tuple(channels), use_cru=False)


def test_config_accepts_odd_channels_outside_the_side_stages():
    DepthNet(small_config(stage_channels=(3, 5, 8, 8, 8)), np.random.default_rng(0))


def test_config_rejects_bad_channels_and_weights():
    with pytest.raises(ConfigError):
        small_config(stage_channels=(4, 8, 8))
    with pytest.raises(ConfigError):
        small_config(stage_channels=(4, 8, 8, 8, 0))
    with pytest.raises(ConfigError):
        small_config(slices=0)


def test_stage_size():
    cfg = small_config(height=64, width=32)
    assert cfg.stage_size(2) == (16, 8)
    assert cfg.stage_size(3) == (8, 4)
    assert cfg.stage_size(4) == (4, 2)


# -- backbone -------------------------------------------------------------------


def test_backbone_side_output_shapes():
    params = ModuleParams()
    bb = Backbone(params, "bb", (4, 8, 16, 16, 16), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).uniform(0, 1, (3, 3, 64, 64)))
    f3, f4, f5 = bb(x)
    assert f3.shape == (3, 16, 16, 16)
    assert f4.shape == (3, 16, 8, 8)
    assert f5.shape == (3, 16, 4, 4)


def test_backbone_treats_slices_independently():
    """Permuting the slice axis of the input permutes the features the same way."""
    params = ModuleParams()
    bb = Backbone(params, "bb", (2, 3, 3, 3, 3), np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(0, 1, (4, 3, 16, 16))
    perm = np.array([2, 0, 3, 1])
    outs = bb(Tensor(x))
    outs_p = bb(Tensor(x[perm]))
    for a, b in zip(outs, outs_p):
        np.testing.assert_array_equal(a.data[perm], b.data)


def test_backbone_gradients_match_fd():
    params = ModuleParams()
    bb = Backbone(params, "bb", (2, 3, 3, 3, 3), np.random.default_rng(4))
    rng = np.random.default_rng(5)
    named = params.tensors()
    for _, t in named:
        if t.data.ndim == 1:
            t.data += 0.1 * rng.standard_normal(t.data.shape)
    x = rng.uniform(0.0, 1.0, (2, 3, 16, 16))
    proj = [rng.standard_normal((2, 3, s, s)) for s in (4, 2, 1)]

    def forward():
        outs = bb(Tensor(x))
        total = (outs[0] * proj[0]).mean()
        for o, p in zip(outs[1:], proj[1:]):
            total = total + (o * p).mean()
        return total

    loss = forward()
    params.zero_grad()
    loss.backward()
    analytic = {path: t.grad.copy() for path, t in named}
    fd = fd_gradients_sampled(
        lambda: forward().item(), [t for _, t in named], np.random.default_rng(6)
    )
    for (path, _), rows in zip(named, fd):
        for idx, est in rows:
            an = analytic[path].reshape(-1)[idx]
            assert max_rel_err(np.array([an]), np.array([est])) < TOL, path


# -- full model forward ---------------------------------------------------------


def test_forward_shape_and_range():
    cfg = small_config()
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    out = model(rgb, focal)
    assert out.shape == (1, 1, 32, 32)
    assert out.data.min() > 0.0
    assert out.data.max() < 1.0


def test_forward_is_deterministic_in_eval():
    cfg = small_config()
    model = DepthNet(cfg, np.random.default_rng(1))
    rgb, focal, _ = scene_inputs(cfg, seed=2)
    a = model(rgb, focal).data
    b = model(rgb, focal).data
    np.testing.assert_array_equal(a, b)


def test_same_seed_builds_identical_models():
    cfg = small_config()
    m1 = DepthNet(cfg, np.random.default_rng(9))
    m2 = DepthNet(cfg, np.random.default_rng(9))
    s1, s2 = m1.params.state(), m2.params.state()
    assert s1.keys() == s2.keys()
    for k in s1:
        np.testing.assert_array_equal(s1[k], s2[k])
    rgb, focal, _ = scene_inputs(cfg, seed=3)
    np.testing.assert_array_equal(m1(rgb, focal).data, m2(rgb, focal).data)


def test_default_init_container_is_pinned():
    """The bytes a default model starts from, by SHA-256.

    This pins the order in which the constructors draw from the init RNG and
    register their parameters, which every saved checkpoint depends on.  The
    digest was taken with numpy 2.4 on x86-64.
    """
    buf = io.BytesIO()
    write_container(buf, DepthNet(NetworkConfig(), np.random.default_rng(0)).params.state())
    assert hashlib.sha256(buf.getvalue()).hexdigest() == (
        "5e2106b855c1600249335d9617ac694f05deb8e43ec63348a9317d954a38f2d8"
    )


def test_model_built_without_init_draws_has_the_same_parameter_layout():
    drawn = DepthNet(NetworkConfig(), np.random.default_rng(0)).params.tensors()
    blank = DepthNet(NetworkConfig(), None).params.tensors()
    assert [(p, t.shape) for p, t in blank] == [(p, t.shape) for p, t in drawn]
    assert all(not np.any(t.data) for _, t in blank)


def test_model_built_without_init_draws_holds_no_parameter_bytes():
    tracemalloc.start()
    try:
        blank = DepthNet(NetworkConfig(), None)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20  # the drawn parameters are 16.4 MB
    tensors = blank.params.tensors()
    assert len(tensors) > 300
    for path, t in tensors:
        assert t.data.dtype == np.float64 and not np.any(t.data), path
        assert not t.data.flags.writeable, path
    weight = blank.params.get("decoder.head.weight")
    with pytest.raises(ValueError, match="read-only"):
        weight.data -= 1.0
    with pytest.raises(ValueError, match="read-only"):
        weight.data[...] = 1.0


@pytest.mark.parametrize("name", ["default"] + sorted(LADDER))
def test_float32_forward_records_no_tape_entry(name, monkeypatch):
    cfg = NetworkConfig() if name == "default" else ladder_config(small_config(), name)
    model = DepthNet(cfg, np.random.default_rng(0))
    made = []

    class CountedNode(tensor._Node):
        __slots__ = ()

        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(tensor, "_Node", CountedNode)
    rgb, focal, _ = scene_inputs(cfg)
    rgb, focal = (rgb if cfg.use_rgb_stream else None), (focal if cfg.use_focal_stream else None)
    as32 = [None if t is None else Tensor(t.data.astype(np.float32)) for t in (rgb, focal)]
    out = model(*as32)
    assert out.data.dtype == np.float32 and not out.requires_grad and made == []
    assert all(t.grad is None for _, t in model.params.tensors())
    assert model(rgb, focal).requires_grad and made  # the float64 forward is recorded


def test_forward_rejects_wrong_shapes():
    cfg = small_config()
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((1, 3, 16, 16))), focal)
    with pytest.raises(ShapeError):
        model(rgb, Tensor(np.zeros((5, 3, 32, 32))))


def test_forward_rejects_missing_stream():
    cfg = small_config()
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    with pytest.raises(UsageError):
        model(None, focal)
    with pytest.raises(UsageError):
        model(rgb, None)


def test_train_mode_needs_rng():
    cfg = small_config()
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    with pytest.raises(UsageError):
        model(rgb, focal, mode="train")
    out = model(rgb, focal, mode="train", rng=np.random.default_rng(4))
    assert out.shape == (1, 1, 32, 32)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_every_ladder_rung_checks_the_mode_before_the_forward(name, monkeypatch):
    cfg = ladder_config(small_config(), name)
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    rgb, focal = (rgb if cfg.use_rgb_stream else None), (focal if cfg.use_focal_stream else None)

    def forward(*args):
        raise AssertionError("the forward pass ran")

    monkeypatch.setattr(model, "_stream_features", forward)
    for kwargs in ({"mode": "trian"}, {"mode": "trian", "rng": np.random.default_rng(4)},
                   {"mode": "train"}):
        with pytest.raises(UsageError, match="mode"):
            model(rgb, focal, **kwargs)


@pytest.mark.parametrize("name", sorted(n for n in LADDER if LADDER[n]["use_cmfa"]))
def test_eval_mode_gives_the_cmfa_rungs_no_rng(name):
    cfg = ladder_config(small_config(), name)
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    rng = np.random.default_rng(4)
    with_rng = model(rgb, focal, mode="eval", rng=rng).data
    assert with_rng.tobytes() == model(rgb, focal, mode="eval").data.tobytes()
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state


# -- stream / ladder variants -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(LADDER))
def test_every_ladder_rung_runs_forward(name):
    cfg = ladder_config(small_config(), name)
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, _ = scene_inputs(cfg)
    out = model(
        rgb if cfg.use_rgb_stream else None,
        focal if cfg.use_focal_stream else None,
    )
    assert out.shape == (1, 1, 32, 32)
    assert 0.0 < out.data.min() and out.data.max() < 1.0


def test_ladder_rejects_unknown_name():
    with pytest.raises(UsageError):
        ladder_config(small_config(), "Baseline+magic")


def test_ladder_switches():
    base = small_config()
    assert ladder_config(base, "Baseline").use_cru is False
    assert ladder_config(base, "Baseline").use_cmfa is False
    assert ladder_config(base, "+CRU").use_cru is True
    assert ladder_config(base, "+CRU").use_cmfa is False
    md = ladder_config(base, "+CRU(md)+CMFA")
    assert (md.use_cru_md, md.use_cru_mg, md.use_cmfa) == (True, False, True)
    mg = ladder_config(base, "+CRU(mg)+CMFA")
    assert (mg.use_cru_md, mg.use_cru_mg, mg.use_cmfa) == (False, True, True)
    assert ladder_config(base, "rgb").use_focal_stream is False
    assert ladder_config(base, "focal stack").use_rgb_stream is False


def test_parameter_count_manifest():
    """Pinned parameter counts per ladder rung at the small test configuration.

    A changed count means the architecture changed shape; the numbers were
    measured once from a verified build and frozen.
    """
    base = small_config(height=32, width=32, slices=4)
    manifest = {
        "rgb": 18069,
        "focal stack": 25005,
        "Baseline": 41889,
        "+CRU": 33729,
        "+CMFA": 44175,
        "+CRU(md)+CMFA": 29895,
        "+CRU(mg)+CMFA": 29319,
        "+CRU+CMFA(Ours)": 36015,
    }
    for name, want in manifest.items():
        model = DepthNet(ladder_config(base, name), np.random.default_rng(0))
        assert model.params.count() == want, name


# -- loss -------------------------------------------------------------------------


def test_loss_zero_on_equal_maps():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0.1, 0.9, (1, 1, 6, 7)))
    l1, grad, normal = loss_terms(x, Tensor(x.data.copy()))
    assert l1.data == 0.0
    assert grad.data == 0.0
    assert normal.data == 0.0
    assert prediction_loss(x, Tensor(x.data.copy())).data == 0.0


def test_loss_constant_offset_is_pure_l1():
    """A constant shift changes no gradients, so only the L1 term reacts."""
    rng = np.random.default_rng(1)
    g = rng.uniform(0.2, 0.6, (1, 1, 5, 5))
    l1, grad, normal = loss_terms(Tensor(g + 0.07), Tensor(g))
    np.testing.assert_allclose(l1.data, 0.07, rtol=1e-12)
    np.testing.assert_allclose(grad.data, 0.0, atol=1e-15)
    np.testing.assert_allclose(normal.data, 0.0, atol=1e-15)


def test_loss_hand_oracle_2x2():
    pred = Tensor(np.array([[[[0.2, 0.4], [0.6, 0.8]]]]))
    gt = Tensor(np.array([[[[0.1, 0.5], [0.5, 0.9]]]]))
    l1, grad, normal = loss_terms(pred, gt)
    # |0.1| + |-0.1| + |0.1| + |-0.1| over 4 pixels
    np.testing.assert_allclose(l1.data, 0.1, rtol=1e-12)
    # dx: pred 0.2 vs gt 0.4; dy: 0.4 vs 0.4
    np.testing.assert_allclose(grad.data, 0.2, rtol=1e-12)
    dot = 0.2 * 0.4 + 0.4 * 0.4 + 1.0
    want = 1.0 - dot / (math.sqrt(1.0 + 0.2**2 + 0.4**2) * math.sqrt(1.0 + 0.4**2 + 0.4**2))
    np.testing.assert_allclose(normal.data, want, rtol=1e-12)


def test_prediction_loss_is_the_sum_of_its_terms():
    rng = np.random.default_rng(2)
    p = Tensor(rng.uniform(0, 1, (1, 1, 4, 4)))
    g = Tensor(rng.uniform(0, 1, (1, 1, 4, 4)))
    l1, grad, normal = loss_terms(p, g)
    assert prediction_loss(p, g).data == l1.data + grad.data + normal.data


def test_loss_terms_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Tensor(rng.uniform(0, 1, (1, 1, 5, 6)))
        g = Tensor(rng.uniform(0, 1, (1, 1, 5, 6)))
        for term in loss_terms(p, g):
            assert term.data >= 0.0


def test_loss_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        loss_terms(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 4, 5))))
    with pytest.raises(ShapeError):
        loss_terms(Tensor(np.zeros((1, 1, 1, 4))), Tensor(np.zeros((1, 1, 1, 4))))
    with pytest.raises(ShapeError):
        loss_terms(Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))))


def test_model_loss_backward_runs():
    """End to end: forward, loss, backward leaves a gradient on every leaf."""
    cfg = small_config()
    model = DepthNet(cfg, np.random.default_rng(0))
    rgb, focal, gt = scene_inputs(cfg)
    out = model(rgb, focal)
    loss = prediction_loss(out, gt)
    model.params.zero_grad()
    loss.backward()
    missing = [k for k, t in model.params.tensors() if t.grad is None]
    assert missing == []
    assert np.isfinite(loss.data)


def test_fused_relu_training_matches_unfused_reference(monkeypatch):
    """Two Adam steps of a tiny DepthNet in train mode: every parameter gradient
    of both steps equals, bit for bit, the one from an unfused conv2d followed
    by the oracle relu."""
    cfg = small_config(height=16, width=16, slices=2, stage_channels=(4, 4, 4, 4, 4),
                       decoder_channels=4)

    def two_steps():
        model = DepthNet(cfg, np.random.default_rng(5))
        optimizer, rng = Adam(), np.random.default_rng(6)
        rgb, focal, gt = scene_inputs(cfg, seed=7)
        steps = []
        for _ in range(2):
            model.params.zero_grad()
            prediction_loss(model(rgb, focal, mode="train", rng=rng), gt).backward()
            assert all(t.grad is not None for _, t in model.params.tensors())
            steps.append({k: g.copy() for k, g in model.params.gradients().items()})
            optimizer.step(model.params, 1e-3)
        return steps

    fused = two_steps()
    conv2d, relu_calls = ops.conv2d, []

    def unfused(*args, relu=False, **kwargs):
        out = conv2d(*args, **kwargs)
        relu_calls.append(relu)
        return oracle_relu(out) if relu else out

    monkeypatch.setattr(ops, "conv2d", unfused)
    reference = two_steps()
    assert sum(relu_calls) > 0
    for got, want in zip(fused, reference):
        assert got.keys() == want.keys()
        for path, g in got.items():
            assert g.tobytes() == want[path].tobytes(), path
