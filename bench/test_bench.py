"""Tests of the benchmark itself: counters, span arithmetic and output checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lfdepth import metrics, model, ops, synthdata, tensor, train  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import CheckFailed  # noqa: E402

TINY = model.NetworkConfig(height=16, width=16, slices=2, stage_channels=(2, 2, 4, 4, 4),
                           decoder_channels=4)
TINY_SPEC = synthdata.GenSpec(height=16, width=16, slices=2, seed=3)


# -- operation counts -------------------------------------------------------------


def _hand_conv2d(x, w, b, stride, dilation, pad):
    """Direct loop convolution that counts its multiply-adds and bias adds."""
    S, C, H, W = x.shape
    CO, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (H + 2 * pad - dilation * (kh - 1) - 1) // stride + 1
    ow = (W + 2 * pad - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((S, CO, oh, ow))
    macs = adds = 0
    for s in range(S):
        for co in range(CO):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(C):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += w[co, c, a, bb] * xp[s, c, i * stride + a * dilation,
                                                            j * stride + bb * dilation]
                                macs += 1
                    out[s, co, i, j] = acc + b[co]
                    adds += 1
    return out, macs, adds


@pytest.mark.parametrize("stride,dilation,padding", [(1, 1, "same"), (2, 1, "same"),
                                                     (1, 2, "same"), (1, 1, "valid")])
def test_conv2d_flops_match_hand_count(stride, dilation, padding):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 7, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    pad = dilation if padding == "same" else 0
    ref, macs, adds = _hand_conv2d(x, w, b, stride, dilation, pad)
    got = ops.conv2d(tensor.Tensor(x), tensor.Tensor(w), tensor.Tensor(b),
                     stride=stride, dilation=dilation, padding=padding)
    np.testing.assert_allclose(got.data, ref, rtol=1e-12, atol=1e-12)
    assert tracing.conv2d_flops(x.shape, w.shape, got.shape, bias=True) == 2 * macs + adds
    assert tracing.conv2d_flops(x.shape, w.shape, got.shape, bias=False) == 2 * macs


def test_defocus_taps_follow_the_widest_window():
    sigma = np.zeros((4, 4))
    assert tracing.defocus_taps(sigma) == 0
    sigma[1, 2] = 1.0        # radius ceil(3.0) = 3
    sigma[0, 0] = 0.5
    assert tracing.defocus_taps(sigma) == 7 * 7
    sigma[3, 3] = 1.01       # radius ceil(3.03) = 4
    assert tracing.defocus_taps(sigma) == 9 * 9


def test_matmul_flops():
    assert tracing.matmul_flops((5, 2, 3), (5, 2, 4)) == 2 * 5 * 2 * 4 * 3


# -- span arithmetic ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0, 0, None),
        Span(1, 0, "a", 1.0, 4.0, 0, None),
        Span(2, 1, "a1", 2.0, 3.0, 0, None),
        Span(3, 0, "b", 3.5, 6.0, 0, None),      # overlaps a: the union is 1..6
        Span(4, 0, "c", 9.0, 12.0, 0, None),     # runs past the parent: clipped at 10
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({0: 10 - 5 - 1, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0})


def _synthetic_tracer():
    t = tracing.Tracer()
    t.spans = [
        Span(0, None, "model.decoder", 0.0, 10.0, 0, None),
        Span(1, 0, "model.backbone_rgb", 1.0, 5.0, 0, None),
        Span(2, 1, "ops.conv2d", 2.0, 4.0, 0, None),
        Span(3, 0, "ops.conv2d", 6.0, 8.0, 0, None),
        Span(4, None, "tensor.backward", 10.0, 20.0, 0, None),
        Span(5, 4, "ops.conv2d", 11.0, 14.0, 0, 2),           # closure of node from span 2
        Span(6, 4, "ops.conv2d", 15.0, 16.0, 0, 3),           # closure of node from span 3
        Span(7, None, "train.load_checkpoint", -5.0, -3.0, -1, None),  # set-up
    ]
    t.counts.update({"ops.conv2d.flop": 4_000_000_000, "tensor.tape_nodes": 2})
    return t


def test_layer_metrics_on_a_synthetic_tree():
    got = {k: v for k, (v, _) in tracing.layer_metrics(_synthetic_tracer(), 2, 25.0).items()}
    assert got["ops.conv2d.fwd_s"] == pytest.approx(4 / 2)
    assert got["ops.conv2d.bwd_s"] == pytest.approx(4 / 2)
    assert got["ops.conv2d.calls"] == 1.0
    # blocks see through op spans
    assert got["model.backbone_rgb.fwd_s"] == pytest.approx(4 / 2)
    assert got["model.backbone_rgb.bwd_s"] == pytest.approx(3 / 2)
    assert got["model.decoder.fwd_s"] == pytest.approx(6 / 2)
    assert got["model.decoder.bwd_s"] == pytest.approx(1 / 2)
    assert got["tensor.backward.s"] == pytest.approx(10 / 2)
    assert got["tensor.backward.self_s"] == pytest.approx(6 / 2)
    assert got["train.load_checkpoint.s"] == pytest.approx(2.0)   # per call, set-up included
    assert got["ops.conv2d.gflop"] == 2.0
    assert got["tensor.tape_nodes"] == 1.0
    assert got["trace.coverage"] == pytest.approx(20 / 25)


def _tiny_step(net, scene, rng):
    rgb = tensor.Tensor(scene.rgb[None])
    focal = tensor.Tensor(scene.focal)
    out = net(rgb, focal, mode="train", rng=rng)
    loss = model.prediction_loss(out, tensor.Tensor(scene.depth[None]))
    net.params.zero_grad()
    loss.backward()
    return float(loss.data), {k: g.copy() for k, g in net.params.gradients().items()}


def test_tracing_leaves_results_bitwise_and_restores_lfdepth():
    scene = synthdata.generate_scene(TINY_SPEC)
    originals = {(m, a): getattr(m, a) for m, a, _, _ in tracing.FUNCTIONS}
    plain = _tiny_step(model.DepthNet(TINY, np.random.default_rng(1)), scene,
                       np.random.default_rng(2))
    t = tracing.Tracer()
    net = model.DepthNet(TINY, np.random.default_rng(1))
    with t.active():
        t.item = 0
        t.instrument_model(net)
        traced = _tiny_step(net, scene, np.random.default_rng(2))
    assert traced[0] == plain[0]
    assert traced[1].keys() == plain[1].keys()
    assert all(np.array_equal(traced[1][k], plain[1][k]) for k in plain[1])
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    assert tensor._track is ops._track and tensor._track.__name__ == "_track"
    assert isinstance(net.rgb_backbone, model.Backbone)
    assert t.counts["tensor.tape_nodes"] > 0
    assert any(s.origin is not None for s in t.spans)


# -- output checks fire on corrupted outputs -------------------------------------------


def test_prediction_check_fires():
    good = np.full((1, 1, 4, 4), 0.5)
    workloads.check_prediction(good, 4, 4)
    bad = good.copy()
    bad[0, 0, 1, 2] = np.nan
    with pytest.raises(CheckFailed, match="non-finite"):
        workloads.check_prediction(bad, 4, 4)
    with pytest.raises(CheckFailed, match="shape"):
        workloads.check_prediction(good[:, :, :3], 4, 4)
    edge = good.copy()
    edge[0, 0, 0, 0] = 1.0
    with pytest.raises(CheckFailed, match="leaves"):
        workloads.check_prediction(edge, 4, 4)


def test_loss_check_fires():
    workloads.check_losses([0.3, 0.2])
    with pytest.raises(CheckFailed, match="steps \\[1\\]"):
        workloads.check_losses([0.3, float("nan")])


def test_metrics_check_fires():
    m = metrics.DepthMetrics(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    workloads.check_same_metrics(m, metrics.DepthMetrics(*m.row()))
    with pytest.raises(CheckFailed):
        workloads.check_same_metrics(m, metrics.DepthMetrics(0.1 + 1e-16, *m.row()[1:]))


def test_roundtrip_check_fires(tmp_path):
    scene = synthdata.generate_scene(TINY_SPEC)
    synthdata.write_scene(scene, tmp_path)
    back = synthdata.read_scene(tmp_path)
    workloads.check_roundtrip(scene, back)
    back.depth = back.depth + 2 / 65535
    with pytest.raises(CheckFailed, match="depth"):
        workloads.check_roundtrip(scene, back)


def test_truncated_scene_file_fails_the_datagen_item(tmp_path, monkeypatch):
    real_write = synthdata.write_scene

    def write_truncated(scene, path):
        real_write(scene, path)
        focal = os.path.join(path, "focal_01.ppm")
        with open(focal, "r+b") as fh:
            fh.truncate(os.path.getsize(focal) - 7)

    monkeypatch.setattr(workloads, "scene_spec", lambda seed, i: TINY_SPEC)
    monkeypatch.setattr(workloads, "DATAGEN_CYCLE", 2)
    datagen = workloads.Datagen()
    ctx = datagen.setup(0, str(tmp_path))
    monkeypatch.setattr(synthdata, "write_scene", write_truncated)
    result = datagen.cycle(ctx, None)
    assert [it.ok for it in result.items] == [False, False]
    assert "FormatError" in result.errors[0]


def test_checkpoint_check_fires(tmp_path):
    scene = synthdata.generate_scene(TINY_SPEC)
    state = train.train_model([scene], TINY, 0, until_epoch=1, eval_every=0)
    path = tmp_path / "ck.lfdp"
    train.save_checkpoint(path, state)
    workloads.check_checkpoint(state, train.load_checkpoint(path))

    loaded = train.load_checkpoint(path)
    name, t = loaded.model.params.tensors()[0]
    t.data.flat[0] = np.nextafter(t.data.flat[0], np.inf)
    with pytest.raises(CheckFailed, match="parameters"):
        workloads.check_checkpoint(state, loaded)

    loaded = train.load_checkpoint(path)
    next(iter(loaded.optimizer.v.values())).flat[0] *= 2.0
    with pytest.raises(CheckFailed, match="Adam"):
        workloads.check_checkpoint(state, loaded)

    loaded = train.load_checkpoint(path)
    loaded.rng.random()
    with pytest.raises(CheckFailed, match="generator"):
        workloads.check_checkpoint(state, loaded)
