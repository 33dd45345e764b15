import hashlib
import json
import re
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfdepth.errors import ConfigError, FormatError, NumericalCheckError, UsageError
from lfdepth.gradcheck import DEFAULT_TOLERANCE
from lfdepth.jsonio import write_json
from lfdepth.metrics import DepthMetrics, evaluate
from lfdepth.model import NetworkConfig, prediction_loss
from lfdepth.ops import kaiming_normal
from lfdepth.params import DiskEntry, ModuleParams, load_params, read_entries, save_params
from lfdepth.synthdata import GenSpec, generate_scene
from lfdepth.tensor import Tensor, no_grad
import lfdepth.ops as ops_module
import lfdepth.tensor as tensor_module
import lfdepth.train as train_module
from lfdepth.train import (
    Adam,
    _metrics_from_doc,
    ablation_run,
    config_from_dict,
    config_to_dict,
    evaluate_model,
    format_metric,
    format_table,
    init_state,
    learning_rate_for,
    load_checkpoint,
    predict_scene,
    save_checkpoint,
    train_model,
)

from oracles import backward_keep_all, is_monotone_decreasing, max_rel_err, moving_average


def tiny_config(**kw):
    base = dict(
        height=16,
        width=16,
        slices=2,
        stage_channels=(2, 4, 4, 4, 4),
        decoder_channels=4,
        epochs=4,
        learning_rate=1e-3,
        lr_drop=1e-4,
        lr_drop_epoch=2,
    )
    base.update(kw)
    return NetworkConfig(**base)


def tiny_scene(seed=0):
    return generate_scene(GenSpec(height=16, width=16, slices=2, blur_gain=2.0, seed=seed))


# -- optimizer -------------------------------------------------------------------


def adam_reference(g, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled update sequence for a constant gradient."""
    x = np.zeros_like(g)
    m = np.zeros_like(g)
    v = np.zeros_like(g)
    for t in range(1, steps + 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return x


def test_adam_matches_reference_updates():
    params = ModuleParams()
    g = np.array([0.5, -2.0, 0.01, 3.0])
    t = Tensor(np.zeros(4))
    params.add("w", t)
    opt = Adam()
    for _ in range(3):
        t.grad = g.copy()
        opt.step(params, 0.1)
    np.testing.assert_allclose(t.data, adam_reference(g, 0.1, 3), rtol=1e-12)
    assert opt.step_count == 3


def test_adam_skips_missing_gradients():
    params = ModuleParams()
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    params.add("a", a)
    params.add("b", b)
    opt = Adam()
    a.grad = np.ones(3)
    b.grad = None
    opt.step(params, 0.1)
    assert np.all(a.data != 1.0)
    np.testing.assert_array_equal(b.data, np.ones(3))
    assert "b" not in opt.m


def test_adam_rejects_non_finite_gradient_without_changing_state():
    params = ModuleParams()
    a = params.add("a", np.ones(3))
    b = params.child("blk").add("b", np.ones(2))
    opt = Adam()
    a.grad, b.grad = np.ones(3), np.ones(2)
    opt.step(params, 0.1)
    before = {
        "data": [a.data.copy(), b.data.copy()],
        "m": {k: v.copy() for k, v in opt.m.items()},
        "v": {k: v.copy() for k, v in opt.v.items()},
    }
    a.grad, b.grad = np.ones(3), np.array([1.0, np.nan])
    with pytest.raises(NumericalCheckError, match="blk.b"):
        opt.step(params, 0.1)
    assert opt.step_count == 1
    np.testing.assert_array_equal(a.data, before["data"][0])
    np.testing.assert_array_equal(b.data, before["data"][1])
    for key in ("m", "v"):
        moments = getattr(opt, key)
        assert moments.keys() == before[key].keys()
        for path, arr in moments.items():
            np.testing.assert_array_equal(arr, before[key][path])


def test_adam_updates_moments_in_place_even_when_restored_read_only():
    params = ModuleParams()
    t = params.add("w", np.ones(4))
    frozen = {f"adam.{kind}.w": np.full(4, 0.5) for kind in "mv"}
    for arr in frozen.values():
        arr.flags.writeable = False
    opt = Adam()
    opt.load_state_entries({"adam.step": np.asarray(1.0), **frozen})
    t.grad = np.array([0.5, -2.0, 0.01, 3.0])
    opt.step(params, 0.1)
    m, v, data = opt.m["w"], opt.v["w"], t.data
    opt.step(params, 0.1)
    assert opt.m["w"] is m and opt.v["w"] is v and t.data is data
    for arr in frozen.values():
        np.testing.assert_array_equal(arr, np.full(4, 0.5))


def test_train_model_stops_on_non_finite_gradient_before_adam():
    """A NaN weight whose output the relu drops still poisons the gradients
    of the layers below it; the step raises instead of updating the weights."""
    scene = tiny_scene()
    state = init_state(tiny_config(), 0)
    dict(state.model.params.tensors())["backbone.rgb.stage1b.weight"].data[0, 0, 1, 1] = np.nan
    before = {p: t.data.copy() for p, t in state.model.params.tensors()}
    with pytest.raises(NumericalCheckError, match="non-finite gradient for parameter"):
        train_model([scene], state=state, eval_every=0, augment_data=False)
    assert state.optimizer.step_count == 0 and not state.optimizer.m
    for path, t in state.model.params.tensors():
        np.testing.assert_array_equal(t.data, before[path])


def test_train_model_stops_on_non_finite_loss_before_backward():
    scene = tiny_scene()
    state = init_state(tiny_config(), 0)
    dict(state.model.params.tensors())["decoder.head.bias"].data[0] = np.nan
    before = {p: t.data.copy() for p, t in state.model.params.tensors()}
    with pytest.raises(NumericalCheckError, match="non-finite loss .* step 1"):
        train_model([scene], state=state, eval_every=0, augment_data=False)
    assert state.optimizer.step_count == 0
    assert state.log.step_losses == []
    for path, t in state.model.params.tensors():
        assert t.grad is None, path
        np.testing.assert_array_equal(t.data, before[path])


def test_last_steps_gradients_are_freed_before_the_forward(monkeypatch):
    state = init_state(tiny_config(), 0)
    net_class, held = type(state.model), []  # per forward: parameters holding a gradient
    call = net_class.__call__

    def spy(self, *args, **kwargs):
        held.append(sum(t.grad is not None for _, t in self.params.tensors()))
        return call(self, *args, **kwargs)

    monkeypatch.setattr(net_class, "__call__", spy)
    train_model([tiny_scene(0), tiny_scene(1)], state=state, until_epoch=2, eval_every=0)
    assert held == [0, 0, 0, 0]
    assert all(t.grad is not None for _, t in state.model.params.tensors())


@pytest.mark.parametrize("field", ["rgb", "focal", "depth"])
def test_non_finite_scene_stops_before_the_forward_pass(field, monkeypatch):
    scene = tiny_scene()
    getattr(scene, field).reshape(-1)[7] = np.nan
    state = init_state(tiny_config(), 0)
    before = {p: t.data.copy() for p, t in state.model.params.tensors()}

    def forward(*args, **kwargs):
        raise AssertionError("the forward pass ran")

    monkeypatch.setattr(type(state.model), "__call__", forward)
    with pytest.raises(NumericalCheckError, match=f"scene {field} holds non-finite values"):
        train_model([scene], state=state, eval_every=0)
    with pytest.raises(NumericalCheckError, match=f"scene {field} holds non-finite values"):
        predict_scene(state.model, scene)
    assert state.optimizer.step_count == 0 and state.log.step_losses == []
    for path, t in state.model.params.tensors():
        np.testing.assert_array_equal(t.data, before[path])


def test_adam_state_round_trip():
    params = ModuleParams()
    t = Tensor(np.zeros(2))
    params.add("w", t)
    opt = Adam()
    t.grad = np.array([1.0, -1.0])
    opt.step(params, 0.01)
    entries = opt.state_entries()
    assert set(entries) == {"adam.step", "adam.m.w", "adam.v.w"}
    other = Adam()
    other.load_state_entries(entries)
    assert other.step_count == 1
    np.testing.assert_array_equal(other.m["w"], opt.m["w"])
    np.testing.assert_array_equal(other.v["w"], opt.v["w"])
    with pytest.raises(FormatError):
        Adam().load_state_entries({})


def test_learning_rate_schedule_boundary():
    cfg = tiny_config()
    assert learning_rate_for(cfg, 0) == 1e-3
    assert learning_rate_for(cfg, 1) == 1e-3
    assert learning_rate_for(cfg, 2) == 1e-4
    assert learning_rate_for(cfg, 3) == 1e-4


# -- training loop ------------------------------------------------------------------


def test_train_requires_scenes_or_config():
    with pytest.raises(UsageError):
        train_model([], tiny_config())
    with pytest.raises(UsageError):
        train_model([tiny_scene()])


def test_train_is_deterministic():
    scenes = [tiny_scene(0), tiny_scene(1)]
    a = train_model(scenes, tiny_config(), seed=3, until_epoch=2, eval_every=0)
    b = train_model(scenes, tiny_config(), seed=3, until_epoch=2, eval_every=0)
    assert a.log.step_losses == b.log.step_losses
    sa, sb = a.model.params.state(), b.model.params.state()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])
    c = train_model(scenes, tiny_config(), seed=4, until_epoch=2, eval_every=0)
    assert c.log.step_losses != a.log.step_losses


def test_epoch_bookkeeping_and_metrics():
    scenes = [tiny_scene(0), tiny_scene(1)]
    state = train_model(scenes, tiny_config(), until_epoch=2, eval_every=1)
    assert state.epoch == 2
    assert len(state.log.step_losses) == 4
    assert len(state.log.epoch_losses) == 2
    assert [ep for ep, _ in state.log.epoch_metrics] == [1, 2]
    for _, m in state.log.epoch_metrics:
        assert isinstance(m, DepthMetrics)

    silent = train_model(scenes, tiny_config(), until_epoch=1, eval_every=0)
    assert silent.log.epoch_metrics == []


def test_until_epoch_continues_a_state():
    scenes = [tiny_scene(0)]
    straight = train_model(scenes, tiny_config(), seed=5, until_epoch=4, eval_every=0)
    halted = train_model(scenes, tiny_config(), seed=5, until_epoch=2, eval_every=0)
    resumed = train_model(scenes, state=halted, until_epoch=4, eval_every=0)
    assert resumed.log.step_losses == straight.log.step_losses
    sa, sb = straight.model.params.state(), resumed.model.params.state()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])


def test_evaluate_model():
    scenes = [tiny_scene(0), tiny_scene(1)]
    state = train_model(scenes, tiny_config(), until_epoch=1, eval_every=0)
    per_scene, mean = evaluate_model(state.model, scenes)
    assert len(per_scene) == 2
    assert mean.rms == pytest.approx((per_scene[0].rms + per_scene[1].rms) / 2)
    with pytest.raises(UsageError):
        evaluate_model(state.model, [])


def test_negative_eval_every_is_a_usage_error():
    with pytest.raises(UsageError, match="eval_every"):
        train_model([tiny_scene()], tiny_config(), eval_every=-3)


@pytest.mark.parametrize("threads", ["zero", "0"])
def test_bad_thread_env_is_a_config_error_before_the_first_step(monkeypatch, threads):
    monkeypatch.setenv("LFDEPTH_THREADS", threads)
    state = init_state(tiny_config(), 0)
    with pytest.raises(ConfigError, match="LFDEPTH_THREADS"):
        train_model([tiny_scene()], state=state, eval_every=1)
    assert state.log.step_losses == [] and state.optimizer.step_count == 0
    # with epoch metrics off there is no evaluation, so the variable is not read
    train_model([tiny_scene()], state=state, until_epoch=1, eval_every=0)

    def init_state_stub(*args, **kwargs):
        raise AssertionError("a rung was built before LFDEPTH_THREADS was checked")

    monkeypatch.setattr(train_module, "init_state", init_state_stub)
    with pytest.raises(ConfigError, match="LFDEPTH_THREADS"):
        ablation_run([tiny_scene()], ["Baseline"], tiny_config(epochs=1))


def test_an_empty_held_out_list_fails_before_the_first_step(monkeypatch):
    state = init_state(tiny_config(), 0)
    with pytest.raises(UsageError, match="eval_scenes"):
        train_model([tiny_scene()], state=state, eval_scenes=[], eval_every=1)
    assert state.log.step_losses == [] and state.optimizer.step_count == 0

    def init_state_stub(*args, **kwargs):
        raise AssertionError("a rung was built before eval_scenes was checked")

    monkeypatch.setattr(train_module, "init_state", init_state_stub)
    with pytest.raises(UsageError, match="eval_scenes"):
        ablation_run([tiny_scene()], ["Baseline"], tiny_config(epochs=1), eval_scenes=[])


def test_epoch_metrics_and_ablation_do_not_depend_on_the_thread_count(monkeypatch):
    scenes = [tiny_scene(0), tiny_scene(1)]
    held_out = [tiny_scene(2), tiny_scene(3), tiny_scene(4)]
    runs = []
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv("LFDEPTH_THREADS", raising=False)
        else:
            monkeypatch.setenv("LFDEPTH_THREADS", threads)
        state = train_model(scenes, tiny_config(), until_epoch=2, eval_scenes=held_out)
        results = ablation_run(scenes, ["Baseline", "+CRU+CMFA(Ours)"], tiny_config(epochs=1),
                               eval_scenes=held_out)
        runs.append((state.log.epoch_metrics, [(r.name, r.metrics) for r in results]))
    assert len(runs[0][0]) == 2
    assert runs[0] == runs[1]


# -- backward memory -------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_scene():
    return train_module._scene_tensors(generate_scene(GenSpec(seed=5)))


def default_loss(state, scene):
    """The loss of one training step of the default network, before its backward."""
    rgb, focal, gt = scene
    pred = state.model(rgb, focal, mode="train", rng=np.random.default_rng(1))
    return prediction_loss(pred, gt)


def test_freeing_backward_matches_the_keep_all_walk_bitwise(default_scene):
    runs = []
    for walk in (Tensor.backward, backward_keep_all):
        state = init_state(NetworkConfig(), 0)
        loss = default_loss(state, default_scene)
        walk(loss)
        grads = state.model.params.gradients()
        runs.append((loss.data.tobytes(), {path: g.tobytes() for path, g in grads.items()}))
    assert len(runs[0][1]) == len(state.model.params.tensors())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("walk", [Tensor.backward, backward_keep_all])
def test_decoder_activations_are_freed_before_the_first_focal_conv_runs_backward(
        default_scene, walk):
    state = init_state(NetworkConfig(), 0)
    net = state.model
    decoder, alive = [], []  # weakrefs to the decoder's conv outputs; how many live

    def record(layer):
        def call(x):
            out = layer(x)
            decoder.append(weakref.ref(out.data))
            return out
        return call

    for name in ("p5_conv", "p4_conv", "p3_conv", "head"):
        setattr(net, name, record(getattr(net, name)))
    first, second = net.focal_backbone.convs[0]

    def first_conv(x):
        out = first(x)
        run = out._backward_fn

        def backward(g):
            alive.append(sum(ref() is not None for ref in decoder))
            run(g)

        out._backward_fn = backward
        return out

    net.focal_backbone.convs[0] = (first_conv, second)
    loss = default_loss(state, default_scene)
    assert len(decoder) == 4
    # the head conv has no ReLU and only the sigmoid, which keeps its own output, reads it
    assert decoder[3]() is None
    walk(loss)
    # the walk that keeps every closure shows that the weakrefs see live arrays
    assert alive == ([0] if walk is Tensor.backward else [3])


def backward_memory(scene, walk):
    """Traced bytes of a default step's tape after its forward, and the peak of ``walk`` on it."""
    state = init_state(NetworkConfig(), 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = default_loss(state, scene)
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        walk(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return tape, peak


def test_backward_peak_memory_stays_near_the_tape(default_scene):
    tape, peak = backward_memory(default_scene, Tensor.backward)
    assert 50e6 < tape < 66e6
    # one conv backward's column buffer (up to 8 MiB) rides on top of the tape
    assert peak < 80e6


def test_backward_peak_bound_fails_for_a_walk_that_keeps_every_closure(default_scene):
    tape, peak = backward_memory(default_scene, backward_keep_all)
    assert 50e6 < tape < 66e6
    assert peak > 80e6


def test_accum_takes_every_fresh_gradient_without_a_copy(default_scene, monkeypatch):
    """Fresh gradients become the entry's gradient as they are, even for a strided
    ``data`` (the loss crops are ``narrow`` views), and the parameter gradients
    equal those of a walk that copies every gradient, bit for bit."""
    accum = tensor_module._accum
    runs = []
    for take in (True, False):
        state = init_state(NetworkConfig(), 0)
        loss = default_loss(state, default_scene)
        firsts, copied = [], []  # bytes of each first fresh gradient, and of each copied one

        def spy(t, g, fresh=False):
            node = tensor_module._entry(t) if isinstance(t, Tensor) else t
            first = fresh and node.requires_grad and node.grad is None
            accum(t, g, fresh and take)
            if first:
                firsts.append(g.nbytes)
                if node.grad is not g:
                    copied.append(g.nbytes)

        for module in (tensor_module, ops_module):
            monkeypatch.setattr(module, "_accum", spy)
        loss.backward()
        monkeypatch.undo()
        runs.append({path: g.tobytes() for path, g in state.model.params.gradients().items()})
        if take:
            assert len(firsts) > 100 and copied == []
    assert runs[0] == runs[1]


# -- float32 inference -----------------------------------------------------------------


def test_predict_scene_matches_the_float64_forward(monkeypatch):
    """The float32 gate: within 1e-4 of the float64 forward pass, equal delta
    thresholds and rms within 1e-5, with the parameters untouched."""
    scenes = [tiny_scene(seed) for seed in range(3)]
    state = train_model(scenes[:2], tiny_config(), seed=2, until_epoch=1, eval_every=0)
    before = {p: t.data.copy() for p, t in state.model.params.tensors()}
    with no_grad():
        wants = [state.model(Tensor(sc.rgb[None]), Tensor(sc.focal)).data for sc in scenes]
    net, seen = type(state.model), []
    forward = net.__call__

    def spy(self, rgb, focal, **kwargs):
        out = forward(self, rgb, focal, **kwargs)
        seen.append({rgb.data.dtype, focal.data.dtype, out.data.dtype})
        return out

    monkeypatch.setattr(net, "__call__", spy)
    for scene, want in zip(scenes, wants):
        got = predict_scene(state.model, scene)
        assert got.dtype == np.float64 and got.shape == (1, 1, 16, 16)
        assert np.max(np.abs(got - want)) <= 1e-4
        m32, m64 = evaluate(got, scene.depth[None]), evaluate(want, scene.depth[None])
        assert (m32.d1, m32.d2, m32.d3) == (m64.d1, m64.d2, m64.d3)
        assert abs(m32.rms - m64.rms) <= 1e-5
    assert seen == [{np.dtype(np.float32)}] * len(scenes)
    for path, t in state.model.params.tensors():
        assert t.data.dtype == np.float64, path
        assert t.data.tobytes() == before[path].tobytes(), path


def test_forward_does_not_depend_on_the_block_size(monkeypatch):
    """predict_scene and the default float64 forward are bitwise equal with
    8 MiB im2col blocks and with the default; the weight gradients' per-block
    sums are cut in other places, so they agree within the gradcheck tolerance."""
    default = ops_module._BLOCK_BYTES
    assert default < 8 << 20
    state = init_state(NetworkConfig(), 0)
    scenes = [generate_scene(GenSpec(seed=seed)) for seed in range(3)]
    rgb, focal, gt = train_module._scene_tensors(scenes[0])
    runs = []
    for block_bytes in (8 << 20, default):
        monkeypatch.setattr(ops_module, "_BLOCK_BYTES", block_bytes)
        preds = [predict_scene(state.model, sc).tobytes() for sc in scenes]
        state.model.params.zero_grad()
        loss = prediction_loss(state.model(rgb, focal), gt)
        loss.backward()
        runs.append((preds, loss.data.tobytes(), state.model.params.gradients()))
    (preds8, loss8, grads8), (preds, loss, grads) = runs
    assert preds == preds8 and loss == loss8
    assert grads.keys() == grads8.keys() and len(grads) == len(state.model.params.tensors())
    for path, g in grads.items():
        assert max_rel_err(g, grads8[path]) < DEFAULT_TOLERANCE, path


@pytest.mark.parametrize("bias", [50.0, -50.0, -200.0])
def test_predict_scene_stays_inside_the_open_interval_when_saturated(bias):
    state = init_state(tiny_config(), 0)
    state.model.head.bias.data[...] = bias
    pred = predict_scene(state.model, tiny_scene())
    assert pred.min() > 0.0 and pred.max() < 1.0


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    scenes = [tiny_scene(0)]
    state = train_model(scenes, tiny_config(), seed=7, until_epoch=2, eval_every=1)
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, state)
    back = load_checkpoint(path)

    assert back.epoch == state.epoch
    assert back.model.config == state.model.config
    assert back.rng.bit_generator.state == state.rng.bit_generator.state
    assert back.log.step_losses == state.log.step_losses
    assert back.log.epoch_losses == state.log.epoch_losses
    assert back.log.epoch_metrics == state.log.epoch_metrics
    sa, sb = state.model.params.state(), back.model.params.state()
    assert sa.keys() == sb.keys()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])
    assert back.optimizer.step_count == state.optimizer.step_count
    for k in state.optimizer.m:
        np.testing.assert_array_equal(back.optimizer.m[k], state.optimizer.m[k])
        np.testing.assert_array_equal(back.optimizer.v[k], state.optimizer.v[k])


def test_resume_from_disk_replays_bitwise(tmp_path):
    scenes = [tiny_scene(0), tiny_scene(1)]
    straight = train_model(scenes, tiny_config(), seed=9, until_epoch=4, eval_every=0)

    half = train_model(scenes, tiny_config(), seed=9, until_epoch=2, eval_every=0)
    path = tmp_path / "half.lfdp"
    save_checkpoint(path, half)
    resumed = train_model(scenes, state=load_checkpoint(path), until_epoch=4, eval_every=0)

    assert resumed.log.step_losses == straight.log.step_losses
    sa, sb = straight.model.params.state(), resumed.model.params.state()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])


def test_checkpoint_rejects_colliding_parameter_paths(tmp_path):
    params = ModuleParams()
    params.child("adam").add("step", Tensor(np.zeros(1)))
    fake = SimpleNamespace(
        model=SimpleNamespace(params=params),
        optimizer=Adam(),
        rng=np.random.default_rng(0),
        epoch=0,
        log=None,
    )
    with pytest.raises(UsageError):
        save_checkpoint(tmp_path / "bad.lfdp", fake)


def test_load_checkpoint_errors(tmp_path):
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "missing.lfdp")
    (tmp_path / "broken.lfdp.json").write_text("{oops")
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "broken.lfdp")


def first_moment(entries):
    return next(k for k in entries if k.startswith("adam.m."))[len("adam.m.") :]


def set_entries(*pairs):
    def corrupt(entries):
        for key, value in pairs:
            entries[key] = np.asarray(value, dtype=np.float64)
    return corrupt


def drop_v(entries):
    del entries["adam.v." + first_moment(entries)]


def moment_of_shape_one(entries):
    entries["adam.m." + first_moment(entries)] = np.zeros(1)


def non_finite_entry(prefix):
    def corrupt(entries):
        key = next(k for k in entries if k.startswith(prefix))
        entries[key] = entries[key].copy()
        entries[key].flat[0] = np.inf
    return corrupt


CORRUPT_OPTIMIZER_STATE = {
    "step-nan": set_entries(("adam.step", np.nan)),
    "step-inf": set_entries(("adam.step", np.inf)),
    "step-vector": set_entries(("adam.step", [1.0, 2.0])),
    "step-negative": set_entries(("adam.step", -3.0)),
    "step-fraction": set_entries(("adam.step", 1.5)),
    "m-without-v": drop_v,
    "m-of-no-parameter": set_entries(("adam.m.nowhere.weight", [0.0])),
    "pair-of-no-parameter": set_entries(("adam.m.nowhere.weight", [0.0]),
                                        ("adam.v.nowhere.weight", [0.0])),
    "m-of-another-shape": moment_of_shape_one,
    "unknown-entry": set_entries(("adam.x", 0.0)),
    "non-finite-moment": non_finite_entry("adam.v."),
    "non-finite-parameter": non_finite_entry("backbone."),
}


@pytest.fixture(scope="module")
def one_epoch_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.lfdp"
    save_checkpoint(path, train_model([tiny_scene(0)], tiny_config(), seed=3, until_epoch=1,
                                      eval_every=0))
    return path


@pytest.mark.parametrize("case", sorted(CORRUPT_OPTIMIZER_STATE))
def test_corrupt_optimizer_state_is_a_format_error(tmp_path, one_epoch_checkpoint, case):
    entries = load_params(one_epoch_checkpoint)
    CORRUPT_OPTIMIZER_STATE[case](entries)
    path = tmp_path / "bad.lfdp"
    save_params(path, entries)
    (tmp_path / "bad.lfdp.json").write_text(
        (one_epoch_checkpoint.parent / "ckpt.lfdp.json").read_text()
    )
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_cut_inside_a_moment_is_a_format_error_at_load(tmp_path, one_epoch_checkpoint):
    path = copy_with_sidecar(one_epoch_checkpoint, tmp_path, lambda doc: None)
    key = list(load_params(path))[-1]
    assert key.startswith("adam.v.")
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError, match=re.escape(f"{path}: truncated container: data of {key!r}")):
        load_checkpoint(path)


def copy_with_sidecar(src, dst_dir, edit):
    """A copy of checkpoint ``src`` in ``dst_dir`` whose sidecar document ``edit`` changed."""
    path = dst_dir / "ckpt.lfdp"
    path.write_bytes(src.read_bytes())
    doc = json.loads((src.parent / (src.name + ".json")).read_text())
    edit(doc)
    write_json(dst_dir / "ckpt.lfdp.json", doc)
    return path


@pytest.mark.parametrize("epoch", [-5, 0, 2])
def test_sidecar_epoch_must_count_its_epoch_losses(tmp_path, one_epoch_checkpoint, epoch):
    path = copy_with_sidecar(one_epoch_checkpoint, tmp_path, lambda doc: doc.update(epoch=epoch))
    with pytest.raises(FormatError, match="epoch"):
        load_checkpoint(path)


def test_load_checkpoint_draws_no_init_values(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    calls = []

    def spy(rng, shape, fan_in, real=kaiming_normal):
        calls.append(rng)
        return real(rng, shape, fan_in)

    # every module that imported the init function calls it by its own name
    for mod in list(sys.modules.values()):
        if mod is not None and getattr(mod, "kaiming_normal", None) is kaiming_normal:
            monkeypatch.setattr(mod, "kaiming_normal", spy)
    load_checkpoint(path)
    assert calls and all(rng is None for rng in calls)


def test_load_checkpoint_peak_memory_stays_near_the_container_size(tmp_path):
    path = tmp_path / "ckpt.lfdp"
    # one step, so the container holds the Adam moments as well as the parameters
    save_checkpoint(path, train_model([generate_scene(GenSpec())], NetworkConfig(),
                                      until_epoch=1, eval_every=0))
    tracemalloc.start()
    try:
        state = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.model.params.count() > 2_000_000
    assert peak < 1.5 * path.stat().st_size


def test_load_checkpoint_peaks_near_the_parameters_it_keeps(tmp_path):
    """The blank model allocates nothing, so a load peaks at the parameters'
    third of the container and the small buffer that checks the moments."""
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, train_model([generate_scene(GenSpec())], NetworkConfig(),
                                      until_epoch=1, eval_every=0))
    tracemalloc.start()
    try:
        load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * path.stat().st_size


def test_loaded_arrays_are_writable_and_unshared(tmp_path, one_epoch_checkpoint):
    arrays = []
    for _ in range(2):
        state = load_checkpoint(one_epoch_checkpoint)
        arrays += [t.data for _, t in state.model.params.tensors()]
        arrays += list(state.optimizer.m.values()) + list(state.optimizer.v.values())
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable
    # bounds overlap is exact here: every array is its own allocation
    for i, a in enumerate(arrays):
        assert not any(np.may_share_memory(a, b) for b in arrays[i + 1 :])


def test_load_checkpoint_leaves_the_optimizer_moments_on_disk(tmp_path):
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, train_model([generate_scene(GenSpec())], NetworkConfig(),
                                      until_epoch=1, eval_every=0))
    tracemalloc.start()
    try:
        state = load_checkpoint(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # the parameters are a third of the container, the moments the rest
    assert kept < 0.4 * size and peak < 0.75 * size
    assert len(state.optimizer.m) == len(state.model.params.tensors())


def weights_digest(state):
    digest = hashlib.sha256()
    for _, t in state.model.params.tensors():
        digest.update(t.data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("change", ["overwrite", "delete"])
def test_evaluation_never_reads_the_optimizer_moments(tmp_path, one_epoch_checkpoint, change):
    path = copy_with_sidecar(one_epoch_checkpoint, tmp_path, lambda doc: None)
    state = load_checkpoint(path)
    scenes = [tiny_scene(0), tiny_scene(1)]
    metrics = evaluate_model(state.model, scenes)
    preds = [predict_scene(state.model, sc).tobytes() for sc in scenes]
    weights = weights_digest(state)
    records = {k: v for k, v in load_params(path, defer=("adam.m.", "adam.v.")).items()
               if isinstance(v, DiskEntry)}
    if change == "overwrite":
        key = list(records)[-1]
        value = read_entries(path, {key: records[key]})[key].flat[0] + 1.0
        with open(path, "r+b") as fh:
            fh.seek(records[key].offset)
            fh.write(np.float64(value).tobytes())
    else:
        key = next(iter(records))  # the first one read back
        path.unlink()

    assert evaluate_model(state.model, scenes) == metrics
    assert [predict_scene(state.model, sc).tobytes() for sc in scenes] == preds
    names = re.escape(str(path)) + ".*" + re.escape(repr(key))
    with pytest.raises(FormatError, match=names):
        state.optimizer.m
    with pytest.raises(FormatError, match=names):
        train_model([tiny_scene(0)], state=state, until_epoch=2, eval_every=0)
    assert weights_digest(state) == weights
    assert state.optimizer.step_count == 1


def test_saving_over_the_checkpoint_just_loaded_keeps_its_bytes(tmp_path, one_epoch_checkpoint):
    path = copy_with_sidecar(one_epoch_checkpoint, tmp_path, lambda doc: None)
    sidecar = tmp_path / "ckpt.lfdp.json"
    before = path.read_bytes(), sidecar.read_bytes()
    save_checkpoint(path, load_checkpoint(path))
    assert (path.read_bytes(), sidecar.read_bytes()) == before


@pytest.mark.parametrize("augment, eval_every", [(False, 0), (True, 3)])
def test_checkpoint_keeps_the_run_settings(tmp_path, augment, eval_every):
    state = train_model([tiny_scene(0)], tiny_config(), until_epoch=1,
                        augment_data=augment, eval_every=eval_every)
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert (back.augment, back.eval_every) == (augment, eval_every)


def test_sidecar_without_run_settings_loads_without_them(tmp_path, one_epoch_checkpoint):
    def drop_settings(doc):
        del doc["augment"], doc["eval_every"]

    back = load_checkpoint(copy_with_sidecar(one_epoch_checkpoint, tmp_path, drop_settings))
    assert (back.augment, back.eval_every) == (None, None)


@pytest.mark.parametrize("key, value", [("augment", 1), ("augment", None),
                                        ("eval_every", True), ("eval_every", -1),
                                        ("eval_every", 1.5)])
def test_sidecar_with_malformed_run_setting_is_a_format_error(tmp_path, one_epoch_checkpoint,
                                                              key, value):
    path = copy_with_sidecar(one_epoch_checkpoint, tmp_path, lambda doc: doc.update({key: value}))
    with pytest.raises(FormatError, match=key):
        load_checkpoint(path)


def test_negative_seed_is_a_config_error_before_training(monkeypatch):
    with pytest.raises(ConfigError):
        init_state(tiny_config(), -1)
    with pytest.raises(ConfigError):
        train_model([tiny_scene(0)], tiny_config(), seed=-1)
    monkeypatch.setattr(train_module, "DepthNet", None)  # any model build would fail
    with pytest.raises(ConfigError):
        ablation_run([tiny_scene(0)], ["Baseline"], tiny_config(), seed=-1)


# Configs written before these settings became constants carry them at
# the one value the network runs at.
RETIRED_KEYS = {"batch_size": 1, "deep_supervision": False,
                "plain_stack_depth": 6, "dropout_rate": 0.5, "loss_weights": [1.0, 1.0, 1.0]}


def add_to_sidecar(path, **keys):
    sidecar = str(path) + ".json"
    with open(sidecar) as fh:
        doc = json.load(fh)
    doc["config"].update(keys)
    with open(sidecar, "w") as fh:
        json.dump(doc, fh)


def test_sidecar_with_retired_keys_resumes_bitwise(tmp_path):
    scenes = [tiny_scene(0), tiny_scene(1)]
    half = train_model(scenes, tiny_config(), seed=9, until_epoch=2, eval_every=0)
    path = tmp_path / "half.lfdp"
    save_checkpoint(path, half)
    current = train_model(scenes, state=load_checkpoint(path), until_epoch=4, eval_every=0)

    add_to_sidecar(path, **RETIRED_KEYS)
    loaded = load_checkpoint(path)
    assert loaded.model.config == half.model.config
    older = train_model(scenes, state=loaded, until_epoch=4, eval_every=0)

    assert older.log.step_losses == current.log.step_losses
    sa, sb = current.model.params.state(), older.model.params.state()
    assert sa.keys() == sb.keys()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])


@pytest.mark.parametrize("key, value", [
    ("batch_size", 2),
    ("deep_supervision", True),
    ("plain_stack_depth", 5),
    ("dropout_rate", 0.3),
    ("batch_size", True),
    ("deep_supervision", 0),
    ("plain_stack_depth", 6.0),
    ("loss_weights", [2, 1, 1]),
    ("loss_weights", [True, 1, 1]),
])
def test_sidecar_with_retired_key_at_another_value_is_a_format_error(tmp_path, key, value):
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    add_to_sidecar(path, **{key: value})
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert key in str(err.value)


@pytest.mark.parametrize("weights", [[1, 1, 1], [1.0, 1, 1]])
def test_sidecar_with_int_unit_loss_weights_loads(tmp_path, weights):
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    add_to_sidecar(path, loss_weights=weights)
    assert load_checkpoint(path).model.config == tiny_config()


# (path into the sidecar, bad value); the empty path replaces the whole document
MALFORMED_SIDECARS = [
    ((), []),
    (("config",), 5),
    (("epoch",), "x"),
    (("rng_state",), 5),
    (("step_losses",), 5),
    (("metrics",), [1]),
    (("config", "height"), "16"),
    (("config", "stage_channels"), 5),
    (("config", "loss_weights"), [1, 1, "a"]),
    (("config", "use_cru"), 1),
]


@pytest.mark.parametrize("keys, value", [
    pytest.param(keys, value, id=".".join(keys) or "document") for keys, value in MALFORMED_SIDECARS
])
def test_malformed_sidecar_is_a_format_error(tmp_path, keys, value):
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    sidecar = tmp_path / "ckpt.lfdp.json"
    doc = json.loads(sidecar.read_text())
    if keys:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    else:
        doc = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("text", [b'{"config": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_sidecar_is_a_format_error(tmp_path, text):
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    (tmp_path / "ckpt.lfdp.json").write_bytes(text)
    with pytest.raises(FormatError):
        load_checkpoint(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
network_keys = st.sampled_from(sorted(config_to_dict(NetworkConfig())) + sorted(RETIRED_KEYS))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(json_values | st.dictionaries(network_keys, json_values, max_size=6))
def test_any_json_config_is_valid_or_a_format_error(doc):
    try:
        config = config_from_dict(doc)
    except FormatError:
        return
    assert isinstance(config, NetworkConfig)


@pytest.mark.parametrize("key, value", [("height", 0), ("width", -16), ("decoder_channels", 0)])
def test_config_with_non_positive_extent_is_a_format_error(tmp_path, key, value):
    doc = {**config_to_dict(tiny_config()), key: value}
    with pytest.raises(FormatError, match=str(value)):
        config_from_dict(doc)
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    sidecar = tmp_path / "ckpt.lfdp.json"
    side = json.loads(sidecar.read_text())
    side["config"][key] = value
    sidecar.write_text(json.dumps(side))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("learning_rate", float("nan")),
    ("lr_drop", float("inf")),
    ("loss_weights", [1.0, float("nan"), 1.0]),
    ("loss_weights", [1.0, 1.0, -float("inf")]),
])
def test_config_with_non_finite_rate_or_weight_is_a_format_error(tmp_path, key, value):
    doc = {**config_to_dict(tiny_config()), key: value}
    with pytest.raises(FormatError, match=key):
        config_from_dict(doc)
    path = tmp_path / "ckpt.lfdp"
    save_checkpoint(path, init_state(tiny_config(), 0))
    sidecar = tmp_path / "ckpt.lfdp.json"
    side = json.loads(sidecar.read_text())
    side["config"][key] = value
    sidecar.write_text(json.dumps(side))  # json writes NaN and Infinity, and reads them back
    with pytest.raises(FormatError, match=key):
        load_checkpoint(path)


def test_config_dict_round_trip():
    cfg = tiny_config(stage_channels=(2, 4, 6, 8, 10), use_cmfa=False)
    doc = config_to_dict(cfg)
    assert config_from_dict(doc) == cfg
    assert config_from_dict(json.loads(json.dumps(doc))) == cfg
    with pytest.raises(FormatError) as err:
        config_from_dict({**doc, "warmup_epochs": 3})
    assert "warmup_epochs" in str(err.value)


# -- ablation harness --------------------------------------------------------------


def test_ablation_run_covers_names():
    scenes = [tiny_scene(0), tiny_scene(1)]
    results = ablation_run(
        scenes, ["Baseline", "+CRU+CMFA(Ours)"], tiny_config(epochs=1),
        seed=0, augment_data=False,
    )
    assert [r.name for r in results] == ["Baseline", "+CRU+CMFA(Ours)"]
    for r in results:
        assert r.param_count > 0
        assert len(r.log.epoch_losses) == 1
        assert np.isfinite(r.metrics.rms)


def test_each_rung_is_scored_once_by_its_training_run():
    scenes = [tiny_scene(0), tiny_scene(1)]
    held_out = [tiny_scene(2), tiny_scene(3)]
    config = tiny_config(epochs=2)
    (result,) = ablation_run(scenes, ["+CRU+CMFA(Ours)"], config, seed=4, eval_scenes=held_out)
    assert result.log.epoch_metrics == [(2, result.metrics)]
    straight = train_model(scenes, config, 4, eval_every=0)
    assert result.log.step_losses == straight.log.step_losses
    assert result.metrics == evaluate_model(straight.model, held_out)[1]


def test_ablation_run_checks_every_name_before_training(monkeypatch):
    def train_model(*args, **kwargs):
        raise AssertionError("a rung trained before every name was checked")

    monkeypatch.setattr(train_module, "train_model", train_model)
    with pytest.raises(UsageError) as err:
        ablation_run([tiny_scene(0)], ["Baseline", "Extra"], tiny_config(epochs=1))
    assert "Extra" in str(err.value)


def test_format_metric_drops_leading_zero():
    assert format_metric(0.4182) == ".4182"
    assert format_metric(1.25) == "1.2500"
    assert format_metric(0.0) == ".0000"
    assert format_metric(-0.5) == "-.5000"
    assert format_metric(0.99999) == "1.0000"


def test_format_table_layout():
    rows = [
        ("Baseline", DepthMetrics(0.4182, 0.21, 0.09, 0.55, 0.8, 0.93)),
        ("+CRU+CMFA(Ours)", DepthMetrics(0.2561, 0.18, 0.07, 0.62, 0.85, 0.95)),
    ]
    table = format_table("model", rows)
    lines = table.splitlines()
    assert lines[0].split() == ["model", "rms", "abs", "rel", "sq", "rel", "d1", "d2", "d3"]
    assert set(lines[1]) == {"-"}
    assert lines[2].startswith("Baseline")
    assert ".4182" in lines[2]
    assert lines[3].startswith("+CRU+CMFA(Ours)")
    assert ".2561" in lines[3]
    assert len({len(line) for line in lines}) == 1


# -- convergence helpers --------------------------------------------------------------


def test_metrics_dict_field_order_and_roundtrip():
    m = DepthMetrics(0.5, 0.25, 0.125, 0.75, 0.875, 1.0)
    doc = m.as_dict()
    assert list(doc) == ["rms", "abs_rel", "sq_rel", "d1", "d2", "d3"]
    assert list(doc.values()) == list(m.row())
    assert _metrics_from_doc([{"epoch": 3, **doc}]) == [(3, m)]


def test_moving_average():
    assert moving_average([1.0, 2.0, 3.0, 4.0], 2) == [1.5, 2.5, 3.5]
    assert moving_average([1.0, 2.0], 3) == []
    assert moving_average([2.0, 4.0, 6.0], 3) == [4.0]


def test_is_monotone_decreasing():
    assert is_monotone_decreasing([3.0, 2.0, 2.0, 1.0])
    assert not is_monotone_decreasing([1.0, 2.0])
    assert is_monotone_decreasing([1.0, 1.05], tolerance=0.1)
    assert is_monotone_decreasing([])
