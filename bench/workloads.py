"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next item starts only
after the previous one has finished.  A workload runs in whole cycles (a
training round, a pass over the held-out scenes, four scenes of every style
pair), so a run always covers the same mix of items and per-item counts
repeat exactly.  Every input comes from the run's seed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lfdepth import metrics, model, synthdata, train

SCENE_SEED_STRIDE = 1000      # scene i of seed n uses generator seed 1000*n + i
TRAIN_SCENES = 3              # one per depth style
ROUND_EPOCHS = 4              # train-full: 12 optimizer steps per round
EVAL_SETUP_SCENES = 2         # eval-full: one epoch on these makes its checkpoint
HELD_OUT = 3                  # held-out scenes, one per depth style
DATAGEN_CYCLE = 36            # four scenes per (depth style, texture style) pair
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An output check failed; the item counts as failed."""


@dataclass
class Item:
    seconds: float
    ok: bool


@dataclass
class CycleResult:
    items: list[Item]
    errors: list[str] = field(default_factory=list)


def scene_spec(seed: int, i: int) -> synthdata.GenSpec:
    """Scene i of a run: styles cycle exactly as in ``generate_dataset``."""
    depth_styles, textures = synthdata.DEPTH_STYLES, synthdata.TEXTURE_STYLES
    return synthdata.GenSpec(
        seed=SCENE_SEED_STRIDE * seed + i,
        depth_style=depth_styles[i % len(depth_styles)],
        texture_style=textures[(i // len(depth_styles)) % len(textures)],
    )


def generate(seed: int, indices) -> list[synthdata.Scene]:
    return [synthdata.generate_scene(scene_spec(seed, i)) for i in indices]


def timed_items(count: int, item, tracer) -> CycleResult:
    """Run ``item(k)`` for k in range(count), timing each call."""
    items, errors = [], []
    for k in range(count):
        if tracer:
            tracer.item += 1
        t0 = perf_counter()
        try:
            item(k)
            ok = True
        except Exception as err:  # an item that raises counts as failed
            errors.append(f"{type(err).__name__}: {err}")
            ok = False
        items.append(Item(perf_counter() - t0, ok))
    return CycleResult(items, errors)


# -- output checks ------------------------------------------------------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)


def check_losses(losses) -> None:
    bad = [i for i, v in enumerate(losses) if not np.isfinite(v)]
    if bad:
        raise CheckFailed(f"non-finite loss at steps {bad}")


def check_checkpoint(state: train.TrainState, loaded: train.TrainState) -> None:
    """The checkpoint round trip restores the run bit for bit."""
    if not _same_arrays(state.model.params.state(), loaded.model.params.state()):
        raise CheckFailed("checkpoint round trip changed the parameters")
    opt, opt2 = state.optimizer, loaded.optimizer
    if opt.step_count != opt2.step_count or not (
        _same_arrays(opt.m, opt2.m) and _same_arrays(opt.v, opt2.v)
    ):
        raise CheckFailed("checkpoint round trip changed the Adam state")
    if state.rng.bit_generator.state != loaded.rng.bit_generator.state:
        raise CheckFailed("checkpoint round trip changed the generator state")
    if state.epoch != loaded.epoch or state.log.step_losses != loaded.log.step_losses:
        raise CheckFailed("checkpoint round trip changed the training log")


def check_prediction(pred: np.ndarray, height: int, width: int) -> None:
    if pred.shape != (1, 1, height, width):
        raise CheckFailed(f"prediction shape {pred.shape}, expected (1, 1, {height}, {width})")
    if not np.all(np.isfinite(pred)):
        raise CheckFailed("prediction has non-finite values")
    if not (pred.min() > 0.0 and pred.max() < 1.0):
        raise CheckFailed(f"prediction leaves (0, 1): [{pred.min()}, {pred.max()}]")


def check_roundtrip(scene: synthdata.Scene, back: synthdata.Scene) -> None:
    """read_scene(write_scene(s)) equals s within PNM quantization."""
    pairs = (("rgb", 1 / 255), ("focal", 1 / 255), ("depth", 1 / 65535))
    for name, tol in pairs:
        a, b = getattr(scene, name), getattr(back, name)
        if a.shape != b.shape:
            raise CheckFailed(f"{name} shape {b.shape} read back, {a.shape} written")
        err = float(np.max(np.abs(a - b)))
        if not err <= tol:
            raise CheckFailed(f"{name} read back off by {err:.3g} (> {tol:.3g})")
    if not _same_bits(scene.focus_depths, back.focus_depths):
        raise CheckFailed("focus depths changed on the round trip")


def check_same_metrics(first: metrics.DepthMetrics, again: metrics.DepthMetrics) -> None:
    if first != again:
        raise CheckFailed(f"metrics differ between identical calls: {first} vs {again}")


# -- workloads -------------------------------------------------------------------------


class Workload:
    name: str

    def teardown(self, ctx: dict) -> None:
        pass


class TrainFull(Workload):
    """Rounds of ``train_model`` on the full model, each ended by a checkpoint
    write and read-back; an item is one optimizer step."""

    name = "train-full"

    def setup(self, seed: int, workdir: str) -> dict:
        return {
            "seed": seed,
            "scenes": generate(seed, range(TRAIN_SCENES)),
            "ckpt": os.path.join(workdir, "train-full.lfdp"),
            "final_losses": [],
        }

    def cycle(self, ctx: dict, tracer) -> CycleResult:
        steps = TRAIN_SCENES * ROUND_EPOCHS
        if tracer:
            tracer.item += 1
        state = train.init_state(model.NetworkConfig(), ctx["seed"])
        if tracer:
            tracer.instrument_model(state.model)
        opt = state.optimizer
        stamps = [perf_counter()]

        def stamped_step(params, lr):
            type(opt).step(opt, params, lr)
            stamps.append(perf_counter())
            if tracer and len(stamps) <= steps:
                tracer.item += 1

        opt.step = stamped_step
        errors = []
        try:
            train.train_model(ctx["scenes"], state=state, until_epoch=ROUND_EPOCHS,
                              eval_every=0, augment_data=True)
            train.save_checkpoint(ctx["ckpt"], state)
            loaded = train.load_checkpoint(ctx["ckpt"])
            check_checkpoint(state, loaded)
            round_ok = True
        except Exception as err:  # the round's output is lost: its steps all fail
            errors.append(f"{type(err).__name__}: {err}")
            round_ok, loaded = False, None
        finally:
            # stamped_step refers to opt: break the cycle so that the round's
            # Adam moments are freed now, not at the next garbage collection
            del opt.step
        durations = np.diff(stamps)
        losses = state.log.step_losses
        items = [
            Item(float(d), round_ok and bool(np.isfinite(v))) for d, v in zip(durations, losses)
        ]
        if len(items) < steps:
            items.append(Item(perf_counter() - stamps[-1], False))
        try:
            check_losses(losses)
        except CheckFailed as err:
            errors.append(str(err))
        if loaded is not None:
            ctx["final_losses"].append(loaded.log.epoch_losses[-1])
        return CycleResult(items, errors)

    def finish(self, ctx: dict) -> tuple[dict, list[str]]:
        losses = ctx["final_losses"]
        if not losses:
            return {}, ["no training round completed"]
        errors = []
        if any(v != losses[0] for v in losses):
            errors.append(f"identical rounds ended on different losses: {losses}")
        return {"train_loss_final": losses[0]}, errors


def make_eval_checkpoint(seed: int, path: str) -> None:
    """eval-full's checkpoint: a short seeded training on scenes of its own.

    Runs in a child process so that eval-full's peak RSS is that of
    evaluation, not of this training.
    """
    scenes = generate(seed, range(EVAL_SETUP_SCENES))
    state = train.train_model(scenes, model.NetworkConfig(), seed, until_epoch=1,
                              eval_every=0, augment_data=True)
    train.save_checkpoint(path, state)


class EvalFull(Workload):
    """``predict_scene`` plus ``evaluate`` on held-out scenes with a restored
    checkpoint, as ``lfdepth eval`` does with one worker; an item is one scene."""

    name = "eval-full"

    def setup(self, seed: int, workdir: str) -> dict:
        ckpt = os.path.join(workdir, "eval-full.lfdp")
        here = Path(__file__).resolve().parent
        code = (f"import sys; sys.path[:0] = {[str(here), str(here.parent / 'src')]!r}; "
                f"import workloads; workloads.make_eval_checkpoint({seed}, {ckpt!r})")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        scenes = generate(seed, range(TRAIN_SCENES, TRAIN_SCENES + HELD_OUT))
        state = train.load_checkpoint(ckpt)
        return {"state": state, "scenes": scenes, "first": [None] * len(scenes)}

    def item(self, ctx: dict, k: int) -> None:
        sc = ctx["scenes"][k]
        pred = train.predict_scene(ctx["state"].model, sc)
        check_prediction(pred, *sc.depth.shape[1:])
        m = metrics.evaluate(pred, sc.depth[None])
        if ctx["first"][k] is None:
            ctx["first"][k] = m
        check_same_metrics(ctx["first"][k], m)

    def cycle(self, ctx: dict, tracer) -> CycleResult:
        if tracer:
            tracer.instrument_model(ctx["state"].model)
        return timed_items(len(ctx["scenes"]), lambda k: self.item(ctx, k), tracer)

    def finish(self, ctx: dict) -> tuple[dict, list[str]]:
        first = ctx["first"]
        if any(m is None for m in first):
            return {}, ["some held-out scene never evaluated cleanly"]
        mean = metrics.aggregate(first)
        _, reference = train.evaluate_model(ctx["state"].model, ctx["scenes"])
        errors = []
        try:
            check_same_metrics(reference, mean)
        except CheckFailed as err:
            errors.append(f"per-scene aggregate differs from evaluate_model: {err}")
        return {"eval_rms": mean.rms}, errors


class Datagen(Workload):
    """generate_scene -> write_scene -> read_scene into a scratch directory;
    an item is one scene, styles cycling as in ``generate_dataset``."""

    name = "datagen"

    def setup(self, seed: int, workdir: str) -> dict:
        ctx = {
            "specs": [scene_spec(seed, i) for i in range(DATAGEN_CYCLE)],
            "dir": tempfile.mkdtemp(prefix="datagen-", dir=workdir),
        }
        self.item(ctx, 0)  # warm-up, so the timed loop starts with allocations done
        return ctx

    def teardown(self, ctx: dict) -> None:
        shutil.rmtree(ctx["dir"], ignore_errors=True)

    def item(self, ctx: dict, k: int) -> None:
        scene = synthdata.generate_scene(ctx["specs"][k])
        path = os.path.join(ctx["dir"], f"scene_{k:04d}")
        synthdata.write_scene(scene, path)
        check_roundtrip(scene, synthdata.read_scene(path))

    def cycle(self, ctx: dict, tracer) -> CycleResult:
        return timed_items(len(ctx["specs"]), lambda k: self.item(ctx, k), tracer)

    def finish(self, ctx: dict) -> tuple[dict, list[str]]:
        return {}, []


WORKLOADS = {w.name: w for w in (TrainFull(), EvalFull(), Datagen())}
