"""Training loop, optimizer, checkpoints, and the ablation harness.

The optimizer is adaptive-moment descent (beta1 0.9, beta2 0.999, eps 1e-8)
with batch size 1 and a step learning-rate schedule that drops once at a
configured epoch.  A checkpoint is the parameter container with the
optimizer moments stored alongside under "adam." keys, plus a JSON sidecar
holding the config, epoch counter, generator state, and metric history, so
a resumed run replays bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, NumericalCheckError, UsageError
from .metrics import DepthMetrics, aggregate, evaluate
from .model import DepthNet, NetworkConfig, ladder_config, prediction_loss
from .params import load_params, save_params
from .synthdata import Scene, augment
from .tensor import Tensor, no_grad


class Adam:
    """Adaptive-moment descent over a parameter tree.

    First and second moments are kept per parameter path and created on the
    first step, so a freshly built optimizer serializes to just the step
    counter.  A step whose gradients are not all finite raises
    NumericalCheckError before it changes any moment or weight.
    """

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params, lr: float) -> None:
        graded = [(path, t) for path, t in params.tensors() if t.grad is not None]
        for path, t in graded:
            if not np.all(np.isfinite(t.grad)):
                raise NumericalCheckError(f"non-finite gradient for parameter {path!r}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for path, t in graded:
            g = t.grad
            m = self.m.get(path)
            v = self.v.get(path)
            if m is None:
                m = np.zeros_like(t.data)
                v = np.zeros_like(t.data)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[path] = m
            self.v[path] = v
            t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_entries(self) -> dict[str, np.ndarray]:
        out = {"adam.step": np.asarray(float(self.step_count))}
        for path, m in self.m.items():
            out[f"adam.m.{path}"] = m
        for path, v in self.v.items():
            out[f"adam.v.{path}"] = v
        return out

    def load_state_entries(self, entries: dict[str, np.ndarray]) -> None:
        if "adam.step" not in entries:
            raise FormatError("checkpoint is missing the optimizer step counter")
        self.step_count = int(entries["adam.step"])
        self.m = {
            k[len("adam.m.") :]: np.array(v) for k, v in entries.items()
            if k.startswith("adam.m.")
        }
        self.v = {
            k[len("adam.v.") :]: np.array(v) for k, v in entries.items()
            if k.startswith("adam.v.")
        }


def learning_rate_for(config: NetworkConfig, epoch: int) -> float:
    """Piecewise-constant schedule; ``epoch`` is 0-indexed."""
    return config.learning_rate if epoch < config.lr_drop_epoch else config.lr_drop


@dataclass
class TrainLog:
    step_losses: list = field(default_factory=list)
    epoch_losses: list = field(default_factory=list)     # mean step loss per epoch
    epoch_metrics: list = field(default_factory=list)    # (epoch, DepthMetrics) pairs


@dataclass
class TrainState:
    model: DepthNet
    optimizer: Adam
    rng: np.random.Generator
    epoch: int            # epochs completed so far
    log: TrainLog
    config: NetworkConfig


def init_state(config: NetworkConfig, seed: int) -> TrainState:
    init_rng = np.random.default_rng(seed)
    model = DepthNet(config, init_rng)
    # separate stream for shuffling/augmentation/dropout so resumed runs
    # only need this one generator's state
    run_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return TrainState(
        model=model, optimizer=Adam(), rng=run_rng, epoch=0,
        log=TrainLog(), config=config,
    )


def _scene_tensors(scene: Scene) -> tuple[Tensor, Tensor, Tensor]:
    rgb = Tensor(np.ascontiguousarray(scene.rgb[None]))
    focal = Tensor(np.ascontiguousarray(scene.focal))
    gt = Tensor(np.ascontiguousarray(scene.depth[None]))
    return rgb, focal, gt


def predict_scene(model: DepthNet, scene: Scene) -> np.ndarray:
    """Depth map [1,1,H,W] for one scene, reference semantics, no tape."""
    rgb, focal, _ = _scene_tensors(scene)
    with no_grad():
        out = model(rgb, focal, mode="eval")
    return out.depth.data


def evaluate_model(model: DepthNet, scenes: list[Scene], eps: float = 1e-3):
    """Per-scene metrics and their unweighted mean."""
    if not scenes:
        raise UsageError("cannot evaluate on an empty scene list")
    per_scene = [evaluate(predict_scene(model, sc), sc.depth[None], eps) for sc in scenes]
    return per_scene, aggregate(per_scene)


def train_model(
    scenes: list[Scene],
    config: NetworkConfig | None = None,
    seed: int = 0,
    *,
    state: TrainState | None = None,
    until_epoch: int | None = None,
    max_steps: int | None = None,
    eval_scenes: list[Scene] | None = None,
    eval_every: int = 1,
    augment_data: bool = True,
    verbose: bool = False,
) -> TrainState:
    """Run the training loop, fresh or resumed.

    With ``state`` given, continues that run (``config``/``seed`` are then
    taken from it); otherwise builds a new model from ``seed``.  Stops after
    ``until_epoch`` epochs total (default: the config's epoch cap) or
    ``max_steps`` optimizer steps, whichever comes first.  ``eval_every``
    controls how often epoch metrics are computed (0 disables).  A
    non-finite loss raises NumericalCheckError before its backward pass.
    """
    if not scenes:
        raise UsageError("training needs at least one scene")
    if state is None:
        if config is None:
            raise UsageError("pass a config or a state to train from")
        state = init_state(config, seed)
    config = state.config
    if until_epoch is None:
        until_epoch = config.epochs
    held_out = eval_scenes if eval_scenes is not None else scenes

    while state.epoch < until_epoch:
        if max_steps is not None and len(state.log.step_losses) >= max_steps:
            break
        epoch = state.epoch
        lr = learning_rate_for(config, epoch)
        order = state.rng.permutation(len(scenes))
        epoch_loss_sum = 0.0
        steps_this_epoch = 0
        for idx in order:
            if max_steps is not None and len(state.log.step_losses) >= max_steps:
                break
            scene = scenes[int(idx)]
            if augment_data:
                scene = augment(scene, state.rng)
            rgb, focal, gt = _scene_tensors(scene)
            out = state.model(rgb, focal, mode="train", rng=state.rng)
            loss = prediction_loss(out, gt, config.loss_weights)
            value = float(loss.data)
            if not np.isfinite(value):
                step = len(state.log.step_losses) + 1
                raise NumericalCheckError(f"non-finite loss {value} at step {step}")
            state.model.params.zero_grad()
            loss.backward()
            state.optimizer.step(state.model.params, lr)
            state.log.step_losses.append(value)
            epoch_loss_sum += value
            steps_this_epoch += 1
        if steps_this_epoch == 0:
            break
        state.epoch += 1
        state.log.epoch_losses.append(epoch_loss_sum / steps_this_epoch)
        if eval_every and (state.epoch % eval_every == 0 or state.epoch == until_epoch):
            _, mean = evaluate_model(state.model, held_out)
            state.log.epoch_metrics.append((state.epoch, mean))
            if verbose:
                print(
                    f"epoch {state.epoch:3d}  loss {state.log.epoch_losses[-1]:.4f}"
                    f"  rms {mean.rms:.4f}  d1 {mean.d1:.4f}"
                )
        elif verbose:
            print(f"epoch {state.epoch:3d}  loss {state.log.epoch_losses[-1]:.4f}")
    return state


# -- checkpoints --------------------------------------------------------------


def config_to_dict(config: NetworkConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(doc: dict) -> NetworkConfig:
    fields_by_name = {f.name: f for f in dataclasses.fields(NetworkConfig)}
    unknown = sorted(set(doc) - set(fields_by_name))
    if unknown:
        raise FormatError(f"unknown config keys: {unknown}")
    kwargs = {}
    for name, value in doc.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return NetworkConfig(**kwargs)


def _metrics_to_doc(pairs) -> list:
    return [{"epoch": int(ep), **m.as_dict()} for ep, m in pairs]


def _metrics_from_doc(rows) -> list:
    names = [f.name for f in dataclasses.fields(DepthMetrics)]
    return [
        (int(row["epoch"]), DepthMetrics(**{k: float(row[k]) for k in names}))
        for row in rows
    ]


def save_checkpoint(path, state: TrainState) -> None:
    """Container with parameters and optimizer moments, plus a JSON sidecar."""
    entries = state.model.params.state()
    for key in entries:
        if key.startswith("adam."):
            raise UsageError(f"parameter path {key!r} collides with optimizer storage")
    entries.update(state.optimizer.state_entries())
    save_params(path, entries)
    sidecar = {
        "config": config_to_dict(state.config),
        "epoch": state.epoch,
        "rng_state": state.rng.bit_generator.state,
        "metrics": _metrics_to_doc(state.log.epoch_metrics),
        "step_losses": state.log.step_losses,
        "epoch_losses": state.log.epoch_losses,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)


def load_checkpoint(path) -> TrainState:
    sidecar_path = str(path) + ".json"
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
    except OSError as err:
        raise FormatError(f"{sidecar_path}: {err}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"{sidecar_path}: bad JSON at offset {err.pos}") from None
    try:
        config = config_from_dict(sidecar["config"])
        epoch = int(sidecar["epoch"])
        rng_state = sidecar["rng_state"]
    except KeyError as err:
        raise FormatError(f"{sidecar_path}: missing field {err}") from None

    entries = load_params(path)
    param_entries = {k: v for k, v in entries.items() if not k.startswith("adam.")}
    adam_entries = {k: v for k, v in entries.items() if k.startswith("adam.")}

    model = DepthNet(config, np.random.default_rng(0))  # init overwritten below
    model.params.load_state(param_entries, strict=True)
    optimizer = Adam()
    optimizer.load_state_entries(adam_entries)

    rng = np.random.default_rng(0)
    rng.bit_generator.state = rng_state

    log = TrainLog(
        step_losses=[float(v) for v in sidecar.get("step_losses", [])],
        epoch_losses=[float(v) for v in sidecar.get("epoch_losses", [])],
        epoch_metrics=_metrics_from_doc(sidecar.get("metrics", [])),
    )
    return TrainState(model=model, optimizer=optimizer, rng=rng,
                      epoch=epoch, log=log, config=config)


# -- ablation harness -----------------------------------------------------------


@dataclass
class AblationResult:
    name: str
    metrics: DepthMetrics
    param_count: int
    log: TrainLog


def ablation_run(
    train_scenes: list[Scene],
    names: list[str],
    base_config: NetworkConfig,
    seed: int = 0,
    *,
    eval_scenes: list[Scene] | None = None,
    until_epoch: int | None = None,
    eval_every: int = 0,
    augment_data: bool = True,
    verbose: bool = False,
) -> list[AblationResult]:
    """Train each named variant with a shared seed and schedule."""
    results = []
    for name in names:
        config = ladder_config(base_config, name)
        if verbose:
            print(f"== {name} ==")
        state = train_model(
            train_scenes, config, seed,
            until_epoch=until_epoch, eval_scenes=eval_scenes,
            eval_every=eval_every, augment_data=augment_data, verbose=verbose,
        )
        _, mean = evaluate_model(state.model, eval_scenes or train_scenes)
        results.append(
            AblationResult(
                name=name, metrics=mean,
                param_count=state.model.params.count(), log=state.log,
            )
        )
    return results


def format_metric(value: float) -> str:
    """Four decimals with no leading zero, the table convention: .4182"""
    text = f"{value:.4f}"
    if text.startswith("0."):
        text = text[1:]
    elif text.startswith("-0."):
        text = "-" + text[2:]
    return text


def format_table(results: list[AblationResult]) -> str:
    header = ["model", "rms", "abs rel", "sq rel", "d1", "d2", "d3"]
    rows = [
        [r.name] + [format_metric(v) for v in r.metrics.row()]
        for r in results
    ]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        cells = [row[0].ljust(widths[0])] + [
            c.rjust(widths[i + 1]) for i, c in enumerate(row[1:])
        ]
        lines.append("  ".join(cells))
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)
