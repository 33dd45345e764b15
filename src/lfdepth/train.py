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
import typing
from dataclasses import dataclass, field

import numpy as np

from .cmfa import DROPOUT_RATE
from .errors import ConfigError, FormatError, NumericalCheckError, UsageError
from .jsonio import read_fields, read_json
from .metrics import COLUMN_NAMES, DepthMetrics, aggregate, evaluate
from .model import PLAIN_STACK_DEPTH, DepthNet, NetworkConfig, ladder_config, prediction_loss
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
        """Restore ``state_entries`` output; a malformed step or moment set is a FormatError."""
        if "adam.step" not in entries:
            raise FormatError("checkpoint is missing the optimizer step counter")
        step = np.asarray(entries["adam.step"])
        # written so that NaN fails the check
        if step.shape != () or not (0 <= step < np.inf and step == np.floor(step)):
            raise FormatError(f"optimizer step must be a non-negative integer, got {step}")
        moments: dict[str, dict[str, np.ndarray]] = {"m": {}, "v": {}}
        for key, arr in entries.items():
            if key == "adam.step":
                continue
            kind, _, path = key[len("adam.") :].partition(".")
            if kind not in moments or not path:
                raise FormatError(f"unknown optimizer entry {key!r}")
            moments[kind][path] = np.array(arr)
        unpaired = sorted(set(moments["m"]) ^ set(moments["v"]))
        if unpaired:
            raise FormatError(f"optimizer moments without their partner: {unpaired[:4]}")
        self.step_count = int(step)
        self.m, self.v = moments["m"], moments["v"]


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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
    """rgb [1,3,H,W], focal [S,3,H,W] and depth [1,1,H,W] of one scene.

    Non-finite input is a NumericalCheckError, raised before any forward pass.
    """
    for name in ("rgb", "focal", "depth"):
        if not np.all(np.isfinite(getattr(scene, name))):
            raise NumericalCheckError(f"scene {name} holds non-finite values")
    rgb = Tensor(np.ascontiguousarray(scene.rgb[None]))
    focal = Tensor(np.ascontiguousarray(scene.focal))
    gt = Tensor(np.ascontiguousarray(scene.depth[None]))
    return rgb, focal, gt


def predict_scene(model: DepthNet, scene: Scene) -> np.ndarray:
    """Depth map [1,1,H,W] for one scene, reference semantics, no tape."""
    rgb, focal, _ = _scene_tensors(scene)
    with no_grad():
        return model(rgb, focal, mode="eval").data


def evaluate_model(model: DepthNet, scenes: list[Scene]):
    """Per-scene metrics and their unweighted mean."""
    if not scenes:
        raise UsageError("cannot evaluate on an empty scene list")
    per_scene = [evaluate(predict_scene(model, sc), sc.depth[None]) for sc in scenes]
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
            pred = state.model(rgb, focal, mode="train", rng=state.rng)
            loss = prediction_loss(pred, gt, config.loss_weights)
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


# Keys that configs written by earlier versions carry, each at the one value
# the network runs at; they load at that value and are dropped.
_RETIRED_KEYS = {
    "batch_size": 1,
    "deep_supervision": False,
    "plain_stack_depth": PLAIN_STACK_DEPTH,
    "dropout_rate": DROPOUT_RATE,
}


def config_from_dict(doc) -> NetworkConfig:
    """NetworkConfig from its JSON object; a malformed document is a FormatError."""
    kinds = typing.get_type_hints(NetworkConfig)
    doc = read_fields(doc, kinds, config_to_dict(NetworkConfig()))
    for name, fixed in _RETIRED_KEYS.items():
        if name in doc:
            value = doc.pop(name)
            if type(value) is not type(fixed) or value != fixed:
                raise FormatError(
                    f"config key {name!r} is retired and only accepts {fixed!r}, got {value!r}"
                )
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise FormatError(f"unknown config keys: {unknown}")
    try:
        return NetworkConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
    except ConfigError as err:
        raise FormatError(str(err)) from None


def metrics_to_doc(pairs) -> list:
    """(epoch, DepthMetrics) pairs as JSON rows, epoch first."""
    return [{"epoch": int(ep), **m.as_dict()} for ep, m in pairs]


def _metrics_from_doc(rows) -> list:
    names = [f.name for f in dataclasses.fields(DepthMetrics)]
    rows = [read_fields(row, dict.fromkeys(names, float) | {"epoch": int}, {}) for row in rows]
    return [(row["epoch"], DepthMetrics(**{k: float(row[k]) for k in names})) for row in rows]


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
        "metrics": metrics_to_doc(state.log.epoch_metrics),
        "step_losses": state.log.step_losses,
        "epoch_losses": state.log.epoch_losses,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh)


_SIDECAR_KINDS = {"config": dict, "epoch": int, "rng_state": dict, "metrics": list,
                  "step_losses": tuple[float, ...], "epoch_losses": tuple[float, ...]}


def load_checkpoint(path) -> TrainState:
    """The run ``save_checkpoint`` wrote; a malformed or non-finite checkpoint is a FormatError."""
    sidecar_path = str(path) + ".json"
    sidecar = read_json(sidecar_path)
    rng = np.random.default_rng(0)
    try:
        sidecar = read_fields(
            sidecar, _SIDECAR_KINDS, {"metrics": [], "step_losses": [], "epoch_losses": []}
        )
        config = config_from_dict(sidecar["config"])
        epoch_metrics = _metrics_from_doc(sidecar["metrics"])
        try:
            rng.bit_generator.state = sidecar["rng_state"]
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"bad rng_state ({err})") from None
    except FormatError as err:
        raise FormatError(f"{sidecar_path}: {err}") from None

    entries = load_params(path)
    for key, arr in entries.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: entry {key!r} holds non-finite values")
    param_entries = {k: v for k, v in entries.items() if not k.startswith("adam.")}
    adam_entries = {k: v for k, v in entries.items() if k.startswith("adam.")}

    model = DepthNet(config, np.random.default_rng(0))  # init overwritten below
    model.params.load_state(param_entries)
    optimizer = Adam()
    optimizer.load_state_entries(adam_entries)
    shapes = {p: t.shape for p, t in model.params.tensors()}
    for p, m in optimizer.m.items():
        if p not in shapes:
            raise FormatError(f"{path}: optimizer moments for {p!r} name no model parameter")
        if m.shape != shapes[p] or optimizer.v[p].shape != shapes[p]:
            raise FormatError(
                f"{path}: optimizer moments for {p!r} are {m.shape} and "
                f"{optimizer.v[p].shape}, the parameter is {shapes[p]}"
            )

    log = TrainLog(
        step_losses=[float(v) for v in sidecar["step_losses"]],
        epoch_losses=[float(v) for v in sidecar["epoch_losses"]],
        epoch_metrics=epoch_metrics,
    )
    return TrainState(model=model, optimizer=optimizer, rng=rng,
                      epoch=sidecar["epoch"], log=log, config=config)


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
    """Train each named variant with a shared seed and schedule.

    Every name is resolved before the first variant trains, so an unknown
    name raises UsageError without any training.
    """
    configs = [ladder_config(base_config, name) for name in names]
    results = []
    for name, config in zip(names, configs):
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
    header = ["model", *COLUMN_NAMES]
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
