"""Training loop, optimizer, checkpoints, and the ablation harness.

The optimizer is adaptive-moment descent (beta1 0.9, beta2 0.999, eps 1e-8)
with batch size 1 and a step learning-rate schedule that drops once at a
configured epoch.  A checkpoint is the parameter container with the
optimizer moments stored alongside under "adam." keys, plus a JSON sidecar
holding the config, the run settings (augmentation, evaluation period), epoch
counter, generator state, and metric history, so a resumed run replays bit
for bit.  Loading reads each parameter once, into the array the restored
model keeps, and builds the model without drawing init values.  The
optimizer moments are checked and stay in the file until the optimizer
first needs them, so evaluation and inference hold only the weights.
Training and checkpoints are float64; ``predict_scene`` runs the network in
float32 (INFERENCE_DTYPE), which the tape never records.

``evaluate_model`` is the one evaluation path (``lfdepth eval`` and the epoch
metrics, which also score the ablation rungs); it predicts on a pool of
LFDEPTH_THREADS threads (one: the calling thread), and training steps always
run in order on the calling thread.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericalCheckError, UsageError
from .jsonio import fits, read_fields, read_json, write_json
from .metrics import COLUMN_NAMES, DepthMetrics, aggregate, evaluate
from .model import PLAIN_STACK_DEPTH, DepthNet, NetworkConfig, ladder_config, prediction_loss
from .ops import DROPOUT_RATE
from .params import DiskEntry, load_params, read_entries, save_params
from .synthdata import Scene, augment
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment descent over a parameter tree.

    First and second moments are kept per parameter path and created on the
    first step, so a freshly built optimizer serializes to just the step
    counter.  Moments restored from a checkpoint can stay in its file
    (``DiskEntry`` records) until the first ``step``, ``state_entries`` or
    read of ``m`` or ``v``; if the file is gone or its bytes changed by then,
    that call raises FormatError naming the file and the entry.  A step whose
    gradients are not all finite, or whose moments cannot be read, raises
    before it changes any moment or weight.  A step updates the moment
    arrays and the weights in place.
    """

    def __init__(self):
        self.step_count = 0
        self._moments: dict[str, dict[str, np.ndarray | DiskEntry]] = {"m": {}, "v": {}}
        self._source = None  # the container that holds the DiskEntry moments

    @property
    def m(self) -> dict[str, np.ndarray]:
        self._read_moments()
        return self._moments["m"]

    @property
    def v(self) -> dict[str, np.ndarray]:
        self._read_moments()
        return self._moments["v"]

    def _read_moments(self) -> None:
        """Replace every moment left on disk by its array, in place so the order stays."""
        if self._source is None:
            return
        records = {f"adam.{kind}.{path}": rec for kind, moments in self._moments.items()
                   for path, rec in moments.items() if isinstance(rec, DiskEntry)}
        for key, arr in read_entries(self._source, records).items():
            kind, _, path = key[len("adam.") :].partition(".")
            self._moments[kind][path] = arr
        self._source = None

    def step(self, params, lr: float) -> None:
        graded = [(path, t) for path, t in params.tensors() if t.grad is not None]
        for path, t in graded:
            if not np.all(np.isfinite(t.grad)):
                raise NumericalCheckError(f"non-finite gradient for parameter {path!r}")
        self._read_moments()
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        for path, t in graded:
            g = t.grad
            m = self._moments["m"].get(path)
            if m is None:
                m = self._moments["m"][path] = np.zeros_like(t.data)
                self._moments["v"][path] = np.zeros_like(t.data)
            v = self._moments["v"][path]
            # in place, in the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
            # and data -= lr * (m/bc1) / (sqrt(v/bc2) + eps), so it rounds as they do
            m *= ADAM_BETA1
            tmp = (1.0 - ADAM_BETA1) * g
            m += tmp
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
            tmp *= g
            v += tmp
            d = v / bc2
            np.sqrt(d, out=d)
            d += ADAM_EPS
            np.divide(m, bc1, out=tmp)
            tmp *= lr
            tmp /= d
            t.data -= tmp

    def state_entries(self) -> dict[str, np.ndarray]:
        out = {"adam.step": np.asarray(float(self.step_count))}
        for path, m in self.m.items():
            out[f"adam.m.{path}"] = m
        for path, v in self.v.items():
            out[f"adam.v.{path}"] = v
        return out

    def load_state_entries(self, entries: dict[str, np.ndarray | DiskEntry], source=None) -> None:
        """Restore ``state_entries`` output; a malformed step or moment set is a FormatError.

        A moment may be a ``DiskEntry`` of the container file ``source``,
        which is read when first needed.  The optimizer takes ownership: a
        moment array that is already writable C-contiguous float64 is kept as
        given, not copied, so the caller must not keep using it.
        """
        if "adam.step" not in entries:
            raise FormatError("checkpoint is missing the optimizer step counter")
        step = np.asarray(entries["adam.step"])
        # written so that NaN fails the check
        if step.shape != () or not (0 <= step < np.inf and step == np.floor(step)):
            raise FormatError(f"optimizer step must be a non-negative integer, got {step}")
        moments: dict[str, dict[str, np.ndarray | DiskEntry]] = {"m": {}, "v": {}}
        for key, arr in entries.items():
            if key == "adam.step":
                continue
            kind, _, path = key[len("adam.") :].partition(".")
            if kind not in moments or not path:
                raise FormatError(f"unknown optimizer entry {key!r}")
            if not isinstance(arr, DiskEntry):
                arr = np.require(arr, np.float64, "CW")
            moments[kind][path] = arr
        unpaired = sorted(set(moments["m"]) ^ set(moments["v"]))
        if unpaired:
            raise FormatError(f"optimizer moments without their partner: {unpaired[:4]}")
        self.step_count = int(step)
        self._moments, self._source = moments, source


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
    # the settings train_model last ran with, which a resumed run reuses; None
    # when loaded from a sidecar written before they were stored
    augment: bool | None = True
    eval_every: int | None = 1


def init_state(config: NetworkConfig, seed: int) -> TrainState:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    init_rng = np.random.default_rng(seed)
    model = DepthNet(config, init_rng)
    # separate stream for shuffling/augmentation/dropout so resumed runs
    # only need this one generator's state
    run_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return TrainState(model=model, optimizer=Adam(), rng=run_rng, epoch=0, log=TrainLog())


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


# The dtype predict_scene computes in; training, gradients and checkpoints are float64.
INFERENCE_DTYPE = np.dtype(np.float32)


def predict_scene(model: DepthNet, scene: Scene) -> np.ndarray:
    """Depth map [1,1,H,W] for one scene as float64, computed in INFERENCE_DTYPE.

    Each float64 parameter is cast where an op reads it, so the model is never
    changed and threads may share it; float32 results are never recorded, so
    the forward builds no tape.  A non-finite prediction is a NumericalCheckError:
    a finite float64 parameter beyond float32's range casts to inf.
    """
    rgb, focal, _ = _scene_tensors(scene)
    depth = model(Tensor(rgb.data.astype(INFERENCE_DTYPE)),
                  Tensor(focal.data.astype(INFERENCE_DTYPE)), mode="eval")
    if not np.all(np.isfinite(depth.data)):
        raise NumericalCheckError(f"the {INFERENCE_DTYPE} depth prediction holds non-finite values")
    return depth.data.astype(np.float64)


def worker_count() -> int:
    """The evaluation pool size, LFDEPTH_THREADS (default 1); a malformed value is a ConfigError."""
    raw = os.environ.get("LFDEPTH_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"LFDEPTH_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"LFDEPTH_THREADS must be >= 1, got {n}")
    return n


def evaluate_model(model: DepthNet, scenes: list[Scene]):
    """Per-scene metrics, in scene order, and their unweighted mean; the same
    for any pool size, since each prediction depends only on its scene."""
    if not scenes:
        raise UsageError("cannot evaluate on an empty scene list")
    workers = worker_count()
    if workers == 1:
        # on the calling thread: a one-thread pool raised eval-full's peak RSS from 189 to 208 MB
        preds = [predict_scene(model, sc) for sc in scenes]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            preds = list(pool.map(lambda sc: predict_scene(model, sc), scenes))
    per_scene = [evaluate(p, sc.depth[None]) for p, sc in zip(preds, scenes)]
    return per_scene, aggregate(per_scene)


def train_model(
    scenes: list[Scene],
    config: NetworkConfig | None = None,
    seed: int = 0,
    *,
    state: TrainState | None = None,
    until_epoch: int | None = None,
    eval_scenes: list[Scene] | None = None,
    eval_every: int = 1,
    augment_data: bool = True,
    verbose: bool = False,
) -> TrainState:
    """Run the training loop, fresh or resumed, in whole epochs.

    With ``state`` given, continues that run (``config``/``seed`` are then
    taken from it); otherwise builds a new model from ``seed``.  An epoch is
    one step per scene, in the run generator's order, and the run stops after
    ``until_epoch`` epochs total (default: the config's epoch cap).
    ``eval_every`` controls how often epoch metrics are computed on
    ``eval_scenes`` (0 disables; negative is a UsageError); when it is on, a
    malformed LFDEPTH_THREADS is a ConfigError before the first step.
    ``eval_scenes`` None means the training scenes; an empty list is a
    UsageError before the first step.  ``augment_data`` and ``eval_every``
    are recorded in the state, so its checkpoint resumes with them.  A
    non-finite loss raises NumericalCheckError before its backward pass.
    """
    if not scenes:
        raise UsageError("training needs at least one scene")
    if eval_scenes is None:
        eval_scenes = scenes
    elif not eval_scenes:
        raise UsageError("eval_scenes is empty; pass None to evaluate on the training scenes")
    if eval_every < 0:
        raise UsageError(f"eval_every must be >= 0, got {eval_every}")
    if eval_every:
        worker_count()
    if state is None:
        if config is None:
            raise UsageError("pass a config or a state to train from")
        state = init_state(config, seed)
    config = state.model.config
    state.augment, state.eval_every = augment_data, eval_every
    if until_epoch is None:
        until_epoch = config.epochs

    while state.epoch < until_epoch:
        lr = learning_rate_for(config, state.epoch)
        epoch_loss_sum = 0.0  # summed in step order, not by sum(), which compensates
        for idx in state.rng.permutation(len(scenes)):
            scene = scenes[int(idx)]
            if augment_data:
                scene = augment(scene, state.rng)
            rgb, focal, gt = _scene_tensors(scene)
            # freed before the forward, so the last step's gradients do not live through it
            state.model.params.zero_grad()
            pred = state.model(rgb, focal, mode="train", rng=state.rng)
            loss = prediction_loss(pred, gt)
            value = float(loss.data)
            if not np.isfinite(value):
                step = len(state.log.step_losses) + 1
                raise NumericalCheckError(f"non-finite loss {value} at step {step}")
            loss.backward()
            state.optimizer.step(state.model.params, lr)
            state.log.step_losses.append(value)
            epoch_loss_sum += value
        state.epoch += 1
        state.log.epoch_losses.append(epoch_loss_sum / len(scenes))
        if eval_every and (state.epoch % eval_every == 0 or state.epoch == until_epoch):
            _, mean = evaluate_model(state.model, eval_scenes)
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


# Keys that configs written by earlier versions carry, each with its JSON type
# and the one value the network runs at; they load at that value and are dropped.
_RETIRED_KEYS = {
    "batch_size": (int, 1),
    "deep_supervision": (bool, False),
    "plain_stack_depth": (int, PLAIN_STACK_DEPTH),
    "dropout_rate": (float, DROPOUT_RATE),
    "loss_weights": (tuple[float, ...], [1.0, 1.0, 1.0]),
}


def config_from_dict(doc) -> NetworkConfig:
    """NetworkConfig from its JSON object; a malformed document is a FormatError."""
    kinds = typing.get_type_hints(NetworkConfig)
    doc = read_fields(doc, kinds, dataclasses.asdict(NetworkConfig()))
    for name, (kind, fixed) in _RETIRED_KEYS.items():
        if name in doc:
            value = doc.pop(name)
            if not fits(value, kind) or value != fixed:
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
        "config": dataclasses.asdict(state.model.config),
        "epoch": state.epoch,
        "rng_state": state.rng.bit_generator.state,
        "metrics": metrics_to_doc(state.log.epoch_metrics),
        "step_losses": state.log.step_losses,
        "epoch_losses": state.log.epoch_losses,
        **{key: getattr(state, key) for key in _RUN_SETTINGS if getattr(state, key) is not None},
    }
    write_json(str(path) + ".json", sidecar)


_SIDECAR_KINDS = {"config": dict, "epoch": int, "rng_state": dict, "metrics": list,
                  "step_losses": tuple[float, ...], "epoch_losses": tuple[float, ...]}
# optional in the sidecar: older versions did not store them
_RUN_SETTINGS = {"augment": bool, "eval_every": int}


def load_checkpoint(path) -> TrainState:
    """The run ``save_checkpoint`` wrote; a malformed or non-finite checkpoint is a FormatError.

    The container is read once: its arrays become the parameters of the
    returned state.  The model is built blank, with no init draws and no
    parameter bytes (read-only zero placeholders that the load replaces), so
    a load holds little more than the parameters it reads.  The optimizer
    moments are checked as they stream past (length, finiteness, shape) and
    left in the file with their CRC-32; the optimizer reads them at its first
    step or save, and a file changed by then is a FormatError.  A sidecar
    without run settings loads with ``augment`` and ``eval_every`` None.
    """
    sidecar_path = str(path) + ".json"
    sidecar = read_json(sidecar_path)
    rng = np.random.default_rng(0)
    try:
        sidecar = read_fields(
            sidecar, _SIDECAR_KINDS, {"metrics": [], "step_losses": [], "epoch_losses": []}
        )
        read_fields(sidecar, {k: v for k, v in _RUN_SETTINGS.items() if k in sidecar}, {})
        if sidecar.get("eval_every", 0) < 0:
            raise FormatError(f"eval_every must be >= 0, got {sidecar['eval_every']}")
        config = config_from_dict(sidecar["config"])
        epoch_metrics = _metrics_from_doc(sidecar["metrics"])
        try:
            rng.bit_generator.state = sidecar["rng_state"]
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"bad rng_state ({err})") from None
        if sidecar["epoch"] != len(sidecar["epoch_losses"]):
            raise FormatError(
                f"epoch {sidecar['epoch']} does not match its "
                f"{len(sidecar['epoch_losses'])} epoch losses"
            )
    except FormatError as err:
        raise FormatError(f"{sidecar_path}: {err}") from None

    try:
        entries = load_params(path, defer=("adam.m.", "adam.v."))
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None
    for key, arr in entries.items():
        # read_container checked the moments it left on disk
        if not isinstance(arr, DiskEntry) and not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: entry {key!r} holds non-finite values")
    param_entries = {k: v for k, v in entries.items() if not k.startswith("adam.")}
    adam_entries = {k: v for k, v in entries.items() if k.startswith("adam.")}

    model = DepthNet(config, None)  # placeholders, no draws: load_state replaces every value
    model.params.load_state(param_entries)
    optimizer = Adam()
    optimizer.load_state_entries(adam_entries, source=os.path.abspath(path))
    shapes = {p: t.shape for p, t in model.params.tensors()}
    for key, moment in adam_entries.items():
        if key == "adam.step":
            continue
        p = key[len("adam.m.") :]  # load_state_entries rejected keys of any other kind
        if p not in shapes:
            raise FormatError(f"{path}: optimizer moment {key!r} names no model parameter")
        if moment.shape != shapes[p]:
            raise FormatError(
                f"{path}: optimizer moment {key!r} is {moment.shape}, the parameter is {shapes[p]}"
            )

    log = TrainLog(
        step_losses=[float(v) for v in sidecar["step_losses"]],
        epoch_losses=[float(v) for v in sidecar["epoch_losses"]],
        epoch_metrics=epoch_metrics,
    )
    return TrainState(model=model, optimizer=optimizer, rng=rng, epoch=sidecar["epoch"], log=log,
                      augment=sidecar.get("augment"), eval_every=sidecar.get("eval_every"))


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
    augment_data: bool = True,
    verbose: bool = False,
) -> list[AblationResult]:
    """Train each named variant for its config's epochs with a shared seed, as one
    ``train_model`` run that evaluates once, after its last epoch, on ``eval_scenes``
    (default: the training scenes); that epoch-metrics entry is its ``metrics``.

    An unknown name is a UsageError before the first variant trains, and
    ``train_model`` checks ``eval_scenes`` and LFDEPTH_THREADS before its first step.
    """
    configs = [ladder_config(base_config, name) for name in names]
    results = []
    for name, config in zip(names, configs):
        if verbose:
            print(f"== {name} ==")
        state = train_model(train_scenes, config, seed, eval_scenes=eval_scenes,
                            eval_every=config.epochs, augment_data=augment_data, verbose=verbose)
        results.append(
            AblationResult(
                name=name, metrics=state.log.epoch_metrics[-1][1],
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


def format_table(label: str, rows) -> str:
    """``(name, DepthMetrics)`` pairs as the table of ``eval`` and ``ablate``: names
    left-aligned under ``label``, a rule line, and every column as wide as its widest cell."""
    table = [[label, *COLUMN_NAMES]] + [[name, *map(format_metric, m.row())] for name, m in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [
        "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
        for row in table
    ]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)
