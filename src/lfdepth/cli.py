"""Command-line entry point.

Subcommands: generate, train, eval, infer, ablate, gradcheck.  Every run is
a pure function of its inputs, flags, and seed.  Exit codes: 0 ok, 1 usage
or configuration, 2 IO or format, 3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    LfdepthError,
    NumericalCheckError,
    UsageError,
)
from .gradcheck import SCOPES, assert_all_pass, check_scope
from .jsonio import read_fields, read_json
from .metrics import COLUMN_NAMES, aggregate, evaluate
from .model import NetworkConfig
from .pnm import write_pgm16
from .synthdata import GenSpec, generate_dataset, load_split, read_scene, split_names
from .train import (
    ablation_run,
    config_from_dict,
    format_metric,
    format_table,
    load_checkpoint,
    metrics_to_doc,
    predict_scene,
    save_checkpoint,
    train_model,
)


def worker_count() -> int:
    raw = os.environ.get("LFDEPTH_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"LFDEPTH_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"LFDEPTH_THREADS must be >= 1, got {n}")
    return n


# -- run configuration ------------------------------------------------------------

_RUN_KINDS = {"network": dict, "seed": int, "augment": bool, "eval_every": int}
_RUN_DEFAULTS = {"network": {}, "seed": 0, "augment": True, "eval_every": 1}


def load_run_config(path) -> dict:
    """Validated {network, seed, augment, eval_every} document."""
    doc = read_json(path)
    try:
        doc = read_fields(doc, _RUN_KINDS, _RUN_DEFAULTS)
        network = config_from_dict(doc["network"])
    except FormatError as err:
        raise ConfigError(f"{path}: {err}") from None
    unknown = sorted(set(doc) - set(_RUN_KINDS))
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    for key in ("seed", "eval_every"):
        if doc[key] < 0:
            raise ConfigError(f"{path}: {key!r} must be a non-negative integer")
    return {**doc, "network": network}


# -- subcommands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = GenSpec(
        height=args.size[0], width=args.size[1], slices=args.slices,
        blur_gain=args.blur_gain, seed=args.seed,
    )
    try:
        manifest = generate_dataset(args.out, args.scenes, spec)
    except OSError as err:
        raise FormatError(f"cannot write dataset: {err}") from None
    print(
        f"wrote {args.scenes} scenes to {args.out} "
        f"({len(manifest['train'])} train / {len(manifest['test'])} test)"
    )
    return 0


def _load_scenes(root, split):
    try:
        return load_split(root, split)
    except OSError as err:
        raise FormatError(f"{root}: {err}") from None


def _write_train_outputs(out_dir, state) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, "checkpoint.lfdp")
    save_checkpoint(ckpt, state)
    log_doc = {
        "step_losses": state.log.step_losses,
        "epoch_losses": state.log.epoch_losses,
        "epoch_metrics": metrics_to_doc(state.log.epoch_metrics),
    }
    with open(os.path.join(out_dir, "train_log.json"), "w") as fh:
        json.dump(log_doc, fh, indent=1)
    print(f"checkpoint: {ckpt}")


def cmd_train(args) -> int:
    train_scenes = _load_scenes(args.data, "train")
    test_scenes = _load_scenes(args.data, "test")
    if args.resume:
        state = load_checkpoint(args.resume)
        state = train_model(
            train_scenes, state=state,
            eval_scenes=test_scenes or None,
            eval_every=args.eval_every if args.eval_every is not None else 1,
            verbose=not args.quiet,
        )
    else:
        if not args.config:
            raise UsageError("train needs --config (or --resume)")
        run = load_run_config(args.config)
        state = train_model(
            train_scenes, run["network"], run["seed"],
            eval_scenes=test_scenes or None,
            eval_every=run["eval_every"] if args.eval_every is None else args.eval_every,
            augment_data=run["augment"],
            verbose=not args.quiet,
        )
    _write_train_outputs(args.out, state)
    return 0


def cmd_eval(args) -> int:
    state = load_checkpoint(args.ckpt)
    scenes = _load_scenes(args.data, args.split)
    if not scenes:
        raise UsageError(f"split {args.split!r} is empty")
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            preds = list(pool.map(lambda sc: predict_scene(state.model, sc), scenes))
    else:
        preds = [predict_scene(state.model, sc) for sc in scenes]
    per_scene = [evaluate(p, sc.depth[None]) for p, sc in zip(preds, scenes)]
    mean = aggregate(per_scene)

    names = split_names(args.data, args.split)
    width = max(len(n) for n in names + ["aggregate"])

    def line(label, cells):
        return "  ".join([f"{label:<{width}}", *(f"{c:>7}" for c in cells)])

    print(line("scene", COLUMN_NAMES))
    for name, m in zip(names, per_scene):
        print(line(name, map(format_metric, m.row())))
    print(line("aggregate", map(format_metric, mean.row())))

    if args.json:
        doc = {
            "split": args.split,
            "scenes": {n: m.as_dict() for n, m in zip(names, per_scene)},
            "aggregate": mean.as_dict(),
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0


def cmd_infer(args) -> int:
    state = load_checkpoint(args.ckpt)
    scene = read_scene(args.scene)
    cfg = state.config
    if scene.focal.shape[0] != cfg.slices:
        raise UsageError(
            f"scene has {scene.focal.shape[0]} slices but the checkpoint "
            f"expects {cfg.slices}"
        )
    if scene.rgb.shape[1:] != (cfg.height, cfg.width):
        raise UsageError(
            f"scene is {scene.rgb.shape[1]}x{scene.rgb.shape[2]} but the "
            f"checkpoint expects {cfg.height}x{cfg.width}"
        )
    depth = predict_scene(state.model, scene)[0, 0]
    write_pgm16(args.out, np.round(depth * 65535.0).astype(np.uint16))
    print(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    names = [n.strip() for n in args.ladder.split(",") if n.strip()]
    if not names:
        raise UsageError("--ladder needs at least one configuration name")
    train_scenes = _load_scenes(args.data, "train")
    test_scenes = _load_scenes(args.data, "test")
    base = NetworkConfig(
        height=train_scenes[0].rgb.shape[1] if train_scenes else 64,
        width=train_scenes[0].rgb.shape[2] if train_scenes else 64,
        slices=train_scenes[0].focal.shape[0] if train_scenes else 12,
        epochs=args.epochs,
    )
    results = ablation_run(
        train_scenes, names, base, args.seed,
        eval_scenes=test_scenes or None, verbose=not args.quiet,
    )
    table = format_table(results)
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "table.txt"), "w") as fh:
            fh.write(table + "\n")
        doc = [
            {"name": r.name, "param_count": r.param_count,
             "metrics": r.metrics.as_dict(), "epoch_losses": r.log.epoch_losses}
            for r in results
        ]
        with open(os.path.join(args.out, "results.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0


def cmd_gradcheck(args) -> int:
    scopes = SCOPES if args.module == "all" else (args.module,)
    failures = []
    for scope in scopes:
        reports = check_scope(scope, seed=args.seed)
        print(f"[{scope}]")
        for r in reports:
            print("  " + r.line())
        try:
            assert_all_pass(reports)
        except NumericalCheckError as err:
            failures.append(f"{scope}: {err}")
    if failures:
        raise NumericalCheckError("; ".join(failures))
    print("all gradient checks pass")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfdepth",
        description="Depth from focal stacks plus RGB: synthetic data, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, required=True)
    p.add_argument("--size", type=int, nargs=2, default=(64, 64), metavar=("H", "W"))
    p.add_argument("--slices", type=int, default=12)
    p.add_argument("--blur-gain", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--config", help="run settings JSON (required unless resuming)")
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.add_argument("--out", required=True,
                   help="output directory for checkpoint.lfdp and train_log.json")
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--ckpt", required=True, help="checkpoint file (.lfdp)")
    p.add_argument("--split", default="test")
    p.add_argument("--json", help="also write metrics to this JSON file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="predict depth for one scene directory")
    p.add_argument("--scene", required=True, help="scene directory")
    p.add_argument("--ckpt", required=True, help="checkpoint file (.lfdp)")
    p.add_argument("--out", required=True, help="output depth map (16-bit PGM)")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("ablate", help="train and compare ladder configurations")
    p.add_argument("--data", required=True)
    p.add_argument("--ladder", required=True,
                   help="comma-separated configuration names")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", choices=list(SCOPES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalCheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LfdepthError as err:
        # usage, config, shape, domain, evaluation
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
