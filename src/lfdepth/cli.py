"""Command-line entry point.

Subcommands: generate, train, eval, infer, ablate, gradcheck.  Every run is
a pure function of its inputs, flags, and seed.  Exit codes: 0 ok, 1 usage
or configuration, 2 IO or format, 3 numerical-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    LfdepthError,
    NumericalCheckError,
    UsageError,
)
from .gradcheck import SCOPES, assert_all_pass, check_scope
from .jsonio import read_fields, read_json, write_json
from .model import NetworkConfig
from .pnm import write_pgm16
from .synthdata import GenSpec, generate_dataset, load_split, read_scene, split_names
from .train import (
    INFERENCE_DTYPE,
    ablation_run,
    config_from_dict,
    evaluate_model,
    format_table,
    load_checkpoint,
    metrics_to_doc,
    predict_scene,
    save_checkpoint,
    train_model,
)


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
    manifest = generate_dataset(args.out, args.scenes, spec)
    print(
        f"wrote {args.scenes} scenes to {args.out} "
        f"({len(manifest['train'])} train / {len(manifest['test'])} test)"
    )
    return 0


def _check_out_dir(path) -> None:
    """FormatError (exit 2) unless ``path`` is not empty and it, or if it does
    not exist its nearest existing ancestor, is a writable directory; nothing
    is created here."""
    if not path:
        raise FormatError("--out is empty: name a directory")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK | os.X_OK):
        raise FormatError(f"--out {path}: {existing} is not a writable directory")


def _write_train_outputs(out_dir, state) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, "checkpoint.lfdp")
    save_checkpoint(ckpt, state)
    log_doc = {
        "step_losses": state.log.step_losses,
        "epoch_losses": state.log.epoch_losses,
        "epoch_metrics": metrics_to_doc(state.log.epoch_metrics),
    }
    write_json(os.path.join(out_dir, "train_log.json"), log_doc)
    print(f"checkpoint: {ckpt}")


def cmd_train(args) -> int:
    if bool(args.config) == bool(args.resume):
        raise UsageError("train takes one of --config and --resume; a resumed run keeps "
                         "the settings in its checkpoint")
    _check_out_dir(args.out)
    train_scenes = load_split(args.data, "train")
    test_scenes = load_split(args.data, "test")
    if args.resume:
        state = load_checkpoint(args.resume)
        for key in ("augment", "eval_every"):
            if getattr(state, key) is None:
                raise FormatError(f"{args.resume}.json: no {key!r} setting (written by an "
                                  "older version), so the run cannot resume as it was; "
                                  "eval and infer still read this checkpoint")
        start = {"state": state}
        augment, eval_every = state.augment, state.eval_every
    else:
        run = load_run_config(args.config)
        start = {"config": run["network"], "seed": run["seed"]}
        augment, eval_every = run["augment"], run["eval_every"]
    state = train_model(
        train_scenes, **start,
        eval_scenes=test_scenes or None,
        eval_every=eval_every if args.eval_every is None else args.eval_every,
        augment_data=augment,
        verbose=not args.quiet,
    )
    _write_train_outputs(args.out, state)
    return 0


def cmd_eval(args) -> int:
    state = load_checkpoint(args.ckpt)
    scenes = load_split(args.data, args.split)
    per_scene, mean = evaluate_model(state.model, scenes)

    names = split_names(args.data, args.split)
    print(format_table("scene", [*zip(names, per_scene), ("aggregate", mean)]))
    if args.json:
        doc = {
            "split": args.split,
            "dtype": INFERENCE_DTYPE.name,
            "scenes": {n: m.as_dict() for n, m in zip(names, per_scene)},
            "aggregate": mean.as_dict(),
        }
        write_json(args.json, doc)
    return 0


def cmd_infer(args) -> int:
    state = load_checkpoint(args.ckpt)
    scene = read_scene(args.scene)
    depth = predict_scene(state.model, scene)[0, 0]
    write_pgm16(args.out, np.round(depth * 65535.0).astype(np.uint16))
    print(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    names = [n.strip() for n in args.ladder.split(",") if n.strip()]
    if not names:
        raise UsageError("--ladder needs at least one configuration name")
    if args.out is not None:
        _check_out_dir(args.out)
    train_scenes = load_split(args.data, "train")
    if not train_scenes:
        raise UsageError(f"{args.data}: the train split is empty")
    test_scenes = load_split(args.data, "test")
    slices, _, height, width = train_scenes[0].focal.shape
    base = NetworkConfig(height=height, width=width, slices=slices, epochs=args.epochs)
    results = ablation_run(
        train_scenes, names, base, args.seed,
        eval_scenes=test_scenes or None, verbose=not args.quiet,
    )
    table = format_table("model", [(r.name, r.metrics) for r in results])
    print(table)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "table.txt"), "w") as fh:
            fh.write(table + "\n")
        doc = [
            {"name": r.name, "param_count": r.param_count,
             "metrics": r.metrics.as_dict(), "epoch_losses": r.log.epoch_losses}
            for r in results
        ]
        write_json(os.path.join(args.out, "results.json"), doc)
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
    except (FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LfdepthError as err:
        # usage, config, shape, domain, evaluation
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
