"""lfdepth benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lfdepth is imported from ./src.
Set-up runs SETUP_REPEATS times and reports its median.  The timed phase
runs whole cycles of the workload until --seconds have passed.  With
--trace 0 nothing is installed but a timestamp per item, and the last line
of stdout is a JSON object with the end-to-end metrics.  With --trace 1,
untraced and traced cycles alternate: the traced ones give the per-layer
metrics, and both together the tracing overhead.  A full record (machine,
every item time, errors; the spans, when traced) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3

# BLAS threads are pinned to this process's CPU count before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for line in open("/proc/self/maps"):
        if "openblas" in line.lower():
            lib = ctypes.CDLL(line.split()[-1])
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    threads = getattr(lib, fn)()
                    break
            break
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_cycles(workload, ctx, seconds: float, tracer):
    """Whole cycles until ``seconds`` pass; with a tracer, untraced and traced alternate.

    Returns the items and the wall seconds of each phase, and the errors.
    """
    items = {"untraced": [], "traced": []}
    wall = {"untraced": 0.0, "traced": 0.0}
    errors = []
    start = time.perf_counter()
    for k in itertools.count():
        phase = "traced" if tracer is not None and k % 2 == 1 else "untraced"
        t0 = time.perf_counter()
        if phase == "traced":
            with tracer.active():
                result = workload.cycle(ctx, tracer)
        else:
            result = workload.cycle(ctx, None)
        wall[phase] += time.perf_counter() - t0
        items[phase].extend(result.items)
        errors.extend(result.errors)
        if time.perf_counter() - start >= seconds and (tracer is None or k >= 1):
            return items, wall, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lfdepth" / "__init__.py").is_file():
        print(f"error: no lfdepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import lfdepth

    if Path(lfdepth.__file__).resolve().parent != ROOT / "src" / "lfdepth":
        print(f"error: lfdepth imported from {lfdepth.__file__}, not this checkout", file=sys.stderr)
        return 2

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times, ctx = [], None
        for _ in range(SETUP_REPEATS):
            if ctx is not None:
                workload.teardown(ctx)
            t0 = time.perf_counter()
            if tracer:
                with tracer.active():
                    ctx = workload.setup(args.seed, workdir)
            else:
                ctx = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        items, wall, errors = run_cycles(workload, ctx, args.seconds, tracer)
        quality, finish_errors = workload.finish(ctx)
        workload.teardown(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced, traced = items["untraced"], items["traced"]
    attempted = len(untraced) + len(traced)
    failed = sum(not it.ok for it in untraced + traced)
    errors += finish_errors
    correct = failed == 0 and not finish_errors

    seconds = [it.seconds for it in untraced]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (sum(it.ok for it in untraced) / wall["untraced"], "1/s"),
        "item_s.p50": (statistics.median(seconds), "s"),
        "item_s.p90": (statistics.quantiles(seconds, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_s_each": setup_times, "item_s": seconds,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors[:50], "end_to_end": end_to_end, "quality": quality,
    }

    if tracer:
        layers = tracing.layer_metrics(tracer, len(traced), wall["traced"])
        traced_rate = len(traced) / wall["traced"]
        untraced_rate = len(untraced) / wall["untraced"]
        layers["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
        if layers["trace.coverage"][0] < 0.95:
            errors.append(f"spans cover only {layers['trace.coverage'][0]:.3f} of the traced time")
            correct = False
        record["per_layer"] = layers
        shown = layers
        stem = f"{args.workload}-seed{args.seed}-trace1"
        tracer.write(OUT / f"{stem}-spans.jsonl")
    else:
        shown = end_to_end
        stem = f"{args.workload}-seed{args.seed}-trace0"
    record["correct"] = correct
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for err in errors[:10]:
        print(f"check failed: {err}")
    print(f"{args.workload}  seed {args.seed}  items {attempted}  failed {failed}")
    print(f"  {'error_rate':34s} {record['error_rate']:14.6g} 1")
    for name, value in quality.items():
        print(f"  {name:34s} {value!r:>14} 1 (fixed by the seed)")
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
