"""Depth-map evaluation: rms, relative errors, and threshold accuracies."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EvaluationError, ShapeError, UsageError
from .tensor import Tensor


@dataclass(frozen=True)
class DepthMetrics:
    rms: float
    abs_rel: float
    sq_rel: float
    d1: float
    d2: float
    d3: float

    def row(self) -> tuple[float, ...]:
        return (self.rms, self.abs_rel, self.sq_rel, self.d1, self.d2, self.d3)

    def as_dict(self) -> dict[str, float]:
        """Field name -> value, in field order (the JSON form of every report)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


COLUMN_NAMES = ("rms", "abs rel", "sq rel", "d1", "d2", "d3")

# Ground-truth depths at or below this are masked out of every metric.
MASK_EPS = 1e-3


def evaluate(pred, gt) -> DepthMetrics:
    """Compare a predicted depth map against ground truth.

    Pixels with gt <= MASK_EPS are masked out.  rms = sqrt(mean (d-g)^2),
    abs_rel = mean |d-g|/g, sq_rel = mean (d-g)^2/g, and d_i is the
    fraction of pixels where max(d/g, g/d) < 1.25^i.
    """
    d = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    g = gt.data if isinstance(gt, Tensor) else np.asarray(gt, dtype=np.float64)
    if d.shape != g.shape:
        raise ShapeError(f"prediction {d.shape} and ground truth {g.shape} differ")
    mask = g > MASK_EPS
    if not np.any(mask):
        raise EvaluationError(f"no ground-truth pixels above {MASK_EPS}")
    d = d[mask].astype(np.float64)
    g = g[mask].astype(np.float64)

    diff = d - g
    rms = float(np.sqrt(np.mean(diff**2)))
    abs_rel = float(np.mean(np.abs(diff) / g))
    sq_rel = float(np.mean(diff**2 / g))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(d / g, g / d)
    ratio = np.where(np.isfinite(ratio), ratio, np.inf)
    deltas = [float(np.mean(ratio < 1.25**i)) for i in (1, 2, 3)]
    return DepthMetrics(rms, abs_rel, sq_rel, *deltas)


def aggregate(per_scene: list[DepthMetrics]) -> DepthMetrics:
    """Unweighted per-field mean over scenes."""
    if not per_scene:
        raise UsageError("cannot aggregate an empty list of metrics")
    values = {
        f.name: float(np.mean([getattr(m, f.name) for m in per_scene]))
        for f in fields(DepthMetrics)
    }
    return DepthMetrics(**values)
