"""Span tracing for the benchmark's traced run, installed from outside lfdepth.

The tracer wraps lfdepth's public functions and methods (module attributes
and class attributes, restored on exit) so that each call records a span:
(id, parent id, name, start, end, item id, origin).  It also replaces
``tensor._track``, the one constructor of tape nodes, so that every node's
backward closure is wrapped; a closure's span carries as ``origin`` the id of
the forward span that created the node, which is how backward time is
attributed to layers.  Spans stay in memory and are written out at the end.

Self time is a span's duration minus the part of it that its children cover.
Per-layer metrics sum self times over the traced items.  Operation counts
(FLOPs, bytes, defocus taps) are computed from call shapes, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import numpy as np

from lfdepth import cmfa, cru, metrics, model, ops, params, pnm, synthdata, tensor, train


UNTRACED = -1     # origin of a tape node created outside every span


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    item: int
    origin: int | None     # creating forward span, for backward-closure spans


# -- operation counts (exact, computed from shapes) ---------------------------


def conv2d_flops(x_shape, w_shape, out_shape, bias: bool) -> int:
    """2 per multiply-add over every kernel tap (padding included), plus bias adds."""
    S, CO, oh, ow = out_shape
    _, CI, kh, kw = w_shape
    outputs = S * CO * oh * ow
    return 2 * outputs * CI * kh * kw + (outputs if bias else 0)


def conv3d_flops(x_shape, w_shape, out_shape, bias: bool) -> int:
    B, CO, os_, oh, ow = out_shape
    _, CI, ks, kh, kw = w_shape
    outputs = B * CO * os_ * oh * ow
    return 2 * outputs * CI * ks * kh * kw + (outputs if bias else 0)


def matmul_flops(a_shape, out_shape) -> int:
    return 2 * math.prod(out_shape) * a_shape[-1]


def defocus_taps(sigma: np.ndarray) -> int:
    """Window offsets defocus_blur visits: (2*ceil(3*sigma_max)+1)^2, 0 if all in focus."""
    active = sigma > 0.0
    if not np.any(active):
        return 0
    rmax = int(np.ceil(3.0 * sigma[active]).max())
    return (2 * rmax + 1) ** 2


def _count_conv2d(tracer, args, kwargs, out):
    x, w = args[0], args[1]
    b = args[2] if len(args) > 2 else kwargs.get("bias")
    tracer.count("ops.conv2d.flop", conv2d_flops(x.shape, w.shape, out.shape, b is not None))
    elems = x.size + w.size + out.size + (b.size if b is not None else 0)
    tracer.count("ops.conv2d.bytes", 8 * elems)


def _count_conv3d(tracer, args, kwargs, out):
    x, w = args[0], args[1]
    b = args[2] if len(args) > 2 else kwargs.get("bias")
    tracer.count("ops.conv3d.flop", conv3d_flops(x.shape, w.shape, out.shape, b is not None))


def _count_matmul(tracer, args, kwargs, out):
    tracer.count("tensor.matmul.flop", matmul_flops(args[0].shape, out.shape))


def _count_taps(tracer, args, kwargs, out):
    tracer.count("synthdata.defocus_blur.taps", defocus_taps(args[1]))


def _count_pnm_write(tracer, args, kwargs, out):
    tracer.count("pnm.bytes", args[1].nbytes)


def _count_pnm_read(tracer, args, kwargs, out):
    tracer.count("pnm.bytes", out.nbytes)


def _measure_container(tracer, args, kwargs, out):
    # a size, not a per-item count: also taken from set-up, where eval-full loads
    tracer.container_mb = os.path.getsize(args[0]) / 1e6


# Each traced function: (module, attribute, span name, counter).  Every
# lfdepth module that imported the function by name is patched as well.
FUNCTIONS = [
    (ops, "conv2d", "ops.conv2d", _count_conv2d),
    (ops, "conv3d", "ops.conv3d", _count_conv3d),
    (ops, "max_pool2", "ops.max_pool2", None),
    (ops, "upsample_bilinear", "ops.upsample_bilinear", None),
    (ops, "relu", "ops.other", None),
    (ops, "sigmoid", "ops.other", None),
    (ops, "dropout", "ops.other", None),
    (ops, "concat", "ops.other", None),
    (ops, "fc", "ops.other", None),
    (ops, "global_avg_pool", "ops.other", None),
    (tensor, "matmul", "tensor.matmul", _count_matmul),
    (tensor, "reshape", "tensor.shape_ops", None),
    (tensor, "transpose", "tensor.shape_ops", None),
    (tensor, "broadcast_to", "tensor.shape_ops", None),
    (tensor, "narrow", "tensor.shape_ops", None),
    (model, "prediction_loss", "model.loss", None),
    (train, "init_state", "train.init_state", None),
    (train, "train_model", "train.train_model", None),
    (train, "predict_scene", "train.predict_scene", None),
    (train, "save_checkpoint", "train.save_checkpoint", None),
    (train, "load_checkpoint", "train.load_checkpoint", None),
    (params, "save_params", "params.save_params", _measure_container),
    (params, "load_params", "params.load_params", _measure_container),
    (synthdata, "augment", "synthdata.augment", None),
    (synthdata, "generate_scene", "synthdata.generate_scene", None),
    (synthdata, "defocus_blur", "synthdata.defocus_blur", _count_taps),
    (synthdata, "write_scene", "synthdata.write_scene", None),
    (synthdata, "read_scene", "synthdata.read_scene", None),
    (pnm, "write_ppm", "pnm.write", _count_pnm_write),
    (pnm, "write_pgm16", "pnm.write", _count_pnm_write),
    (pnm, "read_ppm", "pnm.read", _count_pnm_read),
    (pnm, "read_pgm16", "pnm.read", _count_pnm_read),
    (metrics, "evaluate", "metrics.evaluate", None),
]

METHODS = [
    (tensor.Tensor, "backward", "tensor.backward"),
    (train.Adam, "step", "train.adam"),
    (params.ModuleParams, "zero_grad", "train.zero_grad"),
    (model.DepthNet, "__call__", "model.decoder"),
    (cru.Cru, "__call__", "cru.block"),
    (cru.Cru, "multi_dilated", "cru.md"),
    (cru.Cru, "multi_graph", "cru.mg"),
    (cmfa.Cmfa, "__call__", "cmfa.block"),
    (cmfa.Cmfa, "enhance", "cmfa.enhance"),
    (cmfa.Cmfa, "self_attention_weights", "cmfa.attention"),
    (cmfa.Cmfa, "global_aggregate", "cmfa.attention"),
    (cmfa.Cmfa, "relation_attention_weights", "cmfa.attention"),
    (cmfa.Cmfa, "relation_aggregate", "cmfa.attention"),
]

_MODULES = [cmfa, cru, metrics, model, ops, params, pnm, synthdata, tensor, train]


class Tracer:
    """Records spans while ``active()``; ``item`` labels the spans of each item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.container_mb = 0.0
        self.item = -1
        self._stack: list[tuple[int, str]] = []
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int) -> None:
        """Add to a per-item counter; calls made in set-up (item < 0) are not counted."""
        if self.item >= 0:
            self.counts[name] += value

    # -- span recording --------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((sid, name))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, self.item, None))
            if count is not None:
                count(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_closure(self, fn, origin: tuple[int, str] | None):
        origin_sid, origin_name = origin if origin else (UNTRACED, "untraced")

        def traced_backward(g):
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((sid, origin_name))
            t0 = perf_counter()
            try:
                fn(g)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, origin_name, t0, t1, self.item, origin_sid))

        return traced_backward

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def instrument_model(self, net) -> None:
        """Name the two backbones of one DepthNet; undone when ``active`` exits."""
        for attr, name in (("rgb_backbone", "model.backbone_rgb"),
                           ("focal_backbone", "model.backbone_focal")):
            backbone = getattr(net, attr)
            if backbone is not None:
                self._patch(net, attr, self._wrap(name, backbone))

    @contextmanager
    def active(self):
        orig_track = tensor._track

        def track(data, parents, backward_fn):
            out = orig_track(data, parents, backward_fn)
            if out._backward_fn is not None:
                self.count("tensor.tape_nodes", 1)
                origin = self._stack[-1] if self._stack else None
                out._backward_fn = self._wrap_closure(out._backward_fn, origin)
            return out

        try:
            for owner, attr, name, count in FUNCTIONS:
                self._patch_everywhere(getattr(owner, attr), self._wrap(name, getattr(owner, attr), count))
            self._patch_everywhere(orig_track, track)
            for cls, attr, name in METHODS:
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
            yield self
        finally:
            while self._patches:
                owner, attr, value = self._patches.pop()
                setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


# -- analysis -------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.t1)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


# Op layers: self time in the full span tree; a closure goes to the op that
# created its node.
OPS = [
    "ops.conv2d", "ops.conv3d", "ops.max_pool2", "ops.upsample_bilinear", "ops.other",
    "tensor.matmul", "tensor.shape_ops",
]
# Blocks: self time in the tree of block spans alone (op spans are transparent),
# so each block holds the ops it runs; a closure goes to the innermost block
# around the span that created its node.  model.decoder is DepthNet.__call__
# minus the backbones and fusion blocks it calls.
BLOCKS = [
    "cru.md", "cru.mg", "cru.block", "cmfa.enhance", "cmfa.attention", "cmfa.block",
    "model.backbone_rgb", "model.backbone_focal", "model.decoder", "model.loss",
]
PER_ITEM = [
    "train.init_state", "train.train_model", "train.adam", "train.zero_grad",
    "train.predict_scene",
    "synthdata.augment", "synthdata.generate_scene", "synthdata.defocus_blur",
    "synthdata.write_scene", "synthdata.read_scene",
    "pnm.write", "pnm.read", "metrics.evaluate",
]
PER_CALL = [
    "train.save_checkpoint", "train.load_checkpoint", "params.save_params", "params.load_params",
]
CALL_COUNTS = ["ops.conv2d", "ops.conv3d", "tensor.matmul"]
# metric: (raw counter, divisor, unit)
COUNTS = {
    "ops.conv2d.gflop": ("ops.conv2d.flop", 1e9, "GFLOP-calc/item"),
    "ops.conv2d.mb": ("ops.conv2d.bytes", 1e6, "MB-calc/item"),
    "ops.conv3d.gflop": ("ops.conv3d.flop", 1e9, "GFLOP-calc/item"),
    "tensor.matmul.gflop": ("tensor.matmul.flop", 1e9, "GFLOP-calc/item"),
    "tensor.tape_nodes": ("tensor.tape_nodes", 1, "nodes/item"),
    "synthdata.defocus_blur.taps": ("synthdata.defocus_blur.taps", 1, "taps-calc/item"),
    "pnm.mb": ("pnm.bytes", 1e6, "MB-calc/item"),
}


def _block_view(spans: list[Span]):
    """Block spans re-parented onto their nearest block ancestor, and a function
    from a span id to the innermost block span around it (None outside blocks)."""
    by_sid = {s.sid: s for s in spans}
    block_of: dict[int | None, int | None] = {None: None, UNTRACED: None}

    def enclosing(sid):
        path = []
        while sid not in block_of:
            s = by_sid.get(sid)
            if s is None:           # parent outside the recorded spans
                block_of[sid] = None
                break
            if s.name in BLOCKS and s.origin is None:
                block_of[sid] = sid
                break
            path.append(sid)
            sid = s.parent
        for p in path:
            block_of[p] = block_of[sid]
        return block_of[sid]

    blocks = [
        s._replace(parent=enclosing(s.parent))
        for s in spans if s.origin is None and s.name in BLOCKS
    ]
    return blocks, enclosing


def layer_metrics(tracer: Tracer, items: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Times are self seconds per traced item (spans with item >= 0), except the
    checkpoint IO functions, which run once per round or in set-up and are
    reported per call over every traced span.  ``wall_s`` is the traced
    phase's wall time; ``trace.coverage`` is the share of it inside spans.
    """
    spans = [s for s in tracer.spans if s.item >= 0]
    selfs = self_times(tracer.spans)
    fwd, bwd, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    backward_incl = covered = 0.0
    for s in spans:
        if s.parent is None:
            covered += s.t1 - s.t0
        if s.origin is None:
            fwd[s.name] += selfs[s.sid]
            calls[s.name] += 1
            if s.name == "tensor.backward":
                backward_incl += s.t1 - s.t0
        else:
            bwd[s.name] += selfs[s.sid]

    blocks, enclosing = _block_view(spans)
    block_fwd, block_bwd = defaultdict(float), defaultdict(float)
    block_selfs = self_times(blocks)
    names = {s.sid: s.name for s in blocks}
    for s in blocks:
        block_fwd[s.name] += block_selfs[s.sid]
    for s in spans:
        block = enclosing(s.origin) if s.origin is not None else None
        if block is not None:
            block_bwd[names[block]] += selfs[s.sid]

    out: dict[str, tuple[float, str]] = {}
    for name in OPS:
        out[f"{name}.fwd_s"] = (fwd[name] / items, "s/item")
        out[f"{name}.bwd_s"] = (bwd[name] / items, "s/item")
    for name in BLOCKS:
        out[f"{name}.fwd_s"] = (block_fwd[name] / items, "s/item")
        out[f"{name}.bwd_s"] = (block_bwd[name] / items, "s/item")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (calls[name] / items, "calls/item")
    out["tensor.backward.s"] = (backward_incl / items, "s/item")
    out["tensor.backward.self_s"] = (fwd["tensor.backward"] / items, "s/item")
    for name in PER_ITEM:
        out[f"{name}.s"] = (fwd[name] / items, "s/item")
    for name in PER_CALL:
        per_call = [selfs[s.sid] for s in tracer.spans if s.name == name]
        out[f"{name}.s"] = (sum(per_call) / len(per_call) if per_call else 0.0, "s/call")
    out["params.container_mb"] = (tracer.container_mb, "MB")
    for name, (raw, divisor, unit) in COUNTS.items():
        out[name] = (tracer.counts.get(raw, 0) / (divisor * items), unit)
    out["trace.coverage"] = (covered / wall_s, "ratio")
    return out
