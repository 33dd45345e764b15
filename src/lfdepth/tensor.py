"""Dense tensors with reverse-mode automatic differentiation.

Every tensor wraps a row-major numpy array: float64 for training, float32
for inference.  Operations build a dynamic tape of entries (``_Node``), kept
apart from the tensors: a tracked result's entry holds its parents' entries,
a closure that routes the incoming gradient back to them, its gradient, shape
and dtype, and no data.  A leaf is its own entry.  Each closure keeps only
the arrays its backward reads (a product keeps both operands, a sum keeps
none), so an activation that no backward reads is freed as soon as the
forward code drops its tensor.  ``Tensor.backward()`` walks the entries once
in reverse topological order, accumulates gradients on trainable leaves and
frees the tape as it goes: an entry's gradient, edges and closure go once its
backward has run, and with the closure the arrays it kept.  A graph is
differentiated once; a second ``backward()`` through it is a UsageError.

An op computes in its input's dtype.  A float32 operand casts the other
operand of a binary op to float32, so float64 parameters and Python scalars
join a float32 forward pass without being changed.  The dtype decides what
the tape records: a result is recorded only when it is float64 and some input
requires grad, and only a float64 tensor may require grad (UsageError
otherwise).  So a float32 forward records nothing, even through trainable
parameters, and its result cannot be differentiated.

The tape is rebuilt on every forward pass (shapes downstream depend on the
data, e.g. graph node counts follow the spatial size) and is single-threaded.
A float32 forward reads the float64 parameters' data without recording or
writing anything, so float32 forwards on many threads may share one model.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError, UsageError


def _as_array(data) -> np.ndarray:
    """``data`` as float32 if it is a float32 array, else as float64."""
    arr = np.asarray(data)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if any(n < 1 for n in arr.shape):
        raise ShapeError(f"tensor extents must all be >= 1, got shape {arr.shape}")
    return arr


class _Node:
    """The tape entry of a tracked result: its gradient and edges, and no data."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward_fn", "shape", "dtype")

    def __init__(self, parents: tuple, backward_fn, shape: tuple[int, ...], dtype):
        self.grad: np.ndarray | None = None
        self.requires_grad = True
        self._parents = parents
        self._backward_fn = backward_fn
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense float64 or float32 array; a float64 one may be tracked for differentiation.

    A tracked result holds its tape entry in ``_node``; ``_parents`` and
    ``_backward_fn`` read (and ``_backward_fn`` also sets) that entry.  A
    leaf has no entry of its own: it is its own entry, with no parents and
    no closure, and its ``grad`` is where backward accumulates.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if requires_grad and self.data.dtype != np.float64:
            raise UsageError(f"only a float64 tensor may require grad, got {self.data.dtype}")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn) -> None:
        self._node._backward_fn = fn

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise UsageError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return narrow(self, key)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)

    def sum(self, axes=None, keepdims: bool = False):
        return reduce(self, axes, "sum", keepdims)

    def mean(self, axes=None, keepdims: bool = False):
        return reduce(self, axes, "mean", keepdims)

    def abs(self):
        return absolute(self)

    # -- reverse pass ---------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar loss.

        Populates ``grad`` on every trainable leaf reachable from this
        tensor.  The walk runs over tape entries, not tensors: an interior
        entry holds no data, only the arrays its closure reads.  It pops each
        entry off the topological order as it runs it; once an interior
        entry's backward has run, its gradient, edges and closure are
        dropped, and with the closure every array that only it kept, so an
        activation is freed as soon as the backward of each of its readers
        has run.  A tensor the caller holds keeps its ``data``.  The graph is
        consumed: a later ``backward()`` through any of its interior entries
        raises UsageError before any gradient changes.
        """
        if self.size != 1:
            raise UsageError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise UsageError(
                f"backward() on a {self.dtype} tensor that does not require grad: "
                "float32 results are never recorded"
            )

        # Iterative postorder so deep tapes cannot hit the recursion limit.
        root = _entry(self)
        topo: list = []
        visited = {id(root)}
        stack: list[tuple[object, Iterable]] = [(root, iter(root._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if p.requires_grad and id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                if node._backward_fn is _CONSUMED:
                    raise UsageError(
                        "backward() through a graph whose backward has already run: "
                        "run the forward pass again"
                    )
                topo.append(node)
                stack.pop()

        root.grad = np.ones(root.shape, root.dtype)
        while topo:
            node = topo.pop()
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
            if node._parents:
                # interior entry: gradient fully consumed, release its edges and closure
                node.grad = None
                node._parents = ()
                node._backward_fn = _CONSUMED


# The ``_backward_fn`` of an interior entry whose backward has run.
_CONSUMED = object()


def _entry(t: Tensor):
    """The tape entry of ``t``: its ``_node`` when it is a tracked result, else ``t`` itself."""
    return t if t._node is None else t._node


def _track(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap ``data``; record an entry with the parents' entries when it is
    float64 and any parent is tracked.

    ``backward_fn`` should hold its inputs' entries (``_entry``), not the
    input tensors, and only the arrays it reads.
    """
    out = Tensor(data)
    if out.data.dtype == np.float64 and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_entry(p) for p in parents), backward_fn,
                          out.data.shape, out.data.dtype)
    return out


def _accum(t, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into the gradient of ``t``, a tape entry or a tensor.

    A tracked tensor's gradient goes to its entry, so a closure that holds
    the tensor itself cannot lose it.  Every gradient is a buffer no other
    entry holds, C-contiguous in the entry's shape and dtype: the first one
    is copied into such a buffer.  A ``fresh`` ``g`` is an array the calling
    backward allocated itself and keeps no reference to, never handed to
    another parent: it becomes the gradient without a copy when it already
    is such a buffer, whatever the layout of the tensor's ``data``.  A ``g``
    that flows through an op unchanged, or a view of one, is never fresh.
    Since a gradient is owned, a backward closure may overwrite the ``g`` it
    receives.
    """
    if isinstance(t, Tensor):
        t = _entry(t)
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif fresh and g.flags.c_contiguous and g.shape == t.shape and g.dtype == t.dtype:
        t.grad = g
    else:
        t.grad = np.empty(t.shape, t.dtype)
        np.copyto(t.grad, g)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# -- broadcasting helpers ---------------------------------------------------


def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shapes {sa} and {sb} are not broadcastable")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _common(a: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The operands' arrays in one dtype: float32 when either one is float32."""
    if a.data.dtype == b.data.dtype:
        return a.data, b.data
    return a.data.astype(np.float32, copy=False), b.data.astype(np.float32, copy=False)


# -- elementwise arithmetic -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    na, nb = _entry(a), _entry(b)

    def backward(g):
        _accum(na, _unbroadcast(g, na.shape))
        _accum(nb, _unbroadcast(g, nb.shape))

    return _track(np.add(*_common(a, b)), (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    na, nb = _entry(a), _entry(b)

    def backward(g):
        _accum(na, _unbroadcast(g, na.shape))
        _accum(nb, _unbroadcast(-g, nb.shape), fresh=True)

    return _track(np.subtract(*_common(a, b)), (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    na, nb, ad, bd = _entry(a), _entry(b), a.data, b.data

    def backward(g):
        _accum(na, _unbroadcast(g * bd, na.shape), fresh=True)
        _accum(nb, _unbroadcast(g * ad, nb.shape), fresh=True)

    return _track(np.multiply(*_common(a, b)), (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    if np.any(b.data == 0.0):
        raise DomainError("division by exact zero")

    na, nb, ad, bd = _entry(a), _entry(b), a.data, b.data

    def backward(g):
        _accum(na, _unbroadcast(g / bd, na.shape), fresh=True)
        _accum(nb, _unbroadcast(-g * ad / (bd * bd), nb.shape), fresh=True)

    return _track(np.divide(*_common(a, b)), (a, b), backward)


def absolute(a: Tensor) -> Tensor:
    a = as_tensor(a)
    na, ad = _entry(a), a.data

    def backward(g):
        _accum(na, g * np.sign(ad), fresh=True)

    return _track(np.abs(a.data), (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of a negative value")
    root = np.sqrt(a.data)
    na = _entry(a)

    def backward(g):
        _accum(na, g / (2.0 * root), fresh=True)

    return _track(root, (a,), backward)


# -- matmul / reductions / layout -------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``[.., M, K] @ [.., K, N] -> [.., M, N]``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    _check_broadcast(a.shape[:-2], b.shape[:-2])
    na, nb, ad, bd = _entry(a), _entry(b), a.data, b.data

    def backward(g):
        _accum(na, _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), na.shape), fresh=True)
        _accum(nb, _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), nb.shape), fresh=True)

    return _track(np.matmul(*_common(a, b)), (a, b), backward)


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for rank {ndim}")
        out.append(ax % ndim)
    if len(set(out)) != len(out):
        raise ShapeError(f"duplicate axes in {axes}")
    return tuple(sorted(out))


def reduce(x: Tensor, axes, op: str, keepdims: bool = False) -> Tensor:
    """Reduce ``x`` over ``axes`` (all axes when None) with sum or mean."""
    x = as_tensor(x)
    if op not in ("sum", "mean"):
        raise UsageError(f"unknown reduce op {op!r}")
    axes = _norm_axes(axes, x.ndim)
    kept = tuple(1 if i in axes else n for i, n in enumerate(x.shape))
    data = x.data.sum(axis=axes, keepdims=True)
    count = float(np.prod([x.shape[i] for i in axes])) if axes else 1.0
    if op == "mean":
        data = data / count

    nx = _entry(x)

    def backward(g):
        gk = g.reshape(kept)
        if op == "mean":
            gk = gk / count
        # a read-only view: _accum copies it into, or adds it to, the gradient
        _accum(nx, np.broadcast_to(gk, nx.shape))

    if not keepdims:
        data = data.reshape(tuple(n for i, n in enumerate(x.shape) if i not in axes))
    return _track(data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if min(shape, default=1) < 1 or int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    nx = _entry(x)

    def backward(g):
        _accum(nx, g.reshape(nx.shape))

    return _track(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {x.ndim}")
    inverse = np.argsort(axes)

    nx = _entry(x)

    def backward(g):
        _accum(nx, g.transpose(inverse))

    return _track(x.data.transpose(axes), (x,), backward)


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if len(shape) < x.ndim:
        raise ShapeError(f"cannot broadcast shape {x.shape} to fewer axes {shape}")
    _check_broadcast(x.shape, shape)

    nx = _entry(x)

    def backward(g):
        _accum(nx, _unbroadcast(g, nx.shape))

    return _track(np.broadcast_to(x.data, shape).copy(), (x,), backward)


def narrow(x: Tensor, key) -> Tensor:
    """Basic slicing (slices / ints only); the gradient scatters back.

    The result's data is numpy's basic-slice view of ``x.data``, not a copy:
    it shares memory with ``x`` (tensors are immutable by convention), and on
    the tape it costs no bytes of its own.
    """
    x = as_tensor(x)
    if not isinstance(key, tuple):
        key = (key,)
    if len(key) > x.ndim:
        raise ShapeError(f"{len(key)} indices for rank {x.ndim}")
    for k in key:
        if not isinstance(k, (slice, int)):
            raise UsageError("only basic slice/int indexing is supported")

    nx = _entry(x)

    def backward(g):
        full = np.zeros(nx.shape, nx.dtype)
        full[key] = g
        _accum(nx, full, fresh=True)

    return _track(x.data[key], (x,), backward)


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; the gradient splits at the seams."""
    xs = [as_tensor(t) for t in xs]
    if not xs:
        raise UsageError("concat of an empty list")
    ref = xs[0].shape
    if not -len(ref) <= axis < len(ref):
        raise ShapeError(f"concat axis {axis} is out of range for rank {len(ref)}")
    axis = axis % len(ref)
    for t in xs[1:]:
        if t.ndim != len(ref) or any(
            i != axis and n != ref[i] for i, n in enumerate(t.shape)
        ):
            raise ShapeError(f"concat extents differ off axis {axis}: {[t.shape for t in xs]}")
    sizes = [t.shape[axis] for t in xs]
    offsets = np.cumsum([0] + sizes)

    entries = [_entry(t) for t in xs]

    def backward(g):
        for t, lo, hi in zip(entries, offsets[:-1], offsets[1:]):
            sel = tuple(slice(lo, hi) if i == axis else slice(None) for i in range(len(t.shape)))
            _accum(t, g[sel])

    dtype = np.float32 if any(t.data.dtype == np.float32 for t in xs) else np.float64
    return _track(
        np.concatenate([t.data for t in xs], axis=axis, dtype=dtype), tuple(xs), backward
    )
