"""Dense tensors with reverse-mode automatic differentiation.

Every tensor wraps a row-major numpy array: float64 for training, float32
for inference.  Every tracked tensor, leaf or result, owns one tape entry
(``_Node``) and no other, kept apart from its data: a gradient, a shape, the
entries of its tracked parents and a closure that routes the incoming
gradient back to them (a leaf's entry has neither).  Each closure keeps only
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
    """The tape entry of a tracked tensor: its gradient and edges, and no data."""

    __slots__ = ("grad", "_parents", "_backward_fn", "shape")

    def __init__(self, parents: tuple, backward_fn, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn = backward_fn
        self.shape = shape


class Tensor:
    """A dense float64 or float32 array; a float64 one may be tracked for differentiation.

    A tracked tensor holds its tape entry in ``_node``, and an untracked one
    None: ``requires_grad`` is whether it has an entry, and ``grad`` reads
    and sets the entry's gradient.  ``_backward_fn`` reads and sets the
    entry's closure.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if requires_grad and self.data.dtype != np.float64:
            raise UsageError(f"only a float64 tensor may require grad, got {self.data.dtype}")
        self._node = _Node((), None, self.data.shape) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self._node is None:
            raise UsageError("cannot set grad on a tensor that does not require grad")
        self._node.grad = g

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
        root = self._node
        topo: list[_Node] = []
        visited = {root}
        stack: list[tuple[_Node, Iterable]] = [(root, iter(root._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if p not in visited:
                    visited.add(p)
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

        root.grad = np.ones(root.shape)
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


def _track(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap ``data``; when it is float64, record an entry whose edges are the
    tracked parents' entries, if there are any.

    ``backward_fn`` should hold its inputs' entries (``x._node``), not the
    input tensors, and only the arrays it reads.
    """
    out = Tensor(data)
    if out.data.dtype == np.float64:
        edges = tuple(p._node for p in parents if p._node is not None)
        if edges:
            out._node = _Node(edges, backward_fn, out.data.shape)
    return out


def _accum(node: _Node | None, g: np.ndarray, fresh: bool = False) -> None:
    """Sum ``g`` down to the shape of ``node``, the one place that undoes
    broadcasting, and add it into that entry's gradient.

    A None ``node`` (an untracked input's) takes nothing.  Every gradient is
    a float64 buffer no other entry holds, C-contiguous in the entry's shape:
    the first one is copied into such a buffer, and a ``g`` of a shape
    broadcasting cannot produce fails there or in the addition.  A ``fresh``
    ``g`` is an array the calling backward allocated itself and keeps no
    reference to, never handed to another parent: it becomes the gradient
    without a copy when it already is such a buffer, whatever the layout of
    the tensor's ``data``.  A ``g`` that flows through an op unchanged, or a
    view of one, is never fresh.  Since a gradient is owned, a backward
    closure may overwrite the ``g`` it receives.
    """
    if node is None:
        return
    g = _unbroadcast(g, node.shape)
    if node.grad is not None:
        node.grad += g
    elif fresh and g.flags.c_contiguous and g.shape == node.shape and g.dtype == np.float64:
        node.grad = g
    else:
        node.grad = np.empty(node.shape)
        np.copyto(node.grad, g)


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
    na, nb = a._node, b._node

    def backward(g):
        _accum(na, g)
        _accum(nb, g)

    return _track(np.add(*_common(a, b)), (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    na, nb = a._node, b._node

    def backward(g):
        _accum(na, g)
        _accum(nb, -g, fresh=True)

    return _track(np.subtract(*_common(a, b)), (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    na, nb, ad, bd = a._node, b._node, a.data, b.data

    def backward(g):
        _accum(na, g * bd, fresh=True)
        _accum(nb, g * ad, fresh=True)

    return _track(np.multiply(*_common(a, b)), (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    if np.any(b.data == 0.0):
        raise DomainError("division by exact zero")

    na, nb, ad, bd = a._node, b._node, a.data, b.data

    def backward(g):
        _accum(na, g / bd, fresh=True)
        _accum(nb, -g * ad / (bd * bd), fresh=True)

    return _track(np.divide(*_common(a, b)), (a, b), backward)


def absolute(a: Tensor) -> Tensor:
    a = as_tensor(a)
    na, ad = a._node, a.data

    def backward(g):
        _accum(na, g * np.sign(ad), fresh=True)

    return _track(np.abs(a.data), (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of a negative value")
    root = np.sqrt(a.data)
    na = a._node

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
    na, nb, ad, bd = a._node, b._node, a.data, b.data

    def backward(g):
        _accum(na, np.matmul(g, np.swapaxes(bd, -1, -2)), fresh=True)
        _accum(nb, np.matmul(np.swapaxes(ad, -1, -2), g), fresh=True)

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

    nx = x._node

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

    nx = x._node

    def backward(g):
        _accum(nx, g.reshape(nx.shape))

    return _track(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {x.ndim}")
    inverse = np.argsort(axes)

    nx = x._node

    def backward(g):
        _accum(nx, g.transpose(inverse))

    return _track(x.data.transpose(axes), (x,), backward)


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if len(shape) < x.ndim:
        raise ShapeError(f"cannot broadcast shape {x.shape} to fewer axes {shape}")
    _check_broadcast(x.shape, shape)

    nx = x._node

    def backward(g):
        _accum(nx, g)

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

    nx = x._node

    def backward(g):
        full = np.zeros(nx.shape)
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

    nodes = [t._node for t in xs]

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sel = tuple(slice(lo, hi) if i == axis else slice(None) for i in range(g.ndim))
            _accum(node, g[sel])

    dtype = np.float32 if any(t.data.dtype == np.float32 for t in xs) else np.float64
    return _track(
        np.concatenate([t.data for t in xs], axis=axis, dtype=dtype), tuple(xs), backward
    )
