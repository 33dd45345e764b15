"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor wraps a row-major numpy array in double precision.  Operations
build a dynamic tape: each result remembers its parents and a closure that
routes the incoming gradient back to them.  ``Tensor.backward()`` walks the
tape once in reverse topological order, accumulates gradients on trainable
leaves and frees intermediate gradients as it goes.

The tape is rebuilt on every forward pass (shapes downstream depend on the
data, e.g. graph node counts follow the spatial size), is single-threaded,
and tensors with tracking disabled are immutable by convention and safe to
share across threads.  ``no_grad`` acts on the calling thread only.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError, UsageError

# Open no_grad contexts in the current thread; the tape records only at depth
# 0.  A count lets overlapping contexts exit in any order.
_NO_GRAD_DEPTH: ContextVar[int] = ContextVar("lfdepth_no_grad_depth", default=0)


@contextmanager
def no_grad():
    """Disable tape recording inside the context (inference / metrics)."""
    _NO_GRAD_DEPTH.set(_NO_GRAD_DEPTH.get() + 1)
    try:
        yield
    finally:
        _NO_GRAD_DEPTH.set(_NO_GRAD_DEPTH.get() - 1)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if any(n < 1 for n in arr.shape):
        raise ShapeError(f"tensor extents must all be >= 1, got shape {arr.shape}")
    return arr


class Tensor:
    """A dense float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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
        tensor; gradients of interior nodes are freed once consumed.
        """
        if self.size != 1:
            raise UsageError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise UsageError("backward() on a tensor that does not require grad")

        # Iterative postorder so deep tapes cannot hit the recursion limit.
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if p.requires_grad and id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                topo.append(node)
                stack.pop()

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
            if node._parents:
                # interior node: gradient fully consumed, release the tape edge
                node.grad = None
                node._parents = ()
                node._backward_fn = None


def _track(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _NO_GRAD_DEPTH.get() == 0 and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy in the layout of t.data, as zeros_like(t.data) + g gave
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


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


# -- elementwise arithmetic -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _track(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _track(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _track(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    if np.any(b.data == 0.0):
        raise DomainError("division by exact zero")

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _track(a.data / b.data, (a, b), backward)


def absolute(a: Tensor) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g * np.sign(a.data))

    return _track(np.abs(a.data), (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt of a negative value")
    root = np.sqrt(a.data)

    def backward(g):
        _accum(a, g / (2.0 * root))

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

    def backward(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _track(np.matmul(a.data, b.data), (a, b), backward)


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

    def backward(g):
        gk = g.reshape(kept)
        if op == "mean":
            gk = gk / count
        # a read-only view: _accum copies it into, or adds it to, x.grad
        _accum(x, np.broadcast_to(gk, x.shape))

    if not keepdims:
        data = data.reshape(tuple(n for i, n in enumerate(x.shape) if i not in axes))
    return _track(data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def backward(g):
        _accum(x, g.reshape(x.shape))

    return _track(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {x.ndim}")
    inverse = np.argsort(axes)

    def backward(g):
        _accum(x, g.transpose(inverse))

    return _track(x.data.transpose(axes), (x,), backward)


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    _check_broadcast(x.shape, shape)

    def backward(g):
        _accum(x, _unbroadcast(g, x.shape))

    return _track(np.broadcast_to(x.data, shape).copy(), (x,), backward)


def narrow(x: Tensor, key) -> Tensor:
    """Basic slicing (slices / ints only); the gradient scatters back."""
    x = as_tensor(x)
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, (slice, int)):
            raise UsageError("only basic slice/int indexing is supported")

    def backward(g):
        full = np.zeros_like(x.data)
        full[key] = g
        _accum(x, full)

    return _track(x.data[key].copy(), (x,), backward)


def concat_tensors(xs: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; the gradient splits at the seams."""
    xs = [as_tensor(t) for t in xs]
    if not xs:
        raise UsageError("concat of an empty list")
    ref = xs[0].shape
    axis = axis % xs[0].ndim
    for t in xs[1:]:
        if t.ndim != len(ref) or any(
            i != axis and n != ref[i] for i, n in enumerate(t.shape)
        ):
            raise ShapeError(f"concat extents differ off axis {axis}: {[t.shape for t in xs]}")
    sizes = [t.shape[axis] for t in xs]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            sel = tuple(slice(lo, hi) if i == axis else slice(None) for i in range(t.ndim))
            _accum(t, g[sel])

    return _track(np.concatenate([t.data for t in xs], axis=axis), tuple(xs), backward)
