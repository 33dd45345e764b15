import threading

import numpy as np
import pytest

from lfdepth.errors import DomainError, ShapeError, UsageError
from lfdepth.tensor import (
    Tensor,
    add,
    as_tensor,
    absolute,
    broadcast_to,
    concat,
    matmul,
    narrow,
    no_grad,
    reduce,
    reshape,
    sqrt,
    sub,
    transpose,
)

from oracles import fd_gradients, max_rel_err

TOL_SIMPLE = 1e-6


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_grads(build, tensors, tol=TOL_SIMPLE):
    """Run backward once, then compare every tensor's grad to central FD."""
    out = build()
    out.backward()
    want = fd_gradients(lambda: build().item(), tensors)
    for t, w in zip(tensors, want):
        assert t.grad is not None
        assert max_rel_err(t.grad, w) < tol


def test_constructor_rejects_empty_extent():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 0, 3)))


def test_scalar_item_and_detach():
    t = Tensor(np.array(2.5), requires_grad=True)
    assert t.item() == 2.5
    d = Tensor(t.data)
    assert d.requires_grad is False
    assert d.data is t.data


@pytest.mark.parametrize("seed", range(5))
def test_arithmetic_grads(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, 3, 4)
    b = leaf(rng, 3, 4)
    # keep b away from zero so division stays well conditioned
    b.data[:] = np.sign(b.data) * (np.abs(b.data) + 0.5)

    def build():
        return ((a * b + a - b) / b + 2.0 * a - a / 3.0).sum()

    check_grads(build, [a, b])


@pytest.mark.parametrize("shapes", [((3, 1), (4,)), ((2, 3, 4), (3, 4)), ((5, 1, 2), (1, 6, 2))])
def test_broadcast_grads(shapes):
    rng = np.random.default_rng(hash(shapes) % 2**32)
    a = leaf(rng, *shapes[0])
    b = leaf(rng, *shapes[1])
    check_grads(lambda: (a * b).sum(), [a, b])


def test_broadcast_shape_error():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        a + b


def test_div_by_exact_zero_raises():
    a = Tensor(np.ones(3))
    b = Tensor(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        a / b


def test_sqrt_and_abs_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng, 4, 2)
    a.data[:] = np.abs(a.data) + 0.3
    check_grads(lambda: sqrt(a).sum(), [a])
    b = leaf(rng, 4, 2)
    b.data[:] = np.sign(b.data) * (np.abs(b.data) + 0.3)  # stay away from the kink
    check_grads(lambda: absolute(b).sum(), [b])


def test_sqrt_negative_raises():
    with pytest.raises(DomainError):
        sqrt(Tensor(np.array([1.0, -0.5])))


@pytest.mark.parametrize("seed", range(4))
def test_matmul_grads(seed):
    rng = np.random.default_rng(100 + seed)
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 2, 4, 5)
    check_grads(lambda: matmul(a, b).sum(), [a, b])


def test_matmul_broadcast_batch():
    rng = np.random.default_rng(11)
    a = leaf(rng, 3, 4)
    b = leaf(rng, 6, 4, 2)
    out = matmul(a, b)
    assert out.shape == (6, 3, 2)
    check_grads(lambda: matmul(a, b).sum(), [a, b])


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("op", ["sum", "mean"])
@pytest.mark.parametrize("axes", [None, 0, (0, 1), -1])
def test_reduce_grads(op, axes):
    rng = np.random.default_rng(5)
    a = leaf(rng, 3, 4, 2)

    def build():
        r = reduce(a, axes, op)
        return r.sum() if r.ndim else r

    check_grads(build, [a], tol=1e-5)


def test_reduce_keepdims_and_mean_value():
    a = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]))
    m = reduce(a, (0, 1), "mean", keepdims=True)
    assert m.shape == (1, 1)
    assert m.data[0, 0] == 4.0


def test_reduce_unknown_op():
    with pytest.raises(UsageError):
        reduce(Tensor(np.ones(3)), None, "median")


def test_reshape_transpose_narrow_concat_grads():
    rng = np.random.default_rng(21)
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 2, 1, 4)

    def build():
        c = concat([a, b], axis=1)          # [2,4,4]
        t = transpose(c, (1, 0, 2))                 # [4,2,4]
        r = reshape(t, (4, 8))
        return (narrow(r, (slice(1, 3), slice(None))) * narrow(r, (slice(0, 2), slice(None)))).sum()

    check_grads(build, [a, b])


def test_narrow_int_index_drops_axis():
    a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    row = narrow(a, 1)
    assert row.shape == (4,)
    row.sum().backward()
    np.testing.assert_array_equal(a.grad[1], np.ones(4))
    assert a.grad[0].sum() == 0.0


def test_narrow_is_a_view_and_its_gradient_scatters():
    rng = np.random.default_rng(23)
    a = leaf(rng, 3, 4, 5)
    g = rng.standard_normal((3, 2, 4))
    keys = ((slice(None), slice(1, 3), slice(0, -1)),
            (slice(None), slice(None, 2), slice(1, None)))
    for key in keys:
        a.zero_grad()
        out = narrow(a, key)
        assert np.shares_memory(out.data, a.data)
        assert out.data.tobytes() == a.data[key].tobytes()
        (out * Tensor(g)).sum().backward()
        want = np.zeros_like(a.data)
        want[key] = g
        assert a.grad.tobytes() == want.tobytes()


def test_reshape_rejects_negative_extents_whose_product_matches():
    x = Tensor(np.zeros((3, 4)))
    for shape in ((-1, -12), (12, 0)):
        with pytest.raises(ShapeError, match="reshape"):
            reshape(x, shape)


def test_narrow_rejects_more_indices_than_axes():
    with pytest.raises(ShapeError, match="rank 2"):
        narrow(Tensor(np.zeros((2, 3))), (0, 1, slice(None)))


def test_concat_mismatch_raises():
    with pytest.raises(ShapeError):
        concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)
    with pytest.raises(UsageError):
        concat([], axis=0)


def test_broadcast_to_grad_sums():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    broadcast_to(a, (3, 2)).sum().backward()
    np.testing.assert_allclose(a.grad, [3.0, 3.0])


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 7
    y.backward()
    assert abs(x.grad.item() - 7.0) < 1e-12


def test_gradients_own_their_buffers():
    """No two tensors share a grad buffer, and reuse sums as copy-then-add did."""
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 4))
    cases = [
        (lambda a, b: add(a, a), lambda a, b: (c + c, None)),
        (lambda a, b: add(a, b), lambda a, b: (c, c)),
        (lambda a, b: sub(a, b), lambda a, b: (c, -c)),
        (lambda a, b: a * a + b, lambda a, b: (c * a + c * a, c)),
        (lambda a, b: reshape(transpose(a, (1, 0)), (3, 4)) + reshape(b, (3, 4)),
         lambda a, b: (np.ascontiguousarray(c.reshape(4, 3).T), c)),
    ]
    for build, want in cases:
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
        (build(a, b) * Tensor(c)).sum().backward()
        held = [t.grad for t in (a, b) if t.grad is not None]
        for i, g in enumerate(held):
            for other in held[i + 1:] + [a.data, b.data, c]:
                assert not np.shares_memory(g, other)
        for t, w in zip((a, b), want(a.data, b.data)):
            if w is None:
                assert t.grad is None
            else:
                assert t.grad.tobytes() == w.tobytes()


def test_diamond_graph_single_visit():
    x = Tensor(np.array(2.0), requires_grad=True)
    a = x * 3.0
    b = x * 5.0
    (a * b).backward()  # d/dx 15x^2 = 30x = 60
    assert abs(x.grad.item() - 60.0) < 1e-12


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.array(1.0), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.001
    y.backward()
    assert abs(x.grad.item() - 1.0) < 1e-12


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        (x * 2.0).backward()


def test_backward_requires_grad():
    x = Tensor(np.array(1.0))
    with pytest.raises(UsageError):
        (x + 1.0).backward()


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y.requires_grad is False
    assert y._parents == ()


def test_no_grad_contexts_may_exit_out_of_order():
    x = Tensor(np.ones(3), requires_grad=True)
    a, b = no_grad(), no_grad()
    a.__enter__()
    b.__enter__()
    a.__exit__(None, None, None)
    assert not (x * 2.0).requires_grad  # still inside b
    b.__exit__(None, None, None)
    assert (x * 2.0).requires_grad


def test_no_grad_in_overlapping_threads_leaves_caller_recording():
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    untracked = []

    def first():
        with no_grad():
            first_in.set()
            second_in.wait(5.0)
        first_out.set()

    def second():
        first_in.wait(5.0)
        with no_grad():
            second_in.set()
            first_out.wait(5.0)
            untracked.append(not (Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert not any(t.is_alive() for t in threads)
    assert first_out.is_set() and untracked == [True]
    x = Tensor(np.ones(3), requires_grad=True)
    assert (x * 2.0).requires_grad


def test_interior_grads_freed_after_backward():
    x = Tensor(np.ones(3), requires_grad=True)
    mid = x * 2.0
    out = mid.sum()
    out.backward()
    assert x.grad is not None
    assert mid.grad is None


def test_zero_grad_and_repeat_backward():
    x = Tensor(np.array(4.0), requires_grad=True)
    (x * x).backward()
    first = x.grad.item()
    x.zero_grad()
    assert x.grad is None
    (x * x).backward()
    assert x.grad.item() == first


def test_backward_through_a_consumed_graph_is_a_usage_error():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x
    y.backward()
    x.zero_grad()
    with pytest.raises(UsageError, match="already run"):
        y.backward()
    assert x.grad is None
    # a new graph on top of a consumed one is refused before any gradient changes
    w = Tensor(np.array(2.0), requires_grad=True)
    with pytest.raises(UsageError, match="already run"):
        (y * w).backward()
    assert x.grad is None and w.grad is None


def test_backward_on_a_leaf_may_repeat():
    x = Tensor(np.array(3.0), requires_grad=True)
    for _ in range(2):
        x.backward()
        assert x.grad.item() == 1.0


def test_as_tensor_passthrough_and_wrap():
    t = Tensor(np.ones(2))
    assert as_tensor(t) is t
    w = as_tensor([1.0, 2.0])
    assert isinstance(w, Tensor)
    assert w.data.dtype == np.float64


# -- dtypes: float64 on the tape, float32 for inference ------------------------


def _tensor_ops(x, p):
    """Every public tensor op applied to ``x`` [2, 3] alone, with the [2, 3]
    tensor ``p``, and with Python scalars."""
    return {
        "add": x + p, "radd": 1.5 + x, "sub": x - p, "rsub": 1.0 - x,
        "mul": x * p, "rmul": 2 * x, "neg": -x,
        "div": x / (p * p + 1.0), "rdiv": 3.0 / (x * x + 1.0),
        "abs": absolute(x), "sqrt": sqrt(x * x),
        "matmul": matmul(x, transpose(p, (1, 0))), "rmatmul": matmul(p, transpose(x, (1, 0))),
        "sum": reduce(x, 0, "sum"), "mean": x.mean(), "reshape": reshape(x, (3, 2)),
        "transpose": transpose(x, (1, 0)), "broadcast_to": broadcast_to(x, (4, 2, 3)),
        "narrow": narrow(x, (slice(None), 1)), "concat": concat([x, p, x], axis=0),
    }


def test_float32_input_stays_float32_in_every_op():
    rng = np.random.default_rng(40)
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    param = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with no_grad():
        outs = _tensor_ops(x, param)
        reference = _tensor_ops(Tensor(x.data.astype(np.float64)), param)
    for name, out in outs.items():
        assert out.data.dtype == np.float32, name
        np.testing.assert_allclose(out.data, reference[name].data, rtol=1e-5, atol=1e-6,
                                   err_msg=name)
    assert param.data.dtype == np.float64 and param.grad is None


def test_float64_input_stays_float64_in_every_op():
    rng = np.random.default_rng(41)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    for name, out in _tensor_ops(x, Tensor(rng.standard_normal((2, 3)))).items():
        assert out.data.dtype == np.float64, name
        assert out.requires_grad, name


def test_constructor_keeps_float32_and_widens_everything_else():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.float32(2.0)).data.dtype == np.float32
    for value in (np.ones(2, np.float16), np.arange(3), [True, False], 2.0, [1, 2]):
        assert Tensor(value).data.dtype == np.float64


def test_float32_on_the_tape_is_a_usage_error():
    x32 = np.ones((2, 2), np.float32)
    with pytest.raises(UsageError, match="float64 only"):
        Tensor(x32, requires_grad=True) * 2.0
    param = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(UsageError, match="no_grad"):
        matmul(Tensor(x32), param)
    with no_grad():
        assert matmul(Tensor(x32), param).data.dtype == np.float32
