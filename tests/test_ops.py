import math
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest

from lfdepth import ops
from lfdepth.errors import ShapeError, UsageError
from lfdepth.ops import (
    Conv2d,
    Linear,
    concat,
    conv2d,
    conv3d,
    dropout,
    fc,
    global_avg_pool,
    max_pool2,
    relu,
    sigmoid,
    upsample_bilinear,
)
from lfdepth.model import NetworkConfig, prediction_loss
from lfdepth.params import ModuleParams
from lfdepth.synthdata import GenSpec, generate_scene
from lfdepth.tensor import Tensor, _Node, narrow, no_grad
from lfdepth.train import _scene_tensors, init_state

from oracles import (
    bilinear_direct,
    columns_reference,
    conv2d_direct,
    conv_backward_two_walks,
    conv3d_direct,
    fd_gradients,
    max_pool2_argmax,
    max_rel_err,
    relu as oracle_relu,
)

TOL = 1e-4


def leaf(rng, *shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


def block_sizes(channels, kernel, shape):
    """_BLOCK_BYTES for the default blocks, blocks of two items, blocks of two rows.

    Sized for an im2col walk of ``channels`` channels over the extent
    ``shape[2:]``: the forward walks C channels over the output extent, the
    backward CO channels over the input extent.
    """
    row = 8 * channels * math.prod(kernel) * math.prod(shape[3:])
    return ops._BLOCK_BYTES, 2 * row * shape[2], 2 * row


def kept(shape, kernel, stride, dilation, padding):
    """The entries of the extent-keeping core's output ``shape`` that a convolution keeps:
    every stride-th one, from the first whole window under 'valid'."""
    if padding == "same":
        return (slice(None),) * 2 + (slice(None, None, stride),) * len(kernel)
    lows = ((dilation * (k - 1) // 2, dilation * (k - 1)) for k in kernel)
    return (slice(None),) * 2 + tuple(slice(lo, lo + n - r, stride)
                                      for n, (lo, r) in zip(shape[2:], lows))


def spread(g, keep, shape):
    """``g`` of a narrowed convolution at the ``keep`` entries of the core's output
    ``shape`` and zero elsewhere: what ``narrow`` hands the core."""
    full = np.zeros(shape)
    full[keep] = g
    return full


def adjoint_gaps(conv, x, w, b, g, needs=(True, True)):
    """Relative gaps of <x, dx> and <w, dw> from <conv(x, w, b) - b, g>.

    A convolution is bilinear in (x, w), so both inner products equal that
    one exactly up to rounding; this pins the input gradient's kernel flip,
    back-padding and a strided result's scatter, not only its agreement with
    finite differences.  ``needs`` says which of x and w require a gradient;
    only their gaps are returned.
    """
    xt, wt = (Tensor(a, requires_grad=r) for a, r in zip((x, w), needs))
    bt = Tensor(b, requires_grad=True)
    out = conv(xt, wt, bt)
    (out * Tensor(g)).sum().backward()
    want = np.vdot(out.data, g) - np.vdot(b, bt.grad)
    return [abs(np.vdot(t.data, t.grad) - want) / abs(want) for t in (xt, wt) if t.requires_grad]


# -- conv2d -------------------------------------------------------------------


def test_conv2d_identity_1x1():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 5, 4)))
    w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
    out = conv2d(x, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_delta_spreads_ones():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(Tensor(x), w)
    np.testing.assert_array_equal(out.data[0, 0, 1:4, 1:4], np.ones((3, 3)))
    assert out.data.sum() == 9.0


def test_conv2d_dilated_delta_taps():
    x = np.zeros((1, 1, 9, 9))
    x[0, 0, 4, 4] = 1.0
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(Tensor(x), w, dilation=3).data[0, 0]
    hits = {(y - 4, x_ - 4) for y, x_ in zip(*np.nonzero(out))}
    assert hits == {(dy, dx) for dy in (-3, 0, 3) for dx in (-3, 0, 3)}


@pytest.mark.parametrize(
    "shape,co,kernel,stride,dilation,padding",
    [
        ((2, 3, 6, 7), 4, (3, 3), 1, 1, "same"),
        ((1, 2, 8, 8), 3, (3, 3), 2, 1, "valid"),
        ((1, 2, 9, 9), 2, (3, 3), 1, 2, "same"),
        ((3, 1, 5, 5), 2, (1, 1), 1, 1, "same"),
        ((1, 2, 7, 6), 2, (5, 3), 1, 1, "same"),
        ((1, 2, 7, 6), 2, (2, 4), 1, 1, "valid"),
        ((2, 3, 9, 8), 2, (4, 3), 2, 2, "valid"),
        # the CRU stage-5 dilations, whose reach crosses the whole map
        ((2, 3, 4, 4), 2, (3, 3), 1, 5, "same"),
        ((2, 3, 4, 4), 2, (3, 3), 1, 7, "same"),
        ((2, 3, 4, 5), 2, (3, 3), 1, 5, "same"),
        ((2, 3, 4, 5), 2, (3, 3), 1, 7, "same"),
    ],
)
def test_conv2d_matches_direct_sum(shape, co, kernel, stride, dilation, padding, monkeypatch):
    rng = np.random.default_rng(hash((shape, co, stride)) % 2**32)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((co, shape[1]) + kernel)
    b = rng.standard_normal(co)
    want = conv2d_direct(x, w, b, stride=stride, dilation=dilation, padding=padding)
    g = rng.standard_normal(want.shape)

    def conv(x, w, b):
        return conv2d(x, w, b, stride=stride, dilation=dilation, padding=padding)

    # the forward walks the input's extent, which a stride or 'valid' then narrows
    for block_bytes in block_sizes(shape[1], kernel, shape):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        got = conv(Tensor(x), Tensor(w), Tensor(b))
        assert got.shape == want.shape
        assert max_rel_err(got.data, want) < 1e-12
        assert max(adjoint_gaps(conv, x, w, b, g)) < 1e-12


@pytest.mark.parametrize(
    "stride,dilation,padding",
    [
        (1, 1, "same"),
        (2, 1, "valid"),
        (1, 2, "same"),
        (2, 1, "same"),
        (2, 2, "same"),
        (3, 1, "valid"),
    ],
)
def test_conv2d_gradcheck(stride, dilation, padding, monkeypatch):
    rng = np.random.default_rng(42)
    x = leaf(rng, 2, 2, 6, 6)
    w = leaf(rng, 3, 2, 3, 3, scale=0.5)
    b = leaf(rng, 3)

    def build():
        return conv2d(x, w, b, stride=stride, dilation=dilation, padding=padding).sum()

    want = fd_gradients(lambda: build().item(), [x, w, b])
    for block_bytes in block_sizes(2, (3, 3), x.shape):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        for t in (x, w, b):
            t.zero_grad()
        build().backward()
        for t, g in zip([x, w, b], want):
            assert max_rel_err(t.grad, g) < TOL


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 1, 1))))


def test_conv2d_even_kernel_same_padding_rejected():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), padding="same")


def test_conv2d_unknown_padding_rejected():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 3, 3))), padding="full")


@pytest.mark.parametrize("key, value", [
    ("stride", 0), ("stride", -1), ("stride", 1.5), ("stride", True),
    ("dilation", 0), ("dilation", -2), ("dilation", 1.5), ("dilation", "2"),
])
def test_conv2d_rejects_bad_stride_or_dilation(key, value):
    x, w = Tensor(np.zeros((1, 1, 9, 9))), Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeError, match=key):
        conv2d(x, w, **{key: value})
    if key == "dilation":
        with pytest.raises(ShapeError, match=key):
            Conv2d(ModuleParams(), "c", 1, 1, 3, np.random.default_rng(0), dilation=value)


@pytest.mark.parametrize("conv, x_shape, w_shape", [
    (conv2d, (1, 2, 5, 5), (3, 2, 3, 3)),
    (conv3d, (1, 2, 3, 5, 5), (3, 2, 3, 3, 3)),
], ids=["conv2d", "conv3d"])
def test_conv_rejects_a_bias_that_is_not_one_per_output_channel(conv, x_shape, w_shape):
    x, w = Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape))
    for bias in (np.ones(2), np.ones(4), np.ones((1, 3))):
        with pytest.raises(ShapeError, match="bias"):
            conv(x, w, Tensor(bias))


def test_conv2d_takes_numpy_integer_steps():
    x, w = Tensor(np.ones((1, 1, 9, 9))), Tensor(np.ones((1, 1, 3, 3)))
    want = conv2d(x, w, stride=2, dilation=2).data
    got = conv2d(x, w, stride=np.int64(2), dilation=np.int32(2)).data
    np.testing.assert_array_equal(got, want)


# -- conv3d -------------------------------------------------------------------


def test_conv3d_identity_kernel():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 2, 4, 3, 3)))
    w = np.zeros((2, 2, 1, 1, 1))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    out = conv3d(x, Tensor(w))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv3d_uniform_slice_kernel():
    # slices [a, b, c], uniform 3x1x1 kernel, same padding:
    # outputs are [a+b, a+b+c, b+c]
    a, b, c = 1.5, -2.0, 0.75
    x = np.zeros((1, 1, 3, 1, 1))
    x[0, 0, :, 0, 0] = [a, b, c]
    w = np.ones((1, 1, 3, 1, 1))
    out = conv3d(Tensor(x), Tensor(w)).data[0, 0, :, 0, 0]
    np.testing.assert_allclose(out, [a + b, a + b + c, b + c])


def test_conv3d_matches_direct_sum(monkeypatch):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 4, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    b = rng.standard_normal(3)
    want = conv3d_direct(x, w, b)
    g = rng.standard_normal(want.shape)
    for block_bytes in block_sizes(2, (3, 3, 3), want.shape):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        got = conv3d(Tensor(x), Tensor(w), Tensor(b))
        assert got.shape == want.shape
        assert max_rel_err(got.data, want) < 1e-12
        assert max(adjoint_gaps(conv3d, x, w, b, g)) < 1e-12


def test_conv3d_gradcheck(monkeypatch):
    rng = np.random.default_rng(10)
    x = leaf(rng, 1, 2, 4, 6, 6)
    w = leaf(rng, 2, 2, 3, 3, 3, scale=0.4)
    b = leaf(rng, 2)

    def build():
        return conv3d(x, w, b).sum()

    want = fd_gradients(lambda: build().item(), [x, w, b])
    for block_bytes in block_sizes(2, (3, 3, 3), conv3d(x, w).shape):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        for t in (x, w, b):
            t.zero_grad()
        build().backward()
        for t, g in zip([x, w, b], want):
            assert max_rel_err(t.grad, g) < TOL


def test_conv_holds_only_its_output():
    # the backward closure keeps neither the padded input (295 KB here)
    # nor the im2col block buffer alive, nor the fused ReLU's mask
    rng = np.random.default_rng(11)
    x = leaf(rng, 4, 8, 32, 32)
    w = leaf(rng, 8, 8, 3, 3)
    for relu in (False, True):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, relu=relu)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= out.data.nbytes + 16384


# (input shape, out channels, kernel, stride, dilation, padding)
BACKWARD_CASES = [
    ((2, 3, 6, 7), 4, (3, 3), 1, 1, "same"),
    ((3, 2, 8, 8), 3, (3, 3), 1, 1, "valid"),
    ((3, 2, 9, 8), 3, (3, 3), 2, 1, "same"),
    ((2, 3, 9, 9), 2, (3, 3), 2, 1, "valid"),
    ((2, 2, 9, 10), 3, (3, 3), 1, 2, "same"),
    ((2, 3, 11, 9), 2, (3, 3), 1, 3, "same"),
    ((2, 4, 9, 9), 3, (3, 3), 1, 7, "same"),
    ((1, 2, 16, 15), 2, (3, 3), 1, 7, "valid"),
    ((3, 4, 5, 6), 2, (1, 1), 1, 1, "same"),
    ((2, 2, 7, 6), 3, (5, 3), 2, 2, "same"),
    ((2, 2, 4, 5, 6), 3, (3, 3, 3), 1, 1, "same"),
    ((1, 3, 4, 6, 5), 2, (3, 3, 3), 1, 1, "valid"),
    ((2, 2, 8, 7), 3, (4, 2), 1, 1, "valid"),
    # the CRU stage-5 dilations, whose reach crosses the whole map
    ((2, 4, 4, 4), 3, (3, 3), 1, 5, "same"),
    ((2, 4, 4, 4), 3, (3, 3), 1, 7, "same"),
    ((2, 4, 4, 5), 3, (3, 3), 1, 5, "same"),
    ((2, 4, 4, 5), 3, (3, 3), 1, 7, "same"),
]


@pytest.mark.parametrize("shape,co,kernel,stride,dilation,padding", BACKWARD_CASES)
def test_conv_backward_matches_two_walk_oracle(
    shape, co, kernel, stride, dilation, padding, monkeypatch
):
    rng = np.random.default_rng(hash((shape, co, stride, dilation)) % 2**32)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((co, shape[1]) + kernel)
    keep, pads = kept(shape, kernel, stride, dilation, padding), ops._margins(kernel, dilation)
    for block_bytes in block_sizes(co, kernel, shape):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        # a stride or 'valid' narrows the extent-keeping core's output, as conv2d does
        core = ops._conv(xt, wt, None, dilation)
        out = core[keep]
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        dx, dw = conv_backward_two_walks(x, w, spread(g, keep, core.shape), dilation, pads)
        np.testing.assert_array_equal(xt.grad, dx)
        assert max_rel_err(wt.grad, dw) < 1e-13


@pytest.mark.parametrize("needs", [(True, False), (False, True)], ids=["x-only", "weight-only"])
@pytest.mark.parametrize("shape,co,kernel,stride,dilation,padding", [
    ((2, 3, 8, 8), 4, (3, 3), 1, 1, "same"),
    ((2, 2, 9, 9), 3, (3, 3), 2, 1, "valid"),
    ((1, 2, 9, 9), 2, (3, 3), 1, 3, "same"),
])
def test_conv2d_one_sided_gradient(shape, co, kernel, stride, dilation, padding, needs):
    rng = np.random.default_rng(hash((shape, co, stride, dilation, needs)) % 2**32)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((co, shape[1]) + kernel)
    b = rng.standard_normal(co)

    def conv(x, w, b):
        return conv2d(x, w, b, stride=stride, dilation=dilation, padding=padding)

    want = conv2d_direct(x, w, b, stride=stride, dilation=dilation, padding=padding)
    g = rng.standard_normal(want.shape)
    xt, wt = (Tensor(a, requires_grad=r) for a, r in zip((x, w), needs))
    out = conv(xt, wt, Tensor(b))
    assert max_rel_err(out.data, want) < 1e-12
    (out * Tensor(g)).sum().backward()
    if needs[0]:
        # the input gradient is the both-sides walk's, bit for bit
        both_x, both_w = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        (conv(both_x, both_w, Tensor(b)) * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(xt.grad, both_x.grad)
        assert wt.grad is None
    else:
        # with no input gradient the weight gradient walks the columns of x
        keep = kept(shape, kernel, stride, dilation, padding)
        full = spread(g, keep, (shape[0], co) + shape[2:])
        _, dw = conv_backward_two_walks(x, w, full, dilation, ops._margins(kernel, dilation))
        np.testing.assert_array_equal(wt.grad, dw)
        assert xt.grad is None
    gaps = adjoint_gaps(conv, x, w, b, g, needs)
    assert len(gaps) == 1 and gaps[0] < 1e-12


# -- conv2d with the fused ReLU ------------------------------------------------


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def plant_specials(monkeypatch):
    """Make every convolution's pre-activation hold NaN, -0.0 and +0.0 in its first two rows
    at both even and odd columns, so a stride-2 or 'valid' result keeps each of them."""
    correlate = ops._correlate

    def planted(*args):
        out = correlate(*args)
        out[0, 0, 0:2, 0:6] = (np.nan, -0.0, 0.0, np.nan, -0.0, 0.0)
        return out

    monkeypatch.setattr(ops, "_correlate", planted)


# (input shape, out channels, kernel, stride, dilation, padding)
FUSED_CASES = [
    ((2, 3, 8, 8), 4, (3, 3), 1, 1, "same"),
    ((2, 2, 9, 9), 3, (3, 3), 2, 1, "valid"),
    ((1, 2, 9, 10), 3, (3, 3), 1, 3, "same"),
    ((3, 4, 5, 6), 2, (1, 1), 1, 1, "same"),
]


@pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)],
                         ids=["both", "x-only", "weight-only"])
@pytest.mark.parametrize("shape,co,kernel,stride,dilation,padding", FUSED_CASES)
def test_fused_relu_matches_oracle_relu_of_conv2d_bitwise(
    shape, co, kernel, stride, dilation, padding, needs, monkeypatch
):
    plant_specials(monkeypatch)
    rng = np.random.default_rng(hash((shape, co, stride, dilation, needs)) % 2**32)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((co, shape[1]) + kernel)
    b = rng.standard_normal(co)
    g = None
    results = []
    for fused in (True, False):
        xt, wt = (Tensor(a, requires_grad=r) for a, r in zip((x, w), needs))
        bt = Tensor(b, requires_grad=True)
        if fused:
            out = conv2d(xt, wt, bt, stride, dilation, padding, relu=True)
        else:
            pre = conv2d(xt, wt, bt, stride, dilation, padding)
            assert np.isnan(pre.data).any() and (pre.data == 0).sum() >= 2
            assert np.signbit(pre.data[pre.data == 0]).any()
            out = oracle_relu(pre)
        if g is None:
            g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        results.append([out.data] + [t.grad for t in (xt, wt, bt)])
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            assert bitwise_equal(got, want)
    assert not np.signbit(results[0][0]).any()


def test_fused_relu_float32_forward_matches_oracle_bitwise(monkeypatch):
    plant_specials(monkeypatch)
    layer = Conv2d(ModuleParams(), "c", 3, 4, 3, np.random.default_rng(21), relu=True)
    x = Tensor(np.random.default_rng(22).standard_normal((2, 3, 8, 8)).astype(np.float32))
    with no_grad():
        got = layer(x).data
        want = oracle_relu(conv2d(x, layer.weight, layer.bias)).data
    assert got.dtype == np.float32
    assert bitwise_equal(got, want)


def test_fused_conv_closure_holds_only_its_inputs_and_output():
    rng = np.random.default_rng(23)
    base, w, b = leaf(rng, 2, 3, 9, 9), leaf(rng, 4, 3, 3, 3), leaf(rng, 4)
    x = base * 1.0  # a tracked result, whose entry is not the tensor
    for relu in (True, False):
        for kwargs in ({}, {"dilation": 2, "padding": "valid"}):
            out = conv2d(x, w, b, relu=relu, **kwargs)
            if kwargs:  # 'valid' narrows the core's result: take the core's entry and output
                node, out = out._node._parents[0], Tensor(out.data.base)
            else:
                node = out._node
            cells = [c.cell_contents for c in node._backward_fn.__closure__]
            arrays = {id(v) for v in cells if isinstance(v, np.ndarray)}
            held = {id(v) for v in cells if isinstance(v, (Tensor, _Node))}
            # the inputs' tape entries (a leaf is its own), and no tensor with an entry
            assert held == {id(x._node), id(w), id(b)}
            assert not any(isinstance(v, Tensor) and v._node is not None for v in cells)
            # the output only when backward recovers the ReLU mask from it
            assert arrays == {id(x.data), id(w.data)} | ({id(out.data)} if relu else set())
            assert not any(isinstance(v, (list, tuple, dict)) and any(
                isinstance(e, (np.ndarray, Tensor, _Node)) for e in v) for v in cells)


def test_input_feeding_two_convs_owns_its_gradient():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3, 8, 8))
    w1, w2 = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal((2, 3, 1, 1))
    g1, g2 = rng.standard_normal((2, 4, 8, 8)), rng.standard_normal((2, 2, 8, 8))

    def grads(*branches):
        xt = Tensor(x, requires_grad=True)
        ws = [Tensor(w1, requires_grad=True), Tensor(w2, requires_grad=True)]
        loss = None
        for i in branches:
            out = conv2d(xt, ws[i], relu=i == 0) * Tensor((g1, g2)[i])
            loss = out.sum() if loss is None else loss + out.sum()
        loss.backward()
        return xt, ws

    xt, ws = grads(0, 1)
    held = [xt.grad, ws[0].grad, ws[1].grad]
    for i, a in enumerate(held):
        for other in held[i + 1:] + [xt.data, ws[0].data, ws[1].data, g1, g2]:
            assert not np.shares_memory(a, other)
    (x1, (w1t, _)), (x2, (_, w2t)) = grads(0), grads(1)
    assert bitwise_equal(xt.grad, x1.grad + x2.grad)
    assert bitwise_equal(ws[0].grad, w1t.grad) and bitwise_equal(ws[1].grad, w2t.grad)


# -- fc / pooling / activations ---------------------------------------------------


def test_fc_values_and_grad():
    out = fc(Tensor(np.array([3.0])), Tensor(np.array([[2.0]])), Tensor(np.array([1.0])))
    assert out.data[0] == 7.0

    rng = np.random.default_rng(12)
    x = leaf(rng, 4, 5)
    w = leaf(rng, 5, 3)
    b = leaf(rng, 3)

    def build():
        return fc(x, w, b).sum()

    build().backward()
    want = fd_gradients(lambda: build().item(), [x, w, b])
    for t, g in zip([x, w, b], want):
        assert max_rel_err(t.grad, g) < 1e-6


def test_fc_extent_mismatch():
    with pytest.raises(ShapeError):
        fc(Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 3))))


def test_fc_rejects_a_weight_that_is_not_a_matrix():
    with pytest.raises(ShapeError, match="weight"):
        fc(Tensor(np.zeros((2, 4))), Tensor(np.zeros(4)))


def test_global_avg_pool():
    x = Tensor(np.array([[[[1.0, 3.0], [5.0, 7.0]]]]), requires_grad=True)
    out = global_avg_pool(x)
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 4.0
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 0.25))


def test_sigmoid_relu_values():
    assert sigmoid(Tensor(np.array(0.0))).item() == 0.5
    assert relu(Tensor(np.array(-2.0))).item() == 0.0
    assert relu(Tensor(np.array(2.0))).item() == 2.0


def test_sigmoid_open_interval_under_saturation():
    out = sigmoid(Tensor(np.array([-1000.0, -40.0, 40.0, 1000.0]))).data
    assert np.all(out > 0.0)
    assert np.all(out < 1.0)


def test_sigmoid_gradcheck():
    rng = np.random.default_rng(14)
    x = leaf(rng, 3, 3, scale=2.0)
    sigmoid(x).sum().backward()
    want = fd_gradients(lambda: sigmoid(x).sum().item(), [x])[0]
    assert max_rel_err(x.grad, want) < 1e-6


def test_relu_gradcheck_off_kink():
    rng = np.random.default_rng(15)
    x = leaf(rng, 4, 4)
    x.data[:] = np.sign(x.data) * (np.abs(x.data) + 0.2)
    relu(x).sum().backward()
    want = fd_gradients(lambda: relu(x).sum().item(), [x])[0]
    assert max_rel_err(x.grad, want) < 1e-6


# -- dropout ----------------------------------------------------------------------


def test_dropout_train_preserves_mean():
    rng = np.random.default_rng(16)
    x = Tensor(np.ones(100_000))
    out = dropout(x, rng)
    kept = out.data[out.data != 0.0]
    assert np.all(kept == 2.0)
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_grad_routes_through_mask():
    rng_seed = 17
    x = Tensor(np.ones(64), requires_grad=True)
    out = dropout(x, np.random.default_rng(rng_seed))
    out.sum().backward()
    np.testing.assert_array_equal(x.grad, out.data)  # grad of sum is the same scaling


# -- pooling / resize ---------------------------------------------------------------


def test_max_pool2_values_and_ties():
    x = np.array([[1.0, 2.0], [2.0, 0.0]])  # tie between (0,1) and (1,0)
    t = Tensor(x[None, None], requires_grad=True)
    out = max_pool2(t)
    assert out.data[0, 0, 0, 0] == 2.0
    out.sum().backward()
    # first maximum in window scan order wins the gradient
    assert t.grad[0, 0, 0, 1] == 1.0
    assert t.grad[0, 0, 1, 0] == 0.0


def test_max_pool2_gradcheck():
    rng = np.random.default_rng(18)
    x = Tensor(np.arange(64, dtype=np.float64).reshape(1, 1, 8, 8), requires_grad=True)
    x.data += 0.05 * rng.standard_normal((1, 1, 8, 8))
    max_pool2(x).sum().backward()
    want = fd_gradients(lambda: max_pool2(x).sum().item(), [x])[0]
    assert max_rel_err(x.grad, want) < 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_max_pool2_matches_argmax_oracle_bitwise(seed):
    """Forward and input gradient byte for byte: small integers (many tied
    maxima), windows of zeros, and continuous values with and without zeros."""
    rng = np.random.default_rng(seed)
    shape = (3, 4, 8, 10)
    ties = rng.integers(0, 3, shape).astype(np.float64)
    ties[:, :, :4, :6] = 0.0
    for x in (ties, rng.standard_normal(shape), np.maximum(rng.standard_normal(shape), 0.0)):
        t = Tensor(x.copy(), requires_grad=True)
        out = max_pool2(t)
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        want_out, want_dx = max_pool2_argmax(x, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert t.grad.tobytes() == want_dx.tobytes()


def test_max_pool2_odd_extent_rejected():
    with pytest.raises(ShapeError):
        max_pool2(Tensor(np.zeros((1, 1, 5, 4))))


@pytest.mark.parametrize("op", [max_pool2, lambda x: upsample_bilinear(x, 2)],
                         ids=["max_pool2", "upsample_bilinear"])
def test_pooling_and_upsampling_reject_a_map_that_is_not_4d(op):
    with pytest.raises(ShapeError, match=r"\[S, C, H, W\]"):
        op(Tensor(np.zeros((1, 4, 4))))


def test_upsample_factor_one_is_identity():
    x = Tensor(np.ones((1, 1, 3, 3)))
    assert upsample_bilinear(x, 1) is x


def test_upsample_constant_stays_constant():
    x = Tensor(np.full((2, 3, 4, 4), 1.75))
    out = upsample_bilinear(x, 2)
    assert out.shape == (2, 3, 8, 8)
    np.testing.assert_allclose(out.data, 1.75)


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_upsample_matches_direct_interpolation(factor):
    rng = np.random.default_rng(19 + factor)
    x = rng.standard_normal((2, 2, 3, 5))
    xt = Tensor(x, requires_grad=True)
    got = upsample_bilinear(xt, factor)
    want = bilinear_direct(x, factor)
    assert max_rel_err(got.data, want) < 1e-12
    # upsampling is linear, so its input gradient is its exact adjoint: <up(x), g> = <x, dx>
    g = rng.standard_normal(want.shape)
    (got * Tensor(g)).sum().backward()
    inner = np.vdot(got.data, g)
    assert abs(np.vdot(x, xt.grad) - inner) / abs(inner) < 1e-12


def test_upsample_gradcheck():
    rng = np.random.default_rng(23)
    x = leaf(rng, 1, 2, 3, 3)
    w = Tensor(rng.standard_normal((1, 2, 6, 6)))  # weight the output so the grad is non-uniform

    def build():
        return (upsample_bilinear(x, 2) * w).sum()

    build().backward()
    want = fd_gradients(lambda: build().item(), [x])[0]
    assert max_rel_err(x.grad, want) < 1e-6


def test_upsample_bad_factor():
    with pytest.raises(UsageError):
        upsample_bilinear(Tensor(np.zeros((1, 1, 2, 2))), 0)
    with pytest.raises(UsageError):
        upsample_bilinear(Tensor(np.zeros((1, 1, 2, 2))), 1.5)


def test_upsample_rejects_a_bool_factor():
    with pytest.raises(UsageError, match="True"):
        upsample_bilinear(Tensor(np.zeros((1, 1, 2, 2))), True)


def test_upsample_takes_a_numpy_integer_factor():
    x = Tensor(np.random.default_rng(24).standard_normal((1, 2, 3, 3)))
    want = upsample_bilinear(x, 2).data
    assert upsample_bilinear(x, np.int64(2)).data.tobytes() == want.tobytes()


# -- layers ------------------------------------------------------------------------


def test_concat_wrapper_grad():
    rng = np.random.default_rng(25)
    a = leaf(rng, 2, 3)
    b = leaf(rng, 2, 3)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 6)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((2, 3)))


def test_conv2d_layer_registers_params():
    params = ModuleParams()
    layer = Conv2d(params, "probe", 3, 8, 3, np.random.default_rng(0))
    names = dict(params.named())
    assert set(names) == {"probe.weight", "probe.bias"}
    assert names["probe.weight"].shape == (8, 3, 3, 3)
    out = layer(Tensor(np.zeros((2, 3, 6, 6))))
    assert out.shape == (2, 8, 6, 6)


def test_linear_layer():
    params = ModuleParams()
    layer = Linear(params, "head", 6, 2, np.random.default_rng(2))
    out = layer(Tensor(np.zeros((3, 6))))
    assert out.shape == (3, 2)
    assert params.count() == 6 * 2 + 2


def test_conv2d_layer_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        Conv2d(ModuleParams(), "c", 1, 1, 2, rng)
    with pytest.raises(ShapeError):
        Conv2d(ModuleParams(), "c", 1, 1, 3, rng, dilation=0)


# -- dtypes: float32 input, float64 weights ---------------------------------------


def _module_ops(x, layers):
    """Every public op of ops.py on the [2, 4, 6, 6] map ``x``, with the float64
    weights of ``layers``."""
    conv, dilated, linear, w3, b = layers
    volume = x.reshape(1, 2, 4, 6, 6).transpose((0, 2, 1, 3, 4))
    return {
        "conv2d": conv(x),
        "conv2d_strided": conv2d(x, conv.weight, conv.bias, stride=2, padding="valid"),
        "conv2d_dilated": dilated(x),
        "conv3d": conv3d(volume, w3, b),
        "fc": linear(global_avg_pool(x)),
        "fc_nobias": fc(global_avg_pool(x), linear.weight),
        "relu": relu(x), "sigmoid": sigmoid(x),
        "dropout": dropout(x, np.random.default_rng(0)),
        "global_avg_pool": global_avg_pool(x), "max_pool2": max_pool2(x),
        "upsample2": upsample_bilinear(x, 2), "upsample4": upsample_bilinear(x, 4),
        "concat": concat([x, x], axis=1),
    }


def _float64_layers():
    rng = np.random.default_rng(60)
    params = ModuleParams()
    return (
        Conv2d(params, "conv", 4, 3, 3, rng), Conv2d(params, "dilated", 4, 3, 3, rng, dilation=2),
        Linear(params, "linear", 4, 5, rng),
        Tensor(rng.standard_normal((3, 4, 3, 3, 3)), requires_grad=True),
        Tensor(rng.standard_normal(3), requires_grad=True),
    )


def test_float32_input_stays_float32_in_every_op(monkeypatch):
    layers = _float64_layers()
    before = [t.data.copy() for t in layers[3:]]
    x64 = np.random.default_rng(61).standard_normal((2, 4, 6, 6))
    with no_grad():
        reference = _module_ops(Tensor(x64), layers)
        # float32 blocks of two rows, then of one item, of the 3x3 conv2d; then the default
        for block_bytes in (4 * 4 * 9 * 6 * 2, 4 * 4 * 9 * 36, ops._BLOCK_BYTES):
            monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
            outs = _module_ops(Tensor(x64.astype(np.float32)), layers)
            for name, out in outs.items():
                assert out.data.dtype == np.float32, name
                np.testing.assert_allclose(out.data, reference[name].data, rtol=1e-5, atol=1e-5,
                                           err_msg=name)
    for t, b in zip(layers[3:], before):
        assert t.data.dtype == np.float64 and np.array_equal(t.data, b)


def test_float64_input_stays_float64_in_every_op():
    x = Tensor(np.random.default_rng(62).standard_normal((2, 4, 6, 6)), requires_grad=True)
    for name, out in _module_ops(x, _float64_layers()).items():
        assert out.data.dtype == np.float64, name
        assert out.requires_grad, name


def test_float32_sigmoid_stays_in_the_open_interval():
    out = sigmoid(Tensor(np.array([-1e4, -100.0, 100.0, 1e4], np.float32))).data
    assert out.dtype == np.float32
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_float32_conv_with_float64_weights_needs_no_grad():
    layer = _float64_layers()[0]
    with pytest.raises(UsageError, match="no_grad"):
        layer(Tensor(np.ones((1, 4, 6, 6), np.float32)))


def test_columns_size_blocks_by_itemsize(monkeypatch):
    """A block of float32 columns holds twice the rows of a float64 one."""
    monkeypatch.setattr(ops, "_BLOCK_BYTES", 4 * 4 * 9 * 36)  # one item of float32 columns
    # (first item, first row) of each block of a [2, 4, 6, 6] input's 6x6 output
    starts = {np.float32: [(0, 0), (1, 0)], np.float64: [(0, 0), (0, 3), (1, 0), (1, 3)]}
    for dtype, want in starts.items():
        x = np.zeros((2, 4, 6, 6), dtype)
        blocks = list(ops._columns(x, (3, 3), 1, ((1, 1), (1, 1))))
        assert [(items.start, rs.start) for items, rs, _ in blocks] == want
        assert all(cols.dtype == dtype for *_, cols in blocks)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_columns_of_a_1x1_kernel_are_views_of_the_input(dtype, monkeypatch):
    """A 1x1 kernel's blocks share memory with the input, in the plan of any kernel of that C*K."""
    x = np.random.default_rng(25).standard_normal((3, 9, 6, 5)).astype(dtype)
    one = np.zeros((3, 1, 6, 5), dtype)  # a 3x3 kernel over one channel has C*K = 9 too
    for block_bytes in (ops._BLOCK_BYTES, 2 * 9 * 6 * 5 * x.itemsize, 2 * 9 * 5 * x.itemsize):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        blocks = list(ops._columns(x, (1, 1), 1, ((0, 0), (0, 0))))
        plan = [(items, rs) for items, rs, _ in ops._columns(one, (3, 3), 1, ((1, 1), (1, 1)))]
        assert [(items, rs) for items, rs, _ in blocks] == plan
        for items, rs, cols in blocks:
            assert np.shares_memory(cols, x)
            assert cols.shape == (len(range(3)[items]), 9, 1, 1, len(range(6)[rs]), 5)
            assert cols[:, :, 0, 0].tobytes() == x[items, :, rs].tobytes()


def assert_columns_match_the_reference(shape, kernel, dilation, pads, dtype):
    """Every block of ``ops._columns`` has the reference's (items, rows) and its bytes."""
    x = np.random.default_rng(hash((shape, kernel, dilation)) % 2**32).standard_normal(shape)
    x = x.astype(dtype)  # no zeros, so an entry zeroed or left unzeroed by mistake shows
    blocks = zip_longest(ops._columns(x, kernel, dilation, pads),
                         columns_reference(x, kernel, dilation, pads), fillvalue=(None,) * 3)
    for (items, rs, cols), (want_items, want_rs, want) in blocks:
        assert (items, rs) == (want_items, want_rs), (shape, kernel, dilation)
        assert cols.dtype == want.dtype and cols.shape == want.shape
        assert cols.tobytes() == want.tobytes(), (shape, kernel, dilation, items, rs)


@pytest.fixture(scope="module")
def default_step_walks():
    """(shape, kernel, dilation, pads) of each ``_columns`` walk of a default float64
    train step: the forward's, then the backward's."""
    walks, columns = [], ops._columns

    def spy(x, kernel, dilation, pads):
        walks.append((x.shape, tuple(kernel), dilation, pads))
        return columns(x, kernel, dilation, pads)

    state = init_state(NetworkConfig(), 0)
    rgb, focal, gt = _scene_tensors(generate_scene(GenSpec(seed=5)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ops, "_columns", spy)
        pred = state.model(rgb, focal, mode="train", rng=np.random.default_rng(1))
        loss = prediction_loss(pred, gt)
        forward = len(walks)
        loss.backward()
    return walks[:forward], walks[forward:]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_columns_match_the_reference_on_every_walk_of_a_default_step(default_step_walks, dtype):
    """The forward walk of every convolution of a default step, its input-gradient walk, and the
    weight-only walks of the convolutions that read an image, in either dtype."""
    forward, backward = default_step_walks
    assert len(backward) == len(forward) > 100
    # the two backbones' first convs read an image, whose gradient nobody takes
    assert sum(walk[0][1] == 3 for walk in backward) == 2
    for walk in sorted(set(forward + backward)):
        assert_columns_match_the_reference(*walk, dtype)


@pytest.mark.parametrize("shape,co,kernel,stride,dilation,padding", BACKWARD_CASES)
def test_columns_match_the_reference_on_the_backward_cases(
    shape, co, kernel, stride, dilation, padding, monkeypatch
):
    """The forward and input-gradient walks of each case, in blocks of items and of rows."""
    pads = ops._margins(kernel, dilation)
    mirrored = tuple(p[::-1] for p in pads)
    walks = [(shape, shape[1], pads), ((shape[0], co) + shape[2:], co, mirrored)]
    for walk_shape, channels, walk_pads in walks:
        for block_bytes in block_sizes(channels, kernel, walk_shape):
            monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
            for dtype in (np.float64, np.float32):
                assert_columns_match_the_reference(walk_shape, kernel, dilation, walk_pads, dtype)


def test_columns_reject_a_margin_that_would_read_past_the_copy():
    x = np.ones((2, 3, 5, 6))
    with pytest.raises(ValueError, match="size of buffer"):
        next(ops._columns(x, (3, 3), 1, ((1, 1), (0, 1))))


def test_1x1_conv_on_views_matches_the_copying_walker_bitwise(monkeypatch):
    """Forward and all gradients of 1x1 convolutions equal those of copied columns bit for bit."""
    rng = np.random.default_rng(26)
    base = rng.standard_normal((3, 6, 8, 9))
    w, b = rng.standard_normal((4, 5, 1, 1)), rng.standard_normal(4)
    g = rng.standard_normal((3, 4, 8, 8))
    key = (slice(None), slice(1, 6), slice(None), slice(1, 9))

    def run(data, strided, relu):
        # a C-contiguous input, or a strided narrow view of the same values
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (data, w, b))
        out = conv2d(narrow(xt, key) if strided else xt, wt, bt, relu=relu)
        (out * Tensor(g)).sum().backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in (xt, wt, bt)]

    for block_bytes in block_sizes(5, (1, 1), g.shape) + block_sizes(4, (1, 1), g.shape):
        monkeypatch.setattr(ops, "_BLOCK_BYTES", block_bytes)
        for data, strided in ((np.ascontiguousarray(base[key]), False), (base, True)):
            for relu in (False, True):
                got = run(data, strided, relu)
                with monkeypatch.context() as m:
                    m.setattr(ops, "_columns", columns_reference)
                    want = run(data, strided, relu)
                assert got == want
