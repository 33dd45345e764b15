import numpy as np
import pytest

from lfdepth.cru import Cru, GraphBranch, node_count, zero_fuse
from lfdepth.errors import ConfigError, ShapeError, UsageError
from lfdepth.ops import relu
from lfdepth.params import ModuleParams
from lfdepth.tensor import Tensor

from oracles import conv2d_direct, fd_gradients, fd_gradients_sampled, max_rel_err

TOL = 1e-4


def make_block(channels=4, size=(6, 6), seed=0, **kw):
    params = ModuleParams()
    block = Cru(params, "cru", channels, size, np.random.default_rng(seed), **kw)
    return params, block


def zero_all(params):
    for _, t in params.named():
        t.data[...] = 0.0


# -- node_count ---------------------------------------------------------------


def test_node_count_formula():
    assert node_count(16, 16, 1) == 64
    assert node_count(16, 16, 2) == 32
    assert node_count(16, 16, 3) == 16


def test_node_count_clamps_to_one():
    assert node_count(2, 2, 3) == 1  # raw value 0.25
    assert node_count(1, 1, 1) == 1


def test_node_count_monotone_over_branches():
    for h in range(1, 20):
        for w in range(1, 20):
            ns = [node_count(w, h, i) for i in (1, 2, 3)]
            assert ns[0] >= ns[1] >= ns[2] >= 1


def test_node_count_bad_args():
    with pytest.raises(UsageError):
        node_count(4, 4, 0)
    with pytest.raises(UsageError):
        node_count(0, 4, 1)


# -- graph branch ----------------------------------------------------------------


def graph_branch(channels=2, i=1, size=(4, 4), seed=0):
    params = ModuleParams()
    rng = np.random.default_rng(seed)
    g = GraphBranch(params, "g", channels, i, rng)
    g.add_nodes(size, rng)
    return params, g


def test_project_zero_params_gives_zero():
    params, g = graph_branch()
    x = Tensor(np.random.default_rng(1).standard_normal((1, 2, 4, 4)))
    zero_all(params)
    v, b = g.project(x)
    assert np.all(v.data == 0.0)
    assert np.all(b.data == 0.0)


def test_project_hand_computed_matrix_product():
    params, g = graph_branch(channels=2, i=1, size=(2, 2))
    x = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)  # X0=[[1,2],[3,4]], X1=[[5,6],[7,8]]
    zero_all(params)
    g.psi.weight.data[0, 0, 0, 0] = 1.0  # psi = X0 + 2*X1
    g.psi.weight.data[0, 1, 0, 0] = 2.0
    g.phi.weight.data[0, 0, 0, 0] = 1.0  # phi = X0, so B = [1,2,3,4]
    v, b = g.project(Tensor(x))
    assert v.shape == (1, 1, 1)
    assert b.shape == (1, 1, 4)
    np.testing.assert_allclose(b.data[0, 0], [1.0, 2.0, 3.0, 4.0])
    # V = <B, psi(x)> = 1*11 + 2*14 + 3*17 + 4*20
    assert v.data[0, 0, 0] == 170.0


def test_project_shape_contract():
    params, g = graph_branch(channels=8, i=2, size=(8, 8))
    x = Tensor(np.zeros((12, 8, 8, 8)))
    v, b = g.project(x)
    assert v.shape == (12, 8, 2)  # N_2 = floor(64/8) = 8, C_i = 8//4
    assert b.shape == (12, 8, 64)


def test_reason_zero_node_mix_identity_channel_mix():
    params, g = graph_branch(channels=4)
    g.node_mix.data[...] = 0.0
    g.channel_mix.data[...] = np.eye(1)
    v = Tensor(np.random.default_rng(2).standard_normal((2, 4, 1)))
    m = g.reason(v)
    np.testing.assert_array_equal(m.data, v.data)


def test_reason_zero_channel_mix_annihilates():
    params, g = graph_branch(channels=4)
    g.channel_mix.data[...] = 0.0
    v = Tensor(np.ones((1, 4, 1)))
    assert np.all(g.reason(v).data == 0.0)


def test_reason_matches_dense_oracle():
    rng = np.random.default_rng(3)
    params, g = graph_branch(channels=8, i=1, size=(3, 4))  # C_i = 2, N = floor(12/4) = 3
    node_mix = g.node_mix
    assert node_mix.shape == (3, 3)
    v = rng.standard_normal((1, 3, 2))
    a = rng.standard_normal((3, 3))
    w = rng.standard_normal((2, 2))
    node_mix.data[...] = a
    g.channel_mix.data[...] = w
    got = g.reason(Tensor(v)).data
    want = (v[0] - a @ v[0]) @ w
    assert max_rel_err(got[0], want) < 1e-12


def test_reproject_zero_nodes_bias_only():
    params, g = graph_branch(channels=2, size=(3, 3))
    m = Tensor(np.zeros((1, 2, 1)))
    b = Tensor(np.random.default_rng(4).standard_normal((1, 2, 9)))
    g.expand.bias.data[...] = 0.0
    assert np.all(g.reproject(m, b).data == 0.0)
    g.expand.bias.data[...] = [1.5, -0.5]
    y = g.reproject(m, b).data
    np.testing.assert_allclose(y[0, 0], 1.5)
    np.testing.assert_allclose(y[0, 1], -0.5)


def test_reproject_single_node_broadcasts():
    params, g = graph_branch(channels=2, i=1, size=(2, 2))
    m = Tensor(np.random.default_rng(5).standard_normal((1, 1, 1)))
    b = Tensor(np.ones((1, 1, 4)))
    y = g.reproject(m, b).data
    for c in range(2):
        assert np.ptp(y[0, c]) == 0.0  # constant over pixels


def test_branch_roundtrip_shape():
    params, g = graph_branch(channels=4, i=3, size=(6, 6))
    x = Tensor(np.random.default_rng(6).standard_normal((5, 4, 6, 6)))
    assert g(x).shape == (5, 4, 6, 6)


def test_branch_registers_its_size_once():
    params, g = graph_branch(channels=4, i=1, size=(4, 8))
    names = {name for name, _ in params.named()}
    assert names == {"g.psi.weight", "g.psi.bias", "g.channel_mix", "g.expand.weight",
                     "g.expand.bias", "g.phi_4x8.weight", "g.phi_4x8.bias", "g.node_mix_4x8"}
    assert g.phi.weight.shape == (8, 4, 1, 1)  # N_1 = floor(32/4) = 8


@pytest.mark.parametrize("kw", [{}, {"graph": False}, {"dilated": False}])
def test_call_at_another_size_raises_and_adds_no_parameter(kw):
    params, block = make_block(channels=4, size=(4, 4), **kw)
    before = [(name, t.shape) for name, t in params.named()]
    with pytest.raises(ShapeError):
        block(Tensor(np.zeros((1, 4, 8, 8))))
    if block.branches:
        with pytest.raises(ShapeError):  # same pixel count, so every reshape would succeed
            block.branches[0](Tensor(np.zeros((1, 4, 2, 8))))
    assert [(name, t.shape) for name, t in params.named()] == before


# -- multi_dilated ----------------------------------------------------------------


def test_multi_dilated_zero_fuse_gives_zero():
    params, block = make_block(channels=4, size=(8, 8), seed=7)
    block.md_fuse.weight.data[...] = 0.0
    block.md_fuse.bias.data[...] = 0.0
    x = Tensor(np.random.default_rng(8).standard_normal((2, 4, 8, 8)))
    assert np.all(block.multi_dilated(x).data == 0.0)


def test_multi_dilated_matches_conv_oracle():
    params, block = make_block(channels=2, size=(9, 9), seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 2, 9, 9))
    got = block.multi_dilated(Tensor(x)).data

    h = np.maximum(conv2d_direct(x, block.cross.weight.data, block.cross.bias.data), 0.0)
    pyr = [
        np.maximum(
            conv2d_direct(h, conv.weight.data, conv.bias.data, dilation=r), 0.0
        )
        for conv, r in zip(block.dilated, (3, 5, 7))
    ]
    want = conv2d_direct(
        np.concatenate(pyr, axis=1), block.md_fuse.weight.data, block.md_fuse.bias.data
    )
    assert max_rel_err(got, want) < 1e-12


def test_multi_dilated_constant_interior_equal_across_rates():
    c = 0.7
    params, block = make_block(channels=2, size=(17, 17), seed=11)
    zero_all(params)
    block.cross.weight.data[...] = np.eye(2).reshape(2, 2, 1, 1)
    for conv in block.dilated:
        conv.weight.data[...] = 1.0
    block.md_fuse.weight.data[...] = 1.0
    x = Tensor(np.full((1, 2, 17, 17), c))
    out = block.multi_dilated(x).data
    # interior pixel: each dilated conv sees 9 taps * 2 channels * c,
    # fuse sums 3 branches of 1 channel each
    want = 3 * 1 * 9 * 2 * c
    interior = out[0, :, 7:10, 7:10]
    np.testing.assert_allclose(interior, want)


def test_multi_dilated_rejects_odd_channels():
    with pytest.raises(ConfigError):
        make_block(channels=3)


@pytest.mark.parametrize("channels, kw", [(0, {"dilated": False}),
                                          (4, {"dilated": False, "graph": False})],
                         ids=["no-channels", "no-branch"])
def test_block_rejects_no_channels_or_no_branch(channels, kw):
    with pytest.raises(ConfigError):
        make_block(channels=channels, **kw)


# -- multi_graph -------------------------------------------------------------------


def test_multi_graph_identity_reduction():
    params, block = make_block(channels=4, size=(4, 4), seed=12)
    x = Tensor(np.random.default_rng(13).standard_normal((2, 4, 4, 4)))
    zero_all(params)
    # trailing conv = per-channel delta kernel, i.e. identity
    w = block.trail.weight.data
    for c in range(4):
        w[c, c, 1, 1] = 1.0
    out = block.multi_graph(x)
    np.testing.assert_array_equal(out.data, x.data)


def test_multi_graph_gradcheck():
    params, block = make_block(channels=4, size=(4, 4), seed=16)
    x = Tensor(np.random.default_rng(17).standard_normal((2, 4, 4, 4)), requires_grad=True)
    r = np.random.default_rng(18).standard_normal((2, 4, 4, 4))

    def build():
        return (block.multi_graph(x) * Tensor(r)).sum()

    build().backward()
    want = fd_gradients(lambda: build().item(), [x])[0]
    assert max_rel_err(x.grad, want) < TOL


def test_multi_graph_shape_for_many_slices():
    params, block = make_block(channels=4, seed=19)
    for s in (1, 12):
        x = Tensor(np.zeros((s, 4, 6, 6)))
        assert block.multi_graph(x).shape == (s, 4, 6, 6)


# -- full block ---------------------------------------------------------------------


def test_cru_zeroed_fusion_is_exact_identity():
    params, block = make_block(channels=4, size=(8, 8), seed=20)
    zero_fuse(block)
    x = Tensor(np.random.default_rng(21).standard_normal((3, 4, 8, 8)))
    out = block(x)
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("slices", [1, 3])
def test_cru_full_gradcheck(slices):
    params, block = make_block(channels=4, seed=22)
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((slices, 4, 6, 6)), requires_grad=True)
    # zero-init biases park some pre-activations exactly on the relu kink,
    # where finite differences are one-sided; move them off it
    for name, t in params.named():
        if name.endswith("bias"):
            t.data[...] = 0.1 * rng.standard_normal(t.shape)
    r = rng.standard_normal((slices, 4, 6, 6))

    def build():
        return (block(x) * Tensor(r)).sum()

    build().backward()
    tensors = [x] + [t for _, t in params.named()]
    sampled = fd_gradients_sampled(lambda: build().item(), tensors, rng, per_tensor=3)
    for t, rows in zip(tensors, sampled):
        flat = t.grad.ravel()
        for idx, want in rows:
            denom = max(abs(flat[idx]), abs(want), 1e-6)
            assert abs(flat[idx] - want) / denom < TOL


def test_cru_slice_axis_is_batch_like():
    params, block = make_block(channels=4, seed=24)
    rng = np.random.default_rng(25)
    x = rng.standard_normal((4, 4, 6, 6))
    whole = block(Tensor(x)).data
    for s in range(4):
        alone = block(Tensor(x[s : s + 1])).data
        np.testing.assert_allclose(alone[0], whole[s], atol=1e-12)
    perm = [2, 0, 3, 1]
    permuted = block(Tensor(x[perm])).data
    np.testing.assert_allclose(permuted, whole[perm], atol=1e-12)


def test_cru_every_parameter_gets_gradient():
    params, block = make_block(channels=4, seed=26)
    rng = np.random.default_rng(27)
    x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
    (block(x) * Tensor(rng.standard_normal((2, 4, 6, 6)))).sum().backward()
    for name, t in params.named():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0), f"dead parameter {name}"


def test_cru_shape_preserved():
    params, block = make_block(channels=8, size=(10, 12), seed=28)
    x = Tensor(np.zeros((2, 8, 10, 12)))
    assert block(x).shape == (2, 8, 10, 12)
