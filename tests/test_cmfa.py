import numpy as np
import pytest

from lfdepth.cmfa import Cmfa
from lfdepth.errors import ConfigError, ShapeError
from lfdepth.ops import conv2d, kaiming_normal
from lfdepth.params import ModuleParams
from lfdepth.tensor import Tensor

from oracles import (
    cmfa_complement_3d,
    cmfa_relation_pairs,
    fd_gradients,
    fd_gradients_sampled,
    max_rel_err,
)

TOL = 1e-4


def make_block(channels=4, seed=0):
    params = ModuleParams()
    block = Cmfa(params, "cmfa", channels, np.random.default_rng(seed))
    return params, block


def identity_reduce_enhancement(block):
    """Zero complement convs, identity 1x1 post convs: enhance becomes a no-op."""
    c = block.channels
    for t in (block.comp_weight, block.comp_bias, block.rgb_to_focal.weight,
              block.rgb_to_focal.bias):
        t.data[...] = 0.0
    for conv in (block.post_rgb, block.post_focal):
        conv.weight.data[...] = np.eye(c).reshape(c, c, 1, 1)
        conv.bias.data[...] = 0.0


def zero_heads(block):
    for head in (block.gamma_head, block.lambda_head):
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0


# -- enhancement -----------------------------------------------------------------


def test_enhance_identity_reduction():
    params, block = make_block()
    identity_reduce_enhancement(block)
    rng = np.random.default_rng(1)
    focal = Tensor(rng.standard_normal((4, 4, 5, 5)))
    rgb = Tensor(rng.standard_normal((1, 4, 5, 5)))
    f2, r2 = block.enhance(focal, rgb)
    np.testing.assert_array_equal(f2.data, focal.data)
    np.testing.assert_array_equal(r2.data, rgb.data)


def test_enhance_shapes_and_mismatch():
    params, block = make_block()
    focal = Tensor(np.zeros((6, 4, 5, 7)))
    rgb = Tensor(np.zeros((1, 4, 5, 7)))
    f2, r2 = block.enhance(focal, rgb)
    assert f2.shape == focal.shape
    assert r2.shape == rgb.shape
    with pytest.raises(ShapeError):
        block.enhance(focal, Tensor(np.zeros((1, 4, 5, 5))))
    with pytest.raises(ShapeError):
        block.enhance(focal, Tensor(np.zeros((1, 3, 5, 7))))


@pytest.mark.parametrize("comp_kernel", [(3, 3, 3), (5, 3, 3), (1, 3, 3)])
@pytest.mark.parametrize("slices", [1, 2, 3, 12])
def test_complement_matches_3d_conv_slice_mean(slices, comp_kernel):
    params, block = make_block(channels=3, seed=30)
    rng = np.random.default_rng(31)
    # the complement reads the slice depth of its kernel from the weight
    block.comp_weight = Tensor(rng.standard_normal((3, 3) + comp_kernel))
    block.comp_bias.data[...] = rng.standard_normal(3)
    focal = rng.standard_normal((slices, 3, 5, 4))
    want = cmfa_complement_3d(focal, block.comp_weight.data, block.comp_bias.data)
    got = block.complement(Tensor(focal))
    assert got.shape == (1, 3, 5, 4)
    assert max_rel_err(got.data, want) < 1e-13


def test_enhance_gradcheck():
    # 4 and 2 slices; 1 slice, where both outer slice taps read nothing
    for slices in (4, 1, 2):
        params, block = make_block(channels=4, seed=2)
        rng = np.random.default_rng(3)
        focal = Tensor(rng.standard_normal((slices, 4, 6, 6)), requires_grad=True)
        rgb = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
        rf = rng.standard_normal((slices, 4, 6, 6))
        rr = rng.standard_normal((1, 4, 6, 6))

        def build():
            f2, r2 = block.enhance(focal, rgb)
            return (f2 * Tensor(rf)).sum() + (r2 * Tensor(rr)).sum()

        build().backward()
        tensors = [focal, rgb] + [t for _, t in params.named() if t.grad is not None]
        sampled = fd_gradients_sampled(lambda: build().item(), tensors, rng, per_tensor=6)
        for t, rows in zip(tensors, sampled):
            flat = t.grad.ravel()
            for idx, want in rows:
                denom = max(abs(flat[idx]), abs(want), 1e-6)
                assert abs(flat[idx] - want) / denom < TOL


# -- attention weights -----------------------------------------------------------


def test_gamma_zero_head_gives_half():
    params, block = make_block()
    zero_heads(block)
    slices = Tensor(np.random.default_rng(4).standard_normal((13, 4, 5, 5)))
    gamma = block.self_attention_weights(slices)
    assert gamma.shape == (13,)
    np.testing.assert_allclose(gamma.data, 0.5)


def test_gamma_symmetry_and_range():
    params, block = make_block(seed=5)
    rng = np.random.default_rng(6)
    one = rng.standard_normal((1, 4, 5, 5))
    slices = Tensor(np.concatenate([one, rng.standard_normal((3, 4, 5, 5)), one], axis=0))
    gamma = block.self_attention_weights(slices).data
    assert gamma[0] == gamma[4]  # identical slices, identical weight
    assert np.all(gamma > 0.0) and np.all(gamma < 1.0)


def test_lambda_zero_head_and_symmetry():
    params, block = make_block(seed=7)
    rng = np.random.default_rng(8)
    one = rng.standard_normal((1, 4, 5, 5))
    slices = Tensor(np.concatenate([one, one, rng.standard_normal((2, 4, 5, 5))], axis=0))
    f1 = Tensor(rng.standard_normal((1, 4, 5, 5)))
    lam = block.relation_attention_weights(slices, f1).data
    assert lam[0] == lam[1]
    assert np.all(lam > 0.0) and np.all(lam < 1.0)
    zero_heads(block)
    np.testing.assert_allclose(block.relation_attention_weights(slices, f1).data, 0.5)


def test_train_mode_dropout_changes_weights():
    params, block = make_block(seed=9)
    slices = Tensor(np.random.default_rng(10).standard_normal((6, 4, 5, 5)))
    ref = block.self_attention_weights(slices).data
    seen_diff = False
    for seed in range(5):
        got = block.self_attention_weights(slices, np.random.default_rng(seed)).data
        if not np.allclose(got, ref):
            seen_diff = True
    assert seen_diff


# -- aggregation ------------------------------------------------------------------


def test_global_aggregate_identical_slices():
    params, block = make_block()
    c = np.random.default_rng(11).standard_normal((1, 4, 5, 5))
    slices = Tensor(np.repeat(c, 6, axis=0))
    gamma = Tensor(np.random.default_rng(12).uniform(0.1, 0.9, 6))
    f1 = block.global_aggregate(slices, gamma)
    np.testing.assert_allclose(f1.data, c, atol=1e-12)


def test_global_aggregate_uniform_weights_mean():
    params, block = make_block()
    rng = np.random.default_rng(13)
    slices = Tensor(rng.standard_normal((2, 3, 4, 4)))
    f1 = block.global_aggregate(slices, Tensor(np.array([0.5, 0.5])))
    np.testing.assert_allclose(f1.data[0], slices.data.mean(axis=0), atol=1e-12)


def test_global_aggregate_elementwise_bounds():
    params, block = make_block()
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 14))
        slices = rng.standard_normal((n, 3, 4, 4))
        gamma = rng.uniform(0.01, 0.99, n)
        f1 = block.global_aggregate(Tensor(slices), Tensor(gamma)).data[0]
        lo, hi = slices.min(axis=0), slices.max(axis=0)
        assert np.all(f1 >= lo - 1e-12)
        assert np.all(f1 <= hi + 1e-12)


def test_relation_aggregate_identical_slices():
    params, block = make_block()
    rng = np.random.default_rng(15)
    c = rng.standard_normal((1, 4, 5, 5))
    slices = Tensor(np.repeat(c, 5, axis=0))
    f1 = Tensor(c.copy())
    gamma = Tensor(rng.uniform(0.1, 0.9, 5))
    lam = Tensor(rng.uniform(0.1, 0.9, 5))
    f2 = block.relation_aggregate(slices, f1, gamma, lam)
    assert f2.shape == (1, 8, 5, 5)
    np.testing.assert_allclose(f2.data, np.concatenate([c, c], axis=1), atol=1e-12)


def test_relation_aggregate_uniform_weights_mean():
    params, block = make_block()
    rng = np.random.default_rng(16)
    slices = rng.standard_normal((4, 2, 3, 3))
    f1 = rng.standard_normal((1, 2, 3, 3))
    half = Tensor(np.full(4, 0.5))
    f2 = block.relation_aggregate(Tensor(slices), Tensor(f1), half, half).data
    pairs = np.concatenate([slices, np.repeat(f1, 4, axis=0)], axis=1)
    np.testing.assert_allclose(f2[0], pairs.mean(axis=0), atol=1e-12)


def test_relation_aggregate_hand_arithmetic():
    params, block = make_block(channels=1)
    a, b, m = 2.0, -1.0, 0.25
    g1, g2, l1, l2 = 0.8, 0.3, 0.6, 0.9
    slices = Tensor(np.array([a, b]).reshape(2, 1, 1, 1))
    f1 = Tensor(np.array([m]).reshape(1, 1, 1, 1))
    f2 = block.relation_aggregate(slices, f1, Tensor(np.array([g1, g2])),
                                  Tensor(np.array([l1, l2]))).data
    denom = g1 * l1 + g2 * l2
    assert abs(f2[0, 0, 0, 0] - (g1 * l1 * a + g2 * l2 * b) / denom) < 1e-15
    assert abs(f2[0, 1, 0, 0] - m) < 1e-15


@pytest.mark.parametrize("shape", [(2, 1, 3, 3), (5, 4, 5, 7), (7, 3, 6, 4), (13, 64, 16, 16)])
def test_relation_stage_matches_pair_bundle(shape):
    """Pooled halves and F_f1 itself reproduce the relation stage on [f_j, F_f1]."""
    params, block = make_block(channels=shape[1], seed=27)
    slices = Tensor(np.random.default_rng(28).standard_normal(shape))
    gamma = block.self_attention_weights(slices)
    f1 = block.global_aggregate(slices, gamma)
    lam = block.relation_attention_weights(slices, f1)
    f2 = block.relation_aggregate(slices, f1, gamma, lam)
    head = block.lambda_head
    want_lam, want_f2 = cmfa_relation_pairs(
        slices.data, f1.data, gamma.data, head.weight.data, head.bias.data
    )
    np.testing.assert_array_equal(lam.data, want_lam)
    assert f2.shape == want_f2.shape
    assert max_rel_err(f2.data, want_f2) <= 1e-15


# -- parameters -------------------------------------------------------------------


def test_parameter_layout_and_complement_init():
    c = 3
    params, block = make_block(channels=c, seed=29)
    assert [(path, t.shape) for path, t in params.named()] == [
        ("cmfa.focal_to_rgb.weight", (c, c, 3, 3, 3)),
        ("cmfa.focal_to_rgb.bias", (c,)),
        ("cmfa.rgb_to_focal.weight", (c, c, 3, 3)),
        ("cmfa.rgb_to_focal.bias", (c,)),
        ("cmfa.post_rgb.weight", (c, c, 1, 1)),
        ("cmfa.post_rgb.bias", (c,)),
        ("cmfa.post_focal.weight", (c, c, 1, 1)),
        ("cmfa.post_focal.bias", (c,)),
        ("cmfa.gamma_head.weight", (c, 1)),
        ("cmfa.gamma_head.bias", (1,)),
        ("cmfa.lambda_head.weight", (2 * c, 1)),
        ("cmfa.lambda_head.bias", (1,)),
        ("cmfa.fuse.weight", (c, 2 * c, 3, 3)),
        ("cmfa.fuse.bias", (c,)),
    ]
    # the complement weight is the block's first draw
    want = kaiming_normal(np.random.default_rng(29), (c, c, 3, 3, 3), 27 * c)
    np.testing.assert_array_equal(block.comp_weight.data, want)
    np.testing.assert_array_equal(block.comp_bias.data, np.zeros(c))


# -- full forward -----------------------------------------------------------------


def test_forward_identical_slices_degenerate():
    params, block = make_block(seed=17)
    identity_reduce_enhancement(block)
    rng = np.random.default_rng(18)
    c = rng.standard_normal((1, 4, 6, 6))
    focal = Tensor(np.repeat(c, 12, axis=0))
    rgb = Tensor(c.copy())
    out = block(focal, rgb)
    want = conv2d(
        Tensor(np.concatenate([c, c], axis=1)), block.fuse.weight, block.fuse.bias
    )
    np.testing.assert_allclose(out.data, want.data, atol=1e-12)


def test_forward_zero_heads_equals_plain_mean_fusion():
    params, block = make_block(seed=19)
    zero_heads(block)
    rng = np.random.default_rng(20)
    focal = Tensor(rng.standard_normal((5, 4, 6, 6)))
    rgb = Tensor(rng.standard_normal((1, 4, 6, 6)))
    out = block(focal, rgb)
    f2, r2 = block.enhance(focal, rgb)
    m = np.concatenate([f2.data, r2.data], axis=0).mean(axis=0, keepdims=True)
    want = conv2d(
        Tensor(np.concatenate([m, m], axis=1)), block.fuse.weight, block.fuse.bias
    )
    np.testing.assert_allclose(out.data, want.data, atol=1e-12)


def test_forward_permutation_invariance_symmetric_config():
    params, block = make_block(seed=21)
    # a kernel one slice deep: the complement no longer sees slice order
    block.comp_weight.data[:, :, [0, 2]] = 0.0
    rng = np.random.default_rng(22)
    focal = rng.standard_normal((6, 4, 5, 5))
    rgb = Tensor(rng.standard_normal((1, 4, 5, 5)))
    base = block(Tensor(focal), rgb).data
    perm = rng.permutation(6)
    permuted = block(Tensor(focal[perm]), rgb).data
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_forward_gradcheck():
    params, block = make_block(channels=4, seed=23)
    rng = np.random.default_rng(24)
    focal = Tensor(rng.standard_normal((4, 4, 6, 6)), requires_grad=True)
    rgb = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
    r = rng.standard_normal((1, 4, 6, 6))

    def build():
        return (block(focal, rgb) * Tensor(r)).sum()

    build().backward()
    tensors = [focal, rgb] + [t for _, t in params.named()]
    sampled = fd_gradients_sampled(lambda: build().item(), tensors, rng, per_tensor=4)
    for t, rows in zip(tensors, sampled):
        flat = t.grad.ravel()
        for idx, want in rows:
            denom = max(abs(flat[idx]), abs(want), 1e-6)
            assert abs(flat[idx] - want) / denom < TOL


def test_gradient_reaches_every_slice():
    params, block = make_block(seed=25)
    rng = np.random.default_rng(26)
    focal = Tensor(rng.standard_normal((6, 4, 5, 5)), requires_grad=True)
    rgb = Tensor(rng.standard_normal((1, 4, 5, 5)), requires_grad=True)
    block(focal, rgb).sum().backward()
    for j in range(6):
        assert np.any(focal.grad[j] != 0.0), f"slice {j} got no gradient"
    assert np.any(rgb.grad != 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_block(channels=0)
