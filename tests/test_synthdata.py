import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lfdepth import synthdata
from lfdepth.errors import ConfigError, FormatError, UsageError
from lfdepth.pnm import read_pgm16, read_ppm, write_pgm16, write_ppm
from lfdepth.synthdata import (
    DEPTH_STYLES,
    TEXTURE_STYLES,
    AugmentPolicy,
    GenSpec,
    Scene,
    augment,
    defocus_blur,
    focus_depths,
    generate_dataset,
    generate_scene,
    load_split,
    read_scene,
    split_names,
    write_scene,
)

from oracles import corrupted, defocus_blur_gather, gaussian_blur_dense


def small_spec(**kw):
    base = dict(height=16, width=16, slices=3, blur_gain=2.0, seed=0)
    base.update(kw)
    return GenSpec(**base)


# -- focus depths and validation --------------------------------------------------


def test_focus_depths_are_bin_midpoints():
    ds = focus_depths(4)
    np.testing.assert_allclose(ds, [0.125, 0.375, 0.625, 0.875])
    for s in (2, 5, 12):
        ds = focus_depths(s)
        assert len(ds) == s
        assert np.all(np.diff(ds) > 0)
        assert ds[0] > 0 and ds[-1] < 1


def test_genspec_validation():
    with pytest.raises(ConfigError):
        small_spec(height=20)
    with pytest.raises(ConfigError):
        small_spec(slices=1)
    with pytest.raises(ConfigError):
        small_spec(blur_gain=-0.5)
    with pytest.raises(ConfigError):
        small_spec(depth_style="steps")
    with pytest.raises(ConfigError):
        small_spec(texture_style="plaid")


@pytest.mark.parametrize("gain", [float("nan"), float("inf")])
def test_genspec_rejects_non_finite_blur_gain(gain):
    with pytest.raises(ConfigError):
        small_spec(blur_gain=gain)


def test_genspec_rejects_negative_seed():
    with pytest.raises(ConfigError):
        small_spec(seed=-1)


# -- defocus rendering -------------------------------------------------------------


def test_zero_sigma_copies_exactly():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (3, 9, 11))
    out = defocus_blur(img, np.zeros((9, 11)))
    np.testing.assert_array_equal(out, img)


def test_mixed_sigma_keeps_zero_pixels_exact():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (3, 10, 10))
    sigma = np.zeros((10, 10))
    sigma[3:7, 2:9] = 1.3
    out = defocus_blur(img, sigma)
    still = sigma == 0.0
    np.testing.assert_array_equal(out[:, still], img[:, still])
    assert np.any(out[:, ~still] != img[:, ~still])


def test_varying_sigma_matches_dense_oracle():
    """A ramp with a step edge: every pixel has its own window and weights."""
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 1, (3, 12, 14))
    ramp = np.linspace(0.0, 2.2, 14)[None, :].repeat(12, axis=0)
    field = np.where(np.arange(12)[:, None] < 5, ramp, 2.6 - ramp)
    got = defocus_blur(img, field)
    want = gaussian_blur_dense(img, field)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_uniform_sigma_matches_dense_oracle():
    """Constant sigma makes the gather a plain truncated Gaussian blur."""
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, (3, 12, 14))
    for sigma in (0.4, 1.0, 2.7):
        field = np.full((12, 14), sigma)
        got = defocus_blur(img, field)
        want = gaussian_blur_dense(img, field)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_defocus_rejects_bad_sigma():
    img = np.zeros((3, 4, 4))
    with pytest.raises(UsageError):
        defocus_blur(img, np.zeros((4, 5)))
    with pytest.raises(UsageError):
        defocus_blur(img, np.full((4, 4), -0.1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_defocus_rejects_non_finite_sigma(bad):
    sigma = np.full((4, 4), 0.5)
    sigma[1, 2] = bad
    with pytest.raises(UsageError):
        defocus_blur(np.zeros((3, 4, 4)), sigma)


def test_defocus_rejects_non_finite_image():
    img = np.zeros((3, 4, 4))
    img[0, 1, 1] = np.nan
    with pytest.raises(UsageError):
        defocus_blur(img, np.full((4, 4), 0.5))


@pytest.mark.parametrize("shape", [(4, 4), (1, 3, 4, 4)])
def test_defocus_rejects_image_that_is_not_chw(shape):
    with pytest.raises(UsageError):
        defocus_blur(np.zeros(shape), np.zeros((4, 4)))


def test_defocus_caps_huge_windows_at_image_size():
    """A window wider than the image covers all of it with weight ~1."""
    img = np.random.default_rng(4).uniform(0, 1, (3, 6, 9))
    out = defocus_blur(img, np.full((6, 9), 1e100))
    want = np.broadcast_to(img.mean(axis=(1, 2))[:, None, None], img.shape)
    np.testing.assert_allclose(out, want, rtol=1e-12)


@pytest.mark.parametrize("tiny", [5e-324, 1e-200])
def test_defocus_tiny_sigma_copies_through(tiny):
    img = np.random.default_rng(6).uniform(-1, 1, (3, 5, 5))
    out = defocus_blur(img, np.full((5, 5), tiny))
    assert out.tobytes() == img.tobytes()


def _gather_cases():
    rng = np.random.default_rng(5)
    for style in DEPTH_STYLES:
        scene_spec = small_spec(depth_style=style, texture_style="noise", seed=7)
        depth = generate_scene(scene_spec).depth[0]
        img = rng.uniform(0, 1, (3, 16, 16))
        for d in focus_depths(3):
            yield f"{style}-{d:.3f}", img, scene_spec.blur_gain * np.abs(depth - d)
    yield "non-square", rng.uniform(0, 1, (3, 12, 20)), rng.uniform(0, 1.5, (12, 20))
    wide = rng.uniform(0, 1.0, (7, 5))
    wide[3, 2] = 4.0                       # radius 12, beyond both extents
    yield "rmax-beyond-image", rng.uniform(0, 1, (2, 7, 5)), wide
    single = np.zeros((9, 10))
    single[4, 7] = 1.2
    yield "single-pixel", rng.uniform(0, 1, (3, 9, 10)), single
    yield "all-zero", rng.uniform(0, 1, (3, 6, 6)), np.zeros((6, 6))
    yield from _bench_sized_cases()


# a seed per depth style whose 64x64 depth reaches radius 11 at focus depth 1/24
BENCH_SEEDS = {"planes": 6, "slanted": 1, "blobs": 4}


def _bench_sized_cases():
    """Default-size scenes at the default blur gain, as the benchmark renders them."""
    for style, seed in BENCH_SEEDS.items():
        spec = GenSpec(depth_style=style, texture_style="noise", seed=seed, slices=2)
        scene = generate_scene(spec)
        for d in focus_depths(12)[[0, 5, 11]]:
            sigma = spec.blur_gain * np.abs(scene.depth[0] - d)
            yield f"bench-{style}-{d:.3f}", scene.rgb, sigma


def test_defocus_equals_full_image_gather_bitwise():
    for name, img, sigma in _gather_cases():
        got = defocus_blur(img, sigma)
        assert got.tobytes() == defocus_blur_gather(img, sigma).tobytes(), name


def test_bench_sized_cases_reach_radius_11():
    radii = {}
    for name, _, sigma in _bench_sized_cases():
        style = name.split("-")[1]
        radii[style] = max(radii.get(style, 0), math.ceil(3.0 * sigma.max()))
    assert radii == {style: 11 for style in DEPTH_STYLES}


@pytest.mark.parametrize("band_rows", [20, 1, 0.5])
def test_defocus_in_bands_equals_full_image_gather(monkeypatch, band_rows):
    """A small budget renders the rows in bands; below one row of weight maps,
    the maps that do not fit are recomputed at each use."""
    name, img, sigma = next(_bench_sized_cases())
    h, w = sigma.shape
    rmax = math.ceil(3.0 * sigma.max())
    row_bytes = (rmax + 1) * (rmax + 2) // 2 * (w + rmax) * 8
    monkeypatch.setattr(synthdata, "_BAND_BYTES", int(band_rows * row_bytes))
    assert math.ceil(h / max(1, band_rows)) >= 3
    got = defocus_blur(img, sigma)
    assert got.tobytes() == defocus_blur_gather(img, sigma).tobytes(), name


@st.composite
def blur_fields(draw):
    c = draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    img = draw(hnp.arrays(np.float64, (c, h, w), elements=st.floats(-2.0, 2.0)))
    # below ~1e-154 sigma**2 underflows and the old loop returns nan
    sigma = draw(hnp.arrays(
        np.float64, (h, w), elements=st.one_of(st.just(0.0), st.floats(1e-100, 3.0)),
    ))
    return img, sigma


@settings(derandomize=True, max_examples=200, deadline=None)
@given(blur_fields())
def test_defocus_equals_full_image_gather_on_random_fields(field):
    img, sigma = field
    assert defocus_blur(img, sigma).tobytes() == defocus_blur_gather(img, sigma).tobytes()


def test_constant_blur_preserves_constant_image():
    """Renormalized weights sum to one, so a flat image stays flat."""
    img = np.full((3, 8, 8), 0.625)
    out = defocus_blur(img, np.full((8, 8), 1.7))
    np.testing.assert_allclose(out, img, atol=1e-12)


# -- scene generation ---------------------------------------------------------------


def test_generate_scene_shapes_and_ranges():
    for depth_style in DEPTH_STYLES:
        for texture_style in TEXTURE_STYLES:
            spec = small_spec(depth_style=depth_style, texture_style=texture_style)
            scene = generate_scene(spec)
            assert scene.rgb.shape == (3, 16, 16)
            assert scene.focal.shape == (3, 3, 16, 16)
            assert scene.depth.shape == (1, 16, 16)
            assert scene.focus_depths.shape == (3,)
            assert scene.rgb.min() >= 0 and scene.rgb.max() <= 1
            assert scene.focal.min() >= 0 and scene.focal.max() <= 1
            assert scene.depth.min() >= 0.05 and scene.depth.max() <= 0.95


def test_generate_scene_is_deterministic():
    a = generate_scene(small_spec(seed=7))
    b = generate_scene(small_spec(seed=7))
    np.testing.assert_array_equal(a.rgb, b.rgb)
    np.testing.assert_array_equal(a.focal, b.focal)
    np.testing.assert_array_equal(a.depth, b.depth)
    c = generate_scene(small_spec(seed=8))
    assert np.any(c.rgb != a.rgb)


@pytest.mark.parametrize(
    "seed, depth_style, texture_style, digest",
    [
        (11000, "planes", "checker", "f82bec03892c1bb5"),
        (11001, "slanted", "noise", "ef08e02cad79e37a"),
        (11002, "blobs", "stripes", "3f1364263da6c392"),
    ],
)
def test_default_scene_focal_bytes_are_pinned(seed, depth_style, texture_style, digest):
    """The focal stacks the benchmark trains and evaluates on, by SHA-256.

    The digests were taken with numpy 2.4 on x86-64; another numpy exp may
    round a weight differently in its last bit.
    """
    spec = GenSpec(seed=seed, depth_style=depth_style, texture_style=texture_style)
    focal = generate_scene(spec).focal
    assert hashlib.sha256(focal.tobytes()).hexdigest()[:16] == digest


def test_zero_blur_gain_gives_sharp_slices():
    scene = generate_scene(small_spec(blur_gain=0.0))
    for s in range(scene.focal.shape[0]):
        np.testing.assert_array_equal(scene.focal[s], scene.rgb)


def test_in_focus_pixels_stay_sharp():
    """Pixels whose depth equals a slice's focus depth copy through exactly."""
    scene = generate_scene(small_spec(seed=3, depth_style="planes", blur_gain=3.0))
    ds = scene.focus_depths
    rng = np.random.default_rng(4)
    depth = scene.depth[0].copy()
    depth[5:9, 5:9] = ds[1]
    focal = defocus_blur(scene.rgb, 3.0 * np.abs(depth - ds[1]))
    np.testing.assert_array_equal(focal[:, 5:9, 5:9], scene.rgb[:, 5:9, 5:9])


# -- augmentation --------------------------------------------------------------------


def flip_only_policy():
    return AugmentPolicy(flip_chance=1.0, max_rotation_deg=0.0, color_low=1.0, color_high=1.0)


def test_flip_is_a_horizontal_mirror():
    scene = generate_scene(small_spec(seed=5))
    out = augment(scene, np.random.default_rng(0), flip_only_policy())
    np.testing.assert_array_equal(out.depth, scene.depth[:, :, ::-1])
    np.testing.assert_allclose(out.rgb, scene.rgb[:, :, ::-1], atol=1e-14, rtol=0)
    np.testing.assert_allclose(out.focal, scene.focal[:, :, :, ::-1], atol=1e-14, rtol=0)


def test_double_flip_restores_depth_exactly():
    scene = generate_scene(small_spec(seed=6))
    once = augment(scene, np.random.default_rng(1), flip_only_policy())
    twice = augment(once, np.random.default_rng(2), flip_only_policy())
    np.testing.assert_array_equal(twice.depth, scene.depth)
    np.testing.assert_allclose(twice.rgb, scene.rgb, atol=1e-13, rtol=0)


def test_jitter_never_touches_depth():
    scene = generate_scene(small_spec(seed=9))
    policy = AugmentPolicy(flip_chance=0.0, max_rotation_deg=0.0, color_low=0.5, color_high=1.5)
    out = augment(scene, np.random.default_rng(3), policy)
    np.testing.assert_array_equal(out.depth, scene.depth)
    assert np.any(out.rgb != scene.rgb)
    assert out.rgb.min() >= 0 and out.rgb.max() <= 1
    assert out.focal.min() >= 0 and out.focal.max() <= 1


def test_augment_is_deterministic_per_rng_state():
    scene = generate_scene(small_spec(seed=10))
    a = augment(scene, np.random.default_rng(42))
    b = augment(scene, np.random.default_rng(42))
    np.testing.assert_array_equal(a.rgb, b.rgb)
    np.testing.assert_array_equal(a.focal, b.focal)
    np.testing.assert_array_equal(a.depth, b.depth)


def test_rotation_keeps_shapes_and_depth_range():
    scene = generate_scene(small_spec(seed=11))
    policy = AugmentPolicy(flip_chance=0.0, max_rotation_deg=5.0, color_low=1.0, color_high=1.0)
    out = augment(scene, np.random.default_rng(4), policy)
    assert out.rgb.shape == scene.rgb.shape
    assert out.focal.shape == scene.focal.shape
    assert out.depth.shape == scene.depth.shape
    assert out.depth.min() >= 0.0 and out.depth.max() <= 1.0
    assert np.any(out.rgb != scene.rgb)


def test_augment_leaves_the_input_scene_alone():
    scene = generate_scene(small_spec(seed=12))
    rgb0 = scene.rgb.copy()
    depth0 = scene.depth.copy()
    augment(scene, np.random.default_rng(5))
    np.testing.assert_array_equal(scene.rgb, rgb0)
    np.testing.assert_array_equal(scene.depth, depth0)


# -- pixel formats --------------------------------------------------------------------


def test_ppm_round_trip_and_layout(tmp_path):
    path = tmp_path / "img.ppm"
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (3, 5, 7), dtype=np.uint8)
    write_ppm(path, pixels)
    np.testing.assert_array_equal(read_ppm(path), pixels)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n7 5\n255\n")
    # interleaved RGB, row-major
    assert blob[-3:] == bytes([pixels[0, 4, 6], pixels[1, 4, 6], pixels[2, 4, 6]])


def test_pgm16_round_trip_and_big_endian(tmp_path):
    path = tmp_path / "depth.pgm"
    values = np.array([[0, 1], [258, 65535]], dtype=np.uint16)
    write_pgm16(path, values)
    np.testing.assert_array_equal(read_pgm16(path), values)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n65535\n")
    assert blob[-8:] == bytes([0, 0, 0, 1, 1, 2, 255, 255])


def test_truncated_ppm_names_file_and_offset(tmp_path):
    path = tmp_path / "short.ppm"
    pixels = np.zeros((3, 4, 4), dtype=np.uint8)
    write_ppm(path, pixels)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError) as err:
        read_ppm(path)
    assert "short.ppm" in str(err.value)
    assert "offset" in str(err.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
    with pytest.raises(FormatError):
        read_ppm(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "image.pnm"


@pytest.mark.parametrize(
    "reader,blob",
    [
        (read_ppm, b"P6\n3 2\n255\n" + bytes(range(18))),
        (read_pgm16, b"P5\n# depth\n2 2\n65535\n" + bytes(range(8))),
    ],
    ids=["ppm", "pgm16"],
)
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_pnm_raises_only_format_error(fuzz_path, reader, blob, data):
    fuzz_path.write_bytes(data.draw(corrupted(blob)))
    try:
        reader(fuzz_path)
    except FormatError:
        pass


# -- scene round trip ------------------------------------------------------------------


def quantized(scene: Scene) -> Scene:
    """The scene as it survives 8/16-bit storage."""
    return Scene(
        rgb=np.round(scene.rgb * 255) / 255,
        focal=np.round(scene.focal * 255) / 255,
        depth=np.round(scene.depth * 65535) / 65535,
        focus_depths=scene.focus_depths.copy(),
    )


def test_scene_round_trip_is_bitwise_after_quantization(tmp_path):
    scene = generate_scene(small_spec(seed=13))
    write_scene(scene, tmp_path / "s0")
    back = read_scene(tmp_path / "s0")
    q = quantized(scene)
    np.testing.assert_array_equal(back.rgb, q.rgb)
    np.testing.assert_array_equal(back.focal, q.focal)
    np.testing.assert_array_equal(back.depth, q.depth)
    np.testing.assert_array_equal(back.focus_depths, scene.focus_depths)

    # a second trip through disk changes nothing at all
    write_scene(back, tmp_path / "s1")
    again = read_scene(tmp_path / "s1")
    np.testing.assert_array_equal(again.rgb, back.rgb)
    np.testing.assert_array_equal(again.focal, back.focal)
    np.testing.assert_array_equal(again.depth, back.depth)


def test_scene_files_on_disk(tmp_path):
    scene = generate_scene(small_spec(seed=14))
    write_scene(scene, tmp_path / "scene")
    names = sorted(os.listdir(tmp_path / "scene"))
    assert names == ["depth.pgm", "focal_00.ppm", "focal_01.ppm", "focal_02.ppm",
                     "meta.json", "rgb.ppm"]


def test_read_scene_rejects_bad_metadata(tmp_path):
    scene = generate_scene(small_spec(seed=15))
    write_scene(scene, tmp_path / "scene")
    meta = tmp_path / "scene" / "meta.json"

    meta.write_text("{not json")
    with pytest.raises(FormatError):
        read_scene(tmp_path / "scene")

    meta.write_text(json.dumps({"slices": 3}))
    with pytest.raises(FormatError):
        read_scene(tmp_path / "scene")

    meta.write_text(json.dumps({"slices": 3, "focus_depths": [0.5, 0.3, 0.8]}))
    with pytest.raises(FormatError):
        read_scene(tmp_path / "scene")

    os.remove(meta)
    with pytest.raises(FormatError):
        read_scene(tmp_path / "scene")


@pytest.mark.parametrize("name", ["focal_01.ppm", "depth.pgm"])
def test_read_scene_rejects_an_image_of_another_size(tmp_path, name):
    write_scene(generate_scene(small_spec(seed=16)), tmp_path / "scene")
    path = tmp_path / "scene" / name
    if name.endswith(".ppm"):
        write_ppm(path, np.zeros((3, 16, 32), dtype=np.uint8))
    else:
        write_pgm16(path, np.zeros((8, 16), dtype=np.uint16))
    with pytest.raises(FormatError, match=name):
        read_scene(tmp_path / "scene")


# -- dataset ----------------------------------------------------------------------------


def test_generate_dataset_split_and_load(tmp_path):
    manifest = generate_dataset(tmp_path, 5, small_spec())
    assert manifest["train"] == ["scene_0000", "scene_0001", "scene_0002", "scene_0003"]
    assert manifest["test"] == ["scene_0004"]
    train = load_split(tmp_path, "train")
    test = load_split(tmp_path, "test")
    assert len(train) == 4 and len(test) == 1
    for scene in train + test:
        assert scene.rgb.shape == (3, 16, 16)
        assert scene.focal.shape == (3, 3, 16, 16)

    # scene i is seeded base.seed + i, so regenerating matches the files
    want = quantized(generate_scene(small_spec(seed=2, depth_style="blobs")))
    np.testing.assert_array_equal(train[2].rgb, want.rgb)
    np.testing.assert_array_equal(train[2].depth, want.depth)


def test_generate_dataset_cycles_styles(tmp_path):
    specs = []
    for i in range(10):
        specs.append((DEPTH_STYLES[i % 3], TEXTURE_STYLES[(i // 3) % 3]))
    assert specs[0] == ("planes", "checker")
    assert specs[3] == ("planes", "noise")
    assert specs[9] == ("planes", "checker")
    assert len(set(specs)) == 9


def test_generate_dataset_needs_two_scenes(tmp_path):
    with pytest.raises(UsageError):
        generate_dataset(tmp_path, 1, small_spec())


def test_load_split_errors(tmp_path):
    with pytest.raises(FormatError):
        load_split(tmp_path, "train")
    generate_dataset(tmp_path, 2, small_spec())
    with pytest.raises(UsageError):
        load_split(tmp_path, "validation")


@pytest.mark.parametrize(
    "manifest",
    [5, [["scene_0000"]], {"train": 5}, {"train": ["scene_0000", 3]}],
    ids=["number", "list", "split-not-a-list", "name-not-a-string"],
)
def test_malformed_manifest_is_a_format_error(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="manifest.json"):
        split_names(tmp_path, "train")
