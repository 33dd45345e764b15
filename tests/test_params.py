import io

import numpy as np
import pytest
from hypothesis import given, settings

from lfdepth.errors import FormatError, UsageError
from lfdepth.params import (
    MAGIC,
    ModuleParams,
    load_params,
    read_container,
    save_params,
    write_container,
)

from oracles import corrupted


def small_tree():
    params = ModuleParams()
    params.add("gain", np.array([1.0, 2.0]))
    conv = params.child("conv")
    conv.add("weight", np.arange(12.0).reshape(3, 2, 2))
    conv.add("bias", np.zeros(3))
    params.child("head").add("weight", np.array(7.0))
    return params


def test_named_paths_in_insertion_order():
    params = small_tree()
    assert [name for name, _ in params.named()] == [
        "gain",
        "conv.weight",
        "conv.bias",
        "head.weight",
    ]


def test_add_rejects_bad_names():
    params = ModuleParams()
    params.add("w", np.zeros(1))
    with pytest.raises(UsageError):
        params.add("w", np.zeros(1))
    with pytest.raises(UsageError):
        params.add("a.b", np.zeros(1))
    with pytest.raises(UsageError):
        params.add("", np.zeros(1))


def test_count_and_get():
    params = small_tree()
    assert params.count() == 2 + 12 + 3 + 1
    assert params.get("conv.bias").shape == (3,)
    with pytest.raises(UsageError):
        params.get("conv.missing")


def test_alias_detection():
    params = ModuleParams()
    t = params.add("a", np.zeros(2))
    params.child("sub")._entries["b"] = t  # force an alias past the public API
    with pytest.raises(UsageError):
        list(params.tensors())


def test_zero_grad_and_gradients():
    params = small_tree()
    loss = sum((t * t).sum() for _, t in params.named())
    loss.backward()
    grads = params.gradients()
    assert set(grads) == {name for name, _ in params.named()}
    params.zero_grad()
    assert all(t.grad is None for _, t in params.named())


def test_state_roundtrip_strict():
    params = small_tree()
    state = params.state()
    other = small_tree()
    for _, t in other.named():
        t.data[...] = -1.0
    other.load_state(state)
    for name, t in other.named():
        np.testing.assert_array_equal(t.data, dict(params.named())[name].data)


def test_load_state_strict_errors():
    params = small_tree()
    state = params.state()
    del state["gain"]
    with pytest.raises(FormatError):
        small_tree().load_state(state)
    state = params.state()
    state["extra"] = np.zeros(1)
    with pytest.raises(FormatError):
        small_tree().load_state(state)
    state = params.state()
    state["gain"] = np.zeros(3)
    with pytest.raises(FormatError):
        small_tree().load_state(state)


def test_container_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    entries = {
        "a": rng.standard_normal((3, 4)),
        "nested.name": rng.standard_normal(7),
        "s": np.array(np.pi),
    }
    path = tmp_path / "params.bin"
    save_params(path, entries)
    back = load_params(path)
    assert list(back) == list(entries)
    for k in entries:
        assert back[k].dtype == np.float64
        assert back[k].shape == entries[k].shape
        assert back[k].tobytes() == entries[k].tobytes()
    # byte-identical when written twice
    buf = io.BytesIO()
    write_container(buf, entries)
    assert buf.getvalue() == path.read_bytes()


def test_container_rejects_bad_magic():
    buf = io.BytesIO(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_container(buf)


def test_container_rejects_truncation():
    buf = io.BytesIO()
    write_container(buf, {"w": np.ones((2, 2))})
    blob = buf.getvalue()
    with pytest.raises(FormatError) as err:
        read_container(io.BytesIO(blob[:-5]))
    assert "offset" in str(err.value)


def test_container_rejects_wrong_version():
    buf = io.BytesIO()
    write_container(buf, {"w": np.ones(1)})
    blob = bytearray(buf.getvalue())
    blob[len(MAGIC)] = 9
    with pytest.raises(FormatError):
        read_container(io.BytesIO(bytes(blob)))


def container_blob() -> bytes:
    buf = io.BytesIO()
    write_container(buf, {"conv.weight": np.arange(6.0).reshape(2, 3), "b": np.array(0.5)})
    return buf.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(corrupted(container_blob()))
def test_corrupt_container_raises_only_format_error(blob):
    try:
        read_container(io.BytesIO(blob))
    except FormatError:
        pass


def test_container_rejects_extent_larger_than_stream():
    class Recording(io.BytesIO):
        largest = 0

        def read(self, n=-1):
            self.largest = max(self.largest, n)
            return super().read(n)

    blob = bytearray(container_blob())
    extent = 12 + 2 + len("conv.weight") + 1
    blob[extent : extent + 4] = b"\xff\xff\xff\x7f"
    stream = Recording(bytes(blob))
    with pytest.raises(FormatError, match="offset"):
        read_container(stream)
    assert stream.largest <= len(blob)


def test_container_rejects_non_utf8_name():
    blob = bytearray(container_blob())
    blob[12 + 2] = 0xFF
    with pytest.raises(FormatError, match="UTF-8"):
        read_container(io.BytesIO(bytes(blob)))


def test_container_roundtrip_through_module_params(tmp_path):
    params = small_tree()
    path = tmp_path / "m.bin"
    save_params(path, params.state())
    loaded = load_params(path)
    fresh = small_tree()
    for _, t in fresh.named():
        t.data[...] = 0.0
    fresh.load_state(loaded)
    assert fresh.get("head.weight").item() == 7.0
