import io

import numpy as np
import pytest
from hypothesis import given, settings

from lfdepth.errors import FormatError, UsageError
from lfdepth.params import (
    MAGIC,
    DiskEntry,
    ModuleParams,
    load_params,
    read_container,
    read_entries,
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


def test_load_state_takes_ownership():
    state = {path: t.data.copy() for path, t in small_tree().named()}
    other = small_tree()
    other.load_state(state)
    for path, t in other.named():
        assert t.data is state[path]


def test_load_state_copies_what_it_cannot_own():
    state = {path: t.data.copy() for path, t in small_tree().named()}
    state["gain"].flags.writeable = False
    state["conv.weight"] = np.asfortranarray(state["conv.weight"])
    state["conv.bias"] = state["conv.bias"].astype(np.float32)
    other = small_tree()
    other.load_state(state)
    for path in ("gain", "conv.weight", "conv.bias"):
        data = other.get(path).data
        assert data is not state[path]
        assert data.dtype == np.float64 and data.flags.c_contiguous and data.flags.writeable
        np.testing.assert_array_equal(data, state[path])


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


class ShortReads(io.BytesIO):
    """A stream whose size looks whole but whose reads of ``limit`` bytes or
    more stop one byte short, as a file cut while it is read."""

    limit = 64

    def readinto(self, buf):
        n = memoryview(buf).nbytes
        if n < self.limit:
            return super().readinto(buf)
        return super().readinto(memoryview(buf).cast("B")[: n - 1])


def test_container_data_cut_short_names_its_entry():
    buf = io.BytesIO()
    write_container(buf, {"a": np.ones(2), "conv.weight": np.ones((4, 4))})
    blob = buf.getvalue()
    with pytest.raises(FormatError, match=r"data of 'conv\.weight' at offset"):
        read_container(io.BytesIO(blob[:-20]))
    with pytest.raises(FormatError, match=r"truncated container: data of 'conv\.weight'"):
        read_container(ShortReads(blob))


def deferred_blob() -> bytes:
    """A container whose deferred entry spans several of the reader's chunks."""
    buf = io.BytesIO()
    rng = np.random.default_rng(5)
    write_container(buf, {"w": np.ones(3), "later.big": rng.standard_normal((3, 5000)),
                          "later.s": np.array(0.25), "b": np.arange(2.0)})
    return buf.getvalue()


def test_container_leaves_deferred_entries_on_disk(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(deferred_blob())
    kept = load_params(path, defer=("later.",))
    whole = load_params(path)
    assert list(kept) == list(whole)
    for name in ("w", "b"):
        assert kept[name].tobytes() == whole[name].tobytes()
    records = {name: kept[name] for name in ("later.big", "later.s")}
    for name, rec in records.items():
        assert isinstance(rec, DiskEntry) and rec.shape == whole[name].shape
    back = read_entries(path, records)
    for name, arr in back.items():
        assert arr.tobytes() == whole[name].tobytes()
        assert arr.flags.c_contiguous and arr.flags.writeable


def test_deferred_entry_cut_short_names_its_entry():
    blob = deferred_blob()
    end = read_container(io.BytesIO(blob), defer=("later.",))["later.big"].offset + 8 * 15000
    with pytest.raises(FormatError, match=r"data of 'later\.big' at offset"):
        read_container(io.BytesIO(blob[: end - 1]), defer=("later.",))
    with pytest.raises(FormatError, match=r"truncated container: data of 'later\.big'"):
        read_container(ShortReads(blob), defer=("later.",))


def test_deferred_entry_must_be_finite():
    buf = io.BytesIO()
    big = np.zeros(9000)
    big[-1] = np.nan  # in the second chunk
    write_container(buf, {"w": np.ones(2), "later.big": big})
    assert np.isnan(read_container(io.BytesIO(buf.getvalue()))["later.big"][-1])
    with pytest.raises(FormatError, match=r"'later\.big' holds non-finite values"):
        read_container(io.BytesIO(buf.getvalue()), defer=("later.",))


@pytest.mark.parametrize("change", ["byte", "truncate", "delete"])
def test_deferred_entry_changed_on_disk_names_file_and_entry(tmp_path, change):
    path = tmp_path / "c.bin"
    path.write_bytes(deferred_blob())
    records = {k: v for k, v in load_params(path, defer=("later.",)).items()
               if isinstance(v, DiskEntry)}
    blob = bytearray(path.read_bytes())
    if change == "byte":
        blob[records["later.s"].offset] ^= 1
        path.write_bytes(bytes(blob))
    elif change == "truncate":
        path.write_bytes(bytes(blob[: records["later.s"].offset + 4]))
    else:
        path.unlink()
    named = "later.big" if change == "delete" else "later.s"
    with pytest.raises(FormatError, match=rf"c\.bin: .*'{named}'"):
        read_entries(path, records)


def test_container_arrays_are_fresh_writable_float64():
    buf = io.BytesIO()
    write_container(buf, {"w": np.ones((3, 2)), "s": np.array(2.0), "v": np.arange(4.0)})
    first = read_container(io.BytesIO(buf.getvalue()))
    second = read_container(io.BytesIO(buf.getvalue()))
    arrays = list(first.values()) + list(second.values())
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_container_writes_views_as_their_values():
    base = np.arange(24.0).reshape(4, 6)
    entries = {"t": base.T, "col": base[:, 1], "s": base[2, 3]}
    buf = io.BytesIO()
    write_container(buf, entries)
    back = read_container(io.BytesIO(buf.getvalue()))
    for k, arr in entries.items():
        np.testing.assert_array_equal(back[k], arr)
        assert back[k].shape == np.shape(arr)


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
