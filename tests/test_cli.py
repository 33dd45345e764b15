import json
import os
import re

import numpy as np
import pytest

import lfdepth.cli as cli
from lfdepth.cli import main
from lfdepth.errors import ConfigError
from lfdepth.gradcheck import GroupReport
from lfdepth.params import load_params, save_params
from lfdepth.pnm import read_pgm16, write_ppm
from lfdepth.synthdata import GenSpec, generate_dataset
from lfdepth.train import worker_count


def make_dataset(root, scenes=3, size=16, slices=2):
    spec = GenSpec(height=size, width=size, slices=slices, blur_gain=2.0, seed=0)
    return generate_dataset(root, scenes, spec)


def write_run_config(path, **overrides):
    network = dict(
        height=16,
        width=16,
        slices=2,
        stage_channels=[2, 4, 4, 4, 4],
        decoder_channels=4,
        epochs=1,
    )
    doc = {"network": network, "seed": 1, "augment": False, "eval_every": 0}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# -- generate -----------------------------------------------------------------


def test_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["generate", "--out", str(out), "--scenes", "3",
                 "--size", "16", "16", "--slices", "2", "--blur-gain", "2.0",
                 "--seed", "5"])
    assert code == 0
    assert "3 scenes" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["train"]) == 2 and len(manifest["test"]) == 1
    assert (out / "scene_0000" / "rgb.ppm").exists()
    assert (out / "scene_0000" / "depth.pgm").exists()


def test_generate_negative_seed_exits_1_before_writing(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["generate", "--out", str(out), "--scenes", "2", "--size", "16", "16",
                 "--slices", "2", "--seed", "-1"])
    assert code == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_bad_size(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path / "ds"), "--scenes", "2",
                 "--size", "20", "20"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("size", [("0", "0"), ("-16", "32")])
def test_generate_rejects_non_positive_size(tmp_path, capsys, size):
    out = tmp_path / "ds"
    code = main(["generate", "--out", str(out), "--scenes", "2", "--size", *size])
    assert code == 1
    assert "multiple of 16" in capsys.readouterr().err
    assert not out.exists()


# -- train --------------------------------------------------------------------


def test_train_eval_infer_pipeline(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"

    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "checkpoint.lfdp").exists()
    assert (out / "checkpoint.lfdp.json").exists()
    log = json.loads((out / "train_log.json").read_text())
    assert len(log["step_losses"]) == 2      # 2 train scenes, 1 epoch
    assert len(log["epoch_losses"]) == 1
    capsys.readouterr()

    ckpt = str(out / "checkpoint.lfdp")
    metrics_json = tmp_path / "metrics.json"
    code = main(["eval", "--data", str(data), "--ckpt", ckpt,
                 "--split", "test", "--json", str(metrics_json)])
    assert code == 0
    text = capsys.readouterr().out
    assert "aggregate" in text
    assert "scene_0002" in text
    doc = json.loads(metrics_json.read_text())
    assert doc["split"] == "test"
    assert doc["dtype"] == "float32"
    assert set(doc["scenes"]) == {"scene_0002"}
    assert set(doc["aggregate"]) == {"rms", "abs_rel", "sq_rel", "d1", "d2", "d3"}

    depth_out = tmp_path / "depth.pgm"
    code = main(["infer", "--scene", str(data / "scene_0002"), "--ckpt", ckpt,
                 "--out", str(depth_out)])
    assert code == 0
    depth = read_pgm16(depth_out)
    assert depth.shape == (16, 16)
    assert depth.dtype == np.uint16


def test_eval_header_labels_end_at_their_columns(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data, scenes=4)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--ckpt", str(out / "checkpoint.lfdp")]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()

    def right_edges(line):
        # cells are separated by two or more spaces; "abs rel" is one cell
        return [m.end() for m in re.finditer(r"\S+(?: \S+)*", line)]

    assert header.startswith("scene")
    assert rule == "-" * len(header)
    assert len(rows) == 2                      # one test scene plus the aggregate
    for row in rows:
        assert right_edges(row)[1:] == right_edges(header)[1:]
        assert len(right_edges(row)) == len(right_edges(header)) == 7


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_train_non_finite_step_exits_3(tmp_path, capsys):
    """A learning rate of 1e300 throws the weights so far in the first step
    that the second step's numbers are no longer finite."""
    data = tmp_path / "ds"
    make_dataset(data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "network": {"height": 16, "width": 16, "slices": 2, "stage_channels": [2, 4, 4, 4, 4],
                    "decoder_channels": 4, "epochs": 1, "learning_rate": 1e300},
        "seed": 1, "augment": False, "eval_every": 0,
    }))
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "checkpoint.lfdp").exists()


@pytest.mark.parametrize("key, value", [
    ("learning_rate", float("nan")),
    ("lr_drop", float("nan")),
    ("loss_weights", [1.0, 1.0, float("inf")]),
])
def test_train_non_finite_setting_exits_1_before_any_checkpoint(tmp_path, capsys, key, value):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_network_keys(write_run_config(tmp_path / "run.json"), **{key: value})
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (out / "checkpoint.lfdp").exists()


def test_train_resume_from_checkpoint(tmp_path):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0

    # continuing from the checkpoint appends epochs under the same config
    sidecar = json.loads((out / "checkpoint.lfdp.json").read_text())
    sidecar["config"]["epochs"] = 2
    (out / "checkpoint.lfdp.json").write_text(json.dumps(sidecar))
    out2 = tmp_path / "run2"
    assert main(["train", "--data", str(data),
                 "--resume", str(out / "checkpoint.lfdp"),
                 "--out", str(out2), "--quiet", "--eval-every", "0"]) == 0
    log = json.loads((out2 / "train_log.json").read_text())
    assert len(log["epoch_losses"]) == 2


@pytest.mark.parametrize("augment", [False, True])
def test_train_resume_replays_a_straight_run(tmp_path, augment):
    data = tmp_path / "ds"
    make_dataset(data)
    straight = tmp_path / "straight"
    config = write_network_keys(write_run_config(tmp_path / "two.json", augment=augment),
                                epochs=2)
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(straight), "--quiet"]) == 0

    first = tmp_path / "first"
    config = write_run_config(tmp_path / "one.json", augment=augment)
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(first), "--quiet"]) == 0
    edit_sidecar(first / "checkpoint.lfdp", {"epochs": 2})
    resumed = tmp_path / "resumed"
    assert main(["train", "--data", str(data), "--resume", str(first / "checkpoint.lfdp"),
                 "--out", str(resumed), "--quiet"]) == 0

    for name in ("train_log.json", "checkpoint.lfdp.json"):
        assert (json.loads((resumed / name).read_text())
                == json.loads((straight / name).read_text()))
    log = json.loads((resumed / "train_log.json").read_text())
    assert len(log["step_losses"]) == 4 and log["epoch_metrics"] == []
    assert (resumed / "checkpoint.lfdp").read_bytes() == (straight / "checkpoint.lfdp").read_bytes()


@pytest.mark.parametrize("key", ["augment", "eval_every"])
def test_train_resume_without_a_stored_setting_exits_2(tmp_path, capsys, key):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    ckpt = out / "checkpoint.lfdp"
    sidecar = out / "checkpoint.lfdp.json"
    doc = json.loads(sidecar.read_text())
    del doc[key]
    doc["config"]["epochs"] = 2
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    out2 = tmp_path / "run2"
    code = main(["train", "--data", str(data), "--resume", str(ckpt),
                 "--out", str(out2), "--quiet", "--eval-every", "1"])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out2.exists()
    # the older checkpoint still serves evaluation and prediction
    assert main(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 0
    assert main(["infer", "--scene", str(data / "scene_0000"), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "pred.pgm")]) == 0


def test_train_resume_with_corrupt_optimizer_state_exits_2(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    ckpt = out / "checkpoint.lfdp"
    entries = load_params(ckpt)
    entries["adam.step"] = np.asarray(-3.0)
    save_params(ckpt, entries)
    out2 = tmp_path / "run2"
    code = main(["train", "--data", str(data), "--resume", str(ckpt),
                 "--out", str(out2), "--quiet"])
    assert code == 2
    assert "optimizer step" in capsys.readouterr().err
    assert not out2.exists()


def edit_sidecar(ckpt, network=(), **fields):
    sidecar = ckpt.parent / (ckpt.name + ".json")
    doc = json.loads(sidecar.read_text())
    doc.update(fields)
    doc["config"].update(network)
    sidecar.write_text(json.dumps(doc))


def test_train_resume_with_negative_epoch_exits_2(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    ckpt = out / "checkpoint.lfdp"
    edit_sidecar(ckpt, {"epochs": 2}, epoch=-5)
    out2 = tmp_path / "run2"
    code = main(["train", "--data", str(data), "--resume", str(ckpt),
                 "--out", str(out2), "--quiet"])
    assert code == 2
    assert "epoch -5" in capsys.readouterr().err
    assert not out2.exists()


ODD_SIDE_CHANNELS = [2, 2, 5, 5, 5]


def test_run_config_with_odd_side_channels_exits_1(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_network_keys(write_run_config(tmp_path / "run.json"),
                                stage_channels=ODD_SIDE_CHANNELS)
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "even side-stage channels" in capsys.readouterr().err
    assert not out.exists()


def test_eval_sidecar_with_odd_side_channels_exits_2(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    edit_sidecar(out / "checkpoint.lfdp", {"stage_channels": ODD_SIDE_CHANNELS})
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--ckpt", str(out / "checkpoint.lfdp")])
    assert code == 2
    assert "even side-stage channels" in capsys.readouterr().err


def test_train_negative_seed_exits_1_before_any_checkpoint(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json", seed=-1)
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resume", [False, True])
def test_train_negative_eval_every_exits_1_before_any_checkpoint(tmp_path, capsys, resume):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    start = ["--config", str(config)]
    if resume:
        assert main(["train", "--data", str(data), *start, "--out", str(tmp_path / "first"),
                     "--quiet"]) == 0
        start = ["--resume", str(tmp_path / "first" / "checkpoint.lfdp")]
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), *start, "--out", str(out),
                 "--eval-every", "-3", "--quiet"])
    assert code == 1
    assert "eval_every" in capsys.readouterr().err
    assert not out.exists()


def test_train_config_with_resume_exits_1_before_reading(tmp_path, capsys):
    # neither the dataset, the config nor the checkpoint exists: nothing is read
    out = tmp_path / "o"
    code = main(["train", "--data", str(tmp_path / "no-ds"), "--config", str(tmp_path / "run.json"),
                 "--resume", str(tmp_path / "ck.lfdp"), "--out", str(out), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--config" in err and "--resume" in err
    assert not out.exists()


def test_train_needs_config_or_resume(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json", optimizer="sgd")
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "optimizer" in capsys.readouterr().err


def test_train_rejects_unknown_network_key(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"network": {"width_px": 16}}))
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "width_px" in capsys.readouterr().err


def write_network_keys(path, **keys):
    doc = json.loads(path.read_text())
    doc["network"].update(keys)
    path.write_text(json.dumps(doc))
    return path


def test_train_accepts_retired_network_keys_at_their_values(tmp_path):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_network_keys(write_run_config(tmp_path / "run.json"), batch_size=1,
                                deep_supervision=False, plain_stack_depth=6, dropout_rate=0.5,
                                loss_weights=[1.0, 1.0, 1.0])
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0


@pytest.mark.parametrize("key, value", [
    ("batch_size", 2),
    ("deep_supervision", True),
    ("plain_stack_depth", 5),
    ("dropout_rate", 0.3),
    ("loss_weights", [2, 1, 1]),
])
def test_train_rejects_retired_network_key_at_another_value(tmp_path, capsys, key, value):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_network_keys(write_run_config(tmp_path / "run.json"), **{key: value})
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("network", [
    5,
    {"height": "16"},
    {"stage_channels": 5},
    {"loss_weights": [1, 1, "a"]},
    {"use_cru": 1},
], ids=["not-an-object", "height", "stage_channels", "loss_weights", "use_cru"])
def test_run_config_with_mistyped_network_is_a_config_error(tmp_path, network):
    config = write_run_config(tmp_path / "run.json")
    doc = json.loads(config.read_text())
    doc["network"] = network if not isinstance(network, dict) else {**doc["network"], **network}
    config.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        cli.load_run_config(config)


def test_train_bad_json_config_is_a_format_error(tmp_path):
    data = tmp_path / "ds"
    make_dataset(data)
    config = tmp_path / "run.json"
    config.write_text("{not json")
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_train_missing_dataset_is_io_error(tmp_path):
    config = write_run_config(tmp_path / "run.json")
    code = main(["train", "--data", str(tmp_path / "nowhere"),
                 "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2


# -- eval / infer errors ---------------------------------------------------------


def test_eval_missing_checkpoint(tmp_path):
    data = tmp_path / "ds"
    make_dataset(data)
    code = main(["eval", "--data", str(data), "--ckpt", str(tmp_path / "no.lfdp")])
    assert code == 2


def test_eval_scene_with_a_focal_slice_of_another_size_exits_2(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    write_ppm(data / "scene_0002" / "focal_01.ppm", np.zeros((3, 16, 8), dtype=np.uint8))
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--ckpt", str(out / "checkpoint.lfdp")])
    assert code == 2
    assert "focal_01.ppm" in capsys.readouterr().err


def test_eval_non_finite_scene_exits_3(tmp_path, monkeypatch, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    load_split = cli.load_split

    def poisoned(root, split):
        scenes = load_split(root, split)
        scenes[0].rgb[0, 2, 3] = np.nan
        return scenes

    monkeypatch.setattr(cli, "load_split", poisoned)
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--ckpt", str(out / "checkpoint.lfdp")])
    assert code == 3
    assert "scene rgb holds non-finite values" in capsys.readouterr().err


def test_infer_slice_mismatch(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    other = tmp_path / "other"
    make_dataset(other, scenes=2, slices=3)
    code = main(["infer", "--scene", str(other / "scene_0000"),
                 "--ckpt", str(out / "checkpoint.lfdp"),
                 "--out", str(tmp_path / "d.pgm")])
    assert code == 1
    assert "slices" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("under_the_file", [False, True], ids=["file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2_before_reading_the_data(
        tmp_path, monkeypatch, capsys, command, under_the_file):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    before = config.read_bytes()
    out = config / "run" if under_the_file else config

    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("load_split", "train_model", "ablation_run"):
        monkeypatch.setattr(cli, name, never)
    args = (["--config", str(config)] if command == "train"
            else ["--ladder", "Baseline", "--epochs", "1"])
    code = main([command, "--data", str(data), *args, "--out", str(out), "--quiet"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and "checkpoint:" not in captured.out
    assert config.read_bytes() == before


# -- ablate -----------------------------------------------------------------------


def test_ablate_writes_table_and_json(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    out = tmp_path / "ab"
    code = main(["ablate", "--data", str(data), "--ladder", "Baseline,+CRU",
                 "--epochs", "1", "--seed", "0", "--out", str(out), "--quiet"])
    assert code == 0
    text = capsys.readouterr().out
    assert "model" in text and "rms" in text
    table = (out / "table.txt").read_text()
    assert table.splitlines()[0].startswith("model")
    doc = json.loads((out / "results.json").read_text())
    assert [r["name"] for r in doc] == ["Baseline", "+CRU"]
    for r in doc:
        assert r["param_count"] > 0
        assert len(r["epoch_losses"]) == 1


def test_ablate_rejects_unknown_name(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    code = main(["ablate", "--data", str(data), "--ladder", "Baseline,Extra"])
    assert code == 1
    assert "Extra" in capsys.readouterr().err


def test_ablate_negative_seed_exits_1_before_writing(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    out = tmp_path / "ab"
    code = main(["ablate", "--data", str(data), "--ladder", "Baseline", "--epochs", "1",
                 "--seed", "-1", "--out", str(out), "--quiet"])
    assert code == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_empty_train_split_exits_1_before_writing(tmp_path, capsys):
    data = tmp_path / "ds"
    make_dataset(data)
    (data / "manifest.json").write_text(json.dumps({"train": [], "test": ["scene_0002"]}))
    out = tmp_path / "ab"
    code = main(["ablate", "--data", str(data), "--ladder", "Baseline", "--epochs", "1",
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "train split is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["zero", "0"])
def test_ablate_bad_thread_env_exits_1_before_writing(tmp_path, monkeypatch, capsys, threads):
    data = tmp_path / "ds"
    make_dataset(data)
    out = tmp_path / "ab"
    monkeypatch.setenv("LFDEPTH_THREADS", threads)
    code = main(["ablate", "--data", str(data), "--ladder", "Baseline", "--epochs", "1",
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "LFDEPTH_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_rejects_empty_ladder(tmp_path):
    data = tmp_path / "ds"
    make_dataset(data)
    assert main(["ablate", "--data", str(data), "--ladder", " , "]) == 1


# -- gradcheck ---------------------------------------------------------------------


def test_gradcheck_ops_passes(capsys):
    code = main(["gradcheck", "--module", "ops"])
    assert code == 0
    text = capsys.readouterr().out
    assert "[ops]" in text
    assert "all gradient checks pass" in text


def test_gradcheck_negative_seed_exits_1(capsys):
    assert main(["gradcheck", "--module", "ops", "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    def fake_check_scope(scope, seed=0, **kw):
        return [GroupReport(name="broken.weight", max_rel_err=0.5, samples=3)]

    monkeypatch.setattr(cli, "check_scope", fake_check_scope)
    code = main(["gradcheck", "--module", "ops"])
    assert code == 3
    assert "broken.weight" in capsys.readouterr().err


# -- worker count -------------------------------------------------------------------


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("LFDEPTH_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("LFDEPTH_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("LFDEPTH_THREADS", "zero")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("LFDEPTH_THREADS", "0")
    with pytest.raises(ConfigError):
        worker_count()


def test_eval_parallel_matches_sequential(tmp_path, monkeypatch, capsys):
    data = tmp_path / "ds"
    make_dataset(data, scenes=4)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    ckpt = str(out / "checkpoint.lfdp")

    monkeypatch.delenv("LFDEPTH_THREADS", raising=False)
    capsys.readouterr()
    j1 = tmp_path / "seq.json"
    assert main(["eval", "--data", str(data), "--ckpt", ckpt, "--json", str(j1)]) == 0
    table = capsys.readouterr().out
    for workers in ("2", "3"):
        monkeypatch.setenv("LFDEPTH_THREADS", workers)
        j2 = tmp_path / f"par{workers}.json"
        assert main(["eval", "--data", str(data), "--ckpt", ckpt, "--json", str(j2)]) == 0
        assert capsys.readouterr().out == table
        assert json.loads(j1.read_text()) == json.loads(j2.read_text())


def test_bad_thread_env_is_config_error(tmp_path, monkeypatch):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    monkeypatch.setenv("LFDEPTH_THREADS", "-2")
    code = main(["eval", "--data", str(data), "--ckpt", str(out / "checkpoint.lfdp")])
    assert code == 1


@pytest.mark.parametrize("threads", ["zero", "0"])
def test_train_bad_thread_env_exits_1_before_any_checkpoint(tmp_path, monkeypatch, capsys, threads):
    data = tmp_path / "ds"
    make_dataset(data)
    config = write_run_config(tmp_path / "run.json", eval_every=1)
    out = tmp_path / "run"
    monkeypatch.setenv("LFDEPTH_THREADS", threads)
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "LFDEPTH_THREADS" in capsys.readouterr().err
    assert not out.exists()
