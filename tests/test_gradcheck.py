import numpy as np
import pytest

from lfdepth.errors import NumericalCheckError, UsageError
from lfdepth.gradcheck import (
    DEFAULT_TOLERANCE,
    GroupReport,
    assert_all_pass,
    check_scope,
    micro_config,
)


def test_unknown_scope_rejected():
    with pytest.raises(UsageError):
        check_scope("decoder")


def test_negative_seed_rejected():
    with pytest.raises(UsageError):
        check_scope("ops", seed=-1)


def test_assert_all_pass_accepts_clean_reports():
    assert_all_pass([GroupReport("a.weight", 1e-9, 4), GroupReport("b.bias", 3e-7, 4)])


def test_assert_all_pass_names_the_worst_offender():
    reports = [
        GroupReport("fine.weight", 1e-8, 4),
        GroupReport("bad.weight", 2e-3, 4),
        GroupReport("worse.weight", 5e-2, 4),
    ]
    with pytest.raises(NumericalCheckError) as err:
        assert_all_pass(reports)
    assert "worse.weight" in str(err.value)


def test_assert_all_pass_treats_nan_as_failure():
    with pytest.raises(NumericalCheckError):
        assert_all_pass([GroupReport("nan.weight", float("nan"), 4)])


def test_report_line_mentions_name_and_error():
    line = GroupReport("conv.weight", 2.5e-7, 6).line()
    assert "conv.weight" in line
    assert "2.500e-07" in line
    assert "6 samples" in line


def test_micro_config_is_small_and_valid():
    cfg = micro_config()
    assert cfg.height == 32 and cfg.width == 32
    assert cfg.slices == 4
    assert max(cfg.stage_channels) <= 8


def test_ops_scope_runs_and_passes():
    reports = check_scope("ops", seed=0)
    assert len(reports) >= 7
    assert_all_pass(reports)
    assert all(r.max_rel_err < DEFAULT_TOLERANCE for r in reports)
