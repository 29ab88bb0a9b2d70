"""Tests for the per-layer tracer.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from matmeans import cli, densela, means, suite  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    densela.clear_eigen_cache()
    tr = Tracer.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_call_through_by_name_import_is_counted(tracer):
    a = densela.random_pd(3, 1.0, seed=1)
    means.pd_power(a, 0.5)
    means.power_mean_spectrum(a, a, 0.5, 2.0)
    spans = tracer.summary()["spans"]
    # pd_power as bound in means, then sym_eigen inside densela and as bound in means.
    assert spans["densela.pd_power"]["calls"] >= 3
    assert spans["means.power_mean_spectrum"]["calls"] == 1
    assert spans["densela.sym_eigen"]["calls"] >= 4
    assert tracer.summary()["sym_eigen"]["unique"] >= 2


def test_uninstall_restores_every_binding():
    originals = (densela.sym_eigen, means.sym_eigen, suite.sym_eigen, suite.MarginTracker.add)
    tr = Tracer.install()
    assert means.sym_eigen is not originals[1]
    tr.uninstall()
    assert (densela.sym_eigen, means.sym_eigen, suite.sym_eigen, suite.MarginTracker.add) == originals


def test_child_self_time_never_exceeds_parent(tracer):
    config = suite.CampaignConfig(master_seed=3, count=2)
    suite.run_campaign(config)
    summary = tracer.summary()
    spans = summary["spans"]
    root = spans["suite.run_campaign"]
    assert root["calls"] == 1
    assert all(s["min_self_s"] >= -1e-9 for s in spans.values())
    assert sum(s["self_s"] for s in spans.values()) <= root["incl_s"] + 1e-9
    assert sum(summary["subineq"].values()) > 0
    assert len(summary["instances"]) == 2
    assert summary["sym_eigen"]["max_rel_err"] < 1e-12


def test_empty_pass_is_counted(tracer, monkeypatch):
    monkeypatch.setitem(suite._CATALOGUE, "P7", lambda data, tr: None)
    spec = suite.InstanceSpec(seed=5, dim=3, cond_exponent=1.0)
    res = suite.evaluate_property("P7", suite.materialize(spec))
    assert res.status == "pass"
    assert tracer.summary()["empty_pass"] == 1
    assert tracer.summary()["subineq"]["P7"] == 0


def test_report_is_byte_identical_under_tracing(tmp_path, capsys):
    argv = ["check", "--seed", "4", "--count", "2", "--dims", "2:4"]
    densela.clear_eigen_cache()
    assert cli.main(argv + ["--out", str(tmp_path / "plain.jsonl")]) == 0
    densela.clear_eigen_cache()
    tr = Tracer.install()
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "traced.jsonl")]) == 0
    finally:
        tr.uninstall()
    assert tr.summary()["spans"]["cli.cmd_check"]["calls"] == 1
    plain = (tmp_path / "plain.jsonl").read_bytes()
    assert plain == (tmp_path / "traced.jsonl").read_bytes()
