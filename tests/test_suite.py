import json
import math

import numpy as np
import pytest

from matmeans.densela import is_positive_definite, random_pd
from matmeans.means import (
    arithmetic_path,
    cross_term,
    geometric_mean,
    hermitian_part,
    log_euclidean,
    sandwich_mean,
)
from matmeans.suite import (
    CampaignConfig,
    InstanceData,
    InstanceSpec,
    PROPERTY_IDS,
    build_instance,
    check_property,
    evaluate_property,
    materialize,
    paper_counterexample,
    paper_pair,
    report_jsonl_lines,
    result_to_json_obj,
    run_campaign,
)


def make_data(a, b, spec=None, m=2):
    spec = spec or InstanceSpec(seed=0, dim=a.shape[0], cond_exponent=1.0, m=m)
    mats = tuple(random_pd(a.shape[0], 0.5, 5000 + i) for i in range(m))
    w = tuple([1.0 / m] * m)
    x = np.diag(np.linspace(-1.0, 1.0, a.shape[0]))
    return InstanceData(spec=spec, a=a, b=b, multi=mats, weights=w, x_sym=x)


def test_paper_counterexample_values():
    l2_geo, l2_le = paper_counterexample()
    assert l2_geo == pytest.approx(1.0, abs=1e-9)
    assert 0.9801 <= l2_le <= 0.9811
    assert l2_geo > l2_le


def test_geometric_mean_block_certificate_on_reference_pair():
    a, b = paper_pair()
    g = geometric_mean(a, b, 0.5)
    ok, _ = is_positive_definite(np.block([[a, g], [g, b]]))
    assert ok


def test_p6_passes_on_any_instance():
    res = check_property("P6", InstanceSpec(seed=9, dim=3, cond_exponent=1.0))
    assert res.status == "pass" and not res.marginal


def test_p1_equal_matrices_has_zero_margins():
    a = random_pd(4, 0.5, 11)
    res = evaluate_property("P1", make_data(a, a.copy()))
    assert res.status == "pass"
    assert abs(res.worst_margin) <= 1e-9


def test_p4_commuting_diagonal_matches_scalar_chain():
    a = np.diag([4.0, 1.0, 2.0])
    b = np.diag([9.0, 1.0, 0.5])
    data = make_data(a, b)
    res = evaluate_property("P4", data)
    assert res.status == "pass"
    # all chain members of commuting inputs follow from scalar formulas
    for t in (0.25, 0.5):
        geo_want = np.diag(a) ** (1.0 - t) * np.diag(b) ** t
        arith_want = (1.0 - t) * np.diag(a) + t * np.diag(b)
        for mean, want in (
            (geometric_mean(a, b, t), geo_want),
            (log_euclidean(a, b, t), geo_want),
            (sandwich_mean(a, b, t, 1.0), geo_want),
            (hermitian_part(cross_term(a, b, t)), geo_want),
            (cross_term(a, b, t), geo_want),
            (arithmetic_path(a, b, t), arith_want),
        ):
            assert np.diag(mean) == pytest.approx(want, abs=1e-12)
        assert np.sum(geo_want) <= np.sum(arith_want)


@pytest.mark.parametrize("pid", PROPERTY_IDS)
def test_each_property_passes_on_smoke_instances(pid):
    for seed in (1, 2):
        res = check_property(pid, InstanceSpec(seed=seed, dim=3, cond_exponent=1.2, m=3))
        assert res.status == "pass", (pid, seed, res.worst_margin, res.error)


def test_unknown_property_id():
    with pytest.raises(ValueError, match="unknown property"):
        check_property("P99", InstanceSpec(seed=1, dim=2, cond_exponent=1.0))


def test_crashing_check_is_reported_as_failure():
    bad = np.diag([1.0, -1.0])
    res = evaluate_property("P2", make_data(bad, np.eye(2)))
    assert res.status == "fail"
    assert res.error is not None and "positive definite" in res.error
    assert res.worst_margin == -math.inf


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(seed=1, dim=1, cond_exponent=1.0)
    with pytest.raises(ValueError):
        InstanceSpec(seed=1, dim=2, cond_exponent=1.0, t_values=(0.0, 2.0))
    with pytest.raises(ValueError):
        InstanceSpec(seed=1, dim=2, cond_exponent=1.0, p_grid=(1.0, 1.0))


def test_materialize_is_deterministic():
    spec = InstanceSpec(seed=4, dim=3, cond_exponent=1.0, m=3)
    d1 = materialize(spec)
    d2 = materialize(spec)
    assert np.array_equal(d1.a, d2.a)
    assert np.array_equal(d1.b, d2.b)
    assert all(np.array_equal(x, y) for x, y in zip(d1.multi, d2.multi))
    assert d1.weights == d2.weights
    assert np.array_equal(d1.x_sym, d2.x_sym)
    assert len(d1.multi) == 3
    assert sum(d1.weights) == pytest.approx(1.0, abs=1e-12)


def test_build_instance_covers_configured_shapes():
    cfg = CampaignConfig(master_seed=3, count=60)
    specs = [build_instance(cfg, i) for i in range(60)]
    assert {s.dim for s in specs} == {2, 3, 4, 5, 6}
    assert {s.m for s in specs} == {2, 3, 4}
    assert all(0.0 <= s.cond_exponent <= 1.5 for s in specs)
    assert [s.seed for s in specs] == [3 + i for i in range(60)]


def test_campaign_report_shapes_and_determinism(tmp_path):
    cfg = CampaignConfig(master_seed=5, count=4, dims=(2, 3), properties=("P1", "P6", "P11"))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    r1 = run_campaign(cfg, jsonl_path=p1, csv_path=tmp_path / "a.csv")
    r2 = run_campaign(cfg, jsonl_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(r1.results) == 4 * 3
    for pid in cfg.properties:
        assert sum(r1.counts[pid].values()) - r1.counts[pid]["marginal"] == 4
    assert r1.total_failures == 0 and r2.total_failures == 0

    lines = p1.read_text().splitlines()
    assert len(lines) == 4 * 3 + 1
    rows = [json.loads(ln) for ln in lines]
    summary = rows[-1]
    assert summary["summary"] is True
    assert summary["config"]["master_seed"] == 5
    assert summary["total_failures"] == 0
    for row in rows[:-1]:
        assert list(row)[:11] == [
            "property_id", "seed", "dim", "t", "p", "norm_id",
            "status", "marginal", "worst_margin", "lhs", "rhs",
        ]

    csv_lines = (tmp_path / "a.csv").read_text().splitlines()
    assert csv_lines[0] == "property_id,pass,fail,marginal,skipped"
    assert csv_lines[1] == "P1,4,0,0,0"


def test_empty_selection_and_zero_count():
    rep = run_campaign(CampaignConfig(master_seed=1, count=3, properties=()))
    assert rep.results == [] and rep.counts == {}
    rep0 = run_campaign(CampaignConfig(master_seed=1, count=0, properties=("P6",)))
    assert rep0.results == [] and rep0.counts["P6"]["pass"] == 0


def test_config_validation():
    with pytest.raises(ValueError, match="unknown property"):
        CampaignConfig(properties=("P1", "nope"))
    with pytest.raises(ValueError):
        CampaignConfig(master_seed=-1)
    with pytest.raises(ValueError):
        CampaignConfig(count=-2)


def test_config_rejects_repeated_property_ids():
    with pytest.raises(ValueError, match="repeat.*P1"):
        CampaignConfig(properties=("P1", "P2", "P1"))


def test_config_rejects_empty_dims():
    with pytest.raises(ValueError, match="at least one dimension"):
        CampaignConfig(dims=())


def test_config_rejects_dimension_below_two():
    with pytest.raises(ValueError, match="dimensions must be >= 2"):
        CampaignConfig(dims=(1, 3))


def test_result_json_is_finite_and_ordered():
    res = check_property("P1", InstanceSpec(seed=2, dim=2, cond_exponent=0.5))
    obj = result_to_json_obj(res)
    assert obj["property_id"] == "P1"
    assert obj["status"] == "pass"
    json.dumps(obj, allow_nan=False)


def test_p9_records_informational_margin_beyond_one():
    res = check_property("P9", InstanceSpec(seed=6, dim=3, cond_exponent=1.0, m=3))
    assert res.status == "pass"
    assert "unnormalized_decrease_above_one" in res.info


def test_jsonl_lines_roundtrip():
    cfg = CampaignConfig(master_seed=2, count=2, dims=(2,), properties=("P6", "P7"))
    rep = run_campaign(cfg)
    lines = report_jsonl_lines(rep)
    assert len(lines) == 5
    for ln in lines:
        json.loads(ln)
