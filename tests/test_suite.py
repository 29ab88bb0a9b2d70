import contextlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmeans.densela import random_pd, sym_eigen, symmetrize
from matmeans.means import (
    PairTable,
    arithmetic_path,
    cross_term,
    geometric_mean,
    log_euclidean,
    sandwich_mean,
)
from matmeans import densela, means, spectra, suite
from matmeans.suite import (
    CampaignConfig,
    InstanceData,
    InstanceSpec,
    MarginTracker,
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
    lam = sym_eigen(np.block([[a, g], [g, b]]), vectors=False).lam
    # Positive semidefinite: [[A, G], [G, B]] is singular in exact arithmetic.
    assert lam[-1] > -1e-9 * (1.0 + np.max(np.abs(lam)))


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
            (symmetrize(cross_term(a, b, t)), geo_want),
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


def _raising_body(error):
    """A body that plans no read and raises ``error`` whenever it checks members."""

    def body(reads, tr):
        if not (isinstance(reads, suite._Group) and len(reads.ok) == 0):
            raise error("raised by the body")

    return body


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_a_bug_in_a_body_propagates(monkeypatch, error):
    # Only a failed validation, a floating-point limit or a Jacobi solve that
    # did not converge is a failed check; any other exception is a bug.
    monkeypatch.setitem(suite._CATALOGUE, "P2", _raising_body(error))
    with pytest.raises(error):
        check_property("P2", InstanceSpec(seed=1, dim=2, cond_exponent=1.0))
    with pytest.raises(error):
        run_campaign(CampaignConfig(count=2, properties=("P1", "P2")))


def test_a_body_that_raises_a_value_error_fails_its_check(monkeypatch):
    monkeypatch.setitem(suite._CATALOGUE, "P2", _raising_body(ValueError))
    row = ("fail", False, -math.inf, "error", "ValueError: raised by the body")
    res = check_property("P2", InstanceSpec(seed=1, dim=2, cond_exponent=1.0))
    assert (res.status, res.marginal, res.worst_margin, res.witness.norm_id, res.error) == row
    rep = run_campaign(CampaignConfig(count=3, dims=(2, 3), properties=("P2",)))
    assert [(r.status, r.marginal, r.worst_margin, r.witness.norm_id, r.error)
            for r in rep.results] == [row] * 3


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_check_property_rejects_a_tolerance_that_a_campaign_rejects(tolerance):
    # A NaN or negative tolerance would fail a holding inequality, and an
    # infinite one would pass every check.
    with pytest.raises(ValueError) as campaign:
        CampaignConfig(tolerance=tolerance)
    with pytest.raises(ValueError) as check:
        check_property("P2", InstanceSpec(seed=3, dim=3, cond_exponent=1.0), tolerance=tolerance)
    assert str(check.value) == str(campaign.value)


def test_instance_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        InstanceSpec(seed=-1, dim=3, cond_exponent=1.0)


@pytest.mark.parametrize("p_grid", [(700.0,), (-1e-300, 1e-300), (-700.0, 700.0)])
def test_a_p_grid_past_the_floating_point_range_reports_instead_of_warning(p_grid):
    # pyproject.toml turns every RuntimeWarning into an error.  Powers that
    # overflow in the group's fill or in a check are failed checks, in the
    # group and alone alike.
    config = CampaignConfig(master_seed=1, count=12, dims=(2, 3, 4), p_grid=p_grid)
    report = run_campaign(config)
    assert report.total_failures > 0
    fresh = [check_property(pid, build_instance(config, i), config.tolerance)
             for i in range(config.count) for pid in config.properties]
    assert report_jsonl_lines(report)[:-1] == [
        json.dumps(result_to_json_obj(r), separators=(",", ":"), allow_nan=False) for r in fresh
    ]


class _Observed(MarginTracker):
    """A one-member tracker that keeps every link it records."""

    def __init__(self):
        super().__init__()
        self.links = []

    def _put(self, link):
        self.links.append(link)
        super()._put(link)


def _recorded(kind, lhs, rhs, label=None):
    """(margin, norm_id, lhs, rhs) of every sub-inequality that compare records."""
    tr = _Observed()
    tr.compare(kind, np.asarray(lhs, dtype=float)[None], np.asarray(rhs, dtype=float)[None], label)
    (link,) = tr.links
    return [(m, w.norm_id, w.lhs, w.rhs)
            for m, w in (link.witness(0, j) for j in range(link.margins.size))]


def _old_scalar(kind, lhs, rhs):
    """The per-entry margin of the former scalar MarginTracker.leq / .eq."""
    lv, rv = float(lhs), float(rhs)
    scale = 1.0 + max(abs(lv), abs(rv))
    margin = -abs(lv - rv) / scale if kind == "eq" else (rv - lv) / scale
    return margin, lv, rv


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _vector_pair(draw):
    n = draw(st.integers(1, 8))
    lhs = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    # Drawing from lhs gives ties, and equal prefix sums for Ky Fan.
    rhs = draw(st.lists(_ENTRY | st.sampled_from(lhs), min_size=n, max_size=n))
    return lhs, rhs


@settings(max_examples=300, deadline=None)
@given(_vector_pair())
def test_record_margins_match_the_scalar_formulas_bitwise(pair):
    lhs, rhs = pair
    with np.errstate(all="ignore"):
        cases = [
            ("leq", "lambda", lhs, rhs),
            ("eq", "lambda", lhs, rhs),
            ("KyFan", "KyFan", np.cumsum(lhs), np.cumsum(rhs)),
        ]
        for kind, label, lp, rp in cases:
            got = _recorded(kind, np.array(lhs), np.array(rhs), label)
            want = [_old_scalar(kind, lv, rv) for lv, rv in zip(lp, rp)]
            assert [g[1] for g in got] == [f"{label}:{k}" for k in range(1, len(lhs) + 1)]
            for (gm, _, gl, gr), (wm, wl, wr) in zip(got, want):
                assert _bits([gl, gr]) == _bits([wl, wr])
                assert (math.isnan(gm) and math.isnan(wm)) or _bits([gm]) == _bits([wm])
        for kind in ("leq", "eq"):
            ((gm, label, gl, gr),) = _recorded(kind, lhs[0], rhs[0], "trace")
            wm, wl, wr = _old_scalar(kind, lhs[0], rhs[0])
            assert label == "trace" and _bits([gm, gl, gr]) == _bits([wm, wl, wr])


def test_record_keeps_the_sign_of_zero_margins():
    assert _bits(m for m, *_ in _recorded("eq", [0.0, -0.0, 2.0], [-0.0, 0.0, 2.0])) == _bits(
        [-0.0, -0.0, -0.0]
    )
    assert _bits(m for m, *_ in _recorded("leq", [0.0, -0.0], [-0.0, -0.0])) == _bits(
        [-0.0, 0.0]
    )


def test_record_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown comparison kind"):
        MarginTracker().compare("geq", 1.0, 2.0)


def _forced(monkeypatch, *margins):
    """P7 replaced by a body that adds the given margins in order."""

    def check(reads, tr):
        for k, m in enumerate(margins, 1):
            tr.add(m, norm_id=f"forced:{k}", lhs=float(k), rhs=m)

    monkeypatch.setitem(suite._CATALOGUE, "P7", check)
    return materialize(InstanceSpec(seed=5, dim=2, cond_exponent=1.0))


def test_nan_only_margins_fail(monkeypatch):
    res = check_property("P7", _forced(monkeypatch, math.nan, math.nan))
    assert (res.status, res.marginal, res.witness.norm_id) == ("fail", False, "forced:1")
    assert math.isnan(res.worst_margin)
    obj = result_to_json_obj(res)
    assert obj["status"] == "fail" and obj["worst_margin"] is None


def test_nan_beside_a_passing_margin_fails(monkeypatch):
    for margins in ((0.5, math.nan), (math.nan, 0.5), (-5e-8, math.nan)):
        res = evaluate_property("P7", _forced(monkeypatch, *margins))
        assert res.status == "fail" and math.isnan(res.worst_margin)
        assert res.witness.norm_id == f"forced:{margins.index(math.nan) + 1}"


def test_nan_beside_a_finite_fail_keeps_the_finite_witness(monkeypatch):
    for margins in ((-0.25, math.nan), (math.nan, -0.25)):
        res = evaluate_property("P7", _forced(monkeypatch, *margins))
        assert (res.status, res.worst_margin) == ("fail", -0.25)
        assert res.witness.norm_id == f"forced:{margins.index(-0.25) + 1}"


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(seed=1, dim=1, cond_exponent=1.0)
    with pytest.raises(ValueError):
        InstanceSpec(seed=1, dim=2, cond_exponent=1.0, t_values=(0.0, 2.0))
    with pytest.raises(ValueError):
        InstanceSpec(seed=1, dim=2, cond_exponent=1.0, p_grid=(1.0, 1.0))
    with pytest.raises(ValueError, match="matrix count must be >= 1, got 0"):
        InstanceSpec(seed=1, dim=2, cond_exponent=1.0, m=0)


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
    # An empty selection checks nothing, so it is rejected before any instance runs.
    for count in (0, 3):
        with pytest.raises(ValueError, match="at least one property is required"):
            CampaignConfig(master_seed=1, count=count, properties=())
    rep0 = run_campaign(CampaignConfig(master_seed=1, count=0, properties=("P6",)))
    assert rep0.results == [] and rep0.counts["P6"]["pass"] == 0


def test_config_validation():
    with pytest.raises(ValueError, match="unknown property"):
        CampaignConfig(properties=("P1", "nope"))
    with pytest.raises(ValueError):
        CampaignConfig(master_seed=-1)
    with pytest.raises(ValueError):
        CampaignConfig(count=-2)
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        CampaignConfig(tolerance=-1.0)
    for m_values in ((), (0,), (2, -1)):
        for count in (0, 100):
            with pytest.raises(ValueError, match="matrix counts must be nonempty and >= 1"):
                CampaignConfig(count=count, m_values=m_values)


@pytest.mark.parametrize(
    "fields, name",
    [({"dims": (2.5, 3)}, "dims[0]"), ({"m_values": (2.5,)}, "m_values[0]"),
     ({"count": True}, "count"), ({"count": 2.5}, "count"), ({"master_seed": 1.5}, "master_seed")],
    ids=["dims", "m_values", "count-bool", "count-float", "master_seed"],
)
def test_config_rejects_a_count_seed_or_dimension_that_is_not_an_integer(fields, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got "):
        CampaignConfig(**fields)


@pytest.mark.parametrize("fields", [{"count": np.int64(2)}, {"dims": (np.int64(3),)}],
                         ids=["count", "dims"])
def test_config_stores_a_numpy_integer_as_an_int(tmp_path, fields):
    plain = {"count": 2, "dims": (3,), "properties": ("P1",)}
    config = CampaignConfig(**(plain | fields))
    assert config == CampaignConfig(**plain)
    assert type(config.count) is int and all(type(d) is int for d in config.dims)
    run_campaign(config, jsonl_path=tmp_path / "a.jsonl")
    run_campaign(CampaignConfig(**plain), jsonl_path=tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.parametrize("fields, name", [({"seed": 1.5}, "seed"), ({"dim": 3.0}, "dim")],
                         ids=["seed", "dim"])
def test_instance_spec_rejects_a_seed_or_dimension_that_is_not_an_integer(fields, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        InstanceSpec(**({"seed": 1, "dim": 3, "cond_exponent": 1.0} | fields))


@pytest.mark.parametrize(
    "fields",
    [{"cond_exponent": np.float32(1.0)}, {"t_values": (np.float32(0.5),)},
     {"tolerance": np.float32(1e-8)}],
    ids=["cond_exponent", "t_values", "tolerance"],
)
def test_config_stores_a_numpy_float_as_a_float_and_writes_its_report(tmp_path, fields):
    config = CampaignConfig(**({"count": 1, "dims": (2,), "properties": ("P1",)} | fields))
    floats = (config.cond_exponent, config.tolerance, *config.t_values, *config.p_grid)
    assert all(type(v) is float for v in floats)
    run_campaign(config, jsonl_path=tmp_path / "a.jsonl")
    assert json.loads((tmp_path / "a.jsonl").read_text().splitlines()[-1])["summary"]


@pytest.mark.parametrize(
    "fields, name",
    [({"cond_exponent": True}, "cond_exponent"), ({"tolerance": "1e-8"}, "tolerance"),
     ({"t_values": (0.5, None)}, "t_values[1]"), ({"p_grid": ("1",)}, "p_grid[0]")],
    ids=["cond_exponent-bool", "tolerance-str", "t_values", "p_grid"],
)
def test_config_rejects_a_grid_value_or_tolerance_that_is_not_a_real_number(fields, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a real number, got "):
        CampaignConfig(**fields)


@pytest.mark.parametrize(
    "fields, name",
    [({"cond_exponent": False}, "cond_exponent"), ({"p_grid": (1.0, "2")}, "p_grid[1]"),
     ({"t_values": (0.5, True)}, "t_values[1]")],
    ids=["cond_exponent-bool", "p_grid", "t_values-bool"],
)
def test_instance_spec_rejects_a_grid_value_that_is_not_a_real_number(fields, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a real number, got "):
        InstanceSpec(**({"seed": 1, "dim": 3, "cond_exponent": 1.0} | fields))


def test_instance_spec_stores_a_numpy_float_as_a_float():
    spec = InstanceSpec(seed=1, dim=3, cond_exponent=np.float32(1.5), t_values=(np.float64(0.5),),
                        p_grid=(np.float32(-1.0), 2))
    assert spec == InstanceSpec(seed=1, dim=3, cond_exponent=1.5, t_values=(0.5,), p_grid=(-1.0, 2.0))
    assert all(type(v) is float for v in (spec.cond_exponent, *spec.t_values, *spec.p_grid))


def test_a_float32_config_writes_the_bytes_of_the_equal_float_config(tmp_path):
    # Every value is exactly representable in float32.
    plain = {"count": 3, "dims": (2, 3), "cond_exponent": 1.5, "t_values": (0.0, 0.25, 1.0),
             "p_grid": (-1.0, 0.5, 2.0), "tolerance": 2.0**-20, "properties": ("P1", "P5", "P9")}
    f32 = plain | {"cond_exponent": np.float32(1.5), "tolerance": np.float32(2.0**-20),
                   "t_values": tuple(np.float32(plain["t_values"])),
                   "p_grid": tuple(np.float32(plain["p_grid"]))}
    assert CampaignConfig(**f32) == CampaignConfig(**plain)
    run_campaign(CampaignConfig(**f32), jsonl_path=tmp_path / "a.jsonl")
    run_campaign(CampaignConfig(**plain), jsonl_path=tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


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


def test_jsonl_lines_roundtrip():
    cfg = CampaignConfig(master_seed=2, count=2, dims=(2,), properties=("P6", "P7"))
    rep = run_campaign(cfg)
    lines = report_jsonl_lines(rep)
    assert len(lines) == 5
    for ln in lines:
        json.loads(ln)


# --- P8 through the Riccati residual -----------------------------------------


def test_p8_solves_nothing_above_the_instance_order(monkeypatch):
    real = densela.sym_eigen
    orders = []

    def recording(s, max_sweeps=densela.JACOBI_MAX_SWEEPS, vectors=True):
        orders.append(np.shape(s)[0])
        return real(s, max_sweeps, vectors)

    for module in (densela, means, spectra, suite):
        monkeypatch.setattr(module, "sym_eigen", recording)
    data = materialize(InstanceSpec(seed=1, dim=8, cond_exponent=1.5))
    assert evaluate_property("P8", data).status == "pass"
    assert orders and max(orders) <= 8


def test_p8_residual_sees_a_perturbed_geometric_mean(monkeypatch):
    real = PairTable.geometric

    def perturbed(self, t):
        g = real(self, t)
        return g + 1e-4 * np.eye(g.shape[0]) if t == 0.5 else g

    spec = InstanceSpec(seed=3, dim=5, cond_exponent=1.5)
    assert evaluate_property("P8", materialize(spec)).status == "pass"
    monkeypatch.setattr(PairTable, "geometric", perturbed)
    assert evaluate_property("P8", materialize(spec)).status == "fail"
    tr = _Observed()
    suite._p8(suite._OwnReads(materialize(spec)), tr)
    # Already the plain matrices, k = 1, fail the residual at P8's 1e-7.
    (link,) = tr.links
    margin, witness = link.witness(0, 0)
    assert witness.norm_id == "compound:1" and margin < -1e-6


def test_p8_has_no_errors_at_cond_4():
    rep = run_campaign(
        CampaignConfig(master_seed=1, count=60, cond_exponent=4.0, properties=("P8",))
    )
    assert [r.error for r in rep.results if r.error is not None] == []
    # The residuals of seeds 7 and 8, a few 1e-6, are the rounding of the
    # float64 solve itself: cond(C_k(A)) is 4e8 and 7e11 there.
    assert {r.seed for r in rep.failures} <= {7, 8}


def test_p8_runs_at_dimension_10():
    rep = run_campaign(CampaignConfig(master_seed=1, count=1, dims=(10,), properties=("P8",)))
    assert [(r.dim, r.status) for r in rep.results] == [(10, "pass")]


# --- grid compares record what one compare per point records -------------------


def _sequential_compare(tr, kind, lhs, rhs, label=None, *, t=None, p=None):
    """One compare of one grid point, with the margin formulas as first written."""
    l = np.asarray(lhs, dtype=float)
    r = np.asarray(rhs, dtype=float)
    if kind == "logsum":
        l = np.cumsum(np.log(np.maximum(l, spectra.LOG_CLAMP)))
        r = np.cumsum(np.log(np.maximum(r, spectra.LOG_CLAMP)))
    elif kind in ("KyFan", "sum"):
        l, r = np.cumsum(l), np.cumsum(r)
    if kind in ("sum", "logsum"):
        scale = 1.0 + max(abs(float(l[-1])), abs(float(r[-1])))
    else:
        scale = 1.0 + np.maximum(np.abs(l), np.abs(r))
    margins = (-np.abs(l - r) if kind == "eq" else r - l) / scale
    label = label or kind
    if l.ndim == 0:
        tr.add(margins, t=t, p=p, norm_id=label, lhs=float(l), rhs=float(r))
        return
    for k, (m, lv, rv) in enumerate(zip(margins.tolist(), l.tolist(), r.tolist()), 1):
        tr.add(m, t=t, p=p, norm_id=f"{label}:{k}", lhs=lv, rhs=rv)


def _state(rec):
    """The bits of what a member recorded."""

    def witness(w):
        if w is None:
            return None
        return (w.t, w.p, w.norm_id, _bits([math.nan if v is None else v for v in (w.lhs, w.rhs)]))

    return _bits([rec.worst]), witness(rec.witness), witness(rec.nan_witness), rec.count


# Few distinct values, so margins tie across points and links, exactly 0.0 or
# -0.0 among them, and NaN or infinite entries give NaN prefix totals.
_GRID_ENTRY = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 1e-300, math.nan, math.inf])
_T_AXIS = (0.0, 0.5, 1.0)
_P_AXIS = (-1.0, 0.0, 2.0)


@st.composite
def _grid_chain(draw):
    """A chain of t-only links, then (t, p) links, over a (T, P) grid of K-vectors."""
    n_t, n_p, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    links = []
    for shape in [(n_t,)] * draw(st.integers(0, 2)) + [(n_t, n_p)] * draw(st.integers(1, 3)):
        kind = draw(st.sampled_from(suite._KINDS))
        scalar = kind in ("leq", "eq") and draw(st.booleans())
        full = shape if scalar else (*shape, k)
        size = math.prod(full)
        if draw(st.booleans()):  # one value throughout: all ties, or all NaN
            lhs = [draw(_GRID_ENTRY)] * size
            rhs = [draw(_GRID_ENTRY)] * size
        else:
            lhs = draw(st.lists(_GRID_ENTRY, min_size=size, max_size=size))
            rhs = draw(st.lists(_GRID_ENTRY, min_size=size, max_size=size))
        links.append((kind, np.reshape(lhs, full), np.reshape(rhs, full), len(shape)))
    return n_t, n_p, links


@settings(max_examples=400, deadline=None)
@given(_grid_chain(), st.sampled_from([math.inf, 0.0, -0.5]))
def test_grid_compare_records_what_sequential_compares_record(chain, worst_before):
    n_t, n_p, links = chain
    ts, ps = np.array(_T_AXIS[:n_t]), np.array(_P_AXIS[:n_p])
    grid, seq = MarginTracker(), MarginTracker()
    for tr in (grid, seq):  # a margin recorded before the chain
        tr.add(worst_before, norm_id="before", lhs=0.0, rhs=0.0)
    with np.errstate(all="ignore"):
        with grid.chain():
            for kind, lhs, rhs, rank in links:
                where = {"t": ts} if rank == 1 else {"t": ts[:, None], "p": ps}
                grid.compare(kind, lhs[None], rhs[None], kind + "-link", **where)
        for i in range(n_t):
            for kind, lhs, rhs, rank in links:
                if rank == 1:
                    _sequential_compare(seq, kind, lhs[i], rhs[i], kind + "-link", t=ts[i].item())
            for j in range(n_p):
                for kind, lhs, rhs, rank in links:
                    if rank == 2:
                        _sequential_compare(
                            seq, kind, lhs[i, j], rhs[i, j], kind + "-link",
                            t=ts[i].item(), p=ps[j].item(),
                        )
    assert _state(grid.tracker(0)) == _state(seq.tracker(0))


@settings(max_examples=200, deadline=None)
@given(_grid_chain())
def test_one_grid_compare_records_in_c_order(chain):
    # Outside a chain a grid compare is recorded at once, point by point in C order.
    n_t, n_p, links = chain
    ts, ps = np.array(_T_AXIS[:n_t]), np.array(_P_AXIS[:n_p])
    grid, seq = MarginTracker(), MarginTracker()
    with np.errstate(all="ignore"):
        for kind, lhs, rhs, rank in links:
            if rank == 1:
                grid.compare(kind, lhs[None], rhs[None], t=ts)
                for i in range(n_t):
                    _sequential_compare(seq, kind, lhs[i], rhs[i], t=ts[i].item())
            else:
                grid.compare(kind, lhs[None], rhs[None], p=ps, t=ts[:, None])
                for i in range(n_t):
                    for j in range(n_p):
                        _sequential_compare(
                            seq, kind, lhs[i, j], rhs[i, j], t=ts[i].item(), p=ps[j].item()
                        )
    assert _state(grid.tracker(0)) == _state(seq.tracker(0))


def test_grid_compare_ties_go_to_the_earliest_point_then_link():
    # At t = 0 the second link ties the first link's margin at t = 1; t comes first.
    tr = MarginTracker()
    with tr.chain():
        tr.compare("leq", [[[1.0], [1.0]]], [[[1.0], [2.0]]], "first", t=np.array([1.0, 0.0]))
        tr.compare("leq", [[[2.0], [1.0]]], [[[2.0], [3.0]]], "second", t=np.array([1.0, 0.0]))
    rec = tr.tracker(0)
    assert (rec.worst, rec.witness.t, rec.witness.norm_id) == (0.0, 1.0, "first:1")
    tr = MarginTracker()
    with tr.chain():
        tr.compare("leq", [[[1.0], [1.0]]], [[[2.0], [1.0]]], "first", t=np.array([1.0, 0.0]))
        tr.compare("leq", [[[1.0], [1.0]]], [[[1.0], [1.0]]], "second", t=np.array([1.0, 0.0]))
    rec = tr.tracker(0)
    assert (rec.witness.t, rec.witness.norm_id) == (1.0, "second:1")


def test_grid_compare_nan_totals_scale_as_python_max():
    # max(nan, x) is nan but max(x, nan) is x: a NaN rhs total leaves a finite scale.
    seq = MarginTracker()
    _sequential_compare(seq, "sum", [1.0, 2.0], [1.0, math.nan], p=1.0)
    tr = MarginTracker()
    tr.compare("sum", [[[1.0, 2.0]]], [[[1.0, math.nan]]], p=np.array([1.0]))
    rec = tr.tracker(0)
    assert _state(rec)[:3] == _state(seq.tracker(0))[:3] and rec.worst == 0.0


def test_empty_grid_compare_records_nothing():
    tr = MarginTracker()
    with tr.chain():
        tr.compare("KyFan", np.zeros((1, 0, 3)), np.zeros((1, 0, 3)), t=np.array([]))
        tr.compare("eq", np.zeros((1, 0, 2)), np.zeros((1, 0, 2)), t=np.zeros((0, 1)), p=np.zeros(2))
    tr.compare("leq", np.zeros((1, 2, 0, 3)), np.zeros((1, 2, 0, 3)), t=np.zeros((2, 1)), p=np.zeros(0))
    assert tuple(tr.tracker(0)) == (math.inf, suite.Witness(), None, 0)


# Sub-inequalities per property over the first default chunk (master seed 1,
# 32 instances), as counted before the properties compared whole grids.
_SUBINEQ_DEFAULT_CHUNK = {
    "P1": 7200, "P2": 4320, "P3": 7920, "P4": 3600, "P5": 12480, "P6": 96, "P7": 384,
    "P8": 144, "P9": 2304, "P10": 720, "P11": 208, "P12": 864, "P13": 1888, "P14": 144,
    "P15": 304,
}


def test_grid_properties_check_as_many_subinequalities():
    rep = run_campaign(CampaignConfig(master_seed=1, count=suite._CHUNK))
    totals = dict.fromkeys(PROPERTY_IDS, 0)
    for res in rep.results:
        totals[res.property_id] += res.subineq
    assert totals == _SUBINEQ_DEFAULT_CHUNK


# --- a group's compares record each member's share ------------------------------


@st.composite
def _member_chains(draw):
    """A chain of t-only, then (t, p), links over a (T, P) grid of K-vectors, for
    each of several members: every array leads with the member axis."""
    members = draw(st.integers(1, 6))
    n_t, n_p, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    links = []
    for shape in [(n_t,)] * draw(st.integers(0, 2)) + [(n_t, n_p)] * draw(st.integers(1, 3)):
        kind = draw(st.sampled_from(suite._KINDS))
        scalar = kind in ("leq", "eq") and draw(st.booleans())
        full = (members, *shape) if scalar else (members, *shape, k)
        size = math.prod(full)
        lhs = draw(st.lists(_GRID_ENTRY, min_size=size, max_size=size))
        rhs = draw(st.lists(_GRID_ENTRY, min_size=size, max_size=size))
        links.append((kind, np.reshape(lhs, full), np.reshape(rhs, full), len(shape)))
    return members, n_t, n_p, links


@settings(max_examples=300, deadline=None)
@given(_member_chains(), st.booleans())
def test_group_compare_records_what_each_member_would_record(chain, chained):
    members, n_t, n_p, links = chain
    ts, ps = np.array(_T_AXIS[:n_t]), np.array(_P_AXIS[:n_p])
    alone = [MarginTracker() for _ in range(members)]
    trackers = MarginTracker(members)
    with np.errstate(all="ignore"):
        with trackers.chain() if chained else contextlib.nullcontext():
            got = [trackers.compare(kind, lhs, rhs, kind + "-link",
                                    **({"t": ts} if rank == 1 else {"t": ts[:, None], "p": ps}))
                   for kind, lhs, rhs, rank in links]
        for i, tr in enumerate(alone):
            with tr.chain() if chained else contextlib.nullcontext():
                for (kind, lhs, rhs, rank), (gl, gr) in zip(links, got):
                    where = {"t": ts} if rank == 1 else {"t": ts[:, None], "p": ps}
                    l, r = tr.compare(kind, lhs[i:i + 1], rhs[i:i + 1], kind + "-link", **where)
                    assert _bits(np.ravel(l)) == _bits(np.ravel(gl[i]))
                    assert _bits(np.ravel(r)) == _bits(np.ravel(gr[i]))
    assert [_state(trackers.tracker(i)) for i in range(members)] == [
        _state(tr.tracker(0)) for tr in alone
    ]


# --- a tracker resolves every record in recording order -------------------------


@st.composite
def _values(draw, shape):
    if draw(st.booleans()):  # one value throughout: all ties, or all NaN
        return np.full(shape, draw(_GRID_ENTRY))
    return np.reshape(draw(st.lists(_GRID_ENTRY, min_size=math.prod(shape),
                                    max_size=math.prod(shape))), shape)


@st.composite
def _record_sequence(draw):
    """Records of several members over a (T, P) grid of K-vectors, in any order:
    compares and adds outside a chain, with no grid, a t grid or a (t, p) grid,
    and chains of t-only and (t, p) links.  A link is (kind or "add", grid
    rank, margins, lhs, rhs); a compare reads only lhs and rhs."""
    members = draw(st.integers(1, 4))
    n_t, n_p, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))

    def link(ranks):
        kind, rank = draw(st.sampled_from((*suite._KINDS, "add"))), draw(st.sampled_from(ranks))
        shape = (members, *((), (n_t,), (n_t, n_p))[rank])
        if kind in ("leq", "eq", "add") and draw(st.booleans()):
            if kind == "add" and rank == 0 and draw(st.booleans()):
                shape = ()  # every member's scalar
        else:
            shape = (*shape, k)
        return kind, rank, *(draw(_values(shape)) for _ in range(3))

    records = []
    for _ in range(draw(st.integers(1, 5))):
        chained = draw(st.booleans())
        records.append([link((1, 2)) for _ in range(draw(st.integers(1, 3)))] if chained
                       else link((0, 1, 2)))
    return members, n_t, n_p, records


def _sequential_entries(tr, i, link, point, ts, ps):
    """Member i's share of one link at one grid point, one sequential record per entry."""
    kind, rank, margins, lhs, rhs = link
    where = dict(zip(("t", "p"), (ts[point[0]].item() if rank else None,
                                   ps[point[1]].item() if rank == 2 else None)))
    if kind != "add":
        _sequential_compare(tr, kind, lhs[i][point], rhs[i][point], kind + "-link", **where)
        return
    m, l, r = (v if v.ndim == 0 else v[i][point] for v in (margins, lhs, rhs))
    if m.ndim == 0:
        tr.add(float(m), norm_id="add", lhs=float(l), rhs=float(r), **where)
        return
    for j, (mj, lj, rj) in enumerate(zip(m.tolist(), l.tolist(), r.tolist()), 1):
        tr.add(mj, norm_id=f"add:{j}", lhs=lj, rhs=rj, **where)


@settings(max_examples=200, deadline=None)
@given(_record_sequence())
def test_records_resolve_as_one_sequential_record_per_entry(sequence):
    members, n_t, n_p, records = sequence
    ts, ps = np.array(_T_AXIS[:n_t]), np.array(_P_AXIS[:n_p])
    tr, alone = MarginTracker(members), [MarginTracker() for _ in range(members)]
    with np.errstate(all="ignore"):
        for rec in records:
            chained = isinstance(rec, list)
            with tr.chain() if chained else contextlib.nullcontext():
                for kind, rank, margins, lhs, rhs in rec if chained else [rec]:
                    where = ({}, {"t": ts}, {"t": ts[:, None], "p": ps})[rank]
                    if kind == "add":
                        tr.add(margins, norm_id="add", lhs=lhs, rhs=rhs, **where)
                    else:
                        tr.compare(kind, lhs, rhs, kind + "-link", **where)
            for i, seq in enumerate(alone):
                if not chained:
                    for point in np.ndindex(*((), (n_t,), (n_t, n_p))[rec[1]]):
                        _sequential_entries(seq, i, rec, point, ts, ps)
                    continue
                for a in range(n_t):  # a t-only link first at its t
                    for link in rec:
                        if link[1] == 1:
                            _sequential_entries(seq, i, link, (a,), ts, ps)
                    for b in range(n_p):
                        for link in rec:
                            if link[1] == 2:
                                _sequential_entries(seq, i, link, (a, b), ts, ps)
            # Read after every record: a read sees every record made before it.
            assert [_state(tr.tracker(i)) for i in range(members)] == [
                _state(seq.tracker(0)) for seq in alone
            ]


def test_a_record_made_after_a_read_is_seen_by_the_next_read():
    tr = MarginTracker(2)
    tr.add([0.5, 0.25], norm_id="first")
    assert [tr.tracker(i).witness.norm_id for i in range(2)] == ["first", "first"]
    tr.compare("leq", [2.0, 1.0], [1.0, 4.0], "second")  # margins -1/3 and 3/5
    got = [tr.tracker(i) for i in range(2)]
    assert [(r.worst, r.witness.norm_id, r.count) for r in got] == [
        (-1.0 / 3.0, "second", 2), (0.25, "first", 2)
    ]
    with tr.chain():
        tr.add([0.0, math.nan], norm_id="third")
    got = [tr.tracker(i) for i in range(2)]
    assert [(r.witness.norm_id, r.nan_witness, r.count) for r in got] == [
        ("second", None, 3), ("first", suite.Witness(norm_id="third"), 3)
    ]
