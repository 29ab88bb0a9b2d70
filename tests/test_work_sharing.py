"""The campaign shares work through the per-instance table of means."""

import contextlib
import dataclasses
import gc
import importlib.util
import io
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from matmeans import cli, densela, means, suite
from matmeans.suite import (
    CampaignConfig,
    InstanceData,
    build_instance,
    evaluate_property,
    materialize,
)

# Every property that reads the two-matrix power-mean spectra.
POWER_MEAN_READERS = ("P1", "P2", "P3", "P5", "P12")


@pytest.fixture
def computed(monkeypatch):
    """Count computations (not reads) of PairTable.power_mean_spectrum by (t, p)."""
    counts = Counter()
    compute = means.PairTable.power_mean_spectrum.__wrapped__

    def counting(table, t, p):
        counts[(t, p)] += 1
        return compute(table, t, p)

    monkeypatch.setattr(means.PairTable, "power_mean_spectrum", means._entry(counting))
    return counts


def test_campaign_materializes_each_instance_once(monkeypatch):
    seeds = []
    real = suite.materialize

    def counting(spec):
        seeds.append(spec.seed)
        return real(spec)

    monkeypatch.setattr(suite, "materialize", counting)
    report = suite.run_campaign(CampaignConfig(master_seed=3, count=4, dims=(2, 3)))
    assert seeds == [3, 4, 5, 6]
    assert len(report.results) == 4 * len(suite.PROPERTY_IDS)


@pytest.fixture
def built(monkeypatch):
    """Count builds of table matrices by (name, *point)."""
    counts = Counter()
    real = means._Factored._grid

    def counting(table, name, points):
        counts.update((name, *pt) for pt in points)
        return real(table, name, points)

    monkeypatch.setattr(means._Factored, "_grid", counting)
    return counts


def test_power_mean_spectra_are_computed_once_per_instance(built):
    # The readers share one stored spectrum per power aggregate: each is
    # built and solved once, on the first read, whichever property reads it.
    spec = suite.InstanceSpec(seed=2, dim=3, cond_exponent=1.0)
    data = materialize(spec)
    for pid in POWER_MEAN_READERS:
        assert evaluate_property(pid, data).status == "pass"
    aggregates = {k: n for k, n in built.items() if k[0] == "power_aggregate"}
    inner = [t for t in spec.t_values if t not in (0.0, 1.0)]  # the means are A or B at t = 0, 1
    assert set(aggregates) == {("power_aggregate", t, p) for t in inner for p in spec.p_grid}
    assert set(aggregates.values()) == {1}

    # A second instance has its own tables.
    evaluate_property("P1", materialize(spec))
    assert {n for k, n in built.items() if k[0] == "power_aggregate"} == {2}


def test_raising_entry_raises_the_same_error_in_every_reader(computed):
    # Instance 4 of the cond-4 campaign at master seed 1: the power-mean
    # aggregate at one (t, p) has a negative eigenvalue from rounding.
    data = materialize(build_instance(CampaignConfig(master_seed=1, cond_exponent=4.0), 4))
    errors = {pid: evaluate_property(pid, data).error for pid in ("P1", "P2", "P3", "P5")}
    assert len(set(errors.values())) == 1
    assert errors["P1"].startswith("ValueError: power mean aggregate lost positivity")
    # A table stores results only: each (t, p) that succeeds is computed
    # once, and the failing one again by each reader.
    failing = [tp for tp, n in computed.items() if n != 1]
    assert len(failing) == 1
    assert computed[failing[0]] == len(errors)
    with pytest.raises(ValueError, match="power mean aggregate lost positivity"):
        means.power_mean_spectrum(data.a, data.b, *failing[0])


@pytest.fixture
def solves(monkeypatch):
    """(input bytes, vectors) of every ``sym_eigen`` call made by the tables."""
    calls = []

    def counting(s, max_sweeps=densela.JACOBI_MAX_SWEEPS, vectors=True):
        calls.append((np.asarray(s).tobytes(), vectors))
        return densela.sym_eigen(s, max_sweeps, vectors)

    monkeypatch.setattr(means, "sym_eigen", counting)
    return calls


def test_instance_table_decomposes_b_once_with_vectors(solves):
    data = materialize(suite.InstanceSpec(seed=2, dim=3, cond_exponent=1.0))
    # P6 reads a table of its own; every other property reads the instance
    # table, and between them they read B's spectrum, powers and log.
    for pid in suite.PROPERTY_IDS:
        if pid != "P6":
            assert evaluate_property(pid, data).status == "pass"
    assert [v for key, v in solves if key == data.b.tobytes()] == [True]
    assert [v for key, v in solves if key == data.a.tobytes()] == [True]


def _with_pair(a, b):
    spec = suite.InstanceSpec(seed=0, dim=a.shape[0], cond_exponent=1.0)
    return InstanceData(spec=spec, a=a, b=b, multi=(a,), weights=(1.0,), x_sym=a)


@pytest.mark.parametrize(
    "a, b",
    [
        (np.eye(2), np.diag([1.0, -1.0])),
        (np.diag([1.0, 0.0]), np.diag([1.0, -1.0])),
        (np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])),
        (np.eye(2), np.eye(3)),
    ],
)
def test_instance_table_raises_what_a_fresh_table_raises(a, b):
    # The instance table is a plain table: it validates A, then B, as a fresh one does.
    with pytest.raises(ValueError) as fresh:
        means.power_mean_spectrum(a, b, 0.5, 1.0)
    with pytest.raises(ValueError) as instance:
        _with_pair(a, b).means.power_mean_spectrum(0.5, 1.0)
    assert str(instance.value) == str(fresh.value)


def _each_matrix_solved_once_with_vectors(solves, *mats):
    assert len({key for key, _ in solves}) == len(solves)
    for m in mats:
        assert [v for key, v in solves if key == m.tobytes()] == [True]


def test_paper_counterexample_decomposes_each_matrix_once(solves):
    suite.paper_counterexample.__wrapped__()
    # A, B, the congruence A^-1/2 B A^-1/2, G and the log-Euclidean aggregate.
    assert len(solves) == 5
    _each_matrix_solved_once_with_vectors(solves, *suite.paper_pair())


def test_geometric_mean_decomposes_each_matrix_once(solves):
    a = densela.random_pd(4, 1.5, 91)
    b = densela.random_pd(4, 1.5, 92)
    means.geometric_mean(a, b, 0.25)
    # A, B and the congruence A^-1/2 B A^-1/2.
    assert len(solves) == 3
    _each_matrix_solved_once_with_vectors(solves, a, b)


def test_paper_counterexample_is_computed_once(solves):
    first = suite.paper_counterexample()
    solves.clear()
    assert suite.paper_counterexample() is first
    assert solves == []
    fresh = suite.paper_counterexample.__wrapped__()
    assert [v.hex() for v in first] == [v.hex() for v in fresh]
    assert len(solves) > 0


# --- batched prefill of the table spectra -------------------------------------


def _chunk(cond_exponent, count=6, master_seed=11):
    """A chunk of instances, grouped by dimension and prefilled as a campaign does it."""
    config = CampaignConfig(master_seed=master_seed, count=count, cond_exponent=cond_exponent)
    return [materialize(build_instance(config, i)) for i in range(count)]


def _groups(chunk, properties=suite.PROPERTY_IDS):
    plan = suite._plan(chunk[0].spec, properties)
    by_dim = {}
    for data in chunk:
        by_dim.setdefault(data.dim, []).append(data)
    return [suite._Group(members[0].spec, members, plan) for members in by_dim.values()]


@pytest.mark.parametrize("cond_exponent", [1.5, 4.0])
def test_prefilled_chunk_leaves_no_spectrum_solve_of_order_n(monkeypatch, cond_exponent):
    # The plan names every table spectrum a property reads: once the groups
    # are prefilled, the properties solve no spectrum of order n, nor a P11
    # block of order 2n, in a batch or on its own, whether a member runs with
    # its group or alone.
    chunk = _chunk(cond_exponent)
    assert len({d.dim for d in chunk}) > 1
    _groups(chunk)
    calls = []

    def recording(s, max_sweeps=densela.JACOBI_MAX_SWEEPS, vectors=True):
        calls.append((np.shape(s)[0], vectors))
        return densela.sym_eigen(s, max_sweeps, vectors)

    def batch(mats, max_sweeps=densela.JACOBI_MAX_SWEEPS):
        calls.extend((np.shape(mats)[1], False) for _ in range(len(mats)))
        return densela.sym_eigen_batch(mats, max_sweeps)

    monkeypatch.setattr(means, "sym_eigen", recording)
    monkeypatch.setattr(means, "sym_eigen_batch", batch)
    for data in chunk:
        calls.clear()
        for pid in suite.PROPERTY_IDS:
            evaluate_property(pid, data)
        assert (data.dim, False) not in calls
        assert (2 * data.dim, False) not in calls


def test_default_chunk_runs_no_member_alone(monkeypatch):
    # In the default regime every member of every group is served by its
    # group's run; only members whose reads could raise run alone.
    alone = []
    monkeypatch.setattr(suite, "_OwnReads", lambda data: alone.append(data) or None)
    report = suite.run_campaign(CampaignConfig(master_seed=1, count=suite._CHUNK))
    assert alone == [] and report.total_failures == 0


def test_default_chunk_runs_each_body_once_per_group(monkeypatch):
    # Every property, P6, P8 and P11 included, runs once for each dimension
    # group of a default chunk, on its first member's call, and once per
    # campaign on a group of no members, which plans the groups' fill.
    runs, plans = Counter(), Counter()
    for pid, body in list(suite._CATALOGUE.items()):
        def counting(reads, tr, pid=pid, body=body):
            if len(reads.ok):
                runs[(pid, reads.spec.dim)] += 1
            else:
                plans[pid] += 1
            body(reads, tr)

        monkeypatch.setitem(suite._CATALOGUE, pid, counting)
    config = CampaignConfig(master_seed=1, count=suite._CHUNK)
    suite.run_campaign(config)
    dims = {build_instance(config, i).dim for i in range(config.count)}
    assert len(dims) > 1
    assert runs == {(pid, n): 1 for pid in suite.PROPERTY_IDS for n in dims}
    assert plans == dict.fromkeys(suite.PROPERTY_IDS, 1)


def test_a_new_read_is_filled_without_a_second_declaration(monkeypatch):
    # A body that reads one more grid and one more table spectrum is planned
    # with them: the campaign gives the lines of a fresh check per instance.
    p2 = suite._CATALOGUE["P2"]

    def reading_more(reads, tr):
        reads.grid(("arithmetic",))
        reads.spectrum("bab")
        p2(reads, tr)

    monkeypatch.setitem(suite._CATALOGUE, "P2", reading_more)
    spec = build_instance(CampaignConfig(), 0)
    plan = suite._plan(spec, ("P2",))
    assert ("pairs", "bab", ((),)) in plan
    assert any(name == "arithmetic" for _, name, _ in plan)
    # Reads name grid points only, so one plan serves every dimension.
    assert plan == suite._plan(dataclasses.replace(spec, dim=spec.dim + 3), ("P2",))
    monkeypatch.setattr(suite, "_CHUNK", 4)
    config = CampaignConfig(master_seed=1, count=10, dims=(3, 5), properties=("P1", "P2"))
    lines = suite.report_jsonl_lines(suite.run_campaign(config))[:-1]
    fresh = [
        json.dumps(suite.result_to_json_obj(suite.check_property(pid, materialize(
            build_instance(config, i)), config.tolerance)), separators=(",", ":"), allow_nan=False)
        for i in range(config.count) for pid in config.properties
    ]
    assert lines == fresh
    assert not any("KeyError" in line for line in lines)


def test_groups_are_freed_by_reference_counting(monkeypatch):
    # Memory stays bounded by one chunk only if no group is part of a
    # reference cycle, such as members that hold their group while the
    # group holds them: with the collector off, each group must be freed
    # once its last member ran.
    groups = []
    build = suite._Group.__init__

    def recording(group, *args):
        groups.append(weakref.ref(group))
        build(group, *args)

    monkeypatch.setattr(suite._Group, "__init__", recording)
    gc.disable()
    try:
        suite.run_campaign(CampaignConfig(master_seed=1, count=70))
        alive = sum(g() is not None for g in groups)
    finally:
        gc.enable()
    assert len(groups) > 3 and alive == 0


@pytest.mark.parametrize(
    "properties", [suite.PROPERTY_IDS, ("P6", "P8"), ("P2", "P9", "P13")]
)
def test_every_prefilled_spectrum_is_read(monkeypatch, properties):
    chunk = _chunk(1.5)
    groups = _groups(chunk, properties)
    stacks = [s for g in groups for s in (g.pairs, g.multis)]
    prefilled = {(id(s), name, pt) for s in stacks for name, store in s._store.items()
                 for pt in store[0]}
    read = set()
    real = means._TableStack.spectra

    def recording(stack, name, points):
        read.update((id(stack), name, pt) for pt in points)
        return real(stack, name, points)

    monkeypatch.setattr(means._TableStack, "spectra", recording)
    for data in chunk:
        for pid in properties:
            evaluate_property(pid, data)
    assert prefilled <= read
    assert bool(prefilled) == (properties != ("P6", "P8"))


def _stores_an_exception(value):
    values = value if isinstance(value, tuple) else (value,)
    return any(isinstance(v, BaseException) for v in values)


def test_prefill_stores_no_error_and_nothing_of_a_grid_that_raised(monkeypatch):
    # At cond 8 some grids raise as a whole because one of their points does.
    chunk = _chunk(8.0)
    raised = []
    real = means._Factored._grid

    def recording(table, name, points):
        try:
            return real(table, name, points)
        except Exception:
            raised.append((table, name, list(points)))
            raise

    monkeypatch.setattr(means._Factored, "_grid", recording)
    groups = _groups(chunk)
    monkeypatch.undo()
    assert raised
    stacks = [s for g in groups for s in (g.pairs, g.multis)]
    for table, name, points in raised:
        (stack,) = [s for s in stacks if table in s.tables]
        cols, lam = stack._store[name]
        i = stack.tables.index(table)
        assert np.isnan(lam[i, [cols[pt] for pt in points]]).all()
        assert not stack.spectra(name, tuple(points))[1][i]

    for data in chunk:
        for pid in suite.PROPERTY_IDS:
            evaluate_property(pid, data)
    tables = [t for d in chunk for t in (d.means, d.multi_means)]
    assert not any(_stores_an_exception(v) for t in tables for v in t._memo.values())
    # A point whose own build raises is never stored, not even by its read.
    for table, name, points in raised:
        for args in points:
            try:
                table._grid(name, [args])
            except Exception:
                assert ("spectrum", name, *args) not in table._memo


# Non-default grids of the pinned report digests: (name, t values, p grid).
_GRIDS = [
    ("grids", (0.1, 0.9), (-3.0, -1.0, 0.0, 0.3, 2.0)),
    ("ends", (0.0, 1.0), suite.DEFAULT_P_GRID),
    ("empty", (), (1.0,)),
    ("repeat", (0.5, 0.25, 0.5), suite.DEFAULT_P_GRID),
]


@pytest.mark.parametrize(
    "cond_exponent, t_values, p_grid",
    [pytest.param(c, suite.DEFAULT_T_VALUES, suite.DEFAULT_P_GRID, id=str(c))
     for c in (1.5, 4.0, 8.0, 10.0)]
    + [pytest.param(c, ts, ps, id=f"{name}-{c}") for name, ts, ps in _GRIDS for c in (1.5, 8.0)],
)
def test_campaign_bytes_match_fresh_checks_per_instance(monkeypatch, cond_exponent, t_values, p_grid):
    # Three chunks of mixed dimensions, read from their groups' filled stacks,
    # against point reads on a fresh instance checked on its own.  A read
    # that the fill missed would show as a KeyError line.
    monkeypatch.setattr(suite, "_CHUNK", 4)
    config = CampaignConfig(master_seed=1, count=10, dims=(3, 5), cond_exponent=cond_exponent,
                            t_values=t_values, p_grid=p_grid)
    lines = suite.report_jsonl_lines(suite.run_campaign(config))[:-1]
    fresh = []
    for i in range(config.count):
        data = materialize(build_instance(config, i))
        fresh += [
            json.dumps(
                suite.result_to_json_obj(suite.check_property(pid, data, config.tolerance)),
                separators=(",", ":"),
                allow_nan=False,
            )
            for pid in config.properties
        ]
    assert lines == fresh
    if cond_exponent > 1.5:
        assert any('"error"' in line for line in lines)


_EIGENSOLVE_COUNTS = Path(__file__).resolve().parent.parent / "scripts" / "eigensolve_counts.py"


@pytest.mark.parametrize(
    "extra, want",
    [((), {"list": 248, "stacked": 3630, "looped": 60}),
     (("--cond", "4"), {"list": 248, "stacked": 3627, "looped": 63})],
    ids=["plain", "cond4"],
)
def test_eigensolves_of_a_check_round_by_kernel_path(monkeypatch, tmp_path, extra, want):
    # As scripts/eigensolve_counts.py counts them, for one round of its
    # ref-corpus jobs: `list` counts the sym_eigen calls made outside
    # sym_eigen_batch, `stacked` the matrices its stacked kernel solves,
    # `looped` those it hands to sym_eigen.  A change of work shows here.
    script = importlib.util.spec_from_file_location("eigensolve_counts", _EIGENSOLVE_COUNTS)
    module = importlib.util.module_from_spec(script)
    script.loader.exec_module(module)
    tally = module.Tally()
    for owner, attr, wrapper in tally.bindings():
        monkeypatch.setattr(owner, attr, wrapper)
    suite.paper_counterexample.cache_clear()  # P6's pair is solved in this round
    for d in range(2, 7):
        args = ["check", "--seed", str(1000 + d), "--dims", str(d), "--count", "6", *extra,
                "--out", str(tmp_path / "report.jsonl")]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(args)
    assert tally.counts == want
