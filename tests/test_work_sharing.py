"""The campaign shares work through the per-instance table of means."""

from collections import Counter

import pytest

from matmeans import means, suite
from matmeans.suite import CampaignConfig, build_instance, evaluate_property, materialize

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


def test_power_mean_spectra_are_computed_once_per_instance(computed):
    spec = suite.InstanceSpec(seed=2, dim=3, cond_exponent=1.0)
    data = materialize(spec)
    for pid in POWER_MEAN_READERS:
        assert evaluate_property(pid, data).status == "pass"
    grid = {(t, p) for t in spec.t_values for p in spec.p_grid}
    assert set(computed) == grid
    assert set(computed.values()) == {1}

    # A second instance has its own table.
    evaluate_property("P1", materialize(spec))
    assert set(computed.values()) == {2}


def test_raising_entry_raises_the_same_error_in_every_reader(computed):
    # Instance 4 of the cond-4 campaign at master seed 1: the power-mean
    # aggregate at one (t, p) has a negative eigenvalue from rounding.
    data = materialize(build_instance(CampaignConfig(master_seed=1, cond_exponent=4.0), 4))
    errors = {pid: evaluate_property(pid, data).error for pid in ("P1", "P2", "P3", "P5")}
    assert len(set(errors.values())) == 1
    assert errors["P1"].startswith("ValueError: power mean aggregate lost positivity")
    assert set(computed.values()) == {1}
