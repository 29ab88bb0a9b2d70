"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy shared corpus (1000 seeded instances, dims 2 to 6, eigenvalue
spread up to 10^1.5 so the condition number stays below 10^3) is run once
per session; run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest

from matmeans import cli
from matmeans.compound import compound_matrix
from matmeans.densela import (
    pd_log,
    random_pd,
    sym_eigen,
    sym_exp,
    symmetrize,
)
from matmeans.means import (
    arithmetic_path,
    cross_term,
    geometric_mean,
    log_euclidean,
    power_mean,
    power_mean_multi,
    sandwich_mean,
)
from matmeans.spectra import eigenvalues_desc
from matmeans.suite import CampaignConfig, build_instance, paper_counterexample, paper_pair, run_campaign

T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
P_GRID = (-4.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 4.0)


@pytest.fixture(scope="session")
def campaign():
    config = CampaignConfig(master_seed=1, count=1000)
    return run_campaign(config)


def _verdict(num: int, name: str, ok: bool, extra: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"acceptance {num:2d} {name}: {mark}{suffix}")


def _prop_stats(campaign, pid):
    c = campaign.counts[pid]
    worst = min(
        (r.worst_margin for r in campaign.results if r.property_id == pid),
        default=math.inf,
    )
    return c, worst


def test_c01_reference_counterexample():
    l2_geo, l2_le = paper_counterexample()
    a, b = paper_pair()
    det_geo = float(np.prod(eigenvalues_desc(geometric_mean(a, b, 0.5))))
    ok = (
        abs(l2_geo - 1.0) <= 1e-9
        and 0.9801 <= l2_le <= 0.9811
        and abs(det_geo - 3.0) <= 1e-8
    )
    _verdict(1, "2x2 counterexample reproduction", ok,
             f"lambda2_geo={l2_geo:.12f} lambda2_logeuc={l2_le:.6f} det={det_geo:.12f}")
    assert ok


def test_c02_power_mean_grid_monotonicity(campaign):
    c, worst = _prop_stats(campaign, "P1")
    ok = c["fail"] == 0 and c["pass"] == campaign.config.count
    _verdict(2, "eigenvalue monotonicity across the p grid", ok,
             f"fail={c['fail']} marginal={c['marginal']} worst={worst:.3e}")
    assert ok


def test_c03_five_link_norm_chain(campaign):
    c, worst = _prop_stats(campaign, "P4")
    ok = c["fail"] == 0 and c["pass"] == campaign.config.count
    _verdict(3, "five-link Ky Fan chain at p=1", ok,
             f"fail={c['fail']} marginal={c['marginal']} worst={worst:.3e}")
    assert ok


def test_c04_log_majorization_chain(campaign):
    c, worst = _prop_stats(campaign, "P5")
    ok = c["fail"] == 0 and c["pass"] == campaign.config.count
    _verdict(4, "log-majorization chain with spectral identity", ok,
             f"fail={c['fail']} marginal={c['marginal']} worst={worst:.3e}")
    assert ok


def test_c05_midpoint_endpoint_suite(campaign):
    c, worst = _prop_stats(campaign, "P7")
    ok = c["fail"] == 0 and c["pass"] == campaign.config.count
    _verdict(5, "midpoint majorization, determinant and trace", ok,
             f"fail={c['fail']} marginal={c['marginal']} worst={worst:.3e}")
    assert ok


def test_c06_compound_identity(campaign):
    worst = 0.0
    pairs = 0
    for seed in range(200):
        n = 3 + seed % 3
        a = random_pd(n, 1.5, 20_000 + seed)
        b = random_pd(n, 1.5, 30_000 + seed)
        g = geometric_mean(a, b, 0.5)
        for k in range(1, n + 1):
            lhs = compound_matrix(g, k)
            rhs = geometric_mean(
                symmetrize(compound_matrix(a, k)),
                symmetrize(compound_matrix(b, k)),
                0.5,
            )
            scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
        pairs += 1
    c, _ = _prop_stats(campaign, "P8")
    ok = worst <= 1e-7 and c["fail"] == 0
    _verdict(6, "compound/geometric-mean identity (dims 3-5, all k)", ok,
             f"pairs={pairs} worst_rel={worst:.3e} campaign_fail={c['fail']}")
    assert ok


def test_c07_remarks_suite(campaign):
    oks = {}
    worsts = {}
    for pid in ("P9", "P10", "P11", "P12", "P13", "P14", "P15"):
        c, worst = _prop_stats(campaign, pid)
        oks[pid] = c["fail"] == 0 and c["pass"] == campaign.config.count
        worsts[pid] = worst
    ms = {build_instance(campaign.config, i).m for i in range(campaign.config.count)}
    ok = all(oks.values()) and ms == {2, 3, 4}
    detail = " ".join(f"{pid}:{worsts[pid]:.1e}" for pid in sorted(worsts))
    _verdict(7, "remarks properties P9-P15", ok, f"m={sorted(ms)} worst {detail}")
    assert ok


def test_c08_commuting_scalar_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0

    def track(got, want):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(got - want))))

    for trial in range(25):
        n = 2 + trial % 4
        da = rng.uniform(0.5, 2.0, n)
        db = rng.uniform(0.5, 2.0, n)
        a, b = np.diag(da), np.diag(db)
        for t in T_GRID:
            geo_want = np.diag(da ** (1.0 - t) * db**t)
            track(geometric_mean(a, b, t), geo_want)
            track(log_euclidean(a, b, t), geo_want)
            track(cross_term(a, b, t), geo_want)
            track(symmetrize(cross_term(a, b, t)), geo_want)
            track(arithmetic_path(a, b, t), np.diag((1.0 - t) * da + t * db))
            for p in P_GRID:
                if p == 0.0:
                    want = geo_want
                else:
                    want = np.diag(((1.0 - t) * da**p + t * db**p) ** (1.0 / p))
                track(power_mean(a, b, t, p), want)
            for p in (0.5, 1.0, 2.0, 4.0):
                track(sandwich_mean(a, b, t, p), geo_want)
        dc = rng.uniform(0.5, 2.0, n)
        w = rng.uniform(0.2, 1.0, 3)
        w /= w.sum()
        for p in (-2.0, 0.0, 1.0, 3.0):
            if p == 0.0:
                want = np.diag(np.exp(sum(wi * np.log(d) for wi, d in zip(w, (da, db, dc)))))
            else:
                want = np.diag(sum(wi * d**p for wi, d in zip(w, (da, db, dc))) ** (1.0 / p))
            track(power_mean_multi([np.diag(da), np.diag(db), np.diag(dc)], w, p), want)
    ok = worst <= 1e-12
    _verdict(8, "commuting inputs match scalar formulas", ok, f"worst_abs={worst:.3e}")
    assert ok


def test_c09_kernel_health():
    worst_recon = 0.0
    worst_orth = 0.0
    rng = np.random.default_rng(909)
    for trial in range(500):
        n = 2 + trial % 7
        m = rng.standard_normal((n, n))
        s = (m + m.T) / 2.0
        e = sym_eigen(s)
        worst_recon = max(
            worst_recon,
            float(np.max(np.abs(e.reconstruct() - s)) / (1.0 + np.max(np.abs(s)))),
        )
        worst_orth = max(worst_orth, float(np.max(np.abs(e.q.T @ e.q - np.eye(n)))))
    worst_trip = 0.0
    for seed in range(100):
        a = random_pd(2 + seed % 7, 1.5, 40_000 + seed)
        back = sym_exp(pd_log(a))
        worst_trip = max(
            worst_trip, float(np.max(np.abs(back - a)) / (1.0 + np.max(np.abs(a))))
        )
    ok = worst_recon <= 1e-9 and worst_orth <= 1e-10 and worst_trip <= 1e-8
    _verdict(9, "kernel reconstruction, orthogonality, exp/log round trip", ok,
             f"recon={worst_recon:.2e} orth={worst_orth:.2e} roundtrip={worst_trip:.2e}")
    assert ok


def test_c10_check_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    args = ["check", "--seed", "3", "--dims", "2:6", "--count", "12"]
    rc1 = cli.main(args + ["--out", str(out1)])
    rc2 = cli.main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    _verdict(10, "byte-identical reports for a repeated check", ok,
             f"bytes={out1.stat().st_size} identical={identical}")
    assert ok


def test_remaining_catalogue_properties(campaign):
    # P2, P3 and P6 are not named by a single criterion but must also be
    # clean on the corpus.
    ok = True
    details = []
    for pid in ("P2", "P3", "P6"):
        c, worst = _prop_stats(campaign, pid)
        ok = ok and c["fail"] == 0 and c["pass"] == campaign.config.count
        details.append(f"{pid}:fail={c['fail']},worst={worst:.1e}")
    print("suite invariant P2/P3/P6: " + ("PASS " if ok else "FAIL ") + " ".join(details))
    assert ok
