import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmeans.densela import pd_power, random_pd, symmetrize
from matmeans.spectra import (
    check_spectrum,
    eigenvalues_desc,
    ky_fan_norm,
    loewner_leq,
    log_majorize,
    log_prefix,
    majorize,
    prefix_margins,
    product_eigenvalues,
    schatten_norm,
    weak_log_majorize,
    weak_majorize,
)


def test_eigenvalues_desc_trivial():
    assert np.array_equal(eigenvalues_desc(np.diag([1.0, 3.0])), [3.0, 1.0])
    assert np.array_equal(eigenvalues_desc(np.eye(4)), np.ones(4))
    assert eigenvalues_desc([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx([3.0, 1.0])


def test_product_eigenvalues_identity():
    b = random_pd(4, 1.0, 3)
    assert product_eigenvalues(np.eye(4), b) == pytest.approx(
        eigenvalues_desc(b), rel=1e-10
    )


def test_product_eigenvalues_diagonal():
    got = product_eigenvalues(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert got == pytest.approx([21.0, 10.0])


@pytest.mark.parametrize("seed", range(10))
def test_product_eigenvalues_two_symmetric_forms_agree(seed):
    a = random_pd(5, 1.5, seed)
    b = random_pd(5, 1.5, seed + 1000)
    lam_ab = product_eigenvalues(a, b)
    # independent route: eigenvalues of B^{1/2} A B^{1/2}
    rb = pd_power(b, 0.5)
    lam_ba = eigenvalues_desc(symmetrize(rb @ a @ rb))
    assert np.max(np.abs(lam_ab - lam_ba) / (1.0 + np.abs(lam_ab))) <= 1e-8


def test_ky_fan_norm_values():
    d = np.diag([3.0, 1.0])
    assert ky_fan_norm(d, 1) == pytest.approx(3.0)
    assert ky_fan_norm(d, 2) == pytest.approx(4.0)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    for k in (1, 2, 3):
        assert ky_fan_norm(q, k) == pytest.approx(k, abs=1e-9)
    assert ky_fan_norm(np.array([[0.0, 2.0], [0.0, 0.0]]), 2) == pytest.approx(2.0)


def test_ky_fan_rejects_bad_k():
    with pytest.raises(ValueError):
        ky_fan_norm(np.eye(2), 0)
    with pytest.raises(ValueError):
        ky_fan_norm(np.eye(2), 3)


def test_schatten_norms():
    d = np.diag([3.0, 4.0])
    assert schatten_norm(d, 2.0) == pytest.approx(5.0)
    assert schatten_norm(d, math.inf) == pytest.approx(4.0)
    assert schatten_norm(np.eye(3), 1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        schatten_norm(d, 0.5)


def test_weak_majorize_basic():
    ok, _ = weak_majorize([2.0, 1.0], [3.0, 1.0])
    assert ok
    ok, margins = weak_majorize([3.0, 1.0], [2.0, 1.0])
    assert not ok and margins[0] < 0


def test_weak_majorize_reflexive_zero_margins():
    x = np.array([3.0, 2.0, 0.5])
    ok, margins = weak_majorize(x, x)
    assert ok and np.array_equal(margins, np.zeros(3))


@pytest.mark.parametrize("n", [2, 7, 8, 13])
def test_prefix_margins_are_scaled_by_the_cumsum_totals(n):
    # Reference: the scalar loop the property suite evaluated before the
    # margins moved here.  From n = 8 on, np.sum and the last cumsum entry
    # can round differently, so the scale must come from the prefixes.
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        y = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        lx, ly = np.cumsum(x), np.cumsum(y)
        scale = 1.0 + max(abs(float(lx[-1])), abs(float(ly[-1])))
        want = [(float(ly[k]) - float(lx[k])) / scale for k in range(n)]
        assert prefix_margins(lx, ly).tolist() == want
        assert weak_majorize(x, y)[1].tolist() == want
        lx, ly = log_prefix(x), log_prefix(y)
        scale = 1.0 + max(abs(float(lx[-1])), abs(float(ly[-1])))
        want = [(float(ly[k]) - float(lx[k])) / scale for k in range(n)]
        assert weak_log_majorize(x, y)[1].tolist() == want


def test_majorize_needs_sum_equality():
    assert majorize([2.0, 2.0], [3.0, 1.0])
    assert not majorize([2.0, 1.0], [3.0, 1.0])
    assert majorize([2.0, 1.0], [2.0, 1.0])


def test_log_majorize_basic():
    assert log_majorize([2.0, 2.0], [4.0, 1.0])
    ok, margins = weak_log_majorize([4.0, 1.0], [2.0, 2.0])
    assert not ok and margins[0] < 0
    assert log_majorize([2.0, 1.0], [2.0, 1.0])


def test_log_majorize_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        weak_log_majorize([1.0, 0.0], [1.0, 0.5])


def test_weak_log_implies_weak_seeded_corpus():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        y = np.sort(10.0 ** rng.uniform(-2, 2, n))[::-1]
        # scaling by a descending factor in (0, 1] forces weak log majorization
        u = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        x = y * u
        ok_wlog, _ = weak_log_majorize(x, y)
        assert ok_wlog
        ok_w, _ = weak_majorize(x, y)
        assert ok_w
        checked += 1
    assert checked == 1000


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=6),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=6),
)
def test_weak_log_implies_weak_property(xs, ys):
    n = min(len(xs), len(ys))
    x = np.sort(np.array(xs[:n]))[::-1]
    y = np.sort(np.array(ys[:n]))[::-1]
    ok_wlog, _ = weak_log_majorize(x, y, tol=0.0)
    if ok_wlog:
        ok_w, _ = weak_majorize(x, y, tol=1e-12)
        assert ok_w


def test_loewner_basic():
    a = random_pd(3, 1.0, 5)
    ok, margin = loewner_leq(a, a)
    assert ok and margin == pytest.approx(0.0, abs=1e-12)
    ok, _ = loewner_leq(np.eye(2), 2.0 * np.eye(2))
    assert ok
    ok, _ = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    assert not ok


def test_check_spectrum_validation():
    with pytest.raises(ValueError):
        check_spectrum([1.0, 2.0])
    with pytest.raises(ValueError):
        check_spectrum([1.0, -0.5], nonnegative=True)
    with pytest.raises(ValueError):
        check_spectrum([np.inf, 1.0])
    v = check_spectrum([2.0, 1.0])
    assert np.array_equal(v, [2.0, 1.0])
