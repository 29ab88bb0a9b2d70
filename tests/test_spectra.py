import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmeans.densela import pd_power, random_pd, symmetrize
from matmeans.means import PairTable
from matmeans.spectra import eigenvalues_desc, ky_fan_norm, log_prefix, schatten_norm
from matmeans.suite import MarginTracker, _margins


def margins(kind, x, y):
    """The per-k margins that MarginTracker.compare records for a prefix kind."""
    return _margins(kind, x, y)[2].tolist()


def majorized(kind, x, y, tol=1e-9):
    """Prefix domination plus equal totals, recorded as P5 and P7 record them."""
    tr = MarginTracker()
    lx, ly = tr.compare(kind, [x], [y])
    tr.compare("eq", lx[:, -1], ly[:, -1])
    return tr.tracker(0).worst >= -tol


def product_eigenvalues(a, b):
    """Eigenvalues of A B from the product form A^(1/2) B A^(1/2) of the table."""
    return PairTable(a, b).spectrum("product", 0.5, 2.0)


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
    assert min(margins("sum", [2.0, 1.0], [3.0, 1.0])) >= 0.0
    assert margins("sum", [3.0, 1.0], [2.0, 1.0])[0] < 0


def test_weak_majorize_reflexive_zero_margins():
    x = np.array([3.0, 2.0, 0.5])
    assert margins("sum", x, x) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("n", [2, 7, 8, 13])
def test_prefix_margins_are_scaled_by_the_cumsum_totals(n):
    # Reference: a scalar loop over k.  From n = 8 on, np.sum and the last
    # cumsum entry can round differently, so the scale must come from the
    # prefixes.
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        y = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        for kind, prefix in (("sum", np.cumsum), ("logsum", log_prefix)):
            lx, ly = prefix(x), prefix(y)
            scale = 1.0 + max(abs(float(lx[-1])), abs(float(ly[-1])))
            want = [(float(ly[k]) - float(lx[k])) / scale for k in range(n)]
            assert margins(kind, x, y) == want


def test_majorize_needs_sum_equality():
    assert majorized("sum", [2.0, 2.0], [3.0, 1.0])
    assert not majorized("sum", [2.0, 1.0], [3.0, 1.0])
    assert majorized("sum", [2.0, 1.0], [2.0, 1.0])


def test_log_majorize_basic():
    assert majorized("logsum", [2.0, 2.0], [4.0, 1.0])
    assert margins("logsum", [4.0, 1.0], [2.0, 2.0])[0] < 0
    assert majorized("logsum", [2.0, 1.0], [2.0, 1.0])


def test_weak_log_implies_weak_seeded_corpus():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        y = np.sort(10.0 ** rng.uniform(-2, 2, n))[::-1]
        # scaling by a descending factor in (0, 1] forces weak log majorization
        u = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        x = y * u
        assert min(margins("logsum", x, y)) >= -1e-9
        assert min(margins("sum", x, y)) >= -1e-9
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
    if min(margins("logsum", x, y)) >= 0.0:
        assert min(margins("sum", x, y)) >= -1e-12
