import math
from itertools import combinations

import numpy as np
import pytest

from matmeans import compound
from matmeans.compound import compound_matrix
from matmeans.densela import random_pd, symmetrize
from matmeans.means import geometric_mean
from matmeans.spectra import eigenvalues_desc


def random_square(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n))


def test_index_is_lexicographic():
    x = random_square(4, 3)
    got = compound_matrix(x, 2)
    subsets = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert got.shape == (6, 6)
    for i, rows in enumerate(subsets):
        for j, cols in enumerate(subsets):
            minor = np.linalg.det(x[np.ix_(rows, cols)])
            assert got[i, j] == pytest.approx(minor, abs=1e-12)


def test_top_order_compound_is_determinant():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = compound_matrix(x, 2)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(np.linalg.det(x))


def test_identity_compound():
    assert compound_matrix(np.eye(3), 2) == pytest.approx(np.eye(3), abs=1e-14)


def test_diagonal_compound():
    got = compound_matrix(np.diag([2.0, 3.0, 5.0]), 2)
    assert got == pytest.approx(np.diag([6.0, 10.0, 15.0]), abs=1e-12)


def test_first_order_compound_is_copy():
    x = random_square(3, 1)
    got = compound_matrix(x, 1)
    assert np.array_equal(got, x)
    got[0, 0] = 99.0
    assert x[0, 0] != 99.0


def test_order_out_of_range():
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), 0)
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), 4)


def test_spectrum_check_diagonal():
    s = np.diag([3.0, 2.0, 1.0])
    assert eigenvalues_desc(compound_matrix(s, 2)) == pytest.approx([6.0, 3.0, 2.0])


def test_spectrum_matches_brute_force_products():
    s = symmetrize(random_square(4, 7))
    # independent oracle: k-fold products of LAPACK eigenvalues
    lam = np.linalg.eigvalsh(s)
    for k in (1, 2, 3, 4):
        expected = np.sort(
            [np.prod([lam[i] for i in c]) for c in combinations(range(4), k)]
        )[::-1]
        got = eigenvalues_desc(symmetrize(compound_matrix(s, k)))
        assert got == pytest.approx(expected, abs=1e-7 * (1.0 + np.max(np.abs(expected))))


@pytest.mark.parametrize("seed", range(8))
def test_multiplicativity(seed):
    x = random_square(4, seed)
    y = random_square(4, seed + 50)
    for k in (1, 2, 3, 4):
        lhs = compound_matrix(x @ y, k)
        rhs = compound_matrix(x, k) @ compound_matrix(y, k)
        scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * scale


@pytest.mark.parametrize("seed", range(12))
def test_geometric_mean_compound_identity_smoke(seed):
    n = 3 + seed % 3
    a = random_pd(n, 1.5, seed)
    b = random_pd(n, 1.5, seed + 900)
    g = geometric_mean(a, b, 0.5)
    for k in range(1, n + 1):
        lhs = compound_matrix(g, k)
        rhs = geometric_mean(
            symmetrize(compound_matrix(a, k)), symmetrize(compound_matrix(b, k)), 0.5
        )
        scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * scale


def _one_batch(x, k):
    """Every k x k block in one batched ``det``: the compound without chunks."""
    rows = np.array(list(combinations(range(x.shape[0]), k)))
    return np.linalg.det(x[rows[:, None, :, None], rows[None, :, None, :]])


@pytest.mark.parametrize("n", range(2, 10))
def test_chunked_compound_equals_one_batch_bitwise(n, monkeypatch):
    x = random_square(n, n)
    for k in range(2, n + 1):
        whole = _one_batch(x, k).tobytes()
        size = math.comb(n, k)
        # One chunk, one row per chunk, and three rows per chunk with a
        # shorter last chunk when 3 does not divide C(n, k).
        for entries in (compound._CHUNK_ENTRIES, 1, 3 * size * k * k):
            monkeypatch.setattr(compound, "_CHUNK_ENTRIES", entries)
            assert compound_matrix(x, k).tobytes() == whole


def test_compound_of_order_252_runs_in_chunks():
    n, k = 10, 5
    size = math.comb(n, k)
    assert size * size * k * k > compound._CHUNK_ENTRIES
    x = random_square(n, 10)
    got = compound_matrix(x, k)
    assert got.shape == (size, size)
    assert got.tobytes() == _one_batch(x, k).tobytes()
    subsets = list(combinations(range(n), k))
    for i, j in ((0, 0), (17, 200), (size - 1, size - 1)):
        minor = np.linalg.det(x[np.ix_(subsets[i], subsets[j])])
        assert got[i, j] == pytest.approx(minor, rel=1e-12, abs=1e-12)
