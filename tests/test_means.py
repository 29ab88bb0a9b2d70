import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmeans import means
from matmeans.densela import pd_log, pd_power, random_pd, sym_eigen, symmetrize
from matmeans.means import (
    MultiTable,
    PairTable,
    WeightVector,
    arithmetic_path,
    cross_term,
    geometric_mean,
    log_euclidean,
    power_mean,
    power_mean_multi,
    power_mean_spectrum,
    sandwich_mean,
)
from matmeans.spectra import eigenvalues_desc
from matmeans.suite import DEFAULT_P_GRID, paper_pair


# Scalar oracles for commuting inputs.


def scalar_power_mean(a, b, t, p):
    if p == 0.0:
        return math.exp((1.0 - t) * math.log(a) + t * math.log(b))
    return ((1.0 - t) * a**p + t * b**p) ** (1.0 / p)


def scalar_geometric(a, b, t):
    return a ** (1.0 - t) * b**t


def rel_close(got, want, tol):
    return np.max(np.abs(got - want)) <= tol * (1.0 + np.max(np.abs(want)))


def random_pair(seed, n=4, cond=1.0):
    return random_pd(n, cond, seed), random_pd(n, cond, seed + 10_000)


# --- geometric mean -----------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
def test_geometric_mean_idempotent(t):
    a = random_pd(4, 1.0, 8)
    assert rel_close(geometric_mean(a, a, t), a, 1e-9)


def test_geometric_mean_commuting_diagonal():
    got = geometric_mean(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]), 0.5)
    assert got == pytest.approx(np.diag([2.0, 2.0]), abs=1e-12)


def test_geometric_mean_second_eigenvalue_of_reference_pair():
    a, b = paper_pair()
    lam = eigenvalues_desc(geometric_mean(a, b, 0.5))
    assert lam[1] == pytest.approx(1.0, abs=1e-9)
    assert lam[0] == pytest.approx(3.0, abs=1e-8)


def test_geometric_mean_rejects_bad_t():
    a, b = random_pair(1)
    with pytest.raises(ValueError, match="t must"):
        geometric_mean(a, b, 1.5)


def test_geometric_mean_rejects_non_pd():
    with pytest.raises(ValueError, match="positive definite"):
        geometric_mean(np.diag([1.0, -1.0]), np.eye(2), 0.5)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_geometric_mean_swap_symmetry(t):
    # 200 pairs total across the t grid
    for seed in range(40):
        a, b = random_pair(seed, n=2 + seed % 5, cond=1.5)
        lhs = geometric_mean(a, b, t)
        rhs = geometric_mean(b, a, 1.0 - t)
        assert rel_close(lhs, rhs, 1e-8)


def test_geometric_mean_determinant_identity_corpus():
    # det(A # B) = sqrt(det A det B), 500 pairs, dims 2..6
    for seed in range(500):
        n = 2 + seed % 5
        a, b = random_pair(seed, n=n, cond=1.5)
        det_g = float(np.prod(eigenvalues_desc(geometric_mean(a, b, 0.5))))
        want = math.sqrt(
            float(np.prod(eigenvalues_desc(a))) * float(np.prod(eigenvalues_desc(b)))
        )
        assert abs(det_g - want) <= 1e-8 * (1.0 + abs(want))


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_geodesic_below_chord(t):
    for seed in range(20):
        a, b = random_pair(seed, n=3 + seed % 3, cond=1.5)
        d = symmetrize(arithmetic_path(a, b, t) - geometric_mean(a, b, t))
        lam_min = sym_eigen(d).lam[-1]
        assert lam_min >= -1e-8 * (1.0 + np.max(np.abs(d)))


# --- power mean ----------------------------------------------------------------


def test_power_mean_scalar_cases():
    one, nine = np.array([[1.0]]), np.array([[9.0]])
    assert power_mean(one, nine, 0.5, 1.0)[0, 0] == pytest.approx(5.0)
    assert power_mean(one, nine, 0.5, -1.0)[0, 0] == pytest.approx(1.8)
    assert power_mean(one, nine, 0.5, 0.0)[0, 0] == pytest.approx(3.0)
    assert scalar_power_mean(1.0, 9.0, 0.5, 1.0) == 5.0
    assert scalar_power_mean(1.0, 9.0, 0.5, -1.0) == pytest.approx(1.8)
    assert scalar_power_mean(1.0, 9.0, 0.5, 0.0) == pytest.approx(3.0)


@pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_power_mean_idempotent(p):
    a = random_pd(3, 1.0, 44)
    assert rel_close(power_mean(a, a, 0.25, p), a, 1e-9)


@pytest.mark.parametrize("p", [-4.0, -1.0, 0.0, 1.0, 4.0])
def test_power_mean_weight_collapse_is_exact(p):
    a, b = random_pair(17)
    assert np.array_equal(power_mean(a, b, 0.0, p), a)
    assert np.array_equal(power_mean(a, b, 1.0, p), b)


def test_power_mean_spectrum_matches_matrix():
    a, b = random_pair(3, n=5, cond=1.5)
    for p in (-4.0, -0.5, 0.0, 0.5, 4.0):
        s = power_mean_spectrum(a, b, 0.25, p)
        lam = eigenvalues_desc(power_mean(a, b, 0.25, p))
        assert np.max(np.abs(s - lam) / (1.0 + np.abs(lam))) <= 1e-9


def test_power_mean_p0_continuity():
    for seed in range(10):
        a, b = random_pair(seed, n=4, cond=1.0)
        le = log_euclidean(a, b, 0.3)
        bound = 1e-3 * (1.0 + np.max(np.abs(le)))
        for eps in (1e-4, -1e-4):
            diff = np.max(np.abs(power_mean(a, b, 0.3, eps) - le))
            assert diff <= bound


# --- log-Euclidean --------------------------------------------------------------


def test_log_euclidean_idempotent():
    a = random_pd(4, 1.0, 31)
    assert rel_close(log_euclidean(a, a, 0.7), a, 1e-9)


def test_log_euclidean_reference_pair_values():
    a, b = paper_pair()
    lam = PairTable(a, b).power_mean_spectrum(0.5, 0.0)
    assert 0.9801 <= lam[1] <= 0.9811
    det = float(np.prod(lam))
    assert det == pytest.approx(3.0, abs=1e-8)


def test_log_euclidean_spectrum_matches_matrix():
    a, b = random_pair(5, n=4, cond=1.5)
    s = PairTable(a, b).power_mean_spectrum(0.4, 0.0)
    lam = eigenvalues_desc(log_euclidean(a, b, 0.4))
    assert np.max(np.abs(s - lam) / (1.0 + np.abs(lam))) <= 1e-9


# --- arithmetic path -------------------------------------------------------------


def test_arithmetic_path_endpoints_and_midpoint():
    a, b = random_pair(2)
    assert np.array_equal(arithmetic_path(a, b, 0.0), a)
    assert np.array_equal(arithmetic_path(a, b, 1.0), b)
    assert arithmetic_path(a, b, 0.5) == pytest.approx((a + b) / 2.0)
    d = np.diag([2.0, 2.0]), np.diag([4.0, 4.0])
    assert arithmetic_path(d[0], d[1], 0.5) == pytest.approx(np.diag([3.0, 3.0]))


# --- sandwich mean ----------------------------------------------------------------


def test_sandwich_idempotent():
    a = random_pd(4, 1.0, 9)
    assert rel_close(sandwich_mean(a, a, 0.3, 2.0), a, 1e-9)


def test_sandwich_scalar_case():
    got = sandwich_mean(np.array([[4.0]]), np.array([[9.0]]), 0.5, 1.0)
    assert got[0, 0] == pytest.approx(6.0)


def test_sandwich_reference_pair_is_quarter_half_quarter_product():
    a, b = paper_pair()
    got = sandwich_mean(a, b, 0.5, 1.0)
    bq = pd_power(b, 0.25)
    want = symmetrize(bq @ pd_power(a, 0.5) @ bq)
    assert rel_close(got, want, 1e-10)


def test_sandwich_rejects_nonpositive_p():
    a, b = random_pair(4)
    for p in (0.0, -1.0):
        with pytest.raises(ValueError, match="p > 0"):
            sandwich_mean(a, b, 0.5, p)


def test_sandwich_spectrum_matches_matrix_including_wide_range():
    a, b = random_pair(6, n=5, cond=1.5)
    for p in (0.5, 1.0, 4.0):
        s = PairTable(a, b).sandwich_mean_spectrum(0.25, p)
        lam = eigenvalues_desc(sandwich_mean(a, b, 0.25, p))
        assert np.max(np.abs(s - lam) / (1.0 + np.abs(lam))) <= 1e-7


# --- cross term and hermitian part ------------------------------------------------


def test_cross_term_idempotent_and_collapse():
    a, b = random_pair(11)
    assert rel_close(cross_term(a, a, 0.4), a, 1e-9)
    assert rel_close(cross_term(a, b, 0.0), a, 1e-12)


def test_cross_term_commuting_diagonal():
    got = cross_term(np.diag([4.0, 1.0]), np.diag([9.0, 1.0]), 0.5)
    assert got == pytest.approx(np.diag([6.0, 1.0]), abs=1e-12)


def test_hermitian_part():
    s = random_pd(3, 1.0, 2)
    assert np.array_equal(symmetrize(s), s)
    assert symmetrize([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(
        np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(symmetrize(k), np.zeros((2, 2)))


# --- multi-matrix power mean --------------------------------------------------------


def test_multi_singleton_and_idempotence():
    a = random_pd(3, 1.0, 13)
    assert rel_close(power_mean_multi([a], [1.0], 2.0), a, 1e-9)
    assert rel_close(power_mean_multi([a, a, a], [0.2, 0.3, 0.5], -1.0), a, 1e-9)


@pytest.mark.parametrize("p", [-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
def test_multi_diagonal_matches_scalar_oracle(p):
    diags = [np.diag([1.0, 4.0]), np.diag([2.0, 0.5]), np.diag([3.0, 1.0])]
    w = (0.5, 0.25, 0.25)
    got = power_mean_multi(diags, w, p)
    for i in range(2):
        entries = [d[i, i] for d in diags]
        if p == 0.0:
            want = math.exp(sum(a * math.log(x) for a, x in zip(w, entries)))
        else:
            want = sum(a * x**p for a, x in zip(w, entries)) ** (1.0 / p)
        assert got[i, i] == pytest.approx(want, abs=1e-12)
    assert np.max(np.abs(got - np.diag(np.diag(got)))) <= 1e-12


def test_multi_spectrum_matches_matrix():
    mats = [random_pd(4, 1.0, s) for s in (70, 71, 72)]
    w = (0.3, 0.3, 0.4)
    for p in (-1.0, 0.0, 2.0):
        s = MultiTable(mats, w).power_mean_spectrum(p)
        lam = eigenvalues_desc(power_mean_multi(mats, w, p))
        assert np.max(np.abs(s - lam) / (1.0 + np.abs(lam))) <= 1e-9


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_pair_power_mean_is_the_weighted_family_bitwise(t):
    # The two-matrix power mean is the weighted power mean with weights
    # (1-t, t), and the log-Euclidean mean is its p = 0: the same bits.
    a = random_pd(4, 1.5, 81)
    b = random_pd(4, 1.5, 82)
    for p in DEFAULT_P_GRID:
        pair = PairTable(a, b)
        multi = MultiTable((a, b), (1.0 - t, t))
        assert pair.power_mean_spectrum(t, p).tobytes() == multi.power_mean_spectrum(p).tobytes()
        assert pair.power_mean(t, p).tobytes() == multi.power_mean(p).tobytes()
    le = log_euclidean(a, b, t)
    assert le.tobytes() == PairTable(a, b).power_mean(t, 0.0).tobytes()


def test_multi_validation_errors():
    a = random_pd(3, 1.0, 1)
    b = random_pd(2, 1.0, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        power_mean_multi([a, b], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="sum to 1"):
        power_mean_multi([a, a], [0.5, 0.6], 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        power_mean_multi([a, a], [1.5, -0.5], 1.0)
    with pytest.raises(ValueError, match="weights"):
        power_mean_multi([a, a, a], [0.5, 0.5], 1.0)


# --- unitary factor -------------------------------------------------------------------
# The midpoint geometric mean is A^{1/2} U B^{1/2} with U orthogonal.


def unitary_factor(a, b):
    return pd_power(a, -0.5) @ geometric_mean(a, b, 0.5) @ pd_power(b, -0.5)


def test_unitary_factor_identity():
    assert unitary_factor(np.eye(3), np.eye(3)) == pytest.approx(np.eye(3), abs=1e-10)


def test_unitary_factor_commuting_is_identity():
    a, b = np.diag([4.0, 9.0]), np.diag([2.0, 5.0])
    assert unitary_factor(a, b) == pytest.approx(np.eye(2), abs=1e-10)


def test_unitary_factor_contract_on_reference_pair():
    a, b = paper_pair()
    u = unitary_factor(a, b)
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-8
    recon = pd_power(a, 0.5) @ u @ pd_power(b, 0.5)
    g = geometric_mean(a, b, 0.5)
    assert np.max(np.abs(recon - g)) <= 1e-8 * (1.0 + np.max(np.abs(g)))


# --- config dataclasses ----------------------------------------------------------------


def test_weight_vector_validation():
    WeightVector((0.25, 0.75))
    with pytest.raises(ValueError):
        WeightVector(())
    with pytest.raises(ValueError):
        WeightVector((0.7, 0.7))
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))
    assert len(WeightVector.coerce([0.5, 0.5])) == 2


# --- stacked grid builds give the bits of the point-by-point builds -----------

# numpy's power rounds differently from Python's x ** p for most exponents:
# -4, -0.1, 0.375 and 4 among them.
_EXPONENTS = (-4.0, -0.1, 0.0, 0.375, 1.0, 4.0)
_TS = (0.0, 0.25, 0.5, 1.0)


def _same_bits(stacked, build, points):
    """The stacked build has the bits of ``build(*point)`` for each point, or it
    raises and so does the build of some point (at cond 4 a matrix may not be
    positive definite)."""
    try:
        stack = stacked(points)
    except ValueError:
        with pytest.raises(ValueError):
            for point in points:
                build(*point)
        return
    assert len(stack) == len(points)
    for got, point in zip(stack, points):
        want = build(*point)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7),
    st.sampled_from([0.0, 1.5, 4.0]),
    st.integers(0, 10_000),
    st.lists(st.sampled_from(_EXPONENTS), min_size=1, max_size=8),
)
def test_stacked_builds_are_the_point_builds_bitwise(n, cond, seed, exps):
    a, b, c = (random_pd(n, cond, seed + i) for i in range(3))
    grid_pair, pair = PairTable(a, b), PairTable(a, b)
    xs = [(x,) for x in exps]

    # The references are the point builds each table matrix had before its
    # grid builder became its only builder.
    def term(table, i, p):
        return pd_log(table.eig(i)) if p == 0.0 else pd_power(table.eig(i), p)

    def aggregate(table, weights, p):
        return symmetrize(functools.reduce(
            operator.add, (w * term(table, i, p) for i, w in enumerate(weights))))

    def geometric(t):
        rh, ec = pair._congruence()
        return symmetrize(rh @ pd_power(ec, t) @ rh)

    def sandwich_matrix(t, p):
        if pair._sandwich_via_factor(t, p):
            return pair._sandwich_block(t, p)
        bt = pd_power(pair.eig(1), t * p / 2.0)
        return symmetrize(bt @ pd_power(pair.eig(0), (1.0 - t) * p) @ bt)

    def product(t, p):
        ah = pd_power(pair.eig(0), (1.0 - t) * p / 2.0)
        return symmetrize(ah @ pd_power(pair.eig(1), t * p) @ ah)

    for i in (0, 1):
        _same_bits(lambda pts: pd_power(grid_pair.eig(i), exps),
                   lambda x: pd_power(pair.eig(i), x), xs)
        _same_bits(lambda pts: grid_pair._powers(i, exps), lambda x: term(pair, i, x), xs)
    tp = [(t, p) for t in _TS for p in exps]
    _same_bits(grid_pair._grid_power_aggregate, lambda t, p: aggregate(pair, (1.0 - t, t), p), tp)
    _same_bits(grid_pair._grid_product, product, tp)
    _same_bits(grid_pair._grid_geometric, geometric, [(t,) for t in _TS])
    pos = [(t, p) for t, p in tp if p > 0.0]
    _same_bits(grid_pair._grid_sandwich_matrix, sandwich_matrix, pos)

    weights = (0.2, 0.3, 0.5)
    grid_multi, multi = MultiTable((a, b, c), weights), MultiTable((a, b, c), weights)
    _same_bits(grid_multi._grid_power_aggregate,
               lambda p: aggregate(multi, multi.checked().alphas, p), xs)
    _same_bits(grid_multi._grid_power_sum, lambda p: aggregate(multi, (1.0, 1.0, 1.0), p), xs)


def _reads(table):
    """Every spectrum read of the stacked entries, with its value or error text."""
    out = []
    for t in (0.25, 0.5):
        for name, args in (("geometric", (t,)), ("power_aggregate", (t, 0.0)),
                           ("power_aggregate", (t, 4.0)), ("sandwich_matrix", (t, 4.0)),
                           ("product", (t, -4.0))):
            try:
                out.append(table.spectrum(name, *args).tobytes())
            except Exception as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


def _not_pd(low, high):
    """The error texts of ``_reads`` when B is not positive definite."""
    b = f"ValueError: b is not positive definite (smallest eigenvalue {low})"
    log = f"ValueError: matrix logarithm requires positive definiteness: eigenvalue range [{low}, {high}]"
    power = f"ValueError: matrix is not positive definite: eigenvalue range [{low}, {high}]"
    return [b, log, power, b, power] * 2


_OVERFLOW = ("ValueError: spectral function undefined at eigenvalue np.float64(1.17e+77): "
             "(34, 'Numerical result out of range')")


@pytest.mark.parametrize(
    "b, errors",
    [
        # Not positive definite: a negative eigenvalue, then smallest
        # eigenvalues below n * PD_REL_FACTOR times the largest.
        (np.diag([2.0, -1.0, 1.0]), _not_pd("-1.000000e+00", "2.000000e+00")),
        (np.diag([1e90, 1.0, 3.0]), _not_pd("1.000000e+00", "1.000000e+90")),
        (np.diag([1e9, 1.0, 1e-9]), _not_pd("1.000000e-09", "1.000000e+09")),
        # B^4 overflows: a non-finite power in the grid at p = 4 only.
        (np.diag([1.17e77, 1e77, 1e76]), [None, None, _OVERFLOW, None, None] * 2),
        # Every sandwich at p = 4 is past the range limit: the factor form.
        (np.diag([1e5, 1.0, 1e-5]), [None] * 10),
    ],
    ids=["b0", "b1", "b2", "b3", "b4"],
)
def test_prefill_of_a_grid_that_cannot_stack_reads_as_a_fresh_table(b, errors):
    # B's table is member 1 of a stack whose member 0 solves everything.
    a = random_pd(3, 1.0, 9)
    table = PairTable(a, b)
    stack = means.PairStack([PairTable(a, random_pd(3, 1.0, 10)), table], 3)
    axes = ((0.25, 0.5), (0.0, 4.0, -4.0))
    requests = [(name, tuple(itertools.product(*axes)))
                for name in ("power_aggregate", "sandwich_matrix", "product")]
    means.prefill([(stack, name, pts) for name, pts in requests]
                  + [(stack, "geometric", tuple((t,) for t in axes[0]))])
    # A stacked read has the bits of each member's point reads where it is ok,
    # and is not ok for B's member wherever one of its point reads raises.
    fresh = [PairTable(a, random_pd(3, 1.0, 10)), PairTable(a, b)]
    for name, pts in requests:
        lam, ok = stack.spectra(name, pts)
        for i, tb in enumerate(fresh):
            try:
                want = [tb.spectrum(name, *pt) for pt in pts]
            except ValueError:
                assert not ok[i]
                continue
            if ok[i]:  # a factor block keeps the upper half of its spectrum
                assert [x.tobytes() for x in lam[i]] == [w[:3].tobytes() for w in want]
    assert stack.spectra("power_aggregate", requests[0][1])[1][0]
    # A member left out of its group's run reads its own table, as a fresh one does.
    got = _reads(table)
    assert [r if isinstance(r, str) else None for r in got] == errors
    assert got == _reads(PairTable(a, b))


def test_prefill_of_a_multi_grid_with_a_non_pd_member_reads_as_a_fresh_table():
    mats = (random_pd(3, 1.0, 1), np.diag([1.0, 0.0, 2.0]), random_pd(3, 1.0, 2))
    table = MultiTable(mats, (0.2, 0.3, 0.5))
    good = MultiTable((mats[0], mats[2]), (0.4, 0.6))
    stack = means.MultiStack([good, table], 3)
    means.prefill([(stack, "power_aggregate", ((0.0,), (1.0,))), (stack, "power_sum", ((1.0,),))])
    # The aggregate checks the matrices and raises: nothing of it solved.
    # The power sum takes only powers, whose checks raise as well.
    assert list(stack.power_mean_spectra((1.0,))[1]) == [True, False]
    assert list(stack.spectra("power_sum", ((1.0,),))[1]) == [True, False]
    assert stack.power_mean_spectra((1.0,))[0][0].tobytes() == good.power_mean_spectrum(1.0).tobytes()
    fresh = MultiTable(mats, (0.2, 0.3, 0.5))
    texts = (
        "matrix 1 is not positive definite (smallest eigenvalue 0.000000e+00)",
        "matrix is not positive definite: eigenvalue range [0.000000e+00, 2.000000e+00]",
    )
    for read, text in zip((lambda tb: tb.power_mean_spectrum(1.0),
                           lambda tb: tb.spectrum("power_sum", 1.0)), texts):
        for tb in (table, fresh):
            with pytest.raises(ValueError) as got:
                read(tb)
            assert str(got.value) == text
