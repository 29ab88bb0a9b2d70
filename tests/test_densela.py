import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmeans import densela
from matmeans.densela import (
    EigenDecomposition,
    JacobiConvergenceError,
    format_matrix,
    parse_matrix,
    pd_log,
    pd_power,
    random_pd,
    read_matrix,
    require_pd,
    singular_values,
    sym_eigen,
    sym_eigen_batch,
    sym_exp,
    write_matrix,
)


def eig2x2_oracle(m):
    """Roots of the characteristic polynomial of a symmetric 2x2 matrix."""
    a, b, c = m[0][0], m[0][1], m[1][1]
    tr = a + c
    det = a * c - b * b
    disc = math.sqrt(tr * tr / 4.0 - det)
    return tr / 2.0 + disc, tr / 2.0 - disc


def inv2x2_oracle(m):
    a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


# --- sym_eigen --------------------------------------------------------------


def test_sym_eigen_diagonal_sorted_with_permutation():
    e = sym_eigen(np.diag([1.0, 5.0, 2.0]))
    assert np.array_equal(e.lam, [5.0, 2.0, 1.0])
    # eigenvector matrix is a signed permutation
    assert np.array_equal(np.abs(e.q), np.eye(3)[:, [1, 2, 0]])


def test_sym_eigen_2x2_matches_characteristic_polynomial():
    m = [[2.0, 1.0], [1.0, 2.0]]
    hi, lo = eig2x2_oracle(m)
    e = sym_eigen(m)
    assert e.lam == pytest.approx([hi, lo], abs=1e-12)
    assert (hi, lo) == (3.0, 1.0)


def test_sym_eigen_identity():
    e = sym_eigen(np.eye(4))
    assert np.array_equal(e.lam, np.ones(4))
    assert np.array_equal(e.q, np.eye(4))


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eigen_sweep_limit_reports_residual():
    m = random_symmetric(5, 99)
    with pytest.raises(JacobiConvergenceError) as exc:
        sym_eigen(m, max_sweeps=0)
    assert exc.value.residual > 0.0


def test_sym_eigen_stable_tie_order():
    e = sym_eigen(np.diag([3.0, 3.0, 1.0]))
    # equal eigenvalues keep their diagonal order
    assert np.array_equal(np.abs(e.q), np.eye(3))


def test_sym_eigen_retains_nothing():
    # sym_eigen is a pure function: no cache keeps a decomposition alive.
    e = sym_eigen(random_symmetric(4, 3))
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("seed", range(40))
def test_reconstruction_and_orthogonality(seed):
    n = 2 + seed % 7
    s = random_symmetric(n, seed)
    e = sym_eigen(s)
    scale = 1.0 + np.max(np.abs(s))
    assert np.max(np.abs(e.reconstruct() - s)) <= 1e-9 * scale
    assert np.max(np.abs(e.q.T @ e.q - np.eye(n))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_reconstruction_property(seed, n):
    s = random_symmetric(n, seed)
    e = sym_eigen(s)
    assert np.all(np.diff(e.lam) <= 0.0)
    assert np.max(np.abs(e.reconstruct() - s)) <= 1e-9 * (1.0 + np.max(np.abs(s)))


def test_sym_eigen_agrees_with_lapack():
    for seed in range(10):
        s = random_symmetric(6, seed)
        lam = sym_eigen(s).lam
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert lam == pytest.approx(ref, abs=1e-12 * (1.0 + np.max(np.abs(ref))))


# --- the spectrum-only mode ---------------------------------------------------
#
# The spectrum-only mode skips only the eigenvector updates, so its
# eigenvalues, and its convergence errors, must be the bits of a full solve.


def _assert_modes_agree(m):
    for max_sweeps in (0, 1, densela.JACOBI_MAX_SWEEPS):
        try:
            full = sym_eigen(m, max_sweeps)
        except JacobiConvergenceError as exc:
            with pytest.raises(JacobiConvergenceError) as again:
                sym_eigen(m, max_sweeps, vectors=False)
            assert str(again.value) == str(exc)
            continue
        lam_only = sym_eigen(m, max_sweeps, vectors=False)
        assert lam_only.q is None
        assert lam_only.lam.tobytes() == full.lam.tobytes()


def _tied_pd(n, seed):
    """Random orthogonal conjugate of a spectrum with every eigenvalue doubled."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.repeat(rng.uniform(1.0, 4.0, (n + 1) // 2), 2)[:n]
    s = (q * lam) @ q.T
    return (s + s.T) * 0.5


def _sparse_symmetric(n, seed):
    """Random symmetric matrix with about half its off-diagonal pairs exactly zero."""
    rng = np.random.default_rng(seed)
    m = random_symmetric(n, seed)
    mask = np.triu(rng.random((n, n)) < 0.5, 1)
    m[mask | mask.T] = 0.0
    return m


_SMALL_INPUTS = st.one_of(
    st.builds(
        random_pd,
        st.integers(1, 8),
        st.sampled_from([0.0, 1.5, 4.0, 8.0]),
        st.integers(0, 10_000),
    ),
    st.builds(_tied_pd, st.integers(2, 8), st.integers(0, 10_000)),
    st.builds(np.eye, st.integers(1, 8)),
    st.builds(_sparse_symmetric, st.integers(2, 8), st.integers(0, 10_000)),
)


@settings(max_examples=60, deadline=None)
@given(_SMALL_INPUTS)
def test_modes_agree_bitwise(m):
    _assert_modes_agree(m)


# --- the batched spectrum-only kernel ------------------------------------------
#
# Member i of sym_eigen_batch must be the bits of sym_eigen(m_i, vectors=False),
# or the error that call raises, whatever the stack holds beside it.


def _scalar_spectrum(m, max_sweeps):
    try:
        return sym_eigen(m, max_sweeps, vectors=False)
    except (ValueError, JacobiConvergenceError) as exc:
        return exc


def _assert_batch_matches(mats, max_sweeps=densela.JACOBI_MAX_SWEEPS):
    lam, errors = sym_eigen_batch(mats, max_sweeps)
    assert lam.shape == (len(mats), np.shape(mats[0])[0])
    for i, m in enumerate(mats):
        ref = _scalar_spectrum(m, max_sweeps)
        if isinstance(ref, Exception):
            e = errors[i]
            assert type(e) is type(ref) and str(e) == str(ref)
            assert np.isnan(lam[i]).all()
        else:
            assert i not in errors
            assert lam[i].tobytes() == ref.lam.tobytes()


def _block_diagonal(n, seed):
    """Two positive definite blocks with exactly zero coupling."""
    k = n // 2
    m = np.zeros((n, n))
    m[:k, :k] = random_pd(k, 1.5, seed)
    m[k:, k:] = random_pd(n - k, 1.5, seed + 1)
    return m


def _coupled_identity(n, seed):
    """The identity with only its first and last indices coupled: its other
    pivots are exact zeros between equal diagonal entries."""
    m = np.eye(n)
    m[0, n - 1] = m[n - 1, 0] = np.random.default_rng(seed).uniform(-1.0, 1.0)
    return m


_MEMBER_KINDS = (
    lambda n, seed: random_pd(n, 0.0, seed),
    lambda n, seed: random_pd(n, 1.5, seed),
    lambda n, seed: random_pd(n, 4.0, seed),
    lambda n, seed: random_pd(n, 8.0, seed),
    random_symmetric,  # indefinite
    lambda n, seed: _tied_pd(n, seed) if n > 1 else np.eye(1),
    lambda n, seed: np.eye(n),
    lambda n, seed: _sparse_symmetric(n, seed) if n > 1 else np.zeros((1, 1)),
    lambda n, seed: _block_diagonal(n, seed) if n > 1 else np.eye(1),
    _coupled_identity,
)


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 8))
    size = draw(st.sampled_from([1, 7, densela._BATCH_MIN - 1, densela._BATCH_MIN, 45]))
    kinds = draw(st.lists(st.integers(0, len(_MEMBER_KINDS) - 1), min_size=size, max_size=size))
    seed = draw(st.integers(0, 10_000))
    return [_MEMBER_KINDS[k](n, seed + i) for i, k in enumerate(kinds)]


@settings(max_examples=40, deadline=None)
@given(_stacks(), st.sampled_from([0, 1, densela.JACOBI_MAX_SWEEPS]))
def test_batch_matches_sym_eigen_bitwise(mats, max_sweeps):
    _assert_batch_matches(mats, max_sweeps)


def test_batch_matches_sym_eigen_up_to_order_16():
    # The batch takes each threshold from a row-wise sum of squares, which
    # must round as the per-matrix sum does at every order solved.
    for n in range(1, 17):
        _assert_batch_matches(
            [random_pd(n, cond, 100 * n + i) for cond in (1.5, 8.0) for i in range(20)]
        )


def _first_converging_sweep(m):
    for sweeps in range(densela.JACOBI_MAX_SWEEPS + 1):
        if not isinstance(_scalar_spectrum(m, sweeps), Exception):
            return sweeps
    return None


def test_batch_members_converge_and_fail_at_their_own_sweeps():
    mats = [np.eye(5), np.diag([3.0, 2.0, 1.0, 4.0, 5.0]), _coupled_identity(5, 3)]
    mats += [random_pd(5, cond, seed) for cond in (0.5, 1.5, 4.0, 8.0) for seed in range(10)]
    assert len({_first_converging_sweep(m) for m in mats}) >= 3
    assert len(mats) >= densela._BATCH_MIN
    for max_sweeps in range(0, 8):
        _assert_batch_matches(mats, max_sweeps)
    errors = list(sym_eigen_batch(mats, 1)[1].values())
    assert errors and all(isinstance(e, JacobiConvergenceError) for e in errors)
    assert all("did not converge after 1 sweeps" in str(e) for e in errors)


def test_batch_bad_member_raises_its_own_error_beside_good_ones():
    mats = [random_pd(4, 1.5, seed) for seed in range(40)]
    nan = mats[3].copy()
    nan[1, 2] = nan[2, 1] = math.nan
    inf = mats[5].copy()
    inf[0, 0] = math.inf
    skew = mats[7].copy()
    skew[0, 1] += 1e-3
    mats[3], mats[5], mats[7] = nan, inf, skew
    _, got = sym_eigen_batch(mats)
    assert sorted(got) == [3, 5, 7]
    assert str(got[3]) == str(got[5]) == "matrix has non-finite entries"
    assert isinstance(got[7], ValueError) and "is not symmetric" in str(got[7])
    _assert_batch_matches(mats)


def test_batch_small_stacks_and_shape_errors():
    lam, errors = sym_eigen_batch(np.empty((0, 3, 3)))
    assert lam.shape == (0, 3) and errors == {}
    _assert_batch_matches([random_pd(3, 1.5, 1)])
    with pytest.raises(ValueError, match="stack of square matrices"):
        sym_eigen_batch([np.ones((2, 3))] * densela._BATCH_MIN)
    with pytest.raises(ValueError, match=r"^matrix must be square with n >= 1, got shape \(2, 3\)$"):
        densela.as_square_matrix(np.ones((2, 3)))


# --- matrices far from unit scale --------------------------------------------
#
# The sweeps square the entries, so a matrix whose largest |entry| lies
# outside [2^-400, 2^400) is solved scaled by a power of two, which is exact.


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170, 1e300, 1e-300])
def test_far_scaled_spectra_match_lapack(scale):
    for m in (np.array([[1.0, 0.5], [0.5, 1.0]]), random_pd(5, 1.5, 3)):
        s = m * scale
        ref = np.linalg.eigvalsh(s)[::-1]
        batch = sym_eigen_batch([s] * densela._BATCH_MIN)[0][0]
        for lam in (sym_eigen(s).lam, sym_eigen(s, vectors=False).lam, batch):
            assert lam == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert np.max(np.abs(sym_eigen(s).reconstruct() - s)) <= 1e-12 * scale


# Hypothesis favours small integers: draw half the exponents beyond the range.
_EXPONENTS = st.one_of(st.integers(-700, 700), st.integers(-700, -401), st.integers(401, 700))


@settings(max_examples=60, deadline=None)
@given(_SMALL_INPUTS, _EXPONENTS, st.sampled_from([0, 1, densela.JACOBI_MAX_SWEEPS]))
def test_power_of_two_scaling_is_exact(m, k, max_sweeps):
    ref = _scalar_spectrum(m, max_sweeps)
    got = _scalar_spectrum(np.ldexp(m, k), max_sweeps)
    if isinstance(ref, JacobiConvergenceError):
        assert (got.residual, got.threshold) == (math.ldexp(ref.residual, k),
                                                 math.ldexp(ref.threshold, k))
    else:
        assert got.lam.tobytes() == np.ldexp(ref.lam, k).tobytes()
        full = sym_eigen(np.ldexp(m, k), max_sweeps)
        assert full.lam.tobytes() == got.lam.tobytes()


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000),
       st.lists(_EXPONENTS, min_size=densela._BATCH_MIN, max_size=densela._BATCH_MIN))
def test_batch_power_of_two_scaling_is_exact(n, seed, ks):
    mats = [_MEMBER_KINDS[i % len(_MEMBER_KINDS)](n, seed + i) for i in range(len(ks))]
    got, _ = sym_eigen_batch([np.ldexp(m, k) for m, k in zip(mats, ks)])
    for m, k, lam in zip(mats, ks, got):
        assert lam.tobytes() == np.ldexp(sym_eigen(m, vectors=False).lam, k).tobytes()
    for max_sweeps in (0, 1):
        _assert_batch_matches([np.ldexp(m, k) for m, k in zip(mats, ks)], max_sweeps)


def test_spectrum_only_result_cannot_apply_or_reconstruct():
    e = sym_eigen(random_pd(3, 1.0, 4), vectors=False)
    assert e.q is None
    with pytest.raises(ValueError, match="spectrum-only"):
        e.apply(math.sqrt)
    with pytest.raises(ValueError, match="spectrum-only"):
        e.reconstruct()


# --- EigenDecomposition.apply ------------------------------------------------


def test_apply_identity_function():
    s = random_symmetric(4, 7)
    assert np.max(np.abs(sym_eigen(s).apply(lambda x: x) - s)) <= 1e-9


def test_apply_square_diagonal():
    got = sym_eigen(np.diag([2.0, 3.0])).apply(lambda x: x * x)
    assert got == pytest.approx(np.diag([4.0, 9.0]), abs=1e-12)


def test_apply_square_matches_multiply():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert sym_eigen(m).apply(lambda x: x * x) == pytest.approx(m @ m, abs=1e-12)
    assert m @ m == pytest.approx(np.array([[5.0, 4.0], [4.0, 5.0]]))


def test_apply_undefined_at_eigenvalue():
    with pytest.raises(ValueError, match="undefined|non-finite"):
        sym_eigen(np.diag([1.0, -1.0])).apply(math.log)
    with pytest.raises(ValueError, match="^spectral function returned non-finite value inf "):
        sym_eigen(np.diag([2.0, 1.0])).apply(lambda x: math.inf)


# --- pd_power / pd_log / sym_exp --------------------------------------------


def test_pd_power_sqrt_diagonal():
    assert pd_power(np.diag([4.0, 9.0]), 0.5) == pytest.approx(
        np.diag([2.0, 3.0]), abs=1e-12
    )


def test_pd_power_exponent_identities():
    a = random_pd(4, 1.0, 5)
    assert pd_power(a, 1.0) == pytest.approx(a, abs=1e-12 * np.max(np.abs(a)))
    assert np.array_equal(pd_power(a, 0.0), np.eye(4))


def test_pd_power_inverse_matches_2x2_formula():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = inv2x2_oracle(m)
    assert expected == pytest.approx(np.array([[2, -1], [-1, 2]]) / 3.0)
    assert pd_power(m, -1.0) == pytest.approx(expected, abs=1e-12)


def test_pd_power_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive definite"):
        pd_power(np.diag([1.0, -1.0]), 0.5)


@pytest.mark.parametrize("p", [-1.0, -0.5, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [-1.0, -0.5, 0.5, 1.0, 2.0])
def test_pd_power_addition_law(p, q):
    a = random_pd(5, 1.0, 123)
    lhs = pd_power(a, p) @ pd_power(a, q)
    rhs = pd_power(a, p + q)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * (1.0 + np.max(np.abs(rhs)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([0.0, 1.5, 4.0]),
    st.integers(0, 10_000),
    st.lists(st.sampled_from([-4.0, -0.5, -0.1, 0.0, -0.0, 0.375, 1.0, 2.0, 4.0]),
             min_size=1, max_size=8),
)
def test_pd_power_of_a_list_stacks_the_calls_bitwise(n, cond, seed, exps):
    e = sym_eigen(random_pd(n, cond, seed))
    try:
        want = [pd_power(e, x) for x in exps]
    except ValueError:  # at cond 4 a matrix may not be positive definite
        with pytest.raises(ValueError):
            pd_power(e, exps)
        return
    for seq in (exps, tuple(exps)):
        got = pd_power(e, seq)
        assert got.shape == (len(exps), n, n)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


_NOT_PD = np.diag([2.0, -1.0, 1.0])
_HUGE = np.diag([1e90, 1e89, 1e88])  # positive definite, but its 4th power overflows


@pytest.mark.parametrize(
    "m, exps, text",
    [
        (_NOT_PD, [1.0, math.nan],
         "matrix is not positive definite: eigenvalue range [-1.000000e+00, 2.000000e+00]"),
        (_NOT_PD, [math.inf, 1.0], "exponent must be finite, got inf"),
        (_HUGE, [1.0, 4.0, math.nan],
         "spectral function undefined at eigenvalue 1e+90: "
         "(34, 'Numerical result out of range')"),
        (_HUGE, [1.0, -math.inf], "exponent must be finite, got -inf"),
    ],
)
def test_pd_power_of_a_list_raises_what_its_first_failing_call_raises(m, exps, text):
    with pytest.raises(ValueError) as first:
        for x in exps:
            pd_power(m, x)
    assert str(first.value) == text
    for a in (m, sym_eigen(m)):
        with pytest.raises(ValueError) as got:
            pd_power(a, exps)
        assert str(got.value) == text


def test_symmetrize_of_a_stack_is_each_symmetrize():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 3))
    got = densela.symmetrize(x)
    assert all(g.tobytes() == densela.symmetrize(m).tobytes() for g, m in zip(got, x))
    x[2, 0, 1] = math.inf
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        densela.symmetrize(x)


def test_pd_log_identity_and_exp_zero():
    assert pd_log(np.eye(3)) == pytest.approx(np.zeros((3, 3)), abs=1e-12)
    assert sym_exp(np.zeros((3, 3))) == pytest.approx(np.eye(3), abs=1e-12)


def test_pd_log_diagonal():
    assert pd_log(np.diag([math.e, 1.0])) == pytest.approx(np.diag([1.0, 0.0]), abs=1e-12)


def test_exp_log_round_trip_seed42():
    a = random_pd(5, 1.5, 42)
    back = sym_exp(pd_log(a))
    assert np.max(np.abs(back - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))


def test_pd_log_rejects_singular():
    with pytest.raises(ValueError, match="positive definite"):
        pd_log(np.diag([1.0, 0.0]))


def test_sym_exp_overflow_is_an_error():
    with pytest.raises(ValueError, match="non-finite|undefined"):
        sym_exp(np.diag([1000.0, 0.0]))


# --- singular values ---------------------------------------------------------


def test_singular_values_rank_one():
    assert singular_values(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
        [2.0, 0.0], abs=1e-12
    )


def test_singular_values_orthogonal():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    assert singular_values(q) == pytest.approx(np.ones(4), abs=1e-10)


def test_singular_values_sign_flip():
    assert singular_values(np.diag([-3.0, 1.0])) == pytest.approx([3.0, 1.0], abs=1e-12)


def test_singular_values_of_psd_equal_eigenvalues():
    a = random_pd(5, 1.0, 77)
    sv = singular_values(a)
    lam = sym_eigen(a).lam
    assert np.max(np.abs(sv - lam)) <= 1e-9 * (1.0 + lam[0])


# x.T x is formed on x scaled by a power of two once its entries would leave
# the range that sym_eigen solves unscaled, or overflow.


@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 1e-300])
def test_singular_values_far_from_unit_scale(scale):
    assert singular_values(np.eye(2) * scale).tolist() == [scale, scale]
    x = np.random.default_rng(3).standard_normal((5, 5))
    ref = np.linalg.svd(x * scale, compute_uv=False)
    assert singular_values(x * scale) == pytest.approx(ref, rel=1e-12, abs=0.0)


_GRAM_INPUTS = _SMALL_INPUTS | st.builds(
    lambda n, seed: np.random.default_rng(seed).standard_normal((n, n)),
    st.integers(1, 8), st.integers(0, 10_000),
)


@settings(max_examples=60, deadline=None)
@given(_GRAM_INPUTS, _EXPONENTS)
def test_singular_values_power_of_two_scaling_is_exact(m, k):
    assert singular_values(np.ldexp(m, k)).tobytes() == np.ldexp(singular_values(m), k).tobytes()


# --- require_pd --------------------------------------------------------------


def test_is_pd_identity():
    assert np.array_equal(require_pd(np.eye(3)), np.eye(3))


def test_is_pd_indefinite():
    with pytest.raises(ValueError, match=r"smallest eigenvalue -1\.0+e\+00"):
        require_pd(np.diag([1.0, -1.0]))


def test_is_pd_strict_rejects_near_singular():
    # Strict definiteness needs smallest > n * 1e-13 * largest.
    with pytest.raises(ValueError, match="not positive definite"):
        require_pd(np.diag([1.0, 1e-15]))
    require_pd(np.diag([1.0, 1e-12]))


# --- random_pd ---------------------------------------------------------------


def test_random_pd_condition_one_is_identity():
    m = random_pd(3, 0.0, 12345)
    assert np.max(np.abs(m - np.eye(3))) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_random_pd_deterministic(seed, n):
    assert np.array_equal(random_pd(n, 2.0, seed), random_pd(n, 2.0, seed))


def test_random_pd_eigenvalue_bounds():
    m = random_pd(4, 3.0, 7)
    require_pd(m)
    lam = sym_eigen(m).lam
    assert lam[-1] >= 1e-3 * (1.0 - 1e-9)
    assert lam[0] <= 1e3 * (1.0 + 1e-9)


def test_random_pd_rejects_bad_args():
    with pytest.raises(ValueError):
        random_pd(0, 1.0, 1)
    with pytest.raises(ValueError):
        random_pd(3, -1.0, 1)
    for cond in (math.inf, math.nan):
        with pytest.raises(ValueError, match="cond_exponent must be finite"):
            random_pd(3, cond, 1)


# --- matrix text format ------------------------------------------------------


def test_format_parse_round_trip_exact():
    m = random_pd(4, 2.0, 9)
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=4,
        max_size=4,
    )
)
def test_round_trip_property(entries):
    m = np.array(entries).reshape(2, 2)
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


def test_file_round_trip(tmp_path):
    m = random_pd(5, 1.5, 21)
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


@pytest.mark.parametrize(
    "text",
    ["", "x\n1\n", "2\n1 2\n", "2\n1 2\n3\n", "1\nnope\n", "0\n"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix(text)


def test_decomposition_is_immutable():
    e = sym_eigen(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        e.lam[0] = 5.0
    assert isinstance(e, EigenDecomposition)
