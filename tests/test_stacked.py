"""The stacked forms a group applies to its members give each member's point bits.

A group of same-dimension instances reads its spectra as arrays whose leading
axis is the member, and applies each expression once to the whole stack.
Member i of every such result must be, bit for bit, what the expression
gives on member i's own vector or matrix, whatever the memory layout of the
stack: C order, F order or a strided view.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matmeans.densela import _BATCH_MIN, random_pd, sym_eigen, sym_eigen_batch
from matmeans.means import PairTable
from matmeans.spectra import log_prefix
from matmeans.suite import BK_EXPONENTS, DEFAULT_P_GRID, DEFAULT_T_VALUES, _row_sums

# Every scalar exponent the group path raises a stack to: the roots 1/p and
# 2/p, the BK exponents, the t grid and the square.
_EXPONENTS = sorted(
    {1.0 / p for p in DEFAULT_P_GRID if p}
    | {2.0 / p for p in DEFAULT_P_GRID if p > 0}
    | set(BK_EXPONENTS)
    | set(DEFAULT_T_VALUES)
    | {2.0}
)

_FORMS = {
    "exp": np.exp,
    "sqrt": np.sqrt,
    "log_prefix": log_prefix,
    "cumsum": lambda x: np.cumsum(x, axis=-1),
    # Not np.sum: from n = 8 its pairwise order holds only on contiguous rows.
    "sum": _row_sums,
    "descending sort": lambda x: np.sort(x, axis=-1)[..., ::-1],
}


def _layout(x: np.ndarray, layout: str) -> np.ndarray:
    """x with the same values in C order, F order or as a strided view."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    return np.ascontiguousarray(x)


@st.composite
def _stacks(draw):
    """A (members, points, n) stack of spectra-like values in some layout."""
    members, points, n = draw(st.integers(1, 40)), draw(st.integers(1, 5)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.exp(rng.uniform(-30.0, 30.0, (members, points, n)))
    if draw(st.booleans()):  # rounded negative eigenvalues, zeros and NaN
        x[rng.random(x.shape) < 0.1] *= -1e-12
        x[rng.random(x.shape) < 0.05] = 0.0
        x[rng.random(x.shape) < 0.02] = np.nan
    return _layout(x, draw(st.sampled_from(["C", "F", "strided"])))


def _assert_each_member(stacked, point, x):
    with np.errstate(all="ignore"):
        got = stacked(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                want = point(np.ascontiguousarray(x[i, j]))
                assert np.asarray(got[i, j]).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(_stacks(), st.sampled_from(_EXPONENTS))
def test_scalar_power_of_a_stack_is_each_members_power(x, e):
    # One call per exponent, always a Python float: numpy's power gives other
    # bits for an array of exponents.
    _assert_each_member(lambda s: s**e, lambda v: v**e, x)


@settings(max_examples=150, deadline=None)
@given(_stacks(), st.sampled_from(sorted(_FORMS)))
def test_elementwise_and_last_axis_forms_of_a_stack_are_each_members(x, form):
    f = _FORMS[form]
    _assert_each_member(f, np.sum if form == "sum" else f, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 40), st.integers(0, 10_000),
       st.sampled_from(["C", "F", "strided"]))
def test_kernel_spectra_of_a_stack_are_each_members(n, members, seed, layout):
    mats = np.array([random_pd(n, cond, seed + i) for i, cond in
                     zip(range(members), np.resize([0.0, 1.5, 4.0, 8.0], members))])
    lam, errors = sym_eigen_batch(_layout(mats, layout))
    assert errors == {}
    for m, row in zip(mats, lam):
        assert row.tobytes() == sym_eigen(m, vectors=False).lam.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.0, 10.0), st.integers(0, 10_000))
def test_the_arithmetic_path_at_its_ends_has_the_spectra_of_a_and_b(n, cond, seed):
    # A group reads the spectra of A and B as the arithmetic path at t = 0
    # and t = 1: random_pd is exactly symmetric, so symmetrize(1 A + 0 B) is
    # A up to the sign of zero entries, which Jacobi's eigenvalues ignore.
    table = PairTable(random_pd(n, cond, seed), random_pd(n, cond, seed + 1))
    try:
        table.checked()
    except ValueError:
        assume(False)
    ends = np.array([table.arithmetic(0.0), table.arithmetic(1.0)])
    want = [table.eig(0).lam.tobytes(), table.eig(1).lam.tobytes()]
    for stack in (ends, np.repeat(ends, _BATCH_MIN, axis=0)):  # looped, then stacked
        lam, errors = sym_eigen_batch(stack)
        assert errors == {}
        assert [row.tobytes() for row in lam] == [w for w in want for _ in range(len(stack) // 2)]
    assert [table.spectrum("arithmetic", t).tobytes() for t in (0.0, 1.0)] == want
