"""Two-matrix and multi-matrix means on the positive definite cone.

Every mean is built through the functional calculus of
:mod:`matmeans.densela`; results are explicitly symmetrized.  The power
mean is implemented once, as the weighted power mean
(sum_i w_i A_i^p)^{1/p}, which is exp(sum_i w_i log A_i) at p = 0; a pair
(A, B) takes weights (1-t, t), and its log-Euclidean mean is p = 0.  Each
mean that is a spectral transform of one aggregate also has a
``*_spectrum`` companion: its descending eigenvalues, from a spectrum-only
solve of the aggregate.

:class:`PairTable` (a pair A, B) and :class:`MultiTable` (weighted
A_1..A_m) compute the means.  Each matrix of a table is decomposed once,
with eigenvectors, and that decomposition validates it and gives its
powers and logarithm; every mean and spectrum is computed once, on first
use.  The property suite keeps one table per instance; each public
function checks its scalar arguments and reads one entry of a fresh table.

Every spectrum-only solve of a table matrix is a read of one entry,
``spectrum(name, *args)``, named after the matrix.  A matrix that the
checks read over a grid, such as the power aggregate over (t, p), has one
builder, the table's ``_grid_<name>(points)``, which returns the stack of
that matrix at every point; a read of one point takes entry 0 of a
one-point grid.  The powers over a whole exponent list come from one
``pd_power`` call, weighted sums are added in index order and products
are stacked ``matmul``s, which give the bits of the 2-D forms.
:func:`prefill` builds many such matrices ahead of their reads, solves
them by order with ``sym_eigen_batch`` and stores each spectrum that
solves where its read would store it; the reads stay as they are and
return the same bits.  Only the spectra are kept, not the matrices, and a
table never stores an error: a read that raised raises again when read
again.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densela import (
    EigenDecomposition,
    _gram,
    _gram_roots,
    pd_log,
    pd_power,
    require_pd_eigen,
    require_symmetric,
    sym_eigen,
    sym_eigen_batch,
    symmetrize,
)

__all__ = [
    "WeightVector",
    "PairTable",
    "MultiTable",
    "geometric_mean",
    "power_mean",
    "power_mean_spectrum",
    "log_euclidean",
    "log_euclidean_spectrum",
    "arithmetic_path",
    "sandwich_mean",
    "sandwich_mean_spectrum",
    "cross_term",
    "power_mean_multi",
    "power_mean_multi_spectrum",
    "prefill",
]

WEIGHT_SUM_TOL = 1e-12

# Beyond this eigenvalue range the assembled sandwich aggregate loses too
# much relative accuracy in its small eigenvalues; the spectrum is then
# taken from the half-power factor instead, which only squares half the
# exponent.
_SANDWICH_RANGE_LOG10_LIMIT = 8.0


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights summing to one."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) < 1:
            raise ValueError("weight vector must be nonempty")
        if any(a < 0.0 or not math.isfinite(a) for a in self.alphas):
            raise ValueError(f"weights must be finite and nonnegative: {self.alphas}")
        total = math.fsum(self.alphas)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}: sum={total!r}")

    @classmethod
    def coerce(cls, w) -> "WeightVector":
        if isinstance(w, WeightVector):
            return w
        return cls(tuple(float(a) for a in w))

    def __len__(self) -> int:
        return len(self.alphas)


def _check_t(t: float) -> float:
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return float(t)


def _check_sandwich_p(p: float) -> None:
    if not p > 0.0:
        raise ValueError(f"sandwich mean requires p > 0, got {p!r}")


def _require_positive_spectrum(lam: np.ndarray, what: str) -> None:
    if float(lam[-1]) <= 0.0:
        raise ValueError(f"{what} lost positivity (smallest eigenvalue {lam[-1]:.6e})")


def _root(agg: np.ndarray, p: float, what: str) -> np.ndarray:
    """agg^{1/p} of an aggregate that must be positive definite; exp(agg) at p = 0."""
    e = sym_eigen(agg)
    if p == 0.0:
        return e.apply(math.exp)
    _require_positive_spectrum(e.lam, what)
    return e.apply(lambda x: x ** (1.0 / p))


def _root_spectrum(lam: np.ndarray, p: float, what: str) -> np.ndarray:
    """Descending eigenvalues of ``_root(agg, p, what)`` from the spectrum ``lam`` of agg."""
    if p == 0.0:
        return np.exp(lam)
    _require_positive_spectrum(lam, what)
    return np.sort(lam ** (1.0 / p))[::-1]


def _entry(method):
    """A table entry: computed on its first read for given arguments, then reused.

    Only results are stored.  An entry whose computation raised is computed
    again on its next read and raises the same error, because every entry
    is a pure function of the table's matrices.
    """
    name = method.__name__

    @functools.wraps(method)
    def read(self, *args):
        key = (name, *args)
        value = self._memo.get(key)
        if value is None:  # no entry returns None
            value = self._memo[key] = method(self, *args)
        return value

    return read


class _Factored:
    """Matrices with their decompositions, powers, logarithms and weighted sums.

    Matrix i is decomposed once, with eigenvectors, for its validation, its
    powers and its logarithm; ``power`` and ``log`` have the checks of
    ``pd_power`` and ``pd_log``.  A grid builder ``_grid_<name>(points)``
    is the one builder of the table matrix ``name``: it returns the stack
    of that matrix at every point, or raises if the build of some point
    raises.  A read of one such matrix takes entry 0 of a one-point grid,
    whose error is that point's own.
    """

    def __init__(self, mats: Sequence):
        self._mats = tuple(mats)
        self._memo: dict = {}

    @_entry
    def eig(self, i: int) -> EigenDecomposition:
        return sym_eigen(self._mats[i])

    @_entry
    def power(self, i: int, p: float) -> np.ndarray:
        return pd_power(self.eig(i), p)

    @_entry
    def log(self, i: int) -> np.ndarray:
        return pd_log(self.eig(i))

    def _powers(self, i: int, exps: list) -> np.ndarray:
        """A_i^x for each x in ``exps``, stacked, with log A_i at x = 0.

        The logarithm is read first, so that at x = 0 alone the error is ``pd_log``'s.
        """
        log = self.log(i) if 0.0 in exps else None
        m = pd_power(self.eig(i), exps)
        if log is not None:
            m[[x == 0.0 for x in exps]] = log
        return m

    def _aggregate_grid(self, weights: list, exps: list) -> np.ndarray:
        """sum_i w_i A_i^p (sum_i w_i log A_i at p = 0) for each weight row w and
        exponent p, stacked; added in index order from the first term, not from
        0, so a pair's sum is the expression (1-t) X + t Y."""
        w = np.array(weights)[:, :, None, None]
        terms = (w[:, i] * self._powers(i, exps) for i in range(w.shape[1]))
        return symmetrize(functools.reduce(operator.add, terms))

    def _grid(self, name: str, points: list):
        """The table matrix ``name`` at each of ``points``: its grid builder, or
        ``getattr(self, name)(*point)`` per point for a matrix without one."""
        grid = getattr(self, f"_grid_{name}", None)
        if grid is None:
            return [getattr(self, name)(*args) for args in points]
        return grid(points)

    @_entry
    def spectrum(self, name: str, *args) -> np.ndarray:
        """Descending eigenvalues of the table matrix ``name`` at ``args``.

        Every spectrum-only solve of a table matrix is a read of this entry,
        so :func:`prefill` can solve many of them in one batch beforehand.
        """
        return sym_eigen(self._grid(name, [args])[0], vectors=False).lam

    def _require_pd(self, i: int, name: str) -> np.ndarray:
        """``require_pd`` of matrix i, on its decomposition ``eig(i)``."""
        m = require_symmetric(self._mats[i], name)
        require_pd_eigen(self.eig(i), name)
        return m


class PairTable(_Factored):
    """Every mean of one pair (A, B), each computed once on first use.

    Matrix 0 is A and matrix 1 is B.  The means validate A and B as strictly
    positive definite before anything else, once per table, and raise what
    the public functions raise.  The weight t is not checked here; the
    public functions check it.  The power mean is the weighted power mean
    with weights (1-t, t), and the log-Euclidean mean is its p = 0.
    """

    _AGGREGATE = "power mean aggregate"  # named in the positivity error, which reports pin

    def __init__(self, a, b):
        super().__init__((a, b))

    @_entry
    def checked(self) -> tuple[np.ndarray, np.ndarray]:
        """A and B validated as by ``require_pd``, with equal shapes."""
        am = self._require_pd(0, "a")
        bm = self._require_pd(1, "b")
        if am.shape != bm.shape:
            raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
        return am, bm

    def _end(self, t: float) -> int | None:
        """Weight-collapse endpoints: every interpolating mean equals A or B.

        Taking the exact endpoint avoids the p-th-power round trip, whose
        rounding grows like the condition number raised to |p|.
        """
        self.checked()
        if t == 0.0:
            return 0
        if t == 1.0:
            return 1
        return None

    @_entry
    def _congruence(self) -> tuple[np.ndarray, EigenDecomposition]:
        """A^{1/2} and the decomposition of A^{-1/2} B A^{-1/2}."""
        _, bm = self.checked()
        ea = self.eig(0)
        rh = ea.apply(math.sqrt)
        rih = ea.apply(lambda x: 1.0 / math.sqrt(x))
        return rh, sym_eigen(symmetrize(rih @ bm @ rih))

    @_entry
    def geometric(self, t: float) -> np.ndarray:
        return self._grid_geometric([(t,)])[0]

    def _grid_geometric(self, points) -> np.ndarray:
        """A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} for each (t,)."""
        rh, ec = self._congruence()
        return symmetrize(rh @ pd_power(ec, [t for t, in points]) @ rh)

    @_entry
    def geometric_spectrum(self, t: float) -> np.ndarray:
        return np.array(self.spectrum("geometric", t))

    def _grid_power_aggregate(self, points) -> np.ndarray:
        """(1-t) A^p + t B^p, or (1-t) log A + t log B at p = 0, for each (t, p)."""
        return self._aggregate_grid([(1.0 - t, t) for t, _ in points], [p for _, p in points])

    @_entry
    def power_mean(self, t: float, p: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return self.checked()[end].copy()
        return _root(self._grid_power_aggregate([(t, p)])[0], p, self._AGGREGATE)

    @_entry
    def power_mean_spectrum(self, t: float, p: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return np.array(self.eig(end).lam)
        return _root_spectrum(self.spectrum("power_aggregate", t, p), p, self._AGGREGATE)

    def log_euclidean(self, t: float) -> np.ndarray:
        return self.power_mean(t, 0.0)

    def log_euclidean_spectrum(self, t: float) -> np.ndarray:
        return self.power_mean_spectrum(t, 0.0)

    @_entry
    def arithmetic(self, t: float) -> np.ndarray:
        am, bm = self.checked()
        return symmetrize((1.0 - t) * am + t * bm)

    @_entry
    def arithmetic_spectrum(self, t: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return self.eig(end).lam
        return self.spectrum("arithmetic", t)

    def _grid_sandwich_aggregate(self, points) -> np.ndarray:
        """B^{tp/2} A^{(1-t)p} B^{tp/2} for each (t, p)."""
        bt = pd_power(self.eig(1), [t * p / 2.0 for t, p in points])
        return symmetrize(bt @ pd_power(self.eig(0), [(1.0 - t) * p for t, p in points]) @ bt)

    def _grid_sandwich_matrix(self, points) -> list:
        """The matrices whose spectra give ``sandwich_mean_spectrum(t, p)``.

        Each is the sandwich aggregate, or past the range limit the block
        matrix [[0, H], [H.T, 0]] of H = B^{tp/2} A^{(1-t)p/2}: its spectrum
        is (+sigma, -sigma), and the squared singular values sigma^2 of H
        are the eigenvalues of the aggregate.  The aggregates are stacked,
        the blocks built point by point.
        """
        self.checked()  # as every reader does; the range needs positive spectra
        factor = [self._sandwich_via_factor(t, p) for t, p in points]
        agg = [pt for pt, f in zip(points, factor) if not f]
        stack = iter(self._grid_sandwich_aggregate(agg) if agg else ())
        return [self._sandwich_block(*pt) if f else next(stack) for pt, f in zip(points, factor)]

    def _sandwich_via_factor(self, t: float, p: float) -> bool:
        """Whether the eigenvalue range of the sandwich aggregate is past the limit."""
        la = self.eig(0).lam
        lb = self.eig(1).lam
        return abs((1.0 - t) * p) * math.log10(float(la[0] / la[-1])) + abs(
            t * p
        ) * math.log10(float(lb[0] / lb[-1])) > _SANDWICH_RANGE_LOG10_LIMIT

    def _sandwich_block(self, t: float, p: float) -> np.ndarray:
        h = self.power(1, t * p / 2.0) @ self.power(0, (1.0 - t) * p / 2.0)
        z = np.zeros(h.shape)
        return np.block([[z, h], [h.T, z]])

    @_entry
    def sandwich_mean(self, t: float, p: float) -> np.ndarray:
        _check_sandwich_p(p)
        end = self._end(t)
        if end is not None:
            return self.checked()[end].copy()
        return _root(self._grid_sandwich_aggregate([(t, p)])[0], p, "sandwich aggregate")

    @_entry
    def sandwich_mean_spectrum(self, t: float, p: float) -> np.ndarray:
        _check_sandwich_p(p)
        end = self._end(t)
        if end is not None:
            return np.array(self.eig(end).lam)
        lam = self.spectrum("sandwich_matrix", t, p)
        if self._sandwich_via_factor(t, p):
            return lam[: self.eig(0).n] ** (2.0 / p)
        return _root_spectrum(lam, p, "sandwich aggregate")

    @_entry
    def cross(self, t: float) -> np.ndarray:
        """The generally non-symmetric product A^{1-t} B^t."""
        self.checked()
        return self.power(0, 1.0 - t) @ self.power(1, t)

    def cross_sym(self, t: float) -> np.ndarray:
        """The symmetric part of the cross term A^{1-t} B^t."""
        return symmetrize(self.cross(t))

    def cross_gram(self, t: float) -> np.ndarray:
        """X^T X of the cross term X, formed as ``singular_values`` forms it."""
        return _gram(self.cross(t))

    @_entry
    def cross_singular_values(self, t: float) -> np.ndarray:
        """Descending singular values of the cross term A^{1-t} B^t, as ``singular_values``."""
        return _gram_roots(self.spectrum("cross_gram", t))

    def _grid_product(self, points) -> np.ndarray:
        """A^{(1-t)p/2} B^{tp} A^{(1-t)p/2}, similar to the product A^{(1-t)p} B^{tp},
        for each (t, p).

        Only the powers are checked, as ``pd_power`` checks them.
        """
        ah = pd_power(self.eig(0), [(1.0 - t) * p / 2.0 for t, p in points])
        return symmetrize(ah @ pd_power(self.eig(1), [t * p for t, p in points]) @ ah)

    def product_spectrum(self, t: float, p: float) -> np.ndarray:
        """Descending eigenvalues of the product form at (t, p)."""
        return self.spectrum("product", t, p)

    def bab_power(self, t: float) -> np.ndarray:
        """B^t A^t B^t; only the powers are checked."""
        bt = self.power(1, t)
        return symmetrize(bt @ self.power(0, t) @ bt)

    @_entry
    def chord_gap(self, t: float) -> np.ndarray:
        """The arithmetic path minus the geodesic, (1-t) A + t B - A #_t B."""
        return symmetrize(self.arithmetic(t) - self.geometric(t))


class MultiTable(_Factored):
    """Weighted power means of matrices A_1..A_m, each computed once on first use.

    The means validate the weights and every matrix before anything else,
    once per table, and raise what the public functions raise.
    """

    _AGGREGATE = "multi power mean aggregate"  # as in PairTable

    def __init__(self, mats: Sequence, weights):
        super().__init__(mats)
        self._weights = weights

    @_entry
    def checked(self) -> WeightVector:
        """The weights, with every matrix validated as by ``require_pd``."""
        w = WeightVector.coerce(self._weights)
        ms = [self._require_pd(i, f"matrix {i}") for i in range(len(self._mats))]
        if len(ms) != len(w):
            raise ValueError(f"{len(ms)} matrices but {len(w)} weights")
        shape = ms[0].shape
        for i, m in enumerate(ms):
            if m.shape != shape:
                raise ValueError(f"dimension mismatch at matrix {i}: {m.shape} vs {shape}")
        return w

    def _grid_power_aggregate(self, points) -> np.ndarray:
        """sum_i alpha_i A_i^p, or sum_i alpha_i log A_i at p = 0, for each (p,)."""
        alphas = self.checked().alphas
        return self._aggregate_grid([alphas] * len(points), [p for p, in points])

    @_entry
    def power_mean(self, p: float) -> np.ndarray:
        return _root(self._grid_power_aggregate([(p,)])[0], p, self._AGGREGATE)

    @_entry
    def power_mean_spectrum(self, p: float) -> np.ndarray:
        return _root_spectrum(self.spectrum("power_aggregate", p), p, self._AGGREGATE)

    def _grid_power_sum(self, points) -> np.ndarray:
        """sum_i A_i^p (sum_i log A_i at p = 0) for each (p,); only the powers are checked."""
        return self._aggregate_grid([(1.0,) * len(self._mats)] * len(points), [p for p, in points])

    def power_sum_spectrum(self, p: float) -> np.ndarray:
        """Descending eigenvalues of sum_i A_i^p (sum_i log A_i at p = 0)."""
        return self.spectrum("power_sum", p)


def prefill(requests) -> None:
    """Solve the table spectra that ``requests`` name in batches, ahead of their reads.

    Each request ``(table, name, axes)`` names the reads
    ``table.spectrum(name, *args)`` for ``args`` over the grid
    ``itertools.product(*axes)``.  The matrices of one table entry are built
    as one grid by ``_grid(name, points)``, stacked by order and solved by
    ``sym_eigen_batch``; each spectrum that solves is stored where its read
    stores it, and the read then returns the same bits.  Nothing else is
    stored: a grid whose build raised and a matrix whose solve raised are
    left to their reads, which build and solve them as a fresh table does
    and raise in their own place.
    """
    groups: dict[tuple, tuple] = {}
    for table, name, axes in requests:
        points = groups.setdefault((id(table), name), (table, name, {}))[2]
        for args in itertools.product(*axes):
            if ("spectrum", name, *args) not in table._memo:
                points[args] = None
    stacks: dict[tuple, tuple[list, list]] = {}
    for table, name, points in groups.values():
        try:
            grid = table._grid(name, list(points)) if points else ()
        except Exception:  # some point raises: its read raises it again
            continue
        for args, m in zip(points, grid):
            keys, mats = stacks.setdefault(m.shape, ([], []))
            keys.append((table, ("spectrum", name, *args)))
            mats.append(m)
    while stacks:  # each stack is freed once solved
        _, (keys, mats) = stacks.popitem()
        for (table, key), e in zip(keys, sym_eigen_batch(mats)):
            if not isinstance(e, Exception):
                table._memo[key] = e.lam


# ---------------------------------------------------------------------------
# Public means: each checks its scalar arguments, then reads one entry of a
# fresh table, which validates the matrices.


def geometric_mean(a, b, t: float) -> np.ndarray:
    """Geodesic mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}."""
    _check_t(t)
    return PairTable(a, b).geometric(t)


def power_mean(a, b, t: float, p: float) -> np.ndarray:
    """Weighted power mean ((1-t) A^p + t B^p)^{1/p}, log-Euclidean at p = 0."""
    _check_t(t)
    return PairTable(a, b).power_mean(t, p)


def power_mean_spectrum(a, b, t: float, p: float) -> np.ndarray:
    """Descending eigenvalues of power_mean(a, b, t, p)."""
    _check_t(t)
    return PairTable(a, b).power_mean_spectrum(t, p)


def log_euclidean(a, b, t: float) -> np.ndarray:
    """exp((1-t) log A + t log B)."""
    _check_t(t)
    return PairTable(a, b).log_euclidean(t)


def log_euclidean_spectrum(a, b, t: float) -> np.ndarray:
    """Descending eigenvalues of the log-Euclidean mean."""
    _check_t(t)
    return PairTable(a, b).log_euclidean_spectrum(t)


def arithmetic_path(a, b, t: float) -> np.ndarray:
    """Linear path (1-t) A + t B."""
    _check_t(t)
    return PairTable(a, b).arithmetic(t)


def sandwich_mean(a, b, t: float, p: float) -> np.ndarray:
    """(B^{tp/2} A^{(1-t)p} B^{tp/2})^{1/p} for p > 0."""
    _check_t(t)
    return PairTable(a, b).sandwich_mean(t, p)


def sandwich_mean_spectrum(a, b, t: float, p: float) -> np.ndarray:
    """Descending eigenvalues of sandwich_mean(a, b, t, p)."""
    _check_t(t)
    return PairTable(a, b).sandwich_mean_spectrum(t, p)


def cross_term(a, b, t: float) -> np.ndarray:
    """The generally non-symmetric product A^{1-t} B^t."""
    _check_t(t)
    return PairTable(a, b).cross(t)


def power_mean_multi(mats: Sequence, weights, p: float) -> np.ndarray:
    """(sum_i alpha_i A_i^p)^{1/p}; exp(sum_i alpha_i log A_i) at p = 0."""
    return MultiTable(mats, weights).power_mean(p)


def power_mean_multi_spectrum(mats: Sequence, weights, p: float) -> np.ndarray:
    """Descending eigenvalues of power_mean_multi(mats, weights, p)."""
    return MultiTable(mats, weights).power_mean_spectrum(p)
