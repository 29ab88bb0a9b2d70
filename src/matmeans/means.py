"""Two-matrix and multi-matrix means on the positive definite cone.

Every mean is built through the functional calculus of
:mod:`matmeans.densela`; results are explicitly symmetrized.  The power
mean is implemented once, as the weighted power mean
(sum_i w_i A_i^p)^{1/p}, which is exp(sum_i w_i log A_i) at p = 0; a pair
(A, B) takes weights (1-t, t), and its log-Euclidean mean is p = 0.  A
table's power and sandwich means and its arithmetic path also have a
``*_spectrum`` entry: their descending eigenvalues, from a spectrum-only
solve of the aggregate; :func:`power_mean_spectrum` reads the pair's.

:class:`PairTable` (a pair A, B) and :class:`MultiTable` (weighted
A_1..A_m) compute the means.  Each matrix of a table is decomposed once,
with eigenvectors, and that decomposition validates it and gives its
powers and logarithm; every mean and spectrum is computed once, on first
use.  The property suite keeps one table per instance; each public
function checks its scalar arguments and reads one entry of a fresh table.

Every spectrum-only solve of a table matrix is a read of one entry,
``spectrum(name, *args)``, named after the matrix; it is the one read of
that spectrum.  A matrix that the
checks read over a grid, such as the power aggregate over (t, p), has one
builder, the table's ``_grid_<name>(points)``, which returns the stack of
that matrix at every point; a read of one point takes entry 0 of a
one-point grid.  The powers over a whole exponent list come from one
``pd_power`` call, weighted sums are added in index order and products
are stacked ``matmul``s, which give the bits of the 2-D forms.  A table
never stores an error: a read that raised raises again when read again.

:class:`PairStack` and :class:`MultiStack` hold the tables of several
instances of one order, so that their spectra are solved and read a whole
grid at a time.  :func:`prefill` fills them once: it builds the named
matrices of every member, solves them by order with ``sym_eigen_batch``
and stores only their whole spectra, one array per matrix name, the
members leading; a point that did not solve is left NaN.  The stacks'
readers gather a grid from those arrays (a point not filled is a
``KeyError``) and compute the mean spectra of every member at once, on
every call, with the bits of the point reads: each root is one call with
a scalar exponent, and at t = 0 and t = 1, where every mean is A or B,
they read the arithmetic path.  Each reader also says which members'
point reads could raise.  A stack never writes into its tables: such a
member reads its own tables, as a fresh table would.  A stack of no
members reads nothing and records every gather of its readers, which
plans a fill.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densela import (
    _CHECK_ERRORS,
    EigenDecomposition,
    _gram,
    _gram_exponent,
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
    "arithmetic_path",
    "sandwich_mean",
    "cross_term",
    "power_mean_multi",
    "PairStack",
    "MultiStack",
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
        return _gram_roots(self.spectrum("cross_gram", t), _gram_exponent(self.cross(t)))

    def _grid_product(self, points) -> np.ndarray:
        """A^{(1-t)p/2} B^{tp} A^{(1-t)p/2}, similar to the product A^{(1-t)p} B^{tp},
        for each (t, p).

        Only the powers are checked, as ``pd_power`` checks them.
        """
        ah = pd_power(self.eig(0), [(1.0 - t) * p / 2.0 for t, p in points])
        return symmetrize(ah @ pd_power(self.eig(1), [t * p for t, p in points]) @ ah)

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


def _root_spectra(lam: np.ndarray, ps) -> tuple[np.ndarray, np.ndarray]:
    """``_root_spectrum`` of every spectrum in ``lam`` (..., len(ps), n) at its p.

    Returns the roots and where ``_root_spectrum`` raises instead, whose
    roots are meaningless and may warn: the checks run it with numpy's
    floating-point warnings off.  Each p is one call with a scalar exponent,
    which gives the bits of the point form.
    """
    out = np.empty(lam.shape)
    bad = np.zeros(lam.shape[:-1], dtype=bool)
    for j, p in enumerate(ps):
        x = lam[..., j, :]
        if p == 0.0:
            out[..., j, :] = np.exp(x)
            continue
        bad[..., j] = x[..., -1] <= 0.0
        out[..., j, :] = np.sort(x ** (1.0 / p), axis=-1)[..., ::-1]
    return out, bad


def _any_point(bad: np.ndarray) -> np.ndarray:
    """Per member, whether any point of a (members, ...) mask is set."""
    return bad.any(axis=tuple(range(1, bad.ndim)))


class _TableStack:
    """Tables of one matrix order n, whose spectra are solved and read a whole grid at a time.

    Member i is ``tables[i]``.  :func:`prefill` fills the stack once with the
    spectra of table matrices of every member, one array per matrix name, the
    members leading.  The readers gather every grid from it and compute the
    spectra of every member at once, with the bits of the tables' point reads;
    the fill did every solve, so a reader stores nothing and computes its
    result again on each call.  A reader returns ``(values, ok)``:
    ``ok[i]`` is False where a point read of member i could raise, because
    one of its points did not solve (it is NaN) or a spectrum fails a
    positivity check; its values are then meaningless, and its reads must
    be made on its own table, which the stack never writes to.
    """

    def __init__(self, tables: Sequence, n: int):
        self.tables = tuple(tables)
        self.n = n
        # name -> (column of each point, spectra (members, points, order), NaN where unsolved)
        self._store: dict[str, tuple[dict, np.ndarray]] = {}
        self.gathered: list[tuple[str, tuple]] = []  # what a stack of no members read

    def spectra(self, name: str, points: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``table.spectrum(name, *point)`` of every member at each of ``points``,
        (members, len(points), order), and which members solved all of them.

        A stack of no members plans a fill: it reads nothing, and records
        ``(name, points)`` in ``gathered``.
        """
        if not self.tables:
            self.gathered.append((name, points))
            return np.empty((0, len(points), self.n)), np.empty(0, dtype=bool)
        cols, lam = self._store[name]
        lam = lam[:, [cols[pt] for pt in points]]
        return lam, ~np.isnan(lam[..., 0]).any(axis=1)


class PairStack(_TableStack):
    """Pair tables of one order, read a grid at a time (see :class:`_TableStack`)."""

    def with_ends(self, ts: tuple, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values over ``ts``, and which members solved their ends: ``inner``
        holds the values at each t other than 0 and 1, in order, and at t = 0
        and t = 1 the filled ``arithmetic`` spectrum is A's or B's bits."""
        ends = [i for i, t in enumerate(ts) if t == 0.0 or t == 1.0]
        out = np.empty((inner.shape[0], len(ts)) + inner.shape[2:])
        out[:, [i for i in range(len(ts)) if i not in ends]] = inner
        lam, ok = self.spectra("arithmetic", tuple((ts[i],) for i in ends))
        out[:, ends] = lam.reshape(lam.shape[:2] + (1,) * (inner.ndim - 3) + lam.shape[2:])
        return out, ok

    def power_mean_spectra(self, ts: tuple, ps: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``power_mean_spectrum(t, p)`` over the grid of ``ts`` and ``ps``."""
        inner = _inner(ts)
        lam, ok = self.spectra("power_aggregate", tuple((t, p) for t in inner for p in ps))
        vals, bad = _root_spectra(lam.reshape(len(lam), len(inner), len(ps), self.n), ps)
        vals, ends_ok = self.with_ends(ts, vals)
        return vals, ok & ends_ok & ~_any_point(bad)

    def sandwich_mean_spectra(self, ts: tuple, ps: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``sandwich_mean_spectrum(t, p)`` over the grid of ``ts`` and ``ps``, every p > 0.

        A point with a number past column n solved the block of order 2n.
        """
        inner = _inner(ts)
        lam, ok = self.spectra("sandwich_matrix", tuple((t, p) for t in inner for p in ps))
        shape = (len(lam), len(inner), len(ps))
        block = ~np.isnan(lam[..., self.n:self.n + 1]).all(axis=-1).reshape(shape)
        lam = lam[..., :self.n].reshape(shape + (self.n,))
        vals, bad = _root_spectra(lam, ps)
        for j, p in enumerate(ps):
            at = block[..., j]
            if at.any():  # the upper half of the block spectrum (+sigma, -sigma)
                vals[..., j, :][at] = lam[..., j, :][at] ** (2.0 / p)
        bad &= ~block
        vals, ends_ok = self.with_ends(ts, vals)
        return vals, ok & ends_ok & ~_any_point(bad)

    def cross_singular_values(self, ts: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``cross_singular_values(t)`` at each of ``ts``."""
        lam, ok = self.spectra("cross_gram", tuple((t,) for t in ts))
        k = np.zeros(lam.shape[:2], dtype=int)
        for i in np.flatnonzero(ok).tolist():
            k[i] = [_gram_exponent(self.tables[i].cross(t)) for t in ts]
        return _gram_roots(lam, k[..., None]), ok


class MultiStack(_TableStack):
    """Multi tables of one order, read a grid at a time (see :class:`_TableStack`)."""

    def power_mean_spectra(self, ps: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``power_mean_spectrum(p)`` at each of ``ps``."""
        lam, ok = self.spectra("power_aggregate", tuple((p,) for p in ps))
        vals, bad = _root_spectra(lam, ps)
        return vals, ok & ~_any_point(bad)


def _inner(ts: tuple) -> tuple:
    """The t values other than the endpoints 0 and 1, in order."""
    return tuple(t for t in ts if t != 0.0 and t != 1.0)


def prefill(requests) -> None:
    """Fill the stacks that ``requests`` name: solve their table matrices for every member.

    Each request ``(stack, name, points)`` names
    ``table.spectrum(name, *point)`` of every table of ``stack`` at each
    point; one call fills a stack with every point its readers read.  The
    matrices of one member and name are built as one grid by
    ``_grid(name, points)``, all of them are stacked by order and solved by
    ``sym_eigen_batch``, and the whole spectra are stored by stack and name,
    the members leading.  A name whose matrices differ in order, the
    sandwich with its factor blocks, pads the shorter spectra with NaN, so
    a spectrum with a number past order n solved a block.  A member whose
    grid build raises and a matrix whose solve raises store nothing: their
    spectra stay NaN, the one mark of a point that did not solve, since a
    solved spectrum is a number in column 0.  Such a member reads its own
    table, where the point raises in its own place.
    """
    new: dict[tuple, tuple] = {}  # (stack, name) -> (stack, name, column of each point)
    for stack, name, points in requests:
        columns = new.setdefault((id(stack), name), (stack, name, {}))[2]
        for pt in points:
            columns.setdefault(pt, len(columns))
    by_order: dict[int, list] = {}  # order -> [(matrices, stack, name, member, columns)]
    width = {key: stack.n for key, (stack, _, _) in new.items()}  # of the longest spectrum
    for key, (stack, name, columns) in new.items():
        points = list(columns)
        for i, table in enumerate(stack.tables):
            try:
                grid = table._grid(name, points) if points else ()
            except _CHECK_ERRORS:  # some point raises: its read raises it again
                continue
            if isinstance(grid, np.ndarray):
                by_order.setdefault(grid.shape[-1], []).append((grid, stack, name, i, slice(None)))
                continue
            cols: dict[int, list] = {}
            for j, mat in enumerate(grid):
                cols.setdefault(mat.shape[-1], []).append(j)
            for order, js in cols.items():
                part = np.array([grid[j] for j in js])
                by_order.setdefault(order, []).append((part, stack, name, i, js))
                width[key] = max(width[key], order)
    fresh = {key: np.full((len(stack.tables), len(p), width[key]), math.nan)
             for key, (stack, _, p) in new.items()}
    while by_order:  # each stack is freed once solved
        order, parts = by_order.popitem()
        lam, _ = sym_eigen_batch(np.concatenate([part for part, *_ in parts]))  # NaN where raised
        start = 0
        for part, stack, name, i, cols in parts:
            rows = slice(start, start + len(part))
            start = rows.stop
            fresh[id(stack), name][i, cols, :order] = lam[rows]
    for key, spectra in fresh.items():
        stack, name, columns = new[key]
        stack._store[name] = (columns, spectra)


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
    return PairTable(a, b).power_mean(t, 0.0)


def arithmetic_path(a, b, t: float) -> np.ndarray:
    """Linear path (1-t) A + t B."""
    _check_t(t)
    return PairTable(a, b).arithmetic(t)


def sandwich_mean(a, b, t: float, p: float) -> np.ndarray:
    """(B^{tp/2} A^{(1-t)p} B^{tp/2})^{1/p} for p > 0."""
    _check_t(t)
    return PairTable(a, b).sandwich_mean(t, p)


def cross_term(a, b, t: float) -> np.ndarray:
    """The generally non-symmetric product A^{1-t} B^t."""
    _check_t(t)
    return PairTable(a, b).cross(t)


def power_mean_multi(mats: Sequence, weights, p: float) -> np.ndarray:
    """(sum_i alpha_i A_i^p)^{1/p}; exp(sum_i alpha_i log A_i) at p = 0."""
    return MultiTable(mats, weights).power_mean(p)
