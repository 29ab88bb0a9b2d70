"""Two-matrix and multi-matrix means on the positive definite cone.

Every mean is built through the functional calculus of
:mod:`matmeans.densela`; results are explicitly symmetrized.  Each mean
that is a spectral transform of one inner aggregate also has a
``*_spectrum`` companion returning its descending eigenvalues straight
from the inner decomposition, which the property suite uses to avoid a
second decomposition of the assembled matrix.

The means are computed by two tables, :class:`PairTable` for a pair
(A, B) and :class:`MultiTable` for weighted matrices A_1..A_m.  A table
validates its matrices once and computes each decomposition, power, mean
and spectrum once, on first use.  The property suite keeps one table per
instance; each public function checks its scalar arguments and reads one
entry of a fresh table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densela import (
    EigenDecomposition,
    as_square_matrix,
    pd_log,
    pd_power,
    require_pd_eigen,
    require_symmetric,
    sym_eigen,
    symmetrize,
)

__all__ = [
    "WeightVector",
    "MeanParams",
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
    "hermitian_part",
    "power_mean_multi",
    "power_mean_multi_spectrum",
    "geometric_mean_unitary_factor",
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


@dataclass(frozen=True)
class MeanParams:
    """Interpolation weight t in [0, 1] and power-mean exponent p."""

    t: float
    p: float

    def __post_init__(self):
        _check_t(self.t)
        if not math.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p!r}")


def _check_t(t: float) -> float:
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return float(t)


def _check_sandwich_p(p: float) -> None:
    if not p > 0.0:
        raise ValueError(f"sandwich mean requires p > 0, got {p!r}")


def _require_positive_spectrum(e: EigenDecomposition, what: str) -> None:
    if float(e.lam[-1]) <= 0.0:
        raise ValueError(f"{what} lost positivity (smallest eigenvalue {e.lam[-1]:.6e})")


def _entry(method):
    """A table entry: computed on its first read for given arguments, then reused.

    An entry whose computation raised raises the same exception on every
    later read, so every caller sees the same error.
    """
    name = method.__name__

    @functools.wraps(method)
    def read(self, *args):
        key = (name, *args)
        hit = self._memo.get(key)
        if hit is None:
            try:
                value = method(self, *args)
            except Exception as exc:
                self._memo[key] = (False, exc)
                raise
            hit = self._memo[key] = (True, value)
        ok, value = hit
        if ok:
            return value
        raise value.with_traceback(None)

    return read


class _Factored:
    """Matrices with their decompositions, powers and logarithms as table entries.

    Matrix i is decomposed once; ``power`` and ``log`` apply the functional
    calculus to that decomposition with the checks of ``pd_power`` and
    ``pd_log``.
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

    def _require_pd(self, i: int, name: str) -> np.ndarray:
        """``require_pd`` of matrix i, reusing its decomposition."""
        m = require_symmetric(self._mats[i], name)
        require_pd_eigen(self.eig(i), name)
        return m


class PairTable(_Factored):
    """Every mean of one pair (A, B), each computed once on first use.

    Matrix 0 is A and matrix 1 is B.  The means validate A and B as strictly
    positive definite before anything else, once per table, and raise what
    the public functions raise.  The weight t is not checked here; the
    public functions check it.
    """

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

    def _end_matrix(self, end: int) -> np.ndarray:
        return self.checked()[end].copy()

    def _end_spectrum(self, end: int) -> np.ndarray:
        return np.array(self.eig(end).lam)

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
        rh, ec = self._congruence()
        return symmetrize(rh @ pd_power(ec, t) @ rh)

    @_entry
    def geometric_spectrum(self, t: float) -> np.ndarray:
        return np.array(sym_eigen(self.geometric(t)).lam)

    @_entry
    def _log_inner(self, t: float) -> EigenDecomposition:
        h = (1.0 - t) * self.log(0) + t * self.log(1)
        return sym_eigen(symmetrize(h))

    @_entry
    def log_euclidean(self, t: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return self._end_matrix(end)
        return self._log_inner(t).apply(math.exp)

    @_entry
    def log_euclidean_spectrum(self, t: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return self._end_spectrum(end)
        return np.exp(self._log_inner(t).lam)

    @_entry
    def _power_inner(self, t: float, p: float) -> EigenDecomposition:
        m = (1.0 - t) * self.power(0, p) + t * self.power(1, p)
        return sym_eigen(symmetrize(m))

    @_entry
    def power_mean(self, t: float, p: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return self._end_matrix(end)
        if p == 0.0:
            return self.log_euclidean(t)
        e = self._power_inner(t, p)
        _require_positive_spectrum(e, "power mean aggregate")
        return e.apply(lambda x: x ** (1.0 / p))

    @_entry
    def power_mean_spectrum(self, t: float, p: float) -> np.ndarray:
        end = self._end(t)
        if end is not None:
            return self._end_spectrum(end)
        if p == 0.0:
            return self.log_euclidean_spectrum(t)
        e = self._power_inner(t, p)
        _require_positive_spectrum(e, "power mean aggregate")
        return np.sort(e.lam ** (1.0 / p))[::-1]

    @_entry
    def arithmetic(self, t: float) -> np.ndarray:
        am, bm = self.checked()
        return symmetrize((1.0 - t) * am + t * bm)

    @_entry
    def _sandwich_inner(self, t: float, p: float) -> EigenDecomposition:
        bt = self.power(1, t * p / 2.0)
        m = bt @ self.power(0, (1.0 - t) * p) @ bt
        return sym_eigen(symmetrize(m))

    def _sandwich_range_log10(self, t: float, p: float) -> float:
        la = self.eig(0).lam
        lb = self.eig(1).lam
        return abs((1.0 - t) * p) * math.log10(float(la[0] / la[-1])) + abs(
            t * p
        ) * math.log10(float(lb[0] / lb[-1]))

    def _sandwich_spectrum_via_factor(self, t: float, p: float) -> np.ndarray:
        # Eigenvalues of B^{tp/2} A^{(1-t)p} B^{tp/2} are the squared singular
        # values of H = B^{tp/2} A^{(1-t)p/2}, read off the symmetric block
        # matrix [[0, H], [H.T, 0]] whose spectrum is (+sigma, -sigma).
        h = self.power(1, t * p / 2.0) @ self.power(0, (1.0 - t) * p / 2.0)
        n = h.shape[0]
        z = np.zeros((n, n))
        sv = sym_eigen(np.block([[z, h], [h.T, z]])).lam[:n]
        return sv ** (2.0 / p)

    @_entry
    def sandwich_mean(self, t: float, p: float) -> np.ndarray:
        _check_sandwich_p(p)
        end = self._end(t)
        if end is not None:
            return self._end_matrix(end)
        e = self._sandwich_inner(t, p)
        _require_positive_spectrum(e, "sandwich aggregate")
        return e.apply(lambda x: x ** (1.0 / p))

    @_entry
    def sandwich_mean_spectrum(self, t: float, p: float) -> np.ndarray:
        _check_sandwich_p(p)
        end = self._end(t)
        if end is not None:
            return self._end_spectrum(end)
        if self._sandwich_range_log10(t, p) > _SANDWICH_RANGE_LOG10_LIMIT:
            return self._sandwich_spectrum_via_factor(t, p)
        e = self._sandwich_inner(t, p)
        _require_positive_spectrum(e, "sandwich aggregate")
        return e.lam ** (1.0 / p)

    @_entry
    def cross(self, t: float) -> np.ndarray:
        """The generally non-symmetric product A^{1-t} B^t."""
        self.checked()
        return self.power(0, 1.0 - t) @ self.power(1, t)

    @_entry
    def product_form(self, t: float, p: float) -> EigenDecomposition:
        """Decomposition of A^{(1-t)p/2} B^{tp} A^{(1-t)p/2}.

        Its eigenvalues are those of the product A^{(1-t)p} B^{tp}.  Only the
        powers are checked, as ``pd_power`` checks them.
        """
        ah = self.power(0, (1.0 - t) * p / 2.0)
        return sym_eigen(symmetrize(ah @ self.power(1, t * p) @ ah))


class MultiTable(_Factored):
    """Power means of weighted matrices A_1..A_m, each computed once on first use.

    The means validate the weights and every matrix before anything else,
    once per table, and raise what the public functions raise.
    """

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

    @_entry
    def _inner(self, p: float) -> EigenDecomposition:
        alphas = self.checked().alphas
        if p == 0.0:
            h = sum(alpha * self.log(i) for i, alpha in enumerate(alphas))
            return sym_eigen(symmetrize(h))
        m = sum(alpha * self.power(i, p) for i, alpha in enumerate(alphas))
        return sym_eigen(symmetrize(m))

    @_entry
    def power_mean(self, p: float) -> np.ndarray:
        e = self._inner(p)
        if p == 0.0:
            return e.apply(math.exp)
        _require_positive_spectrum(e, "multi power mean aggregate")
        return e.apply(lambda x: x ** (1.0 / p))

    @_entry
    def power_mean_spectrum(self, p: float) -> np.ndarray:
        e = self._inner(p)
        if p == 0.0:
            return np.exp(e.lam)
        _require_positive_spectrum(e, "multi power mean aggregate")
        return np.sort(e.lam ** (1.0 / p))[::-1]

    @_entry
    def power_sum(self, p: float) -> EigenDecomposition:
        """Decomposition of the unweighted sum of the A_i^p.

        Only the powers are checked, as ``pd_power`` checks them.
        """
        return sym_eigen(symmetrize(sum(self.power(i, p) for i in range(len(self._mats)))))


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


def hermitian_part(x) -> np.ndarray:
    """(X + X.T) / 2."""
    return symmetrize(as_square_matrix(x))


def power_mean_multi(mats: Sequence, weights, p: float) -> np.ndarray:
    """(sum_i alpha_i A_i^p)^{1/p}; exp(sum_i alpha_i log A_i) at p = 0."""
    return MultiTable(mats, weights).power_mean(p)


def power_mean_multi_spectrum(mats: Sequence, weights, p: float) -> np.ndarray:
    """Descending eigenvalues of power_mean_multi(mats, weights, p)."""
    return MultiTable(mats, weights).power_mean_spectrum(p)


def geometric_mean_unitary_factor(a, b) -> np.ndarray:
    """Orthogonal U with A^{1/2} U B^{1/2} equal to the midpoint geometric mean."""
    table = PairTable(a, b)
    table.checked()
    return table.power(0, -0.5) @ table.geometric(0.5) @ table.power(1, -0.5)
