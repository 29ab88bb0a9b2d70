"""Spectra, unitarily invariant norms, and majorization orders.

Spectra are plain 1-D numpy arrays sorted in descending order.  Ky Fan
norms are the test basis for every norm-level inequality: by Fan
dominance, checking k = 1..n certifies all unitarily invariant norms.
Schatten norms are provided for reporting.
"""

from __future__ import annotations

import math

import numpy as np

from .densela import (
    pd_power,
    require_pd,
    require_symmetric,
    singular_values,
    sym_eigen,
)

__all__ = [
    "MAJORIZATION_TOL",
    "LOG_CLAMP",
    "check_spectrum",
    "eigenvalues_desc",
    "product_eigenvalues",
    "ky_fan_norm",
    "schatten_norm",
    "log_prefix",
    "prefix_margins",
    "weak_majorize",
    "majorize",
    "weak_log_majorize",
    "log_majorize",
    "loewner_leq",
]

MAJORIZATION_TOL = 1e-9
# Spectra are clamped here before taking logarithms.
LOG_CLAMP = 1e-300


def check_spectrum(values, nonnegative: bool = False) -> np.ndarray:
    """Validate a descending finite vector, optionally nonnegative."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"spectrum must be a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("spectrum has non-finite entries")
    if np.any(np.diff(v) > 0.0):
        raise ValueError("spectrum is not sorted in descending order")
    if nonnegative and v[-1] < 0.0:
        raise ValueError("spectrum has negative entries")
    return v


def eigenvalues_desc(s) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix."""
    return np.array(sym_eigen(s, vectors=False).lam)


def product_eigenvalues(a, b) -> np.ndarray:
    """Eigenvalues of A B for positive definite A, B.

    Computed from the symmetric similar form A^{1/2} B A^{1/2}; the result
    is strictly positive.
    """
    am = require_pd(a, "a")
    bm = require_pd(b, "b")
    r = pd_power(am, 0.5)
    m = r @ bm @ r
    lam = sym_eigen((m + m.T) * 0.5, vectors=False).lam
    if float(lam[-1]) <= 0.0:
        raise ValueError(
            f"product spectrum not strictly positive (smallest {lam[-1]:.6e})"
        )
    return np.array(lam)


def ky_fan_norm(x, k: int) -> float:
    """Sum of the k largest singular values."""
    sv = singular_values(x)
    n = sv.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"Ky Fan index must satisfy 1 <= k <= {n}, got {k}")
    return float(np.sum(sv[:k]))


def schatten_norm(x, p: float) -> float:
    """l_p norm of the singular value vector, p >= 1 or infinity."""
    if not (p == math.inf or p >= 1.0):
        raise ValueError(f"Schatten exponent must be >= 1 or inf, got {p!r}")
    sv = singular_values(x)
    if p == math.inf:
        return float(sv[0])
    return float(np.sum(sv**p) ** (1.0 / p))


def log_prefix(v) -> np.ndarray:
    """Prefix sums of log(max(v, LOG_CLAMP)): the logarithms of k-fold products."""
    return np.cumsum(np.log(np.maximum(v, LOG_CLAMP)))


def _scale(lx, ly) -> float:
    return 1.0 + max(abs(float(lx[-1])), abs(float(ly[-1])))


def prefix_margins(lx, ly) -> np.ndarray:
    """Per-k margins of the prefix domination lx <= ly.

    The margins are (ly - lx) / (1 + max(|lx[-1]|, |ly[-1]|)), so the scale
    is set by the totals.  The prefixes are not validated: a non-finite
    prefix gives a non-finite margin.
    """
    return (ly - lx) / _scale(lx, ly)


def _prefixes(x, y, log: bool) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of two validated spectra, of their logarithms with ``log``."""
    xv = check_spectrum(x)
    yv = check_spectrum(y)
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if not log:
        return np.cumsum(xv), np.cumsum(yv)
    if float(xv[-1]) <= 0.0 or float(yv[-1]) <= 0.0:
        raise ValueError("log majorization requires strictly positive spectra")
    return log_prefix(xv), log_prefix(yv)


def _dominates(lx, ly, tol: float) -> tuple[bool, np.ndarray]:
    margins = prefix_margins(lx, ly)
    return bool(np.min(margins) >= -tol), margins


def _totals_equal(lx, ly, tol: float) -> bool:
    return abs(float(lx[-1] - ly[-1])) <= tol * _scale(lx, ly)


def weak_majorize(x, y, tol: float = MAJORIZATION_TOL) -> tuple[bool, np.ndarray]:
    """Prefix-sum domination of descending spectra, with per-k margins.

    The margins are :func:`prefix_margins` of the prefix sums; the verdict
    is min(margins) >= -tol.
    """
    return _dominates(*_prefixes(x, y, log=False), tol)


def majorize(x, y, tol: float = MAJORIZATION_TOL) -> bool:
    """Weak majorization plus total-sum equality."""
    lx, ly = _prefixes(x, y, log=False)
    return _dominates(lx, ly, tol)[0] and _totals_equal(lx, ly, tol)


def weak_log_majorize(x, y, tol: float = MAJORIZATION_TOL) -> tuple[bool, np.ndarray]:
    """Prefix-product domination, compared through sums of logarithms."""
    return _dominates(*_prefixes(x, y, log=True), tol)


def log_majorize(x, y, tol: float = MAJORIZATION_TOL) -> bool:
    """Weak log majorization plus determinant (total log-sum) equality."""
    lx, ly = _prefixes(x, y, log=True)
    return _dominates(lx, ly, tol)[0] and _totals_equal(lx, ly, tol)


def loewner_leq(a, b, tol: float = MAJORIZATION_TOL) -> tuple[bool, float]:
    """Test a <= b in the positive semidefinite order; margin is min eig(b - a)."""
    am = require_symmetric(a, "a")
    bm = require_symmetric(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    d = bm - am
    d = (d + d.T) * 0.5
    lam = sym_eigen(d, vectors=False).lam
    margin = float(lam[-1])
    scale = 1.0 + float(np.max(np.abs(d))) if d.size else 1.0
    return margin >= -tol * scale, margin
