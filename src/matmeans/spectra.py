"""Spectra and unitarily invariant norms.

Spectra are plain 1-D numpy arrays sorted in descending order.  Ky Fan
norms are the test basis for every norm-level inequality: by Fan
dominance, checking k = 1..n certifies all unitarily invariant norms.
The property suite compares spectra through their prefix sums, or the
prefix sums of their logarithms (:func:`log_prefix`) for log
majorization; its margins are computed in :mod:`matmeans.suite`.
Schatten norms are provided for reporting.
"""

from __future__ import annotations

import math

import numpy as np

from .densela import singular_values, sym_eigen

__all__ = [
    "LOG_CLAMP",
    "eigenvalues_desc",
    "ky_fan_norm",
    "schatten_norm",
    "log_prefix",
]

# Spectra are clamped here before taking logarithms.
LOG_CLAMP = 1e-300


def eigenvalues_desc(s) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix."""
    return np.array(sym_eigen(s, vectors=False).lam)


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
    """Prefix sums of log(max(v, LOG_CLAMP)) along the last axis: the logarithms
    of k-fold products."""
    return np.cumsum(np.log(np.maximum(v, LOG_CLAMP)), axis=-1)
