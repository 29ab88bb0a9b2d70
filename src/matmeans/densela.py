"""Dense real symmetric linear-algebra kernel.

Everything downstream (means, norms, majorization checks) is built on the
functional calculus provided here: a self-contained cyclic Jacobi
eigensolver for small dense symmetric matrices, spectral function
application, matrix powers / exp / log, singular values, positive
definiteness tests with margins, and seeded random positive definite
generation.

All operations are pure functions of their inputs.  Returned arrays are
fresh (or marked read-only when shared through the decomposition cache)
and inputs are never mutated.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SYM_REL_TOL",
    "PSD_REL_TOL",
    "PD_REL_FACTOR",
    "JACOBI_OFF_REL",
    "JACOBI_MAX_SWEEPS",
    "JacobiConvergenceError",
    "EigenDecomposition",
    "as_square_matrix",
    "require_symmetric",
    "symmetrize",
    "multiply",
    "sym_eigen",
    "apply_spectral_fn",
    "pd_power",
    "pd_log",
    "sym_exp",
    "singular_values",
    "is_positive_definite",
    "require_pd",
    "require_pd_eigen",
    "random_pd",
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
]

# Relative symmetry slack accepted on input matrices.
SYM_REL_TOL = 1e-12
# Positive semidefiniteness: smallest eigenvalue > -PSD_REL_TOL * (1 + max |eig|).
PSD_REL_TOL = 1e-9
# Strict positive definiteness: smallest eigenvalue > n * PD_REL_FACTOR * largest.
PD_REL_FACTOR = 1e-13
# Jacobi stops once the off-diagonal Frobenius mass drops below
# JACOBI_OFF_REL * ||S||_F, and gives up after JACOBI_MAX_SWEEPS sweeps.
JACOBI_OFF_REL = 1e-13
JACOBI_MAX_SWEEPS = 50


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep limit is hit; carries the residual."""

    def __init__(self, residual: float, threshold: float, sweeps: int):
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps: "
            f"off-diagonal mass {residual:.6e} above threshold {threshold:.6e}"
        )
        self.residual = residual
        self.threshold = threshold
        self.sweeps = sweeps


def as_square_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a float square matrix with finite entries, n >= 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square with n >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def require_symmetric(x, name: str = "matrix") -> np.ndarray:
    """Validate the symmetry invariant |a - a.T|_max <= tol * (1 + max |a|)."""
    a = as_square_matrix(x, name)
    bound = SYM_REL_TOL * (1.0 + float(np.max(np.abs(a))))
    defect = float(np.max(np.abs(a - a.T)))
    if defect > bound:
        raise ValueError(
            f"{name} is not symmetric: asymmetry {defect:.6e} exceeds {bound:.6e}"
        )
    return a


def symmetrize(x) -> np.ndarray:
    """(X + X.T) / 2 for a square matrix."""
    a = as_square_matrix(x)
    return (a + a.T) * 0.5


def multiply(a, b) -> np.ndarray:
    """Matrix product of two equally sized square matrices."""
    am = as_square_matrix(a, "a")
    bm = as_square_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthogonal eigenvector matrix plus descending eigenvalues.

    ``q`` holds eigenvectors in its columns and ``lam`` the matching
    eigenvalues sorted in descending order, so the decomposed matrix is
    ``q @ diag(lam) @ q.T``.  Instances are immutable and safe to share.
    """

    q: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return int(self.lam.shape[0])

    def apply(self, fn: Callable[[float], float]) -> np.ndarray:
        """Symmetrized q diag(fn(lam)) q.T; fn must be finite on the spectrum."""
        vals = _eval_on_spectrum(fn, self.lam)
        x = (self.q * vals) @ self.q.T
        return (x + x.T) * 0.5

    def reconstruct(self) -> np.ndarray:
        """q diag(lam) q.T, symmetrized."""
        x = (self.q * self.lam) @ self.q.T
        return (x + x.T) * 0.5


def _eval_on_spectrum(fn: Callable[[float], float], lam: np.ndarray) -> np.ndarray:
    vals = np.empty(lam.shape[0])
    for i, x in enumerate(lam):
        try:
            v = float(fn(float(x)))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"spectral function undefined at eigenvalue {x!r}: {exc}"
            ) from exc
        if not math.isfinite(v):
            raise ValueError(
                f"spectral function returned non-finite value {v!r} at eigenvalue {x!r}"
            )
        vals[i] = v
    return vals


# Decomposition cache.  sym_eigen is referentially transparent, so memoizing
# on the input bytes only saves recomputation; entries are immutable.
_EIG_CACHE: "OrderedDict[tuple[int, bytes], EigenDecomposition]" = OrderedDict()
_EIG_CACHE_LOCK = threading.Lock()
_EIG_CACHE_SIZE = 4096


def _cache_get(key):
    with _EIG_CACHE_LOCK:
        dec = _EIG_CACHE.get(key)
        if dec is not None:
            _EIG_CACHE.move_to_end(key)
        return dec


def _cache_put(key, dec) -> None:
    with _EIG_CACHE_LOCK:
        _EIG_CACHE[key] = dec
        while len(_EIG_CACHE) > _EIG_CACHE_SIZE:
            _EIG_CACHE.popitem(last=False)


def clear_eigen_cache() -> None:
    """Drop all memoized decompositions (mainly useful in tests)."""
    with _EIG_CACHE_LOCK:
        _EIG_CACHE.clear()


@functools.lru_cache(maxsize=None)
def _rotation_plan(n: int) -> tuple[tuple[int, int, bytes | tuple[int, ...]], ...]:
    """Cyclic row-by-row order of the (p, r) rotations, each with the other indices.

    The other indices are held as bytes where they fit, which keeps the plan
    of an order-70 compound matrix near 0.4 MB instead of 1.7 MB as tuples.
    """
    pack = bytes if n <= 256 else tuple
    return tuple(
        (p, r, pack(k for k in range(n) if k != p and k != r))
        for p in range(n - 1)
        for r in range(p + 1, n)
    )


def sym_eigen(s, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius mass falls below
    ``JACOBI_OFF_REL * ||s||_F`` or ``max_sweeps`` sweeps have been spent,
    in which case :class:`JacobiConvergenceError` reports the residual.
    Eigenvalues are sorted descending with a stable sort (ties keep their
    original diagonal order) and eigenvector columns are permuted to match.
    """
    a_in = require_symmetric(s)
    a_in = np.ascontiguousarray((a_in + a_in.T) * 0.5)
    key = (a_in.shape[0], a_in.tobytes())
    cached = _cache_get(key)
    if cached is not None:
        return cached

    n = a_in.shape[0]
    fro = float(np.sqrt(np.sum(a_in * a_in)))
    threshold = JACOBI_OFF_REL * fro
    thr2 = threshold * threshold

    a = a_in.tolist()
    q = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    rotations = _rotation_plan(n)

    converged = False
    sweeps = 0
    while True:
        off2 = 0.0
        for i in range(n - 1):
            row = a[i]
            for j in range(i + 1, n):
                off2 += 2.0 * row[j] * row[j]
        if off2 <= thr2:
            converged = True
            break
        if sweeps >= max_sweeps:
            break
        sweeps += 1
        for p, r, others in rotations:
            ap = a[p]
            ar = a[r]
            apq = ap[r]
            if apq == 0.0:
                continue
            theta = (ar[r] - ap[p]) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.hypot(1.0, theta))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(1.0 + t * t)
            sn = t * c
            ap[p] -= t * apq
            ar[r] += t * apq
            ap[r] = 0.0
            ar[p] = 0.0
            for k in others:
                ak = a[k]
                akp = ak[p]
                akq = ak[r]
                vp = c * akp - sn * akq
                vq = sn * akp + c * akq
                ak[p] = vp
                ak[r] = vq
                ap[k] = vp
                ar[k] = vq
            for k in range(n):
                qk = q[k]
                qkp = qk[p]
                qkq = qk[r]
                qk[p] = c * qkp - sn * qkq
                qk[r] = sn * qkp + c * qkq

    if not converged:
        raise JacobiConvergenceError(math.sqrt(off2), threshold, max_sweeps)

    lam = np.array([a[i][i] for i in range(n)])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    qm = np.array(q)[:, order]
    lam.setflags(write=False)
    qm.setflags(write=False)
    dec = EigenDecomposition(q=qm, lam=lam)
    _cache_put(key, dec)
    return dec


def apply_spectral_fn(s, fn: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum."""
    return sym_eigen(s).apply(fn)


def _pd_eigs_ok(lam: np.ndarray) -> bool:
    n = lam.shape[0]
    return float(lam[-1]) > n * PD_REL_FACTOR * float(lam[0])


def _eigen(a) -> EigenDecomposition:
    return a if isinstance(a, EigenDecomposition) else sym_eigen(a)


def pd_power(a, p: float) -> np.ndarray:
    """Real matrix power of a positive definite matrix.

    ``a`` is the matrix or its :class:`EigenDecomposition`, which saves the
    decomposition.  Defined for every real exponent; p = 0 yields the
    identity.
    """
    if not math.isfinite(p):
        raise ValueError(f"exponent must be finite, got {p!r}")
    e = _eigen(a)
    if not _pd_eigs_ok(e.lam):
        raise ValueError(
            f"matrix is not positive definite: eigenvalue range "
            f"[{e.lam[-1]:.6e}, {e.lam[0]:.6e}]"
        )
    if p == 0.0:
        return np.eye(e.n)
    return e.apply(lambda x: x**p)


def pd_log(a) -> np.ndarray:
    """Matrix logarithm of a positive definite matrix or of its decomposition."""
    e = _eigen(a)
    if not _pd_eigs_ok(e.lam):
        raise ValueError(
            f"matrix logarithm requires positive definiteness: eigenvalue range "
            f"[{e.lam[-1]:.6e}, {e.lam[0]:.6e}]"
        )
    return e.apply(math.log)


def sym_exp(h) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (always positive definite)."""
    return sym_eigen(h).apply(math.exp)


def singular_values(x) -> np.ndarray:
    """Descending singular values, as square roots of the spectrum of x.T x.

    Eigenvalues of x.T x are clamped at zero before the square root.
    """
    a = as_square_matrix(x)
    g = a.T @ a
    e = sym_eigen((g + g.T) * 0.5)
    vals = np.sqrt(np.maximum(e.lam, 0.0))
    return np.asarray(vals)


def is_positive_definite(s, strict: bool = False) -> tuple[bool, float]:
    """Definiteness test with the smallest eigenvalue returned as margin.

    The default (semidefinite) test accepts smallest eigenvalue down to
    -PSD_REL_TOL * (1 + max |eig|); ``strict`` applies the positive
    definite threshold ``smallest > n * PD_REL_FACTOR * largest``.
    """
    e = sym_eigen(s)
    small = float(e.lam[-1])
    if strict:
        ok = small > e.n * PD_REL_FACTOR * float(e.lam[0])
    else:
        scale = 1.0 + float(np.max(np.abs(e.lam)))
        ok = small > -PSD_REL_TOL * scale
    return ok, small


def require_pd(a, name: str = "matrix") -> np.ndarray:
    """Validate strict positive definiteness and return the coerced array."""
    m = require_symmetric(a, name)
    require_pd_eigen(sym_eigen(m), name)
    return m


def require_pd_eigen(e: EigenDecomposition, name: str = "matrix") -> EigenDecomposition:
    """Strict positive definiteness of an already decomposed matrix, as :func:`require_pd`."""
    if not _pd_eigs_ok(e.lam):
        raise ValueError(
            f"{name} is not positive definite (smallest eigenvalue {float(e.lam[-1]):.6e})"
        )
    return e


def random_pd(n: int, cond_exponent: float, seed: int) -> np.ndarray:
    """Seeded random positive definite matrix with controlled conditioning.

    A standard-normal matrix is orthogonalized (QR with the sign convention
    making the triangular factor's diagonal nonnegative) and combined with
    eigenvalues drawn log-uniformly from [10**-cond_exponent,
    10**cond_exponent].  Deterministic for fixed (n, cond_exponent, seed).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if cond_exponent < 0:
        raise ValueError(f"cond_exponent must be >= 0, got {cond_exponent}")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    lam = 10.0 ** rng.uniform(-cond_exponent, cond_exponent, size=n)
    s = (q * lam) @ q.T
    return (s + s.T) * 0.5


# Matrix text format: first line the dimension, then n rows of n decimal
# numbers.  17 significant digits make the round trip lossless for float64.


def format_matrix(a) -> str:
    m = as_square_matrix(a)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ValueError(f"first line must be the dimension: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the dimension, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} entries per row, got {len(parts)}: {ln!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"bad number in row {ln!r}") from exc
    return as_square_matrix(np.array(rows), "parsed matrix")


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(a))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
