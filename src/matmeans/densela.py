"""Dense real symmetric linear-algebra kernel.

Everything downstream (means, norms, the property checks) is built on the
functional calculus provided here: a self-contained cyclic Jacobi
eigensolver for small dense symmetric matrices, spectral function
application, matrix powers / exp / log, singular values, strict positive
definiteness validation, and seeded random positive definite generation.

The eigensolver has a spectrum-only mode (``vectors=False``) that skips
the eigenvector updates; its eigenvalues are the same bits as those of a
full solve, and the readers that need only eigenvalues use it.  The
sweeps rotate nested Python lists, which for the orders the property
checks solve (at most 2n) cost less than per-row numpy calls.
:func:`sym_eigen_batch` runs the spectrum-only mode over a stack of
matrices of one order, one rotation of every matrix per group of numpy
calls, and returns every matrix's eigenvalues as one array, with the bits
of ``sym_eigen``.  The stack is held with the matrices on its last axis,
so row p of every matrix is one contiguous block; it loops over
``sym_eigen`` for stacks too small to repay the fixed cost of a batched
rotation.  ``singular_values`` forms x.T x on x scaled by a power of two
where its entries would overflow or underflow in the product.

All operations are pure functions of their inputs.  Returned arrays are
fresh and inputs are never mutated; the arrays of an
:class:`EigenDecomposition` are read-only because the per-instance tables
of :mod:`matmeans.means` share decompositions between their readers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SYM_REL_TOL",
    "PD_REL_FACTOR",
    "JACOBI_OFF_REL",
    "JACOBI_MAX_SWEEPS",
    "JacobiConvergenceError",
    "EigenDecomposition",
    "as_square_matrix",
    "require_symmetric",
    "symmetrize",
    "sym_eigen",
    "sym_eigen_batch",
    "pd_power",
    "pd_log",
    "sym_exp",
    "singular_values",
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


# The errors a property check reports as its failed result: a failed
# validation, a floating-point limit, a Jacobi solve that did not converge.
# Any other exception is a bug and propagates.
_CHECK_ERRORS = (ValueError, ArithmeticError, JacobiConvergenceError)


def as_square_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a float square matrix with finite entries, n >= 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square with n >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def require_symmetric(x, name: str = "matrix") -> np.ndarray:
    """Validate the symmetry invariant |a - a.T|_max <= tol * (1 + max |a|)."""
    a = as_square_matrix(x, name)
    bound = SYM_REL_TOL * (1.0 + float(np.abs(a).max()))
    defect = float(np.abs(a - a.T).max())
    if defect > bound:
        raise ValueError(
            f"{name} is not symmetric: asymmetry {defect:.6e} exceeds {bound:.6e}"
        )
    return a


def symmetrize(x) -> np.ndarray:
    """(X + X.T) / 2 for a square matrix, or for each matrix of a stack on the last two axes."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 3:
        a = as_square_matrix(a)
        return (a + a.T) * 0.5
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return (a + a.transpose(0, 2, 1)) * 0.5


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthogonal eigenvector matrix plus descending eigenvalues.

    ``q`` holds eigenvectors in its columns and ``lam`` the matching
    eigenvalues sorted in descending order, so the decomposed matrix is
    ``q @ diag(lam) @ q.T``.  A spectrum-only decomposition has ``q`` None
    and cannot apply functions.  Instances are immutable and safe to share.
    """

    q: np.ndarray | None
    lam: np.ndarray

    @property
    def n(self) -> int:
        return int(self.lam.shape[0])

    def _vectors(self) -> np.ndarray:
        if self.q is None:
            raise ValueError("spectrum-only decomposition has no eigenvectors")
        return self.q

    def apply(self, fn: Callable[[float], float]) -> np.ndarray:
        """Symmetrized q diag(fn(lam)) q.T; fn must be finite on the spectrum."""
        q = self._vectors()
        vals = _eval_on_spectrum(fn, self.lam)
        x = (q * vals) @ q.T
        return (x + x.T) * 0.5

    def reconstruct(self) -> np.ndarray:
        """q diag(lam) q.T, symmetrized."""
        q = self._vectors()
        x = (q * self.lam) @ q.T
        return (x + x.T) * 0.5


def _eval_on_spectrum(fn: Callable[[float], float], lam: np.ndarray) -> np.ndarray:
    vals = np.empty(lam.shape[0])
    for i, x in enumerate(lam):
        try:
            v = float(fn(float(x)))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"spectral function undefined at eigenvalue {float(x)!r}: {exc}"
            ) from exc
        if not math.isfinite(v):
            raise ValueError(
                f"spectral function returned non-finite value {v!r} at eigenvalue {float(x)!r}"
            )
        vals[i] = v
    return vals


def clear_eigen_cache() -> None:
    """Does nothing: ``sym_eigen`` keeps no decomposition between calls.

    Kept only for callers of the former process-wide cache, such as
    ``perfbench/test_tracer.py``.
    """


@functools.lru_cache(maxsize=None)
def _rotation_plan(n: int) -> tuple[tuple[int, int, bytes], ...]:
    """Cyclic row-by-row order of the (p, r) rotations, each with the other indices.

    The other indices are held as bytes, which keeps the plan small enough
    to cache for every order solved.
    """
    return tuple(
        (p, r, bytes(k for k in range(n) if k != p and k != r))
        for p in range(n - 1)
        for r in range(p + 1, n)
    )


def _off_diagonal_mass(rows: list[list[float]]) -> float:
    """Squared off-diagonal Frobenius mass, summed in row-by-row order."""
    off2 = 0.0
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            off2 += 2.0 * row[j] * row[j]
    return off2


def _sweep_lists(a_in: np.ndarray, threshold: float, max_sweeps: int, vectors: bool,
                 shift: int) -> tuple[list[float], list[list[float]] | None]:
    """Jacobi sweeps on the nested lists of S 2^-shift: the diagonal and, with ``vectors``, q."""
    n = a_in.shape[0]
    a = a_in.tolist()
    q = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if vectors else None
    rotations = _rotation_plan(n)
    thr2 = threshold * threshold
    sweeps = 0
    while True:
        off2 = _off_diagonal_mass(a)
        if off2 <= thr2:
            return [a[i][i] for i in range(n)], q
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(math.ldexp(math.sqrt(off2), shift),
                                         math.ldexp(threshold, shift), max_sweeps)
        sweeps += 1
        for p, r, others in rotations:
            ap = a[p]
            ar = a[r]
            apq = ap[r]
            if apq == 0.0:
                continue
            # tan, cos and sin of the rotation that zeroes the (p, r) entry
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
            if q is not None:
                for qk in q:
                    qkp = qk[p]
                    qkq = qk[r]
                    qk[p] = c * qkp - sn * qkq
                    qk[r] = sn * qkp + c * qkq


def sym_eigen(
    s, max_sweeps: int = JACOBI_MAX_SWEEPS, vectors: bool = True
) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius mass falls below
    ``JACOBI_OFF_REL * ||s||_F`` or ``max_sweeps`` sweeps have been spent,
    in which case :class:`JacobiConvergenceError` reports the residual; a
    matrix far from unit scale is solved scaled by a power of two, exactly.
    Eigenvalues are sorted descending with a stable sort (ties keep their
    original diagonal order) and eigenvector columns are permuted to match.

    With ``vectors=False`` the rotations are not accumulated and ``q`` is
    None; the eigenvalues are the same bits, because the rotated matrix
    never reads the eigenvectors.
    """
    a_in = require_symmetric(s)
    k = _range_exponent(float(np.abs(a_in).max()))
    a_in = np.ldexp(a_in, -k)
    a_in = (a_in + a_in.T) * 0.5
    threshold = JACOBI_OFF_REL * math.sqrt(float((a_in * a_in).sum()))
    diag, q = _sweep_lists(a_in, threshold, max_sweeps, vectors, k)
    lam = np.ldexp(diag, k)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    lam.setflags(write=False)
    if q is None:
        return EigenDecomposition(q=None, lam=lam)
    qm = np.asarray(q)[:, order]
    qm.setflags(write=False)
    return EigenDecomposition(q=qm, lam=lam)


# Below this many matrices sym_eigen_batch loops over sym_eigen: a batched
# rotation costs a fixed ~25 numpy calls whatever the stack size, which a
# small stack does not repay.  On 2 vCPUs, stacks of order 2-8 took
# 0.4-1.2x the time of the loop with 16 matrices, 0.2-0.65x with 32 and
# 0.08-0.25x with 128.
_BATCH_MIN = 32


def sym_eigen_batch(mats, max_sweeps: int = JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, dict]:
    """Spectrum-only :func:`sym_eigen` of every matrix in a stack of one order.

    Returns ``(lam, errors)``.  Row i of ``lam`` is
    ``sym_eigen(mats[i], max_sweeps, vectors=False).lam`` bit for bit, or
    NaN where that call raises; ``errors`` maps each such i to the
    exception the call raises (a ``ValueError`` from validation or a
    :class:`JacobiConvergenceError`), so one bad member leaves the others
    untouched.  Each matrix runs the cyclic plan of ``_sweep_lists`` with
    the same floating-point operations in the same order, vectorised across
    the stack, which is held with the members on the last axis so that row
    p of every member is one contiguous block: the matrix stays exactly
    symmetric, so rows p and r are rotated once and copied into columns p
    and r; the off-diagonal mass is summed sequentially, as the list code
    sums it; ``math.hypot`` is taken per element, because ``np.hypot``
    rounds differently; a rotation with a zero pivot keeps the old values,
    as the list code skips it; and each matrix leaves the stack at its own
    threshold.  Stacks smaller than ``_BATCH_MIN`` loop over ``sym_eigen``.
    """
    stack = np.asarray(mats, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    lam = np.full(stack.shape[:2], math.nan)
    errors: dict = {}
    if len(stack) < _BATCH_MIN:
        bad = np.ones(len(stack), dtype=bool)
    else:
        with np.errstate(invalid="ignore"):
            peak = np.abs(stack).max(axis=(1, 2))
            defect = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
        bad = ~np.isfinite(stack).all(axis=(1, 2)) | (defect > SYM_REL_TOL * (1.0 + peak))
    for i in np.flatnonzero(bad).tolist():
        try:
            lam[i] = sym_eigen(stack[i], max_sweeps, vectors=False).lam
        except (ValueError, JacobiConvergenceError) as exc:
            errors[i] = exc
    idx = np.flatnonzero(~bad)
    if idx.size:
        k = np.frexp(peak[idx])[1]
        k[(-400 < k) & (k <= 400)] = 0  # as _range_exponent
        a = symmetrize(np.ldexp(stack[idx], -k[:, None, None]))
        thr = JACOBI_OFF_REL * np.sqrt((a * a).reshape(len(idx), -1).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _sweep_stack(np.ascontiguousarray(a.transpose(1, 2, 0)), thr, max_sweeps, k, idx,
                         lam, errors)
    return lam, errors


def _range_exponent(peak: float, limit: int = 400) -> int:
    """0 for a largest |entry| ``peak`` in [2^-limit, 2^limit), else its binary exponent k.

    The sweeps square the entries, so a matrix S out of the range of 400 is
    solved as S 2^-k, and its eigenvalues and residuals are scaled back by
    2^k, exactly.
    """
    k = math.frexp(peak)[1]
    return 0 if -limit < k <= limit else k


_hypot1 = functools.partial(math.hypot, 1.0)


def _sweep_stack(a: np.ndarray, threshold: np.ndarray, max_sweeps: int, shift: np.ndarray,
                 index: np.ndarray, lam: np.ndarray, errors: dict) -> None:
    """``_sweep_lists`` without vectors on the symmetric matrices S_j 2^-shift[j],
    stacked on the last axis of ``a`` (n, n, members).

    Member j's descending eigenvalues go to row ``index[j]`` of ``lam``, or
    its :class:`JacobiConvergenceError` to ``errors``.  ``a`` is rotated in place.
    """
    iu, ju = np.triu_indices(a.shape[0], 1)
    rotations = _rotation_plan(a.shape[0])
    thr2 = threshold * threshold
    sweeps = 0
    while True:
        u = a[iu, ju]
        off2 = np.add.accumulate(2.0 * u * u)[-1] if iu.size else np.zeros(a.shape[2])
        done = off2 <= thr2
        if done.any():
            d = np.ldexp(np.diagonal(a)[done], shift[done][:, None])
            lam[index[done]] = np.take_along_axis(d, np.argsort(-d, axis=1, kind="stable"), 1)
        if sweeps >= max_sweeps:
            for j in np.flatnonzero(~done).tolist():
                k = int(shift[j])
                errors[int(index[j])] = JacobiConvergenceError(
                    math.ldexp(math.sqrt(off2[j]), k), math.ldexp(threshold[j], k), max_sweeps)
            return
        if done.any():
            left = ~done
            a, thr2, threshold, shift, index = (
                a[:, :, left], thr2[left], threshold[left], shift[left], index[left])
            if not index.size:
                return
        sweeps += 1
        for p, r, _ in rotations:
            _rotate_stack(a, p, r)


def _rotate_stack(a: np.ndarray, p: int, r: int) -> None:
    """One Jacobi rotation (p, r) of every matrix in the stack, as ``_sweep_lists``.

    Every value is computed from views of ``a`` before the first write.
    """
    app = a[p, p]
    arr = a[r, r]
    apq = a[p, r]
    theta = (arr - app) / (2.0 * apq)
    t = 1.0 / (np.abs(theta) + np.fromiter(map(_hypot1, theta.tolist()), float, theta.size))
    np.negative(t, out=t, where=theta < 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    sn = t * c
    tapq = t * apq
    app_new = app - tapq
    arr_new = arr + tapq
    xp = a[p]
    xr = a[r]
    vp = c * xp - sn * xr
    vq = sn * xp + c * xr
    pivot = apq != 0.0
    apq_new = 0.0
    if not pivot.all():
        # The list code skips a zero pivot: keep those matrices as they are.
        keep = ~pivot
        vp[:, keep] = xp[:, keep]
        vq[:, keep] = xr[:, keep]
        app_new[keep] = app[keep]
        arr_new[keep] = arr[keep]
        apq_new = np.where(pivot, 0.0, apq)
    a[p] = vp
    a[r] = vq
    a[:, p] = vp
    a[:, r] = vq
    a[p, p] = app_new
    a[r, r] = arr_new
    a[p, r] = apq_new
    a[r, p] = apq_new


def _pd_eigs_ok(lam: np.ndarray) -> bool:
    n = lam.shape[0]
    return float(lam[-1]) > n * PD_REL_FACTOR * float(lam[0])


def _eigen(a) -> EigenDecomposition:
    return a if isinstance(a, EigenDecomposition) else sym_eigen(a)


def pd_power(a, p) -> np.ndarray:
    """Real matrix power of a positive definite matrix, or the stack of its powers.

    ``a`` is the matrix or its :class:`EigenDecomposition`, which saves the
    decomposition.  ``p`` is a real exponent, for which p = 0 yields the
    identity, or a list or tuple of exponents, for which the result stacks
    ``pd_power(a, x)`` for each x in order, with the bits of those calls,
    and raises what the first of them to fail raises.  The stack applies
    the Python scalar ``x ** p`` to the eigenvalues, as the scalar form
    does, because numpy's ``power`` rounds differently, and stacked
    ``matmul`` gives the bits of the 2-D product.
    """
    if isinstance(p, (list, tuple)):
        uniq = dict.fromkeys(p)
        vals = None
        if all(map(math.isfinite, uniq)):
            e = _eigen(a)
            if e.q is not None and _pd_eigs_ok(e.lam):
                lam = e.lam.tolist()
                try:
                    vals = np.array([[v**x for v in lam] for x in uniq]).reshape(len(uniq), e.n)
                except OverflowError:
                    pass
        if vals is None or not np.isfinite(vals).all():
            # Make the calls one by one, so the first to fail raises its own error.
            return np.array([pd_power(a, x) for x in p])
        m = symmetrize((e.q * vals[:, None, :]) @ e.q.T)
        if 0.0 in uniq:
            m[list(uniq).index(0.0)] = np.eye(e.n)
        pos = {x: j for j, x in enumerate(uniq)}
        return m if len(pos) == len(p) else m[[pos[x] for x in p]]
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

    Eigenvalues of x.T x are clamped at zero before the square root.  x.T x
    is formed on x scaled by an exact power of two where its entries would
    otherwise overflow or underflow in the product (see ``_gram_exponent``).
    """
    a = as_square_matrix(x)
    return _gram_roots(sym_eigen(_gram(a), vectors=False).lam, _gram_exponent(a))


def _gram_exponent(x: np.ndarray) -> int:
    """0 where the largest |entry| of the matrix x lies in [2^-200, 2^200),
    else its binary exponent k.

    Out of that range x.T x would leave the range that ``sym_eigen`` solves
    unscaled, or overflow, so ``_gram`` forms it on x 2^-k, exactly.
    """
    return _range_exponent(float(np.abs(x).max()), 200)


def _gram(x) -> np.ndarray:
    """x.T x of a square matrix with finite entries, symmetrized, formed on
    x 2^-k for k = ``_gram_exponent(x)``."""
    a = as_square_matrix(x)
    k = _gram_exponent(a)
    if k:
        a = np.ldexp(a, -k)
    g = a.T @ a
    return (g + g.T) * 0.5


def _gram_roots(lam: np.ndarray, k) -> np.ndarray:
    """The singular values of x from the descending spectrum ``lam`` of
    ``_gram(x)`` and its exponent ``k = _gram_exponent(x)``."""
    return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), k)


def require_pd(a, name: str = "matrix") -> np.ndarray:
    """Validate strict positive definiteness and return the coerced array."""
    m = require_symmetric(a, name)
    require_pd_eigen(sym_eigen(m, vectors=False), name)
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
    if not math.isfinite(cond_exponent):
        raise ValueError(f"cond_exponent must be finite, got {cond_exponent}")
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
