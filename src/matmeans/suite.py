"""Property catalogue and campaign runner.

Each property P1..P15 encodes one inequality family satisfied by the
matrix means (eigenvalue monotonicity, norm chains, majorization chains,
block positivity), plus P6, which reproduces the built-in 2x2 example
showing that the geometric mean is not pointwise eigenvalue-dominated by
the log-Euclidean mean.  Properties are evaluated on seeded random
positive definite instances; every norm-level claim is checked over the
full Ky Fan family k = 1..n, which by Fan dominance covers all unitarily
invariant norms.  Each sub-inequality is recorded in a
:class:`MarginTracker`, whose ``compare`` holds the margin formula of every
kind; the tightest margin decides the verdict, and a NaN margin fails it.

The properties that run over the (t, p) grid read all their spectra first,
in a fixed order, then compare each link of their chain in one
``compare`` call over the whole grid.  The tracker records those margins
as one compare per point would: by t, then p, then link within the point,
then k.  That order decides the witness among equal margins, such as the
exact 0.0 and -0.0 at the endpoints t = 0 and t = 1.

The campaign runner materializes instances in chunks of up to ``_CHUNK``.
Before any property runs on a chunk, it solves every table spectrum the
selected properties read (``_spectra_read``, one list of grid entries per
property) in one batch per matrix order; the properties then read those
spectra from the tables, and each instance is dropped once its properties
ran.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compound import compound_matrix
from .densela import (
    _gram,
    _gram_roots,
    random_pd,
    sym_eigen,
    sym_exp,
    symmetrize,
)
from .means import MultiTable, PairTable, prefill
from .spectra import log_prefix

__all__ = [
    "DEFAULT_T_VALUES",
    "DEFAULT_P_GRID",
    "DEFAULT_TOLERANCE",
    "PROPERTY_IDS",
    "PROPERTY_DESCRIPTIONS",
    "InstanceSpec",
    "InstanceData",
    "Witness",
    "PropertyResult",
    "CampaignConfig",
    "CampaignReport",
    "paper_pair",
    "paper_counterexample",
    "materialize",
    "evaluate_property",
    "check_property",
    "build_instance",
    "run_campaign",
]

DEFAULT_T_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_P_GRID = (-4.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 4.0)
DEFAULT_TOLERANCE = 1e-8
# Margins in [-10 tol, -tol) count as passes but are flagged marginal.
MARGINAL_FACTOR = 10.0
BK_EXPONENTS = (1.0, 1.5, 2.0, 3.0)

PROPERTY_DESCRIPTIONS = {
    "P1": "eigenvalues of the two-matrix power mean are non-decreasing in p",
    "P2": "norm chain: geometric <= log-Euclidean <= power mean (p > 0)",
    "P3": "refined norm chain through the sandwich mean",
    "P4": "five-link norm chain at p = 1 (sandwich, symmetrized and plain cross term, arithmetic)",
    "P5": "log-majorization chain with the sandwich/product spectral identity",
    "P6": "built-in 2x2 counterexample to pointwise eigenvalue domination",
    "P7": "midpoint chain endpoint: majorizations, determinant identity, trace bound",
    "P8": "compound matrices commute with the midpoint geometric mean",
    "P9": "multi-matrix power mean monotonicity, unnormalized decrease, sum-power norm bound",
    "P10": "multi-matrix log mean is norm-dominated by every positive power mean",
    "P11": "block positivity certificates and the geometric mean vs root product",
    "P12": "norm arithmetic-geometric bound and the square-root mean chain",
    "P13": "geometric mean vs cross term majorization and related power bounds",
    "P14": "symmetrized product bound |||A^(1/2) X A^(1/2)||| <= |||(AX + XA)/2|||",
    "P15": "positive semidefinite path comparison and the exponential product bound",
}
PROPERTY_IDS = tuple(PROPERTY_DESCRIPTIONS)

# Per-property overrides of the pass tolerance: P6 asserts absolute bands,
# P8 is an equality of assembled matrices checked at 1e-7 relative.
_PROPERTY_TOL = {"P6": 0.0, "P8": 1e-7}


def _require_nonnegative(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def _check_grids(cond_exponent: float, t_values, p_grid) -> None:
    """Checks shared by InstanceSpec and CampaignConfig.

    A campaign runs them up front, so a bad value stops it before any
    instance is evaluated, even with count 0.
    """
    _require_nonnegative("cond_exponent", cond_exponent)
    if any(not 0.0 <= t <= 1.0 for t in t_values):
        raise ValueError(f"t values must lie in [0, 1]: {t_values}")
    if not all(math.isfinite(p) for p in p_grid):
        raise ValueError(f"p grid must be finite: {p_grid}")
    if any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValueError("p grid must be strictly ascending")


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of one random test instance."""

    seed: int
    dim: int
    cond_exponent: float
    t_values: tuple[float, ...] = DEFAULT_T_VALUES
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    m: int = 2

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"instance dimension must be >= 2, got {self.dim}")
        if self.m < 1:
            raise ValueError(f"matrix count must be >= 1, got {self.m}")
        _check_grids(self.cond_exponent, self.t_values, self.p_grid)


@dataclass(frozen=True, eq=False)
class InstanceData:
    """Materialized matrices for one instance, with their table of means.

    ``means`` holds every mean of (A, B) and ``multi_means`` every power
    mean of the weighted matrices.  Each decomposition, power, mean and
    spectrum is computed once, on the first read by any property (a
    campaign solves the grid spectra beforehand, in batches), and the
    matrices are validated once, so the properties that compare the same
    spectra share them.
    """

    spec: InstanceSpec
    a: np.ndarray
    b: np.ndarray
    multi: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    x_sym: np.ndarray

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def dim(self) -> int:
        return self.spec.dim

    @functools.cached_property
    def means(self) -> PairTable:
        return _InstanceTable(self)

    @functools.cached_property
    def multi_means(self) -> MultiTable:
        return MultiTable(self.multi, self.weights)


class _InstanceTable(PairTable):
    """The pair table of an instance, with the matrices that P9 and P12-P15 form.

    Each of them is read through ``spectrum(name)``, so a campaign solves it
    in the batches of its chunk.
    """

    def __init__(self, data: InstanceData):
        super().__init__(data.a, data.b)
        self._multi = data.multi
        self._x = data.x_sym

    def multi_sum(self) -> np.ndarray:
        """A_1 + ... + A_m of the weighted matrices (P9)."""
        return symmetrize(sum(self._multi))

    def ab_gram(self) -> np.ndarray:
        """X^T X of X = AB, formed as ``singular_values`` forms it (P12)."""
        return _gram(self._mats[0] @ self._mats[1])

    def pair_sum(self) -> np.ndarray:
        """A + B (P12)."""
        return symmetrize(self._mats[0] + self._mats[1])

    def bab_half(self) -> np.ndarray:
        """B^{1/2} A B^{1/2} (P13)."""
        rb = self.power(1, 0.5)
        return symmetrize(rb @ self._mats[0] @ rb)

    def bab(self) -> np.ndarray:
        """B A B (P13)."""
        a, b = self._mats
        return symmetrize(b @ a @ b)

    def x_congruence(self) -> np.ndarray:
        """A^{1/2} X A^{1/2} (P14)."""
        ra = self.power(0, 0.5)
        return symmetrize(ra @ self._x @ ra)

    def x_jordan(self) -> np.ndarray:
        """(AX + XA) / 2 (P14)."""
        a, x = self._mats[0], self._x
        return symmetrize((a @ x + x @ a) * 0.5)

    def log_sum(self) -> np.ndarray:
        """log A + log B (P15)."""
        return symmetrize(self.log(0) + self.log(1))

    def exp_product(self) -> np.ndarray:
        """e^{K/2} e^H e^{K/2} of H = log A, K = log B (P15)."""
        h, k = self.log(0), self.log(1)
        ek2 = sym_exp(k * 0.5)
        return symmetrize(ek2 @ sym_exp(h) @ ek2)


def materialize(spec: InstanceSpec) -> InstanceData:
    """Deterministically build the instance matrices from the seed."""
    base = spec.seed * 8
    a = random_pd(spec.dim, spec.cond_exponent, base + 1)
    b = random_pd(spec.dim, spec.cond_exponent, base + 2)
    multi = tuple(
        random_pd(spec.dim, spec.cond_exponent, base + 2 + j)
        for j in range(1, spec.m + 1)
    )
    rng = np.random.default_rng(base + 7)
    u = rng.uniform(0.2, 1.0, spec.m)
    weights = tuple(float(w) for w in u / u.sum())
    x = rng.standard_normal((spec.dim, spec.dim))
    return InstanceData(
        spec=spec, a=a, b=b, multi=multi, weights=weights, x_sym=(x + x.T) * 0.5
    )


@dataclass
class Witness:
    """Location of the tightest sub-inequality of a property check."""

    t: float | None = None
    p: float | None = None
    norm_id: str | None = None
    lhs: float | None = None
    rhs: float | None = None


@dataclass
class PropertyResult:
    property_id: str
    seed: int
    dim: int
    status: str  # pass | fail | skipped
    marginal: bool
    worst_margin: float
    witness: Witness
    error: str | None = None
    subineq: int = 0  # sub-inequalities checked


class MarginTracker:
    """Accumulates normalized sub-inequality margins, keeping the worst.

    A NaN margin is never the worst, so the first one is kept apart: a
    sub-inequality that evaluated to NaN was not shown to hold.  Margins
    are recorded in order; the worst is the first of the smallest, and the
    NaN witness the first NaN.
    """

    def __init__(self):
        self.worst = math.inf
        self.witness = Witness()
        self.nan_witness: Witness | None = None
        self.count = 0
        self._links: list | None = None  # the compares of an open chain

    def add(self, margin, *, t=None, p=None, norm_id=None, lhs=None, rhs=None):
        m = float(margin)
        self.count += 1
        if m < self.worst:
            self.worst = m
            self.witness = Witness(t=t, p=p, norm_id=norm_id, lhs=lhs, rhs=rhs)
        elif math.isnan(m) and self.nan_witness is None:
            self.nan_witness = Witness(t=t, p=p, norm_id=norm_id, lhs=lhs, rhs=rhs)

    def compare(self, kind, lhs, rhs, label=None, *, t=None, p=None):
        """Record lhs <= rhs (lhs == rhs for ``eq``), one sub-inequality per entry.

        ``lhs`` and ``rhs`` are two scalars, recorded under ``label``, or two
        equal-length vectors, whose entry k is recorded under ``label:k``;
        ``label`` defaults to the kind.  The margin of entry k is:

        * ``leq``: (r_k - l_k) / (1 + max(|l_k|, |r_k|));
        * ``eq``: -|l_k - r_k| / (1 + max(|l_k|, |r_k|));
        * ``KyFan``: ``leq`` on the prefix sums, which by Fan dominance
          covers every unitarily invariant norm;
        * ``sum``, ``logsum``: (r_k - l_k) / (1 + max(|l_n|, |r_n|)) on the
          prefix sums of the entries, or of their logarithms, so the
          totals set the scale of every k.

        ``t`` and ``p`` may be arrays: their broadcast shape is a grid, and
        ``lhs`` and ``rhs`` then carry it as leading axes, one scalar or
        vector per grid point.  A grid compare records what one compare per
        point, in C order, would record; inside :meth:`chain` it is one
        link of a chain.

        Returns the compared values (l, r): the prefix sums for the prefix
        kinds, broadcast to the grid.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown comparison kind {kind!r}")
        l = np.asarray(lhs, dtype=float)
        r = np.asarray(rhs, dtype=float)
        if kind == "logsum":
            l, r = log_prefix(l), log_prefix(r)
        elif kind in ("KyFan", "sum"):
            l, r = np.cumsum(l, axis=-1), np.cumsum(r, axis=-1)
        l, r = np.broadcast_arrays(l, r)
        if kind in ("sum", "logsum"):
            # Python's max, which keeps its first argument unless the second is larger.
            lt, rt = np.abs(l[..., -1:]), np.abs(r[..., -1:])
            scale = 1.0 + np.where(rt > lt, rt, lt)
        else:
            scale = 1.0 + np.maximum(np.abs(l), np.abs(r))
        margins = (-np.abs(l - r) if kind == "eq" else r - l) / scale
        label = label or kind
        grid = np.broadcast_shapes(np.shape(t), np.shape(p))
        if grid or self._links is not None:
            link = _Link(margins, l, r, label, t, p, len(grid))
            if self._links is None:
                self._record([link])
            else:
                self._links.append(link)
            return l, r
        if l.ndim == 0:
            self.add(margins, t=t, p=p, norm_id=label, lhs=float(l), rhs=float(r))
            return l, r
        for k, (m, lv, rv) in enumerate(zip(margins.tolist(), l.tolist(), r.tolist()), 1):
            self.add(m, t=t, p=p, norm_id=f"{label}:{k}", lhs=lv, rhs=rv)
        return l, r

    @contextlib.contextmanager
    def chain(self):
        """Record the compares made inside as one chain over a shared grid.

        Their margins are recorded as one compare per grid point and link
        would record them: by grid point, then link (the order of the
        compares), then k.  A link over fewer grid axes, such as a t-only link beside
        (t, p) links, comes first at its leading index.
        """
        self._links = links = []
        try:
            yield
        finally:
            self._links = None
        self._record(links)

    def _record(self, links: list) -> None:
        """Record the margins of ``links`` as ``add`` would, in chain order."""
        flat = [lk.margins.ravel() for lk in links]
        m = np.concatenate(flat) if len(flat) > 1 else flat[0]
        self.count += m.size
        if not m.size:
            return
        starts = np.cumsum([0] + [f.size for f in flat[:-1]])
        lo = np.fmin.reduce(m)  # NaN only if every margin is
        if lo < self.worst:
            self.worst, self.witness = _first(links, starts, np.flatnonzero(m == lo))
        if self.nan_witness is None:
            nan = np.flatnonzero(np.isnan(m))
            if nan.size:
                self.nan_witness = _first(links, starts, nan)[1]


@dataclass
class _Link:
    """One grid compare: its margins and compared values, with grid axes leading."""

    margins: np.ndarray
    l: np.ndarray
    r: np.ndarray
    label: str
    t: object
    p: object
    grid_ndim: int

    def key(self, j: int, link: int, rank: int) -> tuple:
        """Sort key of flat entry j: grid index padded to ``rank`` axes, link, k."""
        idx = np.unravel_index(j, self.margins.shape)
        g = self.grid_ndim
        k = idx[g] if len(idx) > g else 0
        return (*idx[:g], *(-1,) * (rank - g), link, k)

    def witness(self, j: int) -> tuple[float, Witness]:
        idx = np.unravel_index(j, self.margins.shape)
        g = self.grid_ndim
        t, p = (
            None if v is None else float(np.broadcast_to(v, self.margins.shape[:g])[idx[:g]])
            for v in (self.t, self.p)
        )
        norm_id = f"{self.label}:{idx[g] + 1}" if len(idx) > g else self.label
        return float(self.margins[idx]), Witness(
            t=t, p=p, norm_id=norm_id, lhs=float(self.l[idx]), rhs=float(self.r[idx])
        )


def _first(links: list, starts: np.ndarray, candidates: np.ndarray) -> tuple[float, Witness]:
    """(margin, witness) of the candidate recorded first.

    ``candidates`` index the concatenated margins of ``links``, link i
    starting at ``starts[i]``; within a chain they are ordered by
    :meth:`_Link.key`.
    """
    if len(links) == 1:
        return links[0].witness(int(candidates[0]))
    at = np.searchsorted(starts, candidates, side="right") - 1
    rank = max(lk.grid_ndim for lk in links)
    _, i, j = min(
        (links[i].key(j, i, rank), i, j)
        for i, j in zip(at.tolist(), (candidates - starts[at]).tolist())
    )
    return links[i].witness(j)


_KINDS = ("leq", "eq", "KyFan", "sum", "logsum")


def _abs_desc(lam) -> np.ndarray:
    """|eigenvalues| in descending order: the singular values of a symmetric matrix."""
    return np.sort(np.abs(lam))[::-1]


def _positive_grid(spec: InstanceSpec) -> list[float]:
    return [p for p in spec.p_grid if p > 0.0]


def paper_pair() -> tuple[np.ndarray, np.ndarray]:
    """The exact 2x2 pair behind P6 and the `paper-example` command."""
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([[3.0, 3.0], [3.0, 4.5]])
    return a, b


@functools.cache
def paper_counterexample() -> tuple[float, float]:
    """Second eigenvalues (geometric, log-Euclidean) of the built-in pair.

    The pair is fixed, so the two floats are computed once per process.
    """
    means = PairTable(*paper_pair())
    l2_geo = float(means.geometric_spectrum(0.5)[1])
    l2_logeuc = float(means.log_euclidean_spectrum(0.5)[1])
    return l2_geo, l2_logeuc


# ---------------------------------------------------------------------------
# The catalogue.


def _spectra(rows, *shape) -> np.ndarray:
    """Spectra read in order, as one array of ``shape`` (whose last axis is n)."""
    return np.reshape(np.array(rows, dtype=float), shape)


def _p1(data: InstanceData, tr: MarginTracker) -> None:
    """lambda_j of the power mean is non-decreasing across the p grid."""
    means, spec = data.means, data.spec
    ts, ps = spec.t_values, spec.p_grid
    s = _spectra([means.power_mean_spectrum(t, p) for t in ts for p in ps], len(ts), len(ps), data.dim)
    tr.compare("leq", s[:, :-1], s[:, 1:], "lambda", t=np.array(ts)[:, None], p=np.array(ps[1:]))


def _grid_reads(spec: InstanceSpec, at_t, at_tp=()) -> tuple[np.ndarray, np.ndarray]:
    """Spectra read in the order of the t-grid chains: at each t every ``f(t)`` of
    ``at_t``, then at each positive p every ``f(t, p)`` of ``at_tp``.

    Returns arrays of shapes (|t|, len(at_t), n) and (|t|, |p|, len(at_tp), n).
    """
    ts, pos = spec.t_values, _positive_grid(spec)
    rows_t, rows_tp = [], []
    for t in ts:
        rows_t += [f(t) for f in at_t]
        for p in pos:
            rows_tp += [f(t, p) for f in at_tp]
    return (
        _spectra(rows_t, len(ts), len(at_t), spec.dim),
        _spectra(rows_tp, len(ts), len(pos), len(at_tp), spec.dim),
    )


def _tp(spec: InstanceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t axis of a t-only link, and the t and p axes of a (t, p) link."""
    t = np.array(spec.t_values, dtype=float)
    return t, t[:, None], np.array(_positive_grid(spec))


def _p2(data: InstanceData, tr: MarginTracker) -> None:
    """|||geometric||| <= |||log-Euclidean||| <= |||power mean||| for p > 0."""
    m = data.means
    s, s_p = _grid_reads(
        data.spec, (m.geometric_spectrum, m.log_euclidean_spectrum), (m.power_mean_spectrum,)
    )
    t, tp, p = _tp(data.spec)
    with tr.chain():
        tr.compare("KyFan", s[:, 0], s[:, 1], t=t)
        tr.compare("KyFan", s[:, None, 1], s_p[:, :, 0], t=tp, p=p)


def _p3(data: InstanceData, tr: MarginTracker) -> None:
    """Same chain refined through the sandwich mean."""
    m = data.means
    s, s_p = _grid_reads(
        data.spec,
        (m.geometric_spectrum, m.log_euclidean_spectrum),
        (m.sandwich_mean_spectrum, m.power_mean_spectrum),
    )
    t, tp, p = _tp(data.spec)
    with tr.chain():
        tr.compare("KyFan", s[:, 0], s[:, 1], t=t)
        tr.compare("KyFan", s[:, None, 1], s_p[:, :, 0], t=tp, p=p)
        tr.compare("KyFan", s_p[:, :, 0], s_p[:, :, 1], t=tp, p=p)


def _p4(data: InstanceData, tr: MarginTracker) -> None:
    """Five-link chain at p = 1, ending at the arithmetic path."""
    m = data.means
    chain, _ = _grid_reads(data.spec, (
        m.geometric_spectrum,
        m.log_euclidean_spectrum,
        lambda t: m.sandwich_mean_spectrum(t, 1.0),
        lambda t: _abs_desc(m.spectrum("cross_sym", t)),
        m.cross_singular_values,
        m.arithmetic_spectrum,
    ))
    t = np.array(data.spec.t_values)
    with tr.chain():
        for j in range(5):
            tr.compare("KyFan", chain[:, j], chain[:, j + 1], t=t, p=1.0)


def _p5(data: InstanceData, tr: MarginTracker) -> None:
    """Log-majorization chain and the sandwich/product spectral identity."""
    m = data.means

    def dual(t, p):
        # At the weight-collapse endpoints the product A^{(1-t)p} B^{tp}
        # is exactly A^p or B^p; its root is then A or B, as for the means.
        end = m._end(t)
        if end is not None:
            return m.eig(end).lam
        return m.product_spectrum(t, p) ** (1.0 / p)

    s, s_p = _grid_reads(
        data.spec,
        (m.geometric_spectrum, m.log_euclidean_spectrum),
        (m.sandwich_mean_spectrum, dual, m.power_mean_spectrum),
    )
    sw = s_p[:, :, 0]
    t, tp, p = _tp(data.spec)
    with tr.chain():
        lx, ly = tr.compare("logsum", s[:, 0], s[:, 1], t=t)
        tr.compare("eq", lx[:, -1], ly[:, -1], "logdet", t=t)
        lx, ly = tr.compare("logsum", s[:, None, 1], sw, t=tp, p=p)
        tr.compare("eq", lx[..., -1], ly[..., -1], "logdet", t=tp, p=p)
        tr.compare("eq", sw, s_p[:, :, 1], "lambda", t=tp, p=p)
        tr.compare("logsum", sw, s_p[:, :, 2], t=tp, p=p)


def _p6(data: InstanceData, tr: MarginTracker) -> None:
    """Fixed 2x2 pair: lambda_2 values land in their bands, domination fails."""
    l2_geo, l2_le = paper_counterexample()
    tr.add(1e-9 - abs(l2_geo - 1.0), norm_id="lambda:2-geo", lhs=l2_geo, rhs=1.0)
    tr.add(
        min(l2_le - 0.9801, 0.9811 - l2_le),
        norm_id="lambda:2-logeuc", lhs=0.9801, rhs=0.9811,
    )
    tr.add(l2_geo - l2_le, norm_id="domination-gap", lhs=l2_le, rhs=l2_geo)


def _p7(data: InstanceData, tr: MarginTracker) -> None:
    """Midpoint endpoint: majorizations, determinant identity, trace bound."""
    means = data.means
    s_geo = means.geometric_spectrum(0.5)
    s_lee = means.sandwich_mean_spectrum(0.5, 1.0)
    lx, ly = tr.compare("logsum", s_geo, s_lee, t=0.5)
    tr.compare("eq", lx[-1], ly[-1], "logdet", t=0.5)
    tr.compare("sum", s_geo, s_lee, t=0.5)
    ld_geo = float(np.sum(np.log(s_geo)))
    ld_ab = 0.5 * float(np.sum(np.log(means.eig(0).lam)) + np.sum(np.log(means.eig(1).lam)))
    tr.compare("eq", ld_geo, ld_ab, "logdet", t=0.5)
    root_product_trace = float(np.trace(means.cross(0.5)))
    tr.compare("leq", float(np.sum(s_geo)), root_product_trace, "trace", t=0.5)


def _p8(data: InstanceData, tr: MarginTracker) -> None:
    """Compound of the midpoint mean equals the mean of the compounds.

    G = A # B is the unique positive definite solution of X A^-1 X = B, and
    C_k is multiplicative and keeps positive definiteness, so C_k(G) is
    C_k(A) # C_k(B) exactly when C_k(G) C_k(A)^-1 C_k(G) = C_k(B).  That
    residual takes one LU solve per k and no eigensolve of compound order.
    """
    a, b, spec = data.a, data.b, data.spec
    g = data.means.geometric(0.5)
    for k in range(1, spec.dim + 1):
        cg = compound_matrix(g, k)
        lhs = cg @ np.linalg.solve(compound_matrix(a, k), cg)
        rhs = compound_matrix(b, k)
        scale = 1.0 + max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        tr.add(
            -float(np.max(np.abs(lhs - rhs))) / scale,
            norm_id=f"compound:{k}",
            lhs=float(np.max(np.abs(lhs))),
            rhs=float(np.max(np.abs(rhs))),
        )


def _unnormalized_power_spectrum(multi: MultiTable, p: float) -> np.ndarray:
    """Descending spectrum of (sum_i A_i^p)^{1/p}."""
    return np.sort(multi.power_sum_spectrum(p) ** (1.0 / p))[::-1]


def _p9(data: InstanceData, tr: MarginTracker) -> None:
    """Multi-matrix monotonicity, unnormalized decrease on (0, 1], sum-power bound."""
    multi, spec, n = data.multi_means, data.spec, data.dim
    ps = spec.p_grid
    s = _spectra([multi.power_mean_spectrum(p) for p in ps], len(ps), n)
    tr.compare("leq", s[:-1], s[1:], "lambda", p=np.array(ps[1:]))

    unit_ps = [p for p in ps if 0.0 < p <= 1.0]
    s = _spectra([_unnormalized_power_spectrum(multi, p) for p in unit_ps], len(unit_ps), n)
    tr.compare("KyFan", s[1:], s[:-1], p=np.array(unit_ps[1:]))

    lam_sum = data.means.spectrum("multi_sum")
    s = _spectra([multi.power_sum_spectrum(r) for r in BK_EXPONENTS], len(BK_EXPONENTS), n)
    tr.compare("KyFan", s, [lam_sum**r for r in BK_EXPONENTS], p=np.array(BK_EXPONENTS))


def _p10(data: InstanceData, tr: MarginTracker) -> None:
    """Multi-matrix log mean norm-dominated by every positive power mean."""
    multi, pos = data.multi_means, _positive_grid(data.spec)
    s_le = multi.power_mean_spectrum(0.0)
    s = _spectra([multi.power_mean_spectrum(p) for p in pos], len(pos), data.dim)
    tr.compare("KyFan", s_le, s, p=np.array(pos))


def _p11(data: InstanceData, tr: MarginTracker) -> None:
    """Block positivity certificates; geometric mean vs the root product."""
    a, b, means = data.a, data.b, data.means
    g = means.geometric(0.5)
    w = means.cross(0.5)
    for label, block in (
        ("block-geo", np.block([[a, g], [g, b]])),
        ("block-root", np.block([[a, w], [w.T, b]])),
    ):
        lam = sym_eigen(symmetrize(block), vectors=False).lam
        scale = 1.0 + float(np.max(np.abs(lam)))
        tr.add(float(lam[-1]) / scale, norm_id=f"{label}:minlam", lhs=float(lam[-1]), rhs=0.0)
    tr.compare("KyFan", means.geometric_spectrum(0.5), means.cross_singular_values(0.5))


def _p12(data: InstanceData, tr: MarginTracker) -> None:
    """4 |||AB||| <= |||(A+B)^2||| and the square-root mean chain."""
    means, spec = data.means, data.spec
    s_ab = _gram_roots(means.spectrum("ab_gram"))  # the singular values of AB
    s_sum_sq = means.spectrum("pair_sum") ** 2
    # Ky Fan on the prefix sums, the factor 4 applied after the cumsum.
    tr.compare("leq", np.cumsum(s_ab) * 4.0, np.cumsum(s_sum_sq), "KyFan")

    # A^{1/2} and B^{1/2} first: a matrix that is not positive definite
    # fails with the error of its square root.
    means.power(0, 0.5)
    means.power(1, 0.5)
    s_roots = means.cross_singular_values(0.5)
    # ((A^{1/2} + B^{1/2}) / 2)^2 is the power mean at t = 1/2, p = 1/2.
    s_avg_sq = means.power_mean_spectrum(0.5, 0.5)
    ps = [p for p in spec.p_grid if p >= 0.5]
    s = _spectra([means.power_mean_spectrum(0.5, p) for p in ps], len(ps), spec.dim)
    tr.compare("KyFan", s_roots, s_avg_sq)
    tr.compare("KyFan", s_avg_sq, s, p=np.array(ps))


def _p13(data: InstanceData, tr: MarginTracker) -> None:
    """Cross-term majorization and the associated power-product bounds."""
    means, spec, n = data.means, data.spec, data.dim
    ts = spec.t_values
    t_axis = np.array(ts)
    s, _ = _grid_reads(spec, (means.geometric_spectrum, lambda t: means.product_spectrum(t, 1.0)))
    with tr.chain():
        lx, ly = tr.compare("logsum", s[:, 0], s[:, 1], t=t_axis)
        tr.compare("eq", lx[:, -1], ly[:, -1], "logdet", t=t_axis)

    lam_bab_half = means.spectrum("bab_half")
    s_geo_mid = means.geometric_spectrum(0.5)
    tr.compare("KyFan", s_geo_mid, np.sqrt(lam_bab_half), t=0.5)
    tr.compare("KyFan", s_geo_mid**2, lam_bab_half, t=0.5)

    lam_bab = means.spectrum("bab")
    s = _spectra([means.spectrum("bab_power", t) for t in ts], len(ts), n)
    tr.compare("KyFan", s, _spectra([lam_bab**t for t in ts], len(ts), n), t=t_axis)


def _p14(data: InstanceData, tr: MarginTracker) -> None:
    """|||A^(1/2) X A^(1/2)||| <= |||(AX + XA)/2||| for symmetric X."""
    means = data.means
    lhs = _abs_desc(means.spectrum("x_congruence"))
    tr.compare("KyFan", lhs, _abs_desc(means.spectrum("x_jordan")))


def _p15(data: InstanceData, tr: MarginTracker) -> None:
    """Geodesic below the chord, and the exponential product norm bound."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        d = means.chord_gap(t)
        lam = means.spectrum("chord_gap", t)
        scale = 1.0 + float(np.max(np.abs(d)))
        tr.add(float(lam[-1]) / scale, t=t, norm_id="loewner:minlam", lhs=float(lam[-1]), rhs=0.0)

    s_expsum = np.exp(means.spectrum("log_sum"))
    tr.compare("KyFan", s_expsum, means.spectrum("exp_product"))


_CATALOGUE: dict[str, Callable[[InstanceData, MarginTracker], None]] = {
    "P1": _p1, "P2": _p2, "P3": _p3, "P4": _p4, "P5": _p5,
    "P6": _p6, "P7": _p7, "P8": _p8, "P9": _p9, "P10": _p10,
    "P11": _p11, "P12": _p12, "P13": _p13, "P14": _p14, "P15": _p15,
}


def _spectra_read(d: InstanceData) -> dict[str, list[tuple]]:
    """The table spectra each property reads on ``d``, as ``means.prefill`` grid entries.

    Each entry ``(table, name, axes)`` names the reads
    ``table.spectrum(name, *args)`` over the grid of ``axes``.  run_campaign
    solves them in batches before any property runs, so each of these reads
    hits the table; every other spectrum is solved where it is read.
    """
    m, mm, spec = d.means, d.multi_means, d.spec
    ts, ps = spec.t_values, spec.p_grid
    inner = [t for t in ts if t not in (0.0, 1.0)]  # the means are A or B at t = 0, 1
    pos = _positive_grid(spec)
    geo = (m, "geometric", (ts,))
    log_euclidean = (m, "power_aggregate", (inner, (0.0,)))
    power = (m, "power_aggregate", (inner, pos))
    sandwich = (m, "sandwich_matrix", (inner, pos))
    return {
        "P1": [(m, "power_aggregate", (inner, ps))],
        "P2": [geo, log_euclidean, power],
        "P3": [geo, log_euclidean, sandwich, power],
        "P4": [geo, log_euclidean, (m, "sandwich_matrix", (inner, (1.0,))),
               (m, "cross_sym", (ts,)), (m, "cross_gram", (ts,)), (m, "arithmetic", (inner,))],
        "P5": [geo, log_euclidean, sandwich, (m, "product", (inner, pos)), power],
        "P6": [],
        "P7": [(m, "geometric", ((0.5,),)), (m, "sandwich_matrix", ((0.5,), (1.0,)))],
        "P8": [],
        "P9": [(mm, "power_aggregate", (ps,)),
               (mm, "power_sum", ([p for p in ps if 0.0 < p <= 1.0] + list(BK_EXPONENTS),)),
               (m, "multi_sum", ())],
        "P10": [(mm, "power_aggregate", ((0.0, *pos),))],
        "P11": [(m, "geometric", ((0.5,),)), (m, "cross_gram", ((0.5,),))],
        "P12": [(m, "ab_gram", ()), (m, "pair_sum", ()), (m, "cross_gram", ((0.5,),)),
                (m, "power_aggregate", ((0.5,), (0.5, *(p for p in ps if p >= 0.5))))],
        "P13": [geo, (m, "product", (ts, (1.0,))), (m, "bab_half", ()), (m, "geometric", ((0.5,),)),
                (m, "bab", ()), (m, "bab_power", (ts,))],
        "P14": [(m, "x_congruence", ()), (m, "x_jordan", ())],
        "P15": [(m, "chord_gap", (ts,)), (m, "log_sum", ()), (m, "exp_product", ())],
    }


def _prefill(chunk: list[InstanceData], properties) -> None:
    """Solve every table spectrum that ``properties`` read on ``chunk``, in batches."""
    reads = (_spectra_read(d) for d in chunk)
    prefill([r for by_pid in reads for pid in properties for r in by_pid[pid]])


def _classify(worst: float, tol: float) -> tuple[str, bool]:
    if worst >= -tol:
        return "pass", False
    if worst >= -MARGINAL_FACTOR * tol:
        return "pass", True
    return "fail", False


def evaluate_property(
    property_id: str, data: InstanceData, tolerance: float = DEFAULT_TOLERANCE
) -> PropertyResult:
    """Run one property on materialized instance data."""
    fn = _CATALOGUE.get(property_id)
    if fn is None:
        raise ValueError(f"unknown property id {property_id!r}")
    tol = _PROPERTY_TOL.get(property_id, tolerance)
    tr = MarginTracker()
    try:
        fn(data, tr)
    except Exception as exc:  # a crashed check is a failed check
        return PropertyResult(
            property_id=property_id,
            seed=data.spec.seed,
            dim=data.spec.dim,
            status="fail",
            marginal=False,
            worst_margin=-math.inf,
            witness=Witness(norm_id="error"),
            error=f"{type(exc).__name__}: {exc}",
        )
    status, marginal = _classify(tr.worst, tol)
    worst, witness = tr.worst, tr.witness
    if tr.nan_witness is not None and status != "fail":
        # A NaN sub-inequality fails, unless a finite margin already failed.
        status, marginal, worst, witness = "fail", False, math.nan, tr.nan_witness
    return PropertyResult(
        property_id=property_id,
        seed=data.spec.seed,
        dim=data.spec.dim,
        status=status,
        marginal=marginal,
        worst_margin=worst,
        witness=witness,
        subineq=tr.count,
    )


def check_property(
    property_id: str,
    instance: InstanceSpec | InstanceData,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyResult:
    """Run one property on an instance, materializing it first if given its spec.

    A property that checked no sub-inequality, for instance because the t
    grid is empty, held nothing: it is reported as skipped, not passed.
    """
    data = instance if isinstance(instance, InstanceData) else materialize(instance)
    res = evaluate_property(property_id, data, tolerance)
    if res.status == "pass" and res.subineq == 0:
        res.status = "skipped"
    return res


# ---------------------------------------------------------------------------
# Campaign runner.


@dataclass(frozen=True)
class CampaignConfig:
    master_seed: int = 1
    count: int = 100
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    cond_exponent: float = 1.5
    t_values: tuple[float, ...] = DEFAULT_T_VALUES
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    m_values: tuple[int, ...] = (2, 3, 4)
    properties: tuple[str, ...] = PROPERTY_IDS
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master seed must be >= 0")
        if self.count < 0:
            raise ValueError("instance count must be >= 0")
        if not self.properties:
            raise ValueError("at least one property is required")
        unknown = [p for p in self.properties if p not in _CATALOGUE]
        if unknown:
            raise ValueError(f"unknown property ids: {unknown}")
        repeated = sorted({p for p in self.properties if self.properties.count(p) > 1})
        if repeated:
            raise ValueError(f"property ids repeat: {repeated}")
        if not self.dims:
            raise ValueError("at least one dimension is required")
        if min(self.dims) < 2:
            raise ValueError(f"dimensions must be >= 2, got {list(self.dims)}")
        if not self.m_values or min(self.m_values) < 1:
            raise ValueError(f"matrix counts must be nonempty and >= 1, got {list(self.m_values)}")
        _check_grids(self.cond_exponent, self.t_values, self.p_grid)
        _require_nonnegative("tolerance", self.tolerance)

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "count": self.count,
            "dims": list(self.dims),
            "cond_exponent": self.cond_exponent,
            "t_values": list(self.t_values),
            "p_grid": list(self.p_grid),
            "m_values": list(self.m_values),
            "properties": list(self.properties),
            "tolerance": self.tolerance,
        }


@dataclass
class CampaignReport:
    config: CampaignConfig
    results: list[PropertyResult]
    counts: dict[str, dict[str, int]]
    failures: list[PropertyResult]
    duration_seconds: float

    @property
    def total_failures(self) -> int:
        return len(self.failures)


def build_instance(config: CampaignConfig, index: int) -> InstanceSpec:
    """Instance i draws its shape from seed master_seed + i."""
    seed = config.master_seed + index
    rng = np.random.default_rng(seed)
    dim = int(config.dims[int(rng.integers(0, len(config.dims)))])
    cond = float(rng.uniform(0.0, config.cond_exponent))
    m = int(config.m_values[int(rng.integers(0, len(config.m_values)))])
    return InstanceSpec(
        seed=seed,
        dim=dim,
        cond_exponent=cond,
        t_values=config.t_values,
        p_grid=config.p_grid,
        m=m,
    )


def _json_float(v) -> float | None:
    if v is None:
        return None
    f = float(v)
    return f if math.isfinite(f) else None


def result_to_json_obj(res: PropertyResult) -> dict:
    obj = {
        "property_id": res.property_id,
        "seed": res.seed,
        "dim": res.dim,
        "t": _json_float(res.witness.t),
        "p": _json_float(res.witness.p),
        "norm_id": res.witness.norm_id,
        "status": res.status,
        "marginal": res.marginal,
        "worst_margin": _json_float(res.worst_margin),
        "lhs": _json_float(res.witness.lhs),
        "rhs": _json_float(res.witness.rhs),
    }
    if res.error is not None:
        obj["error"] = res.error
    return obj


def _summary_obj(report: "CampaignReport") -> dict:
    return {
        "summary": True,
        "config": report.config.to_dict(),
        "instances": report.config.count,
        "properties": report.counts,
        "total_failures": report.total_failures,
    }


def report_jsonl_lines(report: CampaignReport) -> list[str]:
    lines = [
        json.dumps(result_to_json_obj(r), separators=(",", ":"), allow_nan=False)
        for r in report.results
    ]
    lines.append(json.dumps(_summary_obj(report), separators=(",", ":"), allow_nan=False))
    return lines


def report_csv_lines(report: CampaignReport) -> list[str]:
    lines = ["property_id,pass,fail,marginal,skipped"]
    for pid in report.config.properties:
        c = report.counts[pid]
        lines.append(f"{pid},{c['pass']},{c['fail']},{c['marginal']},{c['skipped']}")
    return lines


# Instances materialized, and their table spectra solved, together.
_CHUNK = 32


def run_campaign(
    config: CampaignConfig,
    jsonl_path=None,
    csv_path=None,
) -> CampaignReport:
    """Evaluate the selected properties on the seeded instance stream.

    Deterministic for a fixed config; a failing property never aborts the
    run.  The wall-clock duration lives only on the in-memory report so
    that serialized reports stay byte-identical across runs.
    """
    start = time.perf_counter()
    results: list[PropertyResult] = []
    for first in range(0, config.count, _CHUNK):
        chunk = [
            materialize(build_instance(config, i))
            for i in range(first, min(first + _CHUNK, config.count))
        ]
        _prefill(chunk, config.properties)
        chunk.reverse()
        while chunk:  # each instance is dropped once its properties ran
            data = chunk.pop()
            for pid in config.properties:
                results.append(check_property(pid, data, tolerance=config.tolerance))

    counts = {
        pid: {"pass": 0, "fail": 0, "marginal": 0, "skipped": 0}
        for pid in config.properties
    }
    failures = []
    for res in results:
        bucket = counts[res.property_id]
        bucket[res.status] += 1
        if res.marginal:
            bucket["marginal"] += 1
        if res.status == "fail":
            failures.append(res)
    report = CampaignReport(
        config=config,
        results=results,
        counts=counts,
        failures=failures,
        duration_seconds=time.perf_counter() - start,
    )
    # A report is built before its file is opened, so one that cannot be
    # serialized leaves no empty file behind.
    if jsonl_path is not None:
        text = "\n".join(report_jsonl_lines(report)) + "\n"
        with open(jsonl_path, "w", encoding="ascii") as fh:
            fh.write(text)
    if csv_path is not None:
        text = "\n".join(report_csv_lines(report)) + "\n"
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write(text)
    return report
