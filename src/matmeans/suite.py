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

A campaign materializes instances in chunks of up to ``_CHUNK`` and groups
each chunk by dimension (:class:`_Group`; an instance checked on its own
is a group of one).  Before any property runs, every table spectrum the
selected properties read (``_spectra_read``, one list of grid entries per
property) is solved for the whole group, in one batch per matrix order,
and stored as one array per matrix, the members leading.

Every catalogue entry is a body ``body(reads, tracker)`` that runs once
for the whole group, on the first member's check, and records every
member's margins in one tracker; each member's check takes its share.  A
body reads whole grids, every member at once, and compares each link of
its chain in one call over (member, t, p, k); what it computes member by
member (P8's compounds, P11's blocks) it computes through ``reads.each``.
The tracker records those margins as one compare per point would, member
by member: by t, then p, then link within the point, then k.  That order
decides the witness among equal margins, such as the exact 0.0 and -0.0
at the endpoints t = 0 and t = 1.  A member whose reads could raise is
left out of its group's run and runs the body alone, reading its own
tables, which the group never writes to, point by point in the order of
the property's reads, so the first read that raises raises its own
error.  Both runs silence numpy's floating-point warnings.

``evaluate_property`` is still called once per (instance, property), and
the group runs inside the first of those calls: the per-layer tracer of
the benchmark times and counts per such call, and that contract holds
until it reads per group.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .compound import compound_matrix
from .densela import (
    _gram,
    _gram_exponent,
    _gram_roots,
    random_pd,
    sym_eigen,
    sym_exp,
    symmetrize,
)
from .means import MultiStack, MultiTable, PairStack, PairTable, _inner, prefill
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

    @functools.cached_property
    def group(self) -> "_Group":
        """The instances whose properties run together with this one's: its
        chunk's instances of its dimension in a campaign, else only itself."""
        return _Group((self,))


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

    def ab(self) -> np.ndarray:
        """The product AB (P12)."""
        return self._mats[0] @ self._mats[1]

    def ab_gram(self) -> np.ndarray:
        """X^T X of X = AB, formed as ``singular_values`` forms it (P12)."""
        return _gram(self.ab())

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


def _margins(kind, lhs, rhs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compared values (l, r) of a compare, and its margins (see ``MarginTracker.compare``)."""
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
    return l, r, (-np.abs(l - r) if kind == "eq" else r - l) / scale


def _grid_ndim(t, p) -> int:
    return len(np.broadcast_shapes(np.shape(t), np.shape(p)))


class _Record(NamedTuple):
    """What one member recorded: its worst margin and that margin's witness,
    the witness of its first NaN margin, and the sub-inequalities recorded."""

    worst: float
    witness: Witness
    nan_witness: Witness | None
    count: int


class MarginTracker:
    """Accumulates normalized sub-inequality margins for each member of a group.

    The arrays of a compare or an ``add`` lead with the member axis; a plain
    tracker has one member.  Member i's margins are recorded in order, and
    :meth:`tracker` returns what member i recorded: the worst margin is the
    first of the smallest, and the first NaN is kept apart, because a NaN
    margin is never the worst, and a sub-inequality that evaluated to NaN
    was not shown to hold.
    """

    def __init__(self, members: int = 1):
        self.count = 0
        self.worst = np.full(members, math.inf)
        self._worst_at: list = [None] * members  # (link, flat index) of each worst
        self._nan_at: list = [None] * members  # and of each first NaN
        self._links: list | None = None  # the links of an open chain

    def add(self, margins, *, t=None, p=None, norm_id=None, lhs=None, rhs=None):
        """Record given margins, shaped (members, *grid[, k]); a scalar margin,
        ``lhs`` or ``rhs`` is every member's.  ``lhs`` and ``rhs`` may be None."""
        m = np.asarray(margins, dtype=float)
        m = np.broadcast_to(m, m.shape or self.worst.shape)
        l, r = (None if v is None else np.broadcast_to(np.asarray(v, dtype=float), m.shape)
                for v in (lhs, rhs))
        self._put(_Link(m, l, r, norm_id, t, p, _grid_ndim(t, p)))

    def compare(self, kind, lhs, rhs, label=None, *, t=None, p=None):
        """Record lhs <= rhs (lhs == rhs for ``eq``), one sub-inequality per entry.

        ``lhs`` and ``rhs`` hold a scalar per member, recorded under
        ``label``, or an equal-length vector per member, whose entry k is
        recorded under ``label:k``; ``label`` defaults to the kind.  The
        margin of entry k is:

        * ``leq``: (r_k - l_k) / (1 + max(|l_k|, |r_k|));
        * ``eq``: -|l_k - r_k| / (1 + max(|l_k|, |r_k|));
        * ``KyFan``: ``leq`` on the prefix sums, which by Fan dominance
          covers every unitarily invariant norm;
        * ``sum``, ``logsum``: (r_k - l_k) / (1 + max(|l_n|, |r_n|)) on the
          prefix sums of the entries, or of their logarithms, so the
          totals set the scale of every k.

        ``t`` and ``p`` may be arrays: their broadcast shape is a grid, and
        ``lhs`` and ``rhs`` then carry it after the member axis, one scalar
        or vector per grid point.  A grid compare records what one compare
        per point, in C order, would record; inside :meth:`chain` it is one
        link of a chain.

        Returns the compared values (l, r): the prefix sums for the prefix
        kinds, broadcast to the grid.
        """
        l, r, margins = _margins(kind, lhs, rhs)
        self._put(_Link(margins, l, r, label or kind, t, p, _grid_ndim(t, p)))
        return l, r

    def _put(self, link: "_Link") -> None:
        if self._links is None:
            self._record([link])
        else:
            self._links.append(link)

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
        """Record the margins of ``links``, one chain, member by member.

        Within a link the chain order is C order, so each link offers its
        first smallest margin and its first NaN, and the earliest of those
        offers in chain order is recorded.
        """
        members = len(self.worst)
        self.count += sum(lk.margins.size for lk in links) // members
        links = [lk for lk in links if lk.margins.size]
        if not links:
            return
        flat = [lk.margins.reshape(members, -1) for lk in links]
        lows = np.array([np.fmin.reduce(f, axis=1) for f in flat])  # NaN only if every margin is
        lo = np.fmin.reduce(lows, axis=0)
        first = [np.argmax(f == low[:, None], axis=1) for f, low in zip(flat, lows)]
        nans = [np.isnan(f) for f in flat]
        has_nan = np.array([n.any(axis=1) for n in nans])
        first_nan = [np.argmax(n, axis=1) for n in nans]
        if len(links) == 1:
            win = nan_win = np.zeros(members, dtype=int)
        else:
            win = _earliest(links, first, lows == lo)
            nan_win = _earliest(links, first_nan, has_nan)
        for i in np.flatnonzero(lo < self.worst).tolist():
            w = win[i]
            j = first[w][i]
            self.worst[i] = flat[w][i, j]
            self._worst_at[i] = (links[w], j)
        for i in np.flatnonzero(has_nan.any(axis=0)).tolist():
            if self._nan_at[i] is None:
                w = nan_win[i]
                self._nan_at[i] = (links[w], first_nan[w][i])

    def tracker(self, i: int) -> _Record:
        """What member i recorded."""
        worst, witness, nan_witness = math.inf, Witness(), None
        if self._worst_at[i] is not None:
            link, j = self._worst_at[i]
            worst, witness = link.witness(i, int(j))
        if self._nan_at[i] is not None:
            link, j = self._nan_at[i]
            nan_witness = link.witness(i, int(j))[1]
        return _Record(worst, witness, nan_witness, self.count)


@dataclass
class _Link:
    """One compare of every member: margins and compared values shaped
    (members, *grid[, k]), with the grid axes of ``t`` and ``p``; the values
    of an ``add`` may be None."""

    margins: np.ndarray
    l: np.ndarray
    r: np.ndarray
    label: str
    t: object
    p: object
    grid_ndim: int

    def witness(self, i: int, j: int) -> tuple[float, Witness]:
        """(margin, witness) of member i's flat entry j."""
        shape = self.margins.shape[1:]
        idx = np.unravel_index(j, shape)
        g = self.grid_ndim
        t, p = (
            None if v is None else float(np.broadcast_to(v, shape[:g])[idx[:g]])
            for v in (self.t, self.p)
        )
        norm_id = f"{self.label}:{idx[g] + 1}" if len(idx) > g else self.label
        lhs, rhs = (None if v is None else float(v[i][idx]) for v in (self.l, self.r))
        return float(self.margins[i][idx]), Witness(t=t, p=p, norm_id=norm_id, lhs=lhs, rhs=rhs)


def _earliest(links: list, offers: list, valid: np.ndarray) -> np.ndarray:
    """Per member, the link whose offer (a flat index per member) comes first in
    chain order, among the links where ``valid`` (links, members) holds."""
    rank = max(lk.grid_ndim for lk in links)
    radix = [1 + max(lk.margins.shape[1 + a] for lk in links if lk.grid_ndim > a)
             for a in range(rank)]
    keys = []
    for li, (lk, j) in enumerate(zip(links, offers)):
        g = lk.grid_ndim
        k = math.prod(lk.margins.shape[1 + g:])
        idx = np.unravel_index(j // k, lk.margins.shape[1:1 + g])
        key = np.zeros(len(j), dtype=np.int64)
        for a in range(rank):  # grid index, padded with -1 past a link's own axes
            key = key * radix[a] + (idx[a] + 1 if a < g else 0)
        keys.append(key * len(links) + li)
    keys = np.where(valid, np.array(keys), np.iinfo(np.int64).max)
    return np.argmin(keys, axis=0)


_KINDS = ("leq", "eq", "KyFan", "sum", "logsum")


def _abs_desc(lam) -> np.ndarray:
    """|eigenvalues| in descending order: the singular values of a symmetric matrix."""
    return np.sort(np.abs(lam), axis=-1)[..., ::-1]


def _positive_grid(spec: InstanceSpec) -> tuple[float, ...]:
    return tuple(p for p in spec.p_grid if p > 0.0)


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
    l2_geo = float(means.spectrum("geometric", 0.5)[1])
    l2_logeuc = float(means.power_mean_spectrum(0.5, 0.0)[1])
    return l2_geo, l2_logeuc


# ---------------------------------------------------------------------------
# Reads.  A property body reads its spectra through a reader: the group's
# (_GroupReads), every member at once, or one instance's own (_OwnReads),
# point by point.  Either returns arrays whose leading axis is the member.


def _dual(m: PairTable, t: float, p: float) -> np.ndarray:
    """The p-th root of the product spectrum, the dual side of P5's identity."""
    # At the weight-collapse endpoints the product A^{(1-t)p} B^{tp}
    # is exactly A^p or B^p; its root is then A or B, as for the means.
    end = m._end(t)
    if end is not None:
        return m.eig(end).lam
    return m.spectrum("product", t, p) ** (1.0 / p)


def _dual_spectra(s: PairStack, ts: tuple, ps: tuple) -> tuple[np.ndarray, np.ndarray]:
    inner = _inner(ts)
    lam, ok = s.spectra("product", tuple((t, p) for t in inner for p in ps))
    lam = lam.reshape(len(lam), len(inner), len(ps), s.n)
    roots = np.empty(lam.shape)
    for j, p in enumerate(ps):
        roots[..., j, :] = lam[..., j, :] ** (1.0 / p)
    return s.with_ends(ts, roots), ok & s.valid


def _unnormalized_power_spectrum(multi: MultiTable, p: float) -> np.ndarray:
    """Descending spectrum of (sum_i A_i^p)^{1/p}."""
    return np.sort(multi.spectrum("power_sum", p) ** (1.0 / p))[::-1]


def _unnormalized_spectra(s: MultiStack, ps: tuple) -> tuple[np.ndarray, np.ndarray]:
    lam, ok = s.spectra("power_sum", _points(ps))
    roots = np.empty(lam.shape)
    for j, p in enumerate(ps):
        roots[:, j] = np.sort(lam[:, j] ** (1.0 / p), axis=-1)[:, ::-1]
    return roots, ok


def _points(ts, *rest) -> tuple:
    return tuple((t, *rest) for t in ts)


def _cross_sym_spectra(s: PairStack, ts: tuple) -> tuple[np.ndarray, np.ndarray]:
    lam, ok = s.spectra("cross_sym", _points(ts))
    return _abs_desc(lam), ok


def _entry_reads(name: str, *rest) -> tuple:
    """The point read ``spectrum(name, x, *rest)`` on a table and its read on a
    stack over the xs, for the one grid axis x (t, or p for the multi tables)."""
    return (lambda m, x: m.spectrum(name, x, *rest),
            lambda s, xs: s.spectra(name, _points(xs, *rest)))


def _at_p0(values_ok):
    values, ok = values_ok
    return values[:, :, 0], ok


# Each read over the t grid (or the (t, p) grid): its point read on the pair
# table m at t (and p), and its read on the group's PairStack s over ts (and
# ps), which returns (values, ok).
_AT_T = {
    "geometric": _entry_reads("geometric"),
    "log_euclidean": (lambda m, t: m.power_mean_spectrum(t, 0.0),
                      lambda s, ts: _at_p0(s.power_mean_spectra(ts, (0.0,)))),
    "sandwich_p1": (lambda m, t: m.sandwich_mean_spectrum(t, 1.0),
                    lambda s, ts: _at_p0(s.sandwich_mean_spectra(ts, (1.0,)))),
    "cross_sym": (lambda m, t: _abs_desc(m.spectrum("cross_sym", t)), _cross_sym_spectra),
    "cross_sv": (lambda m, t: m.cross_singular_values(t), lambda s, ts: s.cross_singular_values(ts)),
    "arithmetic": (lambda m, t: m.arithmetic_spectrum(t), lambda s, ts: s.arithmetic_spectra(ts)),
    "product_p1": _entry_reads("product", 1.0),
    "bab_power": _entry_reads("bab_power"),
    "chord_gap": _entry_reads("chord_gap"),
}
_AT_TP = {
    "power_mean": (lambda m, t, p: m.power_mean_spectrum(t, p),
                   lambda s, ts, ps: s.power_mean_spectra(ts, ps)),
    "sandwich": (lambda m, t, p: m.sandwich_mean_spectrum(t, p),
                 lambda s, ts, ps: s.sandwich_mean_spectra(ts, ps)),
    "dual": (_dual, _dual_spectra),
}
# The same for the multi tables, over a p grid.
_MULTI = {
    "power_mean": (lambda mm, p: mm.power_mean_spectrum(p), lambda s, ps: s.power_mean_spectra(ps)),
    "power_sum": _entry_reads("power_sum"),
    "unnormalized": (_unnormalized_power_spectrum, _unnormalized_spectra),
}


def _axes(spec: InstanceSpec, ts, ps) -> tuple[tuple, tuple]:
    """The t and p axes of a grid read: by default the t grid and the positive p grid."""
    return (spec.t_values if ts is None else ts), (_positive_grid(spec) if ps is None else ps)


class _GroupReads:
    """The reads of a property body for every member of a group at once.

    Each read has the bits of the point reads.  ``ok[i]`` turns False once
    a read of member i could raise; member i's values are then meaningless,
    and it runs again on its own.
    """

    def __init__(self, group: "_Group"):
        self.spec = group.spec
        self.pairs = group.pairs
        self.multis = group.multis
        self.ok = np.ones(len(group.pairs.tables), dtype=bool)

    def _take(self, values_ok):
        values, ok = values_ok
        self.ok &= ok
        return values

    def grid(self, at_t=(), at_tp=(), ts=None, ps=None) -> tuple[list, list]:
        """The spectra of each entry of ``at_t`` over t, (members, |t|, n), and of
        ``at_tp`` over (t, p), (members, |t|, |p|, n)."""
        ts, ps = _axes(self.spec, ts, ps)
        return ([self._take(_AT_T[e][1](self.pairs, ts)) for e in at_t],
                [self._take(_AT_TP[e][1](self.pairs, ts, ps)) for e in at_tp])

    def multi(self, name: str, ps: tuple) -> np.ndarray:
        """The multi-table spectra ``name`` over ``ps``, (members, |p|, n)."""
        return self._take(_MULTI[name][1](self.multis, ps))

    def spectrum(self, name: str) -> np.ndarray:
        """``spectrum(name)`` of the pair table, (members, n)."""
        return self._take(self.pairs.spectra(name, ((),)))[:, 0]

    def eig(self, i: int) -> np.ndarray:
        """The spectrum of matrix i (A or B), (members, n)."""
        self.ok &= self.pairs.valid
        return self.pairs.eig_spectra(i)

    def each(self, fn, shape=(), fill=math.nan) -> np.ndarray:
        """fn(pair table) of each member, (members, *shape); a member where it raises is no longer ok."""
        out = np.full((len(self.ok), *shape), fill)
        for i in np.flatnonzero(self.ok).tolist():
            try:
                out[i] = fn(self.pairs.tables[i])
            except Exception:
                self.ok[i] = False
        return out


class _OwnReads:
    """The reads of a property body for one instance on its own, point by point.

    The points are read in the order of the property's reads, so the first
    read that raises raises its own error.  A grid is read by t, then the
    entries at that t, then by p.
    """

    def __init__(self, data: InstanceData):
        self.spec = data.spec
        self.data = data

    def grid(self, at_t=(), at_tp=(), ts=None, ps=None) -> tuple[list, list]:
        ts, ps = _axes(self.spec, ts, ps)
        m = self.data.means
        rows_t, rows_tp = [], []
        for t in ts:
            rows_t += [_AT_T[e][0](m, t) for e in at_t]
            for p in ps:
                rows_tp += [_AT_TP[e][0](m, t, p) for e in at_tp]
        n = self.spec.dim
        s_t = np.reshape(np.array(rows_t, dtype=float), (1, len(ts), len(at_t), n))
        s_tp = np.reshape(np.array(rows_tp, dtype=float), (1, len(ts), len(ps), len(at_tp), n))
        return [s_t[:, :, e] for e in range(len(at_t))], [s_tp[:, :, :, e] for e in range(len(at_tp))]

    def multi(self, name: str, ps: tuple) -> np.ndarray:
        rows = [_MULTI[name][0](self.data.multi_means, p) for p in ps]
        return np.reshape(np.array(rows, dtype=float), (1, len(ps), self.spec.dim))

    def spectrum(self, name: str) -> np.ndarray:
        return self.data.means.spectrum(name)[None]

    def eig(self, i: int) -> np.ndarray:
        return self.data.means.eig(i).lam[None]

    def each(self, fn, shape=(), fill=math.nan) -> np.ndarray:
        return np.reshape(np.array([fn(self.data.means)]), (1, *shape))


class _Group:
    """Instances of one dimension whose properties are evaluated together.

    A campaign groups each chunk by dimension; an instance checked on its
    own is a group of one.  The group holds the members' tables as a
    :class:`PairStack` and a :class:`MultiStack`.  A property runs once for
    the whole group, on the first member's check, and each member's check
    then takes its share; a member whose reads could raise is left out and
    runs alone.
    """

    def __init__(self, members):
        self.spec = members[0].spec
        self.pairs = PairStack([d.means for d in members], self.spec.dim)
        self.multis = MultiStack([d.multi_means for d in members], self.spec.dim)
        self._shares: dict = {}
        self._index_of = {id(d.means): i for i, d in enumerate(members)}
        for d in members:  # InstanceData is frozen: this replaces its group of one
            object.__setattr__(d, "group", self)

    def share(self, property_id: str, data: InstanceData) -> _Record | None:
        """What the property records for ``data``, or None if ``data`` must run alone.

        The property runs once for the whole group, on its first member's call.
        """
        shares = self._shares.get(property_id)
        if shares is None:
            reads = _GroupReads(self)
            tracker = MarginTracker(len(self.pairs.tables))
            _CATALOGUE[property_id](reads, tracker)
            shares = self._shares[property_id] = [
                tracker.tracker(i) if ok else None for i, ok in enumerate(reads.ok.tolist())
            ]
        return shares[self._index_of[id(data.means)]]


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``np.sum`` of each vector on the last axis, with the bits of the sum of that
    vector alone: from 8 entries numpy sums pairwise, in that order only on
    contiguous rows."""
    return np.sum(np.ascontiguousarray(x), axis=-1)


def _each_power(lam: np.ndarray, exps) -> np.ndarray:
    """lam ** x for each x of ``exps``, stacked on axis 1, one scalar exponent per call."""
    out = np.empty((len(lam), len(exps), *lam.shape[1:]))
    for j, x in enumerate(exps):
        out[:, j] = lam**x
    return out


# ---------------------------------------------------------------------------
# The catalogue.


def _p1(r, tr) -> None:
    """lambda_j of the power mean is non-decreasing across the p grid."""
    ts, ps = r.spec.t_values, r.spec.p_grid
    _, (s,) = r.grid(at_tp=("power_mean",), ps=ps)
    tr.compare("leq", s[:, :, :-1], s[:, :, 1:], "lambda", t=np.array(ts)[:, None], p=np.array(ps[1:]))


def _tp(spec: InstanceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t axis of a t-only link, and the t and p axes of a (t, p) link."""
    t = np.array(spec.t_values, dtype=float)
    return t, t[:, None], np.array(_positive_grid(spec))


def _p2(r, tr) -> None:
    """|||geometric||| <= |||log-Euclidean||| <= |||power mean||| for p > 0."""
    (geo, le), (pm,) = r.grid(("geometric", "log_euclidean"), ("power_mean",))
    t, tp, p = _tp(r.spec)
    with tr.chain():
        tr.compare("KyFan", geo, le, t=t)
        tr.compare("KyFan", le[:, :, None], pm, t=tp, p=p)


def _p3(r, tr) -> None:
    """Same chain refined through the sandwich mean."""
    (geo, le), (sw, pm) = r.grid(("geometric", "log_euclidean"), ("sandwich", "power_mean"))
    t, tp, p = _tp(r.spec)
    with tr.chain():
        tr.compare("KyFan", geo, le, t=t)
        tr.compare("KyFan", le[:, :, None], sw, t=tp, p=p)
        tr.compare("KyFan", sw, pm, t=tp, p=p)


def _p4(r, tr) -> None:
    """Five-link chain at p = 1, ending at the arithmetic path."""
    chain, _ = r.grid(
        ("geometric", "log_euclidean", "sandwich_p1", "cross_sym", "cross_sv", "arithmetic")
    )
    t = np.array(r.spec.t_values)
    with tr.chain():
        for lhs, rhs in zip(chain, chain[1:]):
            tr.compare("KyFan", lhs, rhs, t=t, p=1.0)


def _p5(r, tr) -> None:
    """Log-majorization chain and the sandwich/product spectral identity."""
    (geo, le), (sw, dual, pm) = r.grid(
        ("geometric", "log_euclidean"), ("sandwich", "dual", "power_mean")
    )
    t, tp, p = _tp(r.spec)
    with tr.chain():
        lx, ly = tr.compare("logsum", geo, le, t=t)
        tr.compare("eq", lx[..., -1], ly[..., -1], "logdet", t=t)
        lx, ly = tr.compare("logsum", le[:, :, None], sw, t=tp, p=p)
        tr.compare("eq", lx[..., -1], ly[..., -1], "logdet", t=tp, p=p)
        tr.compare("eq", sw, dual, "lambda", t=tp, p=p)
        tr.compare("logsum", sw, pm, t=tp, p=p)


def _p6(r, tr) -> None:
    """Fixed 2x2 pair: lambda_2 values land in their bands, domination fails."""
    l2_geo, l2_le = paper_counterexample()
    tr.add(1e-9 - abs(l2_geo - 1.0), norm_id="lambda:2-geo", lhs=l2_geo, rhs=1.0)
    tr.add(
        min(l2_le - 0.9801, 0.9811 - l2_le),
        norm_id="lambda:2-logeuc", lhs=0.9801, rhs=0.9811,
    )
    tr.add(l2_geo - l2_le, norm_id="domination-gap", lhs=l2_le, rhs=l2_geo)


def _p7(r, tr) -> None:
    """Midpoint endpoint: majorizations, determinant identity, trace bound."""
    (s_geo, s_lee), _ = r.grid(("geometric", "sandwich_p1"), ts=(0.5,))
    s_geo, s_lee = s_geo[:, 0], s_lee[:, 0]
    lx, ly = tr.compare("logsum", s_geo, s_lee, t=0.5)
    tr.compare("eq", lx[:, -1], ly[:, -1], "logdet", t=0.5)
    tr.compare("sum", s_geo, s_lee, t=0.5)
    ld_geo = _row_sums(np.log(s_geo))
    ld_ab = 0.5 * (_row_sums(np.log(r.eig(0))) + _row_sums(np.log(r.eig(1))))
    tr.compare("eq", ld_geo, ld_ab, "logdet", t=0.5)
    root_product_trace = r.each(lambda m: np.trace(m.cross(0.5)))
    tr.compare("leq", _row_sums(s_geo), root_product_trace, "trace", t=0.5)


def _compound_residuals(m: PairTable) -> list:
    """(margin, max |lhs|, max |rhs|) of the residual C_k(G) C_k(A)^-1 C_k(G) = C_k(B)
    of each k, for G = A # B."""
    a, b = m._mats
    g = m.geometric(0.5)
    out = []
    for k in range(1, len(g) + 1):
        cg = compound_matrix(g, k)
        lhs = cg @ np.linalg.solve(compound_matrix(a, k), cg)
        rhs = compound_matrix(b, k)
        l_max, r_max = float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs)))
        out.append((-float(np.max(np.abs(lhs - rhs))) / (1.0 + max(l_max, r_max)), l_max, r_max))
    return out


def _p8(r, tr) -> None:
    """Compound of the midpoint mean equals the mean of the compounds.

    G = A # B is the unique positive definite solution of X A^-1 X = B, and
    C_k is multiplicative and keeps positive definiteness, so C_k(G) is
    C_k(A) # C_k(B) exactly when C_k(G) C_k(A)^-1 C_k(G) = C_k(B).  That
    residual takes one LU solve per k and no eigensolve of compound order.
    """
    res = r.each(_compound_residuals, shape=(r.spec.dim, 3))
    tr.add(res[..., 0], norm_id="compound", lhs=res[..., 1], rhs=res[..., 2])


def _p9(r, tr) -> None:
    """Multi-matrix monotonicity, unnormalized decrease on (0, 1], sum-power bound."""
    ps = r.spec.p_grid
    s = r.multi("power_mean", ps)
    tr.compare("leq", s[:, :-1], s[:, 1:], "lambda", p=np.array(ps[1:]))

    unit_ps = tuple(p for p in ps if 0.0 < p <= 1.0)
    s = r.multi("unnormalized", unit_ps)
    tr.compare("KyFan", s[:, 1:], s[:, :-1], p=np.array(unit_ps[1:]))

    lam_sum = r.spectrum("multi_sum")
    s = r.multi("power_sum", BK_EXPONENTS)
    tr.compare("KyFan", s, _each_power(lam_sum, BK_EXPONENTS), p=np.array(BK_EXPONENTS))


def _p10(r, tr) -> None:
    """Multi-matrix log mean norm-dominated by every positive power mean."""
    pos = _positive_grid(r.spec)
    s_le = r.multi("power_mean", (0.0,))
    s = r.multi("power_mean", pos)
    tr.compare("KyFan", s_le, s, p=np.array(pos))


def _block_minima(m: PairTable) -> list:
    """(margin, least eigenvalue) of the blocks [[A, G], [G, B]] and [[A, W], [W^T, B]]
    of G = A # B and the root product W."""
    a, b = m._mats
    g = m.geometric(0.5)
    w = m.cross(0.5)
    out = []
    for block in (np.block([[a, g], [g, b]]), np.block([[a, w], [w.T, b]])):
        lam = sym_eigen(symmetrize(block), vectors=False).lam
        out.append((float(lam[-1]) / (1.0 + float(np.max(np.abs(lam)))), float(lam[-1])))
    return out


def _p11(r, tr) -> None:
    """Block positivity certificates; geometric mean vs the root product."""
    minima = r.each(_block_minima, shape=(2, 2))
    for j, label in enumerate(("block-geo", "block-root")):
        tr.add(minima[:, j, 0], norm_id=f"{label}:minlam", lhs=minima[:, j, 1], rhs=0.0)
    (s_geo, s_roots), _ = r.grid(("geometric", "cross_sv"), ts=(0.5,))
    tr.compare("KyFan", s_geo[:, 0], s_roots[:, 0])


def _square_roots(m: PairTable) -> float:
    m.power(0, 0.5)
    m.power(1, 0.5)
    return 0.0


def _p12(r, tr) -> None:
    """4 |||AB||| <= |||(A+B)^2||| and the square-root mean chain."""
    lam_ab = r.spectrum("ab_gram")
    s_ab = _gram_roots(lam_ab, r.each(lambda m: _gram_exponent(m.ab()), fill=0)[:, None])
    s_sum_sq = r.spectrum("pair_sum") ** 2
    # Ky Fan on the prefix sums, the factor 4 applied after the cumsum.
    tr.compare("leq", np.cumsum(s_ab, axis=-1) * 4.0, np.cumsum(s_sum_sq, axis=-1), "KyFan")

    # A^{1/2} and B^{1/2} first: a matrix that is not positive definite
    # fails with the error of its square root.
    r.each(_square_roots)
    (s_roots,), _ = r.grid(("cross_sv",), ts=(0.5,))
    # ((A^{1/2} + B^{1/2}) / 2)^2 is the power mean at t = 1/2, p = 1/2.
    ps = tuple(p for p in r.spec.p_grid if p >= 0.5)
    _, (s,) = r.grid(at_tp=("power_mean",), ts=(0.5,), ps=(0.5, *ps))
    s_avg_sq = s[:, 0, 0]
    tr.compare("KyFan", s_roots[:, 0], s_avg_sq)
    tr.compare("KyFan", s_avg_sq[:, None], s[:, 0, 1:], p=np.array(ps))


def _p13(r, tr) -> None:
    """Cross-term majorization and the associated power-product bounds."""
    ts = r.spec.t_values
    t_axis = np.array(ts)
    (s_geo, s_prod), _ = r.grid(("geometric", "product_p1"))
    with tr.chain():
        lx, ly = tr.compare("logsum", s_geo, s_prod, t=t_axis)
        tr.compare("eq", lx[..., -1], ly[..., -1], "logdet", t=t_axis)

    lam_bab_half = r.spectrum("bab_half")
    (s_geo_mid,), _ = r.grid(("geometric",), ts=(0.5,))
    s_geo_mid = s_geo_mid[:, 0]
    tr.compare("KyFan", s_geo_mid, np.sqrt(lam_bab_half), t=0.5)
    tr.compare("KyFan", s_geo_mid**2, lam_bab_half, t=0.5)

    lam_bab = r.spectrum("bab")
    (s,), _ = r.grid(("bab_power",))
    tr.compare("KyFan", s, _each_power(lam_bab, ts), t=t_axis)


def _p14(r, tr) -> None:
    """|||A^(1/2) X A^(1/2)||| <= |||(AX + XA)/2||| for symmetric X."""
    lhs = _abs_desc(r.spectrum("x_congruence"))
    tr.compare("KyFan", lhs, _abs_desc(r.spectrum("x_jordan")))


def _p15(r, tr) -> None:
    """Geodesic below the chord, and the exponential product norm bound."""
    ts = r.spec.t_values
    (lam,), _ = r.grid(("chord_gap",))
    peak = r.each(lambda m: [np.max(np.abs(m.chord_gap(t))) for t in ts], shape=(len(ts),))
    low = lam[..., -1]
    tr.add(low / (1.0 + peak), t=np.array(ts), norm_id="loewner:minlam", lhs=low, rhs=0.0)

    s_expsum = np.exp(r.spectrum("log_sum"))
    tr.compare("KyFan", s_expsum, r.spectrum("exp_product"))


# Each property is a body(reads, tracker) over a group: see _Group.share.
_CATALOGUE: dict[str, Callable[[_GroupReads | _OwnReads, MarginTracker], None]] = {
    "P1": _p1, "P2": _p2, "P3": _p3, "P4": _p4, "P5": _p5,
    "P6": _p6, "P7": _p7, "P8": _p8, "P9": _p9, "P10": _p10,
    "P11": _p11, "P12": _p12, "P13": _p13, "P14": _p14, "P15": _p15,
}


def _spectra_read(spec: InstanceSpec) -> dict[str, list[tuple]]:
    """The table spectra each property reads, as ``means.prefill`` requests of a group.

    Each entry ``(stack, name, axes)`` names the reads
    ``spectrum(name, *args)`` of the group's ``pairs`` or ``multis`` over the
    grid of ``axes``.  run_campaign solves them in batches before any
    property runs; a read of any other spectrum solves it when read.
    """
    ts, ps = spec.t_values, spec.p_grid
    inner = _inner(ts)  # the means are A or B at t = 0, 1
    pos = _positive_grid(spec)
    geo = ("pairs", "geometric", (ts,))
    log_euclidean = ("pairs", "power_aggregate", (inner, (0.0,)))
    power = ("pairs", "power_aggregate", (inner, pos))
    sandwich = ("pairs", "sandwich_matrix", (inner, pos))
    return {
        "P1": [("pairs", "power_aggregate", (inner, ps))],
        "P2": [geo, log_euclidean, power],
        "P3": [geo, log_euclidean, sandwich, power],
        "P4": [geo, log_euclidean, ("pairs", "sandwich_matrix", (inner, (1.0,))),
               ("pairs", "cross_sym", (ts,)), ("pairs", "cross_gram", (ts,)),
               ("pairs", "arithmetic", (inner,))],
        "P5": [geo, log_euclidean, sandwich, ("pairs", "product", (inner, pos)), power],
        "P6": [],
        "P7": [("pairs", "geometric", ((0.5,),)), ("pairs", "sandwich_matrix", ((0.5,), (1.0,)))],
        "P8": [],
        "P9": [("multis", "power_aggregate", (ps,)),
               ("multis", "power_sum", ([p for p in ps if 0.0 < p <= 1.0] + list(BK_EXPONENTS),)),
               ("pairs", "multi_sum", ())],
        "P10": [("multis", "power_aggregate", ((0.0, *pos),))],
        "P11": [("pairs", "geometric", ((0.5,),)), ("pairs", "cross_gram", ((0.5,),))],
        "P12": [("pairs", "ab_gram", ()), ("pairs", "pair_sum", ()),
                ("pairs", "cross_gram", ((0.5,),)),
                ("pairs", "power_aggregate", ((0.5,), (0.5, *(p for p in ps if p >= 0.5))))],
        "P13": [geo, ("pairs", "product", (ts, (1.0,))), ("pairs", "bab_half", ()),
                ("pairs", "geometric", ((0.5,),)), ("pairs", "bab", ()),
                ("pairs", "bab_power", (ts,))],
        "P14": [("pairs", "x_congruence", ()), ("pairs", "x_jordan", ())],
        "P15": [("pairs", "chord_gap", (ts,)), ("pairs", "log_sum", ()),
                ("pairs", "exp_product", ())],
    }


def _prefill(group: _Group, properties) -> None:
    """Solve every table spectrum that ``properties`` read on ``group``, in batches."""
    reads = _spectra_read(group.spec)
    stacks = {"pairs": group.pairs, "multis": group.multis}
    prefill([(stacks[stack], name, tuple(itertools.product(*axes)))
             for pid in properties for stack, name, axes in reads[pid]])


def _classify(worst: float, tol: float) -> tuple[str, bool]:
    if worst >= -tol:
        return "pass", False
    if worst >= -MARGINAL_FACTOR * tol:
        return "pass", True
    return "fail", False


def evaluate_property(
    property_id: str, data: InstanceData, tolerance: float = DEFAULT_TOLERANCE
) -> PropertyResult:
    """Run one property on materialized instance data.

    The first call for a member of ``data.group`` runs the property for the
    whole group; ``data`` takes its share, or runs alone if it was left out.
    Both runs silence numpy's floating-point warnings: the group computes
    values for members that it then leaves out, and a margin that is NaN
    fails the check whatever warned.
    """
    body = _CATALOGUE.get(property_id)
    if body is None:
        raise ValueError(f"unknown property id {property_id!r}")
    tol = _PROPERTY_TOL.get(property_id, tolerance)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            rec = data.group.share(property_id, data)
            if rec is None:  # left out of its group's run: read point by point
                alone = MarginTracker()
                body(_OwnReads(data), alone)
                rec = alone.tracker(0)
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
    status, marginal = _classify(rec.worst, tol)
    worst, witness = rec.worst, rec.witness
    if rec.nan_witness is not None and status != "fail":
        # A NaN sub-inequality fails, unless a finite margin already failed.
        status, marginal, worst, witness = "fail", False, math.nan, rec.nan_witness
    return PropertyResult(
        property_id=property_id,
        seed=data.spec.seed,
        dim=data.spec.dim,
        status=status,
        marginal=marginal,
        worst_margin=worst,
        witness=witness,
        subineq=rec.count,
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
        by_dim: dict[int, list] = {}
        for data in chunk:
            by_dim.setdefault(data.dim, []).append(data)
        for members in by_dim.values():
            _prefill(_Group(members), config.properties)
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
