"""Property catalogue and campaign runner.

Each property P1..P15 encodes one inequality family satisfied by the
matrix means (eigenvalue monotonicity, norm chains, majorization chains,
block positivity), plus P6, which reproduces the built-in 2x2 example
showing that the geometric mean is not pointwise eigenvalue-dominated by
the log-Euclidean mean.  Properties are evaluated on seeded random
positive definite instances; every norm-level claim is checked over the
full Ky Fan family k = 1..n, which by Fan dominance covers all unitarily
invariant norms.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compound import compound_matrix
from .densela import (
    random_pd,
    singular_values,
    sym_eigen,
    sym_exp,
    symmetrize,
)
from .means import MultiTable, PairTable, geometric_mean, hermitian_part
from .spectra import LOG_CLAMP, eigenvalues_desc

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
        if self.cond_exponent < 0:
            raise ValueError("cond_exponent must be >= 0")
        if any(not 0.0 <= t <= 1.0 for t in self.t_values):
            raise ValueError(f"t values must lie in [0, 1]: {self.t_values}")
        if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
            raise ValueError("p grid must be strictly ascending")


@dataclass(frozen=True, eq=False)
class InstanceData:
    """Materialized matrices for one instance, with their table of means.

    ``means`` holds every mean of (A, B) and ``multi_means`` every power
    mean of the weighted matrices.  Each decomposition, power, mean and
    spectrum is computed once, on the first read by any property, and the
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
        return PairTable(self.a, self.b)

    @functools.cached_property
    def multi_means(self) -> MultiTable:
        return MultiTable(self.multi, self.weights)


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
    info: dict = field(default_factory=dict)


class MarginTracker:
    """Accumulates normalized sub-inequality margins, keeping the worst."""

    def __init__(self):
        self.worst = math.inf
        self.witness = Witness()
        self.info: dict = {}

    def add(self, margin, *, t=None, p=None, norm_id=None, lhs=None, rhs=None):
        m = float(margin)
        if m < self.worst:
            self.worst = m
            self.witness = Witness(t=t, p=p, norm_id=norm_id, lhs=lhs, rhs=rhs)

    def leq(self, lhs, rhs, *, t=None, p=None, norm_id=None):
        """lhs <= rhs with margin (rhs - lhs) / (1 + max(|lhs|, |rhs|))."""
        lv = float(lhs)
        rv = float(rhs)
        scale = 1.0 + max(abs(lv), abs(rv))
        self.add((rv - lv) / scale, t=t, p=p, norm_id=norm_id, lhs=lv, rhs=rv)

    def eq(self, lhs, rhs, *, t=None, p=None, norm_id=None):
        """lhs == rhs with margin -|lhs - rhs| / (1 + max(|lhs|, |rhs|))."""
        lv = float(lhs)
        rv = float(rhs)
        scale = 1.0 + max(abs(lv), abs(rv))
        self.add(-abs(lv - rv) / scale, t=t, p=p, norm_id=norm_id, lhs=lv, rhs=rv)


def _kyfan_leq(tr, lhs_spec, rhs_spec, *, t=None, p=None, lhs_factor=1.0):
    """Ky Fan domination of singular spectra over the whole family k = 1..n."""
    lp = np.cumsum(lhs_spec) * lhs_factor
    rp = np.cumsum(rhs_spec)
    for k in range(lp.shape[0]):
        tr.leq(lp[k], rp[k], t=t, p=p, norm_id=f"KyFan:{k + 1}")


def _log_prefixes(spec: np.ndarray) -> np.ndarray:
    return np.cumsum(np.log(np.maximum(spec, LOG_CLAMP)))


def _weak_log_leq(tr, lhs_spec, rhs_spec, *, t=None, p=None, det_equality=False):
    """Prefix log-sum domination; with det_equality also total equality."""
    lx = _log_prefixes(np.asarray(lhs_spec, dtype=float))
    ly = _log_prefixes(np.asarray(rhs_spec, dtype=float))
    scale = 1.0 + max(abs(float(lx[-1])), abs(float(ly[-1])))
    for k in range(lx.shape[0]):
        tr.add(
            (float(ly[k]) - float(lx[k])) / scale,
            t=t, p=p, norm_id=f"logsum:{k + 1}", lhs=float(lx[k]), rhs=float(ly[k]),
        )
    if det_equality:
        tr.add(
            -abs(float(lx[-1]) - float(ly[-1])) / scale,
            t=t, p=p, norm_id="logdet", lhs=float(lx[-1]), rhs=float(ly[-1]),
        )


def _weak_major_leq(tr, lhs_spec, rhs_spec, *, t=None, p=None):
    """Prefix-sum domination with the total-sum scale."""
    lx = np.cumsum(np.asarray(lhs_spec, dtype=float))
    ly = np.cumsum(np.asarray(rhs_spec, dtype=float))
    scale = 1.0 + max(abs(float(lx[-1])), abs(float(ly[-1])))
    for k in range(lx.shape[0]):
        tr.add(
            (float(ly[k]) - float(lx[k])) / scale,
            t=t, p=p, norm_id=f"sum:{k + 1}", lhs=float(lx[k]), rhs=float(ly[k]),
        )


def _abs_eig_spectrum(s) -> np.ndarray:
    """Singular values of a symmetric matrix via |eigenvalues|."""
    return np.sort(np.abs(sym_eigen(s).lam))[::-1]


def _positive_grid(spec: InstanceSpec) -> list[float]:
    return [p for p in spec.p_grid if p > 0.0]


def paper_pair() -> tuple[np.ndarray, np.ndarray]:
    """The exact 2x2 pair behind P6 and the `paper-example` command."""
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([[3.0, 3.0], [3.0, 4.5]])
    return a, b


def paper_counterexample() -> tuple[float, float]:
    """Second eigenvalues (geometric, log-Euclidean) of the built-in pair."""
    means = PairTable(*paper_pair())
    l2_geo = float(means.geometric_spectrum(0.5)[1])
    l2_logeuc = float(means.log_euclidean_spectrum(0.5)[1])
    return l2_geo, l2_logeuc


# ---------------------------------------------------------------------------
# The catalogue.


def _p1(data: InstanceData, tr: MarginTracker) -> None:
    """lambda_j of the power mean is non-decreasing across the p grid."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        specs = [means.power_mean_spectrum(t, p) for p in spec.p_grid]
        for (p_lo, s_lo), (p_hi, s_hi) in zip(
            zip(spec.p_grid, specs), zip(spec.p_grid[1:], specs[1:])
        ):
            for j in range(spec.dim):
                tr.leq(s_lo[j], s_hi[j], t=t, p=p_hi, norm_id=f"lambda:{j + 1}")


def _p2(data: InstanceData, tr: MarginTracker) -> None:
    """|||geometric||| <= |||log-Euclidean||| <= |||power mean||| for p > 0."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        s_geo = means.geometric_spectrum(t)
        s_le = means.log_euclidean_spectrum(t)
        _kyfan_leq(tr, s_geo, s_le, t=t)
        for p in _positive_grid(spec):
            _kyfan_leq(tr, s_le, means.power_mean_spectrum(t, p), t=t, p=p)


def _p3(data: InstanceData, tr: MarginTracker) -> None:
    """Same chain refined through the sandwich mean."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        s_geo = means.geometric_spectrum(t)
        s_le = means.log_euclidean_spectrum(t)
        _kyfan_leq(tr, s_geo, s_le, t=t)
        for p in _positive_grid(spec):
            s_sw = means.sandwich_mean_spectrum(t, p)
            _kyfan_leq(tr, s_le, s_sw, t=t, p=p)
            _kyfan_leq(tr, s_sw, means.power_mean_spectrum(t, p), t=t, p=p)


def _p4(data: InstanceData, tr: MarginTracker) -> None:
    """Five-link chain at p = 1, ending at the arithmetic path."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        x = means.cross(t)
        chain = [
            means.geometric_spectrum(t),
            means.log_euclidean_spectrum(t),
            means.sandwich_mean_spectrum(t, 1.0),
            _abs_eig_spectrum(hermitian_part(x)),
            singular_values(x),
            eigenvalues_desc(means.arithmetic(t)),
        ]
        for lhs, rhs in zip(chain, chain[1:]):
            _kyfan_leq(tr, lhs, rhs, t=t, p=1.0)


def _p5(data: InstanceData, tr: MarginTracker) -> None:
    """Log-majorization chain and the sandwich/product spectral identity."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        s_geo = means.geometric_spectrum(t)
        s_le = means.log_euclidean_spectrum(t)
        _weak_log_leq(tr, s_geo, s_le, t=t, det_equality=True)
        for p in _positive_grid(spec):
            s_sw = means.sandwich_mean_spectrum(t, p)
            _weak_log_leq(tr, s_le, s_sw, t=t, p=p, det_equality=True)
            # At the weight-collapse endpoints the product A^{(1-t)p} B^{tp}
            # is exactly A^p or B^p; taking its root directly avoids the
            # power round trip, matching the means' endpoint handling.
            if t == 0.0:
                s_dual = means.eig(0).lam
            elif t == 1.0:
                s_dual = means.eig(1).lam
            else:
                s_dual = means.product_form(t, p).lam ** (1.0 / p)
            for j in range(spec.dim):
                tr.eq(s_sw[j], s_dual[j], t=t, p=p, norm_id=f"lambda:{j + 1}")
            _weak_log_leq(tr, s_sw, means.power_mean_spectrum(t, p), t=t, p=p)


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
    _weak_log_leq(tr, s_geo, s_lee, t=0.5, det_equality=True)
    _weak_major_leq(tr, s_geo, s_lee, t=0.5)
    ld_geo = float(np.sum(np.log(s_geo)))
    ld_ab = 0.5 * float(np.sum(np.log(means.eig(0).lam)) + np.sum(np.log(means.eig(1).lam)))
    tr.eq(ld_geo, ld_ab, t=0.5, norm_id="logdet")
    root_product_trace = float(np.trace(means.power(0, 0.5) @ means.power(1, 0.5)))
    tr.leq(float(np.sum(s_geo)), root_product_trace, t=0.5, norm_id="trace")


def _p8(data: InstanceData, tr: MarginTracker) -> None:
    """Compound of the midpoint mean equals the mean of the compounds."""
    a, b, spec = data.a, data.b, data.spec
    g = data.means.geometric(0.5)
    for k in range(1, spec.dim + 1):
        lhs = compound_matrix(g, k)
        rhs = geometric_mean(
            symmetrize(compound_matrix(a, k)), symmetrize(compound_matrix(b, k)), 0.5
        )
        scale = 1.0 + max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        tr.add(
            -float(np.max(np.abs(lhs - rhs))) / scale,
            norm_id=f"compound:{k}",
            lhs=float(np.max(np.abs(lhs))),
            rhs=float(np.max(np.abs(rhs))),
        )


def _unnormalized_power_spectrum(multi: MultiTable, p: float) -> np.ndarray:
    """Descending spectrum of (sum_i A_i^p)^{1/p}."""
    return np.sort(multi.power_sum(p).lam ** (1.0 / p))[::-1]


def _p9(data: InstanceData, tr: MarginTracker) -> None:
    """Multi-matrix monotonicity, unnormalized decrease on (0, 1], sum-power bound."""
    multi, spec = data.multi_means, data.spec
    specs = [multi.power_mean_spectrum(p) for p in spec.p_grid]
    for (p_lo, s_lo), (p_hi, s_hi) in zip(
        zip(spec.p_grid, specs), zip(spec.p_grid[1:], specs[1:])
    ):
        for j in range(spec.dim):
            tr.leq(s_lo[j], s_hi[j], p=p_hi, norm_id=f"lambda:{j + 1}")

    unit_ps = [p for p in spec.p_grid if 0.0 < p <= 1.0]
    unit_specs = {p: _unnormalized_power_spectrum(multi, p) for p in unit_ps}
    for p_lo, p_hi in zip(unit_ps, unit_ps[1:]):
        _kyfan_leq(tr, unit_specs[p_hi], unit_specs[p_lo], p=p_hi)

    # The decrease is only claimed up to p = 1; beyond that it is recorded
    # for information and never asserted.
    above = [p for p in spec.p_grid if p >= 1.0]
    info_margin = math.inf
    for p_lo, p_hi in zip(above, above[1:]):
        lo = np.cumsum(_unnormalized_power_spectrum(multi, p_lo))
        hi = np.cumsum(_unnormalized_power_spectrum(multi, p_hi))
        gaps = (lo - hi) / (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        info_margin = min(info_margin, float(np.min(gaps)))
    if math.isfinite(info_margin):
        tr.info["unnormalized_decrease_above_one"] = info_margin

    lam_sum = eigenvalues_desc(symmetrize(sum(data.multi)))
    for r in BK_EXPONENTS:
        _kyfan_leq(tr, multi.power_sum(r).lam, lam_sum**r, p=r)


def _p10(data: InstanceData, tr: MarginTracker) -> None:
    """Multi-matrix log mean norm-dominated by every positive power mean."""
    multi, spec = data.multi_means, data.spec
    s_le = multi.power_mean_spectrum(0.0)
    for p in _positive_grid(spec):
        _kyfan_leq(tr, s_le, multi.power_mean_spectrum(p), p=p)


def _p11(data: InstanceData, tr: MarginTracker) -> None:
    """Block positivity certificates; geometric mean vs the root product."""
    a, b, means = data.a, data.b, data.means
    g = means.geometric(0.5)
    w = means.power(0, 0.5) @ means.power(1, 0.5)
    for label, block in (
        ("block-geo", np.block([[a, g], [g, b]])),
        ("block-root", np.block([[a, w], [w.T, b]])),
    ):
        lam = sym_eigen(symmetrize(block)).lam
        scale = 1.0 + float(np.max(np.abs(lam)))
        tr.add(float(lam[-1]) / scale, norm_id=f"{label}:minlam", lhs=float(lam[-1]), rhs=0.0)
    _kyfan_leq(tr, means.geometric_spectrum(0.5), singular_values(w))


def _p12(data: InstanceData, tr: MarginTracker) -> None:
    """4 |||AB||| <= |||(A+B)^2||| and the square-root mean chain."""
    a, b, means, spec = data.a, data.b, data.means, data.spec
    s_ab = singular_values(a @ b)
    s_sum_sq = eigenvalues_desc(symmetrize(a + b)) ** 2
    _kyfan_leq(tr, s_ab, s_sum_sq, lhs_factor=4.0)

    ra = means.power(0, 0.5)
    rb = means.power(1, 0.5)
    s_roots = singular_values(ra @ rb)
    s_avg_sq = eigenvalues_desc(symmetrize((ra + rb) * 0.5)) ** 2
    _kyfan_leq(tr, s_roots, s_avg_sq)
    for p in (pp for pp in spec.p_grid if pp >= 0.5):
        _kyfan_leq(tr, s_avg_sq, means.power_mean_spectrum(0.5, p), p=p)


def _p13(data: InstanceData, tr: MarginTracker) -> None:
    """Cross-term majorization and the associated power-product bounds."""
    a, b, means, spec = data.a, data.b, data.means, data.spec
    for t in spec.t_values:
        s_geo = means.geometric_spectrum(t)
        s_cross = means.product_form(t, 1.0).lam
        _weak_log_leq(tr, s_geo, s_cross, t=t, det_equality=True)

    rb = means.power(1, 0.5)
    lam_bab_half = eigenvalues_desc(symmetrize(rb @ a @ rb))
    s_geo_mid = means.geometric_spectrum(0.5)
    _kyfan_leq(tr, s_geo_mid, np.sqrt(lam_bab_half), t=0.5)
    _kyfan_leq(tr, s_geo_mid**2, lam_bab_half, t=0.5)

    lam_bab = eigenvalues_desc(symmetrize(b @ a @ b))
    for t in spec.t_values:
        bt = means.power(1, t)
        inner = eigenvalues_desc(symmetrize(bt @ means.power(0, t) @ bt))
        _kyfan_leq(tr, inner, lam_bab**t, t=t)


def _p14(data: InstanceData, tr: MarginTracker) -> None:
    """|||A^(1/2) X A^(1/2)||| <= |||(AX + XA)/2||| for symmetric X."""
    a, x = data.a, data.x_sym
    ra = data.means.power(0, 0.5)
    lhs = _abs_eig_spectrum(symmetrize(ra @ x @ ra))
    rhs = _abs_eig_spectrum(symmetrize((a @ x + x @ a) * 0.5))
    _kyfan_leq(tr, lhs, rhs)


def _p15(data: InstanceData, tr: MarginTracker) -> None:
    """Geodesic below the chord, and the exponential product norm bound."""
    means, spec = data.means, data.spec
    for t in spec.t_values:
        d = symmetrize(means.arithmetic(t) - means.geometric(t))
        lam = sym_eigen(d).lam
        scale = 1.0 + float(np.max(np.abs(d)))
        tr.add(float(lam[-1]) / scale, t=t, norm_id="loewner:minlam", lhs=float(lam[-1]), rhs=0.0)

    h = means.log(0)
    k = means.log(1)
    s_expsum = np.exp(sym_eigen(symmetrize(h + k)).lam)
    ek2 = sym_exp(k * 0.5)
    s_prod = eigenvalues_desc(symmetrize(ek2 @ sym_exp(h) @ ek2))
    _kyfan_leq(tr, s_expsum, s_prod)


_CATALOGUE: dict[str, Callable[[InstanceData, MarginTracker], None]] = {
    "P1": _p1, "P2": _p2, "P3": _p3, "P4": _p4, "P5": _p5,
    "P6": _p6, "P7": _p7, "P8": _p8, "P9": _p9, "P10": _p10,
    "P11": _p11, "P12": _p12, "P13": _p13, "P14": _p14, "P15": _p15,
}


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
    return PropertyResult(
        property_id=property_id,
        seed=data.spec.seed,
        dim=data.spec.dim,
        status=status,
        marginal=marginal,
        worst_margin=tr.worst,
        witness=tr.witness,
        info=tr.info,
    )


def check_property(
    property_id: str,
    instance: InstanceSpec | InstanceData,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyResult:
    """Run one property on an instance, materializing it first if given its spec."""
    data = instance if isinstance(instance, InstanceData) else materialize(instance)
    return evaluate_property(property_id, data, tolerance)


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
    for i in range(config.count):
        data = materialize(build_instance(config, i))
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
    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(report_jsonl_lines(report)) + "\n")
    if csv_path is not None:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(report_csv_lines(report)) + "\n")
    return report
