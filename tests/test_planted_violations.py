"""Planted violations: a check must catch a spectrum that breaks its inequality.

Each plant moves one entry of one member's grid read, at one (t, p, k),
just past the other side of one link of the property's chain: the link's
margin at that entry goes from m to below -(|m| + 10 tol), the fail
threshold and the entry's own slack beyond it.  The property must then
fail, and its witness must name a link that the move can violate, at the
planted (t, p), with k at least the planted k (a move of entry k shifts
every prefix sum from k on).  A NaN plant must fail with the witness of
its first NaN margin, at the planted (t, p).  The member's group row and
its row checked alone, both planted, must be equal.
"""

import json
import math
from typing import NamedTuple

import pytest

from matmeans import suite
from matmeans.suite import CampaignConfig, build_instance, check_property, materialize


class Plant(NamedTuple):
    pid: str
    kind: str  # the link's compare kind; "logdet" is the eq of the log prefix totals
    lhs: str  # the read entries of the link's two sides; "@prev" reads the previous p
    rhs: str
    moved: str  # the "lhs" entry is raised, the "rhs" entry lowered
    t: float
    p: float | None  # None for a t-only link
    k: int  # from 0
    may_fail: tuple  # labels of every link that the move can violate


PLANTS = [
    Plant("P1", "leq", "power_mean@prev", "power_mean", "rhs", 0.25, 1.0, 1, ("lambda",)),
    Plant("P2", "KyFan", "geometric", "log_euclidean", "lhs", 0.25, None, 0, ("KyFan",)),
    Plant("P2", "KyFan", "log_euclidean", "power_mean", "rhs", 0.75, 2.0, 1, ("KyFan",)),
    Plant("P3", "KyFan", "geometric", "log_euclidean", "lhs", 0.5, None, 1, ("KyFan",)),
    Plant("P3", "KyFan", "log_euclidean", "sandwich", "rhs", 0.25, 2.0, 0, ("KyFan",)),
    Plant("P3", "KyFan", "sandwich", "power_mean", "lhs", 0.75, 0.5, 1, ("KyFan",)),
    # P4's links are t-only compares recorded at p = 1.
    Plant("P4", "KyFan", "geometric", "log_euclidean", "lhs", 0.25, 1.0, 0, ("KyFan",)),
    Plant("P4", "KyFan", "log_euclidean", "sandwich_p1", "rhs", 0.5, 1.0, 1, ("KyFan",)),
    Plant("P4", "KyFan", "sandwich_p1", "cross_sym", "lhs", 0.75, 1.0, 2, ("KyFan",)),
    Plant("P4", "KyFan", "cross_sym", "cross_sv", "rhs", 0.5, 1.0, 0, ("KyFan",)),
    Plant("P4", "KyFan", "cross_sv", "arithmetic", "lhs", 0.25, 1.0, 1, ("KyFan",)),
    Plant("P5", "logsum", "geometric", "log_euclidean", "lhs", 0.5, None, 1,
          ("logsum", "logdet")),
    Plant("P5", "logdet", "geometric", "log_euclidean", "lhs", 0.25, None, 0,
          ("logsum", "logdet")),
    Plant("P5", "logsum", "log_euclidean", "sandwich", "rhs", 0.5, 0.5, 0,
          ("logsum", "logdet", "lambda")),
    Plant("P5", "logdet", "log_euclidean", "sandwich", "rhs", 0.75, 4.0, 2,
          ("logsum", "logdet", "lambda")),
    Plant("P5", "eq", "sandwich", "dual", "rhs", 0.25, 0.1, 1, ("lambda",)),
    Plant("P5", "logsum", "sandwich", "power_mean", "rhs", 0.75, 1.0, 1, ("logsum",)),
    Plant("P7", "sum", "geometric", "sandwich_p1", "lhs", 0.5, None, 0,
          ("logsum", "logdet", "sum", "trace")),
    Plant("P13", "logsum", "geometric", "product_p1", "lhs", 0.25, None, 1, ("logsum", "logdet")),
    Plant("P13", "logdet", "geometric", "product_p1", "rhs", 0.75, None, 2, ("logsum", "logdet")),
]


def _margin(kind, lhs, rhs, k):
    """The link's margin at entry k, as the tracker computes it."""
    if kind == "logdet":
        lx, ly, _ = suite._margins("logsum", lhs, rhs)
        return suite._margins("eq", lx[-1], ly[-1])[2]
    return suite._margins(kind, lhs, rhs)[2][k]


def _moved(plant, sides) -> float:
    """The planted value of the moved entry: scaled by exp(+-s) for the least s
    (to bisection precision) that takes the link's margin below -(|m| + 10 tol)."""
    sign = 1.0 if plant.moved == "lhs" else -1.0
    value = sides[plant.moved][plant.k]

    def margin(s):
        moved = dict(sides)
        moved[plant.moved] = sides[plant.moved].copy()
        moved[plant.moved][plant.k] = value * math.exp(sign * s)
        return _margin(plant.kind, moved["lhs"], moved["rhs"], plant.k)

    target = -(abs(margin(0.0)) + suite.MARGINAL_FACTOR * suite.DEFAULT_TOLERANCE)
    lo, hi = 0.0, 1e-12
    while not margin(hi) < target:
        lo, hi = hi, 2.0 * hi
        assert hi < 1e3, plant
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if margin(mid) < target else (mid, hi)
    return value * math.exp(sign * hi)


def _plant_in(plant, i, at_t, at_tp, ts, ps, out_t, out_tp, nan):
    """Plant in member i of one grid read, if the read holds the planted link."""
    ts, ps = list(ts), list(ps)
    reads = dict(zip(at_t, out_t)) | dict(zip(at_tp, out_tp))
    entry = getattr(plant, plant.moved)
    if plant.t not in ts or (plant.p is not None and plant.p not in ps):
        return
    if not {plant.lhs.split("@")[0], plant.rhs.split("@")[0]} <= reads.keys():
        return
    at = (i, ts.index(plant.t))
    pi = None if plant.p is None else ps.index(plant.p)

    def point(name):
        base, _, prev = name.partition("@")
        return at + (() if base in at_t else (pi - 1 if prev else pi,)), reads[base]

    sides = {}
    for side in ("lhs", "rhs"):
        idx, values = point(getattr(plant, side))
        sides[side] = values[idx].copy()
    idx, values = point(entry)
    values[idx + (plant.k,)] = math.nan if nan else _moved(plant, sides)


def _planting(monkeypatch, plant, targets, nan=False):
    """Plant in the grid reads of both readers, for the members whose table is in ``targets``."""
    group_grid, own_grid = suite._Group.grid, suite._OwnReads.grid

    def group(reads, at_t=(), at_tp=(), ts=None, ps=None):
        out = group_grid(reads, at_t, at_tp, ts, ps)
        for i, table in enumerate(reads.pairs.tables):
            if any(table is t for t in targets):
                _plant_in(plant, i, at_t, at_tp, *suite._axes(reads.spec, ts, ps), *out, nan)
        return out

    def own(reads, at_t=(), at_tp=(), ts=None, ps=None):
        out = own_grid(reads, at_t, at_tp, ts, ps)
        if any(reads.data.means is t for t in targets):
            _plant_in(plant, 0, at_t, at_tp, *suite._axes(reads.spec, ts, ps), *out, nan)
        return out

    monkeypatch.setattr(suite._Group, "grid", group)
    monkeypatch.setattr(suite._OwnReads, "grid", own)


def _row(res):
    return json.dumps(suite.result_to_json_obj(res), separators=(",", ":"))


def _label_and_k(norm_id):
    label, _, k = norm_id.partition(":")
    return label, (int(k) if k.isdigit() else None)


def _planted(monkeypatch, pid, planting):
    """The planted member's row, once the other members pass and its group row
    equals its row checked alone.  ``planting(monkeypatch, targets, lone)``
    plants in the members whose table is in ``targets``."""
    config = CampaignConfig(master_seed=1, count=3, dims=(3,), properties=(pid,))
    members = [materialize(build_instance(config, i)) for i in range(config.count)]
    target, lone = members[1], materialize(members[1].spec)
    assert check_property(pid, lone).status == "pass"
    suite._Group(target.spec, members, suite._plan(target.spec, config.properties))
    planting(monkeypatch, (target.means, lone.means), lone)
    rows = [check_property(pid, d) for d in members]
    res = rows.pop(1)
    assert [r.status for r in rows] == ["pass"] * len(rows)  # the other members are not planted
    assert _row(check_property(pid, lone)) == _row(res)
    assert res.status == "fail" and res.error is None
    return res


def _grid_planting(plant, nan):
    return lambda monkeypatch, targets, lone: _planting(monkeypatch, plant, targets, nan)


@pytest.mark.parametrize("nan", [False, True], ids=["shift", "nan"])
@pytest.mark.parametrize(
    "plant", PLANTS, ids=[f"{p.pid}-{p.kind}-{p.moved}-{p.lhs}-{p.rhs}" for p in PLANTS]
)
def test_a_planted_violation_fails_at_its_link(monkeypatch, plant, nan):
    res = _planted(monkeypatch, plant.pid, _grid_planting(plant, nan))
    assert (res.witness.t, res.witness.p) == (plant.t, plant.p)
    label, k = _label_and_k(res.witness.norm_id)
    assert label in plant.may_fail, res.witness
    if nan:  # the first NaN of the chain: entry k's own margin, or one before it
        # where the NaN is the left total of a sum or logsum, which scales every k
        assert math.isnan(res.worst_margin)
        assert k is None or k <= plant.k + 1
    else:
        assert res.worst_margin < -suite.MARGINAL_FACTOR * suite.DEFAULT_TOLERANCE
        assert k is None or k >= plant.k + 1


def test_a_nan_in_the_spectrum_of_a_fails_p7s_determinant_identity(monkeypatch):
    # P7 reads the spectra of A and B as the arithmetic path at t = 0 and
    # t = 1; their log-determinants meet the geometric mean's at t = 0.5.
    plant = Plant("P7", "logdet", "arithmetic", "arithmetic", "lhs", 0.0, None, 0, ("logdet",))
    res = _planted(monkeypatch, plant.pid, _grid_planting(plant, nan=True))
    assert (res.witness.t, res.witness.p, res.witness.norm_id) == (0.5, None, "logdet")
    assert math.isnan(res.worst_margin) and math.isnan(res.witness.rhs)


# --- plants in a read whose link compares a value derived from it ----------------


class ReadPlant(NamedTuple):
    pid: str
    read: str  # the reader method: "multi", "spectrum" or "grid" (a t-only read)
    name: object  # the read's first argument: its name, or a grid's at_t
    at: float | None  # the planted p of a multi read, t of a grid read; None for a spectrum
    k: int  # the planted entry, from 0
    move: str  # a key of _MOVES
    t: float | None  # the witness point
    p: float | None
    may_fail: tuple


_MOVES = {
    "up": lambda v, s: v * math.exp(s),  # |v| grows
    "down": lambda v, s: v * math.exp(-s),  # |v| shrinks
    "below": lambda v, s: v - s * (1.0 + abs(v)),  # v falls, past 0
}

READ_PLANTS = [
    ReadPlant("P9", "multi", "power_mean", 0.5, 1, "down", None, 0.5, ("lambda",)),
    ReadPlant("P9", "multi", "unnormalized", 1.0, 0, "up", None, 1.0, ("KyFan",)),
    ReadPlant("P9", "multi", "power_sum", 2.0, 1, "up", None, 2.0, ("KyFan",)),
    ReadPlant("P10", "multi", "power_mean", 2.0, 0, "down", None, 2.0, ("KyFan",)),
    ReadPlant("P11", "spectrum", "block_geo", None, -1, "below", None, None, ("block-geo",)),
    ReadPlant("P11", "spectrum", "block_root", None, -1, "below", None, None, ("block-root",)),
    # P13's bounds at t = 1/2 share both reads: a move of either side can fail either.
    ReadPlant("P13", "spectrum", "bab_half", None, 1, "down", 0.5, None, ("KyFan",)),
    ReadPlant("P13", "grid", ("geometric",), 0.5, 0, "up", 0.5, None, ("KyFan",)),
    ReadPlant("P13", "grid", ("bab_power",), 0.75, 1, "up", 0.75, None, ("KyFan",)),
    ReadPlant("P14", "spectrum", "x_congruence", None, 0, "up", None, None, ("KyFan",)),
    ReadPlant("P14", "spectrum", "x_jordan", None, 0, "down", None, None, ("KyFan",)),
]


def _planting_reads(monkeypatch, plant, targets, value):
    """Set the planted entry v of the planted read to value(v), in both readers,
    for the members whose table is in ``targets``."""
    for reader in (suite._Group, suite._OwnReads):

        def read(reads, *args, real=getattr(reader, plant.read), **kwargs):
            out = real(reads, *args, **kwargs)
            if args[0] != plant.name:
                return out
            values, at = out, ()
            if plant.read == "spectrum":
                values = out = out.copy()  # a lone read is a view of its table's entry
            elif plant.read == "multi":
                if plant.at not in args[1]:
                    return out
                at = (args[1].index(plant.at),)
            else:
                ts = suite._axes(reads.spec, kwargs.get("ts"), None)[0]
                if plant.at not in ts:
                    return out
                values, at = out[0][0], (ts.index(plant.at),)
            own = isinstance(reads, suite._OwnReads)
            for i, table in enumerate((reads.data.means,) if own else reads.pairs.tables):
                if any(table is t for t in targets):
                    values[(i, *at, plant.k)] = value(values[(i, *at, plant.k)])
            return out

        monkeypatch.setattr(reader, plant.read, read)


def _read_planting(plant, nan):
    """Plant NaN, or the least move that fails the lone check (to bisection precision)."""

    def planting(monkeypatch, targets, lone):
        move = _MOVES[plant.move]

        def fails(s):
            with monkeypatch.context() as mp:
                _planting_reads(mp, plant, (lone.means,), lambda v: move(v, s))
                return check_property(plant.pid, lone).status == "fail"

        s = math.nan
        if not nan:
            lo, s = 0.0, 1e-9
            while not fails(s):
                lo, s = s, 4.0 * s
                assert s < 1e3, plant
            for _ in range(40):
                mid = 0.5 * (lo + s)
                lo, s = (lo, mid) if fails(mid) else (mid, s)
        _planting_reads(monkeypatch, plant, targets, lambda v: math.nan if nan else move(v, s))

    return planting


@pytest.mark.parametrize("nan", [False, True], ids=["shift", "nan"])
@pytest.mark.parametrize(
    "plant", READ_PLANTS, ids=[f"{p.pid}-{p.read}-{p.name}-{p.at}-{p.move}" for p in READ_PLANTS]
)
def test_a_planted_read_fails_at_its_link(monkeypatch, plant, nan):
    res = _planted(monkeypatch, plant.pid, _read_planting(plant, nan))
    assert (res.witness.t, res.witness.p) == (plant.t, plant.p)
    label, k = _label_and_k(res.witness.norm_id)
    assert label in plant.may_fail, res.witness
    if nan:
        assert math.isnan(res.worst_margin)
        assert k is None or k <= plant.k + 1
    else:
        assert res.worst_margin < -suite.MARGINAL_FACTOR * suite.DEFAULT_TOLERANCE
        assert k is None or k >= plant.k + 1
