"""Per-layer tracer for matmeans, applied from outside the program.

`Tracer.install()` wraps the public functions (those defined in the
module whose names do not start with an underscore) of each matmeans
module, `densela`, `means`, `spectra`, `compound`, `suite` and `cli`, and
rebinds every wrapper wherever the original is
bound by name, so a call from `means` to the `sym_eigen` it imported is
counted as well as a call inside `densela`.  Each call is a span; a span's
self time is its duration minus the time its child spans cover, and the
tracer's own bookkeeping is charged to neither.

On top of the spans it keeps the counts the benchmark reports:
distinct `sym_eigen` inputs and their accuracy against LAPACK `eigvalsh`
(an oracle that lives only here), the compound orders built,
`MarginTracker.add` calls per property, properties that passed with no
sub-inequality checked, and the time of each instance by dimension.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import sys
import time

import numpy as np

PACKAGE = "matmeans"
LAYERS = ("densela", "means", "spectra", "compound", "suite", "cli")
# sym_eigen inputs above this order are compound or block matrices.
LARGE_ORDER = 8


class _Stats:
    __slots__ = ("calls", "incl_s", "self_s", "min_self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.min_self_s = math.inf


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _public_functions(module):
    for name, fn in list(vars(module).items()):
        if (
            not name.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        ):
            yield name, fn


class Tracer:
    """Spans and counters for one traced program run."""

    def __init__(self):
        self.spans: dict[str, _Stats] = {}
        self.eig_unique = 0
        self.eig_large_self_s = 0.0
        self.eig_max_rel_err = 0.0
        self.compound_order_sum = 0
        self.subineq: dict[str, int] = {}
        self.empty_pass = 0
        self.instances: dict[int, list] = {}  # seed -> [dim, seconds]
        self._eig_keys: set = set()
        self._stack: list[list[float]] = []
        self._adds = 0
        self._bound: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        tracer._install()
        return tracer

    def _install(self) -> None:
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        # Keyed by id: every original stays alive in a module or in _bound.
        wrappers = {
            id(fn): self._wrap(layer, name, fn)
            for layer, module in modules.items()
            for name, fn in _public_functions(module)
        }
        loaded = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bind(module, attr, wrappers[id(value)])

        tracker = modules["suite"].MarginTracker
        add = tracker.add

        def counted_add(tr, *args, **kwargs):
            self._adds += 1
            return add(tr, *args, **kwargs)

        self._bind(tracker, "add", counted_add)

    def _bind(self, owner, attr, value) -> None:
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound.clear()

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        qualname = f"{layer}.{name}"
        is_property = qualname == "suite.evaluate_property"
        after = {
            "densela.sym_eigen": self._after_sym_eigen,
            "compound.compound_matrix": self._after_compound,
            "suite.check_property": self._after_check_property,
        }.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_enter = clock()
            span = qualname
            if is_property:
                pid = _arg(args, kwargs, 0, "property_id")
                span = f"suite.{pid}"
                saved, self._adds = self._adds, 0
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self_s = self._record(span, t1 - t0, frame[0])
                if is_property:
                    self._after_property(pid, result, saved)
                elif after is not None and result is not None:
                    after(args, kwargs, result, t1 - t0, self_s)
                # The parent is kept for the whole call, bookkeeping included,
                # so none of the tracer's own time lands in any self time.
                if stack:
                    stack[-1][0] += clock() - t_enter

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _record(self, name, incl, covered) -> float:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = _Stats()
        self_s = incl - covered
        stats.calls += 1
        stats.incl_s += incl
        stats.self_s += self_s
        stats.min_self_s = min(stats.min_self_s, self_s)
        return self_s

    # -- counters ------------------------------------------------------

    def _after_sym_eigen(self, args, kwargs, result, incl, self_s) -> None:
        a = np.asarray(_arg(args, kwargs, 0, "s"), dtype=float)
        if a.shape[0] > LARGE_ORDER:
            self.eig_large_self_s += self_s
        key = (a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
        if key in self._eig_keys:
            return
        self._eig_keys.add(key)
        self.eig_unique += 1
        ref = np.linalg.eigvalsh((a + a.T) * 0.5)[::-1]
        scale = float(np.max(np.abs(ref)))
        if scale > 0.0:
            err = float(np.max(np.abs(np.asarray(result.lam) - ref))) / scale
            self.eig_max_rel_err = max(self.eig_max_rel_err, err)

    def _after_property(self, pid, result, saved_adds) -> None:
        adds = self._adds
        self._adds = saved_adds + adds
        self.subineq[pid] = self.subineq.get(pid, 0) + adds
        if result is not None and result.status == "pass" and adds == 0:
            self.empty_pass += 1

    def _after_compound(self, args, kwargs, result, incl, self_s) -> None:
        n = np.shape(_arg(args, kwargs, 0, "x"))[0]
        self.compound_order_sum += math.comb(n, _arg(args, kwargs, 1, "k"))

    def _after_check_property(self, args, kwargs, result, incl, self_s) -> None:
        spec = _arg(args, kwargs, 1, "instance")
        entry = self.instances.setdefault(spec.seed, [spec.dim, 0.0])
        entry[1] += incl

    # -- output --------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data record of everything traced, for JSON output."""
        return {
            "spans": {
                name: {
                    "calls": s.calls,
                    "incl_s": s.incl_s,
                    "self_s": s.self_s,
                    "min_self_s": s.min_self_s,
                }
                for name, s in sorted(self.spans.items())
            },
            "sym_eigen": {
                "unique": self.eig_unique,
                "large_self_s": self.eig_large_self_s,
                "max_rel_err": self.eig_max_rel_err,
            },
            "compound_order_sum": self.compound_order_sum,
            "subineq": dict(sorted(self.subineq.items())),
            "empty_pass": self.empty_pass,
            "instances": [[seed, d, s] for seed, (d, s) in sorted(self.instances.items())],
        }
