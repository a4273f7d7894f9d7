"""Layer instruments for the benchmark, installed by patching qpslab names.

Nothing inside ``src/`` changes.  Each instrument is a context manager that
replaces the public functions and methods of the layers on entry and puts
the originals back on exit, also when the body raises:

* :class:`SpanTracer` records one span per call into a layer (name, start,
  end, parent span, campaign id).  Spans stay in memory until
  :meth:`SpanTracer.summary` turns them into calls and self time.
* :class:`WorkCounter` counts exact work: ``QQi`` multiplications and
  additions, matmul scalar products, rref cells and the largest bit length
  rref produces.  The ``QQi`` methods are the hottest calls in the package,
  so they are counted in a pass of their own and never inflate span times.

A module-level function is replaced in every ``qpslab`` module that bound
it: ``kernel`` is imported separately into ``linalg``, ``dirac``,
``gspringer`` and ``campaigns``, and each of those names is patched.  A
method is replaced on its class.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

from qpslab import campaigns, diffcalc, dirac, gspringer, liegroup, linalg, matio
from qpslab.scalars import QQi

# metric prefix -> (object holding the callable, attribute names).  A class
# attribute is patched on the class; a module attribute everywhere it is bound.
LAYER_CALLS = {
    "linalg.matmul": (linalg.Mat, ("__matmul__",)),
    "linalg.rref": (linalg, ("rref",)),
    "linalg.rank": (linalg, ("rank",)),
    "linalg.kernel": (linalg, ("kernel",)),
    "linalg.solve_unique": (linalg, ("solve_unique",)),
    "linalg.Subspace": (linalg.Subspace, ("__init__",)),
    "linalg.inverse": (linalg.Mat, ("inverse",)),
    "diffcalc.Space.curve": (diffcalc.Space, ("curve",)),
    "diffcalc.DualMat.matmul": (diffcalc.DualMat, ("__matmul__", "__rmatmul__")),
    "diffcalc.d_two_form": (diffcalc, ("d_two_form",)),
    "dirac.pushforward_linear": (dirac, ("pushforward_linear",)),
    "dirac.is_lagrangian": (dirac, ("is_lagrangian",)),
    "dirac.cartan_dirac": (dirac, ("cartan_dirac",)),
    "dirac.cartan_closure_check": (dirac, ("cartan_closure_check",)),
    "gspringer.omega_matrix": (gspringer, ("omega_matrix",)),
    "gspringer.QuotientChart": (gspringer.QuotientChart, ("__init__",)),
    "gspringer.quotient_fiber": (gspringer, ("quotient_fiber",)),
    "gspringer.theorem1_check": (gspringer, ("theorem1_check",)),
    "gspringer.theorem2_check": (gspringer, ("theorem2_check",)),
    "gspringer.leaf_two_form": (gspringer, ("leaf_two_form",)),
    "gspringer.reconstruct_bivector": (gspringer, ("reconstruct_bivector",)),
    "gspringer.regact_check": (gspringer, ("regact_check",)),
    "gspringer.weyl_fiber_enum": (gspringer, ("weyl_fiber_enum",)),
    "liegroup.context": (liegroup, ("context",)),
    "liegroup.random_point": (liegroup, ("random_point",)),
    "liegroup.GroupContext.coords": (liegroup.GroupContext, ("coords",)),
    "liegroup.sigma": (liegroup, ("sigma",)),
    "campaigns.run_suite": (campaigns, ("run_suite",)),
    "campaigns.report_to_json": (campaigns.VerificationReport, ("to_json",)),
    "matio.mat_from_json": (matio, ("mat_from_json",)),
}

COUNTERS = ("linalg.matmul.mults", "linalg.rref.cells", "linalg.rref.max_bits",
            "scalars.qqi_mul", "scalars.qqi_add")


def _qpslab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qpslab" or name.startswith("qpslab."))]


class _Patcher:
    """Replaces callables and remembers how to put every original back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            sites = [owner]
        else:
            sites = [m for m in _qpslab_modules() if vars(m).get(attr) is original]
        for site in sites:
            self._undo.append((site, attr, original))
            setattr(site, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)


class SpanTracer:
    """Spans around every call in :data:`LAYER_CALLS`.

    Set :attr:`campaign` before each campaign; every span records the value
    current when it opened.  Self time is a span's duration minus that of its
    direct children, so a parent is not charged for the layers it calls.
    """

    def __init__(self):
        self.campaign = -1
        self.metric_names = list(LAYER_CALLS)
        self._name = array("i")
        self._parent = array("l")
        self._campaign = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patcher = _Patcher()

    def __enter__(self) -> "SpanTracer":
        try:
            for name_id, (owner, attrs) in enumerate(LAYER_CALLS.values()):
                for attr in attrs:
                    self._patcher.patch(owner, attr,
                                        functools.partial(self._wrap, name_id))
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def _wrap(self, name_id: int, fn):
        names, parents, camps = self._name, self._parent, self._campaign
        starts, ends, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            camps.append(self.campaign)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    @property
    def span_count(self) -> int:
        return len(self._name)

    def campaigns_seen(self) -> set[int]:
        return set(self._campaign)

    def summary(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over all spans."""
        durations = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * len(durations)
        for parent, dur in zip(self._parent, durations):
            if parent >= 0:
                child[parent] += dur
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.metric_names}
        for name_id, dur, inner in zip(self._name, durations, child):
            row = out[self.metric_names[name_id]]
            row["calls"] += 1
            row["self_s"] += dur - inner
        return out


def _max_bits(m) -> int:
    best = 0
    for row in m.data:
        for x in row:
            for part in (x.re, x.im):
                best = max(best, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return best


class WorkCounter:
    """Exact work counts; every value repeats exactly for the same inputs."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._qqi = [0, 0]  # mul, add: a list cell is the cheapest to bump
        self._patcher = _Patcher()

    def __enter__(self) -> "WorkCounter":
        cell = self._qqi
        counts = self.counts

        def count_qqi(slot):
            def make(fn):
                def counted(a, b):
                    cell[slot] += 1
                    return fn(a, b)
                return functools.update_wrapper(counted, fn)
            return make

        def count_matmul(fn):
            def counted(a, b):
                if isinstance(b, linalg.Mat):
                    counts["linalg.matmul.mults"] += a.rows * a.cols * b.cols
                return fn(a, b)
            return functools.update_wrapper(counted, fn)

        def count_rref(fn):
            def counted(m):
                out = fn(m)
                counts["linalg.rref.cells"] += m.rows * m.cols
                bits = _max_bits(out[0])
                if bits > counts["linalg.rref.max_bits"]:
                    counts["linalg.rref.max_bits"] = bits
                return out
            return functools.update_wrapper(counted, fn)

        try:
            for attr in ("__mul__", "__rmul__"):
                self._patcher.patch(QQi, attr, count_qqi(0))
            for attr in ("__add__", "__radd__"):
                self._patcher.patch(QQi, attr, count_qqi(1))
            self._patcher.patch(linalg.Mat, "__matmul__", count_matmul)
            self._patcher.patch(linalg, "rref", count_rref)
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()
        self.counts["scalars.qqi_mul"] = self._qqi[0]
        self.counts["scalars.qqi_add"] = self._qqi[1]
