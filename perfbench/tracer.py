"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``hopfcm`` modules that the
benchmark's jobs reach, and rebinds every module attribute and class
attribute that refers to a wrapped object.  A name imported with
``from .normalform import to_normal_form`` is a separate binding in each
importing module; a wrapper installed only in ``normalform`` would miss the
calls made through ``focusq``, ``cyclicity``, ``verify`` and ``cli``.

Two kinds of wrapper:

* spans, at module-entry boundaries: one record per call with job id, span
  id, parent span id, name, start and end, kept in memory and written out
  at the end of the run;
* hot kernels (``Jet.__mul__``, the ``ParamExpr`` operators,
  ``VectorField3.evaluate``, ``poly_gcd``, the recursive ``cli.jsonable``):
  aggregated as a call count plus the inclusive time of the outermost
  calls, because one record per call would dominate what is measured.

For every name the tracer keeps ``calls``, ``s`` (inclusive time of the
outermost calls, so recursion is not counted twice) and ``self_s`` (span
time minus the time of its direct child spans; hot kernels are not spans).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs recorded as spans
SPAN_FUNCTIONS = (
    ("focusq", "focus_quantities"),
    ("focusq", "complexify"),
    ("normalform", "to_normal_form"),
    ("period", "polar_reduce"),
    ("period", "periodic_solution_series"),
    ("period", "isochronicity_constants"),
    ("cyclicity", "jet_focus_report"),
    ("cyclicity", "jacobian_rank"),
    ("cyclicity", "reduce_quantities"),
    ("polysys", "hopf_test"),
    ("polysys", "transform"),
    ("simulate", "integrate"),
    ("simulate", "first_return"),
    ("catalog", "build"),
)

# (module, function) pairs aggregated as hot kernels
KERNEL_FUNCTIONS = (
    ("paramfield", "poly_gcd"),
    ("cli", "jsonable"),
)

# (module, class, metric name, methods) aggregated as hot kernels
KERNEL_METHODS = (
    ("paramfield", "Jet", "paramfield.Jet.mul", ("__mul__",)),
    ("paramfield", "ParamExpr", "paramfield.ParamExpr",
     ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
      "__rtruediv__", "__neg__", "__pow__")),
    ("polysys", "VectorField3", "polysys.VectorField3.evaluate", ("evaluate",)),
)


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0

    def copy(self):
        c = Stat()
        c.calls, c.s, c.self_s = self.calls, self.s, self.self_s
        return c


PACKAGE = "hopfcm"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(float)
        self.spans = []
        self._stack = []  # [span id, child time]
        self._next_id = 1
        self.job_id = None
        self._restore = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, on_error=None):
        stats, stack, spans, clock = self.stats, self._stack, self.spans, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = stats[name]
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if on_error:
                    on_error()
                raise
            finally:
                t1 = clock()
                stack.pop()
                st.depth -= 1
                dur = t1 - t0
                st.calls += 1
                st.self_s += dur - frame[1]
                if st.depth == 0:
                    st.s += dur
                if stack:
                    stack[-1][1] += dur
                spans.append((tracer.job_id, sid, parent, name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def kernel(self, name, fn, on_result=None):
        st = self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st.calls += 1
            if st.depth:
                result = fn(*args, **kwargs)
            else:
                st.depth = 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    st.s += clock() - t0
                    st.depth = 0
            if on_result:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def job(self, job_id):
        """Top-level span around one job; its id tags every span inside."""
        self.job_id = job_id
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.clear()
            self.spans.append((job_id, sid, None, "job", t0, t1))
            self.job_id = None

    def snapshot(self):
        return ({k: v.copy() for k, v in self.stats.items()}, dict(self.counters))

    def restore(self, snap):
        """Reset the aggregates to ``snap`` between jobs (spans are kept)."""
        stats, counters = snap
        for name, st in self.stats.items():
            old = stats.get(name)
            st.calls, st.s, st.self_s = (old.calls, old.s, old.self_s) if old else (0, 0.0, 0.0)
            # an interrupted job can leave a wrapper's nesting depth raised
            st.depth = 0
        self.counters.clear()
        self.counters.update(counters)

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper):
        """Point every hopfcm binding of ``original`` at ``wrapper``."""
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        def mod(name):
            return sys.modules[f"{PACKAGE}.{name}"]

        for modname, fname in SPAN_FUNCTIONS:
            fn = getattr(mod(modname), fname)
            on_error = self._simulate_fail if modname == "simulate" else None
            self._rebind(fn, self.span(f"{modname}.{fname}", fn, on_error))

        sim = mod("simulate")
        self._rebind(sim.displacement, self._displacement(sim.displacement))
        self._rebind(sim.measure_period, self._measure_period(sim.measure_period))

        for modname, fname in KERNEL_FUNCTIONS:
            fn = getattr(mod(modname), fname, None)
            if fn is None:  # e.g. poly_gcd once a backend replaces it
                continue
            on_result = self._gcd_result if fname == "poly_gcd" else None
            self._rebind(fn, self.kernel(f"{modname}.{fname}", fn, on_result))

        for modname, clsname, name, methods in KERNEL_METHODS:
            cls = getattr(mod(modname), clsname)
            for meth in methods:
                fn = vars(cls).get(meth)
                if fn is None:
                    continue
                wrapper = self.kernel(name, fn)
                for attr, val in list(vars(cls).items()):
                    if val is fn:  # aliases such as __rmul__ = __mul__
                        self._restore.append((cls, attr, val))
                        setattr(cls, attr, wrapper)

        verify = mod("verify")
        for claim, fn in list(verify.CLAIMS.items()):
            wrapper = self.span(f"verify.{claim}", fn)
            self._restore.append((verify.CLAIMS, claim, fn))
            verify.CLAIMS[claim] = wrapper
            self._rebind(fn, wrapper)

    def uninstall(self):
        for target, attr, val in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = val
            else:
                setattr(target, attr, val)
        self._restore.clear()

    # -- layer-specific counters -------------------------------------------

    def _simulate_fail(self):
        self.counters["simulate.fail"] += 1

    def _gcd_result(self, g):
        is_constant = getattr(g, "is_constant", None)
        if is_constant is not None and not is_constant():
            self.counters["paramfield.poly_gcd.nontrivial"] += 1

    def _displacement(self, fn):
        inner = self.span("simulate.displacement", fn, self._simulate_fail)
        fr = self.stats["simulate.first_return"]
        counters = self.counters

        def displacement(*args, **kwargs):
            before = fr.calls
            try:
                return inner(*args, **kwargs)
            finally:
                n = fr.calls - before
                counters["simulate.first_return.in_displacement"] += n
                # one return for the start value, two per secant iteration
                counters["simulate.displacement.secant_iters"] += max(n - 1, 0) // 2

        return displacement

    def _measure_period(self, fn):
        double = self.span("simulate.measure_period.double", fn, self._simulate_fail)
        extended = self.span("simulate.measure_period.extended", fn, self._simulate_fail)

        def measure_period(*args, **kwargs):
            precision = kwargs.get("precision") or os.environ.get("HF_PRECISION", "double")
            return (extended if precision == "extended" else double)(*args, **kwargs)

        return measure_period

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["job", "span", "parent", "name", "start", "end"],
                 "spans": self.spans},
                fh,
            )
