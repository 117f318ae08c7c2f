"""In-memory span tracer for gcfloer, installed from outside the package.

The tracer replaces each traced function at every place it is bound: the
defining module, every gcfloer module that imported it by name, tuples of
functions held at module level, and class attributes (NovikovSeries.invert).
Patching only the defining module would miss calls made through names bound
by ``from .module import name``.

A span is ``[name, start, end, parent, op]``: perf_counter times, the index
of the enclosing span (or None) and the benchmark op id that caused it.
Spans stay in memory; the caller writes them out when the run ends.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_f_evals(tracer, args, kwargs):
    # integrate_periodic(f, ...): count evaluations of the integrand.
    f = args[0] if args else kwargs.pop("f")

    def counted(theta):
        tracer.counters["numerics.integrate_periodic.f_evals"] += 1
        return f(theta)

    return (counted,) + tuple(args[1:]), kwargs


def _solver_counts(tracer, args, kwargs, result):
    from gcfloer.potential import SolverConfig

    config = args[1] if len(args) > 1 else kwargs.get("config", SolverConfig())
    tracer.counters["potential.find_critical_points.starts"] += config.starts
    tracer.counters["potential.find_critical_points.points"] += len(result)


def _invert_terms(tracer, args, kwargs, result):
    tracer.counters["novikov.invert.terms"] += len(result.terms)


def _pivot_warnings(tracer, args, kwargs, result):
    tracer.counters["novikov.warnings"] += len(result.warnings)


# (defining module, attribute path, span name, before hook, after hook)
TARGETS = (
    ("gcfloer.potential", "find_critical_points", "potential.find_critical_points",
     None, _solver_counts),
    ("gcfloer.potential", "build_potential", "potential.build_potential", None, None),
    ("gcfloer.potential", "verify_candidate", "potential.verify_candidate", None, None),
    ("gcfloer.floer", "open_gw_series", "floer.open_gw_series", None, None),
    ("gcfloer.floer", "pair_series", "floer.pair_series", None, None),
    ("gcfloer.floer", "open_gw_integral", "floer.open_gw_integral", None, None),
    ("gcfloer.floer", "pair_integral", "floer.pair_integral", None, None),
    ("gcfloer.floer", "disk_area", "floer.disk_area", None, None),
    ("gcfloer.numerics", "integrate_periodic", "numerics.integrate_periodic",
     _count_f_evals, None),
    ("gcfloer.numerics", "hermitian_eigenvalues", "numerics.hermitian_eigenvalues",
     None, None),
    ("gcfloer.numerics", "complex_eigenvalues", "numerics.complex_eigenvalues",
     None, None),
    ("gcfloer.gc_core", "gc_map", "gc_core.gc_map", None, None),
    ("gcfloer.gc_core", "build_polytope", "gc_core.build_polytope", None, None),
    ("gcfloer.gc_core", "contains", "gc_core.contains", None, None),
    ("gcfloer.gc_core", "classify_fiber", "gc_core.classify_fiber", None, None),
    ("gcfloer.novikov", "module_presentation", "novikov.module_presentation",
     None, _pivot_warnings),
    ("gcfloer.novikov", "NovikovSeries.invert", "novikov.invert", None, _invert_terms),
    ("gcfloer.qh", "c1_eigenvalues_grassmannian", "qh.c1_eigenvalues", None, None),
    ("gcfloer.qh", "fl3_c1_eigenvalues", "qh.c1_eigenvalues", None, None),
    ("gcfloer.qh", "multiset_match", "qh.multiset_match", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTER_NAMES = (
    "potential.find_critical_points.starts",
    "potential.find_critical_points.points",
    "numerics.integrate_periodic.f_evals",
    "novikov.invert.terms",
    "novikov.warnings",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Patch every binding site of every target; returns the site count."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gcfloer" or n.startswith("gcfloer."))]
        wrappers = {}
        for module_name, path, name, before, after in TARGETS:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(name, original, before, after)
            if owner_path:  # a method: the class is its only binding site
                self._set(owner, attr, wrappers[id(original)])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, tuple) and any(
                    callable(v) and id(v) in wrappers for v in value
                ):
                    self._set(module, attr, tuple(
                        wrappers.get(id(v), v) if callable(v) else v for v in value
                    ))
        return len(self._restore)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)


def aggregate(spans):
    """name -> {"calls", "s", "self_s"}.

    ``s`` is inclusive time (a span nested in a span of the same name is not
    counted twice); ``self_s`` is each span's duration minus the time its
    direct child spans cover.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _op) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            entry["s"] += end - start
    return out


def merge_spans(into, spans):
    """Append spans recorded by another process, shifting parent indices."""
    offset = len(into)
    for name, start, end, parent, op in spans:
        into.append([name, start, end, None if parent is None else parent + offset, op])

