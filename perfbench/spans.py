"""Spans and exact call counters, installed on orbitsquares from outside.

``Tracer`` records a span around every public function of the traced
modules, and around ``Poly.pow_mod``/``Poly.compose``, under every module
attribute that holds the function: a from-import (``factor`` in ``classify``
and ``dynamics``, ``classify_2_ordinary`` in ``bounds`` and ``scan``, ...)
binds a name of its own, and the package re-exports most of them.  Generator
functions are left alone: their work runs in the caller's frame, so it is
counted in the caller's self time.  Spans are kept in flat arrays and only
turned into per-layer numbers, or written out, after the traced pass.

``Counters`` counts calls of the field kernels and of ``Poly.eval_i``.  A
wrapper on calls that cheap costs more than the calls, so counts are taken in
a pass of their own whose time feeds no metric.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

PACKAGE = "orbitsquares"
TRACED_MODULES = ("field", "fpoly", "dynamics", "classify", "bounds", "scan", "cli")
TRACED_METHODS = (("fpoly", "Poly", "pow_mod"), ("fpoly", "Poly", "compose"))
COUNTED_METHODS = (
    ("field", "FieldSpec", "add_i"),
    ("field", "FieldSpec", "mul_i"),
    ("field", "FieldSpec", "chi_i"),
    ("fpoly", "Poly", "eval_i"),
)
EMIT_FUNCTIONS = ("scan.write_jsonl",)
FACTOR_DEGREE_BUCKETS = ((4, "deg1-4"), (16, "deg5-16"), (64, "deg17-64"), (None, "deg65-up"))


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _module(short):
    return sys.modules[f"{PACKAGE}.{short}"]


class Tracer:
    """Span recorder; ``install`` wraps the package, ``undo`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches = Patches()
        # observations made on arguments/results, outside the timed span
        self.orbit_steps = 0
        self.walks: set = set()
        self.classified: set = set()
        self.oracle_certified = 0
        self.oracle_consistent = 0
        self.factor_degrees: dict[str, int] = {label: 0 for _, label in FACTOR_DEGREE_BUCKETS}
        self.unique_args: dict[str, set] = {"bounds.compute_B": set(), "bounds.t_set_size": set()}
        self.emit_bytes = 0

    # -- recording ----------------------------------------------------------

    def wrap(self, label, fn, observe=None):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- observers ----------------------------------------------------------

    def _observers(self):
        def forward_orbit(args, kwargs, orbit):
            f, a = args[0], args[1]
            self.orbit_steps += orbit.size
            self.walks.add((f.field.q, f.coeffs, a.idx))

        def classify(args, kwargs, report):
            f = args[0]
            self.classified.add((f.field.q, f.coeffs))

        def oracle(args, kwargs, res):
            if res.certified_not:
                self.oracle_certified += 1
            else:
                self.oracle_consistent += 1

        def factor(args, kwargs, fac):
            d = args[0].degree
            for top, label in FACTOR_DEGREE_BUCKETS:
                if top is None or d <= top:
                    self.factor_degrees[label] += 1
                    break

        def unique(label):
            seen = self.unique_args[label]

            def observe(args, kwargs, result):
                f = args[0]
                rest = tuple(a.idx if hasattr(a, "idx") else a for a in args[1:])
                seen.add((f.field.q, f.coeffs, rest, tuple(sorted(
                    (k, v) for k, v in kwargs.items() if k in ("target", "budget")))))

            return observe

        def emitted(args, kwargs, result):
            self.emit_bytes += os.path.getsize(args[-1])

        return {
            "dynamics.forward_orbit": forward_orbit,
            "classify.classify_2_ordinary": classify,
            "classify.oracle_2_ordinary": oracle,
            "fpoly.factor": factor,
            "bounds.compute_B": unique("bounds.compute_B"),
            "bounds.t_set_size": unique("bounds.t_set_size"),
            "scan.write_jsonl": emitted,
        }

    # -- install / undo -----------------------------------------------------

    def install(self):
        observers = self._observers()
        modules = _package_modules()
        for short in TRACED_MODULES:
            mod = _module(short)
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                label = f"{short}.{name}"
                wrapped = self.wrap(label, obj, observers.get(label))
                for holder in modules:
                    for attr, val in list(vars(holder).items()):
                        if val is obj:
                            self._patches.set(holder, attr, wrapped)
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(_module(short), cls_name)
            self._patches.set(cls, meth, self.wrap(f"{short}.{meth}", cls.__dict__[meth]))

    def undo(self):
        self._patches.undo()

    # -- reduction ----------------------------------------------------------

    def summary(self):
        """({label: [calls, self_ns]}, factor calls made under classify_2_ordinary)."""
        n = len(self.start)
        names, name_id, parent, start, end = (
            self.names, self.name_id, self.parent, self.start, self.end)
        child_ns = [0] * n
        in_classify = bytearray(n)
        classify_id = names.index("classify.classify_2_ordinary")
        factor_id = names.index("fpoly.factor")
        factor_in_classify = 0
        per_name: dict[str, list[int]] = {}
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
                in_classify[i] = in_classify[p] or name_id[p] == classify_id
            if name_id[i] == factor_id and in_classify[i]:
                factor_in_classify += 1
        for i in range(n):
            acc = per_name.setdefault(names[name_id[i]], [0, 0])
            acc[0] += 1
            acc[1] += end[i] - start[i] - child_ns[i]
        return per_name, factor_in_classify

    def write(self, path):
        """Spans as TSV: id, name, start_ns, end_ns, parent id, root id."""
        root = array("i", [0]) * len(self.start)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\troot\n")
            for i in range(len(self.start)):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{p}\t{root[i]}\n")


class Counters:
    """Exact call counts of the field kernels and of Poly.eval_i."""

    def __init__(self):
        self.counts = {f"{cls}.{meth}": 0 for _, cls, meth in COUNTED_METHODS}
        self._patches = Patches()

    def install(self):
        counts = self.counts
        for short, cls_name, meth in COUNTED_METHODS:
            cls = getattr(_module(short), cls_name)
            self._patches.set(cls, meth, _counting(cls.__dict__[meth], counts, f"{cls_name}.{meth}"))

    def undo(self):
        self._patches.undo()

    def snapshot(self):
        return dict(self.counts)


def _counting(fn, counts, key):
    @functools.wraps(fn)
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted
