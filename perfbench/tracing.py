"""Spans around calls into each layer of jetpoisson, recorded from outside.

``Tracer.install`` wraps the public functions named in ``LAYERS``: it replaces
the module attribute and every other binding of the same function object in
jetpoisson's modules (a ``from x import f`` name, or a table such as the CLI's
suite map).  It also patches the ``LaurentPoly`` ring dunders and counts calls
of ``RelationSet.tail``.  Each wrapped call records a span (name, start, end,
parent).  Spans stay in memory until ``write`` stores them at the end of the
pass; ``summary`` turns them into per-layer metrics.  A span's self time is
its duration minus the time its child spans cover.

The program itself is not changed: a traced pass runs the same code with the
wrappers around it, and the wrappers' cost is reported as the trace overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

from jetpoisson import (bialgebra, cli, coeffpoly, density, jetgroup, poissonlie, quantum,
                        report, series)

clock = time.perf_counter


def _omega_size(bound):
    omega, check_max = bound["omega"], bound["check_max"]
    return omega.n if check_max is None else min(check_max, omega.n)


# Functions whose span name carries the truncation they ran at.
SIZED = {
    (poissonlie, "verify_jacobi"): _omega_size,
    (poissonlie, "verify_multiplicativity"): _omega_size,
    (density, "verify_density_action"): lambda bound: bound["n"],
}


def _cojacobi_counts(counts, record):
    counts["bialgebra.verify_cojacobi.checked"] += record.params["checked"]
    counts["bialgebra.verify_cojacobi.skipped"] += record.params["skipped"]


# Work counts read from a function's result.
POST = {(bialgebra, "verify_cojacobi"): _cojacobi_counts}

LAYERS = {
    series: ["mul", "compose", "comp_inverse", "binomial_power"],
    jetgroup: ["jet_compose", "jet_inverse"],
    poissonlie: ["build_omega", "verify_jacobi", "verify_multiplicativity", "verify_phi_equation"],
    density: ["verify_density_action"],
    quantum: ["nc_reduce", "tensor_reduce", "pbw_overlap_check",
              "verify_delta_homomorphism", "verify_counit_coassoc"],
    bialgebra: ["verify_cojacobi", "coboundary", "verify_cocycle", "verify_cybe",
                "verify_rr_invariance"],
    report: ["emit_report"],
    cli: ["run_suite"] + [f"suite_{name}" for name in cli.SUITES],
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(clock())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = clock()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, size_of=None, post=None):
        fixed = self.name_id(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed
            if size_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                nid = self.name_id(f"{name}.n{size_of(bound.arguments)}")
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if post is not None:
                post(self.counts, result)
            return result

        return wrapper

    # The ring dunders run hundreds of thousands of times a pass, so their
    # wrappers skip the generic wrapper's argument binding and hooks.
    def _wrap_mul(self, fn):
        nid = self.name_id("coeffpoly.mul")
        counts = self.counts
        poly = coeffpoly.LaurentPoly

        @functools.wraps(fn)
        def wrapper(a, b):
            idx = self.open(nid)
            try:
                result = fn(a, b)
            finally:
                self.close(idx)
            counts["coeffpoly.mul.term_pairs"] += len(a.terms) * (
                len(b.terms) if isinstance(b, poly) else 1)
            counts["coeffpoly.mul.out_terms"] += len(result.terms)
            return result

        return wrapper

    def _wrap_add(self, fn):
        nid = self.name_id("coeffpoly.add")

        @functools.wraps(fn)
        def wrapper(a, b):
            idx = self.open(nid)
            try:
                return fn(a, b)
            finally:
                self.close(idx)

        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        poly = coeffpoly.LaurentPoly
        for attr in ("__mul__", "__rmul__"):
            setattr(poly, attr, self._wrap_mul(getattr(poly, attr)))
        # __rsub__ delegates to __sub__, so wrapping it would count twice
        for attr in ("__add__", "__radd__", "__sub__"):
            setattr(poly, attr, self._wrap_add(getattr(poly, attr)))
        quantum.RelationSet.tail = self._count(quantum.RelationSet.tail, "quantum.rewrite_steps")
        for module, attrs in LAYERS.items():
            for attr in attrs:
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, f"{_layer(module)}.{attr}",
                                     SIZED.get((module, attr)), POST.get((module, attr)))
                _rebind(orig, wrapper)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """``<span>.calls`` and ``<span>.self_s`` for every span name, plus the counts."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        return out

    def write(self, path):
        """Store the spans: one JSON header line (the span names and the
        column layout), then the columns as raw native arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.span_name, "parent": self.span_parent,
                   "start": self.span_start, "end": self.span_end}
        header = {"names": self.names, "spans": len(self.span_start),
                  "columns": [[key, col.typecode, col.itemsize] for key, col in columns.items()]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns.values():
                column.tofile(handle)


def _rebind(orig, wrapper):
    """Point every binding of ``orig`` in jetpoisson's modules at ``wrapper``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("jetpoisson"):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)
            elif type(value) is dict:
                for k, v in value.items():
                    if v is orig:
                        value[k] = wrapper
