"""Span tracing at dompole's layer boundaries, installed from outside.

``Tracer.install()`` replaces public functions by module attribute with
wrappers that record one span per call (name, start, end, parent) in
memory; ``Tracer.remove()`` puts the originals back. Nothing under
``src/`` knows about it.

The tracer's own measurements run on a paused clock, so they land in no
span, and they are kept allocation-free or tiny so that they do not warm
the caches of the code they watch: fill is SuperLU's own count of stored
factor entries, pivot growth is an attribute dompole already computed, and
for cond(W^T V) only the p-by-p product is taken inline; its condition
number is computed when asked for.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import dompole
from dompole import descriptor, mmio, solver, sparsela

# (owner object, attribute, span name). Each owner is where the caller
# looks the name up at call time: solver and descriptor import their
# helpers into their own namespaces, and dompole re-exports the entry
# points the benchmark calls.
BOUNDARIES = [
    (dompole, "run", "solver.run"),
    (solver, "dpse_step", "solver.step"),
    (solver, "ddpse_step", "solver.step"),
    (solver, "_fallback_step", "solver.step"),
    (solver, "refresh_columns", "solver.refresh_columns"),
    (solver, "check_convergence", "solver.check_convergence"),
    (solver, "match_shifts", "solver.match_shifts"),
    (solver, "normalized_vectors", "descriptor.normalized_vectors"),
    (solver, "dense_eig", "sparsela.dense_eig"),
    (dompole, "eval_transfer", "descriptor.eval_transfer"),
    (dompole, "load_system", "descriptor.load_system"),
    (descriptor, "shifted", "sparsela.shifted"),
    (descriptor, "factorize", "sparsela.factorize"),
    (sparsela.spla, "splu", "sparsela.splu"),
    (sparsela.Factorization, "solve", "sparsela.solve"),
    (sparsela.SparseMatrix, "matvec", "sparsela.matvec"),
    (sparsela.SparseMatrix, "matvec_t", "sparsela.matvec"),
    (mmio, "read_matrix_market", "mmio.read"),
    (mmio, "read_vector", "mmio.read"),
]


class Tracer:
    """In-memory span recorder with a clock that excludes its own probes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.paused = 0.0
        self.fill = []
        self.pivot_growth = []
        self.wtv = []
        self.raised = defaultdict(int)  # (span name, exception type) -> count
        self._saved = []

    def clock(self):
        return time.perf_counter() - self.paused

    def probe(self, fn, *args):
        """Run a measurement of the tracer's own on the paused clock."""
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            self.paused += time.perf_counter() - t0

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if name == "solver.step":
                tracer.probe(tracer._record_wtv, args[1])
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [name, tracer.clock(), None, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()
            if name == "sparsela.splu":
                tracer.probe(tracer._record_fill, out)
            elif name == "sparsela.factorize":
                tracer.pivot_growth.append(out.pivot_growth)
            return out

        traced.__wrapped__ = fn
        return traced

    def _record_fill(self, lu):
        self.fill.append(lu.nnz / lu.shape[0])

    def _record_wtv(self, state):
        n = state.ndyn
        self.wtv.append(state.Y[:n].T @ state.X[:n])

    def cond_wtv_max(self):
        """Largest cond(W^T V) seen at the start of a step (finite blocks only)."""
        finite = (w for w in self.wtv if np.isfinite(w).all())
        return max((float(np.linalg.cond(w)) for w in finite), default=0.0)

    def install(self):
        for owner, attr, name in BOUNDARIES:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def mark(self):
        """Span count now; pass it to ``summary`` to select the later spans."""
        return len(self.spans)

    def self_times(self, start=0):
        """Self time of every span from index ``start`` on, by index."""
        out = {}
        for i in range(start, len(self.spans)):
            name, t0, t1, _ = self.spans[i]
            out[i] = t1 - t0
        for i in range(start, len(self.spans)):
            parent = self.spans[i][3]
            if parent >= start:
                out[parent] -= self.spans[i][2] - self.spans[i][1]
        return out

    def summary(self, start=0):
        """Per-name call count, inclusive seconds and self seconds of the
        spans from index ``start`` on."""
        selfs = self.self_times(start)
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for i in range(start, len(self.spans)):
            name, t0, t1, _ = self.spans[i]
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += selfs[i]
        return {n: {"calls": calls[n], "s": incl[n], "self_s": own[n]} for n in calls}

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
