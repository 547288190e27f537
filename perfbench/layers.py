"""Layer spans and counters, recorded from outside the library.

Each layer is wrapped at the binding its caller uses: engine.py and
systems.py import their helpers by name from character.py and
monomial.py, so those names are patched in the importing module; methods
and kernel entry points are patched on their class or on the kernels
module, where every caller looks them up at call time.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
until the traced call returns; aggregate() then derives per-name call
counts, total time and self time (duration minus the time of direct
children).  Hot leaf operations are only counted, because a span around
each of them would cost more than the work it measures.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import qtchar.character
import qtchar.engine
import qtchar.kernels
import qtchar.systems
from qtchar.engine import Engine
from qtchar.monomial import EpsilonTable, YMonomial
from qtchar.tpoly import TPoly

ROOT = "bench.solve"


def _standard_pairs(args, out):
    return len(args[0]) * len(args[2])


def _star_pairs(args, out):
    return len(args[1]) * len(args[2])


def _file_bytes(args, out):
    return os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []
        self.missing: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, extra=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if extra is not None:
                key, measure = extra
                counts[f"{name}.{key}"] += measure(args, out)
            return out

        return wrapped

    def _count(self, name, fn):
        counts = self.counts

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    def _patch(self, owner, attr, make):
        orig = vars(owner).get(attr)
        if orig is None:
            # The library no longer has this binding: report the layer as
            # untraced rather than failing the sample.
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(self, owner, attr, name, extra=None):
        self._patch(owner, attr, lambda fn: self._span(name, fn, extra))

    def count(self, owner, attr, name):
        self._patch(owner, attr, lambda fn: self._count(name, fn))

    # -- lifecycle --------------------------------------------------------

    def install(self):
        eng, ch, sy, k = qtchar.engine, qtchar.character, qtchar.systems, qtchar.kernels
        self.span(Engine, "_cached", "engine.cache")
        self.span(eng, "_fixpoint", "engine.fixpoint")
        self.span(eng, "_expansion_tail", "character.expansion_tail",
                  ("terms_out", lambda args, out: len(out)))
        self.span(eng, "v_factorization", "monomial.v_factorization")
        self.span(ch, "v_factorization", "monomial.v_factorization")
        self.span(eng, "multiply_standard", "character.multiply_standard", ("pairs", _standard_pairs))
        self.span(Engine, "kl_decompose", "engine.kl_decompose")
        self.span(sy, "star_product", "character.star_product", ("pairs", _star_pairs))
        self.span(EpsilonTable, "of", "monomial.epsilon_of")
        self.span(sy, "verify_t_system_t", "systems.verify")
        self.span(eng, "read_qtc", "character.qtc_read", ("bytes", _file_bytes))
        self.span(eng, "write_qtc", "character.qtc_write", ("bytes", _file_bytes))
        self.count(YMonomial, "__mul__", "monomial.mul.calls")
        self.count(TPoly, "__mul__", "tpoly.mul.calls")
        self.count(TPoly, "__rmul__", "tpoly.mul.calls")
        for fn in ("mono_mul", "poly_acc_mul", "dot_shifted"):
            self.count(k, fn, f"kernels.{fn}.calls")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def run(self, call):
        """Install the wrappers, run call() under the root span, remove them."""
        self.install()
        try:
            return self._span(ROOT, call)()
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-layer metrics of the finished run, keyed by metric name."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own: Counter = Counter()
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            own[name] += t1 - t0 - child[idx]
        out = dict(self.counts)
        for name in calls:
            if name == ROOT:
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        root_ns = total[ROOT]
        out["trace.covered_share"] = (root_ns - own[ROOT]) / root_ns if root_ns else 0.0
        out["engine.cache.hits"] = calls["character.qtc_read"]
        out["engine.cache.misses"] = calls["engine.fixpoint"]
        out["engine.cache.writes"] = calls["character.qtc_write"]
        return out
