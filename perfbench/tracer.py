"""Layer tracing from outside the package: wrap public functions, aggregate spans.

The tracer replaces each traced function with a wrapper that times the call
and charges its duration to the caller's span, so every layer gets a busy
time, a call count and a self time (busy minus the time of its direct child
spans).  Spans are folded into per-name totals as they close instead of
being stored, which keeps memory flat over a pass with a million calls.

Module-level functions are patched under every name a gencast module binds
them to (``validate_partition`` is reached through ``gencast.sfm`` by
``total_rank`` and through ``gencast.sim`` by ``coded_phase``); methods are
patched on their class.  ``uninstall`` restores every binding and
``leftover_wrappers`` proves that none remains.
"""

from __future__ import annotations

import functools
import sys
import time


class Span:
    __slots__ = ("calls", "busy", "child", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


def _mul_vec_bytes(span, args, kwargs, result):
    vec = kwargs["vec"] if "vec" in kwargs else args[2]
    span.add("bytes", 2 * vec.nbytes)  # each element read once and written once


def _count_innovative(span, args, kwargs, result):
    span.add("innovative", int(bool(result)))


def _count_slots(span, args, kwargs, result):
    span.add("slots", result.completion_time)


def _count_nodes(span, args, kwargs, result):
    span.add("nodes", result.nodes_explored)


def targets(gc):
    """(span name, owner, attribute, post-call hook) for every traced call."""
    sim, rlnc, galois = gc.sim, gc.rlnc, gc.galois
    partition, sfm, experiments = gc.partition, gc.sfm, gc.experiments
    return [
        ("experiments.sweep", experiments, "run_simulation_sweep", None),
        ("sim.run_experiment", sim, "run_experiment", None),
        ("sim.systematic_phase", sim, "systematic_phase", None),
        ("sim.coded_phase", sim, "coded_phase", _count_slots),
        ("rlnc.absorb", rlnc.DecoderState, "absorb", _count_innovative),
        ("rlnc.encode", rlnc, "encode", None),
        ("galois.mul_vec", galois.Field, "mul_vec", _mul_vec_bytes),
        ("partition.heuristic", partition, "heuristic_partition", None),
        ("partition.optimal", partition, "optimal_partition", _count_nodes),
        ("sfm.validate", sfm, "validate_partition", None),
        ("sfm.total_rank", sfm, "total_rank", None),
        ("sfm.apdd_bound", sfm, "apdd_upper_bound", None),
    ]


def _package_modules(package):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


class Tracer:
    def __init__(self, gc):
        self.gc = gc
        self.spans = {}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, post):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.busy += dt
                span.child += frame[0]
            if post is not None:
                post(span, args, kwargs, result)
            return result

        traced.perfbench_wrapper = True
        return traced

    def install(self):
        modules = _package_modules(self.gc.__name__)
        for name, owner, attr, post in targets(self.gc):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, post)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def leftover_wrappers(self):
        """Every wrapper still reachable from a gencast module or class."""
        found = []
        for module in _package_modules(self.gc.__name__):
            for attr, value in list(vars(module).items()):
                holders = [(module.__name__, attr, value)]
                if isinstance(value, type):
                    holders += [(f"{module.__name__}.{attr}", a, v)
                                for a, v in vars(value).items()]
                found += [f"{h}.{a}" for h, a, v in holders
                          if getattr(v, "perfbench_wrapper", False)]
        return found

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
