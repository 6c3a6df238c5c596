"""Spans around the public functions of defbranch, installed from outside.

``Tracer.install`` replaces functions and methods of the six modules with
wrappers that record one span per call: name, start, end (integer
nanoseconds) and the index of the enclosing span.  Spans live in flat
arrays in memory and are written out once, at the end of a run.  Self
time is a span's duration minus the part of it that its child spans
cover; children can overlap when ``monte_carlo`` runs blocks on two
threads, so coverage is the union of the child intervals, not their sum.

Nothing under ``src/`` knows about this: uninstalling restores the
original objects, and untraced passes run the program unmodified.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute).  Methods are given as "Class.method";
# every subclass that defines its own version is listed.  A module-level
# function is replaced in every defbranch module that imported it.
TARGETS = [
    ("laws.pgf", "laws", "FiniteSupport.pgf"),
    ("laws.pgf", "laws", "LinearFractional.pgf"),
    ("laws.divided_difference", "laws", "FiniteSupport.divided_difference"),
    ("laws.divided_difference", "laws", "LinearFractional.divided_difference"),
    ("laws.construct", "laws", "FiniteSupport.__init__"),
    ("laws.construct", "laws", "LinearFractional.__init__"),
    ("laws.sample", "laws", "FiniteSupport.sample"),
    ("laws.sample", "laws", "LinearFractional.sample"),
    ("laws.regularity", "laws", "OffspringLaw.regularity"),
    ("environments.law", "environments", "Constant.law"),
    ("environments.law", "environments", "Prefix.law"),
    ("environments.law", "environments", "NamedFamily.law"),
    ("environments.law", "environments", "_Shifted.law"),
    ("environments.law", "environments", "_Normalized.law"),
    ("environments.environment_from_dict", "environments", "environment_from_dict"),
    ("environments.composed_points", "environments", "composed_points"),
    ("environments.compose_eval", "environments", "compose_eval"),
    ("environments.mu_profile", "environments", "mu_profile"),
    ("environments.compose_coeffs", "environments", "compose_coeffs"),
    ("analysis.absorption_profile", "analysis", "absorption_profile"),
    ("analysis.absorption_scan", "analysis", "absorption_scan"),
    ("analysis.moments", "analysis", "moments"),
    ("analysis.survival_bounds", "analysis", "survival_bounds"),
    ("analysis.criteria_verdicts", "analysis", "criteria_verdicts"),
    ("analysis.growth_rate", "analysis", "growth_rate"),
    ("analysis.envelope_ratios", "analysis", "envelope_ratios"),
    ("analysis.conditioned_mean_bound", "analysis", "conditioned_mean_bound"),
    ("simulate.monte_carlo", "simulate", "monte_carlo"),
    ("simulate.mode_agreement", "simulate", "mode_agreement"),
    ("trees.sample_dbtve", "trees", "sample_dbtve"),
    ("trees.conditioned.init", "trees", "ConditionedSampler.__init__"),
    ("trees.conditioned.sample", "trees", "ConditionedSampler.sample"),
    ("trees.rejection", "trees", "rejection_conditioned"),
    ("trees.enumerate_conditioned", "trees", "enumerate_conditioned"),
    ("trees.validate_prop4", "trees", "validate_prop4"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.main", "cli", "main"),
]

# Bindings traced under the importing module's name as well, because the
# count of calls made from there is the figure of interest: hoisting the
# survival computation out of rejection_conditioned cuts this one.
LOCAL_BINDINGS = [("trees.absorption_profile", "trees", "absorption_profile")]

# Functions whose calls are only counted, not spanned: a span per block
# would move the block loop's time out of monte_carlo's self time.
COUNTED = [("simulate.blocks", "simulate", "_run_block")]

# Calls whose inputs are kept (after the call) for the computed work
# counts: generations swept, multiply-adds, replicate-generations.
RECORD_ARGS = {
    "environments.composed_points",
    "environments.compose_eval",
    "environments.mu_profile",
    "environments.compose_coeffs",
    "analysis.absorption_profile",
    "analysis.absorption_scan",
    "analysis.moments",
    "analysis.survival_bounds",
    "analysis.criteria_verdicts",
    "analysis.conditioned_mean_bound",
    "simulate.monte_carlo",
}
# Calls whose results are kept, for counts only the result holds.
RECORD_RESULT = {"simulate.monte_carlo", "trees.enumerate_conditioned"}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.calls: list[tuple[str, inspect.BoundArguments | None, object]] = []
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._local.stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for a in (self.name_id, self.parent, self.start, self.end):
            del a[:]
        self.calls.clear()
        for name in self.counts:
            self.counts[name] = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread: its spans hang under the span the main
            # thread is in, which started the pool
            stack = self._local.stack = [self._main[-1]]
        return stack

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        sig = inspect.signature(fn) if name in RECORD_ARGS else None
        keep_result = name in RECORD_RESULT
        lock, start, end = self._lock, self.start, self.end
        name_id, parent, calls = self.name_id, self.parent, self.calls

        def traced(*args, **kwargs):
            stack = self._stack()
            with lock:
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0)
                start.append(perf_counter_ns())
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if sig is not None or keep_result:
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                calls.append((name, bound, out if keep_result else None))
            return out

        return functools.wraps(fn)(traced)

    def counter(self, name: str, fn):
        lock, counts = self._lock, self.counts

        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def install(self) -> None:
        mods = {
            m: importlib.import_module(f"defbranch.{m}")
            for m in ("laws", "environments", "analysis", "simulate", "trees", "cli")
        }
        mods["__init__"] = importlib.import_module("defbranch")
        for name, mod, attr in TARGETS:
            owner = mods[mod]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn)
            for m in mods.values():
                if getattr(m, attr, None) is fn:
                    self._patch(m, attr, wrapper)
        for name, mod, attr in LOCAL_BINDINGS:
            owner = mods[mod]
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for name, mod, attr in COUNTED:
            owner = mods[mod]
            self._patch(owner, attr, self.counter(name, getattr(owner, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per span: duration minus the union of its children's intervals (ns)."""
    dur = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return dur
    p = parent[kids]
    order = np.lexsort((start[kids], p))
    kids, p = kids[order], p[order]
    # shift each parent's group of children into its own disjoint time
    # window, so one running maximum of end times serves every group
    t0 = int(start.min())
    width = int(end.max()) - t0 + 1
    group = np.cumsum(np.r_[0, (p[1:] != p[:-1]).astype(np.int64)])
    s = start[kids] - t0 + group * width
    e = end[kids] - t0 + group * width
    reach = np.maximum.accumulate(e)
    prev = np.r_[np.int64(-1), reach[:-1]]
    covered = np.maximum(0, e - np.maximum(s, prev))
    cover = np.bincount(p, weights=covered, minlength=dur.size)
    return dur - cover
