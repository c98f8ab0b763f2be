"""Per-layer tracing of `sparse_tcp`, installed from outside the package.

The package imports names by value (`from .tensors import contract_m1` in
merit, solve, oracle and cli), so patching `sparse_tcp.tensors` alone would
miss calls.  The tracer wraps each public function at every module binding:
one wrapper per function, bound under every name that refers to it.

Each call is a span with a name, start, end and parent (the span open below
it on the stack).  A span's layer is its function's home module, and its self
time is its duration minus that of its child spans.  Top-level spans, the
calls the benchmark makes, are kept whole and carry the instance label as
their id; inner spans fold into per-function aggregates as they close, so
memory stays bounded while kernel calls run to millions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

PACKAGE = "sparse_tcp"
MODULES = ("tensors", "merit", "regpath", "solve", "oracle", "cli")


class FnStats:
    __slots__ = ("layer", "calls", "self_s", "ok", "elems")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.ok = 0  # calls whose result the outcome hook judged useful
        self.elems = 0  # tensor entries n^m touched, summed over calls


# Result hooks for functions that can waste work: True marks a useful call.
OUTCOMES = {
    "oracle.reduced_newton": lambda result: result[1] == "ok",
    "solve.polish_on_support": lambda result: result[1] == "ok",
}
# Kernels whose first argument is the DenseTensor they stream.
KERNELS = ("tensors.contract_m1", "tensors.contract_m2")


def public_functions():
    """(key, module, attribute name, function) for every public package function binding."""
    mods = [importlib.import_module(PACKAGE)]
    mods += [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
    for mod in mods:
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if not fn.__module__.startswith(PACKAGE + "."):
                continue
            yield f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", mod, attr, fn


class Tracer:
    """Context manager: wraps the package's public functions while active."""

    def __init__(self):
        self.fns: dict[str, FnStats] = {}
        self.within: Counter = Counter()  # (ancestor key, key) -> calls made inside ancestor
        self.roots: list[dict] = []  # closed top-level spans
        self.instance: str | None = None  # id given to the spans of the current instance
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []  # open spans: [key, seconds spent in children]
        self._patches: list[tuple] = []

    def __enter__(self):
        wrappers = {}
        for key, mod, attr, fn in public_functions():
            if key not in wrappers:
                self.originals[key] = fn
                wrappers[key] = self._wrap(fn, key)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, wrappers[key])
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        return False

    def _wrap(self, fn, key):
        stats = self.fns[key] = FnStats(key.split(".", 1)[0])
        outcome = OUTCOMES.get(key)
        kernel = key in KERNELS
        stack, within, roots = self._stack, self.within, self.roots
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    for anc in {f[0] for f in stack}:
                        within[anc, key] += 1
                else:
                    roots.append(
                        {"id": self.instance, "name": key, "start": start, "end": end, "parent": None}
                    )
            if outcome is not None and outcome(result):
                stats.ok += 1
            if kernel:
                stats.elems += args[0].entries.size
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.fns.values() if s.layer == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for s in self.fns.values() if s.layer == layer)

    def calls(self, key: str) -> int:
        return self.fns[key].calls
