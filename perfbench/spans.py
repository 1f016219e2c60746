"""Spans and counts around the public functions of squaretour's modules.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name that refers to the function in any
``squaretour`` namespace, so calls between modules are seen too; the
library's source is not touched.  Spans (name, start, end, parent) are
recorded only between ``begin_op`` and ``end_op``, and each op's spans are
folded into per-function totals when it ends.  The matroid oracles'
``is_independent`` is counted, not spanned, because it is called thousands
of times per op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from collections.abc import Sized
from time import perf_counter

# oracles is reference code off the hot path and is not traced.
LAYERS = ("halfpoint", "graphcore", "deltamatroid", "treesel", "tjoin", "tour",
          "kotzig", "instances", "cli")

# A one-line key normaliser called for every edge; spanning it would make
# the trace cost more than the work it measures.
SKIP = frozenset({"halfpoint.edge_key"})

# Private functions spanned as well, when the module still has them: the two
# perfect-matching engines, to tell which one each T-join used.
PRIVATE = ("tjoin._match_dp", "tjoin._match_blossom")


def _min_cut_nodes(wg, *args, **kwargs) -> int:
    return wg.graph.node_count


def _t_size(wg, t_set, *args, **kwargs) -> int | None:
    return len(set(t_set)) if isinstance(t_set, Sized) else None


# Argument sizes recorded per call: name -> function of the call's arguments.
PROBES = {"graphcore.global_min_cut": _min_cut_nodes, "tjoin.min_t_join": _t_size}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op_size = 0
        self.spans: list = []
        self._stack = [-1]
        self._in_oracle = False
        self._patches: list[tuple[object, str, object]] = []
        self.ops = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.probed: dict[str, list[tuple[int, int]]] = defaultdict(list)

    # ------------------------------------------------------------ wrappers
    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if probe is not None:
                value = probe(*args, **kwargs)
                if value is not None:
                    self.probed[name].append((value, self.op_size))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return wrapper

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self._in_oracle:
                return fn(*args, **kwargs)
            self.counts[key] += 1
            self._in_oracle = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_oracle = False

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"squaretour.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in SKIP:
                    wrappers[fn] = self._span(name, fn)
            for cls in vars(mod).values():
                if (layer == "treesel" and inspect.isclass(cls)
                        and cls.__module__ == mod.__name__ and "is_independent" in vars(cls)):
                    self._patch(cls, "is_independent",
                                self._count("treesel.is_independent", cls.is_independent))
        for name in PRIVATE:
            layer, attr = name.split(".")
            fn = getattr(importlib.import_module(f"squaretour.{layer}"), attr, None)
            if inspect.isfunction(fn):
                wrappers[fn] = self._span(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "squaretour" and not modname.startswith("squaretour."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------------- ops
    def begin_op(self, size: int) -> None:
        self.spans.clear()
        self.op_size = size
        self.active = True

    def end_op(self) -> float:
        """Fold the op's spans into the totals; return the sum of their self
        times (a span's duration minus the part its children cover)."""
        self.active = False
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = 0.0
        for (name, t0, t1, _), covered in zip(spans, child):
            own = (t1 - t0) - covered
            self.calls[name] += 1
            self.self_s[name] += own
            total += own
        self.ops += 1
        return total
