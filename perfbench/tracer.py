"""In-memory span tracer that wraps shiftlab's public functions from outside.

Installing a Tracer replaces every public function and public method of the
traced shiftlab modules, and numpy's ``svd``, ``qr`` and ``eigh`` entry
points, with wrappers that record one span per call: id, parent id, name,
request id (the workload iteration), start, end and, for the linalg layer,
the input matrix shape. The numpy wrappers are also installed inside
``numpy.linalg._linalg``, so the SVDs that ``np.linalg.norm(x, 2)`` runs
internally are caught. Nothing inside the program is edited; ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import time
from collections import defaultdict

LAYERS = ("weights", "operators", "subspaces", "stability", "beurling", "report", "cli")
LINALG = ("svd", "qr", "eigh")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, record_shape: bool = False):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                shape = getattr(args[0], "shape", None) if record_shape and args else None
                spans.append((span_id, parent, name, self.request, start, end, shape))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public surface of every layer, then re-point all aliases."""
        import numpy as np
        import numpy.linalg._linalg as np_linalg

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"shiftlab.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        span = f"{layer}.{attr}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._patch(obj, meth, type(raw)(self._wrap(span, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._patch(obj, meth, self._wrap(span, raw))
        # `from .x import f` copies the function into other modules; patch every copy.
        modules = [m for n, m in list(sys.modules.items()) if n == "shiftlab" or n.startswith("shiftlab.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for fname in LINALG:
            wrapper = self._wrap(f"linalg.{fname}", getattr(np_linalg, fname), record_shape=True)
            self._patch(np_linalg, fname, wrapper)
            self._patch(np.linalg, fname, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class SpanStats:
    """Per-name call counts, self times and duration percentiles of a span list."""

    def __init__(self, spans):
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _name, _req, start, end, _shape in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.shapes: dict[str, set] = defaultdict(set)
        for span_id, _parent, name, _req, start, end, shape in spans:
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child_time[span_id]
            self.durations[name].append(end - start)
            if shape is not None:
                self.shapes[name].add(tuple(shape))

    def total(self, names, field: str) -> float:
        table = self.calls if field == "calls" else self.self_s
        return sum(table.get(n, 0) for n in names)

    def layer(self, layer: str, field: str) -> float:
        table = self.calls if field == "calls" else self.self_s
        return sum(v for n, v in table.items() if n.startswith(layer + "."))

    def percentile_us(self, name: str, q: float) -> float:
        """Nearest-rank percentile of the span durations of `name`, in microseconds."""
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        return values[rank - 1] * 1e6
