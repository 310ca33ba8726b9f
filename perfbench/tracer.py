"""In-memory span recorder wrapped around the package's public functions.

Every module-level binding of a public ``sasoftmax`` function is replaced by
a wrapper while the tracer is installed. ``from .x import f`` copies the
binding into the importing module, so each module's copy is wrapped on its
own; all copies record under the defining module's name (``variants.
masked_softmax`` counts calls made through ``jacobians`` too).

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 for the benchmark's own op span) and ``op`` is the
benchmark op that caused it. Spans are only recorded between ``begin_op``
and ``end_op``; output checks run with recording off.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

OP_SPAN = "bench.op"


def _nbytes(obj, seen) -> int:
    """Bytes of the distinct ndarrays reachable through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v, seen) for v in obj)
    return 0


def cache_nbytes(cache: dict) -> int:
    """Memory a forward_loss cache keeps alive, excluding the caller's params."""
    return _nbytes({k: v for k, v in cache.items() if k != "params"}, set())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_classes: list[str] = []
        self.cache_bytes: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, modules) -> None:
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("sasoftmax.")):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        on_cache = name == "microlm.forward_loss"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_cache:
                self.cache_bytes.append(cache_nbytes(result[1]))
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_class: str) -> None:
        self._op = len(self.op_classes)
        self.op_classes.append(op_class)
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, self._op])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # -- aggregation --------------------------------------------------------

    def totals(self):
        """Per span name: (busy s, self s, calls) summed over all ops.

        Busy time counts only the outermost span of a name, so a function
        that re-enters itself is not counted twice. Per op class: calls.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        class_calls = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            class_calls[self.op_classes[op]][name] += 1
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += end - start
        return busy, own, calls, class_calls

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
