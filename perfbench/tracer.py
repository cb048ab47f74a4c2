"""Outside-in span tracer for the benchmark's traced pass.

The program under test carries no tracing of its own.  This module
wraps the public entry points of each layer from the outside and keeps
every span on one in-memory stack:

* a span's *self time* is its duration minus the time of the wrapped
  spans nested inside it, so the self times of all layers add up to
  the time spent inside any span;
* a layer that re-enters itself (``send_trains_dense`` calling
  ``send_trains``) still opens a span, so its time is attributed
  correctly, but it counts as one call, and its rows count once;
* a generator function (``SweepPlan.windows``, ``run_plan``,
  ``map_batched``) is timed over its whole iteration: every resumption
  of its body is a span, and the consumer's time between resumptions
  is not;
* patching is binding-aware: a wrapped function is replaced in every
  module of the package that holds a reference to it, not only in the
  module that defines it, because ``from x import f`` copies the
  binding.

Install with :meth:`Tracer.patch_function`, :meth:`Tracer.patch_method`
or :meth:`Tracer.patch_attribute`; :meth:`Tracer.uninstall` restores
every patched binding in reverse order.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Counts the rows of one call from its bound arguments (``None`` when
#: the layer has no row notion).
RowCounter = Optional[Callable[[Dict[str, Any]], int]]


class Tracer:
    """Spans on one stack; per-layer self time, outer calls and rows."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> seconds spent in the layer's own code.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> seconds inside the layer's outermost spans
        #: (children included).
        self.outer_s: Dict[str, float] = defaultdict(float)
        #: Seconds inside top-level spans: what the layers cover.
        self.covered_s = 0.0
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()
        self._stack: List[List[Any]] = []
        self._depth: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any, Callable]] = []
        self._wrappers: Dict[int, Tuple[Any, Callable]] = {}

    # -- spans ---------------------------------------------------------

    def count(self, layer: str, rows: Optional[int] = None) -> None:
        """Count one call of ``layer`` unless the layer is already open."""
        if self._depth[layer] == 0:
            self.calls[layer] += 1
            if rows is not None:
                self.rows[layer] += int(rows)

    def push(self, layer: str) -> None:
        """Open a span of ``layer``."""
        self._depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def pop(self) -> None:
        """Close the innermost span and charge its time."""
        layer, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.outer_s[layer] += duration

    def summary(self) -> Dict[str, Any]:
        """Plain-dict snapshot (JSON-ready)."""
        return {"self_s": dict(self.self_s), "outer_s": dict(self.outer_s),
                "calls": dict(self.calls), "rows": dict(self.rows),
                "covered_s": self.covered_s}

    # -- wrappers ------------------------------------------------------

    def wrap(self, layer: str, fn: Callable,
             rows: RowCounter = None) -> Callable:
        """A traced stand-in for ``fn`` (one per original function)."""
        known = self._wrappers.get(id(fn))
        if known is not None and known[0] is fn:
            return known[1]
        tracer = self
        signature = inspect.signature(fn) if rows is not None else None

        def row_count(args, kwargs) -> Optional[int]:
            if signature is None:
                return None
            return rows(signature.bind(*args, **kwargs).arguments)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                tracer.count(layer, row_count(args, kwargs))
                return _TimedIterator(tracer, layer, fn(*args, **kwargs))
            wrapper = generator_wrapper
        else:
            @functools.wraps(fn)
            def call_wrapper(*args, **kwargs):
                tracer.count(layer, row_count(args, kwargs))
                tracer.push(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.pop()
            wrapper = call_wrapper
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    # -- patching ------------------------------------------------------

    def patch_function(self, layer: str, module_name: str, name: str,
                       rows: RowCounter = None,
                       prefix: Optional[str] = None) -> Callable:
        """Wrap a module-level function in every module that binds it.

        ``prefix`` (default: the top-level package of ``module_name``)
        limits the scan to that package's loaded modules.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, rows)
        self.rebind(original, wrapper,
                    prefix or module_name.split(".")[0])
        return wrapper

    def rebind(self, original: Callable, wrapper: Callable,
               prefix: str) -> int:
        """Point every ``prefix.*`` module binding of ``original`` at
        ``wrapper``; returns how many bindings changed."""
        changed = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix
                                      or module_name.startswith(
                                          prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper, setattr)
                    changed += 1
        return changed

    def patch_method(self, layer: str, module_name: str, qualname: str,
                     rows: RowCounter = None) -> int:
        """Wrap ``Class.method`` in the class and every subclass that
        defines its own version; returns how many classes changed."""
        class_name, name = qualname.split(".")
        base = getattr(importlib.import_module(module_name), class_name)
        changed = 0
        for cls in _with_subclasses(base):
            raw = vars(cls).get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(layer, raw.__func__, rows))
            else:
                new = self.wrap(layer, raw, rows)
            self._set(cls, name, new, setattr)
            changed += 1
        return changed

    def patch_attribute(self, layer: str, owner: Any, name: str,
                        rows: RowCounter = None) -> Callable:
        """Wrap a callable held in an object attribute (frozen
        dataclasses included)."""
        wrapper = self.wrap(layer, getattr(owner, name), rows)
        self._set(owner, name, wrapper, object.__setattr__)
        return wrapper

    def _set(self, owner: Any, name: str, value: Any,
             setter: Callable) -> None:
        original = vars(owner)[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original, setter))
        setter(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched binding (reverse order)."""
        while self._patches:
            owner, name, original, setter = self._patches.pop()
            setter(owner, name, original)
        self._wrappers.clear()


class _TimedIterator:
    """A generator whose every resumption is a span of one layer."""

    def __init__(self, tracer: Tracer, layer: str, generator) -> None:
        self._tracer = tracer
        self._layer = layer
        self._generator = generator

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        self._tracer.push(self._layer)
        try:
            return next(self._generator)
        finally:
            self._tracer.pop()

    def close(self) -> None:
        """Close the generator (its clean-up is timed too)."""
        self._tracer.push(self._layer)
        try:
            self._generator.close()
        finally:
            self._tracer.pop()


def _with_subclasses(cls: type) -> Iterator[type]:
    """``cls`` and all its subclasses, each once."""
    seen = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        pending.extend(current.__subclasses__())
