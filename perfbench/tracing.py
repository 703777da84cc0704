"""In-memory call spans around the pocketcube layers, for the traced run only.

`Tracer.install` replaces every public function of the layer modules at the
module attribute its callers look up (``pocketcube.executor.attempt_twist``,
``pocketcube.evaluate.execute_episode``, a name one module imported from
another, ...), plus the public methods of the two table classes.  Each call
then appends one span: name, start, end and the index of the enclosing span.
Spans stay in flat arrays until `save` writes them out at the end of the run.

The functions a planned refactor deletes are looked up by name: one the
program no longer defines is simply not wrapped, it is reported missing,
and the metrics derived from it are reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cube", "tables", "solver", "actions", "executor", "evaluate", "cli")
TABLE_CLASSES = ("DistanceTable", "PatternDB")
# functions ROADMAP item 2 deletes; private ones are wrapped too
BY_NAME = {"tables": ("successor_matrix", "unrank_all"), "solver": ("_flat_successors",)}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Span recorder; `observers` map a span name to fn(args, result) -> (tag, counts)."""

    def __init__(self, observers=None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.notes: dict[int, tuple[str, dict[str, int]]] = {}
        self.installed: set[str] = set()
        self._observers = observers or {}
        self._stack = [-1]
        self._on = [True]
        self._wrappers: dict[int, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Calls inside the block (the output checks) record no spans."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = _span_name(fn)
        observe = self._observers.get(name)
        on, opened, close, notes = self._on, self._open, self._close, self.notes

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            i = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if observe is not None:
                notes[i] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        self._wrappers[id(fn)] = traced
        self.installed.add(name)
        return traced

    def missing(self) -> list[str]:
        """The functions looked up by name that the program does not define."""
        return sorted(f"{layer}.{name}" for layer, names in BY_NAME.items()
                      for name in names if f"{layer}.{name}" not in self.installed)

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"pocketcube.{layer}")
            private = BY_NAME.get(layer, ())
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") and attr not in private:
                    continue
                if inspect.isclass(value) or not callable(value):
                    continue
                if not getattr(value, "__module__", "").startswith("pocketcube."):
                    continue
                setattr(module, attr, self._wrap(value))
        tables = importlib.import_module("pocketcube.tables")
        for cls_name in TABLE_CLASSES:
            cls = getattr(tables, cls_name, None)
            for attr, raw in list(vars(cls).items()) if cls else ():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, self._wrap(raw))

    @staticmethod
    def span_cost(calls: int = 50_000) -> float:
        """Seconds that recording one span adds to a call, timed on a no-op.

        Run-to-run noise on a shared host is larger than the tracing
        overhead, so the overhead is this cost times the spans recorded,
        taken within the traced run rather than against another run.
        """
        def noop():
            pass

        probe = Tracer()._wrap(noop)
        took = []
        for fn in (noop, probe, noop, probe):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            took.append(time.perf_counter() - t0)
        return max(0.0, (took[1] + took[3] - took[0] - took[2]) / (2 * calls))

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "dur": dur,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=a["name_id"],
                 start=a["start"], end=a["end"], parent=a["parent"])
