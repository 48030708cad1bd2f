"""Span tracer that wraps the package's layers from outside.

``Tracer.install`` replaces every binding of each traced callable inside
the ``paramodular`` package (module globals, re-exports in other modules,
class attributes such as ``__rmul__ = __mul__``) with one wrapper that
records a span: name, start, end, parent span and the case span it belongs
to.  Aggregates (calls, total time, self time) are kept for every span.
Span records are kept only for spans of at least ``min_span_s`` and up to
a cap, so that a symbolic run, which makes hundreds of thousands of
microsecond-long ring products, does not hold them all in memory.

Self time is a span's duration minus the durations of its direct child
spans.  Calls are strictly nested on one thread, so children never overlap
and that difference is exactly the part of the interval no child covers.
Spans recorded in worker processes would be lost, so traced runs are
serial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "paramodular"
LAYERS = (
    "cli",
    "rankin",
    "whittaker",
    "characters",
    "coweights",
    "rings",
    "oldforms",
    "sampling",
)

# Methods traced besides the public module-level functions.  Operator
# aliases (``__rmul__ = __mul__``) are found through the binding scan.
METHODS = {
    "rings": {
        "VLaurent": ("__mul__",),
        "SymLaurent": ("__mul__", "__add__", "evaluate"),
        "TruncSeries": ("__mul__", "invert"),
    },
    "rankin": {
        "EvaluationMode": ("schur",),
        "SymbolicMode": ("schur",),
    },
}

# The per-case function of the verify harness; its span is the root span of
# every suite case.
CASE_SPAN = "cli.case"

# Extra counts taken from a traced call's result: name -> (counter, fn).
RESULT_COUNTS = {
    "coweights.enumerate_cone": ("items", len),
    "whittaker.spherical_so_data": ("weights", lambda d: len(d.support)),
    "rankin.xi": ("stabilized", lambda res: int(res.stabilized)),
}


def span_name(layer: str, fn) -> str:
    """``layer.Qual.name`` with dunder operators shortened (``__mul__`` ->
    ``mul``)."""
    parts = fn.__qualname__.split(".")
    parts[-1] = parts[-1].strip("_") or parts[-1]
    return ".".join((layer, *parts))


def public_functions(module) -> list:
    """Functions (cached ones included) defined in ``module`` whose names
    do not start with an underscore."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out.append(obj)
    return out


def traced_targets() -> dict:
    """Map each traced callable to its span name."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for fn in public_functions(module):
            targets[fn] = span_name(layer, fn)
        for cls_name, attrs in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for attr in attrs:
                fn = vars(cls)[attr]
                targets[fn] = span_name(layer, fn)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    targets[cli._run_case] = CASE_SPAN
    return targets


def package_namespaces() -> list:
    """Every object of the package that can hold a binding: its modules and
    the classes they define."""
    owners = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        owners.append(module)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == name:
                owners.append(obj)
    return owners


class Tracer:
    """Records nested spans and per-name aggregates.

    ``clock`` is injectable so tests can drive exact times.  Span records
    shorter than ``min_span_s`` or beyond ``max_spans`` are counted in
    ``dropped`` instead of stored; aggregates always cover every span.
    """

    def __init__(
        self, clock=time.perf_counter, min_span_s: float = 1e-4, max_spans: int = 50000
    ):
        self.clock = clock
        self.min_span_s = min_span_s
        self.max_spans = max_spans
        self.spans: list[tuple] = []  # (id, name, start, end, parent, case)
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [id, name, start, child_s, parent, case]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            top = self._stack[-1]
            frame = [sid, name, 0.0, 0.0, top[0], top[5]]
        else:
            frame = [sid, name, 0.0, 0.0, None, sid]
        self._stack.append(frame)
        frame[2] = self.clock()
        return frame

    def end(self, frame: list) -> None:
        stop = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span ended out of order")
        sid, name, start, child_s, parent, case = frame
        duration = stop - start
        if self._stack:
            self._stack[-1][3] += duration
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if duration >= self.min_span_s and len(self.spans) < self.max_spans:
            self.spans.append((sid, name, start, stop, parent, case))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        """A wrapper that records a span around each call of ``fn``."""
        begin, end = self.begin, self.end
        counter = RESULT_COUNTS.get(name)

        if counter is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(frame)

        else:
            key, measure = f"{name}.{counter[0]}", counter[1]
            counts = self.counts
            counts.setdefault(key, 0)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(frame)
                counts[key] += measure(result)
                return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Rebind every binding of every traced callable in the package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = traced_targets()
        wrappers = {id(fn): self.wrap(name, fn) for fn, name in targets.items()}
        originals = {id(fn): fn for fn in targets}
        for owner in package_namespaces():
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._restore.append((owner, attr, value))
        for owner, attr, value in self._restore:
            setattr(owner, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

