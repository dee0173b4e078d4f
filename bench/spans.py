"""In-memory span recorder and the wrappers that put it around a layer.

The benchmark times layers from outside: ``Tracer.wrap`` replaces one
attribute of an instance, class or module with a function that records a
span around the original, and ``Tracer.restore`` puts every original
back.  Nothing under ``src/`` knows about it.  A seam that no longer
exists is reported once and its layer reads ``null``, so a refactor
breaks one row of the table and not the benchmark.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# CLOCK_MONOTONIC is machine-wide on Linux, so spans recorded in a service
# process line up with the sender's ``repro.timing.monotonic`` stamps.
_now = time.monotonic_ns


class Tracer:
    """Spans as ``(name, start_ns, end_ns, parent index, request id)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.missing: list[str] = []
        #: Set by the harness before each operation (tick / round / frame seq).
        self.request = -1
        #: Wrappers pass straight through while this is false (warm-up,
        #: oracle checks and everything else outside a measured operation).
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, bool, Any]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, _now(), 0, parent, self.request))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        stop = _now()
        name, start, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, stop, parent, request)
        self._stack.pop()

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        capture: Callable[[Any], None] | None = None,
    ) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``owner`` may be an instance, a class (plain, class and static
        methods are handled) or a module.  ``capture`` receives the
        return value after the span has ended.
        """
        try:
            static = inspect.getattr_static(owner, attr)
            bound = getattr(owner, attr)
        except AttributeError:
            self.missing.append(name)
            print(
                f"WARNING: seam {owner!r}.{attr} is gone; layer {name} reads null",
                file=sys.stderr,
            )
            return
        tracer = self

        def traced(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                index = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                if capture is not None:
                    capture(result)
                return result

            return wrapper

        replacement: Any
        if isinstance(static, classmethod):
            replacement = classmethod(traced(static.__func__))
        elif isinstance(static, staticmethod):
            replacement = staticmethod(traced(static.__func__))
        elif inspect.isclass(owner):
            replacement = traced(static)
        else:
            replacement = traced(bound)
        own = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, own, static))

    def restore(self) -> None:
        while self._undo:
            owner, attr, own, static = self._undo.pop()
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)


class SpanSummary:
    """Per-name totals: calls, inclusive time, self time, and its root.

    Self time is a span's duration minus its direct children's; a root
    is a span with no parent (one top-level operation).
    """

    def __init__(self, spans: list) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: name -> {root name -> inclusive ns spent under that root}
        self.under: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.root_calls: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        child_ns = [0] * len(spans)
        roots = [-1] * len(spans)
        for i, (name, start, stop, parent, _) in enumerate(spans):
            if not stop:
                continue
            dur = stop - start
            if parent >= 0:
                child_ns[parent] += dur
                roots[i] = roots[parent]
            else:
                roots[i] = i
                self.root_calls[name] += 1
                self.root_ns += dur
        for i, (name, start, stop, parent, _) in enumerate(spans):
            if not stop:
                continue
            dur = stop - start
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            self.under[name][spans[roots[i]][0]] += dur

    def root_of(self, name: str) -> str | None:
        """The top-level operation under which ``name`` spent most time."""
        under = self.under.get(name)
        return max(under, key=under.__getitem__) if under else None

    def per_op_ms(self, name: str) -> float | None:
        """Inclusive busy time of ``name`` per parent operation, in ms."""
        root = self.root_of(name)
        if root is None:
            return None
        return self.under[name][root] / self.root_calls[root] / 1e6


def write_chrome_trace(path: str, spans: list) -> None:
    """Finished spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": start / 1e3,
            "dur": (stop - start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"request": request, "parent": parent},
        }
        for name, start, stop, parent, request in spans
        if stop
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
