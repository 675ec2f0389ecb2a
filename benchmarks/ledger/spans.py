"""In-memory spans recorded from outside the program under test.

A span is one call across a layer boundary: ``name`` (``layer.function``),
``start``, ``end``, ``parent`` (index of the span that was open on the same
thread when this one started, ``-1`` at the top) and ``op`` (the id shared by
every span of one benchmark operation). Spans stay in a list until the run
ends and are written out as JSON once; nothing inside ``src/`` knows they
exist — layers are reached by wrapping their public callables
(:meth:`SpanRecorder.instrument`) or by handing the program a timing subclass
at a public injection point (``Engine(network=..., tracer=...)``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanRecorder:
    """Collects spans; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        op = getattr(self._local, "op", None)
        with self._lock:  # two client threads must not be handed one index
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, parent, op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def operation(self, op_id, name: str = "op"):
        """One benchmark operation: every span opened on this thread until
        the block ends carries ``op_id``."""
        self._local.op = op_id
        try:
            with self.span(name) as index:
                yield index
        finally:
            self._local.op = None

    # -- reaching layers from outside --------------------------------------

    def wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def instrument(self, owner, attr: str, name: str) -> None:
        """Span every call of ``owner.attr`` (a module function or a method
        on a class). Callers that did ``from module import func`` hold their
        own reference, so a function is replaced in every loaded ``repro``
        module that refers to the same object."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        traced = self.wrap(original, name)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod_name, module in list(sys.modules.items()):
                if module is None or module is owner or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        targets.append((module, key))
        for target, key in targets:
            self._patched.append((target, key, original))
            setattr(target, key, traced)

    def restore(self) -> None:
        """Undo every :meth:`instrument`."""
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    # -- arithmetic --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of that interval its child
        spans cover (children that overlap each other count once)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[PARENT] >= 0 and span[END] is not None:
                parent = self.spans[span[PARENT]]
                lo = max(span[START], parent[START])
                hi = min(span[END], parent[END] if parent[END] is not None else span[END])
                if hi > lo:
                    children.setdefault(span[PARENT], []).append((lo, hi))
        out = []
        for index, span in enumerate(self.spans):
            if span[END] is None:
                out.append(0.0)
                continue
            out.append(span[END] - span[START] - covered(children.get(index, ())))
        return out

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name and s[END] is not None]

    def dump(self, path, header: dict) -> None:
        payload = {
            "header": header,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
