"""Span tracing from outside the program: wrap public functions, time them.

The benchmark measures layers without editing ``src/``: a :class:`Site`
names a public function by its import site (the module attribute or
class attribute the caller actually looks up), :func:`patched` swaps in
a timing wrapper for the duration of a ``with`` block and restores the
original on exit.

Each call through a wrapper records one :class:`Span` — name, start,
end, parent, op id — in memory; :meth:`Tracer.dump` writes them out when
the run ends. The current span travels in a :class:`contextvars.ContextVar`,
so coroutine wrappers (``process_request``) nest correctly across
``await``.

A function reachable from several import sites is wrapped once per span
name and every site gets the same wrapper. A wrapper that finds its own
original function already running as the current span passes straight
through, so a call that reaches the same function through two sites is
never counted twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)


class Site:
    """A public function to time, named by where its callers look it up.

    Args:
        module: dotted module name, e.g. ``"repro.serve.service"``.
        attribute: ``"name"`` for a module attribute or ``"Class.name"``
            for a method, patched on the class that defines it.
        span: span name recorded for each call.
        items: optional ``(args, kwargs) -> int`` giving the amount of
            work a call carries (worlds sampled, worlds held), summed per
            span name so per-item costs can be derived.
    """

    __slots__ = ("module", "attribute", "span", "items")

    def __init__(
        self,
        module: str,
        attribute: str,
        span: str,
        items: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        self.module = module
        self.attribute = attribute
        self.span = span
        self.items = items

    def owner(self):
        """The module or class object whose attribute is patched."""
        owner = importlib.import_module(self.module)
        *path, _ = self.attribute.split(".")
        for name in path:
            owner = getattr(owner, name)
        return owner

    @property
    def name(self) -> str:
        return self.attribute.split(".")[-1]

    def __repr__(self) -> str:
        return f"Site({self.module}.{self.attribute} -> {self.span})"


class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    __slots__ = ("index", "name", "start", "end", "parent", "op", "items", "fn")

    def __init__(self, index, name, start, parent, op, items=0, fn=None) -> None:
        self.index = index  # position in Tracer.spans
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, None for a root
        self.op = op
        self.items = items
        self.fn = fn

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._wrappers: Dict[Tuple[int, str], Callable] = {}

    # -- recording --------------------------------------------------------------

    def _open(self, name: str, op=None, items: int = 0, fn=None):
        current = _CURRENT.get()
        parent = None if current is None else current.index
        if op is None and current is not None:
            op = current.op
        span = Span(len(self.spans), name, time.perf_counter(), parent, op, items, fn)
        self.spans.append(span)
        return span, _CURRENT.set(span)

    @staticmethod
    def _close(opened) -> None:
        span, token = opened
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, op=None) -> Iterator[Span]:
        """Record a span around a block (``op`` tags a root span)."""
        opened = self._open(name, op=op)
        try:
            yield opened[0]
        finally:
            self._close(opened)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, original: Callable, name: str, items=None) -> Callable:
        """The timing wrapper for ``original`` under span ``name``.

        Cached per (function, span name), so every import site of one
        function shares one wrapper.
        """
        key = (id(original), name)
        cached = self._wrappers.get(key)
        if cached is not None:
            return cached
        tracer = self

        def enter(args, kwargs):
            current = _CURRENT.get()
            if current is not None and current.fn is original:
                return None  # same function reached through another site
            count = items(args, kwargs) if items is not None else 0
            return tracer._open(name, items=count, fn=original)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                opened = enter(args, kwargs)
                try:
                    return await original(*args, **kwargs)
                finally:
                    if opened is not None:
                        tracer._close(opened)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = enter(args, kwargs)
                try:
                    return original(*args, **kwargs)
                finally:
                    if opened is not None:
                        tracer._close(opened)

        wrapper.__e2e_original__ = original
        self._wrappers[key] = wrapper
        return wrapper

    # -- output -----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as JSON (seconds relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "op": span.op,
                "items": span.items,
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
            handle.write("\n")


@contextlib.contextmanager
def patched(tracer: Tracer, sites: Sequence[Site]) -> Iterator[None]:
    """Install ``tracer``'s wrappers at every site; restore them on exit."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for site in sites:
            owner = site.owner()
            current = vars(owner).get(site.name)
            if not callable(current):
                raise AttributeError(f"{site!r}: not a function on its owner")
            original = getattr(current, "__e2e_original__", current)
            wrapper = tracer.wrap(original, site.span, site.items)
            if current is wrapper:
                continue  # listed twice: already installed
            restore.append((owner, site.name, current))
            setattr(owner, site.name, wrapper)
        yield
    finally:
        for owner, name, previous in reversed(restore):
            setattr(owner, name, previous)


def union_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    covered_to = lo
    for start, end in sorted(intervals):
        start, end = max(start, covered_to), min(end, hi)
        if end > start:
            total += end - start
            covered_to = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - union_length(children.get(span.index, ()), span.start, span.end)
        for span in spans
    ]
