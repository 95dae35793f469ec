"""Per-instance span tracing of the gateway's public methods.

The tracer never edits the program: it replaces bound methods on the
component *instances* a :class:`~repro.api.GatewayHandle` exposes with
timing wrappers, so one traced stack sits beside untouched ones.  Each
wrapped call is a span; spans nest through a stack, and a layer's self
time is its spans' durations minus the time their child spans cover.
Aggregates only are kept (per layer: self seconds, outermost calls,
items), so tracing cost does not grow with the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

_clock = time.perf_counter


@dataclass
class LayerTotals:
    self_s: float = 0.0
    calls: int = 0
    items: int = 0


class Tracer:
    """Collects self time per layer while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.layers: dict[str, LayerTotals] = {}
        # One frame per open span: [layer, child seconds].
        self._stack: list[list[Any]] = []

    def totals(self, layer: str) -> LayerTotals:
        return self.layers.setdefault(layer, LayerTotals())

    # ------------------------------------------------------------------ #
    # Span bookkeeping.
    # ------------------------------------------------------------------ #
    def _enter(self, layer: str) -> list[Any]:
        frame = [layer, 0.0]
        totals = self.totals(layer)
        if not self._stack or self._stack[-1][0] != layer:
            totals.calls += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[Any], elapsed: float) -> None:
        self._stack.pop()
        self.totals(frame[0]).self_s += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    # ------------------------------------------------------------------ #
    # Wrapping.
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        method: str,
        layer: str,
        count: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Time every call of ``owner.method`` as a ``layer`` span.

        ``count`` maps the return value to a number of items (e.g. the
        fingerprints an assembler call emitted) added to the layer.
        """
        original = getattr(owner, method)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer._enter(layer)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, _clock() - start)
            if count is not None:
                tracer.totals(layer).items += count(result)
            return result

        setattr(owner, method, traced)

    def wrap_iterator(
        self, owner: Any, method: str, layer: str, count: Callable[[Any], int]
    ) -> None:
        """Time each ``next()`` of the iterator ``owner.method`` returns."""
        original = getattr(owner, method)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(original(*args, **kwargs))
            while True:
                frame = tracer._enter(layer) if tracer.active else None
                start = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        tracer._exit(frame, _clock() - start)
                if frame is not None:
                    tracer.totals(layer).items += count(item)
                yield item

        setattr(owner, method, traced)
