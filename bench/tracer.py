"""Layer timing from outside the package.

A Tracer replaces a module attribute with a wrapper that times each call
and counts the work it did.  It has to patch the name the caller actually
looks up: `sim` and `weave` import their collaborators with
`from ... import`, so wrapping `genoweave.polar.sc_decode_batch` alone
would never see the decoder calls made by `weave.decode_pool_batch`.

Nested calls are tracked with a stack, so every layer gets both its busy
time (wall time inside the call) and its self time (busy time minus the
time spent in wrapped calls it made).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class LayerStats:
    calls: int = 0
    work: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.paused = False
        self._child_s: list[float] = []

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def _wrap(self, layer: str, fn: Callable, work: Callable[[Any], int]) -> Callable:
        stats = self.stats(layer)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                stats.calls += 1
                stats.busy_s += dt
                stats.self_s += dt - child
            stats.work += work(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, bindings) -> Iterator["Tracer"]:
        """Patch every (module, attribute, layer, work_of_result) binding, then restore."""
        saved = []
        try:
            for module, attr, layer, work in bindings:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """Let calls through untimed, for untimed input generation."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
