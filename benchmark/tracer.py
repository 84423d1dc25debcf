"""Span tracer for the traced benchmark run.

The tracer wraps planlab's public functions from the outside: it replaces
every module attribute in the ``planlab`` package that is bound to a traced
function (so ``from .truth import modal_status`` inside ``planners`` is
covered too) and patches ``Planner`` methods on the class.  Coarse calls
(tasks, searches, tree enumerations, set-up calls) are recorded as spans
with name, start, end, parent and task id.  Hot calls (``children`` and the
truth and model relations) are only aggregated per name, so memory stays
bounded however many calls a run makes.  Self time is a span's duration
minus the time of the traced calls nested inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional, Union

SpanName = Union[str, Callable[..., str]]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.task_id: Optional[str] = None
        self.spans: list[dict] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # open frames: [start, nested traced seconds, span index or None]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(
        self,
        name: SpanName,
        fn: Callable,
        record: bool,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args) if callable(name) else name
            start = time.perf_counter()
            index = None
            if record:
                index = len(tracer.spans)
                tracer.spans.append(
                    {
                        "name": label,
                        "start": start - tracer._t0,
                        "end": None,
                        "parent": tracer._parent(),
                        "task": tracer.task_id,
                    }
                )
            frame = [start, 0.0, index]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                elapsed = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                stat = tracer.stats.setdefault(label, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if index is not None:
                    tracer.spans[index]["end"] = end - tracer._t0
                    tracer.spans[index]["self"] = elapsed - frame[1]
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def _parent(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- installation ----------------------------------------------------

    def patch_function(
        self,
        module,
        attr: str,
        name: str,
        record: bool,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Wrap `module.attr` and rebind every attribute of `module` and of
        the planlab modules that refers to the same function object."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, record, on_result)
        sites = {id(module): module}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "planlab" or mod_name.startswith("planlab."):
                sites[id(mod)] = mod
        for mod in sites.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(
        self,
        cls,
        attr: str,
        name: SpanName,
        on_result: Optional[Callable] = None,
    ) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, False, on_result))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]
