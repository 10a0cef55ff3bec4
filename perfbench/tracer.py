"""In-memory span recorder installed from outside the program.

The benchmark's traced run (``--trace 1``) wraps calls into the public
functions of each layer — service methods, cache methods, module
``infer`` methods, trainer functions — and records one span per call:
name, start, end, parent span and track (the closed-loop client, or 0
for the coordinating loop).  Nothing under ``src/`` is modified; every
wrapper is put in place by :meth:`Tracer.wrap` or :meth:`Tracer.patch`
and taken out again by :meth:`Tracer.restore`.

Spans live in typed arrays, not Python objects, so a long traced run adds
no work to the garbage collector (a collector pause inside a forward
pass would trip the serving deadline).  The current span lives in a
:class:`contextvars.ContextVar`, so spans opened inside one asyncio task
(one client) parent correctly across ``await`` points while other
clients interleave.

A span's *self time* is its duration minus the part of its interval that
its children cover (the union of the child intervals, clipped to the
parent).  :meth:`Tracer.table` aggregates count, total and self time per
span name; :meth:`Tracer.write_chrome_trace` writes the spans as a
``chrome://tracing`` / Perfetto file, one track per client.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import math
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer"]

NO_PARENT = -1
TRACE_EVENT_LIMIT = 100_000  # spans written to the Chrome trace file


class Tracer:
    """Span columns plus the patch ledger that installed their wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []  # name table, indexed by name id
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")  # NaN while open
        self.parent = array("q")
        self.track = array("q")
        self.counts: dict[str, int] = {}
        # (current span id, track) of the running task.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(NO_PARENT, 0)
        )
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def set_track(self, track: int) -> None:
        """Tag spans opened from here on (in this task) with ``track``."""
        self._current.set((self._current.get()[0], track))

    def record(self, name: str, start: float, end: float, parent: int, track: int) -> int:
        """Add a span with known bounds (e.g. a queue wait seen from outside)."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.track.append(track)
        return len(self.start) - 1

    def begin(self, name: str):
        """Open a span as a child of the current one; returns a token."""
        parent, track = self._current.get()
        sid = self.record(name, time.perf_counter(), math.nan, parent, track)
        return sid, self._current.set((sid, track))

    def end_span(self, token) -> int:
        sid, ctx_token = token
        self.end[sid] = time.perf_counter()
        self._current.reset(ctx_token)
        return sid

    @contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`begin` / :meth:`end_span`."""
        token = self.begin(name)
        try:
            yield token[0]
        finally:
            self.end_span(token)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to an exact event count kept beside the spans."""
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation --------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_call=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(sid, args)`` runs just after the span opens.  Coroutine
        functions get an ``async`` wrapper so the span covers the awaited
        work.  Returns the original callable.
        """
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                token = self.begin(name)
                if on_call is not None:
                    on_call(token[0], args)
                try:
                    return await original(*args, **kwargs)
                finally:
                    self.end_span(token)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                token = self.begin(name)
                if on_call is not None:
                    on_call(token[0], args)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end_span(token)

        self.patch(owner, attr, wrapper)
        return original

    def patch(self, owner, attr: str, replacement) -> None:
        """Install any replacement for ``owner.attr``, undone by :meth:`restore`."""
        in_dict = attr in getattr(owner, "__dict__", {})
        raw = owner.__dict__[attr] if in_dict else None
        self._patches.append((owner, attr, raw, in_dict))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw, in_dict = self._patches.pop()
            if in_dict:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of child intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent in enumerate(self.parent):
            if parent != NO_PARENT and not math.isnan(self.end[sid]):
                children.setdefault(parent, []).append((self.start[sid], self.end[sid]))
        out = []
        for sid, (start, end) in enumerate(zip(self.start, self.end)):
            if math.isnan(end):
                out.append(0.0)
                continue
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append((end - start) - covered)
        return out

    def table(self) -> dict[str, dict]:
        """name -> {count, total_s, self_s} over every closed span."""
        stats: dict[str, dict] = {}
        for sid, self_s in enumerate(self.self_times()):
            end = self.end[sid]
            if math.isnan(end):
                continue
            entry = stats.setdefault(
                self.names[self.name[sid]], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += end - self.start[sid]
            entry["self_s"] += self_s
        return stats

    def total_s(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans whose parent is a ``parent_name`` span."""
        name_id = self._name_ids.get(name)
        parent_id = self._name_ids.get(parent_name)
        return sum(
            self.end[sid] - self.start[sid]
            for sid, parent in enumerate(self.parent)
            if self.name[sid] == name_id
            and parent != NO_PARENT
            and self.name[parent] == parent_id
        )

    def unattributed_share(self, roots: "tuple[str, ...]") -> float:
        """Share of root-span time that no child span covers."""
        root_ids = {self._name_ids[r] for r in roots if r in self._name_ids}
        total = unattributed = 0.0
        for sid, self_s in enumerate(self.self_times()):
            if self.name[sid] in root_ids and not math.isnan(self.end[sid]):
                total += self.end[sid] - self.start[sid]
                unattributed += self_s
        return unattributed / total if total else 0.0

    def write_chrome_trace(self, path: Path) -> dict:
        """Write the first closed spans (by start) as Chrome trace events."""
        limit = TRACE_EVENT_LIMIT
        closed = sorted(
            (sid for sid in range(len(self.start)) if not math.isnan(self.end[sid])),
            key=self.start.__getitem__,
        )
        origin = self.start[closed[0]] if closed else 0.0
        events = [
            {
                "name": self.names[self.name[sid]],
                "ph": "X",
                "pid": 1,
                "tid": self.track[sid],
                "ts": round(1e6 * (self.start[sid] - origin), 3),
                "dur": round(1e6 * (self.end[sid] - self.start[sid]), 3),
            }
            for sid in closed[:limit]
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return {"path": str(path), "events": len(events), "dropped": max(0, len(closed) - limit)}
