"""Windowed event counts, and the retired opt-in switch for windowed metrics.

Latency and size distributions need no separate windowed type: every
registry :class:`~repro.obs.metrics.Histogram` carries its own sliding
window (see its ``window_*`` snapshot fields).  This module keeps
:class:`WindowedCounter` — good/bad event counts over a sub-window ring,
the input to SLO burn rates (:mod:`repro.obs.slo`) — which takes an
injectable ``clock`` (``time.monotonic`` by default) so window expiry is
unit-testable without sleeping.
"""

from __future__ import annotations

import time

from .metrics import Labels, _Metric, _Ring

__all__ = ["WindowedCounter", "enable_windowed"]


def enable_windowed() -> None:
    """No-op: windowed percentiles are always on in every ``Histogram``.

    Kept callable because the repository benchmark's serving workloads
    (``perfbench/workloads.py``) still call it before they start.
    """


class WindowedCounter(_Metric):
    """Event count over a sliding window (the SLO burn-rate input)."""

    kind = "windowed_counter"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        window_s: float = 300.0,
        buckets: int = 10,
        clock=time.monotonic,
    ) -> None:
        super().__init__(name, labels)
        self._ring = _Ring(window_s, buckets, clock)
        self._counts = [0.0] * self._ring.slots
        self._lifetime = 0.0
        self.window_s = self._ring.window_s

    def _clear(self, slot: int) -> None:
        self._counts[slot] = 0.0

    def add(self, count: float = 1.0) -> None:
        if count < 0:
            raise ValueError("windowed counters only accumulate forward")
        with self._lock:
            slot = self._ring.advance(self._clear)
            self._counts[slot] += count
            self._lifetime += count

    @property
    def total(self) -> float:
        """Events inside the current window."""
        with self._lock:
            self._ring.advance(self._clear)
            return sum(self._counts)

    @property
    def lifetime_total(self) -> float:
        return self._lifetime

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict,
            "window_s": self.window_s,
            "total": self.total,
            "lifetime_total": self._lifetime,
        }
