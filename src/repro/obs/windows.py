"""The retired opt-in switch for windowed metrics.

Latency and size distributions need no separate windowed type: every
registry :class:`~repro.obs.metrics.Histogram` carries its own sliding
window (see its ``window_*`` snapshot fields), and the SLO monitor keeps
its good/bad window counts privately (:mod:`repro.obs.slo`).
"""

from __future__ import annotations

__all__ = ["enable_windowed"]


def enable_windowed() -> None:
    """No-op: windowed percentiles are always on in every ``Histogram``.

    Kept callable because the repository benchmark's serving workloads
    (``perfbench/workloads.py``) still call it before they start.
    """
