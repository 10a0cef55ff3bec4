"""Wall-clock stopwatch.

Timing series belong in the metrics registry
(``get_registry().histogram(...)``) or in spans (``repro.obs.trace``);
:class:`Stopwatch` is for one-off elapsed-time reads.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """Context manager measuring elapsed wall-clock seconds.

    Re-entrant: instances can be reused sequentially and nested —
    each ``with`` level times its own region, and ``elapsed`` always holds
    the most recently exited level's duration.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._starts: list[float] = []

    def __enter__(self) -> "Stopwatch":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._starts:
            raise RuntimeError("Stopwatch.__exit__ without matching __enter__")
        self.elapsed = time.perf_counter() - self._starts.pop()
