"""Injectable clocks for the serving layer.

Every serving component (batcher, cache, load generator, SLO monitors)
takes a ``clock`` callable returning monotonic seconds — ``time.monotonic``
in production, a :class:`ManualClock` in tests.  With a manual clock there
is not a single wall-clock sleep anywhere in the serving test suite: a
test *advances* time explicitly, so every coalescing-window close, TTL
expiry, and window roll-over is a deterministic function of the
scripted schedule.  This is the same contract the circuit breaker
(:class:`~repro.resilience.degrade.CircuitBreaker`) and the windowed
metrics (:mod:`repro.obs.metrics`, :mod:`repro.obs.windows`) already
follow.
"""

from __future__ import annotations

__all__ = ["ManualClock"]


class ManualClock:
    """A monotonic clock that only moves when told to.

    Callable (``clock()`` returns the current virtual time in seconds) so
    it drops into every ``clock=time.monotonic`` parameter in the repo.
    ``sleep`` advances time — handing ``clock.sleep`` to code expecting a
    sleeper (e.g. :func:`repro.resilience.chaos.chaos`) turns waits into
    instantaneous, replayable jumps.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; rejects negative jumps (clock is monotonic)."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self._now += seconds
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Jump to ``deadline`` if it is in the future; no-op otherwise."""
        if deadline > self._now:
            self._now = deadline
        return self._now

    def sleep(self, seconds: float) -> None:
        """Sleeper-shaped alias for :meth:`advance`."""
        self.advance(seconds)
