"""Declarative SLOs evaluated as multi-window burn rates over windowed metrics.

An :class:`SLO` states an objective the serving layer must meet — "99% of
rerank requests answer within 50 ms" (latency) or "99.9% of requests are
served by the primary model" (error rate).  An :class:`SLOMonitor` feeds
request outcomes into private sliding-window good/bad counts (a
sub-window ring per window length, not registry metrics) and evaluates
**burn rates**: with error budget ``1 - target``,

    burn_rate(window) = bad_fraction(window) / (1 - target)

A burn rate of 1 consumes exactly the budget; 14.4 exhausts a 30-day
budget in ~2 days.  Alerting follows the SRE-workbook multi-window rule:
each :class:`BurnWindow` fires only when **both** its long window (the
signal) and its short window (confirmation that the problem is still
happening) exceed the threshold — long-window-only rules keep paging
after recovery, short-only rules page on blips.

Telemetry on every :meth:`SLOMonitor.evaluate`: ``obs.slo.burn_rate``
gauges per window, ``obs.slo.bad_fraction``, the ``obs.slo.state`` gauge
(0 ok / 1 warn / 2 page), and ``slo.alert`` / ``slo.resolve`` run-log
events on state transitions.  The clock is injectable so burn-rate state
transitions are unit-testable without sleeping.

Wiring: :class:`~repro.resilience.degrade.ResilientReranker` accepts an
``slo_monitor`` and records every request's latency plus whether it
degraded to a fallback; :func:`serving_slo` builds the default monitor
for that path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .metrics import MetricsRegistry, _Ring, get_registry
from .runlog import RunLogger, get_run_logger

__all__ = [
    "SLO",
    "BurnWindow",
    "SLOStatus",
    "SLOMonitor",
    "serving_slo",
    "DEFAULT_BURN_WINDOWS",
    "SLO_STATE_CODES",
]

SLO_STATE_CODES = {"ok": 0, "warn": 1, "page": 2}


@dataclass(frozen=True)
class SLO:
    """One objective: a target fraction of "good" events.

    With ``latency_threshold_ms`` set, an event is good when it carried a
    latency at or under the threshold (and no error); without it, good is
    simply "not an error" — an error-rate SLO.
    """

    name: str
    target: float = 0.99
    latency_threshold_ms: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window alert rule: long signal + short confirmation."""

    severity: str  # "page" or "warn"
    long_s: float
    short_s: float
    max_burn_rate: float

    def __post_init__(self) -> None:
        if self.severity not in SLO_STATE_CODES or self.severity == "ok":
            raise ValueError("severity must be 'warn' or 'page'")
        if self.short_s >= self.long_s:
            raise ValueError("short_s must be shorter than long_s")


# Scaled-down versions of the SRE-workbook 1h/5m + 6h/30m pairs — the
# processes here live minutes, not months, so windows shrink with them.
DEFAULT_BURN_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow(severity="page", long_s=300.0, short_s=60.0, max_burn_rate=14.4),
    BurnWindow(severity="warn", long_s=1800.0, short_s=300.0, max_burn_rate=6.0),
)


@dataclass
class SLOStatus:
    """Result of one :meth:`SLOMonitor.evaluate` call."""

    slo: str
    state: str  # "ok" | "warn" | "page"
    burn_rates: dict[float, float] = field(default_factory=dict)
    bad_fractions: dict[float, float] = field(default_factory=dict)
    fired: list[BurnWindow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.state == "ok"


class _WindowCounts:
    """Good and bad event counts over one sliding window."""

    def __init__(self, window_s: float, clock, buckets: int = 10) -> None:
        self._lock = threading.Lock()
        self._ring = _Ring(window_s, buckets, clock)
        self._good = [0.0] * self._ring.slots
        self._bad = [0.0] * self._ring.slots

    def _clear(self, slot: int) -> None:
        self._good[slot] = 0.0
        self._bad[slot] = 0.0

    def add(self, bad: bool) -> None:
        with self._lock:
            slot = self._ring.advance(self._clear)
            (self._bad if bad else self._good)[slot] += 1.0

    def totals(self) -> tuple[float, float]:
        """(good, bad) events inside the current window."""
        with self._lock:
            self._ring.advance(self._clear)
            return sum(self._good), sum(self._bad)


class SLOMonitor:
    """Feeds request outcomes into windowed counts and evaluates burn rates.

    ``min_events`` guards cold windows: a window with fewer events reports
    burn rate 0 (one unlucky request in an empty window is not an outage).
    """

    def __init__(
        self,
        slo: SLO,
        burn_windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
        min_events: int = 1,
        clock=time.monotonic,
        registry: MetricsRegistry | None = None,
        logger: RunLogger | None = None,
    ) -> None:
        if not burn_windows:
            raise ValueError("at least one BurnWindow is required")
        self.slo = slo
        self.burn_windows = tuple(burn_windows)
        self.min_events = min_events
        self._registry = registry
        self._logger = logger
        self._state = "ok"
        window_lengths = sorted(
            {w.long_s for w in self.burn_windows}
            | {w.short_s for w in self.burn_windows}
        )
        # Bucket span scales with the window so short windows stay sharp.
        self._counts = {
            window_s: _WindowCounts(window_s, clock) for window_s in window_lengths
        }

    # -- recording -----------------------------------------------------
    def record(self, latency_ms: float | None = None, error: bool = False) -> None:
        """Record one event outcome into every window."""
        bad = bool(error)
        threshold = self.slo.latency_threshold_ms
        if not bad and threshold is not None and latency_ms is not None:
            bad = latency_ms > threshold
        for counts in self._counts.values():
            counts.add(bad)

    # -- reading -------------------------------------------------------
    def _window_counts(self, window_s: float) -> tuple[float, float]:
        return self._counts[window_s].totals()

    def bad_fraction(self, window_s: float) -> float:
        good, bad = self._window_counts(window_s)
        total = good + bad
        if total < self.min_events or total == 0:
            return 0.0
        return bad / total

    def burn_rate(self, window_s: float) -> float:
        return self.bad_fraction(window_s) / self.slo.error_budget

    def evaluate(self) -> SLOStatus:
        """Re-read every window, publish gauges, log state transitions."""
        burn_rates = {w: self.burn_rate(w) for w in self._counts}
        bad_fractions = {w: self.bad_fraction(w) for w in self._counts}
        fired = [
            rule
            for rule in self.burn_windows
            if burn_rates[rule.long_s] > rule.max_burn_rate
            and burn_rates[rule.short_s] > rule.max_burn_rate
        ]
        state = "ok"
        for rule in fired:
            if SLO_STATE_CODES[rule.severity] > SLO_STATE_CODES[state]:
                state = rule.severity
        status = SLOStatus(
            slo=self.slo.name,
            state=state,
            burn_rates=burn_rates,
            bad_fractions=bad_fractions,
            fired=fired,
        )
        self._publish(status)
        if state != self._state:
            self._log_transition(status)
            self._state = state
        return status

    @property
    def state(self) -> str:
        """Last evaluated state (does not re-evaluate)."""
        return self._state

    # -- telemetry -----------------------------------------------------
    def _publish(self, status: SLOStatus) -> None:
        registry = self._registry if self._registry is not None else get_registry()
        for window_s, rate in status.burn_rates.items():
            registry.gauge(
                "obs.slo.burn_rate", slo=self.slo.name, window=f"{window_s:g}s"
            ).set(rate)
            registry.gauge(
                "obs.slo.bad_fraction",
                slo=self.slo.name,
                window=f"{window_s:g}s",
            ).set(status.bad_fractions[window_s])
        registry.gauge("obs.slo.state", slo=self.slo.name).set(
            SLO_STATE_CODES[status.state]
        )

    def _log_transition(self, status: SLOStatus) -> None:
        logger = self._logger if self._logger is not None else get_run_logger()
        if not logger.active:
            return
        if status.state == "ok":
            logger.log("slo.resolve", slo=self.slo.name, previous=self._state)
            return
        worst = max(
            status.fired, key=lambda rule: SLO_STATE_CODES[rule.severity]
        )
        logger.log(
            "slo.alert",
            slo=self.slo.name,
            severity=status.state,
            burn_rate_long=status.burn_rates[worst.long_s],
            burn_rate_short=status.burn_rates[worst.short_s],
            long_window_s=worst.long_s,
            short_window_s=worst.short_s,
            target=self.slo.target,
        )


def serving_slo(
    name: str = "rerank-latency",
    latency_threshold_ms: float = 50.0,
    target: float = 0.99,
    min_events: int = 20,
    **monitor_kwargs,
) -> SLOMonitor:
    """The default serving-path monitor for a :class:`ResilientReranker`.

    Good = answered by any stage within ``latency_threshold_ms`` without
    degrading to a fallback; the reranker records both automatically when
    handed this monitor.
    """
    return SLOMonitor(
        SLO(
            name=name,
            target=target,
            latency_threshold_ms=latency_threshold_ms,
            description=(
                f"{100 * target:g}% of requests served by the primary "
                f"within {latency_threshold_ms:g} ms"
            ),
        ),
        min_events=min_events,
        **monitor_kwargs,
    )
