"""Process-global metrics registry: counters, gauges, histograms.

The registry is the numeric backbone of ``repro.obs``.  Instrumented code
asks the registry for a metric by name (plus optional labels) and updates
it; readers call :meth:`MetricsRegistry.collect` for a point-in-time
snapshot.  All updates are thread-safe, and every metric is held purely in
memory — recording never performs I/O, so always-on instrumentation is safe
for library use (see DESIGN.md, "Observability").  Recording is constant
time: a repeated lookup returns the known series without normalising its
labels, and a histogram appends each sample and sorts only when read.

Three metric kinds are supported:

- :class:`Counter` — monotonically increasing total (op counts, events);
- :class:`Gauge` — last-written value (current loss, alpha-NDCG);
- :class:`Histogram` — sample distribution with mean and p50/p95/p99
  quantiles (latencies, per-batch times), both over the process lifetime
  and over a sliding window of the last :data:`WINDOW_S` seconds.

Every sample is recorded once: one :meth:`Histogram.observe` feeds both
the lifetime and the windowed view.  Event rates are read off the same
histogram (``window_count / window_s``); counts of anything else are
:class:`Counter` series.

Labeled series: ``registry.histogram("rerank.latency_ms", reranker="mmr")``
creates one independent series per distinct label set.  To survive
accidental cardinality explosions (e.g. labeling by user or request id
under million-user traffic), a registry caps each metric name at
``max_series_per_metric`` distinct label sets: once the cap is hit, new
label sets are routed to one shared per-name **overflow series**
(labeled ``overflow="true"``), the ``obs.dropped_series`` counter tracks
how many updates were routed there, and the first overflow per name is
logged once — memory stays bounded and writers never crash.
"""

from __future__ import annotations

import logging
import threading
import time
from itertools import chain

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
]

Labels = tuple[tuple[str, str], ...]

# The label set identifying a metric's shared cardinality-overflow series.
_OVERFLOW_LABELS: Labels = (("overflow", "true"),)

# Every histogram's sliding window: WINDOW_S seconds split into
# WINDOW_BUCKETS sub-windows, each keeping at most BUCKET_CAP samples.
WINDOW_S = 60.0
WINDOW_BUCKETS = 6
BUCKET_CAP = 4096


def _normalize_labels(labels: dict[str, object]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared name/label plumbing for all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def __repr__(self) -> str:
        labels = "".join(f", {k}={v}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name!r}{labels})"


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict,
            "value": self._value,
        }


class Gauge(_Metric):
    """Last-written value, with an optional add convenience."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict,
            "value": self._value,
        }


class _Ring:
    """Sub-window ring arithmetic for windowed views (owners lock).

    Used by :class:`Histogram` and by the SLO monitor's private good/bad
    window counts (:mod:`repro.obs.slo`).

    The ring has ``buckets + 1`` slots: one spare so the *filling*
    sub-window never evicts a live one.  After :meth:`advance`, every slot
    lies inside the window, which therefore covers between ``window_s``
    and ``window_s + window_s / buckets`` seconds of arrivals.
    """

    def __init__(self, window_s: float, buckets: int, clock) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window_s = float(window_s)
        self.span_s = self.window_s / buckets
        self.clock = clock
        self.slots = buckets + 1
        self.tick = self._tick_now()

    def _tick_now(self) -> int:
        return int(self.clock() / self.span_s)

    def advance(self, clear) -> int:
        """Move to the current tick, calling ``clear(slot)`` on expired slots.

        Returns the slot index of the current (filling) sub-window.
        """
        now_tick = self._tick_now()
        if now_tick != self.tick:
            steps = min(now_tick - self.tick, self.slots)
            for offset in range(1, steps + 1):
                clear((self.tick + offset) % self.slots)
            self.tick = now_tick
        return self.tick % self.slots


_QUANTILES = (0.50, 0.95, 0.99)


def _interpolate(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` of sorted ``samples`` (0 if empty)."""
    if not samples:
        return 0.0
    position = q * (len(samples) - 1)
    low = int(position)
    high = min(low + 1, len(samples) - 1)
    frac = position - low
    return samples[low] * (1.0 - frac) + samples[high] * frac


class Histogram(_Metric):
    """Sample distribution: lifetime quantiles plus a sliding-window view.

    One :meth:`observe`, under one lock, updates the exact lifetime count
    and sum, an append-only lifetime reservoir, and the current sub-window
    of a ring covering the last :data:`WINDOW_S` seconds, so an observe is
    O(1).  Readers sort the reservoir in place before they interpolate.
    ``max_samples`` bounds the reservoir: once full, it is sorted and a
    coarse policy keeps every other sample (count/sum stay exact;
    quantiles become approximate, which is fine for telemetry).  Each
    sub-window applies the same policy at :data:`BUCKET_CAP` samples.

    The stable sort keeps equal values in arrival order, so every quantile
    is bitwise the one a reservoir kept sorted on insert (``insort``)
    would give, ``-0.0``/``0.0`` ties included.

    :meth:`snapshot` reports both views; the ``window_*`` fields merge the
    live sub-windows, so they describe between ``window_s`` and
    ``window_s + window_s / WINDOW_BUCKETS`` seconds of arrivals, and
    ``window_count / window_s`` is the recent event rate.  ``clock``
    (``time.monotonic`` by default) is injectable so tests can expire
    samples without sleeping.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        max_samples: int = 100_000,
        clock=time.monotonic,
    ) -> None:
        super().__init__(name, labels)
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max_samples = max_samples
        self._ring = _Ring(WINDOW_S, WINDOW_BUCKETS, clock)
        self._window: list[list[float]] = [[] for _ in range(self._ring.slots)]
        self._window_counts = [0] * self._ring.slots
        self._window_sums = [0.0] * self._ring.slots

    def _clear(self, slot: int) -> None:
        self._window[slot] = []
        self._window_counts[slot] = 0
        self._window_sums[slot] = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if len(self._samples) >= self._max_samples:
                self._samples.sort()
                self._samples = self._samples[::2]
            self._samples.append(value)
            slot = self._ring.advance(self._clear)
            bucket = self._window[slot]
            if len(bucket) >= BUCKET_CAP:
                self._window[slot] = bucket = bucket[::2]
            bucket.append(value)
            self._window_counts[slot] += 1
            self._window_sums[slot] += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated lifetime quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            self._samples.sort()
            return _interpolate(self._samples, q)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> dict:
        """Lifetime and window views, read under one lock acquisition."""
        with self._lock:
            self._ring.advance(self._clear)
            window = sorted(chain.from_iterable(self._window))
            count, total = self._count, self._sum
            self._samples.sort()
            lifetime_q = [_interpolate(self._samples, q) for q in _QUANTILES]
            window_q = [_interpolate(window, q) for q in _QUANTILES]
            window_count = sum(self._window_counts)
            window_sum = sum(self._window_sums)
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict,
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "p50": lifetime_q[0],
            "p95": lifetime_q[1],
            "p99": lifetime_q[2],
            "window_s": self._ring.window_s,
            "window_count": window_count,
            "window_sum": window_sum,
            "window_p50": window_q[0],
            "window_p95": window_q[1],
            "window_p99": window_q[2],
        }


class MetricsRegistry:
    """Thread-safe collection of labeled metric series.

    One registry is usually enough — :func:`get_registry` returns the
    process-global instance — but independent registries can be created for
    tests or isolated subsystems.
    """

    def __init__(self, max_series_per_metric: int = 1000) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, str, Labels], _Metric] = {}
        # Lookup table keyed by the labels as the caller wrote them
        # (``(cls, name, *labels.items())``), so a repeated lookup skips
        # label normalisation and the lock.
        self._known: dict[tuple, _Metric] = {}
        self._per_name: dict[str, int] = {}
        self._overflow_logged: set[str] = set()
        self.max_series_per_metric = max_series_per_metric

    def _get_or_create(self, cls: type, name: str, labels: dict[str, object]):
        try:
            metric = self._known.get((cls, name, *labels.items()))
        except TypeError:  # an unhashable label value: take the slow path
            metric = None
        if metric is not None:
            return metric
        key = (cls.kind, name, _normalize_labels(labels))
        # Only label sets whose values are all ``str`` enter the table:
        # 1, 1.0 and True are equal dict keys but name three series.
        known = None
        if all(type(value) is str for value in labels.values()):
            known = (cls, name, *labels.items())
        overflowed = False
        with self._lock:
            metric = self._series.get(key)
            if metric is not None:
                if known is not None:
                    self._known[known] = metric
                return metric
            for kind, existing_name, _ in self._series:
                if existing_name == name and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a {kind}, "
                        f"cannot re-register as a {cls.kind}"
                    )
            count = self._per_name.get(name, 0)
            if count >= self.max_series_per_metric:
                # Cardinality cap: route this (and every further) unseen
                # label set to one shared overflow series so memory stays
                # bounded under per-user labels; the write still lands.
                # The overflow series never enters the lookup table, so
                # every update routed to it is counted.
                overflowed = True
                key = (cls.kind, name, _OVERFLOW_LABELS)
                metric = self._series.get(key)
                if metric is None:
                    metric = self._series[key] = cls(name, _OVERFLOW_LABELS)
            else:
                metric = cls(name, key[2])
                self._series[key] = metric
                self._per_name[name] = count + 1
                if known is not None:
                    self._known[known] = metric
        if overflowed:
            self._record_overflow(name)
        return metric

    def _record_overflow(self, name: str) -> None:
        """Count an update routed to the overflow series; log the first."""
        if name != "obs.dropped_series":
            self.counter("obs.dropped_series", metric=name).inc()
        first = False
        with self._lock:
            if name not in self._overflow_logged:
                self._overflow_logged.add(name)
                first = True
        if first:
            message = (
                f"metric {name!r} exceeded max_series_per_metric="
                f"{self.max_series_per_metric}; further label sets share one "
                "overflow series (a label is probably unbounded — user or "
                "request ids)"
            )
            logging.getLogger(__name__).warning(message)
            from .runlog import get_run_logger

            logger = get_run_logger()
            if logger.active:
                logger.log(
                    "obs.series_overflow",
                    metric=name,
                    max_series=self.max_series_per_metric,
                )

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def collect(self) -> list[dict]:
        """Point-in-time snapshot of every series, sorted by (name, labels)."""
        with self._lock:
            metrics = list(self._series.values())
        return sorted(
            (m.snapshot() for m in metrics),
            key=lambda s: (s["name"], tuple(sorted(s["labels"].items()))),
        )

    def reset(self) -> None:
        """Drop every registered series."""
        with self._lock:
            self._series.clear()
            self._known.clear()
            self._per_name.clear()
            self._overflow_logged.clear()

    def __len__(self) -> int:
        return len(self._series)


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-global registry used by built-in instrumentation."""
    return _GLOBAL_REGISTRY


def reset_registry() -> None:
    """Clear the process-global registry (tests, start of a fresh run)."""
    _GLOBAL_REGISTRY.reset()
