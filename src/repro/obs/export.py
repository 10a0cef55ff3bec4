"""Metric exporters: OpenMetrics/Prometheus text and periodic JSON snapshots.

Two export surfaces over one :class:`~repro.obs.metrics.MetricsRegistry`:

- :func:`render_openmetrics` — the Prometheus/OpenMetrics text exposition
  format, one family per metric name.  Counters become ``<name>_total``,
  gauges stay gauges, and histograms render as summaries
  (``{quantile="0.5"}`` series plus ``_sum``/``_count``).  A serving
  endpoint returns this string verbatim as ``GET /metrics``.
- :func:`write_snapshot` / :class:`SnapshotExporter` — the full registry
  snapshot (every field of every series, exactly what
  :meth:`~repro.obs.metrics.MetricsRegistry.collect` reports) as a JSON
  file written through :mod:`repro.utils.atomicio`, so a scraper or a
  post-mortem always reads a complete snapshot, never a torn write.
  :class:`SnapshotExporter` rewrites it from a daemon thread every
  ``interval_s`` seconds.

Metric names are sanitized for Prometheus (dots become underscores).  A
histogram's sliding-window view exports as a second summary family,
``<name>_window``, with a ``window`` label, so the lifetime and recent
families stay distinct.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path

from .metrics import MetricsRegistry, get_registry
from .runlog import per_pid_path

__all__ = [
    "render_openmetrics",
    "write_openmetrics",
    "write_snapshot",
    "SnapshotExporter",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_RE.sub("_", key)}="{_escape_label_value(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # OpenMetrics wants plain decimal; repr keeps floats round-trippable.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _family_lines(name: str, kind: str, snaps: list[dict]) -> list[str]:
    lines: list[str] = []
    if kind == "counter":
        lines.append(f"# TYPE {name} counter")
        for snap in snaps:
            labels = _labels_text(snap["labels"])
            lines.append(f"{name}_total{labels} {_format_value(snap['value'])}")
    elif kind == "gauge":
        lines.append(f"# TYPE {name} gauge")
        for snap in snaps:
            labels = _labels_text(snap["labels"])
            lines.append(f"{name}{labels} {_format_value(snap['value'])}")
    else:  # "histogram", or the "window" family of the same snapshots
        # A histogram snapshot carries both views; the window family reads
        # the ``window_*`` fields of the same snapshot.
        prefix = "window_" if kind == "window" else ""
        lines.append(f"# TYPE {name} summary")
        for snap in snaps:
            extra = {"window": f"{snap['window_s']:g}s"} if prefix else {}
            for quantile, field in _QUANTILES:
                labels = _labels_text(
                    snap["labels"], {**extra, "quantile": quantile}
                )
                value = snap[prefix + field]
                lines.append(f"{name}{labels} {_format_value(value)}")
            labels = _labels_text(snap["labels"], extra)
            total, count = snap[prefix + "sum"], snap[prefix + "count"]
            lines.append(f"{name}_sum{labels} {_format_value(total)}")
            lines.append(f"{name}_count{labels} {_format_value(count)}")
    return lines


def render_openmetrics(registry: MetricsRegistry | None = None) -> str:
    """The whole registry in OpenMetrics text exposition format."""
    registry = registry if registry is not None else get_registry()
    families: dict[tuple[str, str], list[dict]] = {}
    for snap in registry.collect():
        kind = snap["kind"]
        name = _metric_name(snap["name"])
        families.setdefault((name, kind), []).append(snap)
        if kind == "histogram":
            families.setdefault((name + "_window", "window"), []).append(snap)
    lines: list[str] = []
    for (name, kind), snaps in sorted(families.items()):
        lines.extend(_family_lines(name, kind, snaps))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    path: str | Path, registry: MetricsRegistry | None = None
) -> Path:
    """Atomically write :func:`render_openmetrics` output to ``path``."""
    from ..utils.atomicio import atomic_write_bytes

    text = render_openmetrics(registry)
    return atomic_write_bytes(Path(path), text.encode("utf-8"), fsync=False)


def write_snapshot(
    path: str | Path,
    registry: MetricsRegistry | None = None,
    extra: dict | None = None,
) -> Path:
    """Atomically write the full registry snapshot as one JSON document.

    The payload is ``{"ts": ..., "metrics": [...]}`` (plus ``extra``
    fields), where ``metrics`` is exactly
    :meth:`~repro.obs.metrics.MetricsRegistry.collect`.
    """
    from ..utils.atomicio import atomic_write_bytes

    registry = registry if registry is not None else get_registry()
    payload = {"ts": time.time(), "metrics": registry.collect()}
    if extra:
        payload.update(extra)
    encoded = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
    return atomic_write_bytes(Path(path), encoded, fsync=False)


class SnapshotExporter:
    """Periodic JSON snapshot writer (daemon thread, atomic writes).

    ::

        with SnapshotExporter("metrics.json", interval_s=10.0):
            serve_forever()

    Each rewrite replaces the file atomically; ``stop()`` (or context
    exit) writes one final snapshot so the file always reflects the end
    state of the run.

    Multi-process safety mirrors :class:`~repro.obs.runlog.JsonlSink`: the
    exporter is owned by the pid that created it.  With ``per_pid=True``
    it writes to :func:`~repro.obs.runlog.per_pid_path` and a forked child
    rebinds to its own file; without it, a write from another pid raises
    ``RuntimeError`` — two exporters ping-ponging one path would make the
    snapshot flap between two processes' registries.
    """

    def __init__(
        self,
        path: str | Path,
        interval_s: float = 10.0,
        registry: MetricsRegistry | None = None,
        per_pid: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.requested_path = Path(path)
        self.per_pid = per_pid
        self.path = per_pid_path(self.requested_path) if per_pid else Path(path)
        self.interval_s = float(interval_s)
        self.registry = registry
        self._owner_pid = os.getpid()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.writes = 0

    def _write(self) -> None:
        pid = os.getpid()
        if pid != self._owner_pid:
            if not self.per_pid:
                raise RuntimeError(
                    f"SnapshotExporter({str(self.requested_path)!r}) was "
                    f"created in pid {self._owner_pid} but is writing from "
                    f"pid {pid}; two processes overwriting one snapshot "
                    "path makes it flap between registries. Pass "
                    "per_pid=True or give each process its own path."
                )
            self.path = per_pid_path(self.requested_path, pid)
            self._owner_pid = pid
        write_snapshot(self.path, self.registry)
        self.writes += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._write()

    def start(self) -> "SnapshotExporter":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-obs-snapshots", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._write()  # final snapshot: the file ends current

    def __enter__(self) -> "SnapshotExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
