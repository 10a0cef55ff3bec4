"""Render a human-readable summary of a JSONL run log.

Usage::

    python -m repro.obs.report run.jsonl

Sections (each skipped when the log has no matching events):

- run header — run id, event count, wall-clock extent;
- loss curve — one row per ``train.epoch`` event;
- evaluation results — one row per ``eval.result`` event;
- slowest spans — ``span`` summary events sorted by total time;
- top autograd ops — ``autograd.op`` events sorted by total time;
- SLO status — last ``obs.slo.*`` gauges plus any ``slo.alert`` events;
- windowed percentiles — recent p50/p95/p99 per histogram (its
  ``window_*`` fields);
- profiler hot stacks — ``profiler.stack`` events by sample share.

Programmatic entry points: :func:`render_report` on already-loaded records,
:func:`report_path` for a file.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .runlog import read_jsonl

__all__ = ["render_report", "report_path", "main"]


def _format_cell(value, precision: int = 4) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _format_table(rows: list[dict], columns: list[str], precision: int = 4) -> str:
    """Minimal fixed-width table over a list of dict rows."""
    cells = [
        [_format_cell(row.get(col, ""), precision) for col in columns]
        for row in rows
    ]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(width) for col, width in zip(columns, widths))
    divider = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        for line in cells
    ]
    return "\n".join([header, divider, *body])


def _section(title: str, body: str) -> str:
    return f"{title}\n{body}"


def render_report(records: list[dict], top: int = 10) -> str:
    """Build the full text report from loaded run-log records."""
    if not records:
        return "(empty run log)"
    sections: list[str] = []

    run_ids = sorted({r.get("run_id", "?") for r in records})
    timestamps = [r["ts"] for r in records if isinstance(r.get("ts"), (int, float))]
    extent = (max(timestamps) - min(timestamps)) if len(timestamps) > 1 else 0.0
    sections.append(
        f"run {', '.join(run_ids)} — {len(records)} events, "
        f"{extent:.2f}s wall-clock extent"
    )

    epochs = [r for r in records if r.get("event") == "train.epoch"]
    if epochs:
        sections.append(
            _section(
                "Training loss curve",
                _format_table(
                    epochs,
                    ["epoch", "loss", "grad_norm", "lists_per_sec", "epoch_s"],
                ),
            )
        )

    evals = [r for r in records if r.get("event") == "eval.result"]
    if evals:
        metric_keys = sorted(
            {k for r in evals for k in r if "@" in k}
        )
        sections.append(
            _section(
                "Evaluation results",
                _format_table(evals, ["model", *metric_keys]),
            )
        )

    spans = [r for r in records if r.get("event") == "span"]
    if spans:
        spans = sorted(spans, key=lambda r: r.get("total_ms", 0.0), reverse=True)
        sections.append(
            _section(
                f"Slowest spans (top {top})",
                _format_table(
                    spans[:top],
                    ["path", "count", "total_ms", "mean_ms"],
                    precision=2,
                ),
            )
        )

    ops = [r for r in records if r.get("event") == "autograd.op"]
    if ops:
        ops = sorted(ops, key=lambda r: r.get("total_ms", 0.0), reverse=True)
        body = _format_table(
            ops[:top],
            [
                "op",
                "forward_calls",
                "forward_ms",
                "backward_calls",
                "backward_ms",
                "total_ms",
            ],
            precision=2,
        )
        fused_line = _fused_kernel_share(ops)
        if fused_line:
            body = f"{body}\n{fused_line}"
        sections.append(_section(f"Top autograd ops (top {top})", body))

    slo_body = _slo_section(records)
    if slo_body:
        sections.append(_section("SLO status", slo_body))

    windowed = [
        r
        for r in records
        if r.get("event") == "metric"
        and r.get("kind") == "histogram"
        and "window_count" in r
    ]
    if windowed:
        rows = [
            {
                "metric": _series_label(r),
                "window": f"{r['window_s']:g}s",
                "count": r["window_count"],
                "p50": r["window_p50"],
                "p95": r["window_p95"],
                "p99": r["window_p99"],
            }
            for r in windowed
        ]
        sections.append(
            _section(
                "Windowed percentiles (recent, not lifetime)",
                _format_table(
                    rows,
                    ["metric", "window", "count", "p50", "p95", "p99"],
                    precision=3,
                ),
            )
        )

    stacks = [r for r in records if r.get("event") == "profiler.stack"]
    if stacks:
        sections.append(
            _section(
                f"Profiler hot stacks (top {top})", _stacks_body(stacks, top)
            )
        )

    return "\n\n".join(sections)


_SLO_STATE_NAMES = {0: "ok", 1: "warn", 2: "page"}


def _series_label(record: dict) -> str:
    labels = record.get("labels") or {}
    if isinstance(labels, (list, tuple)):
        labels = dict(labels)
    if not labels:
        return str(record.get("name", "?"))
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{record.get('name', '?')}{{{inner}}}"


def _slo_section(records: list[dict]) -> str | None:
    """SLO state table (from flushed gauges) plus the alert history."""
    states: dict[str, dict] = {}
    burns: dict[str, list[tuple[str, float]]] = {}
    for r in records:
        if r.get("event") != "metric":
            continue
        labels = r.get("labels") or {}
        if isinstance(labels, (list, tuple)):
            labels = dict(labels)
        slo = labels.get("slo")
        if slo is None:
            continue
        if r.get("name") == "obs.slo.state":
            states[slo] = r
        elif r.get("name") == "obs.slo.burn_rate":
            burns.setdefault(slo, []).append(
                (labels.get("window", "?"), r.get("value", 0.0))
            )
    alerts = [r for r in records if r.get("event") in ("slo.alert", "slo.resolve")]
    if not states and not alerts:
        return None
    lines = []
    if states:
        rows = []
        for slo, record in sorted(states.items()):
            worst = max(burns.get(slo, [("", 0.0)]), key=lambda kv: kv[1])
            rows.append(
                {
                    "slo": slo,
                    "state": _SLO_STATE_NAMES.get(
                        int(record.get("value", 0)), "?"
                    ),
                    "max_burn_rate": worst[1],
                    "window": worst[0],
                }
            )
        lines.append(
            _format_table(
                rows, ["slo", "state", "max_burn_rate", "window"], precision=2
            )
        )
    for r in alerts:
        if r.get("event") == "slo.alert":
            lines.append(
                f"ALERT  {r.get('slo', '?')} [{r.get('severity', '?')}] "
                f"burn {r.get('burn_rate_long', 0.0):.1f}x over "
                f"{r.get('long_window_s', 0):g}s "
                f"(short {r.get('burn_rate_short', 0.0):.1f}x)"
            )
        else:
            lines.append(f"resolve  {r.get('slo', '?')} back to ok")
    return "\n".join(lines)


def _stacks_body(stacks: list[dict], top: int) -> str:
    stacks = sorted(stacks, key=lambda r: r.get("samples", 0), reverse=True)
    total = max((r.get("total_samples", 0) for r in stacks), default=0) or 1
    lines = []
    for r in stacks[:top]:
        share = 100.0 * r.get("samples", 0) / total
        stack = r.get("stack", "")
        # Deep stacks are noise in a text report: keep the last 4 frames.
        frames = stack.split(";")
        shown = ";".join(frames[-4:]) if len(frames) > 4 else stack
        if len(frames) > 4:
            shown = "...;" + shown
        lines.append(f"{share:5.1f}%  {shown}")
    return "\n".join(lines)


_FUSED_OPS = (
    "lstm_cell_fused",
    "gru_cell_fused",
    "lstm_scan_fused",
    "gru_scan_fused",
)


def _fused_kernel_share(ops: list[dict]) -> str | None:
    """One-line attribution of op time to the fused recurrent kernels.

    With ``repro.nn.kernels`` active, the recurrent elementwise primitives
    (sigmoid/tanh/mul/getitem per timestep) vanish from the profile and
    their time lands on ``lstm_cell_fused`` / ``gru_cell_fused``; this line
    makes that attribution explicit in the report.
    """
    total = sum(r.get("total_ms", 0.0) for r in ops)
    fused = [r for r in ops if r.get("op") in _FUSED_OPS]
    if not fused or total <= 0:
        return None
    fused_ms = sum(r.get("total_ms", 0.0) for r in fused)
    names = ", ".join(sorted(r.get("op", "?") for r in fused))
    return (
        f"fused kernels ({names}): {fused_ms:.2f} ms — "
        f"{100.0 * fused_ms / total:.1f}% of profiled op time"
    )


def report_path(path: str | Path, top: int = 10) -> str:
    return render_report(read_jsonl(path), top=top)


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.obs.report <run.jsonl> [top_n]")
        return 0 if argv else 2
    try:
        top = int(argv[1]) if len(argv) > 1 else 10
    except ValueError:
        print(f"error: top_n must be an integer, got {argv[1]!r}", file=sys.stderr)
        return 2
    try:
        print(report_path(argv[0], top=top))
    except FileNotFoundError:
        print(f"error: no such run log: {argv[0]}", file=sys.stderr)
        return 1
    except ValueError as exc:  # malformed JSONL line (json.JSONDecodeError)
        print(f"error: {argv[0]} is not valid JSONL: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. piped into head
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
