"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Workloads: ``serve_hot``, ``serve_miss``, ``offline`` (see NOTES.md).
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs half the work untraced and half traced, prints the
per-layer self-time table, reports the per-layer metrics and the tracing
overhead, and writes a Chrome trace under ``perfbench/out/``.

Output: a human-readable summary, one ``{"record": ...}`` line that
describes the host and the run (fingerprint, counts, every named metric
with its unit), and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 1
when any correctness check fails.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads: the host has two shared
# cores and a multithreaded OpenBLAS makes timings wander.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = {
    "serve_hot": workloads.serve_hot,
    "serve_miss": workloads.serve_miss,
    "offline": workloads.offline,
}


def git_sha() -> "str | None":
    """HEAD's commit id read from ``.git`` when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "thread_pins": THREAD_PINS,
    }


def metric_block(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_table(table: dict) -> None:
    print(f"{'span':<24} {'count':>9} {'total ms':>11} {'self ms':>11} {'self/call us':>13}")
    for name, entry in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        per_call = 1e6 * entry["self_s"] / entry["count"] if entry["count"] else 0.0
        print(
            f"{name:<24} {entry['count']:>9} {1e3 * entry['total_s']:>11.2f} "
            f"{1e3 * entry['self_s']:>11.2f} {per_call:>13.2f}"
        )


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    size = workloads.sizes(workload, seconds, tiny=tiny)
    outcome = WORKLOADS[workload](seed, size, trace)
    metrics = outcome.per_layer if trace else outcome.metrics
    details = dict(outcome.details)
    for key in ("named_metrics", "layer_metrics"):
        if key in details:
            details[key] = metric_block(details[key])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": fingerprint(),
        "size": vars(size),
        "attempted": outcome.attempted,
        "succeeded": outcome.attempted - outcome.failed,
        "failed": outcome.failed,
        "counts": outcome.counts,
        "checks_failed": outcome.checks,
        "metrics": metric_block(metrics),
        **details,
    }
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metric_block(metrics),
    }
    return outcome, record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome, record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if outcome.table:
        print_table(outcome.table)
    for name, entry in record.get("named_metrics", {}).items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    for name, entry in record["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"{args.workload} attempted={outcome.attempted} "
        f"succeeded={outcome.attempted - outcome.failed} failed={outcome.failed}"
    )
    for message in outcome.checks:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result, default=float))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
