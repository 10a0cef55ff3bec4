"""Absolute serving gates on the repository benchmark's tiny ``serve_miss`` run.

``perfbench/`` is the one serving benchmark.  Its ``serve_miss`` workload
sends every request with fresh initial scores, so each one misses the
slate cache and goes through a batched RAPID forward while the cache
inserts and evicts.  This test runs the tiny preset (300 requests, ~2 s)
in a subprocess and gates the absolute numbers a deployed re-ranker is
held to: a p99 (``latency_tail_ms``) within 50 ms and at least 300
requests per second.

The benchmark drives the service in drain mode (its closed-loop clients
serve a round once every client waits on a miss), not on the real-time
background dispatcher, so these gates time the request path and the
forward pass, not the dispatcher's window timer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import run
_, _, result = run.run("serve_miss", seed=3, seconds=1, trace=False, tiny=True)
print(json.dumps(result, default=float))
"""


def test_tiny_serve_miss_meets_latency_and_throughput_gates():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT / "perfbench",
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"], result
    assert result["failed"] == 0, result
    assert metrics["latency_tail_ms"] <= 50.0, metrics
    assert metrics["throughput_per_s"] >= 300.0, metrics
