"""Smoke test of the benchmark itself: a tiny run of every workload.

Asserts that each workload, untraced and traced, passes its correctness
checks and emits every metric that ``BENCHMARK.json`` names, with the
unit it declares.  Takes well under a minute::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run as bench  # sets the thread pins and sys.path before numpy loads


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(bench.WORKLOADS), names
    for workload in names:
        for trace in (0, 1):
            outcome, record, result = bench.run(
                workload, seed=3, seconds=1, trace=bool(trace), tiny=True
            )
            json.dumps(record, default=float)
            assert result["correct"], (workload, trace, outcome.checks)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == expected[trace], (workload, trace, got)
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (name, entry)
            if trace:
                assert Path(record["chrome_trace"]["path"]).is_file()
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
