"""The repository benchmark's own smoke run, as a tier-1 test.

``perfbench/`` drives the library through public names (``enable_windowed``,
``use_fused``, ``use_infer`` and the traced method names); a refactor that
breaks one of them should fail here, not only when the benchmark runs.
The smoke run writes only under the git-ignored ``perfbench/out/``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    completed = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
