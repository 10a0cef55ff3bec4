"""Drift check: Table II (taobao, lambda = 0.5) against its checked-in values.

A change that is bitwise on the Table-II path cannot move the table; one
that only moves last bits (a reordered sum, a split matmul) should not
move it at the printed precision either.  This regenerates the cell with
the default ``small`` profile (about 40 s on one core) and fails on every
value that differs from ``results/table2_taobao_lambda0.5.txt``.  Unlike
``test_table2_overall.py`` it does not rewrite the results file.

Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_table2_drift.py
"""

from __future__ import annotations

from bench_utils import RESULTS_DIR
from test_table2_overall import _run_cell

EXPECTED = RESULTS_DIR / "table2_taobao_lambda0.5.txt"


def parse_table(text: str) -> dict[tuple[str, str], str]:
    """``(model, column) -> printed value`` of a :func:`format_table` text."""
    lines = [line for line in text.splitlines() if line.strip()]
    columns = lines[1].split()
    cells = {}
    for line in lines[3:]:
        model, *values = line.split()
        assert len(values) == len(columns), line
        cells.update(((model, c), v) for c, v in zip(columns, values))
    return cells


def test_table2_taobao_lambda05_unchanged(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_PROFILE", "small")
    expected = parse_table(EXPECTED.read_text())
    got = parse_table(_run_cell("taobao", 0.5))
    assert got.keys() == expected.keys()
    drifted = {
        key: (want, got[key]) for key, want in expected.items() if got[key] != want
    }
    assert not drifted, f"{len(drifted)} of {len(expected)} values moved: {drifted}"
