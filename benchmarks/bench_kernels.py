"""Microbenchmarks for the fused recurrent kernels (perf trajectory PR 2).

Times every fused op against the composed-op autograd graph it replaces
(``repro.testing.reference``, swapped in by ``kernels.use_fused(False)``) —
same shapes, same parameters, forward **and** backward per iteration — plus
an end-to-end RAPID train step, and publishes the machine-readable record
``BENCH_pr2.json`` (repo root) while appending it to the cross-PR
trajectory in ``benchmarks/results/trajectory.jsonl``.

Run::

    PYTHONPATH=src python benchmarks/bench_kernels.py

Set ``REPRO_BENCH_KERNEL_REPEATS`` to adjust sampling (default 200 for the
cell microbenchmarks).
"""

from __future__ import annotations

import gc
import os
import time

# before numpy: bench_utils pins BLAS to one thread
from bench_utils import publish_benchmark

import numpy as np

from repro import nn
from repro.nn import Tensor, kernels

BENCH_TAG = "pr2"

# Shapes mirror the "small" bench profile: batch 64 lists of length 15-20,
# hidden 16-32 — the regime the RAPID/DLCM/Seq2Slate hot loops live in.
CELL_BATCH = 64
CELL_HIDDEN = 32
SEQ_TIME = 20
SEQ_FEATURES = 24


def _repeats(default: int = 200) -> int:
    return int(os.environ.get("REPRO_BENCH_KERNEL_REPEATS", default))


def _time_ms(fn, repeats: int, warmup: int = 2) -> list[float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(1000.0 * (time.perf_counter() - start))
    return samples


def _summary(samples: list[float]) -> tuple[float, float]:
    ordered = np.sort(samples)
    return float(np.median(ordered)), float(ordered[int(0.95 * (len(ordered) - 1))])


def _compare(op: str, make_step, repeats: int, scale: float = 1.0) -> dict:
    """Time ``make_step()`` under both dispatch paths and summarize.

    Samples are interleaved in blocks with GC paused so drift in background
    load hits both paths equally; ``scale`` divides every sample (e.g. the
    number of timesteps, to report per-step cost of a whole-sequence run).
    """
    fused: list[float] = []
    composed: list[float] = []
    ratios: list[float] = []
    blocks = 8
    per_block = max(repeats // blocks, 5)
    for flag in (True, False):
        with kernels.use_fused(flag):
            for _ in range(10):
                make_step()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(blocks):
            with kernels.use_fused(True):
                block_fused = _time_ms(make_step, per_block, warmup=2)
            with kernels.use_fused(False):
                block_composed = _time_ms(make_step, per_block, warmup=2)
            fused += block_fused
            composed += block_composed
            # Per-block ratio of minimum times: the two paths run back to
            # back inside one block so load drift across the run cancels,
            # and the within-block minimum (timeit-style) discards samples
            # inflated by preemption rather than averaging them in.
            ratios.append(min(block_composed) / min(block_fused))
    finally:
        if gc_was_enabled:
            gc.enable()
    fused_median, fused_p95 = _summary([s / scale for s in fused])
    composed_median, composed_p95 = _summary([s / scale for s in composed])
    return {
        "op": op,
        "median_ms": fused_median,
        "p95_ms": fused_p95,
        "unfused_median_ms": composed_median,
        "unfused_p95_ms": composed_p95,
        "speedup_vs_unfused": float(np.median(ratios)),
    }


# ----------------------------------------------------------------------
# Cell-step microbenchmarks: one timestep, forward + backward.
# ----------------------------------------------------------------------


def bench_lstm_cell(repeats: int) -> dict:
    rng = np.random.default_rng(0)
    gates_data = rng.normal(size=(CELL_BATCH, 4 * CELL_HIDDEN))
    h_data = rng.normal(size=(CELL_BATCH, CELL_HIDDEN))
    c_data = rng.normal(size=(CELL_BATCH, CELL_HIDDEN))
    ones = np.ones((CELL_BATCH, CELL_HIDDEN))

    def step():
        gates = Tensor(gates_data, requires_grad=True)
        h = Tensor(h_data, requires_grad=True)
        c = Tensor(c_data, requires_grad=True)
        h_next, c_next = Tensor.lstm_cell_fused(gates, h, c)
        # Explicit upstream gradient: exercises both output closures
        # without timing a reduction that is identical on both paths.
        (h_next + c_next).backward(ones)

    return _compare("lstm_cell_fused", step, repeats)


def bench_gru_cell(repeats: int) -> dict:
    rng = np.random.default_rng(1)
    gi_data = rng.normal(size=(CELL_BATCH, 3 * CELL_HIDDEN))
    gh_data = rng.normal(size=(CELL_BATCH, 3 * CELL_HIDDEN))
    h_data = rng.normal(size=(CELL_BATCH, CELL_HIDDEN))
    ones = np.ones((CELL_BATCH, CELL_HIDDEN))

    def step():
        gi = Tensor(gi_data, requires_grad=True)
        gh = Tensor(gh_data, requires_grad=True)
        h = Tensor(h_data, requires_grad=True)
        Tensor.gru_cell_fused(gi, gh, h).backward(ones)

    return _compare("gru_cell_fused", step, repeats)


# ----------------------------------------------------------------------
# Step benchmarks (acceptance metric): one timestep of the sequence layer
# scan — fused scan kernel vs the composed per-step reference graph.
# Reported per-step (total layer forward+backward time / T).
# ----------------------------------------------------------------------


def _sequence_bench(op: str, layer, repeats: int, scale: float = 1.0) -> dict:
    rng = np.random.default_rng(2)
    x_data = rng.normal(size=(CELL_BATCH, SEQ_TIME, SEQ_FEATURES))
    mask = rng.random((CELL_BATCH, SEQ_TIME)) < 0.8
    mask[:, 0] = True

    def step():
        layer.zero_grad()
        out = layer(Tensor(x_data), mask=mask)
        out = out[0] if isinstance(out, tuple) else out
        out.sum().backward()

    return _compare(op, step, repeats, scale=scale)


def bench_lstm_step(repeats: int) -> dict:
    layer = nn.LSTM(SEQ_FEATURES, CELL_HIDDEN, rng=np.random.default_rng(3))
    return _sequence_bench("lstm_step", layer, repeats, scale=SEQ_TIME)


def bench_gru_step(repeats: int) -> dict:
    layer = nn.GRU(SEQ_FEATURES, CELL_HIDDEN, rng=np.random.default_rng(4))
    return _sequence_bench("gru_step", layer, repeats, scale=SEQ_TIME)


# ----------------------------------------------------------------------
# Sequence-layer benchmarks: full scan, forward + backward.
# ----------------------------------------------------------------------


def bench_lstm_sequence(repeats: int) -> dict:
    layer = nn.LSTM(SEQ_FEATURES, CELL_HIDDEN, rng=np.random.default_rng(3))
    return _sequence_bench("lstm_sequence", layer, repeats)


def bench_gru_sequence(repeats: int) -> dict:
    layer = nn.GRU(SEQ_FEATURES, CELL_HIDDEN, rng=np.random.default_rng(4))
    return _sequence_bench("gru_sequence", layer, repeats)


def bench_bilstm_sequence(repeats: int) -> dict:
    layer = nn.BiLSTM(SEQ_FEATURES, CELL_HIDDEN // 2, rng=np.random.default_rng(5))
    return _sequence_bench("bilstm_sequence", layer, repeats)


# ----------------------------------------------------------------------
# End-to-end: one RAPID train step (forward + backward + Adam update).
# ----------------------------------------------------------------------


def bench_train_step(repeats: int) -> dict:
    from repro.core.rapid import RapidConfig, make_rapid_variant
    from repro.data import RankingRequest, build_batch, make_taobao_world

    world = make_taobao_world("tiny", seed=0)
    histories = world.sample_histories()
    rng = np.random.default_rng(0)
    requests = []
    for _ in range(32):
        items = rng.choice(world.config.num_items, size=10, replace=False)
        clicks = (rng.random(10) < 0.3).astype(float)
        requests.append(
            RankingRequest(
                int(rng.integers(world.config.num_users)),
                items,
                rng.normal(size=10),
                clicks=clicks,
            )
        )
    batch = build_batch(requests, world.catalog, world.population, histories)
    config = RapidConfig(
        user_dim=world.population.feature_dim,
        item_dim=world.catalog.feature_dim,
        num_topics=world.catalog.num_topics,
        hidden=16,
        seed=0,
    )
    model = make_rapid_variant("rapid-pro", config)
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    noise = np.random.default_rng(7)
    clicks = Tensor(batch.clicks)
    weights = Tensor(batch.training_mask.astype(np.float64))

    def step():
        optimizer.zero_grad()
        probs = model(batch, rng=noise).clip(1e-7, 1.0 - 1e-7)
        loss = -(
            (clicks * probs.log() + (1.0 - clicks) * (1.0 - probs).log()) * weights
        ).sum() * (1.0 / max(float(batch.training_mask.sum()), 1.0))
        loss.backward()
        optimizer.step()

    return _compare("rapid_train_step", step, max(repeats // 4, 20))


def run_all(repeats: int | None = None) -> dict:
    repeats = repeats if repeats is not None else _repeats()
    # Cell and full-sequence rows run first: they double as process burn-in
    # (allocator pools, adaptive-interpreter specialization) so the per-step
    # acceptance rows measure steady-state cost rather than cold-start cost.
    seq_repeats = max(repeats // 2, 20)
    rows = [
        bench_lstm_cell(repeats),
        bench_gru_cell(repeats),
        bench_lstm_sequence(seq_repeats),
        bench_gru_sequence(seq_repeats),
        bench_lstm_step(seq_repeats),
        bench_gru_step(seq_repeats),
        bench_bilstm_sequence(seq_repeats),
        bench_train_step(repeats),
    ]
    return {
        "benchmark": "fused_recurrent_kernels",
        "shapes": {
            "cell": [CELL_BATCH, CELL_HIDDEN],
            "sequence": [CELL_BATCH, SEQ_TIME, SEQ_FEATURES],
        },
        "notes": {
            "lstm_step": "per-timestep cost of the LSTM layer scan "
            "(total forward+backward time / T); unfused = use_fused(False) "
            "composed per-step reference graph",
            "gru_step": "per-timestep cost of the GRU layer scan",
            "lstm_cell_fused": "isolated single fused cell node vs the "
            "composed cell subgraph, same precomputed gate leaves",
        },
        "repeats": repeats,
        "ops": rows,
    }


def main() -> None:
    payload = run_all()
    path = publish_benchmark(BENCH_TAG, payload)
    header = (
        f"{'op':<20} {'fused med ms':>12} {'fused p95':>10} "
        f"{'unfused med':>12} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in payload["ops"]:
        print(
            f"{row['op']:<20} {row['median_ms']:>12.3f} {row['p95_ms']:>10.3f} "
            f"{row['unfused_median_ms']:>12.3f} {row['speedup_vs_unfused']:>7.2f}x"
        )
    print(f"\nwrote {path}")
    lstm_row = next(row for row in payload["ops"] if row["op"] == "lstm_step")
    assert lstm_row["speedup_vs_unfused"] >= 3.0, (
        f"fused LSTM step speedup {lstm_row['speedup_vs_unfused']:.2f}x "
        "is below the 3x acceptance bar"
    )
    print("OK (fused LSTM step >= 3x)")


if __name__ == "__main__":
    main()
