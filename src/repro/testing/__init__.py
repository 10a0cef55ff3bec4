"""``repro.testing`` — reusable correctness layer for the RAPID stack.

The fused recurrent kernels (PR 2) and every future hot-path rewrite carry
hand-derived backward passes; a silent sign error or NaN there corrupts
every downstream table without failing any assertion.  This package gives
the test suite, the benchmarks, and future PRs one shared vocabulary for
catching such bugs automatically:

- :mod:`repro.testing.oracle` — differential-testing engine: run any
  function/Module on the fused kernels and on their composed references
  plus a central finite-difference oracle, and report max-ulp /
  relative-error divergence as a structured diff.  It holds the one
  table of fused-kernel cases (``ORACLE_CASES``), replayed both in
  float64 against the references and in float32 on the serving path;
- :mod:`repro.testing.reference` — the composed-op LSTM/GRU cell and scan
  graphs the fused kernels replace (``repro.nn.kernels.use_fused(False)``
  installs them under the fused op names for a block), the
  single-process lockstep trainer the ``repro.dist`` fleet must equal
  bit for bit, the per-baseline Adam loop the list-wise neural baselines
  must equal on ``train_rapid``, the per-row ``build_batch`` and per-list evaluation
  that the whole-batch data path must match, and the per-pair DIN
  scoring and ``setdiff1d`` candidate sampler of the offline set-up;
- :mod:`repro.testing.fuzz` — autograd fuzzer: seeded random programs over
  the Tensor op vocabulary (broadcasting, slicing, reductions, the fused
  recurrent kernels) with greedy shrinking to a minimal reproducing
  program (``python -m repro.testing.fuzz --smoke``);
- :mod:`repro.testing.sanitize` — opt-in numerical sanitizer hooked at the
  same op-dispatch surface as the ``repro.obs`` profiler: traps NaN / Inf
  / denormal outputs and out-of-range gradients mid-graph with the
  originating op and shapes (``assert_finite()``,
  ``assert_deterministic(seed)``);
- :mod:`repro.testing.golden` — golden-slate regression store: snapshot
  re-ranker outputs (permutations + scores) to ``tests/golden/*.json``
  with tolerance-aware comparison and a ``--update-golden`` pytest flag.

See ``TESTING.md`` at the repo root for the test tiers and workflows.
"""

from .golden import GoldenMismatch, GoldenStore, MissingGolden
from .oracle import (
    DiffReport,
    DiffRow,
    DivergenceError,
    assert_equivalent,
    check_all_kernels,
    check_kernel,
    compare_arrays,
    differential_check,
    finite_difference_grad,
    max_ulp_diff,
)
from .sanitize import (
    NumericalError,
    assert_deterministic,
    assert_finite,
    disable_sanitizer,
    enable_sanitizer,
    is_sanitizer_enabled,
    sanitize,
)

__all__ = [
    "DiffReport",
    "DiffRow",
    "DivergenceError",
    "GoldenMismatch",
    "GoldenStore",
    "MissingGolden",
    "NumericalError",
    "assert_deterministic",
    "assert_equivalent",
    "assert_finite",
    "check_all_kernels",
    "check_kernel",
    "compare_arrays",
    "differential_check",
    "disable_sanitizer",
    "enable_sanitizer",
    "finite_difference_grad",
    "is_sanitizer_enabled",
    "max_ulp_diff",
    "sanitize",
]
