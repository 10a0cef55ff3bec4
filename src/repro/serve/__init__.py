"""Online serving layer: batched multi-tenant re-ranking behind a cache.

The deployed systems RAPID competes with (PRM at Taobao, Huawei's live
diversified re-ranker) coalesce concurrent user requests into batched
forward passes behind strict latency budgets.  This package turns the
hardened library into that serving system:

- :mod:`repro.serve.clock` — :class:`ManualClock`, the injectable
  virtual clock every serving component accepts so coalescing windows,
  TTL expiry, and closed-loop traffic replay deterministically in tests;
- :mod:`repro.serve.cache` — :class:`SlateCache`, a TTL + LRU slate
  cache keyed on the full request identity ``(tenant, user, identity,
  candidates, initial scores)`` with invalidation-on-history-update;
- :mod:`repro.serve.batcher` — :class:`BatcherCore`, the sans-io
  coalescing state machine (group by ``(tenant, list_length)``, close on
  size or window, bounded admission queue);
- :mod:`repro.serve.service` — :class:`RerankService`, the asyncio
  request loop wiring admission control → cache → batcher → batched
  ``Reranker.rerank`` (typically a
  :class:`~repro.resilience.degrade.ResilientReranker`) → ``repro.obs``;
- :mod:`repro.serve.loadgen` — :class:`ZipfianWorkload`, seeded Zipfian
  request traffic over millions of distinct virtual users.  The serving
  benchmark is the repository benchmark's ``serve_hot`` and
  ``serve_miss`` workloads (``perfbench/run.py``), which drive it.

See DESIGN.md §11 for the architecture and TESTING.md for the
fake-clock/seeded-scheduler test contract.
"""

from .batcher import Batch, BatcherCore, QueueFullError
from .cache import SlateCache
from .clock import ManualClock
from .loadgen import ZipfianWorkload
from .service import (
    RerankService,
    ServeRequest,
    ServeResult,
    ServiceOverloaded,
    ServingTenant,
)

__all__ = [
    "Batch",
    "BatcherCore",
    "QueueFullError",
    "SlateCache",
    "ManualClock",
    "ZipfianWorkload",
    "RerankService",
    "ServeRequest",
    "ServeResult",
    "ServiceOverloaded",
    "ServingTenant",
]
