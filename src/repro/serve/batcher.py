"""Sans-io request coalescing: the deterministic core of the batcher.

The Bi-LSTM history encoder and the per-topic encoders batch naturally
across users (``data/batching.py`` pads and masks), so N concurrent
single-user requests cost barely more than one once coalesced.  This
module is the *decision logic only* — no event loop, no sleeps, no
threads — so every coalescing decision is a pure function of (arrival
order, injectable clock), replayable in tests with a
:class:`~repro.serve.clock.ManualClock` and a seeded arrival schedule.
The asyncio wrapper (:class:`~repro.serve.service.RerankService`) drives
it; tests drive it directly.

Rules, in decision order:

1. Requests group by an opaque ``key`` — the service uses
   ``(tenant, list_length)``: one tenant's model per forward pass, and
   equal-length lists so padding never changes a row's arrays relative
   to serving that request alone (the bitwise-identity contract).
2. A group *closes full* the moment it reaches ``max_batch_size``.
3. An open group *closes on window*: :meth:`due` releases it once the
   clock passes ``opened_at + max_wait_s`` (the window opens at the
   group's first request — later arrivals ride the remaining window and
   never extend it, so p99 queueing delay is bounded by ``max_wait_s``).
4. Admission control: at most ``max_pending`` requests may be queued;
   :meth:`submit` raises :class:`QueueFullError` beyond that and the
   caller sheds load (the service turns this into a rejection or a
   passthrough slate, per policy).

Telemetry: the ``serve.batch_size`` histogram (lifetime and windowed), the
``serve.batcher.{submitted,shed}`` counters, and the
``serve.batcher.pending`` gauge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..obs import get_registry

__all__ = ["Batch", "BatcherCore", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Admission control rejected a request: the pending queue is full."""

    def __init__(self, pending: int, max_pending: int) -> None:
        super().__init__(
            f"batcher queue full ({pending} pending >= {max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending


@dataclass
class Batch:
    """One closed group, ready for a batched forward pass."""

    key: Hashable
    seqs: list[int]  # submission sequence numbers, arrival order
    payloads: list  # caller payloads, same order
    opened_at: float
    closed_at: float
    reason: str  # "full" | "window" | "flush"

    @property
    def size(self) -> int:
        return len(self.seqs)


@dataclass
class _Group:
    opened_at: float
    seqs: list[int] = field(default_factory=list)
    payloads: list = field(default_factory=list)


class BatcherCore:
    """Deterministic coalescing state machine (see module docstring)."""

    def __init__(
        self,
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self.max_pending = max_pending
        self._clock = clock
        self._groups: dict[Hashable, _Group] = {}  # insertion = opening order
        self._ready: list[Batch] = []  # closed-full, awaiting collection
        self._pending = 0
        self._seq = 0

    # -- state ---------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests submitted but not yet released in a batch."""
        return self._pending

    def next_deadline(self) -> float | None:
        """Earliest instant a window close becomes due (None when idle).

        Full groups already sitting in the ready list are due *now*.
        """
        if self._ready:
            return self._clock()
        if not self._groups:
            return None
        oldest = min(group.opened_at for group in self._groups.values())
        return oldest + self.max_wait_s

    # -- submission ----------------------------------------------------
    def submit(self, key: Hashable, payload) -> int:
        """Queue one request; returns its sequence number.

        Raises :class:`QueueFullError` when admission control rejects it.
        """
        registry = get_registry()
        if self._pending >= self.max_pending:
            registry.counter("serve.batcher.shed").inc()
            raise QueueFullError(self._pending, self.max_pending)
        seq = self._seq
        self._seq += 1
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(opened_at=self._clock())
        group.seqs.append(seq)
        group.payloads.append(payload)
        self._pending += 1
        registry.counter("serve.batcher.submitted").inc()
        registry.gauge("serve.batcher.pending").set(self._pending)
        if len(group.seqs) >= self.max_batch_size:
            self._close(key, group, "full")
        return seq

    # -- release -------------------------------------------------------
    def due(self) -> list[Batch]:
        """Release every closed-full group plus expired-window groups.

        Order is deterministic: full groups in closing order, then window
        groups in opening order.
        """
        now = self._clock()
        released = self._ready
        self._ready = []
        for key in [
            k
            for k, g in self._groups.items()
            if now - g.opened_at >= self.max_wait_s
        ]:
            released.append(self._close(key, self._groups[key], "window"))
        self._account(released)
        return released

    def flush(self) -> list[Batch]:
        """Release everything pending regardless of the clock (drain)."""
        released = self._ready
        self._ready = []
        for key in list(self._groups):
            released.append(self._close(key, self._groups[key], "flush"))
        self._account(released)
        return released

    # -- internals -----------------------------------------------------
    def _close(self, key: Hashable, group: _Group, reason: str) -> Batch:
        del self._groups[key]
        batch = Batch(
            key=key,
            seqs=group.seqs,
            payloads=group.payloads,
            opened_at=group.opened_at,
            closed_at=self._clock(),
            reason=reason,
        )
        if reason == "full":
            self._ready.append(batch)
        return batch

    def _account(self, released: list[Batch]) -> None:
        if not released:
            return
        registry = get_registry()
        for batch in released:
            self._pending -= batch.size
            registry.histogram("serve.batch_size").observe(batch.size)
        registry.gauge("serve.batcher.pending").set(self._pending)
