"""Seq2Slate — pointer-network re-ranking (Bello et al., 2019; extension).

Cited as reference [1] in the paper's related work: an encoder-decoder
sequence model that *generates* the re-ranked list item by item, pointing
at the next candidate with an attention distribution over the not-yet-
placed items.  We implement the one-step-decoder variant trained with the
cross-entropy "teacher forcing on clicks" objective: at each decoding step
the pointer distribution is pushed toward the clicked items remaining in
the candidate set.

Seq2Slate is an extra baseline beyond the paper's Table II zoo; it is
relevance-oriented (no explicit diversity term), so the expected behavior
matches DLCM/PRM: utility above Init, diversity near the relevance group.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population
from ..nn import Tensor
from .neural import NeuralReranker, list_input_features

__all__ = ["Seq2SlateReranker"]


class _PointerNetwork(nn.Module):
    """GRU encoder + attention pointer decoder."""

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.encoder = nn.GRU(input_dim, hidden, rng=rng)
        self.decoder_cell = nn.GRUCell(hidden, hidden, rng=rng)
        self.pointer_query = nn.Linear(hidden, hidden, rng=rng)
        self.pointer_key = nn.Linear(hidden, hidden, rng=rng)
        self.hidden = hidden

    def encode(self, batch: RerankBatch) -> tuple[Tensor, Tensor]:
        inputs = Tensor(list_input_features(batch))
        outputs, final = self.encoder(inputs, mask=batch.mask)
        return outputs, final

    def pointer_logits(self, decoder_state: Tensor, memory: Tensor) -> Tensor:
        """(B, L) attention scores of the current step over the memory."""
        query = self.pointer_query(decoder_state)  # (B, h)
        keys = self.pointer_key(memory)  # (B, L, h)
        batch, hidden = query.shape
        return (keys * query.reshape(batch, 1, hidden)).sum(axis=2) * (
            1.0 / np.sqrt(self.hidden)
        )

    def forward(self, batch: RerankBatch) -> Tensor:
        """One-step decoding: a single pointer pass scores every item.

        Training uses the richer multi-step loss in the reranker; at
        inference the one-step pointer scores already define the order
        (higher = earlier), matching Seq2Slate's fast inference mode.
        """
        memory, final = self.encode(batch)
        state = self.decoder_cell(final)
        return self.pointer_logits(state, memory)


class Seq2SlateReranker(NeuralReranker):
    """Pointer-network re-ranker trained with stepwise click pointing.

    Parameters mirror :class:`NeuralReranker`; ``decode_steps`` is how many
    teacher-forced pointer steps contribute to each list's training loss.
    """

    name = "seq2slate"
    loss = "listwise"  # fallback; the custom fit below is the real loss

    def __init__(self, decode_steps: int = 5, **kwargs) -> None:
        super().__init__(**kwargs)
        self.decode_steps = decode_steps

    def build_network(self, catalog: Catalog, population: Population) -> nn.Module:
        input_dim = (
            population.feature_dim + catalog.feature_dim + catalog.num_topics + 1
        )
        return _PointerNetwork(
            input_dim, self.hidden, np.random.default_rng(self.seed)
        )

    # ------------------------------------------------------------------
    def _stepwise_loss(self, batch: RerankBatch) -> Tensor:
        """Teacher-forced pointer cross entropy over ``decode_steps`` steps.

        At each step the pointer should place one of the *remaining
        clicked* items; pointed-at positions are removed from the
        candidate mask for subsequent steps (teacher forcing follows the
        clicked-first oracle order).
        """
        network: _PointerNetwork = self.network  # type: ignore[assignment]
        memory, final = network.encode(batch)
        state = final
        available = batch.mask.copy()
        remaining_clicks = (batch.clicks > 0.5) & batch.training_mask
        total: Tensor | None = None
        steps = 0
        for _ in range(min(self.decode_steps, batch.list_length)):
            active_rows = (remaining_clicks & available).any(axis=1)
            if not active_rows.any():
                break
            logits = network.pointer_logits(state, memory)
            log_probs = nn.functional.masked_softmax(
                logits, available
            ).clip(1e-12, 1.0).log()
            # Target: uniform over the remaining clicked items of each row.
            target = (remaining_clicks & available).astype(np.float64)
            row_totals = target.sum(axis=1, keepdims=True)
            target = np.divide(
                target, row_totals, out=np.zeros_like(target), where=row_totals > 0
            )
            step_loss = -(Tensor(target) * log_probs).sum(axis=1)
            step_loss = (step_loss * Tensor(active_rows.astype(np.float64))).sum() * (
                1.0 / max(float(active_rows.sum()), 1.0)
            )
            total = step_loss if total is None else total + step_loss
            steps += 1
            # Teacher forcing: consume the highest-probability clicked item.
            probs = np.where(
                remaining_clicks & available, log_probs.numpy(), -np.inf
            )
            chosen = probs.argmax(axis=1)
            rows = np.flatnonzero(active_rows)
            available[rows, chosen[rows]] = False
            remaining_clicks[rows, chosen[rows]] = False
            # Advance the decoder with the pooled memory of chosen items.
            chosen_repr = memory[np.arange(batch.batch_size), chosen, :]
            state = network.decoder_cell(chosen_repr, state)
        if total is None:
            return Tensor(np.zeros(()))
        return total * (1.0 / steps)

    def rerank(self, batch: RerankBatch) -> np.ndarray:
        """Sequential pointer decoding (Seq2Slate's generation mode).

        At each position the decoder points at the best remaining item,
        consumes its encoder representation, and advances the state —
        matching how the training loss was computed.
        """
        if self.network is None:
            raise RuntimeError("fit seq2slate before reranking")
        network: _PointerNetwork = self.network  # type: ignore[assignment]
        was_training = network.training
        network.eval()
        try:
            with nn.no_grad():
                memory, final = network.encode(batch)
                state = network.decoder_cell(final)
                available = batch.mask.copy()
                order = np.full(
                    (batch.batch_size, batch.list_length), -1, dtype=np.int64
                )
                for position in range(batch.list_length):
                    if not available.any():
                        break
                    logits = network.pointer_logits(state, memory).numpy()
                    logits = np.where(available, logits, -np.inf)
                    rows_active = available.any(axis=1)
                    chosen = logits.argmax(axis=1)
                    rows = np.flatnonzero(rows_active)
                    order[rows, position] = chosen[rows]
                    available[rows, chosen[rows]] = False
                    chosen_repr = memory[
                        np.arange(batch.batch_size), chosen, :
                    ]
                    state = network.decoder_cell(chosen_repr, state)
        finally:
            network.train(was_training)
        # Fill any unassigned slots (padded positions) in index order.
        for row in range(batch.batch_size):
            used = set(order[row][order[row] >= 0].tolist())
            rest = [i for i in range(batch.list_length) if i not in used]
            order[row][order[row] < 0] = np.asarray(rest, dtype=np.int64)
        return order

    def fit(self, requests, catalog, population, histories, timings=None):
        from ..data.batching import iterate_batches

        if self.network is None:
            self.network = self.build_network(catalog, population)
        optimizer = nn.Adam(
            self.network.parameters(), lr=self.lr, weight_decay=self.weight_decay
        )
        self.network.train()
        self.training_losses = []
        for epoch in range(self.epochs):
            epoch_losses = []
            for batch in iterate_batches(
                requests,
                catalog,
                population,
                histories,
                batch_size=self.batch_size,
                shuffle=True,
                seed=self.seed + epoch,
                topic_history_length=self.topic_history_length,
                flat_history_length=self.flat_history_length,
            ):
                import time as _time

                start = _time.perf_counter()
                optimizer.zero_grad()
                loss = self._stepwise_loss(batch)
                loss.backward()
                nn.clip_grad_norm(self.network.parameters(), self.grad_clip)
                optimizer.step()
                if timings is not None:
                    timings.observe(1000.0 * (_time.perf_counter() - start))
                epoch_losses.append(loss.item())
            self.training_losses.append(float(np.mean(epoch_losses)))
        return self
