"""The inference engine: one float32, row-exact path for every consumer.

Training (:meth:`~voyager.model.HierarchicalModel.forward_sequence`)
builds the full backprop cache on every call — exactly what a
simulator or serving hot path must not pay.  This module is the
inference-only counterpart, and the simulator, the distiller, the
server and the shard pool all predict through it:

- :class:`LSTMState` — an explicit ``(h, c)`` pair that can be carried
  incrementally, snapshotted, stacked across streams and advanced one
  access at a time;
- :class:`InferenceEngine` — cache-free single-step state updates,
  head logits, argmax / ``argpartition`` top-k prediction,
  :meth:`~InferenceEngine.segment_states` (every trace position's
  carried state in one batched scan, resetting every ``seq_len``
  accesses, mirroring the training segmentation) and the greedy
  :meth:`~InferenceEngine.rollout`, which continues a carried state one
  cell step between consecutive candidates.  A prediction of ``k``
  candidates therefore costs ``k`` cell evaluations in all: the one
  that consumed the access and ``k - 1`` lookahead steps.

The engine is a float32 snapshot of the float64 training weights
(:data:`DTYPE`), taken when it is built: a later in-place change to
the model does not reach it.  Three properties make every batched call
answer each row exactly as a batch-width-1 call would:

- every matmul is :func:`_rowwise_matmul`, one stacked call of
  width-1 products, so no row's bits depend on its batch;
- the page-aware offset attention depends only on the ``(page,
  offset)`` pair it embeds, so the engine tabulates it once over every
  pair (:func:`~voyager.embeddings.page_aware_offset_table`) and each
  access's features are three gathers;
- every other op (gate nonlinearities, argmax) is elementwise or per
  row.

So the simulator's whole-trace scan, the server's cross-stream
micro-batches and a stream replayed alone carry identical states by
construction, and a batch may be cut into row blocks freely.  Feeding a
segment one access at a time reproduces, state for state, the training
forward run at batch width 1 on a float32 copy of the same parameters
(pinned in ``tests/test_infer.py`` and
``tests/test_sequence_train.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from voyager.embeddings import page_aware_offset_table
from voyager.model import (
    HierarchicalModel,
    _lstm_activate,
    softmax,
    topk_from_logits,
)
from voyager.vocab import OOV_ID

#: The one inference dtype.  Training, checkpoints and distilled tables
#: stay float64; the engine down-casts its snapshot once.
DTYPE = np.float32


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with every row computed as its own ``(1, K) @ (K, N)``.

    BLAS chooses different kernels — and different summation orders —
    for different batch heights, so a batched ``(B, K) @ (K, N)``
    product (gemm) does not reproduce its rows' width-1 results (gemv)
    bit for bit; for an odd ``N`` a row's gemm result can even change
    with the batch height.  Stacking the rows as ``(B, 1, K)`` makes
    NumPy's matmul gufunc issue, in C, the same gemv per row that a
    standalone width-1 call issues, so each row keeps its bits while
    the batch pays one Python-level call.  A single row takes the plain
    product, which is that same gemv without the stacking.
    ``tests/test_infer.py`` pins both at serving shapes; every matmul
    of the engine goes through here.
    """
    if x.shape[0] == 1:
        return x @ w
    return np.matmul(x[:, None, :], w)[:, 0, :]


@dataclass
class LSTMState:
    """Carried ``(h, c)`` recurrent state for a batch of sequences.

    The engine never writes a state's arrays in place: every method
    returns fresh arrays.  A holder may therefore keep a row *view*
    (``h[i : i + 1]``) of a batched state instead of a copy — the
    serving layer's sessions do — and it stays valid for as long as
    nobody else writes into the batch it views.
    """

    h: np.ndarray  # (B, hidden)
    c: np.ndarray  # (B, hidden)

    @property
    def batch(self) -> int:
        return self.h.shape[0]

    def copy(self) -> "LSTMState":
        return LSTMState(h=self.h.copy(), c=self.c.copy())

    @classmethod
    def stack(cls, states: Sequence["LSTMState"]) -> "LSTMState":
        """Concatenate states row-wise into one batched state.

        Rows are copied bit-for-bit, so a batched
        :meth:`InferenceEngine.step` over the stack advances every
        constituent exactly as a separate step would — the gather half
        of the serving layer's cross-stream micro-batching.
        """
        if not states:
            raise ValueError("cannot stack zero states")
        return cls(
            h=np.concatenate([s.h for s in states], axis=0),
            c=np.concatenate([s.c for s in states], axis=0),
        )


class InferenceEngine:
    """Cache-free incremental inference over a snapshot of a model.

    Built from a trained model, the engine keeps a float32 copy of its
    parameters and the model's offset attention tabulated over every
    ``(page, offset)`` pair; nothing it holds aliases the model.  All
    methods are functional: states are returned, never mutated in
    place, so a state can be snapshotted by reference and rolled out
    without disturbing the online stream.  Every batched call answers
    each row bit for bit as the same row driven alone would (see the
    module docstring).
    """

    def __init__(self, model: HierarchicalModel):
        self.config = model.config
        self.params: Dict[str, np.ndarray] = {
            k: v.astype(DTYPE) for k, v in model.params.items()
        }
        p = self.params
        self.offset_attention = page_aware_offset_table(
            p["offset_embed"], p["w_query"], p["page_embed"]
        )

    # ------------------------------------------------------------------
    # features and state construction
    # ------------------------------------------------------------------
    def feature_step(
        self,
        pc_ids: np.ndarray,  # (B,)
        page_ids: np.ndarray,  # (B,)
        offset_ids: np.ndarray,  # (B,)
    ) -> np.ndarray:
        """Embed one access per row: ``(B,)`` ids -> ``(B, 3d)`` features.

        ``[pc_embed[pc] | page_embed[page] | attention[page, offset]]``,
        gathered into one array: per row, the training forward's
        embedding and attention block.  Features carry no recurrence,
        so a caller may embed many accesses (of one trace, or of many
        streams) in one batched call and feed the rows to
        :meth:`step_from_features` one at a time.
        """
        d = self.config.embed_dim
        x = np.empty((len(pc_ids), 3 * d), dtype=DTYPE)
        x[:, :d] = self.params["pc_embed"][pc_ids]
        x[:, d : 2 * d] = self.params["page_embed"][page_ids]
        x[:, 2 * d :] = self.offset_attention[page_ids, offset_ids]
        return x

    def load_state(self, h: np.ndarray, c: np.ndarray) -> LSTMState:
        """A stored single-row ``(h, c)`` as a state this engine serves.

        Raises :class:`ValueError` unless both arrays are one row of
        the engine's dtype and hidden size: a state of another dtype
        or model would silently change, or break, every answer after
        it.
        """
        want = (1, self.config.hidden_dim)
        for name, value in (("h", h), ("c", c)):
            if value.dtype != DTYPE or value.shape != want:
                raise ValueError(
                    f"state {name} has dtype {value.dtype} and shape "
                    f"{value.shape}; this engine serves dtype "
                    f"{np.dtype(DTYPE)} and shape {want}"
                )
        return LSTMState(h=h, c=c)

    def init_state(self, batch: int = 1) -> LSTMState:
        """All-zero state for ``batch`` independent sequences."""
        h_dim = self.config.hidden_dim
        return LSTMState(
            h=np.zeros((batch, h_dim), dtype=DTYPE),
            c=np.zeros((batch, h_dim), dtype=DTYPE),
        )

    def step(
        self,
        state: LSTMState,
        pc_ids: np.ndarray,  # (B,)
        page_ids: np.ndarray,  # (B,)
        offset_ids: np.ndarray,  # (B,)
    ) -> LSTMState:
        """Advance every row of ``state`` by one observed access."""
        x_t = self.feature_step(pc_ids, page_ids, offset_ids)
        return self.step_from_features(state, x_t)

    def step_from_features(
        self,
        state: LSTMState,
        x_t: np.ndarray,  # (B, 3d) precomputed access features
    ) -> LSTMState:
        """Advance ``state`` by one access whose features are precomputed.

        :meth:`step` is exactly ``feature_step`` + this, so a caller
        that embeds many pending accesses in one batched
        :meth:`feature_step` call (the serving layer does, across
        streams) and feeds each row through here reproduces serial
        :meth:`step` bit for bit.
        """
        # Same association as HierarchicalModel.forward_sequence:
        # (x @ w_x + h @ w_h) + b, with in-place adds.
        a = _rowwise_matmul(x_t, self.params["w_x"])
        a += _rowwise_matmul(state.h, self.params["w_h"])
        a += self.params["b_lstm"]
        h, c, *_ = _lstm_activate(a, state.c, state.h.shape[-1])
        return LSTMState(h=h, c=c)

    def segment_states(self, x: np.ndarray, seq_len: int) -> LSTMState:
        """Carried state at *every* trace position, one batched scan.

        ``x`` holds the ``(n, 3d)`` features of ``n`` consecutive
        accesses.  The trace is tiled into segments of ``seq_len``
        accesses starting at position 0 — exactly the segmentation
        ``build_sequence_dataset`` trains on — and the LSTM runs each
        segment from a zero state, all segments advancing in one
        batched step per within-segment offset.  Row ``p`` of the
        returned state is the state *after* consuming access ``p``
        within its segment, i.e. the state a sequence-trained model
        predicts access ``p + 1`` from.

        Cost is ``n`` cell evaluations total, batched ``seq_len`` at a
        time.  ``seq_len`` is the model's ``ModelConfig.seq_len``; the
        server applies the same reset rule one access at a time.
        """
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        n = x.shape[0]
        if n == 0:
            return self.init_state(0)
        h_dim = self.config.hidden_dim
        starts = np.arange(0, n, seq_len)
        h_all = np.empty((n, h_dim), dtype=DTYPE)
        c_all = np.empty((n, h_dim), dtype=DTYPE)
        state = self.init_state(starts.shape[0])
        for t in range(min(seq_len, n)):
            pos = starts + t
            mask = pos < n
            # The ragged tail segment keeps stepping on a clamped
            # feature, but its rows are masked out of every write past
            # the trace end, so the garbage never lands.
            state = self.step_from_features(
                state, x[np.minimum(pos, n - 1)]
            )
            h_all[pos[mask]] = state.h[mask]
            c_all[pos[mask]] = state.c[mask]
        return LSTMState(h=h_all, c=c_all)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def logits(self, state: LSTMState) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(page_logits, offset_logits)`` for a state."""
        return (
            _rowwise_matmul(state.h, self.params["w_page"])
            + self.params["b_page"],
            _rowwise_matmul(state.h, self.params["w_offset"])
            + self.params["b_offset"],
        )

    def probs(self, state: LSTMState) -> Tuple[np.ndarray, np.ndarray]:
        """Softmax head distributions for a state."""
        page_logits, offset_logits = self.logits(state)
        return softmax(page_logits), softmax(offset_logits)

    def predict(self, state: LSTMState) -> Tuple[np.ndarray, np.ndarray]:
        """Argmax ``(page_ids, offset_ids)`` per row, no softmax."""
        page_logits, offset_logits = self.logits(state)
        return page_logits.argmax(axis=-1), offset_logits.argmax(axis=-1)

    def predict_topk(
        self, state: LSTMState, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(page_ids, offset_ids)`` per row via argpartition."""
        page_logits, offset_logits = self.logits(state)
        return (
            topk_from_logits(page_logits, k),
            topk_from_logits(offset_logits, k),
        )

    # ------------------------------------------------------------------
    # rollout
    # ------------------------------------------------------------------
    def rollout(
        self,
        state: LSTMState,
        pc_ids: np.ndarray,  # (B,) pc id fed at every pseudo step
        steps: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Greedy state-continuation lookahead for every row at once.

        From a snapshot ``state``, repeatedly take the argmax
        ``(page, offset)`` prediction and feed it back as the next
        pseudo-access (the PC slot repeats ``pc_ids``), advancing the
        carried state — one LSTM step per lookahead step.  Carried
        state is what the model trains on, so this continuation is both
        the cheap and the faithful rollout; the simulator, the
        distiller and the server all predict through it.

        Returns ``(pages, offsets, valid)`` of shape ``(B, steps)``;
        ``valid[b, j]`` is False from the first step where row ``b``
        predicted the OOV page onward — the model cannot name a
        concrete page past that horizon.

        ``state`` is not mutated, so callers may roll out from a live
        online state and keep streaming afterwards.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        B = state.batch
        pages = np.zeros((B, steps), dtype=np.int64)
        offsets = np.zeros((B, steps), dtype=np.int64)
        valid = np.zeros((B, steps), dtype=bool)
        alive = np.ones(B, dtype=bool)
        for j in range(steps):
            pid, oid = self.predict(state)
            alive = alive & (pid != OOV_ID)
            if not alive.any():
                break
            pages[:, j] = pid
            offsets[:, j] = oid
            valid[:, j] = alive
            if j + 1 < steps:
                state = self.step(state, pc_ids, pid, oid)
        return pages, offsets, valid


__all__ = ["DTYPE", "InferenceEngine", "LSTMState"]
