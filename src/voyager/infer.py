"""Fast inference engine: incremental LSTM state, cache-free, batched.

Training (:meth:`~voyager.model.HierarchicalModel.forward_sequence`)
builds the full backprop cache on every call — exactly what a
simulator or serving hot path must not pay.  This module is the
inference-only counterpart:

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
  that consumed the access and ``k - 1`` lookahead steps;
- an optional float32 mode (``dtype=np.float32``) that halves memory
  traffic for throughput-oriented simulation;
- an optional ``row_exact`` mode that issues every batch-height-sensitive
  matmul as one stacked call of width-1 products, making batched calls
  bit-identical *per row* to serial calls — the foundation of the
  serving layer's cross-stream micro-batching (:mod:`voyager.serve`).

Equivalence guarantee: with ``dtype=np.float64`` (the default) the
engine shares the model's parameter arrays and performs the same
operations in the same order as the training forward, so feeding a
segment one access at a time through :meth:`InferenceEngine.step`
reproduces the training forward's state at every timestep bit for bit
(pinned in ``tests/test_sequence_train.py``), and a ``row_exact``
engine's batched rows equal serial batch-width-1 runs bit for bit
(pinned in ``tests/test_infer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from voyager.model import (
    HierarchicalModel,
    _lstm_activate,
    softmax,
    step_features,
    topk_from_logits,
)
from voyager.vocab import OOV_ID


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with every row computed as its own ``(1, K) @ (K, N)``.

    BLAS chooses different kernels — and different summation orders —
    for different batch heights, so a batched ``(B, K) @ (K, N)``
    product (gemm) does not reproduce its rows' width-1 results (gemv)
    bit for bit; for an odd ``N`` a row's gemm result can even change
    with the batch height.  Stacking the rows as ``(B, 1, K)`` makes
    NumPy's matmul gufunc issue, in C, the same gemv per row that a
    standalone width-1 call issues, so each row keeps its bits while
    the batch pays one Python-level call.  ``tests/test_infer.py``
    pins this at serving shapes; it is what lets the serving layer's
    cross-stream micro-batching stay bit-identical per stream
    (``row_exact=True`` mode below).
    """
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
    """Cache-free incremental inference over a trained model.

    In float64 mode the engine aliases the model's parameter arrays
    (zero copy, bit-identical results); in float32 mode it keeps a
    one-time down-cast copy.  All methods are functional: states are
    returned, never mutated in place, so a state can be snapshotted by
    reference and rolled out without disturbing the online stream.

    ``row_exact=True`` switches every batch-height-sensitive matmul to
    the stacked width-1 form (:func:`_rowwise_matmul`): one call per
    matmul whose every row carries bit-identical results to the same
    row driven through a ``row_exact=False`` engine at batch width 1.
    All other ops in the pipeline — embedding gathers, the attention
    einsums, gate nonlinearities — are already row-independent, so this
    is the one switch cross-stream micro-batching (:mod:`voyager.serve`)
    needs to stay bit-identical per stream.  Default off: single-stream
    and fixed-batch callers keep the fully batched BLAS calls (gemm),
    which is the faster kernel for a whole trace.
    """

    def __init__(
        self,
        model: HierarchicalModel,
        dtype=np.float64,
        row_exact: bool = False,
    ):
        self.config = model.config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {self.dtype}"
            )
        if self.dtype == np.dtype(np.float64):
            self.params: Dict[str, np.ndarray] = model.params
        else:
            self.params = {
                k: v.astype(self.dtype) for k, v in model.params.items()
            }
        self.row_exact = bool(row_exact)

    def _mm(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(B, K) @ (K, N)`` — stacked width-1 rows when ``row_exact``.

        Single rows take the plain matmul either way: at batch width 1
        the two forms are the same gemv.
        """
        if not self.row_exact or x.shape[0] == 1:
            return x @ w
        return _rowwise_matmul(x, w)

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

        Features carry no recurrence, so a caller may embed many
        accesses (of one trace, or of many streams) in one batched call
        and feed the rows to :meth:`step_from_features` one at a time.
        """
        return step_features(self.params, pc_ids, page_ids, offset_ids)

    def init_state(self, batch: int = 1) -> LSTMState:
        """All-zero state for ``batch`` independent sequences."""
        h_dim = self.config.hidden_dim
        return LSTMState(
            h=np.zeros((batch, h_dim), dtype=self.dtype),
            c=np.zeros((batch, h_dim), dtype=self.dtype),
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
        a = self._mm(x_t, self.params["w_x"])
        a += self._mm(state.h, self.params["w_h"])
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
        h_all = np.empty((n, h_dim), dtype=self.dtype)
        c_all = np.empty((n, h_dim), dtype=self.dtype)
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
            self._mm(state.h, self.params["w_page"]) + self.params["b_page"],
            self._mm(state.h, self.params["w_offset"])
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


__all__ = ["InferenceEngine", "LSTMState"]
