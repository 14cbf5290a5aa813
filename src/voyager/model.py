"""The hierarchical predictor: embeddings -> attention -> LSTM -> dual heads.

Pure-NumPy implementation with explicit backprop-through-time so the
model is deterministic under a fixed seed and runs anywhere.  The
architecture follows Shi et al. (ASPLOS 2021):

- PC, page and offset embeddings for each access;
- the offset embedding is page-aware via candidate attention
  (:mod:`voyager.embeddings`);
- the concatenated features feed a shared single-layer LSTM body whose
  state is carried from access to access;
- the hidden state after every access feeds two independent softmax
  heads, one over the page vocabulary and one over the 64 block
  offsets.

The model trains on contiguous ``seq_len``-access segments (truncated
BPTT, :mod:`voyager.train`) and every consumer serves it the same way:
state carried across accesses and reset to zero every ``seq_len``
accesses.  ``ModelConfig.seq_len`` records that period with the
weights, so a checkpoint carries its own reset rule.

Training targets are *distributions* (multi-label sets normalised to
sum to one), so the same cross-entropy machinery serves both plain
next-access and the spatial/co-occurrence labeling schemes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Tuple, Union

import numpy as np

from voyager.embeddings import (
    embedding_backward,
    embedding_forward,
    init_embedding,
    page_aware_offset_backward,
    page_aware_offset_forward,
)
from voyager.ioutil import atomic_savez, atomic_write_text
from voyager.traces import NUM_OFFSETS
from voyager.vocab import Vocab

#: Bumped whenever the checkpoint layout changes incompatibly.
#: v2: added ``format_version`` and ``vocab_hash`` metadata so hot-swap
#: (:mod:`voyager.adapt`) can reject incompatible weights before they
#: reach a live tick.  ``model_config`` later gained ``seq_len``; a v2
#: file written before that falls back to its top-level ``seq_len``
#: field, then to :data:`DEFAULT_SEQ_LEN`.
CHECKPOINT_SCHEMA_VERSION = 2

#: Segment length every profile, the CLI and the adaptation loop train
#: with, and the reset period of checkpoints that predate the field.
DEFAULT_SEQ_LEN = 32


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of :class:`HierarchicalModel`.

    ``seq_len`` is the training segment length, which is also the
    serving reset rule: the simulator, the distiller and the server
    restart a stream's LSTM state from zero every ``seq_len``
    accesses, counted from its first access.  ``history`` is accepted
    for compatibility with older configs and checkpoints; nothing
    reads it.
    """

    pc_vocab_size: int
    page_vocab_size: int
    num_offsets: int = NUM_OFFSETS
    embed_dim: int = 16
    hidden_dim: int = 32
    history: int = 8
    attention_candidates: int = 4
    seed: int = 0
    seq_len: int = DEFAULT_SEQ_LEN

    def __post_init__(self) -> None:
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")


def softmax(logits: np.ndarray) -> np.ndarray:
    out = logits - logits.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable logistic function.

    The naive ``1 / (1 + exp(-x))`` overflows ``np.exp`` for large
    negative ``x`` (|x| > ~709 in float64, far sooner in float32).
    ``exp(-|x|)`` only ever exponentiates non-positive values, so it
    cannot overflow in either direction; dividing ``1`` for ``x >= 0``
    and ``z`` otherwise by ``1 + z`` is the split-sign form,
    bit-identical to the naive one wherever the latter is safe
    (``x >= 0``).  The numerator is ``max(z, x >= 0)``: exactly ``1``
    where ``x >= 0`` (there ``z <= 1``) and exactly ``z`` elsewhere
    (``z >= 0``; a NaN stays NaN), without the branchy select of
    ``np.where``.  The result is built in ``out`` (which may
    be ``x`` itself: the LSTM cell activates its fresh pre-activation
    in place), so besides the sign mask the only temporary is the
    ``1 + z`` denominator.
    """
    positive = x >= 0
    z = np.abs(x, out=out)
    np.negative(z, out=z)
    np.exp(z, out=z)  # z = exp(-|x|)
    denom = z + 1.0
    np.maximum(z, positive, out=z)
    z /= denom
    return z


def _lstm_activate(
    a: np.ndarray,  # (B, 4h) pre-activation, overwritten
    c_prev: np.ndarray,  # (B, h)
    h_dim: int,
    out: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, ...]:
    """Gate nonlinearities shared by every LSTM entry point.

    Returns ``(h_new, c_new, i, f, g, o, tanh_c)``.  Factored out so
    the training forward (:meth:`HierarchicalModel.forward_sequence`)
    and the inference engine's cell step
    (:meth:`voyager.infer.InferenceEngine.step_from_features`) are
    bit-bound to each other by construction.

    ``a`` must be the caller's own fresh pre-activation: it is
    activated in place, so a 6,000-row inference batch needs no second
    ``(B, 4h)`` array.  Every column gets the sigmoid in one call
    (elementwise, so the i, f and o columns keep their bits); ``i``,
    ``f`` and ``o`` are views of ``a``, and the g block of ``a`` is
    left holding an unused sigmoid.  ``out``, when given, is the
    ``(g, c_new, tanh_c, h_new)`` arrays to write into; otherwise they
    are allocated.
    """
    g_out, c_out, tanh_out, h_out = (None,) * 4 if out is None else out
    h2, h3 = 2 * h_dim, 3 * h_dim
    g_g = np.tanh(a[:, h2:h3], out=g_out)  # before the sigmoid overwrites it
    _sigmoid(a, out=a)
    i_g, f_g, o_g = a[:, :h_dim], a[:, h_dim:h2], a[:, h3:]
    c_new = np.multiply(f_g, c_prev, out=c_out)
    c_new += i_g * g_g
    tanh_c = np.tanh(c_new, out=tanh_out)
    h_new = np.multiply(o_g, tanh_c, out=h_out)
    return h_new, c_new, i_g, f_g, g_g, o_g, tanh_c


def project_features(
    params: Dict[str, np.ndarray],
    x: np.ndarray,  # (B, H, 3d)
) -> np.ndarray:
    """Input projections ``x[:, t] @ w_x`` for every segment column.

    For ``B > 1`` the whole segment batch is projected in one fused
    ``(B*T, 3d) @ w_x`` matmul.  OpenBLAS blocks gemm over the *m*
    dimension, so stacking more rows does not change any row's dot
    products — the fused product is bit-identical to the per-column
    loop at every shape this repo ships, and an equivalence test pins
    that.  ``B == 1`` keeps the per-column loop: single-row products
    dispatch to a different (gemv) kernel whose reduction order differs
    from gemm's, so fusing would change bits exactly where the
    inference engine's single-row cell step (which also runs the gemv
    kernel) must stay bit-bound to this projection.
    """
    B, H = x.shape[0], x.shape[1]
    w_x = params["w_x"]
    if B > 1:
        flat = np.ascontiguousarray(x).reshape(B * H, -1)
        return (flat @ w_x).reshape(B, H, -1)
    ax = np.empty((B, H, w_x.shape[1]), dtype=x.dtype)
    for t in range(H):
        ax[:, t, :] = x[:, t, :] @ w_x
    return ax


def head_logits(
    params: Dict[str, np.ndarray], h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Project a hidden state onto the page and offset heads (no softmax)."""
    page = h @ params["w_page"]
    page += params["b_page"]
    offset = h @ params["w_offset"]
    offset += params["b_offset"]
    return page, offset


def topk_from_logits(logits: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` indices per row, sorted by descending logit.

    ``np.argpartition`` selects the k winners in O(V) instead of the
    O(V log V) full sort, then only the k-slice is sorted — this is the
    fast path a prefetcher with degree > 1 and a large page vocabulary
    needs.  Ordering among exactly-equal logits is unspecified.
    """
    vocab = logits.shape[-1]
    if not 1 <= k <= vocab:
        raise ValueError(f"k must be in [1, {vocab}], got {k}")
    if k == vocab:
        part = np.broadcast_to(
            np.arange(vocab), logits.shape
        )
    else:
        part = np.argpartition(logits, -k, axis=-1)[..., -k:]
    vals = np.take_along_axis(logits, part, axis=-1)
    order = np.argsort(-vals, axis=-1, kind="stable")
    return np.take_along_axis(part, order, axis=-1)


class HierarchicalModel:
    """Hierarchical page/offset predictor with a shared LSTM body."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, h = config.embed_dim, config.hidden_dim
        in_dim = 3 * d
        scale = 1.0 / np.sqrt(h)
        self.params: Dict[str, np.ndarray] = {
            "pc_embed": init_embedding(rng, (config.pc_vocab_size, d)),
            "page_embed": init_embedding(rng, (config.page_vocab_size, d)),
            "offset_embed": init_embedding(
                rng, (config.num_offsets, config.attention_candidates, d)
            ),
            "w_query": init_embedding(rng, (d, d)),
            "w_x": init_embedding(rng, (in_dim, 4 * h), 1.0 / np.sqrt(in_dim)),
            "w_h": init_embedding(rng, (h, 4 * h), scale),
            "b_lstm": np.zeros(4 * h),
            "w_page": init_embedding(rng, (h, config.page_vocab_size), scale),
            "b_page": np.zeros(config.page_vocab_size),
            "w_offset": init_embedding(rng, (h, config.num_offsets), scale),
            "b_offset": np.zeros(config.num_offsets),
        }
        # Positive forget-gate bias: standard trick for trainable LSTMs.
        self.params["b_lstm"][h : 2 * h] = 1.0

    # ------------------------------------------------------------------
    # sequence (truncated-BPTT) forward + backward
    # ------------------------------------------------------------------
    def forward_sequence(
        self,
        pc_ids: np.ndarray,  # (B, T)
        page_ids: np.ndarray,  # (B, T)
        offset_ids: np.ndarray,  # (B, T)
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Dict, Tuple[np.ndarray, np.ndarray]]:
        """Run the model over ``(B, T)`` contiguous segments, heads at every step.

        Each cell is evaluated exactly once and both heads are read out
        at *every* timestep, so a segment of length ``T`` supervises
        ``T`` positions at ``O(T)`` cell cost.  ``T`` is arbitrary.
        ``h0``/``c0`` carry LSTM state in from the previous TBPTT chunk
        of the same segment; ``None`` starts from zeros.

        Embeddings and attention are gathered for the whole segment at
        once, the input projection is one fused matmul
        (:func:`project_features`), and only the recurrent ``h @ w_h``
        product runs per timestep.  The recurrence works in time-major
        ``(T, B, ·)`` buffers: step ``t`` computes its pre-activation
        in row ``t`` of the gate buffer and the cell writes its
        activations and state straight into the cache.  The cache's
        ``"hs"``/``"cs"`` hold the per-timestep states batch-major,
        ``(B, T, h)``.

        Returns ``(page_probs, offset_probs, cache, (h, c))`` with probs
        of shape ``(B, T, vocab)`` and the final state for chunk
        chaining.
        """
        p = self.params
        h_dim = self.config.hidden_dim
        B, T = pc_ids.shape

        pc_emb = embedding_forward(p["pc_embed"], pc_ids)
        page_emb = embedding_forward(p["page_embed"], page_ids)
        off_emb, attn_cache = page_aware_offset_forward(
            p["offset_embed"], p["w_query"], page_emb, offset_ids
        )
        x = np.concatenate([pc_emb, page_emb, off_emb], axis=-1)  # (B,T,3d)
        ax = project_features(p, x)

        dtype = p["w_h"].dtype
        # hs[t] / cs[t] is the state entering step t: hs[1:] are the
        # step outputs and hs[:-1] their predecessors, with no copy.
        hs = np.empty((T + 1, B, h_dim), dtype=dtype)
        cs = np.empty((T + 1, B, h_dim), dtype=dtype)
        hs[0] = 0.0 if h0 is None else h0
        cs[0] = 0.0 if c0 is None else c0
        # Activated gates [i | f | · | o] (see _lstm_activate), tanh(g)
        # and tanh(c) per step: the backward cache.
        acts = np.empty((T, B, 4 * h_dim), dtype=dtype)
        gs = np.empty((T, B, h_dim), dtype=dtype)
        tanh_cs = np.empty((T, B, h_dim), dtype=dtype)
        w_h, b_lstm = p["w_h"], p["b_lstm"]
        for t in range(T):
            # (h @ w_h + x @ w_x) + b: the inference engine's
            # (x @ w_x + h @ w_h) + b, as addition commutes exactly.
            a = np.matmul(hs[t], w_h, out=acts[t])
            a += ax[:, t]
            a += b_lstm
            _lstm_activate(
                a, cs[t], h_dim, out=(gs[t], cs[t + 1], tanh_cs[t], hs[t + 1])
            )

        # Batch-major rows: the order the heads' gradients reduce over.
        flat = hs[1:].transpose(1, 0, 2).reshape(B * T, h_dim)
        page_logits, offset_logits = head_logits(p, flat)
        page_probs = softmax(page_logits).reshape(B, T, -1)
        offset_probs = softmax(offset_logits).reshape(B, T, -1)
        cache = {
            "pc_ids": pc_ids,
            "page_ids": page_ids,
            "attn": attn_cache,
            "x": x,
            "hs": flat.reshape(B, T, h_dim),
            "cs": cs[1:].transpose(1, 0, 2),
            "states": (hs, cs),
            "acts": acts,
            "gs": gs,
            "tanh_cs": tanh_cs,
        }
        return page_probs, offset_probs, cache, (hs[T], cs[T])

    def loss_and_grads_sequence(
        self,
        pc_ids: np.ndarray,  # (B, T)
        page_ids: np.ndarray,  # (B, T)
        offset_ids: np.ndarray,  # (B, T)
        label_page_ids: np.ndarray,  # (B, T, L) target page vocab ids
        label_offsets: np.ndarray,  # (B, T, L) target offsets
        label_weights: np.ndarray,  # (B, T, L) target mass, 0 = padding
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
        phases: Optional[Dict[str, float]] = None,
    ) -> Tuple[float, Dict[str, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Per-timestep cross-entropy over a segment batch, with full BPTT.

        Targets arrive *sparse*: up to ``L`` labels per timestep as
        parallel id/weight arrays (see
        :class:`voyager.train.SequenceDataset`), with weight 0 marking
        padding slots, so the loss gathers ``L`` probabilities per
        position instead of materialising dense ``(B, T, vocab)``
        target tensors.  The loss is the mean over all ``B * T``
        supervised positions of both heads' cross-entropies.

        Gradients flow through every timestep down to the embeddings;
        ``h0``/``c0`` are treated as constants (truncated BPTT — no
        gradient crosses the chunk boundary).  Returns
        ``(loss, grads, (h, c))`` where the state feeds the next chunk.
        ``phases``, when given, accumulates wall time into its
        ``"forward"`` and ``"backward"`` keys (used by
        ``train(profile=True)``); it never changes the arithmetic.
        """
        t0 = perf_counter()
        page_probs, offset_probs, cache, state = self.forward_sequence(
            pc_ids, page_ids, offset_ids, h0=h0, c0=c0
        )
        B, T = pc_ids.shape
        n = B * T
        L = label_page_ids.shape[2]
        eps = 1e-12

        page_flat = page_probs.reshape(n, -1)
        offset_flat = offset_probs.reshape(n, -1)
        rows = np.repeat(np.arange(n), L)
        lab_pages = label_page_ids.reshape(-1)
        lab_offsets = label_offsets.reshape(-1)
        pp = page_flat[rows, lab_pages].reshape(B, T, L)
        op = offset_flat[rows, lab_offsets].reshape(B, T, L)
        loss_page = -(label_weights * np.log(pp + eps)).sum() / n
        loss_offset = -(label_weights * np.log(op + eps)).sum() / n
        loss = loss_page + loss_offset
        if phases is not None:
            phases["forward"] += perf_counter() - t0
            t0 = perf_counter()

        # d_logits = (probs - targets) / n, with the target subtraction
        # done as a sparse scatter into the flat view (in index order,
        # so duplicate labels subtract one after another).  Padding
        # slots carry weight 0 and subtract nothing.
        d_page = page_flat / n
        d_offset = offset_flat / n
        w_flat = label_weights.reshape(-1) / n
        np.subtract.at(
            d_page.reshape(-1), rows * d_page.shape[1] + lab_pages, w_flat
        )
        np.subtract.at(
            d_offset.reshape(-1), rows * d_offset.shape[1] + lab_offsets, w_flat
        )

        grads = self._backward_sequence(cache, d_page, d_offset)
        if phases is not None:
            phases["backward"] += perf_counter() - t0
        return float(loss), grads, state

    def _backward_sequence(
        self,
        cache: Dict,
        d_page_logits: np.ndarray,  # (B*T, page_vocab)
        d_offset_logits: np.ndarray,  # (B*T, num_offsets)
    ) -> Dict[str, np.ndarray]:
        """Backward through time for :meth:`forward_sequence`.

        Only the recurrent gate chain runs per timestep; the head, input
        projection and recurrent weight gradients are each one batched
        matmul over the flattened batch-major ``(B*T, ·)`` arrays.
        """
        p = self.params
        cfg = self.config
        h_dim = cfg.hidden_dim
        d = cfg.embed_dim
        x = cache["x"]
        hs, cs = cache["states"]  # (T+1, B, h): entry state, then steps
        gs, tanh_cs = cache["gs"], cache["tanh_cs"]
        T, B = gs.shape[0], gs.shape[1]
        n = B * T
        acts = cache["acts"].reshape(T, B, 4, h_dim)  # gate-major columns
        i_g, f_g, o_g = acts[:, :, 0], acts[:, :, 1], acts[:, :, 3]

        grads: Dict[str, np.ndarray] = {}
        hs_flat = cache["hs"].reshape(n, h_dim)
        grads["w_page"] = hs_flat.T @ d_page_logits
        grads["b_page"] = d_page_logits.sum(axis=0)
        grads["w_offset"] = hs_flat.T @ d_offset_logits
        grads["b_offset"] = d_offset_logits.sum(axis=0)

        dh_ext = (
            d_page_logits @ p["w_page"].T + d_offset_logits @ p["w_offset"].T
        ).reshape(B, T, h_dim).transpose(1, 0, 2)
        # Gate-derivative factors depend only on cached activations, so
        # they batch over (T, B, h) outside the sequential loop; the
        # loop itself carries only the dc / dh_rec recurrences.
        dc_fac = o_g * (1.0 - tanh_cs**2)  # dh -> dc through h = o*tanh(c)
        do_fac = tanh_cs * (o_g * (1.0 - o_g))  # dh -> o pre-activation
        # The i, f and g pre-activation gradients are
        # (dc * left) * right per gate: (dc * g) * i(1-i),
        # (dc * c_prev) * f(1-f) and (dc * i) * (1-g^2).
        left = np.empty((T, B, 3, h_dim))
        left[:, :, 0] = gs
        left[:, :, 1] = cs[:-1]
        left[:, :, 2] = i_g
        right = np.empty((T, B, 3, h_dim))
        i_f = acts[:, :, :2]
        np.subtract(1.0, i_f, out=right[:, :, :2])
        right[:, :, :2] *= i_f
        np.square(gs, out=right[:, :, 2])
        np.subtract(1.0, right[:, :, 2], out=right[:, :, 2])
        w_h_T = p["w_h"].T
        dc = np.zeros((B, h_dim))
        dh_rec = np.zeros((B, h_dim))
        scratch = np.empty((B, h_dim))
        da_all = np.empty((T, B, 4 * h_dim))
        da_gates = da_all.reshape(T, B, 4, h_dim)
        for t in range(T - 1, -1, -1):
            dh = dh_ext[t]
            dh += dh_rec
            dc += np.multiply(dh, dc_fac[t], out=scratch)
            np.multiply(dc[:, None], left[t], out=da_gates[t, :, :3])
            da_gates[t, :, :3] *= right[t]
            np.multiply(dh, do_fac[t], out=da_gates[t, :, 3])
            dc *= f_g[t]
            if t:
                np.matmul(da_all[t], w_h_T, out=dh_rec)

        da_flat = da_all.transpose(1, 0, 2).reshape(n, 4 * h_dim)
        grads["w_x"] = x.reshape(n, 3 * d).T @ da_flat
        grads["w_h"] = hs[:-1].transpose(1, 0, 2).reshape(n, h_dim).T @ da_flat
        grads["b_lstm"] = da_flat.sum(axis=0)
        dx = (da_flat @ p["w_x"].T).reshape(B, T, 3 * d)

        d_pc_emb = dx[:, :, :d]
        d_page_emb = dx[:, :, d : 2 * d]
        d_off_emb = dx[:, :, 2 * d :]
        g_off_table, g_w_query, g_page_from_attn = page_aware_offset_backward(
            p["offset_embed"], p["w_query"], d_off_emb, cache["attn"]
        )
        grads["offset_embed"] = g_off_table
        grads["w_query"] = g_w_query
        d_page_emb = d_page_emb + g_page_from_attn

        grads["pc_embed"] = embedding_backward(
            p["pc_embed"], cache["pc_ids"], d_pc_emb
        )
        grads["page_embed"] = embedding_backward(
            p["page_embed"], cache["page_ids"], d_page_emb
        )
        return grads

    def num_parameters(self) -> int:
        return sum(int(v.size) for v in self.params.values())


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def vocab_fingerprint(pc_vocab: Vocab, page_vocab: Vocab) -> str:
    """Stable content hash of both vocab mappings.

    Two checkpoints with equal fingerprints encode every pc/page key to
    the same id, which is the precondition for hot-swapping weights
    under live sessions whose carried states and table contexts were
    encoded by the old vocabs
    (:meth:`voyager.serve.PrefetchServer.swap_checkpoint`).
    """
    payload = json.dumps(
        [pc_vocab.to_dict(), page_vocab.to_dict()],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2s(payload.encode("utf-8")).hexdigest()


def save_checkpoint(
    prefix: Union[str, Path],
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
) -> Tuple[Path, Path]:
    """Persist a trained model plus its vocabularies.

    Writes two sibling files derived from ``prefix``:

    - ``<prefix>.npz`` — the raw float64 parameter arrays (bit-exact);
    - ``<prefix>.vocab.json`` — model config (including the training
      ``seq_len`` every consumer resets state by), schema/format
      version, a content hash of both vocab mappings (``vocab_hash``),
      and the mappings themselves in id order.

    Both files are written atomically (staged next to the destination,
    published with ``os.replace``), so a run killed mid-save can leave
    stale checkpoint files behind but never truncated ones.

    Returns the two paths.  :func:`load_checkpoint` restores a model
    whose predictions are bit-identical to the saved one.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    npz_path = prefix.with_suffix(prefix.suffix + ".npz")
    json_path = prefix.with_suffix(prefix.suffix + ".vocab.json")
    atomic_savez(npz_path, **model.params)
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "format_version": CHECKPOINT_SCHEMA_VERSION,
        "model_config": asdict(model.config),
        "vocab_hash": vocab_fingerprint(pc_vocab, page_vocab),
        "pc_vocab": pc_vocab.to_dict(),
        "page_vocab": page_vocab.to_dict(),
    }
    atomic_write_text(json_path, json.dumps(meta))
    return npz_path, json_path


def checkpoint_metadata(prefix: Union[str, Path]) -> Dict[str, object]:
    """Read and validate a checkpoint's JSON metadata without the arrays.

    Cheap pre-flight for hot-swap compatibility checks: returns the
    parsed ``<prefix>.vocab.json`` object (config, ``vocab_hash``,
    vocab mappings) with the same
    :class:`FileNotFoundError`/:class:`ValueError` contract as
    :func:`load_checkpoint`, but skips the ``.npz`` load entirely.
    """
    prefix = Path(prefix)
    json_path = prefix.with_suffix(prefix.suffix + ".vocab.json")
    if not json_path.exists():
        raise FileNotFoundError(f"checkpoint metadata {json_path} not found")
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(
            f"checkpoint metadata {json_path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise ValueError(
            f"checkpoint metadata {json_path}: expected a JSON object"
        )
    version = meta.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported checkpoint schema {version!r}; "
            f"this build reads version {CHECKPOINT_SCHEMA_VERSION}"
        )
    return meta


def load_checkpoint(
    prefix: Union[str, Path],
) -> Tuple[HierarchicalModel, Vocab, Vocab]:
    """Restore ``(model, pc_vocab, page_vocab)`` from :func:`save_checkpoint`.

    Raises :class:`FileNotFoundError` when either checkpoint file is
    absent and :class:`ValueError` (with the offending path in the
    message) when a file exists but is truncated, corrupt or missing
    fields — callers like the CLI turn both into clean error exits
    instead of tracebacks.
    """
    prefix = Path(prefix)
    npz_path = prefix.with_suffix(prefix.suffix + ".npz")
    json_path = prefix.with_suffix(prefix.suffix + ".vocab.json")
    if not npz_path.exists() or not json_path.exists():
        raise FileNotFoundError(
            f"checkpoint {prefix} incomplete: expected {npz_path.name} "
            f"and {json_path.name} side by side"
        )
    meta = checkpoint_metadata(prefix)
    try:
        fields = dict(meta["model_config"])
        if "seq_len" not in fields:
            # Written before the config carried it: the top-level
            # provenance field, when present, is the training length.
            legacy = meta.get("seq_len")
            fields["seq_len"] = (
                legacy if isinstance(legacy, int) else DEFAULT_SEQ_LEN
            )
        model = HierarchicalModel(ModelConfig(**fields))
        pc_vocab = Vocab.from_dict(meta["pc_vocab"])
        page_vocab = Vocab.from_dict(meta["page_vocab"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"checkpoint metadata {json_path} is corrupt or incomplete: "
            f"{exc!r}"
        ) from exc
    recorded_hash = meta.get("vocab_hash")
    if recorded_hash is not None:
        actual_hash = vocab_fingerprint(pc_vocab, page_vocab)
        if recorded_hash != actual_hash:
            raise ValueError(
                f"checkpoint metadata {json_path}: vocab_hash "
                f"{recorded_hash!r} does not match the stored vocab "
                f"mappings ({actual_hash!r}); the file was edited or "
                f"corrupted after save"
            )
    try:
        arrays = np.load(npz_path)
    except Exception as exc:
        # np.load raises zipfile.BadZipFile on a truncated archive and a
        # misleading pickle-related ValueError on a non-npz file; both
        # mean the same thing to a caller.
        raise ValueError(
            f"checkpoint archive {npz_path} is not a readable .npz "
            f"file: {exc}"
        ) from exc
    with arrays:
        for name in model.params:
            if name not in arrays:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if arrays[name].shape != model.params[name].shape:
                raise ValueError(
                    f"parameter {name!r} shape {arrays[name].shape} does not "
                    f"match config shape {model.params[name].shape}"
                )
            model.params[name] = arrays[name].copy()
    return model, pc_vocab, page_vocab
