"""Embedding tables and the page-aware offset attention.

The distinguishing mechanism of the hierarchical model is that the
*offset* embedding is not a plain lookup: each offset owns ``K``
candidate embedding vectors, and the page embedding acts as an
attention query that mixes the candidates.  The same block offset can
therefore mean different things on different pages (the "page-aware
offset embedding" of Shi et al.).

Everything is plain NumPy with explicit forward/backward passes so the
whole model is dependency-free and deterministic.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np


def init_embedding(
    rng: np.random.Generator, shape: Tuple[int, ...], scale: float = 0.1
) -> np.ndarray:
    """Seeded Gaussian init used for every embedding table."""
    return (rng.standard_normal(shape) * scale).astype(np.float64)


def embedding_forward(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Plain lookup: ``table[ids]``."""
    return table[ids]


def embedding_backward(
    table: np.ndarray, ids: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Scatter-add gradient for a lookup (duplicate ids accumulate).

    Works for any table rank: row ``ids[i]`` of a zero ``table``-shaped
    array receives ``grad_out[i]``.  One ``np.bincount`` over the
    flattened ``id * width + column`` indices does it; like
    ``np.add.at`` it adds each entry's contributions in index order
    starting from zero, so every sum keeps its bits.  It returns
    float64, the training dtype.
    """
    width = math.prod(table.shape[1:])
    flat_ids = ids.reshape(-1, 1) * width + np.arange(width)
    return np.bincount(
        flat_ids.reshape(-1),
        weights=grad_out.reshape(-1),
        minlength=table.shape[0] * width,
    ).reshape(table.shape)


def page_aware_offset_forward(
    offset_table: np.ndarray,  # (num_offsets, K, d)
    w_query: np.ndarray,  # (d, d)
    page_emb: np.ndarray,  # (B, H, d)
    offset_ids: np.ndarray,  # (B, H) int
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Mix each offset's K candidate embeddings under a page query.

    Returns the attended offset embedding ``(B, H, d)`` and a cache for
    the backward pass.
    """
    d = offset_table.shape[-1]
    cand = offset_table[offset_ids]  # (B, H, K, d)
    # einsum (not @) so the per-position arithmetic is bit-identical to
    # the single-step inference path regardless of batch/history shape;
    # BLAS matmul reassociates differently per matrix size, einsum does
    # not.  Same for the math.sqrt scale: a Python float keeps float32
    # inference in float32 where a np.float64 scalar would upcast.
    query = np.einsum("bhd,de->bhe", page_emb, w_query)  # (B, H, d)
    scores = np.einsum("bhd,bhkd->bhk", query, cand) / math.sqrt(d)
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    alpha = exp / exp.sum(axis=-1, keepdims=True)  # (B, H, K)
    out = np.einsum("bhk,bhkd->bhd", alpha, cand)
    cache = {
        "cand": cand,
        "query": query,
        "alpha": alpha,
        "page_emb": page_emb,
        "offset_ids": offset_ids,
    }
    return out, cache


def page_aware_offset_step(
    offset_table: np.ndarray,  # (num_offsets, K, d)
    w_query: np.ndarray,  # (d, d)
    page_emb: np.ndarray,  # (B, d)
    offset_ids: np.ndarray,  # (B,) int
) -> np.ndarray:
    """Cache-free attention for a single access per row.

    Inference-mode counterpart of :func:`page_aware_offset_forward`:
    identical arithmetic on a ``(B,)`` slice of ids, but no backward
    cache is built.  The result is bit-identical to the corresponding
    position of the segment forward, in float64 and in float32; it is
    the per-row definition :func:`page_aware_offset_table` is pinned
    against.
    """
    d = offset_table.shape[-1]
    cand = offset_table[offset_ids]  # (B, K, d)
    query = np.einsum("bd,de->be", page_emb, w_query)  # (B, d)
    scores = np.einsum("bd,bkd->bk", query, cand) / math.sqrt(d)
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    alpha = exp / exp.sum(axis=-1, keepdims=True)  # (B, K)
    return np.einsum("bk,bkd->bd", alpha, cand)


def page_aware_offset_table(
    offset_table: np.ndarray,  # (num_offsets, K, d)
    w_query: np.ndarray,  # (d, d)
    page_embed: np.ndarray,  # (P, d)
) -> np.ndarray:
    """The attention of every ``(page, offset)`` pair, for inference.

    Row ``[p, o]`` of the ``(P, num_offsets, d)`` result is
    :func:`page_aware_offset_step` of page embedding ``page_embed[p]``
    and offset ``o``: the same einsum arithmetic, with the query
    computed once per page and the scores of every pair in one
    contraction.  The softmax's max runs over the K candidate columns
    (a max is exact in any order, and a reduction over a short last
    axis is slow).  ``tests/test_infer.py`` pins the table row by row
    against that function, which is what makes the shortcuts safe.
    """
    d = offset_table.shape[-1]
    query = np.einsum("pd,de->pe", page_embed, w_query)  # (P, d)
    scores = np.einsum("pd,okd->pok", query, offset_table) / math.sqrt(d)
    top = scores[..., 0].copy()
    for k in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., k], out=top)
    scores -= top[..., None]
    exp = np.exp(scores)
    alpha = exp / exp.sum(axis=-1, keepdims=True)  # (P, num_offsets, K)
    return np.einsum("pok,okd->pod", alpha, offset_table)


def page_aware_offset_backward(
    offset_table: np.ndarray,
    w_query: np.ndarray,
    grad_out: np.ndarray,  # (B, H, d)
    cache: Dict[str, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`page_aware_offset_forward`.

    Returns ``(grad_offset_table, grad_w_query, grad_page_emb)``.
    """
    d = offset_table.shape[-1]
    cand = cache["cand"]
    alpha = cache["alpha"]
    query = cache["query"]
    page_emb = cache["page_emb"]
    offset_ids = cache["offset_ids"]

    # out = sum_k alpha_k * cand_k
    grad_alpha = np.einsum("bhd,bhkd->bhk", grad_out, cand)
    grad_cand = alpha[..., None] * grad_out[:, :, None, :]

    # softmax backward over k
    grad_scores = alpha * (
        grad_alpha - (grad_alpha * alpha).sum(axis=-1, keepdims=True)
    )
    grad_scores /= math.sqrt(d)

    grad_query = np.einsum("bhk,bhkd->bhd", grad_scores, cand)
    grad_cand += grad_scores[..., None] * query[:, :, None, :]

    grad_table = embedding_backward(offset_table, offset_ids, grad_cand)

    flat_page = page_emb.reshape(-1, d)
    flat_gq = grad_query.reshape(-1, d)
    grad_w_query = flat_page.T @ flat_gq
    grad_page_emb = grad_query @ w_query.T
    return grad_table, grad_w_query, grad_page_emb
