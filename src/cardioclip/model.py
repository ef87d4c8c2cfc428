"""Trained-model bundle and batched embedding helpers shared by evaluation code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import (TextEncoderConfig, VisualEncoderConfig, check_volume_dims, text_embed_fwd,
                       visual_embed_fwd)
from .reports import AbnormalityCatalog
from .tokenizer import Vocabulary, pad_batch, tokenize
from .volume import batch_patches


@dataclass
class ModelBundle:
    """Everything needed to embed volumes and texts with trained parameters."""

    params: dict
    vis_cfg: VisualEncoderConfig
    txt_cfg: TextEncoderConfig
    vocab: Vocabulary
    catalog: AbnormalityCatalog


# most volumes per batched visual forward (and per synth write chunk). A
# chunk's forward holds its patches and every block's activations at once; 8
# 64^3 float32 volumes (8.4 MB) are a stage-2 training batch, so an eval chunk
# needs no more memory than a training step, and a larger one is no faster.
VOLUME_CHUNK = 8
TEXT_CHUNK = 64  # texts per batched text forward


def balanced_chunks(n: int, most: int) -> list:
    """Index arrays cutting range(n) into ceil(n / most) runs of balanced
    size (np.array_split), so no run holds a single item unless n == 1."""
    return np.array_split(np.arange(n), -(-n // most))


def forward_volumes(params, vis_cfg: VisualEncoderConfig, volumes) -> np.ndarray:
    """The visual features (n, embed_dim) of a list of volumes, the input of
    the projection (embed_volumes) and of the fine-tuned head
    (tasks.predict_logits). The patches are standardized in the dtype of the
    params.

    The volumes go through balanced_chunks(n, VOLUME_CHUNK) batched
    forwards. Measured at the 64^3 default, a volume's feature row is bitwise
    the same in a chunk of 1, 3 or 9 volumes. A one-row projection is not (it
    goes down BLAS's gemv path), which is why the callers project all n rows
    at once.

    Refuses an empty list, and any volume whose dims are not
    vis_cfg.input_dims (encoders.check_volume_dims).

    No chunk's activation cache outlives its forward: only its features are
    kept, so at most one chunk of activations is alive at a time.
    """
    if len(volumes) == 0:
        raise ValueError("no volumes to embed: the list is empty")
    check_volume_dims(vis_cfg, volumes)
    dtype = params["vis.patch.w"].dtype
    out = []
    for idx in balanced_chunks(len(volumes), VOLUME_CHUNK):
        # no local keeps the raw batch (the forward drops it once standardized)
        # nor the cache, which dies here, before the next chunk's forward
        out.append(visual_embed_fwd(
            params, vis_cfg, batch_patches([volumes[i] for i in idx], vis_cfg.patch_size, dtype))[0])
    return np.concatenate(out, axis=0)


def embed_volumes(bundle: ModelBundle, volumes) -> np.ndarray:
    """Projected embeddings (n, proj_dim) for a list of volumes: vis.proj over
    their forward_volumes features, all rows in one GEMM."""
    return nn.linear_fwd(bundle.params, "vis.proj",
                         forward_volumes(bundle.params, bundle.vis_cfg, volumes))[0]


def embed_texts(bundle: ModelBundle, texts) -> np.ndarray:
    """Projected embeddings (n, proj_dim) for a list of report texts: the text
    features, in balanced_chunks(n, TEXT_CHUNK) batched forwards, then
    txt.proj over all rows in one GEMM. Refuses an empty list."""
    if len(texts) == 0:
        raise ValueError("no texts to embed: the list is empty")
    out = []
    for idx in balanced_chunks(len(texts), TEXT_CHUNK):
        ids, lengths = pad_batch([tokenize(texts[i], bundle.vocab, bundle.txt_cfg.max_len)
                                  for i in idx])
        out.append(text_embed_fwd(bundle.params, bundle.txt_cfg, ids, lengths)[0])
    return nn.linear_fwd(bundle.params, "txt.proj", np.concatenate(out, axis=0))[0]


def unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise FloatingPointError("zero-norm embedding cannot be normalized")
    return x / norms
