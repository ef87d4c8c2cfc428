"""Trained-model bundle and batched embedding helpers shared by evaluation code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import TextEncoderConfig, VisualEncoderConfig, text_embed_fwd, visual_embed_fwd
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

    @property
    def dtype(self):
        return self.params["vis.patch.w"].dtype


VOLUME_CHUNK = 32  # volumes per batched visual forward
TEXT_CHUNK = 64  # texts per batched text forward


def forward_volumes(params, vis_cfg: VisualEncoderConfig, volumes, dtype, readout) -> np.ndarray:
    """readout(features, projected) of every volume, VOLUME_CHUNK volumes per
    batched forward, stacked along axis 0.

    Refuses an empty list, and any volume whose dims are not
    vis_cfg.input_dims: a volume of another shape can have the same number
    of patches, which would then take the positional vectors of the wrong
    grid cells.
    """
    if len(volumes) == 0:
        raise ValueError("no volumes to embed: the list is empty")
    for i, v in enumerate(volumes):
        if v.dims != tuple(vis_cfg.input_dims):
            n = int(np.prod([d // p for d, p in zip(v.dims, vis_cfg.patch_size)]))
            raise ValueError(
                f"volume {i} has dims {v.dims}, {n} patches of {vis_cfg.patch_size}, not the "
                f"config's input_dims {vis_cfg.input_dims} with n_patches {vis_cfg.n_patches}"
            )
    out = []
    for i in range(0, len(volumes), VOLUME_CHUNK):
        patches = batch_patches(volumes[i : i + VOLUME_CHUNK], vis_cfg.patch_size, dtype)
        feats, emb, _ = visual_embed_fwd(params, vis_cfg, patches)
        out.append(readout(feats, emb))
    return np.concatenate(out, axis=0)


def embed_volumes(bundle: ModelBundle, volumes) -> np.ndarray:
    """Projected embeddings (n, proj_dim) for a list of volumes."""
    return forward_volumes(bundle.params, bundle.vis_cfg, volumes, bundle.dtype,
                           lambda _, emb: emb)


def embed_texts(bundle: ModelBundle, texts) -> np.ndarray:
    """Projected embeddings (n, proj_dim) for a list of report texts."""
    out = []
    for i in range(0, len(texts), TEXT_CHUNK):
        seqs = [tokenize(t, bundle.vocab, bundle.txt_cfg.max_len)
                for t in texts[i : i + TEXT_CHUNK]]
        ids, lengths = pad_batch(seqs)
        _, emb, _ = text_embed_fwd(bundle.params, bundle.txt_cfg, ids, lengths)
        out.append(emb)
    return np.concatenate(out, axis=0)


def unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise FloatingPointError("zero-norm embedding cannot be normalized")
    return x / norms
