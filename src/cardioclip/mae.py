"""Stage 1: masked-patch reconstruction pre-training for the visual encoder.

A random subset of patches is hidden; the encoder sees only the visible
patches (plus class token); a lightweight decoder attends over all positions
but rebuilds only the masked patches, and the loss is their mean squared error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import (
    VisualEncoderConfig,
    check_volume_dims,
    init_visual_params,
    patch_tokens_bwd,
    patch_tokens_fwd,
    tower_rules,
)
from .optim import Trainer, require, schedule_rules
from .seeding import derive_seed, substream
from .volume import batch_patches


@dataclass(frozen=True)
class DecoderConfig:
    embed_dim: int = 64
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        require(*tower_rules(self))

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


@dataclass(frozen=True)
class MAETrainConfig:
    epochs: int = 20
    batch: int = 16
    lr: float = 1e-4
    warmup_frac: float = 0.05
    mask_ratio: float = 0.75

    def __post_init__(self):
        require(*schedule_rules(self))


def masked_count(n_total: int, ratio: float) -> int:
    """floor(ratio * n_total), refused unless it leaves at least one masked
    and one visible patch."""
    n_masked = math.floor(ratio * n_total)
    if not 1 <= n_masked <= n_total - 1:
        raise ValueError(
            f"mask_ratio {ratio} leaves {n_masked} of {n_total} patches masked; "
            f"need at least one masked and one visible patch"
        )
    return n_masked


def sample_mask(n_total: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(visible, masked): sorted int64 index arrays partitioning 0..n_total-1,
    masked a uniform random subset of size floor(ratio * n_total)."""
    n_masked = masked_count(n_total, ratio)
    rng = np.random.Generator(np.random.PCG64(seed))
    masked = np.sort(rng.choice(n_total, size=n_masked, replace=False))
    keep = np.ones(n_total, dtype=bool)
    keep[masked] = False
    return np.flatnonzero(keep), masked


def init_decoder_params(rng, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig,
                        params, dtype=np.float32) -> nn.Params:
    ed = dec_cfg.embed_dim
    params["dec.embed.w"] = nn.trunc_normal(rng, (vis_cfg.embed_dim, ed), dtype=dtype)
    params["dec.embed.b"] = np.zeros(ed, dtype)
    params["dec.mask"] = nn.trunc_normal(rng, (ed,), dtype=dtype)
    params["dec.pos"] = nn.trunc_normal(rng, (vis_cfg.n_patches + 1, ed), dtype=dtype)
    nn.init_stack(rng, params, "dec", ed, dec_cfg.depth, dec_cfg.mlp_hidden, dtype)
    params["dec.head.w"] = nn.trunc_normal(rng, (ed, vis_cfg.patch_volume), dtype=dtype)
    params["dec.head.b"] = np.zeros(vis_cfg.patch_volume, dtype)
    return params


def masked_mse(recon: np.ndarray, targets: np.ndarray, masked_idx: np.ndarray):
    """Mean squared error of the reconstructed masked patches; consumes recon.

    recon: (B, N_m, P), the reconstruction of the masked patches in masked_idx
    order; targets: (B, N, P); masked_idx: (B, N_m). Returns (loss, d_recon)
    with d_recon (B, N_m, P), one gradient row per masked patch, written into
    recon's own buffer: recon is overwritten and must not be read afterwards.
    targets is only read, and its reference is dropped once the masked rows
    are subtracted: a caller that passes the batch as its only reference
    (mae_batch_fwd) frees it before the squared-error temporary is allocated.
    """
    for b in range(recon.shape[0]):  # a per-sample gather stays in cache
        recon[b] -= targets[b, masked_idx[b]]
    del targets
    count = recon.size
    loss = float(np.square(recon).sum() / count)
    recon *= 2.0 / count
    return loss, recon


# ---------------------------------------------------------------------------
# batched forward / backward


def mae_batch_fwd(params, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig,
                  patches: np.ndarray, vis_idx: np.ndarray, mask_idx: np.ndarray):
    """patches (B, N, P), vis_idx (B, N_v), mask_idx (B, N_m) -> (loss, cache).

    The encoder is the visual tower's patch embedding and "vis" stack on the
    visible patches. Only dec.head is restricted to the masked rows: dec.lnf
    works row by row, so on those rows it is bitwise what normalizing them
    alone gives, and the other rows' zero gradient adds nothing to its own.

    After the visible-row gather this function holds the batch only in a
    one-element list, popped into masked_mse, so a caller that passes the
    batch as its only reference (train_mae) frees it inside masked_mse once
    the masked rows are subtracted. The cache is a list that mae_batch_bwd
    empties.
    """
    B, N = patches.shape[:2]
    rows = np.arange(B)[:, None]
    # no local keeps the visible-patch gather: it dies once standardized
    x, c_tok = patch_tokens_fwd(params, patches[rows, vis_idx], positions=vis_idx)
    targets = [patches]
    del patches
    x, c_enc = nn.stack_fwd(params, "vis", x, vis_cfg.depth, vis_cfg.heads)
    dec_lin, c_emb = nn.linear_fwd(params, "dec.embed", x)

    full = np.empty((B, N + 1, dec_cfg.embed_dim), dtype=dec_lin.dtype)
    full[:, 0] = dec_lin[:, 0]
    full[rows, mask_idx + 1] = params["dec.mask"]
    full[rows, vis_idx + 1] = dec_lin[:, 1:]
    full += params["dec.pos"]

    y, c_dec = nn.stack_fwd(params, "dec", full, dec_cfg.depth, dec_cfg.heads)
    recon, c_head = nn.linear_fwd(params, "dec.head", y[rows, mask_idx + 1])
    loss, d_recon = masked_mse(recon, targets.pop(), mask_idx)
    return loss, [c_tok, c_enc, c_emb, c_dec, c_head, d_recon, vis_idx, mask_idx, N]


def mae_batch_bwd(params, cache):
    """Backward for mae_batch_fwd; returns the gradient dict. Empties the
    cache list, so the loss gradient and dec.head's cached input die as soon
    as dec.head's backward has read them, before the decoder's backward."""
    c_tok, c_enc, c_emb, c_dec, c_head, d_recon, vis_idx, mask_idx, N = cache
    cache.clear()
    grads: nn.Grads = {}

    dy = nn.linear_bwd(params, "dec.head", c_head, d_recon, grads)
    del c_head, d_recon
    B, _, ed = dy.shape
    rows = np.arange(B)[:, None]
    dfull = np.zeros((B, N + 1, ed), dtype=dy.dtype)  # unscored rows get no gradient
    dfull[rows, mask_idx + 1] = dy
    dfull = nn.stack_bwd(params, "dec", c_dec, dfull, grads)

    nn.accumulate(grads, "dec.pos", dfull.sum(axis=0))
    nn.accumulate(grads, "dec.mask", dfull[rows, mask_idx + 1].reshape(-1, ed).sum(axis=0))

    d_dec_lin = np.empty((B, vis_idx.shape[1] + 1, ed), dtype=dfull.dtype)
    d_dec_lin[:, 0] = dfull[:, 0]
    d_dec_lin[:, 1:] = dfull[rows, vis_idx + 1]

    denc = nn.linear_bwd(params, "dec.embed", c_emb, d_dec_lin, grads)
    dx = nn.stack_bwd(params, "vis", c_enc, denc, grads)
    patch_tokens_bwd(params, c_tok, vis_idx, dx, grads)
    return grads


# ---------------------------------------------------------------------------
# training loop


def train_mae(volumes, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig,
              cfg: MAETrainConfig, seed: int, params=None, proj_dim: int = 64,
              trace_hook=None):
    """Train encoder + decoder from scratch (or given params); returns (params, trace).

    One optimizer step per batch; each volume draws a fresh sample_mask per
    epoch, and the batch's visible and masked index arrays are stacked into
    (B, N_v) and (B, N_m). The trace holds one record per epoch: epoch,
    mean_loss, lr_last. An empty corpus, or a volume whose dims are not
    vis_cfg.input_dims, is refused before any step.
    """
    n = len(volumes)
    if n == 0:
        raise ValueError("training corpus is empty")
    check_volume_dims(vis_cfg, volumes)
    if params is None:
        rng = substream(seed, "init")
        params = init_visual_params(rng, vis_cfg, proj_dim)
        init_decoder_params(rng, vis_cfg, dec_cfg, params)

    trainer = Trainer("reconstruction", params)
    N = vis_cfg.n_patches
    dtype = params["vis.patch.w"].dtype

    def batch_step(epoch, idx):
        masks = [sample_mask(N, cfg.mask_ratio, derive_seed(seed, "mask", epoch, int(i)))
                 for i in idx]
        vis_idx = np.stack([vis for vis, _ in masks])
        mask_idx = np.stack([msk for _, msk in masks])
        # no local keeps the patch batch: mae_batch_fwd frees it in masked_mse
        loss, cache = mae_batch_fwd(
            params, vis_cfg, dec_cfg,
            batch_patches([volumes[i] for i in idx], vis_cfg.patch_size, dtype),
            vis_idx, mask_idx)
        return loss, mae_batch_bwd(params, cache)

    for epoch, batches, _ in trainer.epochs(n, cfg, seed, "batch-order", trace_hook):
        for idx in batches:
            trainer.step(*batch_step(epoch, idx))
    return params, trainer.trace
