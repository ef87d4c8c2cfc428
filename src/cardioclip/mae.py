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
    init_visual_params,
    patch_tokens_bwd,
    patch_tokens_fwd,
    tower_rules,
)
from .optim import Trainer, require, schedule_rules
from .seeding import derive_seed, substream
from .volume import batch_patches


@dataclass(frozen=True)
class MaskPlan:
    """Partition of patch indices into visible and masked sets."""

    n_total: int
    visible_idx: tuple[int, ...]
    masked_idx: tuple[int, ...]
    seed: int

    def __post_init__(self):
        vis, msk = set(self.visible_idx), set(self.masked_idx)
        if vis & msk:
            raise ValueError("visible and masked index sets overlap")
        if vis | msk != set(range(self.n_total)):
            raise ValueError("visible and masked sets do not partition 0..n_total-1")
        if list(self.visible_idx) != sorted(vis) or list(self.masked_idx) != sorted(msk):
            raise ValueError("index lists must be sorted")

    @property
    def n_visible(self) -> int:
        return len(self.visible_idx)

    @property
    def n_masked(self) -> int:
        return len(self.masked_idx)


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
    base_lr: float = 1e-3
    weight_decay: float = 0.01
    warmup_frac: float = 0.05
    min_lr: float = 0.0
    mask_ratio: float = 0.75

    def __post_init__(self):
        require(*schedule_rules(self, self.base_lr, "base_lr"))


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


def sample_mask(n_total: int, ratio: float, seed: int) -> MaskPlan:
    """Uniform random masked subset of size floor(ratio * n_total)."""
    n_masked = masked_count(n_total, ratio)
    rng = np.random.Generator(np.random.PCG64(seed))
    masked = np.sort(rng.choice(n_total, size=n_masked, replace=False))
    visible = np.setdiff1d(np.arange(n_total), masked, assume_unique=True)
    return MaskPlan(
        n_total=n_total,
        visible_idx=tuple(int(i) for i in visible),
        masked_idx=tuple(int(i) for i in masked),
        seed=seed,
    )


def init_decoder_params(rng, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig,
                        params=None, dtype=np.float32) -> nn.Params:
    p = params if params is not None else {}
    ed = dec_cfg.embed_dim
    p["dec.embed.w"] = nn.trunc_normal(rng, (vis_cfg.embed_dim, ed), dtype=dtype)
    p["dec.embed.b"] = nn.zeros(ed, dtype)
    p["dec.mask"] = nn.trunc_normal(rng, (ed,), dtype=dtype)
    p["dec.pos"] = nn.trunc_normal(rng, (vis_cfg.n_patches + 1, ed), dtype=dtype)
    nn.init_stack(rng, p, "dec", ed, dec_cfg.depth, dec_cfg.mlp_hidden, dtype)
    p["dec.head.w"] = nn.trunc_normal(rng, (ed, vis_cfg.patch_volume), dtype=dtype)
    p["dec.head.b"] = nn.zeros(vis_cfg.patch_volume, dtype)
    return p


def masked_mse(recon: np.ndarray, targets: np.ndarray, masked_idx: np.ndarray):
    """Mean squared error of the reconstructed masked patches; consumes recon.

    recon: (B, N_m, P), the reconstruction of the masked patches in masked_idx
    order; targets: (B, N, P); masked_idx: (B, N_m). Returns (loss, d_recon)
    with d_recon (B, N_m, P), one gradient row per masked patch, written into
    recon's own buffer: recon is overwritten and must not be read afterwards.
    """
    for b in range(recon.shape[0]):  # a per-sample gather stays in cache
        recon[b] -= targets[b, masked_idx[b]]
    count = recon.size
    loss = float(np.square(recon).sum() / count)
    recon *= 2.0 / count
    return loss, recon


# ---------------------------------------------------------------------------
# batched forward / backward


def mae_batch_fwd(params, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig,
                  patches: np.ndarray, vis_idx: np.ndarray, mask_idx: np.ndarray):
    """patches (B, N, P), vis_idx (B, N_v), mask_idx (B, N_m) -> (loss, cache).

    Layernorm and the head are per-row, so only the masked rows of the
    decoder output go through dec.lnf and dec.head.
    """
    B, N, P = patches.shape
    ed = dec_cfg.embed_dim
    rows = np.arange(B)[:, None]
    vis_patches = patches[rows, vis_idx]
    x, c_tok = patch_tokens_fwd(params, vis_patches, positions=vis_idx)
    x, c_enc = nn.stack_fwd(params, "vis", x, vis_cfg.depth, vis_cfg.heads)
    enc_out, c_lnf = nn.layernorm_fwd(params, "vis.lnf", x)
    dec_lin, c_emb = nn.linear_fwd(params, "dec.embed", enc_out)

    full = np.empty((B, N + 1, ed), dtype=dec_lin.dtype)
    full[:, 0] = dec_lin[:, 0]
    full[rows, mask_idx + 1] = params["dec.mask"]
    full[rows, vis_idx + 1] = dec_lin[:, 1:]
    full += params["dec.pos"][: N + 1]

    y, c_dec = nn.stack_fwd(params, "dec", full, dec_cfg.depth, dec_cfg.heads)
    y, c_dlnf = nn.layernorm_fwd(params, "dec.lnf", y[rows, mask_idx + 1])
    recon, c_head = nn.linear_fwd(params, "dec.head", y)
    loss, d_recon = masked_mse(recon, patches, mask_idx)
    cache = (c_tok, c_enc, c_lnf, c_emb, c_dec, c_dlnf, c_head, d_recon,
             vis_idx, mask_idx, (B, N, P))
    return loss, cache


def mae_batch_bwd(params, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig, cache):
    """Backward for mae_batch_fwd; returns the gradient dict."""
    (c_tok, c_enc, c_lnf, c_emb, c_dec, c_dlnf, c_head, d_recon,
     vis_idx, mask_idx, (B, N, P)) = cache
    grads: nn.Grads = {}
    ed = dec_cfg.embed_dim

    rows = np.arange(B)[:, None]
    dy = nn.linear_bwd(params, "dec.head", c_head, d_recon, grads)
    dy = nn.layernorm_bwd(params, "dec.lnf", c_dlnf, dy, grads)
    dfull = np.zeros((B, N + 1, ed), dtype=dy.dtype)  # unscored rows get no gradient
    dfull[rows, mask_idx + 1] = dy
    dfull = nn.stack_bwd(params, "dec", c_dec, dfull, grads)

    dpos = np.zeros_like(params["dec.pos"])
    dpos[: N + 1] = dfull.sum(axis=0)
    nn.accumulate(grads, "dec.pos", dpos)
    dmask = dfull[rows, mask_idx + 1]
    nn.accumulate(grads, "dec.mask", dmask.reshape(-1, ed).sum(axis=0))

    d_dec_lin = np.empty((B, vis_idx.shape[1] + 1, ed), dtype=dfull.dtype)
    d_dec_lin[:, 0] = dfull[:, 0]
    d_dec_lin[:, 1:] = dfull[rows, vis_idx + 1]

    denc = nn.linear_bwd(params, "dec.embed", c_emb, d_dec_lin, grads)
    dx = nn.layernorm_bwd(params, "vis.lnf", c_lnf, denc, grads)
    dx = nn.stack_bwd(params, "vis", c_enc, dx, grads)
    patch_tokens_bwd(params, c_tok, vis_idx, dx, grads)
    return grads


# ---------------------------------------------------------------------------
# training loop


def train_mae(volumes, vis_cfg: VisualEncoderConfig, dec_cfg: DecoderConfig,
              cfg: MAETrainConfig, seed: int, params=None, proj_dim: int = 64,
              trace_hook=None):
    """Train encoder + decoder from scratch (or given params); returns (params, trace).

    One optimizer step per batch; a fresh MaskPlan per volume per epoch. The
    trace holds one record per epoch: epoch, mean_loss, lr_last.
    """
    n = len(volumes)
    if n == 0:
        raise ValueError("training corpus is empty")
    if any(v.dims != tuple(vis_cfg.input_dims) for v in volumes):
        raise ValueError("corpus volume dims do not match config input_dims")
    if params is None:
        rng = substream(seed, "init")
        params = init_visual_params(rng, vis_cfg, proj_dim)
        init_decoder_params(rng, vis_cfg, dec_cfg, params)

    trainer = Trainer("reconstruction", params, cfg.weight_decay)
    N = vis_cfg.n_patches
    for epoch, batches, _ in trainer.epochs(n, cfg, cfg.base_lr, seed, "batch-order", trace_hook):
        for idx in batches:
            patches = batch_patches([volumes[i] for i in idx], vis_cfg.patch_size, np.float32)
            plans = [
                sample_mask(N, cfg.mask_ratio, derive_seed(seed, "mask", epoch, int(i)))
                for i in idx
            ]
            vis_idx = np.asarray([p.visible_idx for p in plans], dtype=np.int64)
            mask_idx = np.asarray([p.masked_idx for p in plans], dtype=np.int64)
            loss, cache = mae_batch_fwd(params, vis_cfg, dec_cfg, patches, vis_idx, mask_idx)
            trainer.step(loss, mae_batch_bwd(params, vis_cfg, dec_cfg, cache))
    return params, trainer.trace
