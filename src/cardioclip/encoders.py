"""Visual and textual transformer encoders sharing one projection space.

The visual encoder is a ViT with 3D patch embedding: a linear map from
per-volume standardized, flattened patches plus learned positional vectors
and a class token. The textual encoder is a small transformer over word ids
with length-masked attention. Both mean-pool their output tokens (the
visual tower over its patch tokens, the text tower over the valid tokens)
and project to a common width.

Each tower has one batched *_fwd/*_bwd pair, shared by training, evaluation
and the gradient checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .optim import require


@dataclass(frozen=True)
class VisualEncoderConfig:
    patch_size: tuple[int, int, int] = (16, 16, 16)
    embed_dim: int = 128
    depth: int = 4
    heads: int = 4
    mlp_ratio: float = 4.0
    input_dims: tuple[int, int, int] = (64, 64, 64)

    def __post_init__(self):
        axes = len(self.input_dims) == len(self.patch_size) == 3
        require(
            (axes, f"input_dims {self.input_dims} and patch_size {self.patch_size} "
                   "must each have 3 entries"),
            *((p >= 1 and d >= 1 and d % p == 0,
               f"input dim {d} not a positive multiple of patch size {p} on axis {ax}")
              for ax, (d, p) in enumerate(zip(self.input_dims, self.patch_size)) if axes),
            *tower_rules(self),
        )

    @property
    def n_patches(self) -> int:
        return int(np.prod([d // p for d, p in zip(self.input_dims, self.patch_size)]))

    @property
    def patch_volume(self) -> int:
        return int(np.prod(self.patch_size))

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


@dataclass(frozen=True)
class TextEncoderConfig:
    vocab_size: int
    max_len: int = 64
    embed_dim: int = 128
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        require((self.max_len >= 2, f"max_len must be >= 2 (class token plus at least one "
                                    f"content token), got {self.max_len}"),
                *tower_rules(self))

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


def tower_rules(cfg) -> tuple:
    """The rules of a transformer stack's shape, shared by the visual, text
    and decoder configs: heads divide a positive embed_dim, depth >= 0 and
    mlp_ratio > 0."""
    return (
        (cfg.embed_dim >= 1 and cfg.heads >= 1 and cfg.embed_dim % cfg.heads == 0,
         f"embed_dim {cfg.embed_dim} not a positive multiple of heads {cfg.heads}"),
        (cfg.depth >= 0, f"depth must be >= 0, got {cfg.depth}"),
        (cfg.mlp_ratio > 0, f"mlp_ratio must be positive, got {cfg.mlp_ratio}"),
    )


# ---------------------------------------------------------------------------
# parameter initialization


def init_visual_params(rng, cfg: VisualEncoderConfig, proj_dim: int, params=None,
                       dtype=np.float32) -> nn.Params:
    p = params if params is not None else {}
    p["vis.patch.w"] = nn.trunc_normal(rng, (cfg.patch_volume, cfg.embed_dim), dtype=dtype)
    p["vis.patch.b"] = nn.zeros(cfg.embed_dim, dtype)
    p["vis.pos"] = nn.trunc_normal(rng, (cfg.n_patches, cfg.embed_dim), dtype=dtype)
    p["vis.cls"] = nn.trunc_normal(rng, (cfg.embed_dim,), dtype=dtype)
    nn.init_stack(rng, p, "vis", cfg.embed_dim, cfg.depth, cfg.mlp_hidden, dtype)
    p["vis.proj.w"] = nn.trunc_normal(rng, (cfg.embed_dim, proj_dim), dtype=dtype)
    p["vis.proj.b"] = nn.zeros(proj_dim, dtype)
    return p


def init_text_params(rng, cfg: TextEncoderConfig, proj_dim: int, params=None,
                     dtype=np.float32) -> nn.Params:
    # hotter-than-usual init on purpose (std 0.2 for token embeddings, 0.1
    # for the blocks): token embeddings must dominate the pooled feature from
    # step one (otherwise both modalities sit in a mutual near-collapse
    # saddle of the contrastive loss), and attention needs non-degenerate
    # logits to break symmetry fast enough to learn negation binding within
    # the short alignment stage
    p = params if params is not None else {}
    p["txt.tok"] = nn.trunc_normal(rng, (cfg.vocab_size, cfg.embed_dim), std=0.2, dtype=dtype)
    p["txt.pos"] = nn.trunc_normal(rng, (cfg.max_len, cfg.embed_dim), dtype=dtype)
    nn.init_stack(rng, p, "txt", cfg.embed_dim, cfg.depth, cfg.mlp_hidden, dtype, std=0.1)
    p["txt.proj.w"] = nn.trunc_normal(rng, (cfg.embed_dim, proj_dim), dtype=dtype)
    p["txt.proj.b"] = nn.zeros(proj_dim, dtype)
    return p


# ---------------------------------------------------------------------------
# batched visual forward / backward


def patch_tokens_fwd(params, patches: np.ndarray, positions: np.ndarray | None = None):
    """(B, n, P) patches -> (B, n+1, E) tokens, class token first.

    positions: per-sample patch indices (B, n) selecting which positional
    vectors apply; None means the identity layout 0..n-1. Inputs are
    shifted/scaled to zero mean and unit std per sample, so the embedding
    responds to structure rather than the dominant DC intensity.
    """
    B, n, P = patches.shape
    # np.std's own arithmetic (down to its intp divisor) on one deviation
    # array, so bitwise equal to (patches - mean) / (std + eps)
    d = patches - patches.mean(axis=(1, 2), keepdims=True)
    sd = np.square(d).sum(axis=(1, 2), keepdims=True)
    sd /= np.intp(n * P)
    np.sqrt(sd, out=sd)
    sd += np.asarray(1e-6, dtype=patches.dtype)
    d /= sd
    patches = d
    x = nn.matmul(patches, params["vis.patch.w"])
    x += params["vis.patch.b"]
    pos = params["vis.pos"]
    x += pos[None, :n] if positions is None else pos[positions]
    cls = np.broadcast_to(params["vis.cls"], (B, 1, x.shape[-1]))
    return np.concatenate([cls, x], axis=1), patches


def patch_tokens_bwd(params, cache, positions, dx: np.ndarray, grads):
    patches = cache
    n = patches.shape[1]
    dcls = dx[:, 0]
    dtok = dx[:, 1:]
    nn.accumulate(grads, "vis.cls", dcls.sum(axis=0))
    dpos = np.zeros_like(params["vis.pos"])
    if positions is None:
        dpos[:n] = dtok.sum(axis=0)
    else:
        # positions are unique within a sample, so a fancy-index add per sample
        # sums each row in sample order, exactly as np.add.at would
        for b in range(positions.shape[0]):
            dpos[positions[b]] += dtok[b]
    nn.accumulate(grads, "vis.pos", dpos)
    nn.accumulate(grads, "vis.patch.w", nn.matmul_tn(patches, dtok))
    nn.accumulate(grads, "vis.patch.b", dtok.reshape(-1, dtok.shape[-1]).sum(axis=0))
    return nn.matmul(dtok, params["vis.patch.w"].T)


def visual_trunk_fwd(params, cfg: VisualEncoderConfig, patches: np.ndarray):
    """Patches through embedding + blocks + final norm. Returns (B, n+1, E)."""
    x, c_tok = patch_tokens_fwd(params, patches)
    x, c_stack = nn.stack_fwd(params, "vis", x, cfg.depth, cfg.heads)
    y, c_lnf = nn.layernorm_fwd(params, "vis.lnf", x)
    return y, (c_tok, c_stack, c_lnf)


def visual_trunk_bwd(params, cfg: VisualEncoderConfig, cache, dy, grads):
    c_tok, c_stack, c_lnf = cache
    dx = nn.layernorm_bwd(params, "vis.lnf", c_lnf, dy, grads)
    dx = nn.stack_bwd(params, "vis", c_stack, dx, grads)
    return patch_tokens_bwd(params, c_tok, None, dx, grads)


def visual_embed_fwd(params, cfg: VisualEncoderConfig, patches: np.ndarray):
    """Full (unmasked) patches -> (features (B, E), projected (B, Dp), cache)."""
    if patches.shape[1:] != (cfg.n_patches, cfg.patch_volume):
        raise ValueError(
            f"{patches.shape[1]} patches of {patches.shape[2]} voxels do not match the config's "
            f"n_patches {cfg.n_patches} of {cfg.patch_volume} (input_dims {cfg.input_dims})"
        )
    y, c_trunk = visual_trunk_fwd(params, cfg, patches)
    feats = y[:, 1:].mean(axis=1)
    emb, c_proj = nn.linear_fwd(params, "vis.proj", feats)
    return feats, emb, (c_trunk, c_proj, y.shape)


def visual_embed_bwd(params, cfg: VisualEncoderConfig, cache, demb, grads,
                     dfeats=None):
    c_trunk, c_proj, yshape = cache
    dpool = nn.linear_bwd(params, "vis.proj", c_proj, demb, grads)
    if dfeats is not None:
        dpool = dpool + dfeats
    dy = np.zeros(yshape, dtype=dpool.dtype)
    dy[:, 1:] = dpool[:, None, :] / (yshape[1] - 1)
    return visual_trunk_bwd(params, cfg, c_trunk, dy, grads)


# ---------------------------------------------------------------------------
# batched text forward / backward


def text_embed_fwd(params, cfg: TextEncoderConfig, ids: np.ndarray, lengths: np.ndarray):
    """(B, T) ids with lengths -> (features (B, E), projected (B, Dp), cache)."""
    if ids.max() >= params["txt.tok"].shape[0] or ids.min() < 0:
        raise ValueError(f"token id out of range [0, {params['txt.tok'].shape[0]})")
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence width {T} exceeds max_len {cfg.max_len}")
    x = params["txt.tok"][ids] + params["txt.pos"][:T]
    mask = (np.arange(T)[None, :] < lengths[:, None])
    x, c_stack = nn.stack_fwd(params, "txt", x, cfg.depth, cfg.heads, key_mask=mask)
    y, c_lnf = nn.layernorm_fwd(params, "txt.lnf", x)
    feats = (y * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    emb, c_proj = nn.linear_fwd(params, "txt.proj", feats)
    return feats, emb, (ids, c_stack, c_lnf, c_proj, y.shape, mask, lengths)


def text_embed_bwd(params, cfg: TextEncoderConfig, cache, demb, grads,
                   dfeats=None):
    """demb: gradient of the projected embedding, or None to skip txt.proj's
    backward (it then gets no gradient); dfeats: gradient of the features."""
    ids, c_stack, c_lnf, c_proj, yshape, mask, lengths = cache
    if demb is None:
        dpool = dfeats
    else:
        dpool = nn.linear_bwd(params, "txt.proj", c_proj, demb, grads)
        if dfeats is not None:
            dpool = dpool + dfeats
    dy = np.zeros(yshape, dtype=dpool.dtype)
    dy += (dpool / lengths[:, None])[:, None, :] * mask[:, :, None]
    dx = nn.layernorm_bwd(params, "txt.lnf", c_lnf, dy, grads)
    dx = nn.stack_bwd(params, "txt", c_stack, dx, grads)
    T = ids.shape[1]
    dtok = np.zeros_like(params["txt.tok"])
    np.add.at(dtok, ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    nn.accumulate(grads, "txt.tok", dtok)
    dpos = np.zeros_like(params["txt.pos"])
    dpos[:T] = dx.sum(axis=0)
    nn.accumulate(grads, "txt.pos", dpos)
