"""Visual and textual transformer encoders sharing one projection space.

The visual encoder is a ViT with 3D patch embedding: a linear map from
per-volume standardized, flattened patches plus learned positional vectors
and a class token. The textual encoder is a small transformer over word ids
with length-masked attention. Both mean-pool their output tokens (the
visual tower over its patch tokens, the text tower over the valid tokens)
into features.

Each tower has one batched *_fwd/*_bwd pair from its input to its features,
visual_embed_* and text_embed_*, shared by stage 2, the text warmup,
fine-tuning, evaluation and the gradient checker. The projection to the
common width (vis.proj, txt.proj) is its callers' layer: stage 2 and the
embedding helpers apply it, while fine-tuning and the text warmup put their
own heads on the features. Stage 1 (mae.py) encodes its visible patches
with the tower's patch_tokens_* and "vis" stack, and pools nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .optim import count_rule, integer_rule, require


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
        entries = [integer_rule(f"{field}[{ax}]", x, 1) for field in ("input_dims", "patch_size")
                   for ax, x in enumerate(getattr(self, field))] if axes else []
        require(
            (axes, f"input_dims {self.input_dims} and patch_size {self.patch_size} "
                   "must each have 3 entries"),
            *entries,
            *((d % p == 0, f"input dim {d} not a multiple of patch size {p} on axis {ax}")
              for ax, (d, p) in enumerate(zip(self.input_dims, self.patch_size))
              if axes and all(ok for ok, _ in entries)),
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


def check_volume_dims(cfg: VisualEncoderConfig, volumes) -> None:
    """Refuse any volume whose dims are not cfg.input_dims: a volume of
    another shape can have the same number of patches, which would then take
    the positional vectors of the wrong grid cells."""
    for i, v in enumerate(volumes):
        if v.dims != tuple(cfg.input_dims):
            n = int(np.prod([d // p for d, p in zip(v.dims, cfg.patch_size)]))
            raise ValueError(
                f"volume {i} has dims {v.dims}, {n} patches of {cfg.patch_size}, not the "
                f"config's input_dims {cfg.input_dims} with n_patches {cfg.n_patches}"
            )


@dataclass(frozen=True)
class TextEncoderConfig:
    vocab_size: int
    max_len: int = 64
    embed_dim: int = 128
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        # max_len >= 2: the class token plus at least one content token
        require(count_rule(self, "max_len", 2), *tower_rules(self))

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


def tower_rules(cfg) -> tuple:
    """The rules of a transformer stack's shape, shared by the visual, text
    and decoder configs: integer heads >= 1 divide an integer embed_dim >= 1,
    integer depth >= 0, and mlp_ratio > 0."""
    dims = count_rule(cfg, "embed_dim", 1), count_rule(cfg, "heads", 1)
    return (
        *dims,
        (not all(ok for ok, _ in dims) or cfg.embed_dim % cfg.heads == 0,
         f"embed_dim {cfg.embed_dim} not a multiple of heads {cfg.heads}"),
        count_rule(cfg, "depth", 0),
        (cfg.mlp_ratio > 0, f"mlp_ratio must be positive, got {cfg.mlp_ratio}"),
    )


# ---------------------------------------------------------------------------
# parameter initialization


def init_visual_params(rng, cfg: VisualEncoderConfig, proj_dim: int,
                       dtype=np.float32) -> nn.Params:
    p = {}
    p["vis.patch.w"] = nn.trunc_normal(rng, (cfg.patch_volume, cfg.embed_dim), dtype=dtype)
    p["vis.patch.b"] = np.zeros(cfg.embed_dim, dtype)
    p["vis.pos"] = nn.trunc_normal(rng, (cfg.n_patches, cfg.embed_dim), dtype=dtype)
    p["vis.cls"] = nn.trunc_normal(rng, (cfg.embed_dim,), dtype=dtype)
    nn.init_stack(rng, p, "vis", cfg.embed_dim, cfg.depth, cfg.mlp_hidden, dtype)
    p["vis.proj.w"] = nn.trunc_normal(rng, (cfg.embed_dim, proj_dim), dtype=dtype)
    p["vis.proj.b"] = np.zeros(proj_dim, dtype)
    return p


def init_text_params(rng, cfg: TextEncoderConfig, proj_dim: int, params,
                     dtype=np.float32) -> nn.Params:
    # hotter-than-usual init on purpose (std 0.2 for token embeddings, 0.1
    # for the blocks): token embeddings must dominate the pooled feature from
    # step one (otherwise both modalities sit in a mutual near-collapse
    # saddle of the contrastive loss), and attention needs non-degenerate
    # logits to break symmetry fast enough to learn negation binding within
    # the short alignment stage
    params["txt.tok"] = nn.trunc_normal(rng, (cfg.vocab_size, cfg.embed_dim), std=0.2, dtype=dtype)
    params["txt.pos"] = nn.trunc_normal(rng, (cfg.max_len, cfg.embed_dim), dtype=dtype)
    nn.init_stack(rng, params, "txt", cfg.embed_dim, cfg.depth, cfg.mlp_hidden, dtype, std=0.1)
    params["txt.proj.w"] = nn.trunc_normal(rng, (cfg.embed_dim, proj_dim), dtype=dtype)
    params["txt.proj.b"] = np.zeros(proj_dim, dtype)
    return params


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
    """Backward of patch_tokens_fwd; returns the gradient of the patches.

    The standardized patches are dropped once vis.patch.w's gradient is
    accumulated, so when the caller holds no other reference to them they
    are freed before the input gradient is computed.
    """
    patches = cache
    del cache
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
    del patches
    nn.accumulate(grads, "vis.patch.b", dtok.reshape(-1, dtok.shape[-1]).sum(axis=0))
    return nn.matmul(dtok, params["vis.patch.w"].T)


def visual_embed_fwd(params, cfg: VisualEncoderConfig, patches: np.ndarray):
    """Full (unmasked) patches -> (features (B, E), cache), the cache a
    list that visual_embed_bwd empties."""
    if patches.shape[1:] != (cfg.n_patches, cfg.patch_volume):
        raise ValueError(
            f"{patches.shape[1]} patches of {patches.shape[2]} voxels do not match the config's "
            f"n_patches {cfg.n_patches} of {cfg.patch_volume} (input_dims {cfg.input_dims})"
        )
    x, c_tok = patch_tokens_fwd(params, patches)
    del patches  # c_tok holds the standardized copy; the raw batch may die now
    y, c_stack = nn.stack_fwd(params, "vis", x, cfg.depth, cfg.heads)
    return y[:, 1:].mean(axis=1), [c_tok, c_stack, y.shape]


def visual_embed_bwd(params, cache, dfeats, grads):
    """Backward of visual_embed_fwd from dfeats, the gradient of the features.

    Pops each entry off the cache list as it back-propagates through it, so
    the list is empty on return and the patch embedding's backward holds the
    only reference to the standardized patches.
    """
    yshape = cache.pop()
    dy = np.zeros(yshape, dtype=dfeats.dtype)
    dy[:, 1:] = dfeats[:, None, :] / (yshape[1] - 1)
    dx = nn.stack_bwd(params, "vis", cache.pop(), dy, grads)
    patch_tokens_bwd(params, cache.pop(), None, dx, grads)


# ---------------------------------------------------------------------------
# batched text forward / backward


def text_embed_fwd(params, cfg: TextEncoderConfig, ids: np.ndarray, lengths: np.ndarray):
    """(B, T) ids with lengths -> (features (B, E), cache)."""
    if ids.max() >= params["txt.tok"].shape[0] or ids.min() < 0:
        raise ValueError(f"token id out of range [0, {params['txt.tok'].shape[0]})")
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence width {T} exceeds max_len {cfg.max_len}")
    x = params["txt.tok"][ids] + params["txt.pos"][:T]
    mask = (np.arange(T)[None, :] < lengths[:, None])
    y, c_stack = nn.stack_fwd(params, "txt", x, cfg.depth, cfg.heads, key_mask=mask)
    feats = (y * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    return feats, (ids, c_stack, y.shape, mask, lengths)


def text_embed_bwd(params, cache, dfeats, grads):
    """Backward of text_embed_fwd from dfeats, the gradient of the features."""
    ids, c_stack, yshape, mask, lengths = cache
    dy = np.zeros(yshape, dtype=dfeats.dtype)
    dy += (dfeats / lengths[:, None])[:, None, :] * mask[:, :, None]
    dx = nn.stack_bwd(params, "txt", c_stack, dy, grads)
    T = ids.shape[1]
    dtok = np.zeros_like(params["txt.tok"])
    add_rows_at(dtok, ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    nn.accumulate(grads, "txt.tok", dtok)
    dpos = np.zeros_like(params["txt.pos"])
    dpos[:T] = dx.sum(axis=0)
    nn.accumulate(grads, "txt.pos", dpos)


def add_rows_at(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """target[ids[i]] += rows[i] for every i, bit for bit as
    np.add.at(target, ids, rows) does, with each sum cast to target's dtype.

    A row of zeros is skipped (the PAD positions of a text batch give about
    half the rows): adding it changes no entry but a -0.0, and sums onto a
    zero-filled target never make one. The rest are added one occurrence
    rank at a time, so each id still takes its rows in their original order;
    np.add.at's mixed float32/float64 path is several times slower.
    """
    keep = np.flatnonzero(rows.any(axis=1))
    ids, rows = ids[keep], rows[keep]
    if ids.size == 0:
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    rank = np.arange(ids.size) - np.repeat(starts, np.diff(np.r_[starts, ids.size]))
    for r in range(int(rank.max()) + 1):
        sel = order[rank == r]
        t = ids[sel]
        target[t] = target[t] + rows[sel]
