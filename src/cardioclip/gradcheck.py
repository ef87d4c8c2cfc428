"""Finite-difference verification of analytic gradients.

The loss callable must return (loss, grads) where grads maps parameter names
to arrays shaped like the parameters. Probes are random scalar coordinates;
each is perturbed by +/- eps and compared against the analytic entry via
central differences. Run in float64: float32 round-off swamps eps**2 error.

toy_losses builds the one float64 toy problem both stage losses are checked
on, shared by the CLI's gradcheck command, scripts/gradcheck_report.py and
the acceptance suite; stage_loss_errors is the check the CLI and the
acceptance suite run on it, passed when each error is below TOLERANCE.
"""

from __future__ import annotations

import numpy as np

from .clip import clip_batch_fwd_bwd
from .encoders import TextEncoderConfig, VisualEncoderConfig, init_text_params, init_visual_params
from .mae import DecoderConfig, init_decoder_params, mae_batch_bwd, mae_batch_fwd
from .seeding import substream
from .tokenizer import build_vocab, pad_batch, tokenize

TOY_VIS = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=2, heads=2,
                              mlp_ratio=2.0, input_dims=(4, 4, 4))
TOY_DEC = DecoderConfig(embed_dim=4, depth=1, heads=2, mlp_ratio=2.0)
TOY_TEXTS = ("there is coronary stenosis", "no pericardial effusion", "cardiomegaly present")
TOLERANCE = 1e-4  # max relative error a hand-written gradient may show
N_PROBES, EPS = 32, 1e-5  # stage_loss_errors' probe count and step


def gradient_check(loss_fn, params, n_probes: int = N_PROBES, eps: float = EPS,
                   seed: int = 0) -> float:
    """Max relative error |g_a - g_n| / max(1e-8, |g_a| + |g_n|) over random probes."""
    loss0, grads = loss_fn(params)
    if not np.isfinite(loss0):
        raise FloatingPointError(f"loss is non-finite at the probe point: {loss0}")
    names = sorted(params.keys())
    sizes = np.array([params[n].size for n in names], dtype=np.int64)
    total = int(sizes.sum())
    rng = substream(seed, "gradcheck")
    worst = 0.0
    for flat in rng.choice(total, size=min(n_probes, total), replace=False):
        t = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        idx = int(flat - (np.cumsum(sizes)[t] - sizes[t]))
        name = names[t]
        theta = params[name].reshape(-1)
        keep = theta[idx]
        theta[idx] = keep + eps
        up, _ = loss_fn(params)
        theta[idx] = keep - eps
        down, _ = loss_fn(params)
        theta[idx] = keep
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(f"non-finite loss while probing {name}[{idx}]")
        g_num = (up - down) / (2.0 * eps)
        g_ana = 0.0 if name not in grads else float(grads[name].reshape(-1)[idx])
        rel = abs(g_ana - g_num) / max(1e-8, abs(g_ana) + abs(g_num))
        worst = max(worst, rel)
    return worst


def toy_losses(seed: int) -> dict:
    """Both stage losses on a float64 toy geometry, as {"mae": (loss_fn, params),
    "contrastive": (loss_fn, params)} ready for gradient_check.

    Stage 1 masks 5 of 8 patches per volume; stage 2 aligns 3 volumes with 3
    reports under soft targets. Parameters are moved off their tiny init so
    finite differences are well-conditioned.
    """
    rng = substream(seed, "gradcheck-init")
    data = substream(seed, "gradcheck-data")

    def spread(params):
        for k in params:
            params[k] += rng.normal(0, 0.2, params[k].shape)
        return params

    mae_params = init_visual_params(rng, TOY_VIS, proj_dim=4, dtype=np.float64)
    spread(init_decoder_params(rng, TOY_VIS, TOY_DEC, mae_params, dtype=np.float64))
    patches = data.random((2, 8, 8))
    vis_idx = np.array([[0, 3, 5], [1, 2, 7]])
    mask_idx = np.array([[1, 2, 4, 6, 7], [0, 3, 4, 5, 6]])

    def mae_loss(p):
        loss, cache = mae_batch_fwd(p, TOY_VIS, TOY_DEC, patches, vis_idx, mask_idx)
        return loss, mae_batch_bwd(p, cache)

    vocab = build_vocab(TOY_TEXTS)
    txt_cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=8, embed_dim=8, depth=1,
                                heads=2, mlp_ratio=2.0)
    clip_params = init_visual_params(rng, TOY_VIS, proj_dim=4, dtype=np.float64)
    spread(init_text_params(rng, txt_cfg, 4, clip_params, dtype=np.float64))
    clip_patches = data.random((3, 8, 8))
    ids, lengths = pad_batch([tokenize(t, vocab, 8) for t in TOY_TEXTS])
    targets = np.array([[0.6, 0.2, 0.2], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])

    def clip_loss(p):
        return clip_batch_fwd_bwd(p, TOY_VIS, txt_cfg, clip_patches, ids, lengths, targets,
                                  tau=0.5)

    return {"mae": (mae_loss, mae_params), "contrastive": (clip_loss, clip_params)}


def stage_loss_errors(seed: int) -> dict:
    """{"mae": error, "contrastive": error}: gradient_check's max relative
    error of each stage loss on toy_losses(seed), N_PROBES probes at EPS."""
    return {name: gradient_check(fn, params, seed=seed)
            for name, (fn, params) in toy_losses(seed).items()}
