#!/usr/bin/env python3
"""Standalone gradient audit: wider probe counts than the CLI gradcheck.

Checks both stage losses at double precision over toy geometries and prints
per-loss max relative errors for a few probe budgets.
"""

import sys

import numpy as np

from cardioclip.clip import clip_batch_fwd_bwd
from cardioclip.encoders import (
    TextEncoderConfig,
    VisualEncoderConfig,
    init_text_params,
    init_visual_params,
)
from cardioclip.gradcheck import gradient_check
from cardioclip.mae import DecoderConfig, init_decoder_params, mae_batch_bwd, mae_batch_fwd
from cardioclip.seeding import substream
from cardioclip.tokenizer import build_vocab, pad_batch, tokenize

VIS = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=2, heads=2,
                          mlp_ratio=2.0, input_dims=(4, 4, 4))
DEC = DecoderConfig(embed_dim=4, depth=1, heads=2, mlp_ratio=2.0)


def mae_loss_fn(seed=0):
    rng = substream(seed, "audit-init")
    params = init_visual_params(rng, VIS, proj_dim=4, dtype=np.float64)
    init_decoder_params(rng, VIS, DEC, params, dtype=np.float64)
    for k in params:
        params[k] = params[k] + rng.normal(0, 0.2, params[k].shape)
    data = substream(seed, "audit-data")
    patches = data.random((2, 8, 8))
    vis_idx = np.array([[0, 3, 5], [1, 2, 7]])
    mask_idx = np.array([[1, 2, 4, 6, 7], [0, 3, 4, 5, 6]])

    def fn(p):
        loss, cache = mae_batch_fwd(p, VIS, DEC, patches, vis_idx, mask_idx)
        return loss, mae_batch_bwd(p, VIS, DEC, cache)

    return fn, params


def clip_loss_fn(seed=0):
    texts = ["there is coronary stenosis", "no pericardial effusion", "cardiomegaly present"]
    vocab = build_vocab(texts)
    txt_cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=8, embed_dim=8,
                                depth=1, heads=2, mlp_ratio=2.0)
    rng = substream(seed, "audit-clip")
    params = init_visual_params(rng, VIS, proj_dim=4, dtype=np.float64)
    init_text_params(rng, txt_cfg, 4, params, dtype=np.float64)
    for k in params:
        params[k] = params[k].astype(np.float64) + rng.normal(0, 0.2, params[k].shape)
    data = substream(seed, "audit-clip-data")
    patches = data.random((3, 8, 8))
    ids, lengths = pad_batch([tokenize(t, vocab, 8) for t in texts])
    targets = np.array([[0.6, 0.2, 0.2], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])

    def fn(p):
        loss, grads, _ = clip_batch_fwd_bwd(p, VIS, txt_cfg, patches, ids, lengths,
                                            targets, tau=0.5)
        return loss, grads

    return fn, params


if __name__ == "__main__":
    worst = 0.0
    for label, builder in (("masked-reconstruction", mae_loss_fn), ("contrastive", clip_loss_fn)):
        fn, params = builder()
        for probes in (32, 128, 512):
            err = gradient_check(fn, params, n_probes=probes, eps=1e-5, seed=probes)
            worst = max(worst, err)
            print(f"{label:22s} probes={probes:4d} max relative error = {err:.3e}")
    print("PASS" if worst < 1e-4 else "FAIL", f"(worst {worst:.3e}, tolerance 1e-4)")
    sys.exit(0 if worst < 1e-4 else 1)
