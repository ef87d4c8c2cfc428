"""Stage 2: contrastive alignment of volume and report embeddings.

Per step: embed both modalities, build the batch similarity matrix, derive
soft targets from the pathology vectors, and minimize a temperature-scaled
symmetrized cross-entropy. Text input alternates at random between the raw
free text and the concatenated structured statements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import (
    TextEncoderConfig,
    VisualEncoderConfig,
    init_text_params,
    text_embed_bwd,
    text_embed_fwd,
    visual_embed_bwd,
    visual_embed_fwd,
)
from .optim import Trainer, require, schedule_rules
from .reports import StructuredReport
from .seeding import substream
from .supervision import affinity_matrix, targets_from_affinity
from .tokenizer import Vocabulary, pad_batch, tokenize
from .volume import batch_patches


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.07
    variant_prob: float = 0.5
    epochs: int = 10
    batch: int = 8
    lr: float = 1e-5
    proj_lr: float = 5e-5
    weight_decay: float = 0.01
    warmup_frac: float = 0.05
    min_lr: float = 0.0
    # text-tower warmup before alignment: stands in for the initialization a
    # pretrained language encoder would provide (negation-aware sentence
    # features); supervised purely by each report's own statement polarities.
    # statement_frac mixes in single standardized statements (labeled by what
    # they assert, absent elsewhere) so short prompt-like inputs are
    # in-distribution and lexically overlapping findings stay disentangled
    text_warmup_steps: int = 300
    text_warmup_lr: float = 1e-3
    text_warmup_batch: int = 16
    text_warmup_statement_frac: float = 0.5

    def __post_init__(self):
        warm = self.text_warmup_steps
        require(
            *schedule_rules(self, self.lr),
            (self.batch >= 2, f"batch must be >= 2 (contrast is undefined for a single pair), "
                              f"got {self.batch}"),
            (self.proj_lr > 0, f"proj_lr must be positive, got {self.proj_lr}"),
            (self.temperature > 0, f"temperature must be positive, got {self.temperature}"),
            (0.0 <= self.variant_prob <= 1.0,
             f"variant_prob must lie in [0, 1], got {self.variant_prob}"),
            (warm >= 0, f"text_warmup_steps must be >= 0, got {warm}"),
            (warm == 0 or self.text_warmup_lr > 0 and self.text_warmup_batch >= 1,
             "text_warmup_lr must be positive and text_warmup_batch >= 1, got "
             f"{self.text_warmup_lr} and {self.text_warmup_batch}"),
            (0.0 <= self.text_warmup_statement_frac <= 1.0,
             "text_warmup_statement_frac must lie in [0, 1], got "
             f"{self.text_warmup_statement_frac}"),
        )


_PROJ_NAMES = ("vis.proj.w", "vis.proj.b", "txt.proj.w", "txt.proj.b")


def cosine_rows(v: np.ndarray, t: np.ndarray):
    """Row-normalized cosine similarity matrix with cached unit vectors."""
    vn = np.linalg.norm(v, axis=1)
    tn = np.linalg.norm(t, axis=1)
    for label, norms in (("visual", vn), ("text", tn)):
        bad = np.nonzero(norms == 0.0)[0]
        if bad.size:
            raise FloatingPointError(f"zero-norm {label} embedding at index {int(bad[0])}")
    vh = v / vn[:, None]
    th = t / tn[:, None]
    return vh @ th.T, (vh, th, vn, tn)


def cosine_rows_bwd(cache, dS: np.ndarray):
    vh, th, vn, tn = cache
    dvh = dS @ th
    dth = dS.T @ vh
    dv = (dvh - vh * (dvh * vh).sum(axis=1, keepdims=True)) / vn[:, None]
    dt = (dth - th * (dth * th).sum(axis=1, keepdims=True)) / tn[:, None]
    return dv, dt


def contrastive_loss(S: np.ndarray, T: np.ndarray, tau: float):
    """Symmetrized soft-label cross-entropy over similarity logits.

    L = 1/2 [CE(softmax(S/tau), T) + CE(softmax(S^T/tau), T^T)] with
    CE(P, T) = mean over rows of -sum_j T_ij log P_ij. Returns (loss, dL/dS).
    Stable by construction: log-softmax subtracts the row max.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    S = np.asarray(S, dtype=np.float64) if not isinstance(S, np.ndarray) else S
    if S.shape != T.shape or S.shape[0] != S.shape[1]:
        raise ValueError(f"shape mismatch: S {S.shape} vs T {T.shape}")
    B = S.shape[0]

    def ce_and_grad(logits, targets):
        logp = nn.log_softmax(logits, axis=1)
        loss = float(-(targets * logp).mean(axis=0).sum())
        p = np.exp(logp)
        row_mass = targets.sum(axis=1, keepdims=True)
        dlogits = (p * row_mass - targets) / B
        return loss, dlogits

    loss_r, dzr = ce_and_grad(S / tau, T)
    loss_c, dzc = ce_and_grad(S.T / tau, T.T)
    loss = 0.5 * (loss_r + loss_c)
    dS = 0.5 * (dzr + dzc.T) / tau
    return loss, dS


def sample_text_variant(free_text: str, structured: StructuredReport, rng,
                        variant_prob: float = 0.5) -> str:
    """Structured statement concatenation with probability variant_prob, else free text."""
    return structured.text() if rng.random() < variant_prob else free_text


# ---------------------------------------------------------------------------
# full-batch loss (shared by training and the gradient checker)


def clip_batch_fwd_bwd(params, vis_cfg: VisualEncoderConfig, txt_cfg: TextEncoderConfig,
                       patches: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                       targets: np.ndarray, tau: float):
    """One contrastive step: returns (loss, grads, S)."""
    _, v_emb, c_vis = visual_embed_fwd(params, vis_cfg, patches)
    _, t_emb, c_txt = text_embed_fwd(params, txt_cfg, ids, lengths)
    S, c_cos = cosine_rows(v_emb, t_emb)
    loss, dS = contrastive_loss(S, targets, tau)
    dv, dt = cosine_rows_bwd(c_cos, dS)
    grads: nn.Grads = {}
    visual_embed_bwd(params, vis_cfg, c_vis, dv, grads)
    text_embed_bwd(params, txt_cfg, c_txt, dt, grads)
    return loss, grads, S


# ---------------------------------------------------------------------------
# text-tower warmup


def warmup_text_encoder(cases, params, txt_cfg: TextEncoderConfig, vocab: Vocabulary,
                        cfg: ContrastiveConfig, seed: int, severity_fn=None) -> float:
    """Teach the text tower to encode its own statement polarities.

    The out-of-scope pretrained language encoder would arrive already able to
    tell "there is X" from "there is no X"; its from-scratch replacement has
    to acquire that before alignment can bind images to report semantics.
    Supervision is self-contained: each training report's +/-1 pathology
    vector, predicted from the text feature through a throwaway linear head.
    severity_fn (optional) maps a text to a wording-severity scalar in [0, 1]
    and adds one more supervised output, preserving graded wording (e.g.
    "extensive ... calcium" vs "calcified plaque") as an embedding direction
    instead of letting the binary objective collapse it. Returns the final
    warmup loss.
    """
    if cfg.text_warmup_steps == 0:
        return 0.0
    n_flags = len(cases[0][3].values)
    n_out = n_flags + (1 if severity_fn is not None else 0)
    rng = substream(seed, "text-warmup")
    head_w = nn.trunc_normal(rng, (txt_cfg.embed_dim, n_out),
                             dtype=params["txt.tok"].dtype)
    head_b = nn.zeros(head_w.shape[1], params["txt.tok"].dtype)
    warm = {k: v for k, v in params.items() if k.startswith("txt.")}
    warm["warm.head.w"] = head_w
    warm["warm.head.b"] = head_b
    trainer = Trainer("text warmup", warm, cfg.weight_decay)

    # single standardized statements with what they assert: present at their
    # slot, absent elsewhere (a negated statement asserts nothing present)
    statements = {}
    for _, _, st, _ in cases:
        for d, (stmt, flag) in enumerate(zip(st.statements, st.flags)):
            statements[(d, bool(flag))] = stmt
        if len(statements) == 2 * n_flags:
            break
    stmt_items = sorted(statements.items())

    n = len(cases)
    for _ in range(cfg.text_warmup_steps):
        idx = rng.choice(n, size=min(cfg.text_warmup_batch, n), replace=False)
        texts = []
        targets = np.empty((len(idx), n_out))
        for row, i in enumerate(idx):
            _, ft, st, vec = cases[i]
            if rng.random() < cfg.text_warmup_statement_frac:
                (d, flag), stmt = stmt_items[rng.integers(len(stmt_items))]
                texts.append(stmt)
                targets[row, :n_flags] = 0.0
                if flag:
                    targets[row, d] = 1.0
            else:
                texts.append(sample_text_variant(ft, st, rng, cfg.variant_prob))
                targets[row, :n_flags] = (np.asarray(vec.values) + 1.0) / 2.0
            if severity_fn is not None:
                targets[row, n_flags] = severity_fn(texts[-1])
        ids, lengths = pad_batch([tokenize(t, vocab, txt_cfg.max_len) for t in texts])
        feats, _, cache = text_embed_fwd(warm, txt_cfg, ids, lengths)
        logits, c_head = nn.linear_fwd(warm, "warm.head", feats)
        z = np.clip(logits, -30, 30)
        p = 1.0 / (1.0 + np.exp(-z))
        loss = float(-(targets * np.log(p + 1e-12)
                       + (1 - targets) * np.log(1 - p + 1e-12)).mean())
        grads: nn.Grads = {}
        dfeats = nn.linear_bwd(warm, "warm.head", c_head,
                               ((p - targets) / targets.size).astype(feats.dtype), grads)
        # no txt.proj gradient: a zero one would still let AdamW decay it
        text_embed_bwd(warm, txt_cfg, cache, None, grads, dfeats=dfeats)
        trainer.step(loss, grads, cfg.text_warmup_lr)
    for k in list(warm):
        if k.startswith("txt."):
            params[k] = warm[k]
    return loss


# ---------------------------------------------------------------------------
# training loop


def train_clip(pairs, params, vis_cfg: VisualEncoderConfig, txt_cfg: TextEncoderConfig,
               vocab: Vocabulary, cfg: ContrastiveConfig, seed: int, trace_hook=None,
               severity_fn=None):
    """Contrastive training from a stage-1 initialized parameter store.

    params must already carry the visual trunk (vis.*); text parameters are
    initialized here when absent. Two learning-rate groups: encoders at
    cfg.lr, projection heads at cfg.proj_lr. pairs holds one (volume, free
    text, structured report, pathology vector) tuple per case. Returns
    (params, trace).
    """
    n = len(pairs)
    if n < 2:
        raise ValueError("contrastive training needs at least 2 paired cases")
    if "txt.tok" not in params:
        init_text_params(substream(seed, "init-text"), txt_cfg, params["vis.proj.w"].shape[1], params)
    warmup_text_encoder(pairs, params, txt_cfg, vocab, cfg, seed, severity_fn=severity_fn)

    trainable = {k: v for k, v in params.items() if not k.startswith("dec.")}
    proj_scale = cfg.proj_lr / cfg.lr
    trainer = Trainer("contrastive", trainable, cfg.weight_decay,
                      lr_scale_of=lambda name: proj_scale if name in _PROJ_NAMES else 1.0)
    dtype = params["vis.patch.w"].dtype
    # a trailing singleton batch has no contrastive signal: min_batch=2 skips it
    for epoch, batches, extra in trainer.epochs(n, cfg, cfg.lr, seed, "clip-batch-order",
                                                trace_hook, min_batch=2):
        variant_rng = substream(seed, "variant", epoch)
        n_structured = 0
        n_texts = 0
        for idx in batches:
            vols, fts, sts, vecs = zip(*(pairs[i] for i in idx))
            patches = batch_patches(vols, vis_cfg.patch_size, dtype)
            texts = [
                sample_text_variant(ft, st, variant_rng, cfg.variant_prob)
                for ft, st in zip(fts, sts)
            ]
            n_structured += sum(t == st.text() for t, st in zip(texts, sts))
            n_texts += len(texts)
            ids, lengths = pad_batch([tokenize(t, vocab, txt_cfg.max_len) for t in texts])
            targets = targets_from_affinity(affinity_matrix(vecs)).rows
            loss, grads, _ = clip_batch_fwd_bwd(
                trainable, vis_cfg, txt_cfg, patches, ids, lengths, targets, cfg.temperature
            )
            trainer.step(loss, grads)
        extra["variant_structured_frac"] = n_structured / max(1, n_texts)
    params.update(trainable)
    return params, trainer.trace
