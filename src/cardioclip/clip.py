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
    check_volume_dims,
    init_text_params,
    text_embed_bwd,
    text_embed_fwd,
    visual_embed_bwd,
    visual_embed_fwd,
)
from .optim import Trainer, count_rule, require, schedule_rules
from .reports import StructuredReport, structured_from_flags
from .seeding import substream
from .supervision import affinity_matrix, pathology_vector, targets_from_affinity
from .tokenizer import Vocabulary, build_vocab, pad_batch, tokenize
from .volume import batch_patches

# Stage 2 shows a report as its standardized statements with probability
# VARIANT_PROB, else as its free text. The text warmup before it, stepping at
# the stage's lr, stands in for a pretrained language encoder's negation-aware
# features, supervised by each report's own statement polarities. With
# probability WARMUP_STATEMENT_PROB a warmup row is one standardized statement
# (labeled by what it asserts, absent elsewhere), so short prompt-like inputs
# are in-distribution and lexically overlapping findings stay disentangled.
VARIANT_PROB = 0.5
WARMUP_STATEMENT_PROB = 0.5


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.2
    epochs: int = 10
    batch: int = 8
    lr: float = 1e-3
    proj_lr: float = 5e-3
    warmup_frac: float = 0.05
    text_warmup_steps: int = 300
    text_warmup_batch: int = 16

    def __post_init__(self):
        require(
            *schedule_rules(self),
            (self.batch >= 2, f"batch must be >= 2 (contrast is undefined for a single pair), "
                              f"got {self.batch}"),
            (self.proj_lr > 0, f"proj_lr must be positive, got {self.proj_lr}"),
            (self.temperature > 0, f"temperature must be positive, got {self.temperature}"),
            count_rule(self, "text_warmup_steps", 0),
            (self.text_warmup_steps == 0 or count_rule(self, "text_warmup_batch", 1)[0],
             "a text warmup needs text_warmup_batch an integer >= 1, got "
             f"{self.text_warmup_batch!r}"),
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

    L = 1/2 [CE(softmax(S/tau), T) + CE(softmax(S^T/tau), T^T)], each CE one
    nn.softmax_cross_entropy call (stable: log-softmax subtracts the row max).
    Returns (loss, dL/dS).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if S.shape != T.shape or S.shape[0] != S.shape[1]:
        raise ValueError(f"shape mismatch: S {S.shape} vs T {T.shape}")
    loss_r, dzr, _ = nn.softmax_cross_entropy(S / tau, T)
    loss_c, dzc, _ = nn.softmax_cross_entropy(S.T / tau, T.T)
    loss = 0.5 * (loss_r + loss_c)
    dS = 0.5 * (dzr + dzc.T) / tau
    return loss, dS


def sample_text_variant(free_text: str, structured: StructuredReport, rng) -> str:
    """Structured statement concatenation with probability VARIANT_PROB, else free text."""
    return structured.text() if rng.random() < VARIANT_PROB else free_text


# ---------------------------------------------------------------------------
# full-batch loss (shared by training and the gradient checker)


def clip_batch_fwd_bwd(params, vis_cfg: VisualEncoderConfig, txt_cfg: TextEncoderConfig,
                       patches: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
                       targets: np.ndarray, tau: float):
    """One contrastive step on both towers' projected features: returns
    (loss, grads). Drops its reference to patches once the visual forward has
    cached their standardized copy, so a caller that keeps none holds one copy
    through the backward."""
    feats, c_vis = visual_embed_fwd(params, vis_cfg, patches)
    del patches
    v_emb, c_vproj = nn.linear_fwd(params, "vis.proj", feats)
    feats, c_txt = text_embed_fwd(params, txt_cfg, ids, lengths)
    t_emb, c_tproj = nn.linear_fwd(params, "txt.proj", feats)
    S, c_cos = cosine_rows(v_emb, t_emb)
    loss, dS = contrastive_loss(S, targets, tau)
    dv, dt = cosine_rows_bwd(c_cos, dS)
    grads: nn.Grads = {}
    visual_embed_bwd(params, c_vis, nn.linear_bwd(params, "vis.proj", c_vproj, dv, grads), grads)
    text_embed_bwd(params, c_txt, nn.linear_bwd(params, "txt.proj", c_tproj, dt, grads), grads)
    return loss, grads


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
    n_flags = len(cases[0][3])
    n_out = n_flags + (1 if severity_fn is not None else 0)
    rng = substream(seed, "text-warmup")
    head_w = nn.trunc_normal(rng, (txt_cfg.embed_dim, n_out),
                             dtype=params["txt.tok"].dtype)
    head_b = np.zeros(head_w.shape[1], params["txt.tok"].dtype)
    warm = {k: v for k, v in params.items() if k.startswith("txt.")}
    warm["warm.head.w"] = head_w
    warm["warm.head.b"] = head_b
    trainer = Trainer("text warmup", warm)

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

    def batch_step():
        idx = rng.choice(n, size=min(cfg.text_warmup_batch, n), replace=False)
        texts = []
        targets = np.empty((len(idx), n_out))
        for row, i in enumerate(idx):
            _, ft, st, vec = cases[i]
            if rng.random() < WARMUP_STATEMENT_PROB:
                (d, flag), stmt = stmt_items[rng.integers(len(stmt_items))]
                texts.append(stmt)
                targets[row, :n_flags] = 0.0
                if flag:
                    targets[row, d] = 1.0
            else:
                texts.append(sample_text_variant(ft, st, rng))
                targets[row, :n_flags] = (vec + 1.0) / 2.0
            if severity_fn is not None:
                targets[row, n_flags] = severity_fn(texts[-1])
        ids, lengths = pad_batch([tokenize(t, vocab, txt_cfg.max_len) for t in texts])
        feats, cache = text_embed_fwd(warm, txt_cfg, ids, lengths)
        logits, c_head = nn.linear_fwd(warm, "warm.head", feats)
        loss, dlogits = nn.sigmoid_cross_entropy(logits, targets)
        grads: nn.Grads = {}
        dfeats = nn.linear_bwd(warm, "warm.head", c_head, dlogits, grads)
        # no txt.proj gradient: a zero one would still let AdamW decay it
        text_embed_bwd(warm, cache, dfeats, grads)
        return loss, grads

    for _ in range(cfg.text_warmup_steps):
        trainer.step(*batch_step(), cfg.lr)
    return trainer.losses[-1]


# ---------------------------------------------------------------------------
# training loop


def contrastive_pairs(cases, catalog):
    """train_clip's pairs and vocabulary from synth cases: each case's
    (volume, free text, structured report, pathology vector), and a
    vocabulary over the free texts and the structured texts."""
    structured = [structured_from_flags(c.case_id, c.flags, catalog) for c in cases]
    vocab = build_vocab([c.free_text for c in cases] + [s.text() for s in structured])
    return [(c.volume, c.free_text, s, pathology_vector(s))
            for c, s in zip(cases, structured)], vocab


def train_clip(pairs, params, vis_cfg: VisualEncoderConfig, txt_cfg: TextEncoderConfig,
               vocab: Vocabulary, cfg: ContrastiveConfig, seed: int, trace_hook=None,
               severity_fn=None):
    """Contrastive training from a stage-1 initialized parameter store.

    params must already carry the visual trunk (vis.*); text parameters are
    initialized here when absent. Two learning-rate groups: encoders at
    cfg.lr, projection heads at cfg.proj_lr. pairs holds one (volume, free
    text, structured report, pathology vector) tuple per case; fewer than 2
    pairs, or a volume whose dims are not vis_cfg.input_dims, is refused
    before any step. Returns (trained, trace): trained is params without the
    stage-1 decoder (dec.*), the set this stage trains and saves.
    """
    n = len(pairs)
    if n < 2:
        raise ValueError("contrastive training needs at least 2 paired cases")
    check_volume_dims(vis_cfg, [p[0] for p in pairs])
    if "txt.tok" not in params:
        init_text_params(substream(seed, "init-text"), txt_cfg, params["vis.proj.w"].shape[1], params)
    warmup_text_encoder(pairs, params, txt_cfg, vocab, cfg, seed, severity_fn=severity_fn)

    trainable = {k: v for k, v in params.items() if not k.startswith("dec.")}
    proj_scale = cfg.proj_lr / cfg.lr
    trainer = Trainer("contrastive", trainable,
                      lr_scale_of=lambda name: proj_scale if name in _PROJ_NAMES else 1.0)
    dtype = params["vis.patch.w"].dtype

    def batch_step(vols, texts, vecs):
        ids, lengths = pad_batch([tokenize(t, vocab, txt_cfg.max_len) for t in texts])
        targets = targets_from_affinity(affinity_matrix(vecs))
        return clip_batch_fwd_bwd(
            trainable, vis_cfg, txt_cfg, batch_patches(vols, vis_cfg.patch_size, dtype),
            ids, lengths, targets, cfg.temperature
        )

    # a trailing singleton batch has no contrastive signal: min_batch=2 skips it
    for epoch, batches, extra in trainer.epochs(n, cfg, seed, "clip-batch-order",
                                                trace_hook, min_batch=2):
        variant_rng = substream(seed, "variant", epoch)
        n_structured = 0
        n_texts = 0
        for idx in batches:
            vols, fts, sts, vecs = zip(*(pairs[i] for i in idx))
            texts = [sample_text_variant(ft, st, variant_rng) for ft, st in zip(fts, sts)]
            n_structured += sum(t == st.text() for t, st in zip(texts, sts))
            n_texts += len(texts)
            trainer.step(*batch_step(vols, texts, vecs))
        extra["variant_structured_frac"] = n_structured / max(1, n_texts)
    return trainable, trainer.trace
