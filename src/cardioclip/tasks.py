"""Downstream evaluation tasks: zero-shot prompt classification, the three
retrieval protocols, the calcium-confidence proxy, and head fine-tuning."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import visual_embed_bwd, visual_embed_fwd
from .metrics import RankedList, ScoredCase, auroc, head_ordinal_auroc, precision_at_k, rank_pool
from .model import ModelBundle, embed_texts, embed_volumes, unit_rows
from .optim import AdamW, ScheduleConfig, lr_at_step
from .reports import make_prompt_pair
from .seeding import substream
from .volume import Volume3D, batch_patches

logger = logging.getLogger(__name__)

CAC_PROMPT_NAME = "Coronary Artery Calcium"


def zero_shot_classify(v: Volume3D, name: str, bundle: ModelBundle):
    """Compare image similarity against the positive and negative prompts.

    Returns (decision, s_p, s_n); an exact tie resolves to negative.
    """
    pos, neg = make_prompt_pair(name, bundle.catalog)
    v_emb = unit_rows(embed_volumes(bundle, [v]))[0]
    t_emb = unit_rows(embed_texts(bundle, [pos, neg]))
    s_p = float(v_emb @ t_emb[0])
    s_n = float(v_emb @ t_emb[1])
    if s_p == s_n:
        logger.warning("zero-shot tie for %r; resolving to negative", name)
    return s_p > s_n, s_p, s_n


def zero_shot_scores(volumes, name: str, bundle: ModelBundle) -> np.ndarray:
    """Batched s_p - s_n margin, the continuous score behind zero-shot AUROC."""
    return prompt_margins(unit_rows(embed_volumes(bundle, volumes)), name, bundle)


def prompt_margins(v: np.ndarray, name: str, bundle: ModelBundle) -> np.ndarray:
    """s_p - s_n of unit-norm volume embeddings v (n, proj_dim) against the
    finding's positive and negative prompts; embed the volumes once and call
    this per finding."""
    pos, neg = make_prompt_pair(name, bundle.catalog)
    t = unit_rows(embed_texts(bundle, [pos, neg]))
    sims = v @ t.T
    return sims[:, 0] - sims[:, 1]


def image_to_text_retrieve(query: Volume3D, pool_texts, bundle: ModelBundle,
                           pool_ids=None, query_id: str = "query") -> RankedList:
    """Rank the report pool by cosine against the query volume (stable ties)."""
    if len(pool_texts) == 0:
        raise ValueError("retrieval pool is empty")
    if pool_ids is None:
        pool_ids = [str(i) for i in range(len(pool_texts))]
    v = unit_rows(embed_volumes(bundle, [query]))[0]
    t = unit_rows(embed_texts(bundle, list(pool_texts)))
    return rank_pool(t @ v, list(pool_ids), query_id)


def text_to_image_retrieve(query: str, pool_volumes, bundle: ModelBundle,
                           pool_ids=None, query_id: str = "query") -> RankedList:
    """Rank the volume pool by cosine against the query report (stable ties)."""
    if len(pool_volumes) == 0:
        raise ValueError("retrieval pool is empty")
    if pool_ids is None:
        pool_ids = [str(i) for i in range(len(pool_volumes))]
    t = unit_rows(embed_texts(bundle, [query]))[0]
    v = unit_rows(embed_volumes(bundle, list(pool_volumes)))
    return rank_pool(v @ t, list(pool_ids), query_id)


def keyword_retrieve(name: str, pool_volumes, bundle: ModelBundle, k: int,
                     positive_ids, pool_ids=None):
    """Query with the positive prompt for a finding; returns (RankedList, P@K)."""
    pos, _ = make_prompt_pair(name, bundle.catalog)
    ranked = text_to_image_retrieve(pos, pool_volumes, bundle, pool_ids, query_id=pos)
    return ranked, precision_at_k(ranked, positive_ids, k)


def cac_confidence(v: Volume3D, bundle: ModelBundle) -> float:
    """Calcium confidence of one volume; see cac_confidences."""
    return float(cac_confidences([v], bundle)[0])


def cac_confidences(volumes, bundle: ModelBundle) -> np.ndarray:
    """Calcium confidence: the zero-shot margin s_p - s_n, in [-2, 2], between
    "There is Coronary Artery Calcium" and "There is no Coronary Artery Calcium".

    This is the score zero_shot_classify decides on, and it is monotone in the
    two-prompt softmax. The positive prompt's raw cosine alone is not: after
    stage 2 every calcium wording sits in a narrow cone around that prompt, so
    its cosine mostly measures a per-image offset and does not order grades.
    """
    return zero_shot_scores(volumes, CAC_PROMPT_NAME, bundle)


# ---------------------------------------------------------------------------
# fine-tuning with a classification head


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 10
    batch: int = 16
    lr: float = 1e-5
    head_lr: float = 5e-5
    weight_decay: float = 0.01
    warmup_frac: float = 0.05
    min_lr: float = 0.0
    freeze_encoder: bool = False


def softmax_ce_logits(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over integer labels; returns (loss, dlogits, probs)."""
    logp = nn.log_softmax(logits, axis=1)
    B = logits.shape[0]
    loss = float(-logp[np.arange(B), labels].mean())
    p = np.exp(logp)
    d = p.copy()
    d[np.arange(B), labels] -= 1.0
    return loss, d / B, p


def finetune_classifier(train_set, params, head_classes: int, cfg: FinetuneConfig,
                        bundle: ModelBundle, seed: int = 0, eval_set=None):
    """Train an affine head on the visual class-token feature (optionally with
    the encoder). Labels are ints in [0, head_classes).

    Returns (params, result) where result carries the per-epoch loss trace,
    final train accuracy, and held-out metrics when eval_set is given:
    AUROC for 2 classes, per-threshold ordinal AUROC otherwise, where cut t
    is scored by the head's P(grade > t) (see metrics.head_ordinal_auroc).
    The caller's parameter arrays are left unchanged: the trained ones are
    copies.
    """
    if len(train_set) == 0:
        raise ValueError("fine-tuning train set is empty")
    labels_all = np.asarray([y for _, y in train_set], dtype=np.int64)
    if labels_all.min() < 0 or labels_all.max() >= head_classes:
        raise ValueError(
            f"labels must lie in [0, {head_classes}), got range "
            f"[{labels_all.min()}, {labels_all.max()}]"
        )
    vis_cfg = bundle.vis_cfg
    dtype = params["vis.patch.w"].dtype
    rng = substream(seed, "head-init")
    params = dict(params)
    encoder = [] if cfg.freeze_encoder else [
        k for k in params if k.startswith("vis.") and not k.startswith("vis.proj")]
    # AdamW.step updates in place, so train copies of the caller's arrays
    params.update({k: params[k].copy() for k in encoder})
    params["head.w"] = nn.trunc_normal(rng, (vis_cfg.embed_dim, head_classes), dtype=dtype)
    params["head.b"] = nn.zeros(head_classes, dtype)
    trainable = {k: params[k] for k in (*encoder, "head.w", "head.b")}

    n = len(train_set)
    steps_per_epoch = math.ceil(n / cfg.batch)
    total_steps = cfg.epochs * steps_per_epoch
    sched = ScheduleConfig(cfg.lr, int(round(cfg.warmup_frac * total_steps)), total_steps,
                           cfg.weight_decay, cfg.min_lr)
    head_scale = cfg.head_lr / cfg.lr
    opt = AdamW(trainable, weight_decay=cfg.weight_decay,
                lr_scale_of=lambda name: head_scale if name.startswith("head.") else 1.0)

    trace = []
    step = 0
    for epoch in range(cfg.epochs):
        order = substream(seed, "finetune-order", epoch).permutation(n)
        losses, hits, seen = [], 0, 0
        for b0 in range(0, n, cfg.batch):
            idx = order[b0 : b0 + cfg.batch]
            vols = [train_set[i][0] for i in idx]
            y = labels_all[idx]
            patches = batch_patches(vols, vis_cfg.patch_size, dtype)
            feats, _, cache = visual_embed_fwd(params, vis_cfg, patches)
            logits, c_head = nn.linear_fwd(params, "head", feats)
            loss, dlogits, probs = softmax_ce_logits(logits, y)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite fine-tune loss at step {step}")
            grads: dict = {}
            dfeats = nn.linear_bwd(params, "head", c_head, dlogits, grads)
            if not cfg.freeze_encoder:
                zero_demb = np.zeros((len(y), params["vis.proj.w"].shape[1]), dtype=dfeats.dtype)
                visual_embed_bwd(params, vis_cfg, cache, zero_demb, grads, dfeats=dfeats)
            lr = lr_at_step(sched, step)
            opt.step(trainable, grads, lr)
            losses.append(loss)
            hits += int((probs.argmax(axis=1) == y).sum())
            seen += len(y)
            step += 1
        trace.append({"epoch": epoch, "mean_loss": float(np.mean(losses)),
                      "train_accuracy": hits / seen})

    result = {"trace": trace, "train_accuracy": trace[-1]["train_accuracy"]}
    if eval_set is not None:
        vols = [v for v, _ in eval_set]
        y = np.asarray([lab for _, lab in eval_set], dtype=np.int64)
        logits = predict_logits(params, vis_cfg, vols, dtype)
        p = np.exp(nn.log_softmax(logits, axis=1))
        if head_classes == 2:
            cases = [ScoredCase(str(i), float(p[i, 1]), bool(y[i])) for i in range(len(y))]
            result["auroc"] = auroc(cases)
        else:
            result["ordinal_auroc"] = head_ordinal_auroc(p, y + 1)
    return params, result


def predict_logits(params, vis_cfg, volumes, dtype=np.float32, chunk: int = 32) -> np.ndarray:
    out = []
    for i in range(0, len(volumes), chunk):
        patches = batch_patches(volumes[i : i + chunk], vis_cfg.patch_size, dtype)
        feats, _, _ = visual_embed_fwd(params, vis_cfg, patches)
        logits, _ = nn.linear_fwd(params, "head", feats)
        out.append(logits)
    return np.concatenate(out, axis=0)
