"""Downstream evaluation tasks: zero-shot prompt margins, cross-modal and
keyword retrieval scoring, the calcium-confidence proxy, and head fine-tuning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import visual_embed_bwd, visual_embed_fwd
from .metrics import (
    ScoredCase,
    auroc,
    head_ordinal_auroc,
    mean_recall_at_k,
    precision_at_k,
    rank_pool,
)
from .model import ModelBundle, embed_texts, embed_volumes, forward_volumes, unit_rows
from .optim import Trainer, require, schedule_rules
from .reports import make_prompt_pair
from .seeding import substream
from .volume import batch_patches

CAC_PROMPT_NAME = "Coronary Artery Calcium"


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


def retrieval_metrics(v: np.ndarray, t: np.ndarray, ids, flags: np.ndarray,
                      bundle: ModelBundle, recall_ks, precision_ks) -> dict:
    """Cross-modal Recall@K and keyword P@K over one pool of cases.

    v, t: unit-norm volume and report embeddings (n, proj_dim), row i of both
    from case ids[i]. Every volume queries the reports and every report the
    volumes; the relevant item is the query's own counterpart. Each catalog
    finding with a positive in flags (n, n_findings) queries the volumes with
    its positive prompt. Ties keep pool order. Returns unrounded
    {"recall": {"image_to_text_r@K", "text_to_image_r@K"},
     "keyword": {name: {"prevalence", "p@K"}}}.
    """
    if len(ids) == 0:
        raise ValueError("retrieval pool is empty")
    S = v @ t.T
    i2t = [rank_pool(S[i], ids, ids[i]) for i in range(len(ids))]
    t2i = [rank_pool(S[:, j], ids, ids[j]) for j in range(len(ids))]
    recall = {}
    for k in recall_ks:
        recall[f"image_to_text_r@{k}"] = mean_recall_at_k(i2t, ids, k)
        recall[f"text_to_image_r@{k}"] = mean_recall_at_k(t2i, ids, k)
    keyword = {}
    for d, name in enumerate(bundle.catalog.names):
        pos_ids = {ids[i] for i in range(len(ids)) if flags[i, d]}
        if not pos_ids:
            continue
        pos, _ = make_prompt_pair(name, bundle.catalog)
        ranked = rank_pool(v @ unit_rows(embed_texts(bundle, [pos]))[0], ids, name)
        keyword[name] = {"prevalence": len(pos_ids) / len(ids),
                         **{f"p@{k}": precision_at_k(ranked, pos_ids, k) for k in precision_ks}}
    return {"recall": recall, "keyword": keyword}


def cac_confidences(volumes, bundle: ModelBundle) -> np.ndarray:
    """Calcium confidence: the zero-shot margin s_p - s_n, in [-2, 2], between
    "There is Coronary Artery Calcium" and "There is no Coronary Artery Calcium".

    This is zero_shot_scores for that finding, and it is monotone in the
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

    def __post_init__(self):
        require(*schedule_rules(self, self.lr),
                (self.head_lr > 0, f"head_lr must be positive, got {self.head_lr}"))


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
    """Train an affine head on the mean-pooled visual feature (optionally with
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

    head_scale = cfg.head_lr / cfg.lr
    trainer = Trainer("fine-tune", trainable, cfg.weight_decay,
                      lr_scale_of=lambda name: head_scale if name.startswith("head.") else 1.0)
    for _, batches, extra in trainer.epochs(len(train_set), cfg, cfg.lr, seed, "finetune-order"):
        hits, seen = 0, 0
        for idx in batches:
            vols = [train_set[i][0] for i in idx]
            y = labels_all[idx]
            patches = batch_patches(vols, vis_cfg.patch_size, dtype)
            feats, _, cache = visual_embed_fwd(params, vis_cfg, patches)
            logits, c_head = nn.linear_fwd(params, "head", feats)
            loss, dlogits, probs = softmax_ce_logits(logits, y)
            grads: dict = {}
            dfeats = nn.linear_bwd(params, "head", c_head, dlogits, grads)
            if not cfg.freeze_encoder:
                zero_demb = np.zeros((len(y), params["vis.proj.w"].shape[1]), dtype=dfeats.dtype)
                visual_embed_bwd(params, vis_cfg, cache, zero_demb, grads, dfeats=dfeats)
            trainer.step(loss, grads)
            hits += int((probs.argmax(axis=1) == y).sum())
            seen += len(y)
        extra["train_accuracy"] = hits / seen

    result = {"trace": trainer.trace, "train_accuracy": trainer.trace[-1]["train_accuracy"]}
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


def predict_logits(params, vis_cfg, volumes, dtype=np.float32) -> np.ndarray:
    """The fine-tuned head's logits (n, head_classes) for a list of volumes."""
    return forward_volumes(params, vis_cfg, volumes, dtype,
                           lambda feats, _: nn.linear_fwd(params, "head", feats)[0])
