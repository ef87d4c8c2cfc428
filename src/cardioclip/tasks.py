"""Downstream evaluation tasks: zero-shot prompt margins, cross-modal and
keyword retrieval scoring, the calcium-confidence proxy, and head fine-tuning.
The functions on synth.SynthCase lists are the steps the CLI and the
acceptance suite share; they hand scores, labels and grades to metrics as
plain arrays and return unrounded values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import VisualEncoderConfig, check_volume_dims, visual_embed_bwd, visual_embed_fwd
from .metrics import auroc, head_ordinal_auroc, ordinal_auroc, precision_at_k, rank_pool, recall_at_k
from .model import ModelBundle, embed_texts, embed_volumes, forward_volumes, unit_rows
from .optim import Trainer, require, schedule_rules
from .reports import CATALOG, make_prompt_pair, structured_from_flags
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
    sims = v @ prompt_pair_rows(name, bundle).T
    return sims[:, 0] - sims[:, 1]


def prompt_pair_rows(name: str, bundle: ModelBundle) -> np.ndarray:
    """Unit-norm embeddings (2, proj_dim) of the finding's positive and
    negative prompts, embedded as one batch: a prompt embedded alone goes
    down BLAS's gemv path and differs from this row in its last bits."""
    return unit_rows(embed_texts(bundle, list(make_prompt_pair(name))))


def zero_shot_aurocs(cases, bundle: ModelBundle) -> dict:
    """{finding: AUROC of its prompt margin over the cases, None (metrics.auroc)
    where its flags hold one class}. The volumes are embedded once."""
    v = unit_rows(embed_volumes(bundle, [c.volume for c in cases]))
    flags = np.array([c.flags for c in cases])
    return {name: auroc(prompt_margins(v, name, bundle), flags[:, d])
            for d, name in enumerate(CATALOG.names)}


def retrieval_metrics(v: np.ndarray, t: np.ndarray, flags: np.ndarray,
                      bundle: ModelBundle, recall_ks, precision_ks) -> dict:
    """Cross-modal Recall@K and keyword P@K over one pool of cases.

    v, t: unit-norm volume and report embeddings (n, proj_dim), row i of both
    from case i. Every volume queries the reports and every report the
    volumes; the relevant item is the query's own counterpart. Each catalog
    finding with a positive in flags (n, n_findings) queries the volumes with
    its positive prompt. Ties keep pool order. Returns unrounded
    {"recall": {"image_to_text_r@K", "text_to_image_r@K"},
     "keyword": {name: {"prevalence", "p@K"}}}.
    """
    if len(v) == 0:
        raise ValueError("retrieval pool is empty")
    S = v @ t.T
    i2t, t2i = rank_pool(S), rank_pool(S.T)
    recall = {}
    for k in recall_ks:
        recall[f"image_to_text_r@{k}"] = recall_at_k(i2t, k)
        recall[f"text_to_image_r@{k}"] = recall_at_k(t2i, k)
    keyword = {}
    for d, name in enumerate(CATALOG.names):
        positive = flags[:, d]
        if not positive.any():
            continue
        order = rank_pool(v @ prompt_pair_rows(name, bundle)[0])
        keyword[name] = {"prevalence": int(positive.sum()) / len(v),
                         **{f"p@{k}": precision_at_k(order, positive, k) for k in precision_ks}}
    return {"recall": recall, "keyword": keyword}


def case_retrieval(cases, bundle: ModelBundle, recall_ks, precision_ks) -> dict:
    """retrieval_metrics over the cases as one pool, each volume paired with
    its structured report's text."""
    texts = [structured_from_flags(c.case_id, c.flags, CATALOG).text() for c in cases]
    return retrieval_metrics(
        unit_rows(embed_volumes(bundle, [c.volume for c in cases])),
        unit_rows(embed_texts(bundle, texts)), np.array([c.flags for c in cases]),
        bundle, recall_ks, precision_ks)


def cac_confidences(volumes, bundle: ModelBundle) -> np.ndarray:
    """Calcium confidence: the zero-shot margin s_p - s_n, in [-2, 2], between
    "There is Coronary Artery Calcium" and "There is no Coronary Artery Calcium".

    This is zero_shot_scores for that finding, and it is monotone in the
    two-prompt softmax. The positive prompt's raw cosine alone is not: after
    stage 2 every calcium wording sits in a narrow cone around that prompt, so
    its cosine mostly measures a per-image offset and does not order grades.
    """
    return zero_shot_scores(volumes, CAC_PROMPT_NAME, bundle)


def cac_grading(cases, bundle: ModelBundle):
    """Ordinal AUROC of the calcium confidence over graded cases: returns
    ([(t, AUROC of grade > t or None)], confidences). Refuses, before any
    embedding, cases that do not span two grades."""
    if len({c.grade for c in cases}) < 2:
        raise ValueError("held-out set does not span two grades; regenerate with higher cac_fraction")
    conf = cac_confidences([c.volume for c in cases], bundle)
    return ordinal_auroc([c.grade for c in cases], conf), conf


def finetune_labels(cases, target: str):
    """(volume, label) pairs and the head's class count for a fine-tuning
    target: for "cac", the graded cases with grade g as class g - 1 of 5;
    for a CATALOG finding (its name or a synonym), every case with its 0/1
    flag."""
    if target == "cac":
        return [(c.volume, c.grade - 1) for c in cases if c.grade is not None], 5
    d = CATALOG.index_of(target)
    return [(c.volume, int(c.flags[d])) for c in cases], 2


# ---------------------------------------------------------------------------
# fine-tuning with a classification head


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 10
    batch: int = 16
    lr: float = 3e-4
    head_lr: float = 1.5e-3
    warmup_frac: float = 0.05
    freeze_encoder: bool = False
    target: str = "cac"  # "cac" grades the graded cases; a catalog name learns its flag

    def __post_init__(self):
        require(*schedule_rules(self),
                (self.head_lr > 0, f"head_lr must be positive, got {self.head_lr}"),
                (self.target in ("cac", *CATALOG.names),
                 f"target must be 'cac' or a catalog name, got {self.target!r}"))


def finetune_classifier(train_set, params, head_classes: int, cfg: FinetuneConfig,
                        vis_cfg: VisualEncoderConfig, seed: int = 0, eval_set=None):
    """Train an affine head on the mean-pooled visual feature (optionally with
    the encoder). Labels are ints in [0, head_classes).

    Returns (params, result) where result carries the final epoch's train
    accuracy, and held-out metrics when eval_set is given:
    AUROC for 2 classes, per-threshold ordinal AUROC otherwise, where cut t
    is scored by the head's P(grade > t) (see metrics.head_ordinal_auroc).
    An eval set that cannot be scored (labels outside [0, head_classes), or
    fewer than two classes present), and a volume of either set whose dims
    are not vis_cfg.input_dims, are refused before any training. The
    caller's parameter arrays are left unchanged: the trained ones are
    copies.
    """
    labels_all = _labels(train_set, head_classes, "train")
    check_volume_dims(vis_cfg, [v for v, _ in train_set])
    if eval_set is not None:
        y_eval = _labels(eval_set, head_classes, "eval")
        counts = np.bincount(y_eval, minlength=head_classes)
        if np.count_nonzero(counts) < 2:
            raise ValueError(f"eval set cannot be scored: it needs two classes, got class "
                             f"counts {counts.tolist()}")
        check_volume_dims(vis_cfg, [v for v, _ in eval_set])
    dtype = params["vis.patch.w"].dtype
    rng = substream(seed, "head-init")
    params = dict(params)
    encoder = [] if cfg.freeze_encoder else [
        k for k in params if k.startswith("vis.") and not k.startswith("vis.proj")]
    # AdamW.step updates in place, so train copies of the caller's arrays
    params.update({k: params[k].copy() for k in encoder})
    params["head.w"] = nn.trunc_normal(rng, (vis_cfg.embed_dim, head_classes), dtype=dtype)
    params["head.b"] = np.zeros(head_classes, dtype)
    trainable = {k: params[k] for k in (*encoder, "head.w", "head.b")}

    head_scale = cfg.head_lr / cfg.lr
    trainer = Trainer("fine-tune", trainable,
                      lr_scale_of=lambda name: head_scale if name.startswith("head.") else 1.0)

    def batch_step(idx):
        nonlocal hits
        y = labels_all[idx]
        vols = [train_set[i][0] for i in idx]
        # no local keeps the raw batch: the forward caches its standardized copy
        feats, cache = visual_embed_fwd(params, vis_cfg,
                                        batch_patches(vols, vis_cfg.patch_size, dtype))
        logits, c_head = nn.linear_fwd(params, "head", feats)
        loss, dlogits, probs = nn.softmax_cross_entropy(
            logits, np.eye(head_classes, dtype=logits.dtype)[y])
        hits += int((probs.argmax(axis=1) == y).sum())
        grads: dict = {}
        dfeats = nn.linear_bwd(params, "head", c_head, dlogits, grads)
        if not cfg.freeze_encoder:
            visual_embed_bwd(params, cache, dfeats, grads)
        return loss, grads

    for _, batches, extra in trainer.epochs(len(train_set), cfg, seed, "finetune-order"):
        hits = 0
        for idx in batches:
            trainer.step(*batch_step(idx))
        extra["train_accuracy"] = hits / sum(idx.size for idx in batches)

    result = {"train_accuracy": trainer.trace[-1]["train_accuracy"]}
    if eval_set is not None:
        logits = predict_logits(params, vis_cfg, [v for v, _ in eval_set])
        p = np.exp(nn.log_softmax(logits))
        if head_classes == 2:
            result["auroc"] = auroc(p[:, 1], y_eval)
        else:
            result["ordinal_auroc"] = head_ordinal_auroc(p, y_eval + 1)
    return params, result


def _labels(pairs, head_classes: int, name: str) -> np.ndarray:
    """The int labels of (volume, label) pairs, refused when empty or outside
    [0, head_classes)."""
    if len(pairs) == 0:
        raise ValueError(f"fine-tuning {name} set is empty")
    y = np.asarray([lab for _, lab in pairs], dtype=np.int64)
    if y.min() < 0 or y.max() >= head_classes:
        raise ValueError(f"{name} labels must lie in [0, {head_classes}), got range "
                         f"[{y.min()}, {y.max()}]")
    return y


def predict_logits(params, vis_cfg, volumes) -> np.ndarray:
    """The fine-tuned head's logits (n, head_classes) for a list of volumes:
    the head over their forward_volumes features."""
    return nn.linear_fwd(params, "head", forward_volumes(params, vis_cfg, volumes))[0]
