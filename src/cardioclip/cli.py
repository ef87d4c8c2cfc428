"""Command-line driver: corpus generation, report structuring, both
pre-training stages, the evaluation suite, fine-tuning, and the gradient
checker. Every command writes a self-describing output directory (config
copy, manifest, metrics, checkpoints) and mirrors its metrics to stdout as
JSON. Exit codes: 0 success, 2 usage, 3 invalid configuration, 1 runtime
failure."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .clip import ContrastiveConfig, train_clip
from .config import ConfigError, config_digest, load_config
from .encoders import TextEncoderConfig, VisualEncoderConfig
from .gradcheck import gradient_check
from .mae import DecoderConfig, MAETrainConfig, train_mae
from .metrics import (
    GradeSet,
    ScoredCase,
    auroc,
    mean_recall_at_k,
    ordinal_auroc,
    precision_at_k,
    rank_pool,
)
from .model import ModelBundle, embed_texts, embed_volumes, unit_rows
from .reports import FreeTextReport, load_catalog, structure_report, structured_from_flags
from .seeding import substream
from .supervision import pathology_vector
from .synth import SynthSpec, calcium_wording_severity, generate_full_corpus, write_corpus
from .tasks import FinetuneConfig, cac_confidences, finetune_classifier, prompt_margins
from .tokenizer import build_vocab, load_vocab, save_vocab
from .volume import load_volume

COMMANDS = (
    "synth",
    "structure-reports",
    "pretrain-mae",
    "pretrain-clip",
    "eval-zeroshot",
    "eval-retrieval",
    "eval-cac",
    "finetune",
    "gradcheck",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardioclip",
        description="Two-stage volumetric image/report pre-training on a synthetic corpus.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file (defaults apply otherwise)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set clip.temperature=0.1")
    parser.add_argument("--out", default=None,
                        help="output root (default: $CARDIOCLIP_OUT or ./runs)")
    parser.add_argument("--init", default=None,
                        help="checkpoint stem to initialize from (stage-specific default otherwise)")
    parser.add_argument("--force", action="store_true",
                        help="proceed despite a checkpoint config-digest mismatch")
    return parser


def _out_root(args) -> str:
    return args.out or os.environ.get("CARDIOCLIP_OUT") or "runs"


def _cmd_dir(root: str, command: str) -> str:
    path = os.path.join(root, command.replace("-", "_"))
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _emit(cmd_dir: str, cfg: dict, command: str, metrics: dict, extra_manifest=None) -> None:
    """metrics.json is deterministic; timestamps live only in the manifest."""
    _write_json(os.path.join(cmd_dir, "metrics.json"), metrics)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg["seed"],
        "config_digest": config_digest(cfg),
        "config": cfg,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    _write_json(os.path.join(cmd_dir, "manifest.json"), manifest)
    json.dump(metrics, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _geometry(cfg):
    vis = cfg["visual"]
    txt = cfg["text"]
    dec = cfg["decoder"]
    vis_cfg = VisualEncoderConfig(
        patch_size=tuple(cfg["geometry"]["patch_size"]),
        embed_dim=vis["embed_dim"], depth=vis["depth"], heads=vis["heads"],
        mlp_ratio=vis["mlp_ratio"], input_dims=tuple(cfg["geometry"]["dims"]),
    )
    dec_cfg = DecoderConfig(embed_dim=dec["embed_dim"], depth=dec["depth"],
                            heads=dec["heads"], mlp_ratio=dec["mlp_ratio"])
    return vis_cfg, dec_cfg, txt


def _synth_spec(cfg) -> SynthSpec:
    s = cfg["synth"]
    prev = s["prevalence"]
    return SynthSpec(
        n_cases=s["n_cases"], dims=tuple(cfg["geometry"]["dims"]),
        prevalence=tuple(prev) if isinstance(prev, list) else prev,
        signal_strength=s["signal_strength"], cac_fraction=s["cac_fraction"],
        seed=cfg["seed"],
    )


def _load_synth(root: str, cfg: dict, volumes=("train", "eval"), graded_only=False):
    """Read the synth output back: cases as (case_id, volume, flags, free_text, grade).

    Only the cases of the splits named in `volumes` (and of those, only the
    graded ones with graded_only) have their volume read; the rest carry
    volume None.
    """
    synth_dir = os.path.join(root, "synth")
    reports_path = os.path.join(synth_dir, "reports.jsonl")
    if not os.path.exists(reports_path):
        raise FileNotFoundError(f"{reports_path} not found; run `cardioclip synth` first")
    with open(reports_path, "r", encoding="utf-8") as fh:
        reports = [json.loads(line) for line in fh]
    grades = {}
    grades_path = os.path.join(synth_dir, "grades.jsonl")
    if os.path.exists(grades_path):
        with open(grades_path, "r", encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                grades[doc["case_id"]] = doc["grade"]
    with open(os.path.join(synth_dir, "splits.json"), "r", encoding="utf-8") as fh:
        splits = json.load(fh)
    read = {cid for split in volumes for cid in splits[split]}
    by_id = {}
    for doc in reports:
        cid = doc["case_id"]
        grade = grades.get(cid)
        wanted = cid in read and (grade is not None or not graded_only)
        by_id[cid] = {
            "case_id": cid,
            "volume": (load_volume(os.path.join(synth_dir, "volumes", f"{cid}.ccv1"))
                       if wanted else None),
            "flags": tuple(bool(f) for f in doc["flags"]),
            "free_text": doc["free_text"],
            "grade": grade,
        }
    train = [by_id[cid] for cid in splits["train"]]
    evalset = [by_id[cid] for cid in splits["eval"]]
    return train, evalset


def _load_bundle(root: str, cfg: dict, stem=None, force=False) -> ModelBundle:
    stem = stem or os.path.join(root, "pretrain_clip", "checkpoint")
    params, manifest = load_checkpoint(stem)
    if manifest.get("config_digest") and manifest["config_digest"] != config_digest(cfg):
        msg = ("checkpoint config digest does not match the current config; "
               "pass --force to proceed")
        if not force:
            raise CheckpointError(msg)
        print(f"warning: {msg}", file=sys.stderr)
    vocab = load_vocab(os.path.join(os.path.dirname(stem), "vocab.txt"))
    vis_cfg, _, txt = _geometry(cfg)
    txt_cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=txt["max_len"],
                                embed_dim=txt["embed_dim"], depth=txt["depth"],
                                heads=txt["heads"], mlp_ratio=txt["mlp_ratio"])
    return ModelBundle(params=params, vis_cfg=vis_cfg, txt_cfg=txt_cfg,
                       vocab=vocab, catalog=load_catalog())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, cfg: dict, root: str) -> None:
    cat = load_catalog()
    spec = _synth_spec(cfg)
    cases = generate_full_corpus(spec)
    out = _cmd_dir(root, "synth")
    write_corpus(cases, out, cat)
    n_train = cfg["synth"]["train_cases"]
    splits = {
        "train": [c.case_id for c in cases[:n_train]],
        "eval": [c.case_id for c in cases[n_train:]],
    }
    _write_json(os.path.join(out, "splits.json"), splits)
    flags = np.array([c.flags for c in cases])
    metrics = {
        "n_cases": len(cases),
        "n_train": len(splits["train"]),
        "n_eval": len(splits["eval"]),
        "n_graded": int(sum(c.grade is not None for c in cases)),
        "prevalence": {name: round(float(flags[:, d].mean()), 6)
                       for d, name in enumerate(cat.names)},
    }
    _emit(out, cfg, "synth", metrics)


def cmd_structure_reports(args, cfg: dict, root: str) -> None:
    cat = load_catalog()
    train, evalset = _load_synth(root, cfg, volumes=())
    out = _cmd_dir(root, "structure_reports")
    n_match = 0
    total = 0
    with open(os.path.join(out, "structured.jsonl"), "w", encoding="utf-8") as fh:
        for case in train + evalset:
            s = structure_report(FreeTextReport(case["case_id"], case["free_text"]), cat)
            fh.write(json.dumps({
                "case_id": case["case_id"],
                "free_text": case["free_text"],
                "structured": list(s.statements),
                "flags": list(s.flags),
            }, sort_keys=True) + "\n")
            n_match += int(s.flags == case["flags"])
            total += 1
    metrics = {"n_reports": total, "flag_accuracy": round(n_match / total, 6)}
    _emit(out, cfg, "structure-reports", metrics)


def cmd_pretrain_mae(args, cfg: dict, root: str) -> None:
    vis_cfg, dec_cfg, _ = _geometry(cfg)
    train, _ = _load_synth(root, cfg, volumes=("train",))
    m = cfg["mae"]
    train_cfg = MAETrainConfig(epochs=m["epochs"], batch=m["batch"], base_lr=m["base_lr"],
                               weight_decay=m["weight_decay"], warmup_frac=m["warmup_frac"],
                               min_lr=m["min_lr"], mask_ratio=m["mask_ratio"])
    out = _cmd_dir(root, "pretrain_mae")
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        params, trace = train_mae(
            [c["volume"] for c in train], vis_cfg, dec_cfg, train_cfg,
            seed=cfg["seed"], proj_dim=cfg["proj_dim"],
            trace_hook=lambda rec: fh.write(json.dumps(rec, sort_keys=True) + "\n"),
        )
    save_checkpoint(params, "mae", os.path.join(out, "checkpoint"), config_digest(cfg))
    metrics = {
        "first_epoch_loss": trace[0]["mean_loss"],
        "final_epoch_loss": trace[-1]["mean_loss"],
        "loss_ratio": trace[-1]["mean_loss"] / trace[0]["mean_loss"],
        "epochs": len(trace),
    }
    _emit(out, cfg, "pretrain-mae", metrics)


def cmd_pretrain_clip(args, cfg: dict, root: str) -> None:
    cat = load_catalog()
    vis_cfg, _, txt = _geometry(cfg)
    train, _ = _load_synth(root, cfg, volumes=("train",))
    stem = args.init or os.path.join(root, "pretrain_mae", "checkpoint")
    params, manifest = load_checkpoint(stem)
    if manifest.get("config_digest") and manifest["config_digest"] != config_digest(cfg):
        if not args.force:
            raise CheckpointError(
                "stage-1 checkpoint config digest does not match; pass --force to proceed")
        print("warning: initializing from a checkpoint with a different config digest",
              file=sys.stderr)

    structured = [structured_from_flags(c["case_id"], c["flags"], cat) for c in train]
    vocab = build_vocab([c["free_text"] for c in train] + [s.text() for s in structured])
    txt_cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=txt["max_len"],
                                embed_dim=txt["embed_dim"], depth=txt["depth"],
                                heads=txt["heads"], mlp_ratio=txt["mlp_ratio"])
    pairs = [(c["volume"], c["free_text"], s, pathology_vector(s))
             for c, s in zip(train, structured)]
    cc = cfg["clip"]
    clip_cfg = ContrastiveConfig(
        temperature=cc["temperature"], variant_prob=cc["variant_prob"], epochs=cc["epochs"],
        batch=cc["batch"], lr=cc["lr"], proj_lr=cc["proj_lr"],
        weight_decay=cc["weight_decay"], warmup_frac=cc["warmup_frac"],
        min_lr=cc["min_lr"], raw_affinity=cc["raw_affinity"],
        text_warmup_steps=cc["text_warmup_steps"], text_warmup_lr=cc["text_warmup_lr"],
        text_warmup_batch=cc["text_warmup_batch"],
        text_warmup_statement_frac=cc["text_warmup_statement_frac"],
    )
    out = _cmd_dir(root, "pretrain_clip")
    save_vocab(vocab, os.path.join(out, "vocab.txt"))
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        params, trace = train_clip(
            pairs, params, vis_cfg, txt_cfg, vocab, clip_cfg, seed=cfg["seed"],
            trace_hook=lambda rec: fh.write(json.dumps(rec, sort_keys=True) + "\n"),
            severity_fn=calcium_wording_severity,
        )
    keep = {k: v for k, v in params.items() if not k.startswith("dec.")}
    save_checkpoint(keep, "clip", os.path.join(out, "checkpoint"), config_digest(cfg))
    metrics = {
        "first_epoch_loss": trace[0]["mean_loss"],
        "final_epoch_loss": trace[-1]["mean_loss"],
        "variant_structured_frac": trace[-1]["variant_structured_frac"],
        "vocab_size": len(vocab),
        "epochs": len(trace),
    }
    _emit(out, cfg, "pretrain-clip", metrics)


def cmd_eval_zeroshot(args, cfg: dict, root: str) -> None:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    _, evalset = _load_synth(root, cfg, volumes=("eval",))
    vols = [c["volume"] for c in evalset]
    flags = np.array([c["flags"] for c in evalset])
    v = unit_rows(embed_volumes(bundle, vols))
    per_name = {}
    for d, name in enumerate(bundle.catalog.names):
        scores = prompt_margins(v, name, bundle)
        labels = flags[:, d]
        if labels.min() == labels.max():
            per_name[name] = None
            continue
        per_name[name] = auroc([
            ScoredCase(evalset[i]["case_id"], float(s), bool(l))
            for i, (s, l) in enumerate(zip(scores, labels))
        ])
    values = [v for v in per_name.values() if v is not None]
    metrics = {
        "zero_shot_auroc": {k: (round(v, 6) if v is not None else None)
                            for k, v in per_name.items()},
        "mean_auroc": round(float(np.mean(values)), 6) if values else None,
        "n_eval": len(evalset),
    }
    _emit(_cmd_dir(root, "eval_zeroshot"), cfg, "eval-zeroshot", metrics)


def cmd_eval_retrieval(args, cfg: dict, root: str) -> None:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    _, evalset = _load_synth(root, cfg, volumes=("eval",))
    cat = bundle.catalog
    ids = [c["case_id"] for c in evalset]
    vols = [c["volume"] for c in evalset]
    texts = [structured_from_flags(c["case_id"], c["flags"], cat).text() for c in evalset]
    flags = np.array([c["flags"] for c in evalset])
    v = unit_rows(embed_volumes(bundle, vols))
    t = unit_rows(embed_texts(bundle, texts))
    S = v @ t.T
    i2t = [rank_pool(S[i], ids, ids[i]) for i in range(len(ids))]
    t2i = [rank_pool(S[:, j], ids, ids[j]) for j in range(len(ids))]
    recalls = {}
    for k in cfg["eval"]["recall_ks"]:
        recalls[f"image_to_text_r@{k}"] = round(mean_recall_at_k(i2t, ids, k), 6)
        recalls[f"text_to_image_r@{k}"] = round(mean_recall_at_k(t2i, ids, k), 6)
    keyword = {}
    for d, name in enumerate(cat.names):
        pos_ids = {ids[i] for i in range(len(ids)) if flags[i, d]}
        if not pos_ids:
            continue
        prompt_emb = unit_rows(embed_texts(bundle, [f"There is {name}"]))[0]
        ranked = rank_pool(v @ prompt_emb, ids, name)
        keyword[name] = {
            "prevalence": round(len(pos_ids) / len(ids), 6),
            **{f"p@{k}": round(precision_at_k(ranked, pos_ids, k), 6)
               for k in cfg["eval"]["precision_ks"]},
        }
    metrics = {"recall": recalls, "keyword": keyword, "pool_size": len(ids)}
    _emit(_cmd_dir(root, "eval_retrieval"), cfg, "eval-retrieval", metrics)


def _grade_plot(path_stem: str, grades, scores) -> None:
    """Score-vs-grade distribution as a CSV plus a small standalone SVG."""
    with open(f"{path_stem}.csv", "w", encoding="utf-8") as fh:
        fh.write("grade,score\n")
        for g, s in zip(grades, scores):
            fh.write(f"{g},{s:.6f}\n")
    w, h, pad = 360, 220, 30
    lo, hi = float(min(scores)), float(max(scores))
    span = (hi - lo) or 1.0
    pieces = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
              f'<rect width="{w}" height="{h}" fill="white"/>']
    for g, s in zip(grades, scores):
        x = pad + (g - 1) / 4 * (w - 2 * pad)
        y = h - pad - (s - lo) / span * (h - 2 * pad)
        pieces.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="steelblue" fill-opacity="0.6"/>')
    pieces.append(f'<text x="{w/2}" y="{h-6}" font-size="11" text-anchor="middle">grade</text>')
    pieces.append(f'<text x="10" y="{h/2}" font-size="11" transform="rotate(-90 10 {h/2})" text-anchor="middle">confidence (s_p - s_n)</text>')
    pieces.append("</svg>")
    with open(f"{path_stem}.svg", "w", encoding="utf-8") as fh:
        fh.write("\n".join(pieces) + "\n")


def cmd_eval_cac(args, cfg: dict, root: str) -> None:
    """Ordinal AUROC of the calcium confidence on the graded held-out cases.

    The confidence (mean_confidence_by_grade, cac_scores.csv/.svg) is the
    zero-shot margin s_p - s_n of the calcium prompt pair, in [-2, 2].
    """
    bundle = _load_bundle(root, cfg, args.init, args.force)
    _, evalset = _load_synth(root, cfg, volumes=("eval",), graded_only=True)
    graded = [c for c in evalset if c["grade"] is not None]
    if len({c["grade"] for c in graded}) < 2:
        raise ValueError("held-out set does not span two grades; regenerate with higher cac_fraction")
    conf = cac_confidences([c["volume"] for c in graded], bundle)
    gs = GradeSet(cases=tuple((c["case_id"], c["grade"], float(s))
                              for c, s in zip(graded, conf)), n_grades=5)
    per_threshold = ordinal_auroc(gs)
    out = _cmd_dir(root, "eval_cac")
    _grade_plot(os.path.join(out, "cac_scores"), [c["grade"] for c in graded], conf)
    metrics = {
        "ordinal_auroc": {f"grade>{t}": (round(v, 6) if v is not None else None)
                          for t, v in per_threshold},
        "n_graded": len(graded),
        "mean_confidence_by_grade": {
            str(g): round(float(np.mean([s for c, s in zip(graded, conf) if c["grade"] == g])), 6)
            for g in sorted({c["grade"] for c in graded})
        },
    }
    _emit(out, cfg, "eval-cac", metrics)


def cmd_finetune(args, cfg: dict, root: str) -> None:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    ft = cfg["finetune"]
    target = ft["target"]
    train, evalset = _load_synth(root, cfg, graded_only=target == "cac")
    if target == "cac":
        train_pairs = [(c["volume"], c["grade"] - 1) for c in train if c["grade"] is not None]
        eval_pairs = [(c["volume"], c["grade"] - 1) for c in evalset if c["grade"] is not None]
        head_classes = 5
    else:
        d = bundle.catalog.index_of(target)
        train_pairs = [(c["volume"], int(c["flags"][d])) for c in train]
        eval_pairs = [(c["volume"], int(c["flags"][d])) for c in evalset]
        head_classes = 2
    ft_cfg = FinetuneConfig(epochs=ft["epochs"], batch=ft["batch"], lr=ft["lr"],
                            head_lr=ft["head_lr"], weight_decay=ft["weight_decay"],
                            warmup_frac=ft["warmup_frac"], freeze_encoder=ft["freeze_encoder"])
    params, result = finetune_classifier(train_pairs, bundle.params, head_classes, ft_cfg,
                                         bundle, seed=cfg["seed"], eval_set=eval_pairs)
    out = _cmd_dir(root, "finetune")
    save_checkpoint(params, f"finetune-{target}", os.path.join(out, "checkpoint"),
                    config_digest(cfg))
    metrics = {
        "target": target,
        "head_classes": head_classes,
        "train_accuracy": round(result["train_accuracy"], 6),
        "n_train": len(train_pairs),
        "n_eval": len(eval_pairs),
    }
    if "auroc" in result:
        metrics["auroc"] = round(result["auroc"], 6)
    if "ordinal_auroc" in result:
        metrics["ordinal_auroc"] = {f"grade>{t}": (round(v, 6) if v is not None else None)
                                    for t, v in result["ordinal_auroc"]}
    _emit(out, cfg, "finetune", metrics)


def cmd_gradcheck(args, cfg: dict, root: str) -> None:
    # toy double-precision configs; independent of the main geometry
    from .clip import clip_batch_fwd_bwd
    from .encoders import init_text_params, init_visual_params
    from .mae import init_decoder_params, mae_batch_bwd, mae_batch_fwd
    from .tokenizer import pad_batch, tokenize

    vis_cfg = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=1, heads=2,
                                  mlp_ratio=2.0, input_dims=(4, 4, 4))
    dec_cfg = DecoderConfig(embed_dim=4, depth=1, heads=2, mlp_ratio=2.0)
    rng = substream(cfg["seed"], "gradcheck-init")
    params = init_visual_params(rng, vis_cfg, proj_dim=4, dtype=np.float64)
    init_decoder_params(rng, vis_cfg, dec_cfg, params, dtype=np.float64)
    for k in params:  # move off the tiny init so finite differences are well-conditioned
        params[k] = params[k] + rng.normal(0, 0.2, params[k].shape)
    data_rng = substream(cfg["seed"], "gradcheck-data")
    patches = data_rng.random((2, 8, 8))
    vis_idx = np.array([[0, 3, 5], [1, 2, 7]])
    mask_idx = np.array([[1, 2, 4, 6, 7], [0, 3, 4, 5, 6]])

    def mae_loss(p):
        loss, cache = mae_batch_fwd(p, vis_cfg, dec_cfg, patches, vis_idx, mask_idx)
        return loss, mae_batch_bwd(p, vis_cfg, dec_cfg, cache)

    err_mae = gradient_check(mae_loss, params, n_probes=32, eps=1e-5, seed=cfg["seed"])

    vocab = build_vocab(["there is coronary stenosis", "no pericardial effusion",
                         "cardiomegaly present"])
    txt_cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=8, embed_dim=8, depth=1,
                                heads=2, mlp_ratio=2.0)
    cparams = init_visual_params(substream(cfg["seed"], "gc2"), vis_cfg, proj_dim=4,
                                 dtype=np.float64)
    init_text_params(substream(cfg["seed"], "gc3"), txt_cfg, 4, cparams)
    for k in cparams:
        cparams[k] = cparams[k].astype(np.float64) + rng.normal(0, 0.2, cparams[k].shape)
    ids, lengths = pad_batch([tokenize(t, vocab, 8) for t in
                              ["there is coronary stenosis", "no pericardial effusion",
                               "cardiomegaly present"]])
    cpatches = data_rng.random((3, 8, 8))
    targets = np.array([[0.6, 0.2, 0.2], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])

    def clip_loss(p):
        loss, grads, _ = clip_batch_fwd_bwd(p, vis_cfg, txt_cfg, cpatches, ids, lengths,
                                            targets, tau=0.5)
        return loss, grads

    err_clip = gradient_check(clip_loss, cparams, n_probes=32, eps=1e-5, seed=cfg["seed"])
    metrics = {
        "mae_loss_max_rel_error": float(err_mae),
        "contrastive_loss_max_rel_error": float(err_clip),
        "n_probes": 32,
        "eps": 1e-5,
        "pass": bool(err_mae < 1e-4 and err_clip < 1e-4),
    }
    _emit(_cmd_dir(root, "gradcheck"), cfg, "gradcheck", metrics)
    if not metrics["pass"]:
        raise FloatingPointError("gradient check exceeded 1e-4 max relative error")


_HANDLERS = {
    "synth": cmd_synth,
    "structure-reports": cmd_structure_reports,
    "pretrain-mae": cmd_pretrain_mae,
    "pretrain-clip": cmd_pretrain_clip,
    "eval-zeroshot": cmd_eval_zeroshot,
    "eval-retrieval": cmd_eval_retrieval,
    "eval-cac": cmd_eval_cac,
    "finetune": cmd_finetune,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    root = _out_root(args)
    os.makedirs(root, exist_ok=True)
    try:
        _HANDLERS[args.command](args, cfg, root)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
