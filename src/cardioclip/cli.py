"""Command-line driver: corpus generation, report structuring, both
pre-training stages, the evaluation suite, fine-tuning, and the gradient
checker. Each command reads its inputs (the corpus as synth.SynthCase lists,
a checkpoint), makes the library call the acceptance suite makes, and
writes a self-describing output directory (config copy, manifest, metrics,
checkpoints), mirroring its metrics to stdout as JSON. synth,
structure-reports, the three eval commands and finetune round their
metrics to 6 places; pretrain-mae, pretrain-clip and gradcheck write them
unrounded. Exit codes: 0 success, 2 usage, 3 invalid configuration
(an unknown key, a malformed --set, a value of the wrong type or out of
bounds), 1 runtime failure."""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, replacing, save_checkpoint
from .clip import contrastive_pairs, train_clip
from .config import ConfigError, config_digest, load_config, stage_configs
from .gradcheck import EPS, N_PROBES, TOLERANCE, stage_loss_errors
from .mae import train_mae
from .model import ModelBundle
from .reports import load_catalog, structure_report
from .synth import SynthCase, calcium_wording_severity, generate_full_corpus, write_corpus
from .tasks import (cac_grading, case_retrieval, finetune_classifier, finetune_labels,
                    zero_shot_aurocs)
from .tokenizer import load_vocab, save_vocab
# cli calls no load_volume; the name stays bound here because
# perfbench/tests/test_tracer.py checks that the benchmark's tracer rebinds it
from .volume import VolumeFile, load_volume  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardioclip",
        description="Two-stage volumetric image/report pre-training on a synthetic corpus.",
    )
    parser.add_argument("command", choices=_HANDLERS)
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


def out_root(args) -> str:
    return args.out or os.environ.get("CARDIOCLIP_OUT") or "runs"


def _cmd_dir(root: str, command: str) -> str:
    path = os.path.join(root, command.replace("-", "_"))
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, doc) -> None:
    with replacing(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _emit(cmd_dir: str, cfg: dict, command: str, metrics: dict) -> None:
    """metrics.json is deterministic; timestamps and peak memory live only in
    the manifest."""
    _write_json(os.path.join(cmd_dir, "metrics.json"), metrics)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg["seed"],
        "config_digest": config_digest(cfg),
        "config": cfg,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # the process's peak resident set so far (ru_maxrss is in KiB on Linux)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _write_json(os.path.join(cmd_dir, "manifest.json"), manifest)
    json.dump(metrics, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _load_synth(root: str):
    """Read the synth output back as (train, eval) lists of SynthCase.

    Each case's volume is a VolumeFile on its CCV1 file, and no payload is
    read here: a command reads a volume only when a batch (or an eval chunk)
    needs its voxels, and again each epoch, so its memory grows with the
    batch, not with the corpus.
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
    by_id = {}
    for doc in reports:
        cid = doc["case_id"]
        volume = VolumeFile(os.path.join(synth_dir, "volumes", f"{cid}.ccv1"))
        by_id[cid] = SynthCase(cid, volume, tuple(bool(f) for f in doc["flags"]),
                               doc["free_text"], grades.get(cid))
    train = [by_id[cid] for cid in splits["train"]]
    evalset = [by_id[cid] for cid in splits["eval"]]
    return train, evalset


def _load_params(stem: str, cfg: dict, force: bool) -> dict:
    """The checkpoint's parameters, refused (unless force) when it was written
    under a config with another digest."""
    params, manifest = load_checkpoint(stem)
    if manifest.get("config_digest") and manifest["config_digest"] != config_digest(cfg):
        msg = (f"checkpoint {stem} config digest does not match the current config; "
               "pass --force to proceed")
        if not force:
            raise CheckpointError(msg)
        print(f"warning: {msg}", file=sys.stderr)
    return params


def _load_bundle(root: str, cfg: dict, stem, force: bool) -> ModelBundle:
    stem = stem or os.path.join(root, "pretrain_clip", "checkpoint")
    params = _load_params(stem, cfg, force)
    vocab = load_vocab(os.path.join(os.path.dirname(stem), "vocab.txt"))
    stages = stage_configs(cfg, len(vocab))
    return ModelBundle(params=params, vis_cfg=stages["visual"], txt_cfg=stages["text"],
                       vocab=vocab, catalog=load_catalog())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, cfg: dict, root: str) -> None:
    cat = load_catalog()
    cases = generate_full_corpus(stage_configs(cfg)["synth"])
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
    train, evalset = _load_synth(root)
    out = _cmd_dir(root, "structure_reports")
    n_match = 0
    total = 0
    with open(os.path.join(out, "structured.jsonl"), "w", encoding="utf-8") as fh:
        for case in train + evalset:
            s = structure_report(case.case_id, case.free_text, cat)
            fh.write(json.dumps({
                "case_id": case.case_id,
                "free_text": case.free_text,
                "structured": list(s.statements),
                "flags": list(s.flags),
            }, sort_keys=True) + "\n")
            n_match += int(s.flags == case.flags)
            total += 1
    metrics = {"n_reports": total, "flag_accuracy": round(n_match / total, 6)}
    _emit(out, cfg, "structure-reports", metrics)


def cmd_pretrain_mae(args, cfg: dict, root: str) -> None:
    stages = stage_configs(cfg)
    train, _ = _load_synth(root)
    out = _cmd_dir(root, "pretrain_mae")
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        params, trace = train_mae(
            [c.volume for c in train], stages["visual"], stages["decoder"], stages["mae"],
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
    train, _ = _load_synth(root)
    params = _load_params(args.init or os.path.join(root, "pretrain_mae", "checkpoint"),
                          cfg, args.force)
    pairs, vocab = contrastive_pairs(train, load_catalog())
    stages = stage_configs(cfg, len(vocab))
    out = _cmd_dir(root, "pretrain_clip")
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        params, trace = train_clip(
            pairs, params, stages["visual"], stages["text"], vocab, stages["clip"],
            seed=cfg["seed"],
            trace_hook=lambda rec: fh.write(json.dumps(rec, sort_keys=True) + "\n"),
            severity_fn=calcium_wording_severity,
        )
    keep = {k: v for k, v in params.items() if not k.startswith("dec.")}
    save_checkpoint(keep, "clip", os.path.join(out, "checkpoint"), config_digest(cfg))
    # written only once training and the checkpoint succeeded: the eval
    # commands load the vocab and the checkpoint next to it as a pair
    save_vocab(vocab, os.path.join(out, "vocab.txt"))
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
    _, evalset = _load_synth(root)
    per_name = zero_shot_aurocs(evalset, bundle)
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
    _, evalset = _load_synth(root)
    scores = case_retrieval(evalset, bundle, cfg["eval"]["recall_ks"], cfg["eval"]["precision_ks"])
    metrics = {
        "recall": {k: round(x, 6) for k, x in scores["recall"].items()},
        "keyword": {name: {k: round(x, 6) for k, x in kw.items()}
                    for name, kw in scores["keyword"].items()},
        "pool_size": len(evalset),
    }
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
    _, evalset = _load_synth(root)
    graded = [c for c in evalset if c.grade is not None]
    per_threshold, conf = cac_grading(graded, bundle)
    grades = [c.grade for c in graded]
    out = _cmd_dir(root, "eval_cac")
    _grade_plot(os.path.join(out, "cac_scores"), grades, conf)
    metrics = {
        "ordinal_auroc": {f"grade>{t}": (round(v, 6) if v is not None else None)
                          for t, v in per_threshold},
        "n_graded": len(graded),
        "mean_confidence_by_grade": {
            str(g): round(float(np.mean([s for h, s in zip(grades, conf) if h == g])), 6)
            for g in sorted(set(grades))
        },
    }
    _emit(out, cfg, "eval-cac", metrics)


def cmd_finetune(args, cfg: dict, root: str) -> None:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    target = cfg["finetune"]["target"]
    train, evalset = _load_synth(root)
    train_pairs, head_classes = finetune_labels(train, target, bundle.catalog)
    eval_pairs, _ = finetune_labels(evalset, target, bundle.catalog)
    params, result = finetune_classifier(train_pairs, bundle.params, head_classes,
                                         stage_configs(cfg)["finetune"], bundle.vis_cfg,
                                         seed=cfg["seed"], eval_set=eval_pairs)
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
    # the float64 toy problem; independent of the main geometry
    errors = stage_loss_errors(cfg["seed"])
    metrics = {
        "mae_loss_max_rel_error": float(errors["mae"]),
        "contrastive_loss_max_rel_error": float(errors["contrastive"]),
        "n_probes": N_PROBES,
        "eps": EPS,
        "pass": all(e < TOLERANCE for e in errors.values()),
    }
    _emit(_cmd_dir(root, "gradcheck"), cfg, "gradcheck", metrics)
    if not metrics["pass"]:
        raise FloatingPointError(f"gradient check exceeded {TOLERANCE:.0e} max relative error")


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
    root = out_root(args)
    os.makedirs(root, exist_ok=True)
    try:
        _HANDLERS[args.command](args, cfg, root)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
