"""Command-line driver: corpus generation, report structuring, both
pre-training stages, the evaluation suite, fine-tuning, and the gradient
checker. Each command reads its inputs (the corpus as synth.SynthCase lists,
a checkpoint) from the output root, makes the library call the acceptance
suite makes, writes its own outputs (corpus, checkpoints, traces) into the
directory it is handed and returns its metrics; main writes them with the
manifest, every float rounded to 6 places unless the command is in _RAW.
A command's directory is replaced whole (_staged): a failed command leaves
the previous one exactly as it was. Only then are the metrics mirrored to
stdout as JSON, and a "pass": false doc (gradcheck's) fails the run.
Exit codes: 0 success, 2 usage, 3 invalid configuration (an unknown key, a
malformed --set, a value of the wrong type or out of bounds), 1 runtime
failure."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .clip import contrastive_pairs, train_clip
from .config import ConfigError, config_digest, load_config, stage_configs
from .gradcheck import EPS, N_PROBES, TOLERANCE, stage_loss_errors
from .mae import train_mae
from .model import VOLUME_CHUNK, ModelBundle, balanced_chunks
from .reports import load_catalog, report_record, structure_report
from .synth import calcium_wording_severity, generate_full_corpus, read_corpus, write_corpus
from .tasks import (cac_grading, case_retrieval, finetune_classifier, finetune_labels,
                    zero_shot_aurocs)
from .tokenizer import load_vocab, save_vocab
# cli calls no load_volume; the name stays bound here because
# perfbench/tests/test_tracer.py checks that the benchmark's tracer rebinds it
from .volume import load_volume  # noqa: F401

_RAW = ("pretrain-mae", "pretrain-clip", "gradcheck")  # commands whose metrics stay unrounded


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


@contextlib.contextmanager
def _staged(path: str):
    """Yield a fresh <path>.tmp directory for a command to write into. On a
    clean exit it replaces path whole: a directory cannot be renamed over a
    non-empty one, so the previous path is renamed aside to <path>.old,
    <path>.tmp takes its name, and <path>.old is removed. On any error
    <path>.tmp is removed, so path stays exactly as it was. A run stopped
    between the two renames leaves <path>.old alone; the next run renames it
    back first."""
    tmp, old = f"{path}.tmp", f"{path}.old"
    if not os.path.exists(path) and os.path.exists(old):
        os.replace(old, path)
    shutil.rmtree(tmp, ignore_errors=True)  # left by a killed earlier run
    os.makedirs(tmp)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(path):
        os.replace(path, old)
    os.replace(tmp, path)
    shutil.rmtree(old, ignore_errors=True)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _rounded(doc):
    """doc with every float (np.float64 included) rounded to 6 places, in
    nested dicts and lists; None, bools, ints and strings pass through."""
    if isinstance(doc, dict):
        return {k: _rounded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rounded(v) for v in doc]
    return round(float(doc), 6) if isinstance(doc, float) else doc


def _emit(out: str, cfg: dict, command: str, metrics: dict) -> dict:
    """Write metrics.json, then manifest.json, and return the metrics as
    written. metrics.json is deterministic; timestamps and peak memory live
    only in the manifest."""
    if command not in _RAW:
        metrics = _rounded(metrics)
    _write_json(os.path.join(out, "metrics.json"), metrics)
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
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return metrics


def _load_params(stem: str, cfg: dict, force: bool) -> dict:
    """The checkpoint's parameters, refused (unless force) when it was written
    under a config with another digest."""
    params, manifest = load_checkpoint(stem)
    if manifest["config_digest"] != config_digest(cfg):
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


@contextlib.contextmanager
def _trace_lines(out: str):
    """A trace_hook streaming each record as one JSON line of out/trace.jsonl."""
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        yield lambda rec: fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _epoch_losses(trace) -> dict:
    return {"first_epoch_loss": trace[0]["mean_loss"],
            "final_epoch_loss": trace[-1]["mean_loss"], "epochs": len(trace)}


def _by_cut(per_threshold) -> dict:
    return {f"grade>{t}": v for t, v in per_threshold}


# ---------------------------------------------------------------------------
# commands: each reads its inputs from root, writes only into out, and
# returns its metrics, which main writes


def cmd_synth(args, cfg: dict, root: str, out: str) -> dict:
    cat = load_catalog()
    spec = stage_configs(cfg)["synth"]
    # built and written one chunk at a time, so one chunk of volumes is alive
    write_corpus((case for idx in balanced_chunks(spec.n_cases, VOLUME_CHUNK)
                  for case in generate_full_corpus(spec, idx)),
                 out, cat, cfg["synth"]["train_cases"])
    train, evalset = read_corpus(out)
    cases = train + evalset
    flags = np.array([c.flags for c in cases])
    return {
        "n_cases": len(cases),
        "n_train": len(train),
        "n_eval": len(evalset),
        "n_graded": int(sum(c.grade is not None for c in cases)),
        "prevalence": {name: flags[:, d].mean() for d, name in enumerate(cat.names)},
    }


def cmd_structure_reports(args, cfg: dict, root: str, out: str) -> dict:
    cat = load_catalog()
    train, evalset = read_corpus(os.path.join(root, "synth"))
    n_match = 0
    with open(os.path.join(out, "structured.jsonl"), "w", encoding="utf-8") as fh:
        for case in train + evalset:
            s = structure_report(case.case_id, case.free_text, cat)
            fh.write(json.dumps(report_record(case.case_id, case.free_text, s),
                                sort_keys=True) + "\n")
            n_match += int(s.flags == case.flags)
    n_reports = len(train) + len(evalset)
    return {"n_reports": n_reports, "flag_accuracy": n_match / n_reports}


def cmd_pretrain_mae(args, cfg: dict, root: str, out: str) -> dict:
    stages = stage_configs(cfg)
    train, _ = read_corpus(os.path.join(root, "synth"))
    with _trace_lines(out) as hook:
        params, trace = train_mae(
            [c.volume for c in train], stages["visual"], stages["decoder"], stages["mae"],
            seed=cfg["seed"], proj_dim=cfg["proj_dim"], trace_hook=hook,
        )
    save_checkpoint(params, "mae", os.path.join(out, "checkpoint"), config_digest(cfg))
    return {**_epoch_losses(trace),
            "loss_ratio": trace[-1]["mean_loss"] / trace[0]["mean_loss"]}


def cmd_pretrain_clip(args, cfg: dict, root: str, out: str) -> dict:
    train, _ = read_corpus(os.path.join(root, "synth"))
    params = _load_params(args.init or os.path.join(root, "pretrain_mae", "checkpoint"),
                          cfg, args.force)
    pairs, vocab = contrastive_pairs(train, load_catalog())
    stages = stage_configs(cfg, len(vocab))
    with _trace_lines(out) as hook:
        params, trace = train_clip(
            pairs, params, stages["visual"], stages["text"], vocab, stages["clip"],
            seed=cfg["seed"], trace_hook=hook, severity_fn=calcium_wording_severity,
        )
    save_checkpoint(params, "clip", os.path.join(out, "checkpoint"), config_digest(cfg))
    save_vocab(vocab, os.path.join(out, "vocab.txt"))
    return {**_epoch_losses(trace),
            "variant_structured_frac": trace[-1]["variant_structured_frac"],
            "vocab_size": len(vocab)}


def cmd_eval_zeroshot(args, cfg: dict, root: str, out: str) -> dict:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    _, evalset = read_corpus(os.path.join(root, "synth"))
    per_name = zero_shot_aurocs(evalset, bundle)
    values = [v for v in per_name.values() if v is not None]
    return {"zero_shot_auroc": per_name,
            "mean_auroc": float(np.mean(values)) if values else None,
            "n_eval": len(evalset)}


def cmd_eval_retrieval(args, cfg: dict, root: str, out: str) -> dict:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    _, evalset = read_corpus(os.path.join(root, "synth"))
    scores = case_retrieval(evalset, bundle, cfg["eval"]["recall_ks"], cfg["eval"]["precision_ks"])
    return {**scores, "pool_size": len(evalset)}


def _grade_plot(path_stem: str, grades, scores) -> None:
    """Score-vs-grade distribution as a CSV plus a small standalone SVG."""
    w, h, pad = 360, 220, 30
    with (open(f"{path_stem}.csv", "w", encoding="utf-8") as csv,
          open(f"{path_stem}.svg", "w", encoding="utf-8") as svg):
        csv.write("grade,score\n")
        for g, s in zip(grades, scores):
            csv.write(f"{g},{s:.6f}\n")
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
        svg.write("\n".join(pieces) + "\n")


def cmd_eval_cac(args, cfg: dict, root: str, out: str) -> dict:
    """Ordinal AUROC of the calcium confidence on the graded held-out cases.

    The confidence (mean_confidence_by_grade, cac_scores.csv/.svg) is the
    zero-shot margin s_p - s_n of the calcium prompt pair, in [-2, 2].
    """
    bundle = _load_bundle(root, cfg, args.init, args.force)
    _, evalset = read_corpus(os.path.join(root, "synth"))
    graded = [c for c in evalset if c.grade is not None]
    per_threshold, conf = cac_grading(graded, bundle)
    grades = [c.grade for c in graded]
    _grade_plot(os.path.join(out, "cac_scores"), grades, conf)
    return {
        "ordinal_auroc": _by_cut(per_threshold),
        "n_graded": len(graded),
        "mean_confidence_by_grade": {
            str(g): np.mean([s for h, s in zip(grades, conf) if h == g])
            for g in sorted(set(grades))
        },
    }


def cmd_finetune(args, cfg: dict, root: str, out: str) -> dict:
    bundle = _load_bundle(root, cfg, args.init, args.force)
    ft_cfg = stage_configs(cfg)["finetune"]
    target = ft_cfg.target
    train, evalset = read_corpus(os.path.join(root, "synth"))
    train_pairs, head_classes = finetune_labels(train, target, bundle.catalog)
    eval_pairs, _ = finetune_labels(evalset, target, bundle.catalog)
    params, result = finetune_classifier(train_pairs, bundle.params, head_classes, ft_cfg,
                                         bundle.vis_cfg, seed=cfg["seed"], eval_set=eval_pairs)
    save_checkpoint(params, f"finetune-{target}", os.path.join(out, "checkpoint"),
                    config_digest(cfg))
    if "ordinal_auroc" in result:
        result["ordinal_auroc"] = _by_cut(result["ordinal_auroc"])
    return {"target": target, "head_classes": head_classes, "n_train": len(train_pairs),
            "n_eval": len(eval_pairs), **result}


def cmd_gradcheck(args, cfg: dict, root: str, out: str) -> dict:
    # the float64 toy problem; independent of the main geometry
    errors = stage_loss_errors(cfg["seed"])
    return {
        "mae_loss_max_rel_error": float(errors["mae"]),
        "contrastive_loss_max_rel_error": float(errors["contrastive"]),
        "n_probes": N_PROBES,
        "eps": EPS,
        "pass": all(e < TOLERANCE for e in errors.values()),
    }


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
    try:
        with _staged(os.path.join(root, args.command.replace("-", "_"))) as out:
            metrics = _emit(out, cfg, args.command, _HANDLERS[args.command](args, cfg, root, out))
        json.dump(metrics, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        if metrics.get("pass") is False:  # gradcheck's verdict, written before the run fails
            raise FloatingPointError(f"gradient check exceeded {TOLERANCE:.0e} max relative error")
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns failures into exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
