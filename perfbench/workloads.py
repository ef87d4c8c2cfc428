"""The three benchmark workloads, driving cardioclip's public functions.

Each workload is a closed loop with one caller: a step or command starts
when the previous one ends. All run at the DEFAULT_CONFIG geometry (64^3
volumes, 16^3 patches, 64 tokens, 4x128 visual tower, 2x128 text tower,
2x64 decoder). A workload has a `setup` (corpus, parameters, one warm-up
step, so first-call costs stay out of the timed phase) and a fixed-size
`round`. A round always does the same work for a seed and starts from the
same parameters, so every round of a run ends with byte-identical
parameters.

Package functions are called through their module (`mae.train_mae`), so
the traced run's rebinding reaches the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from cardioclip import cli, clip, encoders, mae, reports, seeding, supervision, synth, tokenizer
from cardioclip.config import DEFAULT_CONFIG as CFG

from layers import EVAL_COMMANDS, PIPELINE_COMMANDS

perf = time.perf_counter

# mae_pretrain: one step per epoch (corpus == batch), so the per-epoch
# trace hook timestamps every optimizer step
MAE_BATCH = CFG["mae"]["batch"]
MAE_EPOCHS = 10
# clip_align: the text warmup needs a corpus of at least its batch (16);
# alignment runs one batch of 8 pairs per epoch
CLIP_WARMUP_CASES = CFG["clip"]["text_warmup_batch"]
CLIP_WARMUP_STEPS = 10
CLIP_BATCH = CFG["clip"]["batch"]
CLIP_EPOCHS = 14
# pipeline_cli: the held-out pool (52) covers the largest K (50)
PIPELINE_OVERRIDES = {
    "synth": {"n_cases": 100, "train_cases": 48},
    "mae": {"epochs": 1},
    "clip": {"epochs": 1, "text_warmup_steps": CLIP_WARMUP_STEPS},
    "finetune": {"epochs": 1},
}
# a tiny pipeline that runs every command once, paying first-call costs in setup
WARMUP_PIPELINE = {
    "geometry": {"dims": [32, 32, 32]},
    "synth": {"n_cases": 20, "train_cases": 12, "cac_fraction": 0.9},
    "visual": {"embed_dim": 32, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
    "text": {"embed_dim": 32, "depth": 1, "heads": 2, "max_len": 64, "mlp_ratio": 2.0},
    "decoder": {"embed_dim": 16, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
    "proj_dim": 16,
    "mae": {"epochs": 1, "batch": 4},
    "clip": {"epochs": 1, "batch": 4, "text_warmup_steps": 5},
    "finetune": {"epochs": 1, "batch": 8, "freeze_encoder": True},
    "eval": {"recall_ks": [1, 5], "precision_ks": [1, 5]},
}
# metrics.json keys whose every number is an AUROC, recall, precision,
# accuracy or prevalence, so lies in [0, 1]
UNIT_INTERVAL_KEYS = {"zero_shot_auroc", "mean_auroc", "recall", "keyword", "ordinal_auroc",
                      "auroc", "train_accuracy", "flag_accuracy", "prevalence"}
LOSS_KEYS = ("first_epoch_loss", "final_epoch_loss")


@dataclass
class RoundResult:
    wall_s: float
    step_s: list[float]       # intervals of the closed-loop operation
    loss_end: float
    digest: str               # final parameters, or the run's metrics.json files
    attempted: int
    failed: int
    samples: int              # volumes (stage 1), pairs (stage 2) or corpus cases processed
    busy_s: float             # time over which those samples were processed
    phases: dict[str, float] = field(default_factory=dict)


def _copy(params):
    return {k: v.copy() for k, v in params.items()}


def param_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].tobytes())
    return h.hexdigest()


def _corpus(seed: int, n: int):
    s = CFG["synth"]
    spec = synth.SynthSpec(n_cases=n, dims=tuple(CFG["geometry"]["dims"]),
                           prevalence=tuple(s["prevalence"]),
                           signal_strength=s["signal_strength"],
                           cac_fraction=s["cac_fraction"], seed=seed)
    return synth.generate_full_corpus(spec)


def _visual_params(seed: int):
    vis = encoders.VisualEncoderConfig(patch_size=tuple(CFG["geometry"]["patch_size"]),
                                       input_dims=tuple(CFG["geometry"]["dims"]),
                                       **CFG["visual"])
    dec = mae.DecoderConfig(**CFG["decoder"])
    rng = seeding.substream(seed, "init")
    params = encoders.init_visual_params(rng, vis, CFG["proj_dim"])
    mae.init_decoder_params(rng, vis, dec, params)
    return vis, dec, params


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _losses_failed(losses) -> int:
    return sum(not _finite(x) for x in losses)


class MaePretrain:
    """Stage 1: train_mae at batch 16, mask ratio 0.75."""

    name = "mae_pretrain"
    nominal_round_s = 3.0
    ops_per_round = MAE_EPOCHS

    def setup(self, seed: int, run_dir: str):
        vis, dec, params = _visual_params(seed)
        vols = [c.volume for c in _corpus(seed, MAE_BATCH)]
        mae.train_mae(vols, vis, dec, mae.MAETrainConfig(**{**CFG["mae"], "epochs": 1}),
                      seed, params=_copy(params))
        return {"seed": seed, "vis": vis, "dec": dec, "vols": vols, "params": params}

    def round(self, st, tracer=None, probes=None) -> RoundResult:
        params = _copy(st["params"])
        cfg = mae.MAETrainConfig(**{**CFG["mae"], "epochs": MAE_EPOCHS})
        stamps: list[float] = []
        t0 = perf()
        params, trace = mae.train_mae(st["vols"], st["vis"], st["dec"], cfg, st["seed"],
                                      params=params, trace_hook=lambda rec: stamps.append(perf()))
        wall = perf() - t0
        losses = [r["mean_loss"] for r in trace]
        return RoundResult(wall, _intervals(t0, stamps), losses[-1], param_digest(params),
                           len(losses), _losses_failed(losses), MAE_BATCH * len(stamps),
                           stamps[-1] - t0)

    def teardown(self, st) -> None:
        pass


class ClipAlign:
    """Stage 2: text warmup at batch 16, then contrastive steps at batch 8."""

    name = "clip_align"
    nominal_round_s = 5.0
    ops_per_round = 1 + CLIP_EPOCHS

    def setup(self, seed: int, run_dir: str):
        vis, _, params = _visual_params(seed)
        cases = _corpus(seed, CLIP_WARMUP_CASES)
        cat = reports.load_catalog()
        structured = [reports.structured_from_flags(c.case_id, c.flags, cat) for c in cases]
        vocab = tokenizer.build_vocab([c.free_text for c in cases]
                                      + [s.text() for s in structured])
        txt = encoders.TextEncoderConfig(vocab_size=len(vocab), **CFG["text"])
        encoders.init_text_params(seeding.substream(seed, "init-text"), txt, CFG["proj_dim"],
                                  params)
        pairs = [(c.volume, c.free_text, s, supervision.pathology_vector(s))
                 for c, s in zip(cases, structured)]
        st = {"seed": seed, "vis": vis, "txt": txt, "vocab": vocab, "pairs": pairs,
              "params": params}
        self._align(st, _copy(params), warmup_steps=1, epochs=1)
        return st

    def _align(self, st, params, warmup_steps: int, epochs: int, hook=None):
        warm_cfg = clip.ContrastiveConfig(**{**CFG["clip"], "text_warmup_steps": warmup_steps})
        warm_loss = clip.warmup_text_encoder(st["pairs"], params, st["txt"], st["vocab"],
                                             warm_cfg, st["seed"],
                                             severity_fn=synth.calcium_wording_severity)
        t_warm = perf()
        align_cfg = clip.ContrastiveConfig(**{**CFG["clip"], "epochs": epochs,
                                              "text_warmup_steps": 0})
        params, trace = clip.train_clip(st["pairs"][:CLIP_BATCH], params, st["vis"], st["txt"],
                                        st["vocab"], align_cfg, st["seed"], trace_hook=hook)
        return params, warm_loss, t_warm, trace

    def round(self, st, tracer=None, probes=None) -> RoundResult:
        params = _copy(st["params"])
        stamps: list[float] = []
        t0 = perf()
        params, warm_loss, t_warm, trace = self._align(
            st, params, CLIP_WARMUP_STEPS, CLIP_EPOCHS, hook=lambda rec: stamps.append(perf()))
        wall = perf() - t0
        losses = [warm_loss] + [r["mean_loss"] for r in trace]
        return RoundResult(wall, _intervals(t_warm, stamps), losses[-1], param_digest(params),
                           len(losses), _losses_failed(losses), CLIP_BATCH * len(stamps),
                           stamps[-1] - t_warm, phases={"text_warmup_s": t_warm - t0})

    def teardown(self, st) -> None:
        pass


class PipelineCli:
    """The eight commands of scripts/run_pipeline.py through cli.main, in process."""

    name = "pipeline_cli"
    nominal_round_s = 15.0
    ops_per_round = 2 * len(PIPELINE_COMMANDS)

    def setup(self, seed: int, run_dir: str):
        root = tempfile.mkdtemp(prefix="pipeline-", dir=run_dir)
        cfg_path = os.path.join(root, "config.json")
        warm_path = os.path.join(root, "warmup.json")
        _write_json(cfg_path, {**PIPELINE_OVERRIDES, "seed": seed})
        _write_json(warm_path, {**WARMUP_PIPELINE, "seed": seed})
        warm_out = os.path.join(root, "warmup")
        for command in PIPELINE_COMMANDS:
            code = _quiet_main([command, "--config", warm_path, "--out", warm_out])
            if code != 0:
                raise RuntimeError(f"warm-up `{command}` exited {code}")
        shutil.rmtree(warm_out)
        return {"root": root, "config": cfg_path,
                "n_cases": PIPELINE_OVERRIDES["synth"]["n_cases"]}

    def round(self, st, tracer=None, probes=None) -> RoundResult:
        out = tempfile.mkdtemp(prefix="run-", dir=st["root"])
        durations: dict[str, float] = {}
        docs: dict[str, bytes] = {}
        failed = 0
        t0 = perf()
        for command in PIPELINE_COMMANDS:
            if probes is not None:
                probes.command = command
            block = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            t = perf()
            with block:
                code = _quiet_main([command, "--config", st["config"], "--out", out])
            durations[command] = perf() - t
            failed += code != 0
            path = os.path.join(out, command.replace("-", "_"), "metrics.json")
            docs[command] = _read(path)
            failed += not _metrics_ok(docs[command])
        wall = perf() - t0
        if probes is not None:
            probes.command = None
        shutil.rmtree(out)
        digest = hashlib.sha256(b"".join(docs[c] for c in PIPELINE_COMMANDS)).hexdigest()
        try:
            loss_end = float(json.loads(docs["pretrain-clip"])["final_epoch_loss"])
        except (ValueError, KeyError, TypeError):
            loss_end = math.nan
        phases = {
            "corpus_s": durations["synth"] + durations["structure-reports"],
            "train_s": sum(durations[c] for c in ("pretrain-mae", "pretrain-clip", "finetune")),
            "eval_s": sum(durations[c] for c in EVAL_COMMANDS),
        }
        return RoundResult(wall, [durations[c] for c in PIPELINE_COMMANDS], loss_end, digest,
                           self.ops_per_round, failed, st["n_cases"], wall, phases)

    def teardown(self, st) -> None:
        shutil.rmtree(st["root"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (MaePretrain, ClipAlign, PipelineCli)}


def _intervals(t0: float, stamps) -> list[float]:
    return [b - a for a, b in zip([t0] + stamps[:-1], stamps)]


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _quiet_main(argv) -> int:
    """cli.main with its stdout metrics echo captured; stderr passes through."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _metrics_ok(raw: bytes) -> bool:
    """metrics.json parses, losses are finite, bounded scores lie in [0, 1]."""
    try:
        doc = json.loads(raw)
    except ValueError:
        return False
    if not isinstance(doc, dict):
        return False
    if any(key in doc and not _finite(doc[key]) for key in LOSS_KEYS):
        return False

    def bounded(node) -> bool:
        if node is None or isinstance(node, str):
            return True
        if isinstance(node, dict):
            return all(bounded(v) for v in node.values())
        return _finite(node) and 0.0 <= node <= 1.0

    return all(bounded(v) for k, v in doc.items() if k in UNIT_INTERVAL_KEYS)
