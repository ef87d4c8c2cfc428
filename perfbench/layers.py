"""What the traced run wraps, the counts it computes, and the per-layer metrics.

Layers are cardioclip's modules. Every span is named "<module>.<function>".
Counts are computed from call arguments and return shapes, never timed, so
they repeat exactly for a given seed: FLOPs of linear, attention and the
patch embed; bytes through CCV1 and checkpoint I/O; and the waste ratios
(decoder rows scored, synth builds per case, embeddings per distinct
volume, patchify calls per sample, volumes read per volume used).
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Target, aggregate

PACKAGE = "cardioclip"
EVAL_COMMANDS = ("eval-zeroshot", "eval-retrieval", "eval-cac")
PIPELINE_COMMANDS = ("synth", "structure-reports", "pretrain-mae", "pretrain-clip",
                     *EVAL_COMMANDS, "finetune")

_NN = [f"nn.{op}_{d}.{stat}" for op in ("linear", "attention", "layernorm", "gelu")
       for d in ("fwd", "bwd") for stat in ("self_s", "calls")]
_NN += ["nn.block_fwd.self_s", "nn.block_bwd.self_s",
        "nn.linear.gflop_per_s", "nn.attention.gflop_per_s"]
_PATCH = ["encoders.patch_tokens_fwd.self_s", "encoders.patch_tokens_bwd.self_s",
          "encoders.patch_tokens_bwd.input_grad_mb", "encoders.patch_tokens.gflop_per_s"]
_STEP = ["optim.AdamW.step.self_s", "optim.AdamW.step.calls",
         "volume.patches_of.self_s", "volume.patches_of.calls_per_sample"]

# per-layer metrics reported for each workload's traced pass, chosen from
# the layers that workload exercises; the benchmark names them
# "<workload>.<metric>"
PER_LAYER = {
    "mae_pretrain": _NN + _PATCH + _STEP + [
        "mae.mae_batch_fwd.self_s", "mae.mae_batch_bwd.self_s", "mae.masked_mse.self_s",
        "mae.sample_mask.self_s", "mae.decoder_rows_scored_frac",
    ],
    "clip_align": _NN + _PATCH + _STEP + [
        "encoders.text_embed_fwd.self_s", "encoders.text_embed_bwd.self_s",
        "clip.warmup_text_encoder.self_s", "clip.clip_batch_fwd_bwd.self_s",
        "clip.contrastive_loss.self_s", "clip.cosine_rows.self_s",
        "tokenizer.tokenize.self_s", "tokenizer.tokenize.calls", "tokenizer.pad_batch.self_s",
        "supervision.affinity_matrix.self_s",
    ],
    "pipeline_cli": [
        "reports.structure_report.self_s",
        "synth.generate_full_corpus.self_s", "synth.build_calls_per_case",
        "volume.save_volume.mb_per_s", "volume.load_volume.mb_per_s",
        "model.embed_volumes.self_s", "model.embed_volumes.volumes_per_distinct",
        "model.embed_texts.self_s",
        "tasks.zero_shot_scores.self_s", "tasks.cac_confidences.self_s",
        "tasks.predict_logits.self_s", "tasks.finetune_classifier.self_s",
        "metrics.rank_pool.self_s", "metrics.rank_pool.calls", "metrics.auroc.self_s",
        "checkpoint.save_checkpoint.mb_per_s", "checkpoint.load_checkpoint.mb_per_s",
        *(f"cli.{c}.wall_s" for c in PIPELINE_COMMANDS),
        "cli.volumes_read_per_used",
    ],
}
OVERHEAD = "trace.overhead_frac"


def per_layer_names() -> list[str]:
    return [f"{w}.{m}" for w, names in PER_LAYER.items() for m in names] + [OVERHEAD]


def unit_of(name: str) -> str:
    for suffix, unit in ((".self_s", "s"), (".wall_s", "s"), (".calls", "count"),
                         (".gflop_per_s", "GFLOP/s"), (".mb_per_s", "MB/s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class LayerProbes:
    """Computed counts for one traced pass, and the metrics derived from them."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.command: str | None = None  # CLI command in progress, set by the pipeline workload
        self._embedded: dict[str | None, set] = defaultdict(set)

    # -- probes: probe(args, kwargs, result) --------------------------------

    def _linear_fwd(self, args, kwargs, result):
        params, prefix, x = args[:3]
        din, dout = params[f"{prefix}.w"].shape
        self.counts["linear_flop"] += 2 * (x.size // din) * din * dout

    def _linear_bwd(self, args, kwargs, result):
        params, prefix, x = args[:3]
        din, dout = params[f"{prefix}.w"].shape
        self.counts["linear_flop"] += 4 * (x.size // din) * din * dout

    def _attention_fwd(self, args, kwargs, result):
        B, T, E = args[2].shape
        # qkv projection + q k^T + attn v; the output projection is a linear call
        self.counts["attention_flop"] += 6 * B * T * E * E + 4 * B * T * T * E

    def _attention_bwd(self, args, kwargs, result):
        B, H, T, dh = args[2][2].shape  # cached q
        E = H * dh
        self.counts["attention_flop"] += 12 * B * T * E * E + 8 * B * T * T * E

    def _patch_fwd(self, args, kwargs, result):
        B, n, P = _arg(args, kwargs, 1, "patches").shape
        self.counts["patch_flop"] += 2 * B * n * P * args[0]["vis.patch.w"].shape[1]

    def _patch_bwd(self, args, kwargs, result):
        B, n, P = args[1].shape  # cached standardized patches
        self.counts["patch_flop"] += 4 * B * n * P * args[0]["vis.patch.w"].shape[1]
        self.counts["patch_input_grad_bytes"] += result.nbytes

    def _samples(self, args, kwargs, result):
        self.counts["samples"] += _arg(args, kwargs, 3, "patches").shape[0]

    def _masked_mse(self, args, kwargs, result):
        recon, _, masked_idx = args[:3]
        self.counts["decoder_rows_scored"] += masked_idx.size
        self.counts["decoder_rows"] += recon.shape[0] * recon.shape[1]

    def _save_volume(self, args, kwargs, result):
        self.counts["save_volume_bytes"] += _arg(args, kwargs, 0, "v").voxels.nbytes

    def _load_volume(self, args, kwargs, result):
        self.counts["load_volume_bytes"] += result.voxels.nbytes
        if self.command in EVAL_COMMANDS:
            self.counts["eval_volumes_read"] += 1

    def _corpus(self, args, kwargs, result):
        self.counts["corpus_cases"] += len(result)

    def _build_case(self, args, kwargs, result):
        self.counts["case_builds"] += 1

    def _embed_volumes(self, args, kwargs, result):
        volumes = _arg(args, kwargs, 1, "volumes")
        self.counts["volumes_embedded"] += len(volumes)
        self._embedded[self.command].update(id(v) for v in volumes)

    def _save_checkpoint(self, args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        self.counts["save_checkpoint_bytes"] += sum(4 * v.size for v in params.values())

    def _load_checkpoint(self, args, kwargs, result):
        self.counts["load_checkpoint_bytes"] += sum(v.nbytes for v in result[0].values())

    def targets(self) -> list[Target]:
        def t(module, qualname, probe=None, span=True):
            return Target(f"{PACKAGE}.{module}", qualname, f"{module}.{qualname}", probe, span)

        return [
            t("nn", "linear_fwd", self._linear_fwd), t("nn", "linear_bwd", self._linear_bwd),
            t("nn", "attention_fwd", self._attention_fwd),
            t("nn", "attention_bwd", self._attention_bwd),
            t("nn", "layernorm_fwd"), t("nn", "layernorm_bwd"),
            t("nn", "gelu_fwd"), t("nn", "gelu_bwd"),
            # traced so that their residual adds and loops are not charged to
            # the caller's self time (mae_batch_*, text_embed_*, clip_batch_*)
            t("nn", "block_fwd"), t("nn", "block_bwd"),
            t("nn", "stack_fwd"), t("nn", "stack_bwd"),
            t("encoders", "visual_embed_fwd"), t("encoders", "visual_embed_bwd"),
            t("encoders", "patch_tokens_fwd", self._patch_fwd),
            t("encoders", "patch_tokens_bwd", self._patch_bwd),
            t("encoders", "text_embed_fwd"), t("encoders", "text_embed_bwd"),
            t("mae", "train_mae"), t("mae", "mae_batch_fwd", self._samples),
            t("mae", "mae_batch_bwd"), t("mae", "masked_mse", self._masked_mse),
            t("mae", "sample_mask"),
            t("clip", "train_clip"), t("clip", "warmup_text_encoder"),
            t("clip", "clip_batch_fwd_bwd", self._samples),
            t("clip", "contrastive_loss"), t("clip", "cosine_rows"), t("clip", "cosine_rows_bwd"),
            t("tokenizer", "tokenize"), t("tokenizer", "pad_batch"),
            t("supervision", "affinity_matrix"), t("reports", "structure_report"),
            t("optim", "AdamW.step"),
            t("volume", "patches_of"), t("volume", "save_volume", self._save_volume),
            t("volume", "load_volume", self._load_volume),
            t("synth", "generate_full_corpus", self._corpus),
            t("synth", "_build_case", self._build_case, span=False),
            t("model", "embed_volumes", self._embed_volumes), t("model", "embed_texts"),
            t("tasks", "zero_shot_scores"), t("tasks", "cac_confidences"),
            t("tasks", "predict_logits"), t("tasks", "finetune_classifier"),
            t("metrics", "rank_pool"), t("metrics", "auroc"),
            t("checkpoint", "save_checkpoint", self._save_checkpoint),
            t("checkpoint", "load_checkpoint", self._load_checkpoint),
        ]

    # -- derived metrics -----------------------------------------------------

    def metrics(self, spans, workload: str) -> dict[str, float]:
        """The PER_LAYER[workload] metrics of one pass, by their local names."""
        agg = aggregate(spans)
        c = self.counts

        def self_s(*names):
            return sum(agg.get(n, (0, 0.0))[1] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        values: dict[str, float] = {}
        for name, (calls, total) in agg.items():
            values[f"{name}.self_s"] = total
            values[f"{name}.calls"] = calls
        for s in spans:
            if s.name.startswith("cli."):
                values[f"{s.name}.wall_s"] = values.get(f"{s.name}.wall_s", 0.0) + s.end - s.start
        used_in_eval = sum(len(self._embedded[cmd]) for cmd in EVAL_COMMANDS)
        values.update({
            "nn.linear.gflop_per_s": ratio(c["linear_flop"] / 1e9,
                                           self_s("nn.linear_fwd", "nn.linear_bwd")),
            "nn.attention.gflop_per_s": ratio(c["attention_flop"] / 1e9,
                                              self_s("nn.attention_fwd", "nn.attention_bwd")),
            "encoders.patch_tokens.gflop_per_s": ratio(
                c["patch_flop"] / 1e9,
                self_s("encoders.patch_tokens_fwd", "encoders.patch_tokens_bwd")),
            "encoders.patch_tokens_bwd.input_grad_mb": ratio(
                c["patch_input_grad_bytes"] / 1e6, values.get("encoders.patch_tokens_bwd.calls", 0)),
            "mae.decoder_rows_scored_frac": ratio(c["decoder_rows_scored"], c["decoder_rows"]),
            "volume.patches_of.calls_per_sample": ratio(values.get("volume.patches_of.calls", 0),
                                                        c["samples"]),
            "volume.save_volume.mb_per_s": ratio(c["save_volume_bytes"] / 1e6,
                                                 self_s("volume.save_volume")),
            "volume.load_volume.mb_per_s": ratio(c["load_volume_bytes"] / 1e6,
                                                 self_s("volume.load_volume")),
            "synth.build_calls_per_case": ratio(c["case_builds"], c["corpus_cases"]),
            "model.embed_volumes.volumes_per_distinct": ratio(
                c["volumes_embedded"], sum(len(ids) for ids in self._embedded.values())),
            "checkpoint.save_checkpoint.mb_per_s": ratio(c["save_checkpoint_bytes"] / 1e6,
                                                         self_s("checkpoint.save_checkpoint")),
            "checkpoint.load_checkpoint.mb_per_s": ratio(c["load_checkpoint_bytes"] / 1e6,
                                                         self_s("checkpoint.load_checkpoint")),
            "cli.volumes_read_per_used": ratio(c["eval_volumes_read"], used_in_eval),
        })
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER[workload]}
