"""One JSON document of every tunable, validated against all module invariants
before any stage runs. Unknown keys are rejected; violations are reported
together, not one at a time. stage_configs turns the sections into the
stages' config dataclasses."""

from __future__ import annotations

import copy
import hashlib
import json
import math

from .clip import ContrastiveConfig
from .encoders import TextEncoderConfig, VisualEncoderConfig
from .mae import DecoderConfig, MAETrainConfig
from .reports import load_catalog
from .tasks import FinetuneConfig

DEFAULT_CONFIG = {
    "seed": 0,
    "geometry": {"dims": [64, 64, 64], "patch_size": [16, 16, 16]},
    "visual": {"embed_dim": 128, "depth": 4, "heads": 4, "mlp_ratio": 4.0},
    "text": {"embed_dim": 128, "depth": 2, "heads": 4, "max_len": 64, "mlp_ratio": 4.0},
    "decoder": {"embed_dim": 64, "depth": 2, "heads": 4, "mlp_ratio": 4.0},
    "proj_dim": 64,
    "mae": {
        "epochs": 20,
        "batch": 16,
        "base_lr": 1e-4,
        "weight_decay": 0.01,
        "warmup_frac": 0.05,
        "min_lr": 0.0,
        "mask_ratio": 0.75,
    },
    "clip": {
        "epochs": 10,
        "batch": 8,
        "lr": 1e-3,
        "proj_lr": 5e-3,
        "weight_decay": 0.01,
        "warmup_frac": 0.05,
        "min_lr": 0.0,
        "temperature": 0.2,
        "variant_prob": 0.5,
        "raw_affinity": False,
        "text_warmup_steps": 300,
        "text_warmup_lr": 1e-3,
        "text_warmup_batch": 16,
        "text_warmup_statement_frac": 0.5,
    },
    "finetune": {
        "epochs": 10,
        "batch": 16,
        "lr": 3e-4,
        "head_lr": 1.5e-3,
        "weight_decay": 0.01,
        "warmup_frac": 0.05,
        "freeze_encoder": False,
        "target": "cac",
    },
    "synth": {
        # per-finding prevalence; coronary calcification runs lower because
        # uniform CAC grades add flag-positive cases on top of the base rate
        "prevalence": [0.3, 0.1, 0.3, 0.3, 0.3, 0.3, 0.3],
        "n_cases": 640,
        "train_cases": 512,
        "signal_strength": 0.4,
        "cac_fraction": 0.4,
    },
    "eval": {"recall_ks": [5, 10, 50], "precision_ks": [5, 10, 50]},
}


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _merge(base: dict, override: dict, path: str, errors: list) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            errors.append(f"unknown key {where!r}")
            continue
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                errors.append(f"{where!r} must be an object")
                continue
            out[key] = _merge(base[key], val, where, errors)
        else:
            out[key] = copy.deepcopy(val)
    return out


def merge_config(overrides: dict | None) -> dict:
    errors: list = []
    cfg = _merge(DEFAULT_CONFIG, overrides or {}, "", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def apply_set_overrides(cfg: dict, assignments) -> dict:
    """Apply --set key.path=value pairs; values parse as JSON, else strings."""
    errors = []
    cfg = copy.deepcopy(cfg)
    for item in assignments:
        if "=" not in item:
            errors.append(f"--set needs key=value, got {item!r}")
            continue
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                errors.append(f"unknown key {key!r}")
                node = None
                break
            node = node[part]
        if node is None:
            continue
        if parts[-1] not in node:
            errors.append(f"unknown key {key!r}")
            continue
        node[parts[-1]] = value
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(cfg: dict) -> list[str]:
    """Every violated invariant, empty when the config is runnable."""
    v: list[str] = []
    geo = cfg["geometry"]
    vis, txt, dec = cfg["visual"], cfg["text"], cfg["decoder"]
    mae, clip_c, ft, synth = cfg["mae"], cfg["clip"], cfg["finetune"], cfg["synth"]

    dims, patch = geo["dims"], geo["patch_size"]
    if len(dims) != 3 or len(patch) != 3:
        v.append("geometry.dims and geometry.patch_size must each have 3 entries")
    else:
        for ax, (d, p) in enumerate(zip(dims, patch)):
            if p < 1 or d < 1 or d % p != 0:
                v.append(f"geometry: dim {d} not a positive multiple of patch {p} on axis {ax}")
        n_patches = 1
        for d, p in zip(dims, patch):
            n_patches *= max(1, d // max(1, p))
        n_masked = math.floor(mae["mask_ratio"] * n_patches)
        if not 1 <= n_masked <= n_patches - 1:
            v.append(
                f"mae.mask_ratio {mae['mask_ratio']} leaves {n_masked} masked of "
                f"{n_patches} patches; need at least one masked and one visible"
            )
        for d in dims:
            if d % 16 != 0:
                v.append(f"synth requires dims divisible by 16, got {d}")

    for label, enc in (("visual", vis), ("text", txt), ("decoder", dec)):
        if enc["embed_dim"] % enc["heads"] != 0:
            v.append(f"{label}.embed_dim {enc['embed_dim']} not divisible by heads {enc['heads']}")
        if enc["depth"] < 1:
            v.append(f"{label}.depth must be >= 1")
        if enc["mlp_ratio"] <= 0:
            v.append(f"{label}.mlp_ratio must be positive")
    if txt["max_len"] < 2:
        v.append("text.max_len must be >= 2")
    if cfg["proj_dim"] < 1:
        v.append("proj_dim must be >= 1")

    for label, t in (("mae", mae), ("clip", clip_c), ("finetune", ft)):
        if t["epochs"] < 1:
            v.append(f"{label}.epochs must be >= 1")
        if t["batch"] < 1:
            v.append(f"{label}.batch must be >= 1")
        if not 0.0 <= t["warmup_frac"] <= 1.0:
            v.append(f"{label}.warmup_frac must lie in [0, 1]")
        if t["weight_decay"] < 0:
            v.append(f"{label}.weight_decay must be >= 0")
    if clip_c["batch"] < 2:
        v.append("clip.batch must be >= 2 (contrast is undefined for a single pair)")
    lr_checks = (
        ("mae.base_lr", mae["base_lr"], mae["min_lr"]),
        ("clip.lr", clip_c["lr"], clip_c["min_lr"]),
    )
    for name, lr, min_lr in lr_checks:
        if not lr > min_lr >= 0:
            v.append(f"{name} must satisfy lr > min_lr >= 0 (got {lr} vs {min_lr})")
    for name, lr in (("clip.proj_lr", clip_c["proj_lr"]), ("finetune.lr", ft["lr"]),
                     ("finetune.head_lr", ft["head_lr"])):
        if lr <= 0:
            v.append(f"{name} must be positive")
    if not clip_c["temperature"] > 0:
        v.append(f"clip.temperature must be positive, got {clip_c['temperature']}")
    if not 0.0 <= clip_c["variant_prob"] <= 1.0:
        v.append(f"clip.variant_prob must lie in [0, 1], got {clip_c['variant_prob']}")
    if clip_c["text_warmup_steps"] < 0:
        v.append("clip.text_warmup_steps must be >= 0")
    if clip_c["text_warmup_steps"] > 0 and not (clip_c["text_warmup_lr"] > 0
                                                and clip_c["text_warmup_batch"] >= 1):
        v.append("clip.text_warmup_lr must be positive and text_warmup_batch >= 1")
    if not 0.0 <= clip_c["text_warmup_statement_frac"] <= 1.0:
        v.append("clip.text_warmup_statement_frac must lie in [0, 1]")

    if synth["n_cases"] < 4:
        v.append("synth.n_cases must be >= 4")
    if not 2 <= synth["train_cases"] <= synth["n_cases"] - 2:
        v.append("synth.train_cases must leave at least 2 held-out cases")
    prev = synth["prevalence"]
    prev_list = prev if isinstance(prev, list) else [prev]
    if any(not 0.0 <= p <= 1.0 for p in prev_list):
        v.append("synth.prevalence entries must lie in [0, 1]")
    if not 0.0 <= synth["cac_fraction"] <= 1.0:
        v.append("synth.cac_fraction must lie in [0, 1]")
    if synth["signal_strength"] < 0:
        v.append("synth.signal_strength must be >= 0")

    if ft["target"] != "cac" and ft["target"] not in load_catalog().names:
        v.append(f"finetune.target must be 'cac' or a catalog name, got {ft['target']!r}")

    for key in ("recall_ks", "precision_ks"):
        ks = cfg["eval"][key]
        if not ks or any(k < 1 for k in ks):
            v.append(f"eval.{key} must be a non-empty list of K >= 1")
    return v


def load_config(path=None, assignments=()) -> dict:
    overrides = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    cfg = merge_config(overrides)
    if assignments:
        cfg = apply_set_overrides(cfg, assignments)
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def stage_configs(cfg: dict, vocab_size: int | None = None) -> dict:
    """The stages' config dataclasses, each unpacked from its config section:
    visual (with the geometry), decoder, mae, clip and finetune, plus text
    when vocab_size is given (it is known only once a vocabulary is built)."""
    geo = cfg["geometry"]
    stages = {
        "visual": VisualEncoderConfig(patch_size=tuple(geo["patch_size"]),
                                      input_dims=tuple(geo["dims"]), **cfg["visual"]),
        "decoder": DecoderConfig(**cfg["decoder"]),
        "mae": MAETrainConfig(**cfg["mae"]),
        "clip": ContrastiveConfig(**cfg["clip"]),
        "finetune": FinetuneConfig(**{k: v for k, v in cfg["finetune"].items() if k != "target"}),
    }
    if vocab_size is not None:
        stages["text"] = TextEncoderConfig(vocab_size=vocab_size, **cfg["text"])
    return stages


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
