"""One JSON document of every tunable, and the stage config dataclasses
built from its sections.

A --config file and each --set key.path=value are merged into the defaults
by one function, which refuses unknown keys and values whose type is not
that of the default (a float takes any finite number). Each section's
bounds live in the __post_init__ of the dataclass built from it
(stage_configs); validate_config builds every section and adds only the
checks that span sections. Violations are reported together, not one at a
time.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

from .clip import ContrastiveConfig
from .encoders import TextEncoderConfig, VisualEncoderConfig
from .mae import DecoderConfig, MAETrainConfig, masked_count
from .reports import load_catalog
from .synth import SynthSpec
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


def _same_type(val, default) -> bool:
    """val may replace default: a bool for a bool, an int for an int, a
    finite int or float for a float, a str for a str, a list of such for a
    list."""
    if isinstance(default, list):
        return isinstance(val, list) and all(_same_type(v, default[0]) for v in val)
    if isinstance(default, float):
        return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    return type(val) is type(default)


def _merge(base: dict, override: dict, path: str, errors: list,
           defaults: dict = DEFAULT_CONFIG) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            errors.append(f"unknown key {where!r}")
        elif isinstance(defaults[key], dict):
            if isinstance(val, dict):
                out[key] = _merge(base[key], val, where, errors, defaults[key])
            else:
                errors.append(f"{where!r} must be an object")
        elif isinstance(val, dict) and val:  # a dotted path through a scalar key
            _merge({}, val, where, errors, {})
        elif not _same_type(val, defaults[key]):
            errors.append(f"{where!r} must have the type of its default "
                          f"{defaults[key]!r}, got {val!r}")
        else:
            out[key] = copy.deepcopy(val)
    return out


def merge_config(overrides: dict | None) -> dict:
    if overrides is not None and not isinstance(overrides, dict):
        raise ConfigError([f"the config must be a JSON object, got {overrides!r}"])
    errors: list = []
    cfg = _merge(DEFAULT_CONFIG, overrides or {}, "", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def apply_set_overrides(cfg: dict, assignments) -> dict:
    """Merge --set key.path=value pairs into cfg as {key: {path: value}}
    overrides; values parse as JSON, else strings."""
    errors: list = []
    for item in assignments:
        key, eq, raw = item.partition("=")
        if not eq:
            errors.append(f"--set needs key=value, got {item!r}")
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        cfg = _merge(cfg, value, "", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _synth_spec(cfg: dict) -> SynthSpec:
    s = cfg["synth"]
    return SynthSpec(n_cases=s["n_cases"], dims=tuple(cfg["geometry"]["dims"]),
                     prevalence=tuple(s["prevalence"]), signal_strength=s["signal_strength"],
                     cac_fraction=s["cac_fraction"], seed=cfg["seed"])


# section name -> builder(cfg, vocab_size) of its stage config dataclass
_BUILDERS = {
    "visual": lambda cfg, _: VisualEncoderConfig(patch_size=tuple(cfg["geometry"]["patch_size"]),
                                                 input_dims=tuple(cfg["geometry"]["dims"]),
                                                 **cfg["visual"]),
    "text": lambda cfg, vocab_size: TextEncoderConfig(vocab_size=vocab_size, **cfg["text"]),
    "decoder": lambda cfg, _: DecoderConfig(**cfg["decoder"]),
    "mae": lambda cfg, _: MAETrainConfig(**cfg["mae"]),
    "clip": lambda cfg, _: ContrastiveConfig(**cfg["clip"]),
    "finetune": lambda cfg, _: FinetuneConfig(
        **{k: v for k, v in cfg["finetune"].items() if k != "target"}),
    "synth": lambda cfg, _: _synth_spec(cfg),
}


def stage_configs(cfg: dict, vocab_size: int | None = None) -> dict:
    """The stages' config dataclasses, each built from its config section:
    visual (with the geometry), decoder, mae, clip, finetune and synth, plus
    text when vocab_size is given (it is known only once a vocabulary is
    built)."""
    return {name: build(cfg, vocab_size) for name, build in _BUILDERS.items()
            if name != "text" or vocab_size is not None}


def validate_config(cfg: dict) -> list[str]:
    """Every violated invariant, empty when the config is runnable: each
    section's dataclass refusals under the section's name, then the checks
    that span sections."""
    v: list[str] = []
    built = {}
    for name, build in _BUILDERS.items():
        try:
            built[name] = build(cfg, 1)  # the text bounds do not read the vocabulary size
        except (ValueError, TypeError) as exc:
            v.append(f"{name}: {exc}")
    if "visual" in built:
        try:
            masked_count(built["visual"].n_patches, cfg["mae"]["mask_ratio"])
        except ValueError as exc:
            v.append(f"mae: {exc}")
    synth = cfg["synth"]
    if not 2 <= synth["train_cases"] <= synth["n_cases"] - 2:
        v.append("synth.train_cases must leave at least 2 training and 2 held-out cases")
    target = cfg["finetune"]["target"]
    if target not in ("cac", *load_catalog().names):
        v.append(f"finetune.target must be 'cac' or a catalog name, got {target!r}")
    for key in ("recall_ks", "precision_ks"):
        ks = cfg["eval"][key]
        if not ks or any(k < 1 for k in ks):
            v.append(f"eval.{key} must be a non-empty list of K >= 1")
    if cfg["proj_dim"] < 1:
        v.append("proj_dim must be >= 1")
    return v


def load_config(path=None, assignments=()) -> dict:
    overrides = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    cfg = apply_set_overrides(merge_config(overrides), assignments)
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
