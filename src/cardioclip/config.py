"""One JSON document of every tunable, and the stage config dataclasses
built from its sections.

Each stage default lives only on its dataclass: DEFAULT_CONFIG's sections
are the field defaults of the dataclasses built from them (the geometry is
the visual config's input_dims and patch_size), and it writes out only the
values no dataclass holds: seed, proj_dim, synth.train_cases and eval.

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
import dataclasses
import hashlib
import json
import math

from .clip import ContrastiveConfig
from .encoders import TextEncoderConfig, VisualEncoderConfig
from .mae import DecoderConfig, MAETrainConfig, masked_count
from .synth import SynthSpec
from .tasks import FinetuneConfig


def _section(cls, *drop) -> dict:
    """The field defaults of a stage dataclass as a config section, tuples
    written as JSON lists; fields named in drop are left out."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls) if f.name not in drop}


DEFAULT_CONFIG = {
    "seed": 0,
    "geometry": {"dims": list(VisualEncoderConfig.input_dims),
                 "patch_size": list(VisualEncoderConfig.patch_size)},
    "visual": _section(VisualEncoderConfig, "patch_size", "input_dims"),
    "text": _section(TextEncoderConfig, "vocab_size"),
    "decoder": _section(DecoderConfig),
    "proj_dim": 64,
    "mae": _section(MAETrainConfig),
    "clip": _section(ContrastiveConfig),
    "finetune": _section(FinetuneConfig),
    "synth": {**_section(SynthSpec, "dims", "seed"), "train_cases": 512},
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


def merge_config(overrides: dict) -> dict:
    if not isinstance(overrides, dict):
        raise ConfigError([f"the config must be a JSON object, got {overrides!r}"])
    errors: list = []
    cfg = _merge(DEFAULT_CONFIG, overrides, "", errors)
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


# section name -> builder(cfg, vocab_size) of its stage config dataclass
_BUILDERS = {
    "visual": lambda cfg, _: VisualEncoderConfig(patch_size=tuple(cfg["geometry"]["patch_size"]),
                                                 input_dims=tuple(cfg["geometry"]["dims"]),
                                                 **cfg["visual"]),
    "text": lambda cfg, vocab_size: TextEncoderConfig(vocab_size=vocab_size, **cfg["text"]),
    "decoder": lambda cfg, _: DecoderConfig(**cfg["decoder"]),
    "mae": lambda cfg, _: MAETrainConfig(**cfg["mae"]),
    "clip": lambda cfg, _: ContrastiveConfig(**cfg["clip"]),
    "finetune": lambda cfg, _: FinetuneConfig(**cfg["finetune"]),
    "synth": lambda cfg, _: SynthSpec(
        dims=tuple(cfg["geometry"]["dims"]), seed=cfg["seed"],
        **{k: v for k, v in cfg["synth"].items() if k != "train_cases"}),
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
    for key in ("recall_ks", "precision_ks"):
        ks = cfg["eval"][key]
        if not ks or any(k < 1 for k in ks):
            v.append(f"eval.{key} must be a non-empty list of K >= 1")
    if cfg["proj_dim"] < 1:
        v.append("proj_dim must be >= 1")
    if cfg["seed"] < 0:
        v.append("seed must be >= 0")
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
