import json
from dataclasses import asdict

import pytest

from cardioclip.config import (
    ConfigError,
    apply_set_overrides,
    config_digest,
    load_config,
    merge_config,
    stage_configs,
    validate_config,
)
from cardioclip.reports import load_catalog


def test_defaults_are_valid():
    cfg = merge_config(None)
    assert validate_config(cfg) == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        merge_config({"claip": {"temperature": 0.1}})
    with pytest.raises(ConfigError, match="clip.temprature"):
        merge_config({"clip": {"temprature": 0.1}})


def test_all_violations_listed_together():
    cfg = merge_config({
        "clip": {"temperature": 0.0, "variant_prob": 2.0},
        "geometry": {"dims": [60, 64, 64]},
    })
    violations = validate_config(cfg)
    text = "\n".join(violations)
    assert "temperature" in text
    assert "variant_prob" in text
    assert "60" in text
    assert len(violations) >= 3


def test_set_overrides_parse_json_values():
    cfg = merge_config(None)
    cfg = apply_set_overrides(cfg, ["clip.temperature=0.25", "synth.n_cases=16",
                                    "finetune.freeze_encoder=true"])
    assert cfg["clip"]["temperature"] == 0.25
    assert cfg["synth"]["n_cases"] == 16
    assert cfg["finetune"]["freeze_encoder"] is True


def test_set_override_unknown_key():
    cfg = merge_config(None)
    with pytest.raises(ConfigError, match="unknown key"):
        apply_set_overrides(cfg, ["clip.tau=0.1"])


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 42, "mae": {"epochs": 2}}))
    cfg = load_config(path)
    assert cfg["seed"] == 42
    assert cfg["mae"]["epochs"] == 2
    assert cfg["clip"]["epochs"] == 10  # untouched defaults remain


def test_load_config_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"clip": {"temperature": 0}}))
    with pytest.raises(ConfigError, match="temperature"):
        load_config(path)


def test_digest_is_stable_and_sensitive():
    a = merge_config(None)
    b = merge_config(None)
    assert config_digest(a) == config_digest(b)
    c = merge_config({"seed": 1})
    assert config_digest(a) != config_digest(c)


def test_mask_ratio_feasibility_checked():
    cfg = merge_config({"mae": {"mask_ratio": 0.001}})
    assert any("mask_ratio" in v for v in validate_config(cfg))


def test_finetune_target_is_cac_or_a_catalog_name():
    for target in ("cac", *load_catalog().names):
        cfg = merge_config({"finetune": {"target": target}})
        assert validate_config(cfg) == [], target
    cfg = merge_config({"finetune": {"target": "aortic stenosis"}})
    assert any("finetune.target" in v for v in validate_config(cfg))


def test_stage_configs_unpack_their_sections():
    cfg = merge_config({"visual": {"depth": 3}, "clip": {"temperature": 0.3},
                        "finetune": {"epochs": 7}})
    stages = stage_configs(cfg)
    assert "text" not in stages  # needs a vocabulary size
    assert stages["visual"].depth == 3
    assert stages["visual"].input_dims == tuple(cfg["geometry"]["dims"])
    assert stages["visual"].patch_size == tuple(cfg["geometry"]["patch_size"])
    assert stages["clip"].temperature == 0.3
    assert stages["finetune"].epochs == 7
    for name in ("decoder", "mae", "clip"):
        assert asdict(stages[name]) == cfg[name]
    text = stage_configs(cfg, vocab_size=50)["text"]
    assert asdict(text) == {"vocab_size": 50, **cfg["text"]}
