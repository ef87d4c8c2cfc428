import json
from dataclasses import asdict

import pytest

from cardioclip.clip import ContrastiveConfig
from cardioclip.config import (
    ConfigError,
    apply_set_overrides,
    config_digest,
    load_config,
    merge_config,
    stage_configs,
    validate_config,
)
from cardioclip.encoders import TextEncoderConfig, VisualEncoderConfig
from cardioclip.mae import DecoderConfig, MAETrainConfig
from cardioclip.reports import load_catalog
from cardioclip.synth import SynthSpec
from cardioclip.tasks import FinetuneConfig


def test_defaults_are_valid():
    cfg = merge_config(None)
    assert validate_config(cfg) == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        merge_config({"claip": {"temperature": 0.1}})
    with pytest.raises(ConfigError, match="clip.temprature"):
        merge_config({"clip": {"temprature": 0.1}})


def test_removed_raw_affinity_switch_is_an_unknown_key():
    assert "raw_affinity" not in merge_config(None)["clip"]
    with pytest.raises(ConfigError, match="unknown key 'clip.raw_affinity'"):
        merge_config({"clip": {"raw_affinity": False}})


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


def test_load_config_rejects_a_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(path)


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
    synth = stages["synth"]
    assert synth.dims == tuple(cfg["geometry"]["dims"]) and synth.seed == cfg["seed"]
    assert synth.prevalence == tuple(cfg["synth"]["prevalence"])
    for key in ("n_cases", "signal_strength", "cac_fraction"):
        assert getattr(synth, key) == cfg["synth"][key]
    text = stage_configs(cfg, vocab_size=50)["text"]
    assert asdict(text) == {"vocab_size": 50, **cfg["text"]}


def test_set_merges_a_whole_section_like_a_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"clip": {"temperature": 0.1}}))
    from_set = load_config(None, ['clip={"temperature": 0.1}'])
    assert from_set["clip"]["temperature"] == 0.1
    assert from_set["clip"]["epochs"] == merge_config(None)["clip"]["epochs"]
    assert config_digest(from_set) == config_digest(load_config(path))


def test_set_and_config_refuse_the_same_inputs(tmp_path):
    cases = (
        (["geometry=5"], {"geometry": 5}, "'geometry' must be an object"),
        (["visual.depth=abc"], {"visual": {"depth": "abc"}}, "'visual.depth'"),
        (["seed.x=1"], {"seed": {"x": 1}}, "unknown key 'seed.x'"),
        (["synth.prevalence=[0.3,0.3]"], {"synth": {"prevalence": [0.3, 0.3]}},
         "synth: prevalence needs 7 entries, got 2"),
    )
    path = tmp_path / "cfg.json"
    for assignments, overrides, message in cases:
        path.write_text(json.dumps(overrides))
        for args in ((None, assignments), (path, ())):
            with pytest.raises(ConfigError) as exc:
                load_config(*args)
            assert message in str(exc.value), (args, str(exc.value))


def test_wrong_types_are_refused_with_their_key():
    for overrides, key in (({"mae": {"epochs": 2.5}}, "mae.epochs"),
                           ({"finetune": {"freeze_encoder": 1}}, "finetune.freeze_encoder"),
                           ({"seed": True}, "seed"),
                           ({"geometry": {"dims": [64, "64", 64]}}, "geometry.dims"),
                           ({"eval": {"recall_ks": 5}}, "eval.recall_ks"),
                           ({"clip": {"lr": float("inf")}}, "clip.lr"),
                           ({"clip": {"temperature": float("nan")}}, "clip.temperature")):
        with pytest.raises(ConfigError, match=f"'{key}' must have the type of its default"):
            merge_config(overrides)
    # an int is a valid float
    assert merge_config({"visual": {"mlp_ratio": 2}})["visual"]["mlp_ratio"] == 2


@pytest.mark.parametrize("build, field", [
    (lambda: ContrastiveConfig(batch=1), "batch"),
    (lambda: ContrastiveConfig(lr=0.0), "lr"),
    (lambda: FinetuneConfig(lr=0.0), "lr"),
    (lambda: TextEncoderConfig(vocab_size=10, depth=-3), "depth"),
    (lambda: DecoderConfig(mlp_ratio=-2.0), "mlp_ratio"),
    (lambda: VisualEncoderConfig(heads=0), "heads"),
    (lambda: MAETrainConfig(base_lr=1e-4, min_lr=1e-3), "base_lr"),
    (lambda: SynthSpec(prevalence=(0.3, 0.3)), "prevalence"),
    (lambda: SynthSpec(signal_strength=-1.0), "signal_strength"),
])
def test_stage_dataclasses_refuse_out_of_bounds_values(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_a_dataclass_reports_all_its_violations_at_once():
    with pytest.raises(ValueError) as exc:
        ContrastiveConfig(temperature=0.0, variant_prob=2.0, epochs=0)
    for field in ("temperature", "variant_prob", "epochs"):
        assert field in str(exc.value)


def test_depth_zero_is_accepted_for_every_tower():
    cfg = merge_config({"visual": {"depth": 0}, "text": {"depth": 0}, "decoder": {"depth": 0}})
    assert validate_config(cfg) == []
