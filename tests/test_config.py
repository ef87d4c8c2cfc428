import ast
import importlib.util
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from cardioclip.clip import ContrastiveConfig
from cardioclip.config import (
    DEFAULT_CONFIG,
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
from cardioclip.synth import SynthSpec, generate_full_corpus
from cardioclip.tasks import FinetuneConfig


def test_defaults_are_valid():
    cfg = merge_config({})
    assert validate_config(cfg) == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        merge_config({"claip": {"temperature": 0.1}})
    with pytest.raises(ConfigError, match="clip.temprature"):
        merge_config({"clip": {"temprature": 0.1}})


# keys that no run set to another value, each with its last default; each
# is a constant now
REMOVED_KEYS = {"clip.raw_affinity": False, "mae.weight_decay": 0.01,
                "clip.weight_decay": 0.01, "finetune.weight_decay": 0.01,
                "clip.text_warmup_lr": 1e-3, "clip.text_warmup_statement_frac": 0.5,
                "clip.variant_prob": 0.5}


@pytest.mark.parametrize("path", REMOVED_KEYS)
def test_removed_key_is_unknown(path):
    section, key = path.split(".")
    assert key not in merge_config({})[section]
    with pytest.raises(ConfigError, match=f"unknown key '{path}'"):
        merge_config({section: {key: REMOVED_KEYS[path]}})


def _attributes_read_beyond_validation() -> set:
    """Every attribute name loaded in src/cardioclip/*.py outside each
    __post_init__ and each *_rules function."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cardioclip")
    names = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and (node.name == "__post_init__"
                                                  or node.name.endswith("_rules")):
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()))
    return names


@pytest.mark.parametrize("cls", [VisualEncoderConfig, TextEncoderConfig, DecoderConfig,
                                 MAETrainConfig, ContrastiveConfig, FinetuneConfig, SynthSpec],
                         ids=lambda cls: cls.__name__)
def test_every_stage_config_field_is_read_beyond_its_validation(cls):
    # a field only bounds-checked is a config key that changes nothing; the
    # check is by attribute name alone, so any `x.<field>` read counts
    read = _attributes_read_beyond_validation()
    assert [f.name for f in fields(cls) if f.name not in read] == []


def test_all_violations_listed_together():
    cfg = merge_config({
        "clip": {"temperature": 0.0, "batch": 1},
        "geometry": {"dims": [60, 64, 64]},
        "synth": {"signal_strength": -1.0},
    })
    violations = validate_config(cfg)
    text = "\n".join(violations)
    assert "temperature" in text
    assert "batch must be >= 2" in text
    assert "60" in text
    assert "signal_strength" in text
    assert len(violations) >= 3


def test_set_overrides_parse_json_values():
    cfg = merge_config({})
    cfg = apply_set_overrides(cfg, ["clip.temperature=0.25", "synth.n_cases=16",
                                    "finetune.freeze_encoder=true"])
    assert cfg["clip"]["temperature"] == 0.25
    assert cfg["synth"]["n_cases"] == 16
    assert cfg["finetune"]["freeze_encoder"] is True


def test_set_override_unknown_key():
    cfg = merge_config({})
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
    a = merge_config({})
    b = merge_config({})
    assert config_digest(a) == config_digest(b)
    c = merge_config({"seed": 1})
    assert config_digest(a) != config_digest(c)


def test_default_config_digest_is_pinned():
    # every checkpoint and manifest carries this digest; a default that moves
    # changes it
    assert config_digest(DEFAULT_CONFIG) == (
        "33140dbe2d8d1d81918adce218bba2a0bb5f97a862f89a2865461c6e7452f928")


def test_each_default_section_builds_its_dataclass_default():
    stages = stage_configs(DEFAULT_CONFIG, vocab_size=50)
    assert stages == {
        "visual": VisualEncoderConfig(), "text": TextEncoderConfig(vocab_size=50),
        "decoder": DecoderConfig(), "mae": MAETrainConfig(), "clip": ContrastiveConfig(),
        "finetune": FinetuneConfig(), "synth": SynthSpec(),
    }


@pytest.mark.parametrize("section, cls", [
    ("mae", MAETrainConfig), ("clip", ContrastiveConfig), ("finetune", FinetuneConfig)])
def test_no_stage_has_a_rate_floor(section, cls):
    # every schedule decays to 0: no config key and no constructor field sets a floor
    assert "min_lr" not in DEFAULT_CONFIG[section]
    with pytest.raises(TypeError):
        cls(min_lr=0.0)


def test_benchmark_pipeline_configs_are_valid(monkeypatch):
    # the benchmark's pipeline_cli workload runs the CLI on these overrides
    bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench_dir)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(bench_dir, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for overrides in (workloads.PIPELINE_OVERRIDES, workloads.WARMUP_PIPELINE):
        assert validate_config(merge_config(overrides)) == []


def test_mask_ratio_feasibility_checked():
    cfg = merge_config({"mae": {"mask_ratio": 0.001}})
    assert any("mask_ratio" in v for v in validate_config(cfg))


def test_dims_not_divisible_by_the_patch_size_are_refused_under_visual():
    cfg = merge_config({"geometry": {"dims": [30, 32, 32]}})
    violations = validate_config(cfg)
    assert any(v.startswith("visual:") and "input dim 30" in v for v in violations)
    assert not any(v.startswith("synth:") for v in violations)


def test_dims_off_the_default_patch_grid_are_accepted_with_a_patch_size_that_divides_them():
    cfg = apply_set_overrides(merge_config({}),
                              ["geometry.dims=[24,24,24]", "geometry.patch_size=[8,8,8]"])
    assert validate_config(cfg) == []
    spec = replace(stage_configs(cfg)["synth"], n_cases=1)
    assert generate_full_corpus(spec)[0].volume.dims == (24, 24, 24)


def test_finetune_target_is_cac_or_a_catalog_name():
    for target in ("cac", *load_catalog().names):
        cfg = merge_config({"finetune": {"target": target}})
        assert validate_config(cfg) == [], target
    cfg = merge_config({"finetune": {"target": "aortic stenosis"}})
    assert validate_config(cfg) == [
        "finetune: target must be 'cac' or a catalog name, got 'aortic stenosis'"]


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
    assert from_set["clip"]["epochs"] == merge_config({})["clip"]["epochs"]
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
    (lambda: MAETrainConfig(lr=0.0), "lr"),
    (lambda: SynthSpec(prevalence=(0.3, 0.3)), "prevalence"),
    (lambda: SynthSpec(signal_strength=-1.0), "signal_strength"),
    (lambda: SynthSpec(dims=(8, 32, 32)), "dims"),
    # counts must be integers (a bool is not one)
    (lambda: MAETrainConfig(epochs=2.5, batch=2), "epochs must be an integer"),
    (lambda: MAETrainConfig(epochs=True), "epochs must be an integer"),
    (lambda: ContrastiveConfig(batch=2.5), "batch must be an integer"),
    (lambda: ContrastiveConfig(text_warmup_steps=2.5), "text_warmup_steps must be an integer"),
    (lambda: ContrastiveConfig(text_warmup_batch=1.5), "text_warmup_batch an integer"),
    (lambda: FinetuneConfig(epochs=1.5), "epochs must be an integer"),
    (lambda: SynthSpec(n_cases=2.5), "n_cases must be an integer"),
    (lambda: VisualEncoderConfig(depth=1.5), "depth must be an integer"),
    (lambda: DecoderConfig(embed_dim=64.0), "embed_dim must be an integer"),
    (lambda: TextEncoderConfig(vocab_size=10, max_len=8.5), "max_len must be an integer"),
    # so must each patch_size and input_dims entry, named by field and axis
    (lambda: VisualEncoderConfig(patch_size=(16.0, 16, 16), input_dims=(32, 32, 32),
                                 embed_dim=8, depth=1, heads=2),
     r"patch_size\[0\] must be an integer"),
    (lambda: VisualEncoderConfig(patch_size=(16, 16, 16), input_dims=(32, 32.0, 32),
                                 embed_dim=8, depth=1, heads=2),
     r"input_dims\[1\] must be an integer"),
    (lambda: VisualEncoderConfig(patch_size=(16, 16, True), input_dims=(32, 32, 32),
                                 embed_dim=8, depth=1, heads=2),
     r"patch_size\[2\] must be an integer"),
    (lambda: VisualEncoderConfig(patch_size=(16, 0, 16), input_dims=(32, 32, 32),
                                 embed_dim=8, depth=1, heads=2),
     r"patch_size\[1\] must be an integer >= 1"),
])
def test_stage_dataclasses_refuse_out_of_bounds_values(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_numpy_integer_counts_are_accepted():
    assert MAETrainConfig(epochs=np.int64(3), batch=np.int32(2)).epochs == 3
    assert VisualEncoderConfig(depth=np.int64(2), heads=np.int64(4)).depth == 2
    assert VisualEncoderConfig(patch_size=(np.int64(16), 16, 16),
                               input_dims=(32, np.int32(32), 32)).n_patches == 8
    # without a warmup its batch is never used, so it is not checked
    assert ContrastiveConfig(text_warmup_steps=0, text_warmup_batch=0).text_warmup_batch == 0


def test_a_dataclass_reports_all_its_violations_at_once():
    with pytest.raises(ValueError) as exc:
        ContrastiveConfig(temperature=0.0, batch=1, epochs=0)
    for field in ("temperature", "batch", "epochs"):
        assert field in str(exc.value)


def test_depth_zero_is_accepted_for_every_tower():
    cfg = merge_config({"visual": {"depth": 0}, "text": {"depth": 0}, "decoder": {"depth": 0}})
    assert validate_config(cfg) == []
