import importlib.util
import json
import os
import shutil

import numpy as np
import pytest

from cardioclip import cli, tasks, volume
from cardioclip.cli import main

TINY = {
    "geometry": {"dims": [32, 32, 32]},
    "synth": {"n_cases": 20, "train_cases": 12, "cac_fraction": 0.9},
    "visual": {"embed_dim": 32, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
    "text": {"embed_dim": 32, "depth": 1, "heads": 2, "max_len": 64, "mlp_ratio": 2.0},
    "decoder": {"embed_dim": 16, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
    "proj_dim": 16,
    "mae": {"epochs": 1, "batch": 4},
    "clip": {"epochs": 1, "batch": 4},
    "finetune": {"epochs": 1, "batch": 8, "freeze_encoder": True},
    "eval": {"recall_ks": [1, 5], "precision_ks": [1, 5]},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    return root


def run(workdir, command, *extra):
    return main([command, "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "runs"), *extra])


def read_metrics(workdir, command):
    path = workdir / "runs" / command.replace("-", "_") / "metrics.json"
    return json.loads(path.read_text())


class TestPipeline:
    def test_01_synth(self, workdir):
        assert run(workdir, "synth") == 0
        m = read_metrics(workdir, "synth")
        assert m["n_cases"] == 20 and m["n_train"] == 12 and m["n_eval"] == 8
        vol_dir = workdir / "runs" / "synth" / "volumes"
        assert len(list(vol_dir.glob("*.ccv1"))) == 20

    def test_02_structure_reports(self, workdir):
        assert run(workdir, "structure-reports") == 0
        m = read_metrics(workdir, "structure-reports")
        assert m["flag_accuracy"] == 1.0

    def test_03_pretrain_mae(self, workdir):
        assert run(workdir, "pretrain-mae") == 0
        assert (workdir / "runs" / "pretrain_mae" / "checkpoint.bin").exists()
        trace = (workdir / "runs" / "pretrain_mae" / "trace.jsonl").read_text().splitlines()
        assert len(trace) == 1

    def test_04_pretrain_clip(self, workdir):
        assert run(workdir, "pretrain-clip") == 0
        out = workdir / "runs" / "pretrain_clip"
        assert (out / "checkpoint.bin").exists()
        assert (out / "vocab.txt").exists()
        m = read_metrics(workdir, "pretrain-clip")
        assert 0.0 <= m["variant_structured_frac"] <= 1.0

    def test_05_eval_zeroshot(self, workdir):
        assert run(workdir, "eval-zeroshot") == 0
        m = read_metrics(workdir, "eval-zeroshot")
        assert set(m["zero_shot_auroc"]) == {
            "coronary stenosis", "coronary calcification", "aortic calcification",
            "atherosclerosis", "cardiomegaly", "pericardial effusion",
            "pulmonary arterial hypertension"}

    def test_05b_eval_zeroshot_embeds_eval_set_once(self, workdir, monkeypatch):
        embedded = []
        base = tasks.embed_volumes

        def counting(bundle, volumes, **kw):
            embedded.append(len(volumes))
            return base(bundle, volumes, **kw)

        monkeypatch.setattr(tasks, "embed_volumes", counting)
        assert run(workdir, "eval-zeroshot") == 0
        assert embedded == [8]

    def test_06_eval_retrieval(self, workdir):
        assert run(workdir, "eval-retrieval") == 0
        m = read_metrics(workdir, "eval-retrieval")
        assert m["pool_size"] == 8
        assert "image_to_text_r@1" in m["recall"]

    def test_07_eval_cac(self, workdir):
        assert run(workdir, "eval-cac") == 0
        m = read_metrics(workdir, "eval-cac")
        assert set(m["ordinal_auroc"]) == {"grade>1", "grade>2", "grade>3", "grade>4"}
        out = workdir / "runs" / "eval_cac"
        assert (out / "cac_scores.csv").exists()
        assert (out / "cac_scores.svg").exists()

    def test_08_finetune(self, workdir):
        assert run(workdir, "finetune") == 0
        m = read_metrics(workdir, "finetune")
        assert m["target"] == "cac" and m["head_classes"] == 5
        assert "ordinal_auroc" in m

    def test_09_gradcheck(self, workdir):
        assert run(workdir, "gradcheck") == 0
        m = read_metrics(workdir, "gradcheck")
        assert m["pass"] is True
        assert m["mae_loss_max_rel_error"] < 1e-4
        assert m["contrastive_loss_max_rel_error"] < 1e-4

    @pytest.mark.parametrize("command", cli._HANDLERS)
    def test_10_reads_only_the_volumes_it_uses(self, workdir, monkeypatch, command):
        synth_dir = workdir / "runs" / "synth"
        splits = json.loads((synth_dir / "splits.json").read_text())
        graded = {json.loads(line)["case_id"]
                  for line in (synth_dir / "grades.jsonl").read_text().splitlines()}
        expected = {
            "structure-reports": [],
            "pretrain-mae": splits["train"],
            "pretrain-clip": splits["train"],
            "eval-zeroshot": splits["eval"],
            "eval-retrieval": splits["eval"],
            "eval-cac": [c for c in splits["eval"] if c in graded],
            # TINY fine-tunes the calcium grade, so only graded cases are read
            "finetune": [c for c in splits["train"] + splits["eval"] if c in graded],
        }.get(command, [])
        # each stage runs one epoch on TINY, so each volume it uses is read once
        read = []
        base = volume.load_volume

        def recording(path):
            read.append(os.path.basename(path).removesuffix(".ccv1"))
            return base(path)

        # the VolumeFile handles _load_synth attaches call volume.load_volume
        monkeypatch.setattr(volume, "load_volume", recording)
        assert run(workdir, command) == 0
        assert sorted(read) == sorted(expected)

    def test_10b_load_synth_reads_no_payload(self, workdir, monkeypatch):
        opened = []
        base_open = open

        def recording_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return base_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        train, evalset = cli._load_synth(str(workdir / "runs"))
        monkeypatch.undo()
        assert sorted(opened) == ["grades.jsonl", "reports.jsonl", "splits.json"]
        vol_dir = workdir / "runs" / "synth" / "volumes"
        for case in train + evalset:
            assert case.volume == volume.VolumeFile(str(vol_dir / f"{case.case_id}.ccv1"))

    def test_11_manifests_record_peak_rss(self, workdir):
        for command in cli._HANDLERS:
            path = workdir / "runs" / command.replace("-", "_") / "manifest.json"
            peak = json.loads(path.read_text())["peak_rss_mb"]
            assert isinstance(peak, float) and peak > 0, (command, peak)


class TestErrorPaths:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invalid_config_exits_3(self, workdir, capsys):
        code = run(workdir, "synth", "--set", "clip.temperature=0")
        assert code == 3
        assert "temperature" in capsys.readouterr().err

    def test_multiple_violations_all_reported(self, workdir, capsys):
        code = run(workdir, "synth", "--set", "clip.temperature=0",
                   "--set", "clip.variant_prob=2")
        assert code == 3
        err = capsys.readouterr().err
        assert "temperature" in err and "variant_prob" in err

    @pytest.mark.parametrize("assignment, key", [
        ("synth.prevalence=[0.3,0.3]", "prevalence"),
        ("geometry=5", "geometry"),
        ("visual.depth=abc", "visual.depth"),
        ('clip={"temperature": 0}', "temperature"),
    ])
    def test_bad_set_exits_3_naming_the_key(self, workdir, capsys, assignment, key):
        assert run(workdir, "synth", "--set", assignment) == 3
        err = capsys.readouterr().err
        assert "invalid configuration" in err and key in err

    def test_digest_mismatch_requires_force(self, workdir, capsys):
        code = run(workdir, "eval-zeroshot", "--set", "seed=99")
        assert code == 1
        assert "digest" in capsys.readouterr().err
        assert run(workdir, "eval-zeroshot", "--set", "seed=99", "--force") == 0

    def test_pretrain_clip_stage1_digest_mismatch_requires_force(self, workdir, tmp_path,
                                                                  capsys):
        # a root of its own holding the shared corpus, so the shared
        # pretrain_clip output stays as the pipeline wrote it
        shutil.copytree(workdir / "runs" / "synth", tmp_path / "synth")
        args = ["pretrain-clip", "--config", str(workdir / "config.json"),
                "--out", str(tmp_path),
                "--init", str(workdir / "runs" / "pretrain_mae" / "checkpoint"),
                "--set", "clip.text_warmup_steps=2"]
        assert main(args) == 1
        assert "digest" in capsys.readouterr().err
        assert not (tmp_path / "pretrain_clip").exists()
        assert main([*args, "--force"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "digest" in err
        assert (tmp_path / "pretrain_clip" / "checkpoint.bin").exists()

    def test_pretrain_clip_failing_in_training_leaves_the_previous_vocab(self, workdir, tmp_path,
                                                                         monkeypatch, capsys):
        # a root of its own holding the shared corpus and a previous stage-2
        # output whose vocab differs from the one this run would build
        shutil.copytree(workdir / "runs" / "synth", tmp_path / "synth")
        shutil.copytree(workdir / "runs" / "pretrain_clip", tmp_path / "pretrain_clip")
        (tmp_path / "pretrain_clip" / "vocab.txt").write_text("<pad>\n<unk>\n<cls>\nprevious\n")
        before = {p.name: p.read_bytes() for p in (tmp_path / "pretrain_clip").iterdir()
                  if p.name != "trace.jsonl"}

        def failing_train_clip(*args, **kwargs):
            raise FloatingPointError("non-finite contrastive loss at step 0")

        monkeypatch.setattr(cli, "train_clip", failing_train_clip)
        assert main(["pretrain-clip", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path),
                     "--init", str(workdir / "runs" / "pretrain_mae" / "checkpoint")]) == 1
        assert "non-finite" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in (tmp_path / "pretrain_clip").iterdir()
                 if p.name != "trace.jsonl"}
        assert after == before

    def test_non_finite_volume_fails_pretrain_mae_naming_the_file(self, workdir, tmp_path,
                                                                   capsys):
        # a root of its own holding the shared corpus with one train volume's
        # last voxel set to NaN: the header and size stay valid, so the
        # volume is refused when its batch reads it
        shutil.copytree(workdir / "runs" / "synth", tmp_path / "synth")
        cid = json.loads((tmp_path / "synth" / "splits.json").read_text())["train"][-1]
        path = tmp_path / "synth" / "volumes" / f"{cid}.ccv1"
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        code = main(["pretrain-mae", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cid}.ccv1" in err and "non-finite" in err
        out = tmp_path / "pretrain_mae"
        assert not (out / "checkpoint.json").exists() and not (out / "checkpoint.bin").exists()

    def test_missing_synth_dir_is_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TINY))
        code = main(["pretrain-mae", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "synth" in capsys.readouterr().err


class TestEnvOverride:
    def test_cardioclip_out_env(self, workdir, monkeypatch, tmp_path):
        monkeypatch.setenv("CARDIOCLIP_OUT", str(tmp_path / "env_runs"))
        code = main(["gradcheck", "--config", str(workdir / "config.json")])
        assert code == 0
        assert (tmp_path / "env_runs" / "gradcheck" / "metrics.json").exists()


def test_json_write_failing_partway_leaves_the_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "metrics.json"
    cli._write_json(path, {"a": 1})
    before = path.read_bytes()
    # json.dump has written '{"a": 2, ' when it meets the set
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(path, {"a": 2, "b": {3}})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.json"]


def _load_by_path(monkeypatch, directory, name):
    monkeypatch.syspath_prepend(directory)
    spec = importlib.util.spec_from_file_location(f"_path_{name}",
                                                  os.path.join(directory, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_script_runs_the_commands_the_benchmark_times(monkeypatch):
    # perfbench's pipeline_cli workload times "the run_pipeline.py commands"
    repo = os.path.join(os.path.dirname(__file__), os.pardir)
    stages = _load_by_path(monkeypatch, os.path.join(repo, "scripts"), "run_pipeline").STAGES
    layers = _load_by_path(monkeypatch, os.path.join(repo, "perfbench"), "layers")
    assert tuple(stages) == tuple(layers.PIPELINE_COMMANDS)
    assert set(stages) <= set(cli._HANDLERS)
