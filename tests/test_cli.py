import importlib.util
import json
import os
import shutil

import numpy as np
import pytest

from cardioclip import cli, tasks, volume
from cardioclip.checkpoint import load_checkpoint, save_checkpoint
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


def copy_runs(workdir, root, *names):
    """A root of its own holding the named command directories of the shared
    pipeline run, so the shared outputs stay as the pipeline wrote them."""
    for name in names:
        shutil.copytree(workdir / "runs" / name, root / name)
    return root


def files_under(path) -> dict:
    """Every file below path, by relative path, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def staging_debris(root) -> list:
    return [name for name in os.listdir(root) if name.endswith((".tmp", ".old"))]


def corpus_rows(synth_dir) -> list:
    return [json.loads(line) for line in (synth_dir / "cases.jsonl").read_text().splitlines()]


def split_ids(rows, split) -> list:
    return [row["case_id"] for row in rows if row["split"] == split]


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

    def test_02b_structured_rows_are_the_corpus_report_records(self, workdir):
        # the closure property on the files: structuring each case's free
        # text gives back the report record synth wrote for it
        keys = ("case_id", "free_text", "structured", "flags")
        corpus = [{k: row[k] for k in keys} for row in corpus_rows(workdir / "runs" / "synth")]
        path = workdir / "runs" / "structure_reports" / "structured.jsonl"
        structured = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(corpus) == 20
        assert structured == corpus

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
        rows = corpus_rows(workdir / "runs" / "synth")
        train, evalset = split_ids(rows, "train"), split_ids(rows, "eval")
        graded = {row["case_id"] for row in rows if row["grade"] is not None}
        expected = {
            "structure-reports": [],
            "pretrain-mae": train,
            "pretrain-clip": train,
            "eval-zeroshot": evalset,
            "eval-retrieval": evalset,
            "eval-cac": [c for c in evalset if c in graded],
            # TINY fine-tunes the calcium grade, so only graded cases are read
            "finetune": [c for c in train + evalset if c in graded],
        }.get(command, [])
        # each stage runs one epoch on TINY, so each volume it uses is read once
        read = []
        base = volume.load_volume

        def recording(path):
            read.append(os.path.basename(path).removesuffix(".ccv1"))
            return base(path)

        # the VolumeFile handles synth.read_corpus attaches call volume.load_volume
        monkeypatch.setattr(volume, "load_volume", recording)
        assert run(workdir, command) == 0
        assert sorted(read) == sorted(expected)

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

    @pytest.mark.parametrize("text", ["null", "[]"])
    def test_config_file_not_an_object_exits_3(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert "the config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_invalid_config_exits_3(self, workdir, capsys):
        code = run(workdir, "synth", "--set", "clip.temperature=0")
        assert code == 3
        assert "temperature" in capsys.readouterr().err

    def test_multiple_violations_all_reported(self, workdir, capsys):
        code = run(workdir, "synth", "--set", "clip.temperature=0",
                   "--set", "clip.batch=1")
        assert code == 3
        err = capsys.readouterr().err
        assert "temperature" in err and "batch must be >= 2" in err

    @pytest.mark.parametrize("assignment, key", [
        ("synth.prevalence=[0.3,0.3]", "prevalence"),
        ("geometry=5", "geometry"),
        ("visual.depth=abc", "visual.depth"),
        ('clip={"temperature": 0}', "temperature"),
        ("clip.variant_prob=0.5", "unknown key 'clip.variant_prob'"),
        ("seed=-1", "seed must be >= 0"),
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
        before = files_under(tmp_path / "pretrain_clip")

        def failing_train_clip(*args, **kwargs):
            raise FloatingPointError("non-finite contrastive loss at step 0")

        monkeypatch.setattr(cli, "train_clip", failing_train_clip)
        assert main(["pretrain-clip", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path),
                     "--init", str(workdir / "runs" / "pretrain_mae" / "checkpoint")]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert files_under(tmp_path / "pretrain_clip") == before
        assert staging_debris(tmp_path) == []

    def test_structure_reports_failing_partway_leaves_the_previous_output(
            self, workdir, tmp_path, monkeypatch, capsys):
        # a root of its own holding the shared corpus and a previous
        # structure-reports output
        shutil.copytree(workdir / "runs" / "synth", tmp_path / "synth")
        shutil.copytree(workdir / "runs" / "structure_reports", tmp_path / "structure_reports")
        out = tmp_path / "structure_reports"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []
        real = cli.structure_report

        def fail_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("report structurer failed")
            return real(*args)

        monkeypatch.setattr(cli, "structure_report", fail_third)
        assert main(["structure-reports", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path)]) == 1
        assert "structurer failed" in capsys.readouterr().err
        assert len(calls) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert staging_debris(tmp_path) == []

    def test_gradcheck_failure_writes_its_metrics_then_exits_1(self, workdir, tmp_path,
                                                               monkeypatch, capsys):
        monkeypatch.setattr(cli, "stage_loss_errors", lambda seed: {"mae": 1.0,
                                                                    "contrastive": 0.0})
        assert main(["gradcheck", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path)]) == 1
        m = json.loads((tmp_path / "gradcheck" / "metrics.json").read_text())
        assert m["pass"] is False
        assert m["mae_loss_max_rel_error"] == 1.0 and m["contrastive_loss_max_rel_error"] == 0.0
        assert f"{cli.TOLERANCE:.0e}" in capsys.readouterr().err

    def test_non_finite_volume_fails_pretrain_mae_naming_the_file(self, workdir, tmp_path,
                                                                   capsys):
        # a root of its own holding the shared corpus with one train volume's
        # last voxel set to NaN: the header and size stay valid, so the
        # volume is refused when its batch reads it
        shutil.copytree(workdir / "runs" / "synth", tmp_path / "synth")
        cid = split_ids(corpus_rows(tmp_path / "synth"), "train")[-1]
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

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.update(split="test"), "split 'test' is not one of 'train', 'eval'"),
        (lambda row: row.update(split=["train"]),
         "split ['train'] is not one of 'train', 'eval'"),
        (lambda row: row.pop("grade"), "missing key 'grade'"),
        (lambda row: row.update(flags="1010101"),
         "flags '1010101' is not a list of 7 booleans"),
        (lambda row: row.update(flags=[True, False, True]),
         "flags [True, False, True] is not a list of 7 booleans"),
        (lambda row: row.update(grade=9), "grade 9 is not null or an integer in 1..5"),
        (lambda row: row.update(grade="3"), "grade '3' is not null or an integer in 1..5"),
        (lambda row: row.update(grade=True), "grade True is not null or an integer in 1..5"),
        (lambda row: row.update(free_text=5), "free_text 5 is not a string"),
        # rows are written in case order, so line 1 holds case_0000
        (lambda row: row.update(case_id="case_0000"), "case_id 'case_0000' repeats line 1"),
        (lambda row: row.update(case_id=7), "case_id 7 is not a file name without a directory"),
        (lambda row: row.update(case_id="../case_0002"),
         "case_id '../case_0002' is not a file name without a directory"),
    ], ids=["unknown-split", "split-list", "missing-grade", "flags-string", "three-flags",
            "grade-9", "grade-string", "grade-bool", "free-text-int", "duplicate-id", "id-int",
            "id-with-slash"])
    def test_malformed_corpus_row_fails_naming_the_file_line_and_case(
            self, workdir, tmp_path, capsys, edit, message):
        copy_runs(workdir, tmp_path, "synth", "pretrain_clip")
        path = tmp_path / "synth" / "cases.jsonl"
        rows = corpus_rows(tmp_path / "synth")
        edit(rows[2])
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        code = main(["eval-zeroshot", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path} line 3 ({rows[2]['case_id']}): {message}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line[:40], "{path} line 3: not valid JSON, Expecting"),
        (lambda line: "5", "{path} line 3: '5' is not a JSON object"),
    ], ids=["cut-row", "number-row"])
    def test_unparseable_corpus_row_fails_naming_the_file_and_line(
            self, workdir, tmp_path, capsys, edit, message):
        copy_runs(workdir, tmp_path, "synth", "pretrain_clip")
        path = tmp_path / "synth" / "cases.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("".join(line + "\n" for line in lines))
        code = main(["eval-zeroshot", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert message.format(path=path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, failing", [
        *((command, "manifest.json") for command in cli._HANDLERS),
        # the previous checkpoint pair is already replaced by then at the parent
        ("pretrain-clip", "vocab.txt"),
    ])
    def test_a_failed_command_leaves_its_previous_directory_whole(
            self, workdir, tmp_path, monkeypatch, capsys, command, failing):
        shutil.copytree(workdir / "runs", tmp_path, dirs_exist_ok=True)
        args = [command, "--config", str(workdir / "config.json"), "--out", str(tmp_path)]
        assert main(args) == 0
        out = tmp_path / command.replace("-", "_")
        # mark every previous file, so any file this run wrote in place would show
        for path in out.rglob("*"):
            if path.is_file():
                path.write_bytes(b"previous\n" + path.read_bytes())
        before = files_under(out)
        if failing == "manifest.json":  # every command's last write
            real = cli._write_json

            def write_json(path, doc):
                if os.path.basename(path) == "manifest.json":
                    raise OSError("no space left on device")
                real(path, doc)

            monkeypatch.setattr(cli, "_write_json", write_json)
        else:  # after the checkpoint is saved
            def save_vocab(vocab, path):
                raise OSError("no space left on device")

            monkeypatch.setattr(cli, "save_vocab", save_vocab)
        assert main(args) == 1
        assert "no space left" in capsys.readouterr().err
        assert files_under(out) == before
        assert staging_debris(tmp_path) == []

    def test_pretrain_clip_continues_from_the_checkpoint_in_its_own_directory(
            self, workdir, tmp_path):
        # the --init checkpoint sits in the very directory the run replaces
        copy_runs(workdir, tmp_path, "synth", "pretrain_clip")
        out = tmp_path / "pretrain_clip"
        previous = (out / "checkpoint.bin").read_bytes()
        assert main(["pretrain-clip", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path), "--init", str(out / "checkpoint")]) == 0
        assert (out / "checkpoint.bin").read_bytes() != previous
        # eval-zeroshot loads the new checkpoint and the vocab next to it as a pair
        assert main(["eval-zeroshot", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path)]) == 0
        assert staging_debris(tmp_path) == []

    def test_empty_checkpoint_digest_requires_force(self, workdir, tmp_path, capsys):
        copy_runs(workdir, tmp_path, "synth", "pretrain_clip")
        stem = tmp_path / "pretrain_clip" / "checkpoint"
        params, manifest = load_checkpoint(stem)
        save_checkpoint(params, manifest["stage"], stem, config_digest="")
        args = ["eval-zeroshot", "--config", str(workdir / "config.json"), "--out", str(tmp_path)]
        assert main(args) == 1
        assert "digest" in capsys.readouterr().err
        assert main([*args, "--force"]) == 0

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


def test_json_write_failing_partway_leaves_the_previous_file_and_no_temp_file(
        workdir, tmp_path, monkeypatch, capsys):
    args = ["gradcheck", "--config", str(workdir / "config.json"), "--out", str(tmp_path)]
    assert main(args) == 0
    before = files_under(tmp_path / "gradcheck")
    # json.dump has written the metrics up to "n_probes" when it meets the set
    monkeypatch.setattr(cli, "N_PROBES", {3})
    assert main(args) == 1
    assert "not JSON serializable" in capsys.readouterr().err
    assert files_under(tmp_path / "gradcheck") == before
    assert os.listdir(tmp_path) == ["gradcheck"]


def test_a_run_stopped_mid_swap_leaves_the_previous_output_for_the_next_run(
        workdir, tmp_path, monkeypatch, capsys):
    args = ["gradcheck", "--config", str(workdir / "config.json"), "--out", str(tmp_path)]
    assert main(args) == 0
    out = tmp_path / "gradcheck"
    # mark the first run's files, so a later run's output cannot pass for them
    for path in out.iterdir():
        path.write_bytes(b"previous\n" + path.read_bytes())
    before = files_under(out)
    real_replace = os.replace

    def stop_before_the_new_output_lands(src, dst):
        if str(src) == f"{out}.tmp":
            raise KeyboardInterrupt
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", stop_before_the_new_output_lands)
    with pytest.raises(KeyboardInterrupt):
        main(args)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["gradcheck.old", "gradcheck.tmp"]

    def failing(seed):
        raise FloatingPointError("non-finite loss in the toy problem")

    monkeypatch.setattr(cli, "stage_loss_errors", failing)
    assert main(args) == 1
    assert "non-finite" in capsys.readouterr().err
    assert files_under(out) == before
    assert os.listdir(tmp_path) == ["gradcheck"]


def test_grade_plot_failing_on_the_svg_leaves_the_previous_pair(workdir, tmp_path, monkeypatch,
                                                                capsys):
    out = copy_runs(workdir, tmp_path, "synth", "pretrain_clip", "eval_cac") / "eval_cac"
    # a previous pair that differs from the one this run would write
    for name in ("cac_scores.csv", "cac_scores.svg"):
        (out / name).write_text(f"previous {name}\n")
    before = files_under(out)

    class FullDevice:
        """The SVG on a device that takes no write; the CSV is written whole first."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError("no space left on device")

    def opening(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FullDevice(fh) if str(path).endswith(".svg") else fh

    monkeypatch.setattr(cli, "open", opening, raising=False)
    assert main(["eval-cac", "--config", str(workdir / "config.json"),
                 "--out", str(tmp_path)]) == 1
    assert "no space left" in capsys.readouterr().err
    assert files_under(out) == before
    assert staging_debris(tmp_path) == []


def test_rounded_rounds_only_the_floats():
    doc = {"none": None, "flag": True, "count": 3, "np": np.float64(0.12345678901),
           "nested": {"x": 2.0000004, "cuts": [1.23456789, False, None, 7]}}
    out = cli._rounded(doc)
    assert out == {"none": None, "flag": True, "count": 3, "np": 0.123457,
                   "nested": {"x": 2.0, "cuts": [1.234568, False, None, 7]}}
    assert out["flag"] is True and out["nested"]["cuts"][1] is False
    assert type(out["count"]) is int and type(out["nested"]["cuts"][3]) is int
    assert type(out["np"]) is float


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
