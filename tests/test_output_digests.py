"""scripts/output_digests.py, the byte-identity oracle for refactors."""

import hashlib
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "output_digests.py")


def digests(*paths):
    return subprocess.run([sys.executable, SCRIPT, *map(str, paths)], capture_output=True,
                          text=True)


def write_files(root, files):
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)


def test_sorted_sha256_lines_skipping_every_manifest(tmp_path):
    files = {"synth/metrics.json": b"{}", "b.bin": b"\x00\x01", "a/z/deep.txt": b"deep",
             "a/checkpoint.json": b"[1]"}
    write_files(tmp_path, files)
    for rel in ("manifest.json", "synth/manifest.json", "a/z/manifest.json"):
        (tmp_path / rel).write_text("timestamps")
    out = digests(tmp_path)
    assert out.returncode == 0
    expected = [f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}" for rel in sorted(files)]
    assert out.stdout.splitlines() == expected


def test_missing_directory_exits_2(tmp_path):
    out = digests(tmp_path / "absent")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "usage" in out.stderr


def test_staging_debris_exits_1_naming_each_entry(tmp_path):
    (tmp_path / "synth").mkdir()
    (tmp_path / "synth" / "metrics.json").write_text("{}")
    (tmp_path / "pretrain_clip.tmp").mkdir()
    (tmp_path / "eval_cac.old").mkdir()
    (tmp_path / "eval_cac.old" / "cac_scores.csv").write_text("grade,score\n")
    (tmp_path / "synth" / "cases.jsonl.tmp").write_text("{")
    out = digests(tmp_path)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.splitlines()[1:] == ["eval_cac.old", "pretrain_clip.tmp",
                                           os.path.join("synth", "cases.jsonl.tmp")]


def test_two_roots_list_each_changed_removed_and_added_path_and_exit_1(tmp_path):
    same = {"synth/volumes/case_0000.ccv1": b"vox", "eval_cac/metrics.json": b"{}"}
    write_files(tmp_path / "before", {**same, "synth/reports.jsonl": b"r\n",
                                      "finetune/metrics.json": b"1"})
    write_files(tmp_path / "after", {**same, "synth/cases.jsonl": b"c\n",
                                     "finetune/metrics.json": b"2"})
    # manifests hold timestamps, so they differ between any two runs
    (tmp_path / "before" / "manifest.json").write_text("a")
    (tmp_path / "after" / "synth").joinpath("manifest.json").write_text("b")
    out = digests(tmp_path / "before", tmp_path / "after")
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        f"changed  {os.path.join('finetune', 'metrics.json')}",
        f"added  {os.path.join('synth', 'cases.jsonl')}",
        f"removed  {os.path.join('synth', 'reports.jsonl')}",
    ]


def test_a_changed_json_object_names_its_top_level_keys_that_moved(tmp_path):
    write_files(tmp_path / "before", {
        "pretrain_mae/checkpoint.json": b'{"config_digest": "a", "shapes": {"w": [2]}}',
        "eval_cac/metrics.json": b'{"auroc": 0.5, "n": 3, "gone": 1}',
        "synth/cases.jsonl": b'{"case_id": "c0"}\n{"case_id": "c1"}\n',
        "gradcheck/metrics.json": b"[1]",
        "finetune/metrics.json": b'{"n": 1}',
    })
    write_files(tmp_path / "after", {
        "pretrain_mae/checkpoint.json": b'{"config_digest": "b", "shapes": {"w": [2]}}',
        "eval_cac/metrics.json": b'{"auroc": 0.6, "n": 3, "new": 1}',
        "synth/cases.jsonl": b'{"case_id": "c0"}\n{"case_id": "c2"}\n',
        "gradcheck/metrics.json": b"[2]",
        "finetune/metrics.json": b'{"n":1}',
    })
    out = digests(tmp_path / "before", tmp_path / "after")
    assert out.returncode == 1
    # a JSON Lines file and a JSON array are not objects, so no keys are named;
    # an object whose bytes moved but whose values did not names none
    assert out.stdout.splitlines() == [
        f"changed  {os.path.join('eval_cac', 'metrics.json')}  [auroc, gone, new]",
        f"changed  {os.path.join('finetune', 'metrics.json')}  []",
        f"changed  {os.path.join('gradcheck', 'metrics.json')}",
        f"changed  {os.path.join('pretrain_mae', 'checkpoint.json')}  [config_digest]",
        f"changed  {os.path.join('synth', 'cases.jsonl')}",
    ]


def test_two_matching_roots_print_nothing_and_exit_0(tmp_path):
    files = {"synth/cases.jsonl": b"c\n", "pretrain_mae/checkpoint.bin": b"\x00" * 8}
    write_files(tmp_path / "before", files)
    write_files(tmp_path / "after", files)
    out = digests(tmp_path / "before", tmp_path / "after")
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")


@pytest.mark.parametrize("side", ["before", "after"])
def test_two_roots_refuse_staging_debris_on_either_side(tmp_path, side):
    write_files(tmp_path / "before", {"gradcheck/metrics.json": b"{}"})
    write_files(tmp_path / "after", {"gradcheck/metrics.json": b"{}"})
    (tmp_path / side / "gradcheck.old").mkdir()
    out = digests(tmp_path / "before", tmp_path / "after")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.splitlines() == [f"staging debris under {tmp_path / side}:",
                                       "gradcheck.old"]


def test_more_than_two_roots_exit_2(tmp_path):
    out = digests(tmp_path, tmp_path, tmp_path)
    assert out.returncode == 2
    assert "usage" in out.stderr
