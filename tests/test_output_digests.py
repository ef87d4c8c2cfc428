"""scripts/output_digests.py, the byte-identity oracle for refactors."""

import hashlib
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "output_digests.py")


def digests(path):
    return subprocess.run([sys.executable, SCRIPT, str(path)], capture_output=True, text=True)


def test_sorted_sha256_lines_skipping_every_manifest(tmp_path):
    files = {"synth/metrics.json": b"{}", "b.bin": b"\x00\x01", "a/z/deep.txt": b"deep",
             "a/checkpoint.json": b"[1]"}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
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
    (tmp_path / "synth" / "splits.json.tmp").write_text("{")
    out = digests(tmp_path)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.splitlines()[1:] == ["eval_cac.old", "pretrain_clip.tmp",
                                           os.path.join("synth", "splits.json.tmp")]
