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
