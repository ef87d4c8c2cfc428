#!/usr/bin/env python3
"""Print the sha256 of every file under a CLI output root.

Each line is `<sha256>  <path relative to RUNS_DIR>`, sorted by path, the
format of `sha256sum`. manifest.json files are skipped: they hold
timestamps and peak memory. Diffing the output of two runs of one config (say,
before and after a refactor) shows every output file whose bytes moved.

A root holding a `.tmp` or `.old` entry (a command killed mid-write or
mid-swap left it) is refused: the entries go to stderr and the exit code is 1,
so no comparison passes over a half-replaced output.

    python scripts/output_digests.py runs/tiny > before.txt
"""

import hashlib
import os
import sys


def output_digests(root: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def staging_debris(root: str) -> list[str]:
    """Every entry under root, directory or file, named *.tmp or *.old."""
    return sorted(os.path.relpath(os.path.join(dirpath, name), root)
                  for dirpath, dirs, files in os.walk(root) for name in dirs + files
                  if name.endswith((".tmp", ".old")))


if __name__ == "__main__":
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]):
        print("usage: output_digests.py RUNS_DIR", file=sys.stderr)
        sys.exit(2)
    debris = staging_debris(sys.argv[1])
    if debris:
        print("staging debris under RUNS_DIR:", *debris, sep="\n", file=sys.stderr)
        sys.exit(1)
    for rel, digest in sorted(output_digests(sys.argv[1]).items()):
        print(f"{digest}  {rel}")
