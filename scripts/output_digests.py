#!/usr/bin/env python3
"""Print the sha256 of every file under a CLI output root.

Each line is `<sha256>  <path relative to RUNS_DIR>`, sorted by path, the
format of `sha256sum`. manifest.json files are skipped: they hold
timestamps and peak memory. Diffing the output of two runs of one config (say,
before and after a refactor) shows every output file whose bytes moved.

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


if __name__ == "__main__":
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]):
        print("usage: output_digests.py RUNS_DIR", file=sys.stderr)
        sys.exit(2)
    for rel, digest in sorted(output_digests(sys.argv[1]).items()):
        print(f"{digest}  {rel}")
