#!/usr/bin/env python3
"""Print the sha256 of every file under a CLI output root, or compare two roots.

With one root, each line is `<sha256>  <path relative to RUNS_DIR>`, sorted
by path, the format of `sha256sum`. manifest.json files are skipped: they
hold timestamps and peak memory.

With two roots (say, runs of one config before and after a refactor), each
line names one path whose bytes moved, sorted by path: `changed  <path>`
when both roots hold it with other digests, `removed  <path>` when only
BEFORE holds it, `added  <path>` when only AFTER does. A changed file whose
two sides both parse as JSON objects (a checkpoint.json, a metrics.json)
also names the sorted top-level keys whose values differ:
`changed  pretrain_mae/checkpoint.json  [config_digest]`. The exit code is 1
when any line is printed and 0 when the roots match.

A root holding a `.tmp` or `.old` entry (a command killed mid-write or
mid-swap left it) is refused: the entries go to stderr and the exit code is 1,
so no comparison passes over a half-replaced output.

    python scripts/output_digests.py runs/tiny > before.txt
    python scripts/output_digests.py runs/before runs/after
"""

import hashlib
import json
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


def moved_keys(before_path: str, after_path: str) -> list[str] | None:
    """The sorted top-level keys whose values differ between two JSON
    objects, a key one side lacks included; None unless both files parse as
    JSON objects."""
    docs = []
    for path in (before_path, after_path):
        with open(path, "rb") as fh:
            try:
                doc = json.load(fh)
            except ValueError:  # not JSON, or not UTF-8
                return None
        if not isinstance(doc, dict):
            return None
        docs.append(doc)
    before, after = docs
    absent = object()
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k, absent) != after.get(k, absent))


def differences(before_root: str, after_root: str) -> list[str]:
    """One line per path whose digest differs or that one side lacks."""
    before, after = output_digests(before_root), output_digests(after_root)
    lines = []
    for rel in sorted(before.keys() | after.keys()):
        if rel not in after:
            lines.append(f"removed  {rel}")
        elif rel not in before:
            lines.append(f"added  {rel}")
        elif before[rel] != after[rel]:
            keys = moved_keys(os.path.join(before_root, rel), os.path.join(after_root, rel))
            lines.append(f"changed  {rel}" + ("" if keys is None else f"  [{', '.join(keys)}]"))
    return lines


if __name__ == "__main__":
    roots = sys.argv[1:]
    if len(roots) not in (1, 2) or not all(os.path.isdir(root) for root in roots):
        print("usage: output_digests.py RUNS_DIR | output_digests.py BEFORE AFTER",
              file=sys.stderr)
        sys.exit(2)
    refused = False
    for root in roots:
        debris = staging_debris(root)
        if debris:
            print(f"staging debris under {root}:", *debris, sep="\n", file=sys.stderr)
            refused = True
    if refused:
        sys.exit(1)
    if len(roots) == 2:
        lines = differences(*roots)
        for line in lines:
            print(line)
        sys.exit(1 if lines else 0)
    for rel, digest in sorted(output_digests(roots[0]).items()):
        print(f"{digest}  {rel}")
