#!/usr/bin/env python3
"""End-to-end experiment driver: synth -> structure-reports -> pretrain-mae ->
pretrain-clip -> eval-zeroshot -> eval-retrieval -> eval-cac -> finetune.

Runs each stage through the CLI so every output directory is self-describing.
Any extra arguments are forwarded to every stage (e.g. --config, --set).
After each stage it prints the peak_rss_mb of that stage's manifest.json, the
process's peak resident set so far, so a run shows which stage sets its peak.

    python scripts/run_pipeline.py --out runs/full
    python scripts/run_pipeline.py --out runs/quick --set synth.n_cases=48 \
        --set synth.train_cases=32 --set mae.epochs=2 --set clip.epochs=2
"""

import json
import os
import sys
import time

from cardioclip.cli import build_parser, main, out_root

STAGES = (
    "synth",
    "structure-reports",
    "pretrain-mae",
    "pretrain-clip",
    "eval-zeroshot",
    "eval-retrieval",
    "eval-cac",
    "finetune",
)

if __name__ == "__main__":
    passthrough = sys.argv[1:]
    t0 = time.time()
    root = out_root(build_parser().parse_args([STAGES[0], *passthrough]))
    for stage in STAGES:
        print(f"=== {stage} [{time.time() - t0:.0f}s] ===", flush=True)
        code = main([stage, *passthrough])
        if code != 0:
            print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
            sys.exit(code)
        with open(os.path.join(root, stage.replace("-", "_"), "manifest.json")) as fh:
            print(f"--- {stage}: peak_rss_mb {json.load(fh)['peak_rss_mb']:.1f}", flush=True)
    print(f"pipeline complete in {time.time() - t0:.0f}s")
