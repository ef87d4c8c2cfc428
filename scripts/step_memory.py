#!/usr/bin/env python3
"""Traced memory of one training step per stage, and where it peaks.

For one stage-1 (reconstruction) step, one stage-2 (contrastive) step and
one unfrozen fine-tune step, each at its configured batch size, this prints
the tracemalloc peak above the step's entry and the cardioclip functions
that were running when the peak was reached, the innermost last.

    python scripts/step_memory.py
    python scripts/step_memory.py --set geometry.dims=[32,32,32] --set mae.batch=4

A step is one call of a training loop's local batch_step: the batch's
patches, forward and backward; the optimizer update runs after it returns.
Each loop runs one epoch of one batch, on the first cases of a synthetic
corpus of the config's geometry (only as many cases as the largest batch).
The profile hook that locates the peak makes a step several times slower.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tracemalloc

from cardioclip.clip import contrastive_pairs, train_clip
from cardioclip.config import load_config, stage_configs
from cardioclip.encoders import init_visual_params
from cardioclip.mae import init_decoder_params, train_mae
from cardioclip.reports import load_catalog
from cardioclip.seeding import substream
from cardioclip.synth import generate_full_corpus
from cardioclip.tasks import finetune_classifier

PACKAGE = "cardioclip"
MIB = 2**20


def _where(frame) -> str:
    """The cardioclip functions active at frame, from the training step in
    to the innermost, as "module.function" joined by " > "."""
    names = []
    while frame is not None and frame.f_code.co_name != "batch_step":
        module = frame.f_globals.get("__name__", "")
        if module.startswith(f"{PACKAGE}."):
            names.append(f"{module[len(PACKAGE) + 1:]}.{frame.f_code.co_qualname}")
        frame = frame.f_back
    return " > ".join(reversed(names)) or "batch_step"


def _is_step(frame) -> bool:
    return (frame.f_code.co_name == "batch_step"
            and frame.f_globals.get("__name__", "").startswith(PACKAGE))


class StepPeak:
    """A sys.setprofile hook measuring every batch_step call: the traced
    memory peak above the call's entry, and the cardioclip functions running
    in the interval (between two profile events) in which that peak was
    reached. A rise of less than SLACK bytes over the last located peak does
    not move the location: the hook's own objects make such rises at every
    event while memory sits at its peak. It keeps names, not frames, so it
    holds no array alive."""

    SLACK = 64 * 1024

    def __init__(self):
        self.entry = None
        self.located = 0
        self.where = ""
        self.steps: list[tuple[float, str]] = []

    def __call__(self, frame, event, arg):
        if event == "call" and _is_step(frame):
            tracemalloc.reset_peak()
            self.entry = self.located = tracemalloc.get_traced_memory()[0]
            self.where = "batch_step"
            return
        if self.entry is None:
            return
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.located + self.SLACK:
            # a call event ends an interval that ran in the caller
            self.located, self.where = peak, _where(frame.f_back if event == "call" else frame)
        if event == "return" and _is_step(frame):
            self.steps.append(((peak - self.entry) / MIB, self.where))
            self.entry = None


def traced_steps(run) -> list[tuple[float, str]]:
    """(MiB above entry, functions) of every batch_step that run() makes."""
    hook = StepPeak()
    tracemalloc.start()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return hook.steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                        help="config override, as for the cardioclip CLI")
    args = parser.parse_args(argv)
    cfg = load_config(None, args.set)
    stages = stage_configs(cfg)
    vis, dec, mae_cfg, clip_cfg, ft_cfg = (stages[k] for k in
                                           ("visual", "decoder", "mae", "clip", "finetune"))
    n = max(mae_cfg.batch, clip_cfg.batch, ft_cfg.batch)
    cases = generate_full_corpus(dataclasses.replace(stages["synth"], n_cases=n))
    volumes = [c.volume for c in cases]
    seed = cfg["seed"]
    rng = substream(seed, "init")
    params = init_visual_params(rng, vis, cfg["proj_dim"])
    init_decoder_params(rng, vis, dec, params)
    pairs, vocab = contrastive_pairs(cases, load_catalog())
    txt = stage_configs(cfg, len(vocab))["text"]

    runs = {
        "stage-1 step": (mae_cfg.batch, lambda: train_mae(
            volumes[:mae_cfg.batch], vis, dec, dataclasses.replace(mae_cfg, epochs=1), seed,
            params=params)),
        "stage-2 step": (clip_cfg.batch, lambda: train_clip(
            pairs[:clip_cfg.batch], params, vis, txt, vocab,
            dataclasses.replace(clip_cfg, epochs=1, text_warmup_steps=0), seed)),
        "fine-tune step": (ft_cfg.batch, lambda: finetune_classifier(
            [(v, i % 2) for i, v in enumerate(volumes[:ft_cfg.batch])], params, 2,
            dataclasses.replace(ft_cfg, epochs=1, freeze_encoder=False), vis, seed)),
    }
    for label, (batch, run) in runs.items():
        for mib, where in traced_steps(run):
            print(f"{label:<15} batch {batch:>3}  peak {mib:7.1f} MiB above entry  in {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
