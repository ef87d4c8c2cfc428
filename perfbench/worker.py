"""One measuring process of the benchmark; run.py starts it and reads its result file.

    python3 perfbench/worker.py --mode timed --workload mae_pretrain --seed 1 \
        --seconds 20 --run-dir .perfbench_runs/x --result .perfbench_runs/x/result.json

--mode setup times one set-up of one workload and exits; being the first
work of a fresh process, it pays the cold first-call costs.
--mode timed runs one workload: one such cold set-up, then as many rounds
as --seconds asks for at the workload's nominal round time, untraced.
--mode untraced runs one set-up and one round of each training workload.
--mode traced runs one set-up and one round of every workload, follows it
with a round that has the package's functions wrapped, derives the
per-layer metrics from its spans, and ends with one more untraced round.

The caller sets the BLAS thread count in the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIX_ORDER = ("mae_pretrain", "clip_align", "pipeline_cli")
# the untraced process only has to reproduce the training workloads' final
# parameters; pipeline_cli's metrics.json files are compared across its rounds
UNTRACED_MIX = ("mae_pretrain", "clip_align")


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it can be queried."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_round(workload, st, record: dict, tracer=None, probes=None):
    """One round; an exception counts all its operations as failed."""
    try:
        res = workload.round(st, tracer=tracer, probes=probes)
    except Exception:  # noqa: BLE001 - a failed round is a measured outcome
        traceback.print_exc(file=sys.stderr)
        record["attempted"] += workload.ops_per_round
        record["failed"] += workload.ops_per_round
        return None
    record["attempted"] += res.attempted
    record["failed"] += res.failed
    return res


def _timed_setup(workload, seed: int, run_dir: str):
    t = time.perf_counter()
    st = workload.setup(seed, run_dir)
    return st, time.perf_counter() - t


def run_setup(name: str, seed: int, run_dir: str) -> dict:
    workload = WORKLOADS[name]()
    st, setup_s = _timed_setup(workload, seed, run_dir)
    workload.teardown(st)
    return {"setup_s": [setup_s]}


def run_timed(name: str, seed: int, seconds: float, run_dir: str) -> dict:
    workload = WORKLOADS[name]()
    st, setup_s = _timed_setup(workload, seed, run_dir)
    n_rounds = max(1, math.ceil(seconds / workload.nominal_round_s))
    record = {"attempted": 0, "failed": 0}
    rounds = [_run_round(workload, st, record) for _ in range(n_rounds)]
    workload.teardown(st)
    done = [r for r in rounds if r is not None]
    # every round repeats the same work from the same start: outputs must match
    for r in done[1:]:
        record["attempted"] += 1
        record["failed"] += r.digest != done[0].digest
    return {
        **record,
        "setup_s": [setup_s],
        "rounds": n_rounds,
        "round_wall_s": [r.wall_s for r in done],
        "round_rate": [r.samples / r.busy_s for r in done],
        "samples": sum(r.samples for r in done),
        "step_s": [s for r in done for s in r.step_s],
        "loss_end": done[-1].loss_end if done else math.nan,
        "phases": {k: float(np.median([r.phases[k] for r in done]))
                   for k in (done[0].phases if done else {})},
        "digest": done[0].digest if done else "",
    }


def run_mix(seed: int, traced: bool, run_dir: str, names) -> dict:
    """One set-up and one untraced round per workload. Traced mode follows
    that first round with a traced one and then an untraced one, so the
    overhead compares two adjacent, equally warm rounds."""
    out = {}
    for name in names:
        workload = WORKLOADS[name]()
        st = workload.setup(seed, run_dir)
        record = {"attempted": 0, "failed": 0}
        res = _run_round(workload, st, record)
        entry = {"digest": res.digest if res else ""}
        if traced:
            tracer = Tracer(f"{name}-seed{seed}-{uuid.uuid4().hex[:12]}")
            probes = layers.LayerProbes()
            tracer.install(probes.targets(), layers.PACKAGE)
            try:
                with tracer.span(f"workload.{name}"):
                    traced_res = _run_round(workload, st, record, tracer, probes)
            finally:
                tracer.restore()
            tracer.write(os.path.join(run_dir, f"spans-{name}.jsonl"))
            res = _run_round(workload, st, record)
            entry.update({
                "traced_wall_s": traced_res.wall_s if traced_res else math.nan,
                "digests": [r.digest if r else "" for r in (traced_res, res)],
                "per_layer": probes.metrics(tracer.spans, name),
                "run_id": tracer.run_id,
                "n_spans": len(tracer.spans),
            })
        entry["wall_s"] = res.wall_s if res else math.nan
        workload.teardown(st)
        out[name] = {**record, **entry}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed, args.run_dir)
    elif args.mode == "timed":
        result = run_timed(args.workload, args.seed, args.seconds, args.run_dir)
    else:
        traced = args.mode == "traced"
        result = {"mix": run_mix(args.seed, traced, args.run_dir,
                                 MIX_ORDER if traced else UNTRACED_MIX)}
    result["env"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
