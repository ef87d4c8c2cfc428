"""cardioclip benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mae_pretrain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
--trace 0 times SETUP_PROCESSES cold set-ups of the workload, each the
first work of a fresh worker process, and measures the workload's
end-to-end metrics, untraced, in the last of those processes. setup_s is
the median of the cold set-ups. --trace 1 runs one round of each training
workload in one worker process, then in a second one an untraced, a traced
and an untraced round of every workload, and reports the per-layer metrics
and the tracing overhead. The last line of stdout is the result as one
JSON object; the lines before it are the human-readable report, and
the full record goes to .perfbench_runs/<workload>-seed<n>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import layers  # noqa: E402
from stats import tail_percentile  # noqa: E402

WORKLOADS = ("mae_pretrain", "clip_align", "pipeline_cli")
DEADLINE_S = 170.0
SETUP_PROCESSES = 3
RUNS_DIR = ".perfbench_runs"
# end-to-end metrics printed in the result line, with their units
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "loss_end": "loss",
    "peak_rss_mb": "MB",
}
# end-to-end metrics of a single workload, reported but not in the result line
REPORT_ONLY = {
    "clip_align": {"text_warmup_s": "s"},
    "pipeline_cli": {"corpus_s": "s", "train_s": "s", "eval_s": "s"},
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], env: dict, deadline: float, run_dir: str, tag: str) -> dict:
    result_path = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--run-dir", run_dir, "--result", result_path]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start the {tag} worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def end_to_end(workload: str, res: dict) -> dict[str, dict]:
    """Metric name -> {value, unit, n, ...} from a timed worker result."""
    steps_ms = [s * 1000.0 for s in res["step_s"]]
    n = len(steps_ms)
    q = tail_percentile(n)
    out = {
        "setup_s": {"value": float(np.median(res["setup_s"])), "n": len(res["setup_s"])},
        "wall_s": {"value": float(np.median(res["round_wall_s"])), "n": len(res["round_wall_s"])},
        "samples_per_s": {"value": float(np.median(res["round_rate"])), "n": res["samples"]},
        "step_ms_p50": {"value": float(np.percentile(steps_ms, 50.0)), "n": n},
        "step_ms_tail": {"value": float(np.percentile(steps_ms, q)), "n": n, "percentile": q},
        "loss_end": {"value": res["loss_end"], "n": 1},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "n": 1},
    }
    for name in END_TO_END:
        out[name]["unit"] = END_TO_END[name]
    for name, unit in REPORT_ONLY.get(workload, {}).items():
        out[name] = {"value": res["phases"][name], "unit": unit, "n": res["rounds"]}
    out["error_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio",
                         "n": res["attempted"]}
    return out


def per_layer(untraced: dict, traced: dict) -> tuple[dict[str, dict], int, int]:
    """Per-layer metrics, and (attempted, failed) including the cross-run checks."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in WORKLOADS:
        b = traced["mix"][name]
        # the same round, under tracing and in another process, must agree byte for byte
        digests = [b["digest"], *b["digests"]]
        if name in untraced["mix"]:
            a = untraced["mix"][name]
            digests.append(a["digest"])
            attempted += a["attempted"]
            failed += a["failed"]
        attempted += b["attempted"] + 1
        failed += b["failed"] + (not digests[0] or len(set(digests)) != 1)
        for local, value in b["per_layer"].items():
            metric = f"{name}.{local}"
            metrics[metric] = {"value": value, "unit": layers.unit_of(metric)}
    plain = sum(traced["mix"][w]["wall_s"] for w in WORKLOADS)
    wrapped = sum(traced["mix"][w]["traced_wall_s"] for w in WORKLOADS)
    metrics[layers.OVERHEAD] = {"value": (wrapped - plain) / plain, "unit": "ratio"}
    return metrics, attempted, failed


def _print_report(title: str, env: dict, metrics: dict[str, dict]) -> None:
    print(f"# {title}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        extra = f"  n={m['n']}" if "n" in m else ""
        if "percentile" in m:
            extra += f"  p{m['percentile']:g}"
        print(f"{name:<58} {m['value']:>16.6g} {m['unit']:<8}{extra}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "cardioclip", "__init__.py")):
        print("error: run from the root of a cardioclip checkout (src/cardioclip missing)",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(nproc), "OMP_NUM_THREADS": str(nproc),
           "MKL_NUM_THREADS": str(nproc), "PYTHONDONTWRITEBYTECODE": "1"}
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--seed", str(args.seed)]
    try:
        if args.trace == 0:
            setups = []
            for i in range(SETUP_PROCESSES - 1):
                setups += _worker(["--mode", "setup", "--workload", args.workload, *common],
                                  env, deadline, run_dir, f"setup{i}")["setup_s"]
            res = _worker(["--mode", "timed", "--workload", args.workload,
                           "--seconds", str(args.seconds), *common], env, deadline, run_dir,
                          "timed")
            res["setup_s"] = setups + res["setup_s"]
            if not res["step_s"]:
                raise BenchError(f"no round of {args.workload} completed")
            metrics = end_to_end(args.workload, res)
            attempted, failed = res["attempted"], res["failed"]
            result_metrics = {k: metrics[k] for k in END_TO_END}
        else:
            res_a = _worker(["--mode", "untraced", *common], env, deadline, run_dir, "untraced")
            res = _worker(["--mode", "traced", *common], env, deadline, run_dir, "traced")
            metrics, attempted, failed = per_layer(res_a, res)
            result_metrics = metrics
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record_env = {**res["env"], "seed": args.seed, "git_sha": _git_sha(),
                  "blas_threads_requested": nproc}
    _print_report(f"{args.workload} seed={args.seed} trace={args.trace}", record_env, metrics)
    bad = [k for k, m in result_metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: no finite value for {', '.join(bad)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result_metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "report": metrics, "env": record_env}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
