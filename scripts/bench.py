#!/usr/bin/env python3
"""Record perfbench results over a seed range, optionally paired against another tree.

    python scripts/bench.py --seeds 9501-9510
    python scripts/bench.py --seeds 9501-9510 --workloads mae_pretrain --against ../parent

For every workload and seed this runs `perfbench/run.py --workload W --seed S
--seconds X --trace 0` in the tree that holds this script and writes
BENCH_<date>_<shortsha>.json at its root: each run's result line, the median
and quartiles of every metric, and perfbench's environment record. The
short SHA gets a `-dirty` suffix when tracked files differ from HEAD.

With --against DIR the same runs are made in DIR (the parent, say), pair by
pair, alternating which tree runs first, and DIR's file is written next to
this tree's. For each workload and end-to-end metric the script then prints both
medians, the parent's interquartile range, the pairs this tree won and:

- claim: whether a gain may be claimed, i.e. at least 9/10 of at least ten
  pairs won, a median gap wider than the parent's IQR, and no larger share
  of failed operations than the parent's (perfbench's failed over
  attempted, averaged over runs; a run that exited with an error counts as
  all failed);
- bound: whether the median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json ("worse"), or else "unresolved" when the
  parent's IQR is wider than the bound and not every run beat every parent
  run, or else "ok".

A gain is measured only with identical benchmark code on both sides, so
--against refuses a DIR whose BENCHMARK.json or any perfbench/*.py differs
in bytes from this tree's, naming the files.

The two trees should sit at absolute paths of equal length: the path's
length alone has moved pipeline_cli's peak_rss_mb by about 7 MB, so the
script warns on stderr, naming both paths, when they differ.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_WINS = 0.9
CLAIM_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """'9501-9510' or '9501,9503' (or a mix) -> the seeds in that order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def parse_result(stdout: str) -> dict:
    """perfbench's last stdout line, {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}, as {"correct", "attempted",
    "failed", "metrics": {name: value}}."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    res = json.loads(lines[-1])
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 50.0, 75.0])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """Metric name -> median and quartiles over the runs that report it."""
    names = sorted({k for r in runs for k in r.get("metrics", {})})
    return {k: quartiles([r["metrics"][k] for r in runs if k in r.get("metrics", {})])
            for k in names}


def failed_share(runs: list[dict]) -> float:
    """The mean over runs of failed / attempted operations, a run that exited
    with an error counting as all failed."""
    return sum(1.0 if "error" in r else r["failed"] / r["attempted"]
               for r in runs) / len(runs)


def compare(base_runs: list[dict], runs: list[dict], metric: str, better: str,
            bound: float) -> dict:
    """Pair the runs of two trees by seed and judge one metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base = {r["seed"]: r["metrics"][metric] for r in base_runs if metric in r.get("metrics", {})}
    new = {r["seed"]: r["metrics"][metric] for r in runs if metric in r.get("metrics", {})}
    seeds = [s for s in base if s in new]
    if not seeds:
        return {"pairs": 0}
    b = quartiles([base[s] for s in seeds])
    c = quartiles([new[s] for s in seeds])
    wins = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    ties = sum(new[s] == base[s] for s in seeds)
    iqr = b["q3"] - b["q1"]
    gap = sign * (b["median"] - c["median"])  # > 0 when this tree is better
    rel = (c["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    if sign * rel > bound:
        verdict = "worse"
    elif iqr / abs(b["median"] or 1.0) > bound and not (
            max(sign * new[s] for s in seeds) < min(sign * base[s] for s in seeds)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    fails_more = failed_share(runs) > failed_share(base_runs)
    return {"pairs": len(seeds), "wins": int(wins), "ties": int(ties), "base_median": b["median"],
            "median": c["median"], "base_iqr": iqr, "rel": rel,
            "claim": (len(seeds) >= CLAIM_PAIRS and wins >= CLAIM_WINS * len(seeds)
                      and gap > iqr and not fails_more),
            "bound": verdict}


def git_label(tree: str) -> tuple[str, str | None, bool]:
    """(file label, full SHA, dirty) of a tree; ('nogit', None, False) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "nogit", None, False
    sha = head.stdout.strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    return sha[:7] + ("-dirty" if dirty else ""), sha, dirty


def path_length_warning(trees: list[str]) -> str | None:
    """A warning naming the trees when their absolute paths differ in length."""
    if len({len(t) for t in trees}) < 2:
        return None
    return ("warning: the trees' paths differ in length, which alone can move peak_rss_mb: "
            + ", ".join(f"{t} ({len(t)})" for t in trees))


def benchmark_files(tree: str) -> dict[str, bytes]:
    """The bytes of tree's BENCHMARK.json and perfbench/*.py, by relative path."""
    files = {}
    for name in ["BENCHMARK.json", *glob.glob(os.path.join("perfbench", "*.py"), root_dir=tree)]:
        path = os.path.join(tree, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def benchmark_differences(tree: str, other: str) -> list[str]:
    """The benchmark files that differ in bytes between two trees, or that
    only one of them holds, sorted."""
    a, b = benchmark_files(tree), benchmark_files(other)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; a run that exits non-zero is recorded as an error."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    run = {"seed": seed, **parse_result(proc.stdout)}
    path = os.path.join(tree, ".perfbench_runs", f"{workload}-seed{seed}-trace0", "result.json")
    with open(path, "r", encoding="utf-8") as fh:
        run["env"] = json.load(fh)["env"]
    return run


def bench_name(tree: str, date: str) -> str:
    return f"BENCH_{date}_{git_label(tree)[0]}.json"


def record(tree: str, workloads: dict, seconds: float, date: str, paired_with=None) -> str:
    """Write tree's BENCH file at the root of this tree; returns its name."""
    _, sha, dirty = git_label(tree)
    env = next((r["env"] for runs in workloads.values() for r in runs if "env" in r), {})
    doc = {
        "date": date, "git_sha": sha, "dirty": dirty, "seconds": seconds,
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "env": {k: v for k, v in env.items() if k not in ("seed", "git_sha")},
        "paired_with": paired_with,
        "workloads": {
            w: {"runs": [{k: v for k, v in r.items() if k != "env"} for r in runs],
                "summary": summarize(runs)}
            for w, runs in workloads.items()
        },
    }
    name = bench_name(tree, date)
    with open(os.path.join(ROOT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return name


def report(workload: str, base_runs, runs, end_to_end: list[dict]) -> list[str]:
    lines = [f"== {workload}",
             f"{'metric':<14} {'parent median':>14} {'parent IQR':>11} {'median':>12} "
             f"{'change':>8} {'wins':>7} {'ties':>4}  claim  bound"]
    for m in end_to_end:
        c = compare(base_runs, runs, m["name"], m["better"], m["bound"])
        if not c["pairs"]:
            continue
        lines.append(f"{m['name']:<14} {c['base_median']:>14.6g} {c['base_iqr']:>11.4g} "
                     f"{c['median']:>12.6g} {100 * c['rel']:>+7.1f}% "
                     f"{c['wins']:>3}/{c['pairs']:<3} {c['ties']:>4}  "
                     f"{'yes' if c['claim'] else 'no':<5}  "
                     f"{c['bound']}")
    for side, rs in (("parent", base_runs), ("change", runs)):
        failed = [r["seed"] for r in rs if "error" in r or r["failed"]]
        if failed:
            lines.append(f"{side} runs with errors or failed checks at seeds {failed}")
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="a range like 9501-9510 or a comma list")
    ap.add_argument("--workloads", default=",".join(names),
                    help=f"comma list out of {','.join(names)} (default: all)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--against", metavar="DIR", help="another checkout to pair runs with")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        ap.error(f"unknown workloads {unknown}")
    if args.against:
        if not os.path.isfile(os.path.join(args.against, "perfbench", "run.py")):
            ap.error(f"{args.against} has no perfbench/run.py")
        differ = benchmark_differences(ROOT, args.against)
        if differ:
            ap.error(f"{args.against} runs other benchmark code: {', '.join(differ)} "
                     f"differ from {ROOT}'s")

    trees = [ROOT] if not args.against else [os.path.abspath(args.against), ROOT]
    labels = {git_label(t)[0] for t in trees}
    if len(labels) < len(trees):
        ap.error(f"both trees are labelled {labels.pop()}: their BENCH files would collide")
    warning = path_length_warning(trees)
    if warning:
        print(warning, file=sys.stderr, flush=True)
    results = {t: {w: [] for w in workloads} for t in trees}
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            for tree in trees if i % 2 == 0 else trees[::-1]:
                run = run_once(tree, w, seed, args.seconds)
                results[tree][w].append(run)
                print(f"{w} seed {seed} {os.path.basename(tree)}: "
                      + (run["error"] if "error" in run else
                         " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())),
                      file=sys.stderr, flush=True)

    date = datetime.date.today().isoformat()
    for t in trees:
        other = [bench_name(o, date) for o in trees if o != t]
        written = record(t, results[t], args.seconds, date, other[0] if other else None)
        print(f"wrote {written}")
    if args.against:
        base, change = trees
        for w in workloads:
            print("\n".join(report(w, results[base][w], results[change][w],
                                   bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
