"""scripts/bench.py's summary and claim rule, on hand-written perfbench
result lines (no benchmark runs)."""

import argparse
import datetime
import glob
import importlib.util
import json
import os
import shutil

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench.py")
spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def line(peak, wall, failed=0):
    """A perfbench result line, preceded by report lines as run.py prints them."""
    res = {"correct": failed == 0, "attempted": 70, "failed": failed,
           "metrics": {"peak_rss_mb": {"value": peak, "unit": "MB"},
                       "wall_s": {"value": wall, "unit": "s"}}}
    return "# mae_pretrain seed=1 trace=0\npeak_rss_mb  227.4 MB\n" + json.dumps(res) + "\n"


def runs(values, start=9501):
    return [{"seed": start + i, **bench.parse_result(line(p, w))}
            for i, (p, w) in enumerate(values)]


def test_parse_result_takes_the_last_line():
    r = bench.parse_result(line(164.5, 1.4, failed=2))
    assert r == {"correct": False, "attempted": 70, "failed": 2,
                 "metrics": {"peak_rss_mb": 164.5, "wall_s": 1.4}}
    with pytest.raises(ValueError, match="printed nothing"):
        bench.parse_result("\n")


def test_parse_seeds():
    assert bench.parse_seeds("9501-9503") == [9501, 9502, 9503]
    assert bench.parse_seeds("7,9-10") == [7, 9, 10]


def test_a_repeated_seed_is_refused_naming_it(capsys):
    # compare() would pair one of its runs while summarize() medians both
    with pytest.raises(argparse.ArgumentTypeError, match="seed 9502 is named twice"):
        bench.parse_seeds("9501-9503,9502")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--seeds", "9501-9503,9502"])
    assert exc.value.code == 2
    assert "seed 9502 is named twice" in capsys.readouterr().err


def test_summarize_medians_and_quartiles():
    s = bench.summarize(runs([(200, 1.0), (210, 2.0), (220, 3.0), (230, 4.0), (240, 5.0)]))
    assert s["peak_rss_mb"] == {"median": 220.0, "q1": 210.0, "q3": 230.0, "n": 5}
    assert s["wall_s"]["median"] == 3.0


PARENT = [(227.0 + i % 3, 1.40 + 0.01 * i) for i in range(10)]  # RSS IQR 1.75 MB


def test_claim_holds_with_nine_of_ten_wins_and_a_gap_wider_than_the_iqr():
    change = [(165.0, 1.40 + 0.01 * i) for i in range(9)] + [(240.0, 1.49)]
    c = bench.compare(runs(PARENT), runs(change), "peak_rss_mb", "lower", 0.15)
    assert (c["pairs"], c["wins"], c["ties"], c["claim"], c["bound"]) == (10, 9, 0, True, "ok")
    assert c["base_median"] == 228.0 and c["base_iqr"] == 1.75 and c["median"] == 165.0
    assert c["rel"] == pytest.approx(165.0 / 228.0 - 1.0)
    # wall_s is tied in every pair: no wins, no claim, within the bound
    w = bench.compare(runs(PARENT), runs(change), "wall_s", "lower", 0.25)
    assert (w["wins"], w["ties"], w["claim"], w["bound"]) == (0, 10, False, "ok")


def test_no_claim_with_eight_wins_fewer_than_ten_pairs_or_a_gap_inside_the_iqr():
    eight = [(165.0, 1.4)] * 8 + [(240.0, 1.4)] * 2
    assert not bench.compare(runs(PARENT), runs(eight), "peak_rss_mb", "lower", 0.15)["claim"]
    nine = runs([(165.0, 1.4)] * 9)
    assert not bench.compare(runs(PARENT)[:9], nine, "peak_rss_mb", "lower", 0.15)["claim"]
    close = [(p - 1.0, w) for p, w in PARENT]  # wins every pair by 1 MB < IQR 1.75 MB
    c = bench.compare(runs(PARENT), runs(close), "peak_rss_mb", "lower", 0.15)
    assert c["wins"] == 10 and not c["claim"]


def test_higher_is_better_metrics_flip_the_sign():
    c = bench.compare(runs([(10.0, 1.0)] * 10), runs([(12.0, 1.0)] * 10), "peak_rss_mb",
                      "higher", 0.15)
    assert c["wins"] == 10 and c["claim"] and c["bound"] == "ok"


def test_bound_verdicts():
    worse = [(p * 1.2, w) for p, w in PARENT]
    assert bench.compare(runs(PARENT), runs(worse), "peak_rss_mb", "lower",
                         0.15)["bound"] == "worse"
    noisy = [(100.0 + 40.0 * (i % 2), 1.0) for i in range(10)]  # IQR 40 % of the median
    same = bench.compare(runs(noisy), runs(noisy), "peak_rss_mb", "lower", 0.15)
    assert same["bound"] == "unresolved"
    better = bench.compare(runs(noisy), runs([(90.0, 1.0)] * 10), "peak_rss_mb", "lower", 0.15)
    assert better["bound"] == "ok"  # every run beats every parent run


def test_no_claim_when_the_change_fails_a_larger_share_of_operations():
    change = [(165.0, 1.4)] * 10
    assert bench.compare(runs(PARENT), runs(change), "peak_rss_mb", "lower", 0.15)["claim"]
    failing = runs(change)
    failing[0]["failed"] = 1  # 1 of 70 operations in one run of ten
    c = bench.compare(runs(PARENT), failing, "peak_rss_mb", "lower", 0.15)
    assert c["wins"] == 10 and not c["claim"]
    # an errored run counts as all failed; equal shares on both sides still claim
    errored = runs(change) + [{"seed": 9999, "error": "exit 1: boom"}]
    assert bench.failed_share(errored) == 1 / 11
    assert not bench.compare(runs(PARENT), errored, "peak_rss_mb", "lower", 0.15)["claim"]
    base = runs(PARENT) + [{"seed": 9999, "error": "exit 1: boom"}]
    assert bench.compare(base, errored, "peak_rss_mb", "lower", 0.15)["claim"]
    out = bench.report("mae_pretrain", runs(PARENT), failing, [
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}])
    assert "  no " in out[2] and out[-1].endswith("at seeds [9501]")


def test_report_names_failed_runs_and_skips_absent_metrics():
    base = runs(PARENT)
    change = runs(PARENT)
    change[3]["failed"] = 1
    change.append({"seed": 9999, "error": "exit 1: boom"})
    out = bench.report("mae_pretrain", base, change, [
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
        {"name": "loss_end", "better": "lower", "bound": 0.2}])
    assert out[0] == "== mae_pretrain"
    assert len([ln for ln in out if ln.startswith("peak_rss_mb")]) == 1
    assert not any(ln.startswith("loss_end") for ln in out)
    assert out[-1] == "change runs with errors or failed checks at seeds [9504, 9999]"


def bench_tree(path):
    """A copy of this tree's benchmark code (BENCHMARK.json, perfbench/*.py) at path."""
    (path / "perfbench").mkdir(parents=True)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), path)
    for src in glob.glob(os.path.join(bench.ROOT, "perfbench", "*.py")):
        shutil.copy(src, path / "perfbench")
    return path


def test_against_refuses_other_benchmark_code(tmp_path, monkeypatch, capsys):
    here, there = bench_tree(tmp_path / "here"), bench_tree(tmp_path / "there")
    assert bench.benchmark_differences(str(here), str(there)) == []
    monkeypatch.setattr(bench, "ROOT", str(here))
    monkeypatch.setattr(bench, "run_once", lambda *a: pytest.fail("a benchmark ran"))
    with open(there / "perfbench" / "workloads.py", "ab") as fh:
        fh.write(b"# one more byte\n")
    (there / "perfbench" / "extra.py").write_text("")
    (there / "BENCHMARK.json").write_text("{}")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--seeds", "1", "--workloads", "mae_pretrain", "--against", str(there)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("runs other benchmark code: BENCHMARK.json, perfbench/extra.py, "
            "perfbench/workloads.py differ") in err


def test_unequal_path_lengths_are_warned_about_naming_both(tmp_path, monkeypatch, capsys):
    assert bench.path_length_warning(["/a/repo", "/b/base"]) is None
    other = tmp_path / "parent"
    if len(str(other)) == len(bench.ROOT):
        other = tmp_path / "parent2"
    bench_tree(other)
    # no benchmark runs and no BENCH files: every run fails and nothing is written,
    # under labels that no BENCH file at the root holds
    monkeypatch.setattr(bench, "git_label", lambda tree: (os.path.basename(tree), None, False))
    monkeypatch.setattr(bench, "run_once", lambda tree, w, seed, s: {"seed": seed, "error": "x"})
    monkeypatch.setattr(bench, "record", lambda tree, *a, **k: os.path.basename(tree))
    assert bench.main(["--seeds", "1", "--workloads", "mae_pretrain",
                       "--against", str(other)]) == 0
    first = capsys.readouterr().err.splitlines()[0]
    assert first == bench.path_length_warning([str(other), bench.ROOT])
    assert "paths differ in length" in first and str(other) in first and bench.ROOT in first


@pytest.mark.parametrize("side", ["here", "there"])
def test_a_bench_file_either_tree_would_write_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys, side):
    here, there = bench_tree(tmp_path / "here"), bench_tree(tmp_path / "there")
    monkeypatch.setattr(bench, "ROOT", str(here))
    monkeypatch.setattr(bench, "git_label", lambda tree: (os.path.basename(tree), None, False))
    monkeypatch.setattr(bench, "run_once", lambda *a: pytest.fail("a benchmark ran"))
    name = f"BENCH_{datetime.date.today().isoformat()}_{side}.json"
    (here / name).write_text("an earlier run's record")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--seeds", "1", "--workloads", "mae_pretrain", "--against", str(there)])
    assert exc.value.code == 2
    assert f"would overwrite {name} in {here}" in capsys.readouterr().err
    assert (here / name).read_text() == "an earlier run's record"
