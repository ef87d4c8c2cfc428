import json
import os

import numpy as np
import pytest

import layers
import run
from tracer import Span, Tracer, aggregate, self_times

from cardioclip import cli, encoders, mae, nn, optim, volume

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),    # overlaps a: [1, 6] is covered once
        Span(3, 1, "c", 2.0, 3.0),
        Span(4, 0, "d", 9.0, 12.0),   # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0,
                                               3: 1.0, 4: 3.0})
    agg = aggregate(spans + [Span(5, None, "c", 20.0, 20.5)])
    assert agg["c"] == (2, pytest.approx(1.5))


def test_spans_nest_through_rebound_module_globals():
    probes = layers.LayerProbes()
    tracer = Tracer("test-run")
    tracer.install(probes.targets(), layers.PACKAGE)
    try:
        rng = np.random.default_rng(0)
        params = {}
        nn.init_block(rng, params, "blk", 8, 16)
        nn.block_fwd(params, "blk", rng.normal(size=(2, 3, 8)).astype(np.float32), heads=2)
    finally:
        tracer.restore()
    by_id = {s.id: s for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    assert names.count("nn.linear_fwd") == 3  # attention output projection, fc1, fc2
    (block,) = [s for s in tracer.spans if s.name == "nn.block_fwd"]
    assert block.parent is None
    parents = [by_id[s.parent].name for s in tracer.spans if s.name == "nn.linear_fwd"]
    assert sorted(parents) == ["nn.attention_fwd", "nn.block_fwd", "nn.block_fwd"]
    # linear: 2 * rows * din * dout, rows = 2 * 3
    assert probes.counts["linear_flop"] == 2 * 6 * (8 * 8 + 8 * 16 + 16 * 8)


def test_install_rebinds_every_namespace_and_restore_puts_originals_back():
    originals = {
        (encoders, "patch_tokens_fwd"): encoders.patch_tokens_fwd,
        (mae, "patch_tokens_fwd"): mae.patch_tokens_fwd,
        (volume, "load_volume"): volume.load_volume,
        (cli, "load_volume"): cli.load_volume,
        (nn, "linear_fwd"): nn.linear_fwd,
        (optim.AdamW, "step"): optim.AdamW.__dict__["step"],
    }
    assert mae.patch_tokens_fwd is encoders.patch_tokens_fwd
    tracer = Tracer("test-run")
    tracer.install(layers.LayerProbes().targets(), layers.PACKAGE)
    try:
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr} not wrapped"
        assert mae.patch_tokens_fwd is encoders.patch_tokens_fwd
    finally:
        tracer.restore()
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer("test-run")

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            wrapped()
    assert [(s.name, s.parent) for s in tracer.spans] == [("boom", 0), ("outer", None)]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == layers.per_layer_names()
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
