import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cardioclip import checkpoint, cli
from cardioclip.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def params_fixture():
    rng = np.random.default_rng(0)
    return {
        "vis.patch.w": rng.normal(0, 0.1, (8, 4)).astype(np.float32),
        "vis.cls": rng.normal(0, 0.1, 4).astype(np.float32),
        "txt.tok": rng.normal(0, 0.1, (11, 4)).astype(np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    params = params_fixture()
    stem = tmp_path / "ckpt"
    save_checkpoint(params, "mae", stem, config_digest="abc123")
    back, manifest = load_checkpoint(stem)
    assert manifest["stage"] == "mae"
    assert manifest["config_digest"] == "abc123"
    assert set(back) == set(params)
    for k in params:
        assert back[k].dtype == np.float32
        assert np.array_equal(back[k], params[k])


def test_save_twice_identical_bytes(tmp_path):
    params = params_fixture()
    save_checkpoint(params, "mae", tmp_path / "a", "abc123")
    save_checkpoint(params, "mae", tmp_path / "b", "abc123")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_tampered_payload_length_rejected(tmp_path):
    params = params_fixture()
    stem = tmp_path / "ckpt"
    save_checkpoint(params, "mae", stem, "abc123")
    payload = (tmp_path / "ckpt.bin").read_bytes()
    (tmp_path / "ckpt.bin").write_bytes(payload[:-8])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(stem)


def test_non_contiguous_offsets_rejected(tmp_path):
    params = params_fixture()
    stem = tmp_path / "ckpt"
    save_checkpoint(params, "mae", stem, "abc123")
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    manifest["tensors"][1]["offset"] += 4
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="contiguous"):
        load_checkpoint(stem)


def test_non_finite_tensor_rejected_on_save(tmp_path):
    params = params_fixture()
    params["vis.cls"][0] = np.inf
    with pytest.raises(CheckpointError, match="finite"):
        save_checkpoint(params, "mae", tmp_path / "ckpt", "abc123")


# the smallest CLI run that trains a checkpoint: pretrain-mae on 8 cases of 32^3
CLI_CONFIG = {
    "geometry": {"dims": [32, 32, 32]},
    "synth": {"n_cases": 8, "train_cases": 4},
    "visual": {"embed_dim": 16, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
    "decoder": {"embed_dim": 16, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
    "proj_dim": 16,
    "mae": {"epochs": 1, "batch": 4},
}


@pytest.mark.parametrize("failure", ["payload", "manifest"])
def test_save_failing_partway_leaves_the_previous_pair_and_no_temp_file(tmp_path, monkeypatch,
                                                                        capsys, failure):
    # the checkpoint pair is replaced together with the rest of the command's
    # directory, or not at all
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    root = tmp_path / "runs"

    def run(command, *extra):
        return cli.main([command, "--config", str(cfg), "--out", str(root), *extra])

    assert run("synth") == 0
    assert run("pretrain-mae", "--set", "seed=1") == 0
    out = root / "pretrain_mae"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    old_digest = load_checkpoint(out / "checkpoint")[1]["config_digest"]
    if failure == "payload":
        train = cli.train_mae

        def train_to_non_finite(*args, **kwargs):
            params, trace = train(*args, **kwargs)
            # tensors are written in name order, so the middle one fails halfway
            params[sorted(params)[len(params) // 2]].flat[0] = np.nan
            return params, trace

        monkeypatch.setattr(cli, "train_mae", train_to_non_finite)
        match = "contains non-finite"
    else:
        dump = json.dump

        def dump_then_fail(doc, fh, **kwargs):
            if not fh.name.endswith("checkpoint.json"):
                return dump(doc, fh, **kwargs)
            fh.write('{"stage": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(checkpoint.json, "dump", dump_then_fail)
        match = "no space left"
    assert run("pretrain-mae") == 1
    assert match in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(os.listdir(root)) == ["pretrain_mae", "synth"]
    assert load_checkpoint(out / "checkpoint")[1]["config_digest"] == old_digest


def test_manifest_is_sorted_and_self_describing(tmp_path):
    params = params_fixture()
    stem = tmp_path / "ckpt"
    save_checkpoint(params, "clip", stem, "abc123")
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    names = [t["name"] for t in manifest["tensors"]]
    assert names == sorted(names)
    total = sum(4 * int(np.prod(t["shape"])) for t in manifest["tensors"])
    assert manifest["payload_bytes"] == total


def _corrupt(tmp_path, edit):
    """A saved checkpoint whose manifest is replaced by edit(manifest)."""
    stem = tmp_path / "ckpt"
    save_checkpoint(params_fixture(), "mae", stem, "abc123")
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    (tmp_path / "ckpt.json").write_text(json.dumps(edit(manifest)))
    return stem


def _set_shape(shape):
    def edit(m):
        m["tensors"][0]["shape"] = shape
        return m
    return edit


def _drop(*path):
    def edit(m):
        node = m
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return m
    return edit


@pytest.mark.parametrize("edit", [
    _drop("payload_bytes"), _drop("tensors"), _drop("stage"), _drop("tensors", 0, "name"),
    _drop("tensors", 0, "offset"), _drop("tensors", 0, "shape"), lambda m: [m],
    lambda m: {**m, "tensors": [None]}, _set_shape([2.5, 2]), _set_shape("x"),
    _set_shape([-2, -3]), _set_shape([True, 4]),
], ids=["no-payload-bytes", "no-tensors", "no-stage", "no-name", "no-offset", "no-shape",
        "list-manifest", "null-entry", "float-shape", "string-shape", "negative-shape",
        "bool-shape"])
def test_malformed_manifest_raises_checkpoint_error(tmp_path, edit):
    with pytest.raises(CheckpointError):
        load_checkpoint(_corrupt(tmp_path, edit))


def test_duplicate_tensor_name_rejected(tmp_path):
    def edit(m):
        m["tensors"][1]["name"] = m["tensors"][0]["name"]
        return m
    with pytest.raises(CheckpointError, match="twice"):
        load_checkpoint(_corrupt(tmp_path, edit))


def test_invalid_json_rejected(tmp_path):
    stem = tmp_path / "ckpt"
    save_checkpoint(params_fixture(), "mae", stem, "abc123")
    (tmp_path / "ckpt.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(stem)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
FIELDS = st.sampled_from([(), ("stage",), ("config_digest",), ("payload_bytes",), ("tensors",),
                          ("tensors", 0), ("tensors", 1, "name"), ("tensors", 1, "dtype"),
                          ("tensors", 1, "offset"), ("tensors", 2, "shape"),
                          ("tensors", 2, "shape", 0)])


@given(field=FIELDS, value=JSON_VALUES, delete=st.booleans())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_corrupted_manifest_loads_or_raises_checkpoint_error(tmp_path, field, value, delete):
    """Replacing or deleting any one manifest field either leaves a checkpoint
    that loads or raises CheckpointError, never another exception."""
    def edit(m):
        if not field:
            return value
        node = m
        for key in field[:-1]:
            node = node[key]
        if delete:
            del node[field[-1]]
        else:
            node[field[-1]] = value
        return m

    stem = _corrupt(tmp_path, edit)
    try:
        params, _ = load_checkpoint(stem)
    except CheckpointError:
        return
    assert all(v.dtype == np.float32 for v in params.values())
