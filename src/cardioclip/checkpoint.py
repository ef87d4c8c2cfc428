"""Checkpoint persistence: a JSON tensor manifest plus a contiguous little-endian
float32 payload. Round trips are bit-exact because parameters are stored float32."""

from __future__ import annotations

import json
import math

import numpy as np


class CheckpointError(ValueError):
    """Inconsistent manifest/payload pair."""


def save_checkpoint(params, tag: str, stem, config_digest: str) -> None:
    """Write <stem>.json (the manifest: stage tag, config digest and tensor
    table) and <stem>.bin (the payload), tensor by tensor. A non-finite
    tensor raises CheckpointError partway through; the CLI writes into a
    staged directory that a failed command never swaps in, so the previous
    checkpoint pair stays as it was."""
    tensors = []
    offset = 0
    with open(f"{stem}.bin", "wb") as payload, open(f"{stem}.json", "w", encoding="utf-8") as fh:
        for name in sorted(params.keys()):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"tensor {name!r} contains non-finite values")
            tensors.append({
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f32",
                "offset": offset,
            })
            payload.write(arr.data)
            offset += arr.nbytes
        manifest = {
            "stage": tag,
            "config_digest": config_digest,
            "payload_bytes": offset,
            "tensors": tensors,
        }
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _check_manifest(manifest) -> None:
    """Refuse a manifest whose fields do not have the types save_checkpoint writes."""
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    for key, kind in (("stage", str), ("config_digest", str), ("payload_bytes", int),
                      ("tensors", list)):
        if type(manifest.get(key)) is not kind:
            raise CheckpointError(f"manifest {key!r} must be {kind.__name__}, "
                                  f"got {manifest.get(key)!r}")
    for i, entry in enumerate(manifest["tensors"]):
        if not (isinstance(entry, dict) and type(entry.get("name")) is str
                and type(entry.get("offset")) is int and type(entry.get("shape")) is list
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"manifest tensor entry {i} is malformed: {entry!r}")


def load_checkpoint(stem):
    """Read a checkpoint pair; returns (params, manifest). Validates the
    manifest's fields, sizes and offset contiguity before touching any
    tensor; every inconsistency raises CheckpointError."""
    try:
        with open(f"{stem}.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as e:  # invalid JSON or UTF-8
        raise CheckpointError(f"{stem}.json is not a JSON manifest: {e}") from e
    _check_manifest(manifest)
    with open(f"{stem}.bin", "rb") as fh:
        payload = fh.read()
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointError(
            f"payload is {len(payload)} bytes but manifest declares {manifest['payload_bytes']}"
        )
    params = {}
    expected_offset = 0
    for entry in manifest["tensors"]:
        name = entry["name"]
        if entry.get("dtype") != "f32":
            raise CheckpointError(f"unsupported dtype {entry.get('dtype')!r} for {name!r}")
        if name in params:
            raise CheckpointError(f"tensor {name!r} appears twice")
        if entry["offset"] != expected_offset:
            raise CheckpointError(
                f"tensor {name!r} offset {entry['offset']} is not contiguous "
                f"(expected {expected_offset})"
            )
        nbytes = 4 * math.prod(entry["shape"])
        raw = payload[expected_offset : expected_offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(f"payload truncated inside tensor {name!r}")
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).copy()
        expected_offset += nbytes
    if expected_offset != manifest["payload_bytes"]:
        raise CheckpointError("manifest tensors do not cover the declared payload")
    return params, manifest
