"""3D volume container, CCV1 file I/O, and patch extraction.

All functions here are pure. A Volume3D's voxels are read-only: the
constructor keeps a C-contiguous float32 array as is and marks it read-only,
and copies any other input. A VolumeFile stands in for a Volume3D wherever
only dims and voxels are read, reading its CCV1 file on each access.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

CCV1_MAGIC = b"CCV1"
_HEADER = struct.Struct("<4s3I3f")  # magic, dims (d,h,w), spacing mm


class VolumeFormatError(ValueError):
    """Malformed CCV1 file (bad magic, bad header field, size mismatch)."""


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar field with voxel spacing.

    voxels is float32, shape (depth, height, width), z-major (axis order
    z, y, x), all values finite.
    """

    voxels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        vox = np.asarray(self.voxels, dtype=np.float32)
        if vox.ndim != 3 or min(vox.shape) < 1:
            raise ValueError(f"voxels must be 3-D with all dims >= 1, got shape {vox.shape}")
        if not np.all(np.isfinite(vox)):
            raise ValueError("voxels contain non-finite values")
        if len(self.spacing) != 3 or not _spacing_ok(self.spacing):
            raise ValueError(f"spacing must be 3 finite positive lengths, got {self.spacing}")
        vox = np.ascontiguousarray(vox)
        vox.flags.writeable = False
        object.__setattr__(self, "voxels", vox)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape


def _spacing_ok(spacing) -> bool:
    """Every length finite and positive: the rule a CCV1 header's spacing
    must meet, applied to a Volume3D's spacing too."""
    return all(np.isfinite(s) and s > 0 for s in spacing)


def _read_header(fh, path):
    """((d, h, w), spacing) from the CCV1 header at the start of the open file
    fh. Raises VolumeFormatError on a short header, a bad magic, or a
    non-positive dims or spacing field."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise VolumeFormatError(f"{path}: truncated header ({len(head)} bytes)")
    magic, d, h, w, sz, sy, sx = _HEADER.unpack(head)
    if magic != CCV1_MAGIC:
        raise VolumeFormatError(f"{path}: bad magic {magic!r}, expected {CCV1_MAGIC!r}")
    if min(d, h, w) < 1:
        raise VolumeFormatError(f"{path}: non-positive dims field ({d}, {h}, {w})")
    if not _spacing_ok((sz, sy, sx)):
        raise VolumeFormatError(f"{path}: invalid spacing field ({sz}, {sy}, {sx})")
    return (d, h, w), (sz, sy, sx)


def _check_payload_size(path, dims, n_bytes: int) -> None:
    d, h, w = dims
    n = d * h * w
    if n_bytes != 4 * n:
        raise VolumeFormatError(
            f"{path}: payload size mismatch, header implies {4 * n} bytes "
            f"but file carries {n_bytes}"
        )


def load_volume(path) -> Volume3D:
    """Read a CCV1 file. Raises VolumeFormatError on any malformed content."""
    with open(path, "rb") as fh:
        dims, spacing = _read_header(fh, path)
        payload = fh.read()
    _check_payload_size(path, dims, len(payload))
    vox = np.frombuffer(payload, dtype="<f4").reshape(dims)
    try:  # the header is checked, so only Volume3D's finiteness check can fail
        return Volume3D(voxels=vox, spacing=spacing)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: payload {exc}") from exc


@dataclass(frozen=True)
class VolumeFile:
    """A CCV1 file standing in for the Volume3D it holds, read on demand.

    It keeps only its path. dims reads and checks the header, and checks the
    payload size against the file size, so a truncated or misshaped file is
    refused before any voxel is read. voxels is load_volume(path).voxels,
    read again (and checked for finiteness again) on every access; nothing
    is cached, so a list of these costs no memory until a batch reads it.
    """

    path: str

    @property
    def dims(self) -> tuple[int, int, int]:
        with open(self.path, "rb") as fh:
            dims, _ = _read_header(fh, self.path)
            n_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        _check_payload_size(self.path, dims, n_bytes)
        return dims

    @property
    def voxels(self) -> np.ndarray:
        return load_volume(self.path).voxels


def save_volume(v: Volume3D, path) -> None:
    """Write the bit-exact CCV1 encoding of v (deterministic)."""
    d, h, w = v.dims
    head = _HEADER.pack(CCV1_MAGIC, d, h, w, *v.spacing)
    payload = np.ascontiguousarray(v.voxels, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)


def patches_of(voxels: np.ndarray, patch_size: tuple[int, int, int],
               out: np.ndarray | None = None) -> np.ndarray:
    """Split a raw (..., D, H, W) array into non-overlapping patches; leading
    (batch) axes are kept.

    Returns (..., N, patch_volume). With grid (gz, gy, gx) = (D/pz, H/py,
    W/px), patch i covers grid cell (i // (gy*gx), (i // gx) % gy, i % gx)
    and is that cell's voxels flattened z-major, so voxel (z, y, x) sits in
    patch (z//pz*gy + y//py)*gx + x//px at offset (z%pz*py + y%py)*px + x%px.
    With out, a C-contiguous array of that shape, the patches are cast into
    out in one pass and out is returned.
    """
    *lead, D, H, W = voxels.shape
    pz, py, px = patch_size
    if min(patch_size) < 1 or D % pz or H % py or W % px:
        raise ValueError(f"dims {(D, H, W)} not divisible by patch size {patch_size} "
                         "(entries >= 1)")
    gz, gy, gx = D // pz, H // py, W // px
    blocks = voxels.reshape(*lead, gz, pz, gy, py, gx, px)
    nl = len(lead)
    perm = tuple(range(nl)) + (nl, nl + 2, nl + 4, nl + 1, nl + 3, nl + 5)
    shape = (*lead, gz * gy * gx, pz * py * px)
    if out is None:
        return blocks.transpose(perm).reshape(shape)
    if out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    # a reshape of out is a view, so the transposed blocks are written in place
    out.reshape(*lead, gz, gy, gx, pz, py, px)[...] = blocks.transpose(perm)
    return out


def batch_patches(volumes, patch_size: tuple[int, int, int], dtype) -> np.ndarray:
    """(B, N, patch_volume) patches of B equal-sized volumes in dtype, one copy each.

    The volumes are Volume3D or VolumeFile: the shape comes from the first
    one's dims, and each volume's voxels are read once, so a batch of
    VolumeFiles reads each file once and holds one volume's voxels at a time.
    Equal to np.stack([patches_of(v.voxels, patch_size) for v in volumes]).astype(dtype).
    """
    if len(volumes) == 0:
        raise ValueError("need at least one volume")
    D, H, W = volumes[0].dims
    pz, py, px = patch_size
    out = np.empty((len(volumes), (D // pz) * (H // py) * (W // px), pz * py * px), dtype=dtype)
    for v, row in zip(volumes, out):
        patches_of(v.voxels, patch_size, out=row)
    return out
