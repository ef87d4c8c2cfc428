"""3D volume container, CCV1 file I/O, intensity windowing, cropping, patchify.

All functions here are pure; a Volume3D never aliases caller-owned storage
after construction (the constructor copies unless told otherwise).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be 3 positive lengths, got {self.spacing}")
        vox = np.ascontiguousarray(vox)
        vox.flags.writeable = False
        object.__setattr__(self, "voxels", vox)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    @property
    def n_voxels(self) -> int:
        return int(self.voxels.size)


@dataclass(frozen=True)
class CropSpec:
    """Axis-aligned crop: origin + extent, both in voxels (z, y, x order)."""

    origin: tuple[int, int, int]
    extent: tuple[int, int, int]

    def __post_init__(self):
        if len(self.origin) != 3 or len(self.extent) != 3:
            raise ValueError("origin and extent must each have 3 components")
        if any(o < 0 for o in self.origin):
            raise ValueError(f"origin must be non-negative, got {self.origin}")
        if any(e < 1 for e in self.extent):
            raise ValueError(f"extent must be positive, got {self.extent}")

    def check_against(self, dims: tuple[int, int, int]) -> None:
        for ax, (o, e, d) in enumerate(zip(self.origin, self.extent, dims)):
            if o + e > d:
                raise IndexError(
                    f"crop out of bounds on axis {ax}: origin {o} + extent {e} > dim {d}"
                )


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping patch decomposition of a volume.

    patches has shape (N, patch_volume), one flattened patch per row, rows
    ordered row-major over grid coordinates (z fastest-varying last).
    """

    patch_size: tuple[int, int, int]
    grid_dims: tuple[int, int, int]
    patches: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        n_expected = int(np.prod(self.grid_dims))
        pvol = int(np.prod(self.patch_size))
        if self.patches.shape != (n_expected, pvol):
            raise ValueError(
                f"patches shape {self.patches.shape} inconsistent with "
                f"grid {self.grid_dims} x patch {self.patch_size}"
            )

    @property
    def n_patches(self) -> int:
        return int(self.patches.shape[0])

    @property
    def patch_volume(self) -> int:
        return int(self.patches.shape[1])

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(g * p for g, p in zip(self.grid_dims, self.patch_size))


def load_volume(path) -> Volume3D:
    """Read a CCV1 file. Raises VolumeFormatError on any malformed content."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise VolumeFormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, d, h, w, sz, sy, sx = _HEADER.unpack(head)
        if magic != CCV1_MAGIC:
            raise VolumeFormatError(f"{path}: bad magic {magic!r}, expected {CCV1_MAGIC!r}")
        if min(d, h, w) < 1:
            raise VolumeFormatError(f"{path}: non-positive dims field ({d}, {h}, {w})")
        if not all(np.isfinite(s) and s > 0 for s in (sz, sy, sx)):
            raise VolumeFormatError(f"{path}: invalid spacing field ({sz}, {sy}, {sx})")
        payload = fh.read()
    n = d * h * w
    if len(payload) != 4 * n:
        raise VolumeFormatError(
            f"{path}: payload size mismatch, header implies {4 * n} bytes "
            f"but file carries {len(payload)}"
        )
    vox = np.frombuffer(payload, dtype="<f4").reshape(d, h, w)
    if not np.all(np.isfinite(vox)):
        raise VolumeFormatError(f"{path}: payload contains non-finite voxels")
    return Volume3D(voxels=vox, spacing=(sz, sy, sx))


def save_volume(v: Volume3D, path) -> None:
    """Write the bit-exact CCV1 encoding of v (deterministic)."""
    d, h, w = v.dims
    head = _HEADER.pack(CCV1_MAGIC, d, h, w, *v.spacing)
    payload = np.ascontiguousarray(v.voxels, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)


def normalize_intensity(v: Volume3D, lo: float, hi: float) -> Volume3D:
    """Clamp to [lo, hi] and map affinely onto [0, 1]."""
    if not lo < hi:
        raise ValueError(f"require lo < hi, got lo={lo}, hi={hi}")
    out = (np.clip(v.voxels, lo, hi) - lo) / (hi - lo)
    return Volume3D(voxels=out.astype(np.float32), spacing=v.spacing)


def crop_region(v: Volume3D, c: CropSpec) -> Volume3D:
    c.check_against(v.dims)
    sl = tuple(slice(o, o + e) for o, e in zip(c.origin, c.extent))
    return Volume3D(voxels=v.voxels[sl].copy(), spacing=v.spacing)


def patchify(v: Volume3D, patch_size: tuple[int, int, int]) -> PatchGrid:
    """Split into non-overlapping patches; inverse of unpatchify.

    Patch i covers grid coordinate (i // (gy*gx), (i // gx) % gy, i % gx),
    each patch flattened z-major.
    """
    dims = v.dims
    for ax, (d, p) in enumerate(zip(dims, patch_size)):
        if p < 1 or d % p != 0:
            raise ValueError(
                f"dim {d} on axis {ax} not divisible by patch size {p}; "
                f"each dim must be a positive multiple of its patch size"
            )
    gz, gy, gx = (d // p for d, p in zip(dims, patch_size))
    pz, py, px = patch_size
    blocks = v.voxels.reshape(gz, pz, gy, py, gx, px)
    patches = blocks.transpose(0, 2, 4, 1, 3, 5).reshape(gz * gy * gx, pz * py * px)
    return PatchGrid(
        patch_size=tuple(patch_size),
        grid_dims=(gz, gy, gx),
        patches=np.ascontiguousarray(patches),
        spacing=v.spacing,
    )


def unpatchify(g: PatchGrid) -> Volume3D:
    """Exact inverse of patchify."""
    gz, gy, gx = g.grid_dims
    pz, py, px = g.patch_size
    blocks = g.patches.reshape(gz, gy, gx, pz, py, px)
    vox = blocks.transpose(0, 3, 1, 4, 2, 5).reshape(gz * pz, gy * py, gx * px)
    return Volume3D(voxels=np.ascontiguousarray(vox), spacing=g.spacing)


def patches_of(voxels: np.ndarray, patch_size: tuple[int, int, int],
               out: np.ndarray | None = None) -> np.ndarray:
    """patchify on a raw (..., D, H, W) array; supports a leading batch axis.

    Returns (..., N, patch_volume) with the same ordering as patchify. With
    out, a C-contiguous array of that shape, the patches are cast into out
    in one pass and out is returned.
    """
    *lead, D, H, W = voxels.shape
    pz, py, px = patch_size
    gz, gy, gx = D // pz, H // py, W // px
    if (gz * pz, gy * py, gx * px) != (D, H, W):
        raise ValueError(f"dims {(D, H, W)} not divisible by patch size {patch_size}")
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

    Equal to np.stack([patches_of(v.voxels, patch_size) for v in volumes]).astype(dtype).
    """
    if len(volumes) == 0:
        raise ValueError("need at least one volume")
    D, H, W = volumes[0].voxels.shape
    pz, py, px = patch_size
    out = np.empty((len(volumes), (D // pz) * (H // py) * (W // px), pz * py * px), dtype=dtype)
    for v, row in zip(volumes, out):
        patches_of(v.voxels, patch_size, out=row)
    return out
