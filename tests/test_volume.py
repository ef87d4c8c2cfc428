import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioclip.volume import (
    CropSpec,
    Volume3D,
    VolumeFormatError,
    batch_patches,
    crop_region,
    load_volume,
    normalize_intensity,
    patches_of,
    patchify,
    save_volume,
    unpatchify,
)


def rand_volume(rng, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    return Volume3D(voxels=rng.random(dims, dtype=np.float32), spacing=spacing)


class TestCCV1:
    def test_zero_volume_round_trip(self, tmp_path):
        v = Volume3D(voxels=np.zeros((64, 64, 64), dtype=np.float32))
        path = tmp_path / "zero.ccv1"
        save_volume(v, path)
        back = load_volume(path)
        assert back.n_voxels == 262144
        assert np.all(back.voxels == 0.0)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rand_volume(rng, dims=(5, 6, 7), spacing=(0.5, 0.7, 0.7))
        path = tmp_path / "v.ccv1"
        save_volume(v, path)
        back = load_volume(path)
        assert back.dims == v.dims
        assert back.spacing == pytest.approx(v.spacing)
        assert np.array_equal(back.voxels, v.voxels)

    def test_byte_level_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        v = rand_volume(rng)
        p1, p2 = tmp_path / "a.ccv1", tmp_path / "b.ccv1"
        save_volume(v, p1)
        save_volume(load_volume(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        v = rand_volume(rng)
        p1, p2 = tmp_path / "a.ccv1", tmp_path / "b.ccv1"
        save_volume(v, p1)
        save_volume(v, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_arithmetic(self, tmp_path):
        v = Volume3D(voxels=np.zeros((2, 2, 2), dtype=np.float32))
        path = tmp_path / "small.ccv1"
        save_volume(v, path)
        # 4 magic + 12 dims + 12 spacing + 8 voxels * 4 bytes
        assert path.stat().st_size == 28 + 32

    def test_truncated_payload_rejected(self, tmp_path):
        v = Volume3D(voxels=np.zeros((4, 4, 4), dtype=np.float32))
        path = tmp_path / "trunc.ccv1"
        save_volume(v, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # drop one voxel
        with pytest.raises(VolumeFormatError, match="size mismatch"):
            load_volume(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ccv1"
        v = Volume3D(voxels=np.zeros((2, 2, 2), dtype=np.float32))
        save_volume(v, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(VolumeFormatError, match="magic"):
            load_volume(path)

    def test_non_finite_rejected_before_write(self):
        vox = np.zeros((2, 2, 2), dtype=np.float32)
        vox[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Volume3D(voxels=vox)


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        v = Volume3D(voxels=np.array([[[-300.0, 700.0, 200.0, -500.0]]], dtype=np.float32))
        out = normalize_intensity(v, -300.0, 700.0)
        assert out.voxels[0, 0, 0] == 0.0
        assert out.voxels[0, 0, 1] == 1.0
        assert out.voxels[0, 0, 2] == pytest.approx(0.5)
        assert out.voxels[0, 0, 3] == 0.0  # clamped below lo

    def test_bad_window(self):
        v = Volume3D(voxels=np.zeros((1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            normalize_intensity(v, 5.0, 5.0)

    @given(st.floats(-1000, 1000), st.floats(-1000, 1000))
    @settings(max_examples=50, deadline=None)
    def test_output_in_unit_interval_and_monotone(self, a, b):
        v = Volume3D(voxels=np.array([[[min(a, b), max(a, b)]]], dtype=np.float32))
        out = normalize_intensity(v, -100.0, 100.0)
        assert np.all(out.voxels >= 0.0) and np.all(out.voxels <= 1.0)
        assert out.voxels[0, 0, 0] <= out.voxels[0, 0, 1]


class TestCrop:
    def test_identity_crop(self):
        rng = np.random.default_rng(3)
        v = rand_volume(rng)
        out = crop_region(v, CropSpec(origin=(0, 0, 0), extent=v.dims))
        assert np.array_equal(out.voxels, v.voxels)

    def test_center_crop_dims(self):
        v = Volume3D(voxels=np.zeros((64, 64, 64), dtype=np.float32))
        out = crop_region(v, CropSpec(origin=(16, 16, 16), extent=(32, 32, 32)))
        assert out.dims == (32, 32, 32)

    def test_offset_values(self):
        rng = np.random.default_rng(4)
        v = rand_volume(rng)
        c = CropSpec(origin=(1, 2, 3), extent=(4, 3, 2))
        out = crop_region(v, c)
        assert out.voxels[0, 0, 0] == v.voxels[1, 2, 3]
        assert out.voxels[3, 2, 1] == v.voxels[4, 4, 4]

    def test_out_of_bounds(self):
        v = Volume3D(voxels=np.zeros((8, 8, 8), dtype=np.float32))
        with pytest.raises(IndexError, match="out of bounds"):
            crop_region(v, CropSpec(origin=(4, 0, 0), extent=(8, 8, 8)))


class TestPatchify:
    def test_counts_64_cube(self):
        v = Volume3D(voxels=np.zeros((64, 64, 64), dtype=np.float32))
        g = patchify(v, (16, 16, 16))
        assert g.n_patches == 64
        assert g.patch_volume == 4096

    def test_single_patch_is_flat_volume(self):
        rng = np.random.default_rng(5)
        v = rand_volume(rng, dims=(4, 4, 4))
        g = patchify(v, (4, 4, 4))
        assert g.n_patches == 1
        assert np.array_equal(g.patches[0], v.voxels.reshape(-1))

    def test_non_divisible_rejected(self):
        v = Volume3D(voxels=np.zeros((60, 60, 60), dtype=np.float32))
        with pytest.raises(ValueError, match="divisible"):
            patchify(v, (16, 16, 16))

    def test_patch_order_is_row_major(self):
        # voxel value encodes its global coordinate; check patch (0,0,1)
        vox = np.arange(4 * 4 * 4, dtype=np.float32).reshape(4, 4, 4)
        g = patchify(Volume3D(voxels=vox), (2, 2, 2))
        assert g.grid_dims == (2, 2, 2)
        # second patch covers x in [2,4): first element is voxel (0,0,2)
        assert g.patches[1][0] == vox[0, 0, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(1, 4)) * p for p in (2, 3, 4))
        v = rand_volume(rng, dims=dims)
        back = unpatchify(patchify(v, (2, 3, 4)))
        assert np.array_equal(back.voxels, v.voxels)
        assert back.spacing == v.spacing


class TestBatchPatches:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_stacked_patches(self, dtype):
        rng = np.random.default_rng(6)
        vols = [rand_volume(rng, dims=(8, 12, 16)) for _ in range(3)]
        got = batch_patches(vols, (4, 4, 8), dtype)
        ref = np.stack([patches_of(v.voxels, (4, 4, 8)) for v in vols]).astype(dtype)
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape == (3, 12, 128)
        assert got.tobytes() == ref.tobytes()

    def test_out_must_be_contiguous_and_shaped(self):
        v = rand_volume(np.random.default_rng(7))
        with pytest.raises(ValueError, match="C-contiguous"):
            patches_of(v.voxels, (4, 4, 4), out=np.empty((8, 128), dtype=np.float32)[:, ::2])
        with pytest.raises(ValueError, match="shape"):
            patches_of(v.voxels, (4, 4, 4), out=np.empty((8, 32), dtype=np.float32))

    def test_mismatched_volumes_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            batch_patches([rand_volume(rng), rand_volume(rng, dims=(8, 8, 4))], (4, 4, 4),
                          np.float32)
        with pytest.raises(ValueError):
            batch_patches([], (4, 4, 4), np.float32)
