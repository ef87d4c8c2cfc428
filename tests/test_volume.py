import numpy as np
import pytest

from cardioclip import volume
from cardioclip.volume import (
    Volume3D,
    VolumeFile,
    VolumeFormatError,
    batch_patches,
    load_volume,
    patches_of,
    save_volume,
)


def rand_volume(rng, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    return Volume3D(voxels=rng.random(dims, dtype=np.float32), spacing=spacing)


class TestCCV1:
    def test_zero_volume_round_trip(self, tmp_path):
        v = Volume3D(voxels=np.zeros((64, 64, 64), dtype=np.float32))
        path = tmp_path / "zero.ccv1"
        save_volume(v, path)
        back = load_volume(path)
        assert back.voxels.size == 262144
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "nonfinite.ccv1"
        save_volume(Volume3D(voxels=np.zeros((2, 2, 2), dtype=np.float32)), path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([bad], dtype="<f4").tobytes()  # the last voxel
        path.write_bytes(bytes(data))
        with pytest.raises(VolumeFormatError, match=r"nonfinite\.ccv1: payload .*non-finite"):
            load_volume(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_refused_at_construction(self, tmp_path, bad):
        vox = np.zeros((2, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"^spacing must be 3 finite positive lengths"):
            Volume3D(voxels=vox, spacing=(1.0, bad, 1.0))
        # what the constructor accepts, load_volume accepts back
        path = tmp_path / "spaced.ccv1"
        save_volume(Volume3D(voxels=vox, spacing=(1.0, 1e-3, 1e3)), path)
        assert load_volume(path).spacing == pytest.approx((1.0, 1e-3, 1e3))

    def test_non_finite_rejected_before_write(self):
        vox = np.zeros((2, 2, 2), dtype=np.float32)
        vox[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Volume3D(voxels=vox)


class TestPatchify:
    def test_counts_64_cube(self):
        patches = patches_of(np.zeros((64, 64, 64), dtype=np.float32), (16, 16, 16))
        assert patches.shape == (64, 4096)

    def test_single_patch_is_flat_volume(self):
        rng = np.random.default_rng(5)
        v = rand_volume(rng, dims=(4, 4, 4))
        patches = patches_of(v.voxels, (4, 4, 4))
        assert patches.shape == (1, 64)
        assert np.array_equal(patches[0], v.voxels.reshape(-1))

    def test_non_divisible_rejected(self):
        for dims, patch in (((60, 60, 60), (16, 16, 16)), ((4, 4, 4), (0, 2, 2))):
            with pytest.raises(ValueError, match="divisible"):
                patches_of(np.zeros(dims, dtype=np.float32), patch)

    def test_patch_order_is_row_major(self):
        # voxel value encodes its global coordinate; check patch (0,0,1)
        vox = np.arange(4 * 4 * 4, dtype=np.float32).reshape(4, 4, 4)
        patches = patches_of(vox, (2, 2, 2))
        assert patches.shape == (8, 8)
        # second patch covers x in [2,4): first element is voxel (0,0,2)
        assert patches[1][0] == vox[0, 0, 2]

    def test_every_voxel_sits_at_its_documented_slot(self):
        # the voxel value is its flat index, so each (patch, offset) slot names
        # the voxel it holds; compare with the patches_of docstring's formula
        pz, py, px = 2, 3, 4
        for dims in ((4, 6, 8), (2, 9, 12), (6, 3, 4)):
            vox = np.arange(np.prod(dims), dtype=np.float32).reshape(dims)
            patches = patches_of(vox, (pz, py, px))
            gy, gx = dims[1] // py, dims[2] // px
            assert patches.shape == (vox.size // 24, 24)
            for (z, y, x), value in np.ndenumerate(vox):
                i = (z // pz * gy + y // py) * gx + x // px
                j = (z % pz * py + y % py) * px + x % px
                assert patches[i, j] == value, (dims, z, y, x)


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


class TestVolumeFile:
    def saved(self, tmp_path, dims=(4, 6, 8), seed=9):
        path = tmp_path / f"v{seed}.ccv1"
        save_volume(rand_volume(np.random.default_rng(seed), dims=dims,
                                spacing=(0.5, 1.0, 2.0)), path)
        return path

    def test_dims_and_voxels_equal_load_volumes(self, tmp_path):
        path = self.saved(tmp_path)
        handle, loaded = VolumeFile(str(path)), load_volume(path)
        assert handle.dims == loaded.dims == (4, 6, 8)
        assert handle.voxels.dtype == loaded.voxels.dtype
        assert handle.voxels.tobytes() == loaded.voxels.tobytes()

    def test_truncated_file_and_bad_magic_are_refused_at_dims(self, tmp_path):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # drop one voxel
        with pytest.raises(VolumeFormatError, match="size mismatch"):
            VolumeFile(str(path)).dims
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(VolumeFormatError, match="magic"):
            VolumeFile(str(path)).dims
        path.write_bytes(data[:10])
        with pytest.raises(VolumeFormatError, match="truncated header"):
            VolumeFile(str(path)).dims

    def test_non_finite_payload_is_refused_at_voxels(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        handle = VolumeFile(str(path))
        assert handle.dims == (4, 6, 8)  # the header and size are valid
        with pytest.raises(VolumeFormatError, match=r"v9\.ccv1: payload .*non-finite"):
            handle.voxels

    def test_every_voxels_access_reads_the_file(self, tmp_path, monkeypatch):
        path = self.saved(tmp_path)
        calls = []
        base = volume.load_volume

        def counting(p):
            calls.append(p)
            return base(p)

        monkeypatch.setattr(volume, "load_volume", counting)
        handle = VolumeFile(str(path))
        handle.dims
        assert calls == []
        first, second = handle.voxels, handle.voxels
        assert calls == [str(path), str(path)]
        assert first is not second

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_patches_of_handles_equal_those_of_loaded_volumes(self, tmp_path,
                                                                    monkeypatch, dtype):
        paths = [self.saved(tmp_path, dims=(8, 12, 16), seed=i) for i in range(3)]
        calls = []
        base = volume.load_volume
        monkeypatch.setattr(volume, "load_volume", lambda p: calls.append(p) or base(p))
        got = batch_patches([VolumeFile(str(p)) for p in paths], (4, 4, 8), dtype)
        assert calls == [str(p) for p in paths]  # each volume read once
        ref = batch_patches([base(p) for p in paths], (4, 4, 8), dtype)
        assert got.dtype == ref.dtype and got.shape == ref.shape == (3, 12, 128)
        assert got.tobytes() == ref.tobytes()
