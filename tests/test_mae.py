import math

import numpy as np
import pytest

from cardioclip import mae, nn
from cardioclip.encoders import VisualEncoderConfig, init_visual_params, patch_tokens_fwd
from cardioclip.mae import (
    DecoderConfig,
    MAETrainConfig,
    init_decoder_params,
    mae_batch_fwd,
    masked_mse,
    sample_mask,
    train_mae,
)
from cardioclip.optim import lr_at_step
from cardioclip.volume import Volume3D, batch_patches

VIS = VisualEncoderConfig(patch_size=(4, 4, 4), embed_dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, input_dims=(8, 8, 8))
DEC = DecoderConfig(embed_dim=8, depth=1, heads=2, mlp_ratio=2.0)


def small_params(seed=0):
    rng = np.random.default_rng(seed)
    params = init_visual_params(rng, VIS, proj_dim=8)
    init_decoder_params(rng, VIS, DEC, params)
    return params


class TestSchedule:
    def test_linear_ramp(self):
        assert lr_at_step(1e-4, 10, 100, 4) == pytest.approx(5e-5)

    def test_endpoint_is_zero(self):
        assert lr_at_step(1e-4, 10, 100, 100) == 0.0

    def test_peak_at_warmup(self):
        assert lr_at_step(1e-4, 10, 100, 10) == pytest.approx(1e-4)

    def test_continuous_at_warmup_and_nonincreasing_after(self):
        assert lr_at_step(3e-4, 7, 60, 6) == pytest.approx(3e-4 * 7 / 7)
        values = [lr_at_step(3e-4, 7, 60, t) for t in range(7, 61)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at_step(1e-4, 0, 10, 11)

    @pytest.mark.parametrize("lr", [1e-4, 3e-4, 1e-3, 1.5e-3, 5e-3])
    def test_bitwise_equal_to_the_written_out_schedule(self, lr):
        # every trace's lr_last depends on these exact float operations in
        # this order; pi * (step - warmup) / span, say, rounds differently
        for warmup, total in [(0, 1), (0, 10), (3, 3), (1, 4), (2, 6), (7, 60), (10, 200),
                              (25, 500), (33, 640)]:
            span = total - warmup
            for step in range(total + 1):
                if step < warmup:
                    want = lr * (step + 1) / warmup
                elif span == 0:
                    want = lr
                else:
                    t = (step - warmup) / span
                    want = lr * 0.5 * (1.0 + math.cos(math.pi * t))
                assert lr_at_step(lr, warmup, total, step) == want, (warmup, total, step)


class TestSampleMask:
    def test_paper_ratio_counts(self):
        visible, masked = sample_mask(64, 0.75, seed=0)
        assert masked.shape == (48,) and visible.shape == (16,)
        assert visible.dtype == masked.dtype == np.int64

    def test_deterministic_per_seed(self):
        a, b, c = (sample_mask(64, 0.75, seed=s) for s in (7, 7, 8))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[1], c[1])

    def test_masking_frequency_matches_ratio(self):
        counts = np.zeros(4)
        trials = 10_000
        for seed in range(trials):
            counts[sample_mask(4, 0.5, seed)[1]] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_degenerate_ratios_rejected(self):
        with pytest.raises(ValueError):
            sample_mask(4, 0.05, seed=0)  # floor -> 0 masked
        with pytest.raises(ValueError):
            sample_mask(4, 1.0, seed=0)  # nothing visible

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    @pytest.mark.parametrize("ratio", [0.5, 0.75, 0.9])
    def test_visible_equals_the_setdiff_of_masked(self, n, ratio):
        for seed in range(20):
            visible, masked = sample_mask(n, ratio, seed)
            expected = np.setdiff1d(np.arange(n), masked, assume_unique=True)
            assert visible.dtype == expected.dtype and np.array_equal(visible, expected)

    def test_partition_invariant_over_1000_plans(self):
        for seed in range(1000):
            n = 8 + seed % 57
            visible, masked = sample_mask(n, 0.75, seed)
            # each sorted, and together every index exactly once
            assert np.all(np.diff(visible) > 0) and np.all(np.diff(masked) > 0)
            assert sorted(visible.tolist() + masked.tolist()) == list(range(n))
            assert masked.size == math.floor(0.75 * n)


def masked_rows(a, mask_idx):
    return a[np.arange(a.shape[0])[:, None], mask_idx]


class TestMaskedMSE:
    def test_zero_when_reconstruction_is_exact(self):
        rng = np.random.default_rng(0)
        targets = rng.random((2, 8, 4))
        mask_idx = np.array([[0, 3, 5], [1, 2, 7]])
        loss, d = masked_mse(masked_rows(targets, mask_idx), targets, mask_idx)
        assert loss == 0.0
        assert np.all(d == 0.0)

    def test_visible_gradients_exactly_zero(self):
        # one gradient row per masked patch, so no visible position receives
        # one, and the targets at visible positions are never read
        rng = np.random.default_rng(1)
        recon = rng.random((2, 3, 4))
        targets = rng.random((2, 8, 4))
        mask_idx = np.array([[0, 3, 5], [1, 2, 7]])
        loss, d = masked_mse(recon.copy(), targets, mask_idx)
        assert d.shape == recon.shape
        assert np.all(np.any(d != 0.0, axis=-1))
        visible = np.array([[1, 2, 4, 6, 7], [0, 3, 4, 5, 6]])
        other = targets.copy()
        other[np.arange(2)[:, None], visible] = rng.random((2, 5, 4)) + 5.0
        loss2, d2 = masked_mse(recon.copy(), other, mask_idx)
        assert loss2 == loss
        assert d2.tobytes() == d.tobytes()

    def test_loss_invariant_to_mask_order(self):
        rng = np.random.default_rng(2)
        recon = rng.random((1, 8, 4))
        targets = rng.random((1, 8, 4))
        order_a, order_b = np.array([[0, 3, 5]]), np.array([[5, 0, 3]])
        a, _ = masked_mse(masked_rows(recon, order_a), targets, order_a)
        b, _ = masked_mse(masked_rows(recon, order_b), targets, order_b)
        assert a == pytest.approx(b, rel=1e-15)

    def test_bitwise_equal_to_take_along_axis_reference(self):
        rng = np.random.default_rng(3)
        recon = rng.normal(size=(3, 16, 8)).astype(np.float32)
        targets = rng.random((3, 16, 8)).astype(np.float32)
        mask_idx = np.sort(np.stack([rng.permutation(16)[:12] for _ in range(3)]), axis=1)
        idx = mask_idx[:, :, None]
        loss, d = masked_mse(np.take_along_axis(recon, idx, axis=1), targets, mask_idx)
        diff = np.take_along_axis(recon, idx, axis=1) - np.take_along_axis(targets, idx, axis=1)
        assert loss == float((diff * diff).sum() / diff.size)
        assert d.dtype == np.float32
        assert d.tobytes() == ((2.0 / diff.size) * diff).tobytes()

    def test_gradient_is_recon_buffer_and_targets_untouched(self):
        rng = np.random.default_rng(4)
        recon = rng.normal(size=(2, 3, 4)).astype(np.float32)
        targets = rng.random((2, 8, 4)).astype(np.float32)
        before = targets.copy()
        _, d = masked_mse(recon, targets, np.array([[0, 3, 5], [1, 2, 7]]))
        assert d is recon
        assert targets.tobytes() == before.tobytes()


def full_decode(params, patches, vis_idx, mask_idx):
    """Reference: the decoder head run on every patch row, (B, N, P)."""
    B, N, _ = patches.shape
    rows = np.arange(B)[:, None]
    x, _ = patch_tokens_fwd(params, patches[rows, vis_idx], positions=vis_idx)
    x, _ = nn.stack_fwd(params, "vis", x, VIS.depth, VIS.heads)
    x, _ = nn.linear_fwd(params, "dec.embed", x)
    full = np.empty((B, N + 1, DEC.embed_dim), dtype=x.dtype)
    full[:, 0] = x[:, 0]
    full[rows, mask_idx + 1] = params["dec.mask"]
    full[rows, vis_idx + 1] = x[:, 1:]
    full += params["dec.pos"][: N + 1]
    y, _ = nn.stack_fwd(params, "dec", full, DEC.depth, DEC.heads)
    return nn.linear_fwd(params, "dec.head", y[:, 1:])[0]


def batch_of(volumes, ratio, seed):
    patches = batch_patches(volumes, VIS.patch_size, np.float32)
    masks = [sample_mask(VIS.n_patches, ratio, seed + i) for i in range(len(volumes))]
    vis_idx = np.stack([vis for vis, _ in masks])
    mask_idx = np.stack([msk for _, msk in masks])
    return patches, vis_idx, mask_idx


class TestApplyMask:
    """The mask as mae_batch_fwd applies it: the encoder sees only the visible
    patches, in index order and at their own positions, and the loss scores
    the masked ones."""

    def spied_forward(self, monkeypatch, patches, vis_idx, mask_idx):
        seen = {}

        def tokens_spy(params, x, positions):
            seen["encoder"], seen["positions"] = x.copy(), positions
            return patch_tokens_fwd(params, x, positions)

        def mse_spy(recon, targets, idx):
            seen["scored"] = masked_rows(targets, idx)
            return masked_mse(recon, targets, idx)

        monkeypatch.setattr(mae, "patch_tokens_fwd", tokens_spy)
        monkeypatch.setattr(mae, "masked_mse", mse_spy)
        mae_batch_fwd(small_params(), VIS, DEC, patches, vis_idx, mask_idx)
        return seen

    def test_selects_visible_in_order(self, monkeypatch):
        rng = np.random.default_rng(0)
        vols = [Volume3D(voxels=rng.random((8, 8, 8), dtype=np.float32)) for _ in range(2)]
        patches = batch_patches(vols, VIS.patch_size, np.float32)  # 8 patches each
        vis_idx = np.array([[0, 2], [5, 7]])
        mask_idx = np.array([[1, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 6]])
        seen = self.spied_forward(monkeypatch, patches, vis_idx, mask_idx)
        assert np.array_equal(seen["encoder"], np.stack([patches[0, [0, 2]], patches[1, [5, 7]]]))
        assert np.array_equal(seen["positions"], vis_idx)

    def test_partition_reassembles_all_patches(self, monkeypatch):
        rng = np.random.default_rng(1)
        vols = [Volume3D(voxels=rng.random((8, 8, 8), dtype=np.float32)) for _ in range(3)]
        patches, vis_idx, mask_idx = batch_of(vols, 0.5, seed=3)
        seen = self.spied_forward(monkeypatch, patches, vis_idx, mask_idx)
        together = np.empty_like(patches)
        rows = np.arange(3)[:, None]
        together[rows, vis_idx] = seen["encoder"]
        together[rows, mask_idx] = seen["scored"]
        assert np.array_equal(together, patches)


class TestMAEForward:
    def test_constant_volume_zero_head_gives_mean_square(self):
        params = small_params()
        params["dec.head.w"][:] = 0.0
        params["dec.head.b"][:] = 0.0
        c = 0.37
        v = Volume3D(voxels=np.full((8, 8, 8), c, dtype=np.float32))
        loss, _ = mae_batch_fwd(params, VIS, DEC, *batch_of([v], 0.5, seed=0))
        assert loss == pytest.approx(c * c, rel=1e-5)
        # a zero head reconstructs zeros: the loss is the masked targets' mean square
        rng = np.random.default_rng(4)
        vols = [Volume3D(voxels=rng.random((8, 8, 8), dtype=np.float32)) for _ in range(2)]
        patches, vis_idx, mask_idx = batch_of(vols, 0.75, seed=2)
        loss, _ = mae_batch_fwd(params, VIS, DEC, patches, vis_idx, mask_idx)
        masked = masked_rows(patches, mask_idx)
        assert loss == float(np.square(masked).sum() / masked.size)

    def test_masked_recon_rows_match(self, monkeypatch):
        # the masked-row decode equals the masked rows of a full decode
        params = small_params()
        rng = np.random.default_rng(5)
        vols = [Volume3D(voxels=rng.random((8, 8, 8), dtype=np.float32)) for _ in range(3)]
        patches, vis_idx, mask_idx = batch_of(vols, 0.75, seed=1)
        seen = []

        def spy(recon, targets, idx):
            seen.append(recon.copy())
            return masked_mse(recon, targets, idx)

        monkeypatch.setattr(mae, "masked_mse", spy)
        loss, _ = mae_batch_fwd(params, VIS, DEC, patches, vis_idx, mask_idx)
        full = full_decode(params, patches, vis_idx, mask_idx)
        assert seen[0].shape == (3, mask_idx.shape[1], VIS.patch_volume)
        np.testing.assert_allclose(seen[0], masked_rows(full, mask_idx), rtol=1e-6, atol=1e-7)
        diff = masked_rows(full, mask_idx) - masked_rows(patches, mask_idx)
        assert loss == pytest.approx(float(np.square(diff).sum() / diff.size), rel=1e-6)

    def test_geometry_mismatch(self):
        # stage 1 refuses volumes whose dims differ from the config's input_dims
        v = Volume3D(voxels=np.zeros((4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="input_dims"):
            train_mae([v], VIS, DEC, MAETrainConfig(epochs=1, batch=1), seed=0, proj_dim=8)


class TestTrainMAE:
    def corpus(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        return [Volume3D(voxels=rng.random((8, 8, 8), dtype=np.float32)) for _ in range(n)]

    def test_single_volume_single_step(self):
        cfg = MAETrainConfig(epochs=1, batch=4, lr=1e-3, warmup_frac=0.0)
        _, trace = train_mae(self.corpus(1), VIS, DEC, cfg, seed=0, proj_dim=8)
        assert len(trace) == 1
        # one step: the final lr equals the schedule at step 0
        assert trace[0]["lr_last"] == lr_at_step(1e-3, 0, 1, 0)

    def test_lr_last_follows_the_schedule_exactly(self):
        # 6 volumes at batch 4: 2 steps per epoch, 6 in all, round(0.34 * 6) = 2 warmup
        cfg = MAETrainConfig(epochs=3, batch=4, lr=1e-3, warmup_frac=0.34)
        _, trace = train_mae(self.corpus(), VIS, DEC, cfg, seed=0, proj_dim=8)
        assert [r["lr_last"] for r in trace] == [lr_at_step(1e-3, 2, 6, s) for s in (1, 3, 5)]

    def test_deterministic_traces(self):
        cfg = MAETrainConfig(epochs=2, batch=4, lr=1e-3)
        _, t1 = train_mae(self.corpus(), VIS, DEC, cfg, seed=11, proj_dim=8)
        _, t2 = train_mae(self.corpus(), VIS, DEC, cfg, seed=11, proj_dim=8)
        assert t1 == t2

    def test_loss_decreases_on_small_corpus(self):
        cfg = MAETrainConfig(epochs=8, batch=4, lr=3e-3)
        _, trace = train_mae(self.corpus(8, seed=3), VIS, DEC, cfg, seed=1, proj_dim=8)
        assert trace[-1]["mean_loss"] < trace[0]["mean_loss"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_mae([], VIS, DEC, MAETrainConfig(), seed=0)

    def test_patches_are_in_the_params_dtype(self, monkeypatch):
        seen = []

        def spy(params, patches, positions):
            seen.append(patches.dtype)
            return patch_tokens_fwd(params, patches, positions)

        monkeypatch.setattr(mae, "patch_tokens_fwd", spy)
        params = {k: v.astype(np.float64) for k, v in small_params().items()}
        train_mae(self.corpus(2), VIS, DEC, MAETrainConfig(epochs=1, batch=2), seed=0,
                  params=params)
        assert seen == [np.float64]
