import math

import numpy as np
import pytest

from cardioclip import mae, nn
from cardioclip.encoders import VisualEncoderConfig, init_visual_params, patch_tokens_fwd
from cardioclip.mae import (
    DecoderConfig,
    MAETrainConfig,
    MaskPlan,
    init_decoder_params,
    mae_batch_fwd,
    masked_mse,
    sample_mask,
    train_mae,
)
from cardioclip.optim import ScheduleConfig, lr_at_step
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
        s = ScheduleConfig(base_lr=1e-4, warmup_steps=10, total_steps=100)
        assert lr_at_step(s, 4) == pytest.approx(5e-5)

    def test_endpoint_is_min_lr(self):
        s = ScheduleConfig(base_lr=1e-4, warmup_steps=10, total_steps=100, min_lr=1e-6)
        assert lr_at_step(s, 100) == pytest.approx(1e-6)

    def test_peak_at_warmup(self):
        s = ScheduleConfig(base_lr=1e-4, warmup_steps=10, total_steps=100)
        assert lr_at_step(s, 10) == pytest.approx(1e-4)

    def test_continuous_at_warmup_and_nonincreasing_after(self):
        s = ScheduleConfig(base_lr=3e-4, warmup_steps=7, total_steps=60, min_lr=1e-5)
        assert lr_at_step(s, 6) == pytest.approx(s.base_lr * 7 / 7)
        values = [lr_at_step(s, t) for t in range(7, 61)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_out_of_range(self):
        s = ScheduleConfig(base_lr=1e-4, warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError):
            lr_at_step(s, 11)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ScheduleConfig(base_lr=1e-4, warmup_steps=20, total_steps=10)
        with pytest.raises(ValueError):
            ScheduleConfig(base_lr=1e-5, warmup_steps=0, total_steps=10, min_lr=1e-4)


class TestSampleMask:
    def test_paper_ratio_counts(self):
        m = sample_mask(64, 0.75, seed=0)
        assert m.n_masked == 48
        assert m.n_visible == 16

    def test_deterministic_per_seed(self):
        assert sample_mask(64, 0.75, seed=7) == sample_mask(64, 0.75, seed=7)
        assert sample_mask(64, 0.75, seed=7) != sample_mask(64, 0.75, seed=8)

    def test_masking_frequency_matches_ratio(self):
        counts = np.zeros(4)
        trials = 10_000
        for seed in range(trials):
            counts[list(sample_mask(4, 0.5, seed).masked_idx)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_degenerate_ratios_rejected(self):
        with pytest.raises(ValueError):
            sample_mask(4, 0.05, seed=0)  # floor -> 0 masked
        with pytest.raises(ValueError):
            sample_mask(4, 1.0, seed=0)  # nothing visible

    def test_partition_invariant_over_1000_plans(self):
        for seed in range(1000):
            n = 8 + seed % 57
            m = sample_mask(n, 0.75, seed)
            assert sorted(m.visible_idx + m.masked_idx) == list(range(n))
            assert m.n_masked == math.floor(0.75 * n)

    def test_mask_plan_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            MaskPlan(n_total=4, visible_idx=(0, 1), masked_idx=(1, 2), seed=0)
        with pytest.raises(ValueError, match="partition"):
            MaskPlan(n_total=4, visible_idx=(0, 1), masked_idx=(3,), seed=0)


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
    x, _ = nn.layernorm_fwd(params, "vis.lnf", x)
    x, _ = nn.linear_fwd(params, "dec.embed", x)
    full = np.empty((B, N + 1, DEC.embed_dim), dtype=x.dtype)
    full[:, 0] = x[:, 0]
    full[rows, mask_idx + 1] = params["dec.mask"]
    full[rows, vis_idx + 1] = x[:, 1:]
    full += params["dec.pos"][: N + 1]
    y, _ = nn.stack_fwd(params, "dec", full, DEC.depth, DEC.heads)
    y, _ = nn.layernorm_fwd(params, "dec.lnf", y)
    return nn.linear_fwd(params, "dec.head", y[:, 1:])[0]


def batch_of(volumes, ratio, seed):
    patches = batch_patches(volumes, VIS.patch_size, np.float32)
    plans = [sample_mask(VIS.n_patches, ratio, seed + i) for i in range(len(volumes))]
    vis_idx = np.asarray([p.visible_idx for p in plans], dtype=np.int64)
    mask_idx = np.asarray([p.masked_idx for p in plans], dtype=np.int64)
    return patches, vis_idx, mask_idx


class TestApplyMask:
    """The mask as mae_batch_fwd applies it: the encoder sees only the visible
    patches, in index order and at their own positions, and the loss scores
    the masked ones."""

    def spied_forward(self, monkeypatch, patches, vis_idx, mask_idx):
        seen = {}

        def tokens_spy(params, x, positions=None):
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
        cfg = MAETrainConfig(epochs=1, batch=4, base_lr=1e-3, warmup_frac=0.0)
        _, trace = train_mae(self.corpus(1), VIS, DEC, cfg, seed=0, proj_dim=8)
        assert len(trace) == 1
        # one step: the final lr equals the schedule at step 0
        sched = ScheduleConfig(1e-3, 0, 1)
        assert trace[0]["lr_last"] == pytest.approx(lr_at_step(sched, 0))

    def test_deterministic_traces(self):
        cfg = MAETrainConfig(epochs=2, batch=4, base_lr=1e-3)
        _, t1 = train_mae(self.corpus(), VIS, DEC, cfg, seed=11, proj_dim=8)
        _, t2 = train_mae(self.corpus(), VIS, DEC, cfg, seed=11, proj_dim=8)
        assert t1 == t2

    def test_loss_decreases_on_small_corpus(self):
        cfg = MAETrainConfig(epochs=8, batch=4, base_lr=3e-3)
        _, trace = train_mae(self.corpus(8, seed=3), VIS, DEC, cfg, seed=1, proj_dim=8)
        assert trace[-1]["mean_loss"] < trace[0]["mean_loss"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_mae([], VIS, DEC, MAETrainConfig(), seed=0)
