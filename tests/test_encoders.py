import numpy as np
import pytest

from cardioclip import nn
from cardioclip.encoders import (
    TextEncoderConfig,
    VisualEncoderConfig,
    init_text_params,
    init_visual_params,
    patch_tokens_bwd,
    patch_tokens_fwd,
    text_embed_fwd,
    visual_embed_fwd,
)
from cardioclip.gradcheck import gradient_check, toy_losses
from cardioclip.model import ModelBundle, embed_volumes
from cardioclip.reports import load_catalog
from cardioclip.tasks import predict_logits
from cardioclip.tokenizer import build_vocab, pad_batch, tokenize
from cardioclip.volume import Volume3D, batch_patches

TOY_VIS = VisualEncoderConfig(
    patch_size=(2, 2, 2), embed_dim=8, depth=1, heads=2, mlp_ratio=2.0, input_dims=(4, 4, 4)
)


def toy_visual_params(seed=0):
    return init_visual_params(np.random.default_rng(seed), TOY_VIS, proj_dim=4, dtype=np.float64)


def toy_volume(seed=0):
    rng = np.random.default_rng(seed)
    return Volume3D(voxels=rng.random((4, 4, 4), dtype=np.float32))


def toy_patches(volumes, patch_size=TOY_VIS.patch_size):
    return batch_patches(volumes, patch_size, np.float64)


class TestEmbedPatches:
    """patch_tokens_fwd, the patch embedding both visual paths share."""

    def test_shape_65x128_at_default_geometry(self):
        cfg = VisualEncoderConfig()
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, cfg, proj_dim=64)
        vox = np.zeros((64, 64, 64), dtype=np.float32)
        patches = batch_patches([Volume3D(voxels=vox)], cfg.patch_size, np.float32)
        tokens, _ = patch_tokens_fwd(params, patches)
        assert tokens.shape == (1, 65, 128)

    def test_zero_weights_rows_equal_positional_vectors(self):
        params = toy_visual_params()
        params["vis.patch.w"][:] = 0.0
        params["vis.patch.b"][:] = 0.0
        tokens, _ = patch_tokens_fwd(params, toy_patches([toy_volume(0), toy_volume(1)]))
        assert np.allclose(tokens[:, 0], params["vis.cls"])
        assert np.allclose(tokens[:, 1:], params["vis.pos"])

    def test_positions_pinned_to_slots_not_content(self):
        params = toy_visual_params()
        patches = toy_patches([toy_volume()])
        tokens, _ = patch_tokens_fwd(params, patches)
        perm = np.random.default_rng(1).permutation(patches.shape[1])
        tokens_perm, _ = patch_tokens_fwd(params, patches[:, perm])
        std = (patches[0] - patches.mean()) / (patches.std() + 1e-6)
        lin = std @ params["vis.patch.w"] + params["vis.patch.b"]
        assert np.allclose(tokens_perm[0, 1:], lin[perm] + params["vis.pos"], atol=1e-6)
        assert not np.allclose(tokens_perm[:, 1:], tokens[:, 1:])
        # explicit positions move each slot's vector with its patch
        tokens_moved, _ = patch_tokens_fwd(params, patches[:, perm], positions=perm[None])
        assert np.allclose(tokens_moved[0, 1:], tokens[0, 1 + perm], atol=1e-12)

    def test_patch_length_mismatch(self):
        params = toy_visual_params()
        vol = Volume3D(voxels=np.zeros((4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="patches of 64 voxels"):
            visual_embed_fwd(params, TOY_VIS, toy_patches([vol], (4, 4, 4)))


class TestPatchTokens:
    @pytest.mark.parametrize("shape", [(16, 16, 4096), (8, 64, 4096)])
    def test_standardization_bitwise_equal_to_mean_std_expression(self, shape):
        rng = np.random.default_rng(11)
        patches = (rng.random(shape, dtype=np.float32) * 3.0
                   + rng.random((shape[0], 1, 1), dtype=np.float32))
        patches[1] = 0.25  # a constant volume: sd = 0, so only eps divides
        params = {"vis.patch.w": np.zeros((shape[2], 8), dtype=np.float32),
                  "vis.patch.b": np.zeros(8, dtype=np.float32),
                  "vis.pos": np.zeros((shape[1], 8), dtype=np.float32),
                  "vis.cls": np.zeros(8, dtype=np.float32)}
        _, standardized = patch_tokens_fwd(params, patches)
        mu = patches.mean(axis=(1, 2), keepdims=True)
        sd = patches.std(axis=(1, 2), keepdims=True)
        ref = (patches - mu) / (sd + np.asarray(1e-6, dtype=patches.dtype))
        assert standardized.dtype == np.float32
        assert standardized.tobytes() == ref.tobytes()
        assert np.all(standardized[1] == 0.0)

    def test_position_gradient_equals_add_at(self):
        rng = np.random.default_rng(12)
        B, n, E = 16, 16, 128
        params = {"vis.patch.w": rng.normal(size=(8, E)).astype(np.float32),
                  "vis.pos": np.zeros((64, E), dtype=np.float32)}
        positions = np.stack([np.sort(rng.permutation(64)[:n]) for _ in range(B)])
        dx = rng.normal(size=(B, n + 1, E)).astype(np.float32)
        grads = {}
        patch_tokens_bwd(params, rng.random((B, n, 8), dtype=np.float32), positions, dx, grads)
        ref = np.zeros_like(params["vis.pos"])
        np.add.at(ref, positions.reshape(-1), dx[:, 1:].reshape(-1, E))
        assert grads["vis.pos"].tobytes() == ref.tobytes()


class TestEncodeVisible:
    """The visual block stack: nn.stack_fwd over the "vis" blocks."""

    def test_depth_zero_is_identity(self):
        cfg = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=0, heads=2,
                                  input_dims=(4, 4, 4))
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, cfg, proj_dim=4)
        tokens = np.random.default_rng(1).normal(0, 1, (2, 5, 8))
        out, _ = nn.stack_fwd(params, "vis", tokens, cfg.depth, cfg.heads)
        assert np.array_equal(out, tokens)

    def test_duplicate_rows_stay_duplicates(self):
        params = toy_visual_params()
        row = np.random.default_rng(2).normal(0, 1, 8)
        tokens = np.stack([row, row, row])[None]
        out, _ = nn.stack_fwd(params, "vis", tokens, TOY_VIS.depth, TOY_VIS.heads)
        assert np.allclose(out[0, 0], out[0, 1])
        assert np.allclose(out[0, 1], out[0, 2])

    def test_single_token(self):
        params = toy_visual_params()
        out, _ = nn.stack_fwd(params, "vis", np.zeros((1, 1, 8)), TOY_VIS.depth, TOY_VIS.heads)
        assert out.shape == (1, 1, 8)


class TestEncodeText:
    """text_embed_fwd, the text tower's one forward path."""

    VOCAB = build_vocab(["there is coronary stenosis", "no pericardial effusion seen"])
    CFG = TextEncoderConfig(vocab_size=len(VOCAB), max_len=8, embed_dim=8, depth=1,
                            heads=2, mlp_ratio=2.0)

    def params(self, seed=0):
        rng = np.random.default_rng(seed)
        return init_text_params(rng, self.CFG, proj_dim=4)

    def batch(self, *texts):
        return pad_batch([tokenize(t, self.VOCAB, 8) for t in texts])

    def test_deterministic(self):
        params = self.params()
        ids, lengths = self.batch("there is coronary stenosis", "no pericardial effusion")
        _, e1, _ = text_embed_fwd(params, self.CFG, ids, lengths)
        _, e2, _ = text_embed_fwd(params, self.CFG, ids, lengths)
        assert np.array_equal(e1, e2)

    def test_padding_does_not_change_embedding(self):
        params = self.params()
        ids, lengths = self.batch("coronary stenosis", "there is no pericardial effusion")
        padded = np.pad(ids, ((0, 0), (0, self.CFG.max_len - ids.shape[1])))
        assert padded.shape[1] > ids.shape[1]
        f1, e1, _ = text_embed_fwd(params, self.CFG, ids, lengths)
        f2, e2, _ = text_embed_fwd(params, self.CFG, padded, lengths)
        assert np.allclose(f1, f2, atol=1e-6)
        assert np.allclose(e1, e2, atol=1e-6)

    def test_output_width_is_projection_dim(self):
        params = self.params()
        feats, emb, _ = text_embed_fwd(params, self.CFG, *self.batch("stenosis", "no effusion"))
        assert feats.shape == (2, 8)
        assert emb.shape == (2, 4)

    def test_out_of_range_token_id(self):
        params = self.params()
        for bad in (10_000, -1):
            with pytest.raises(ValueError, match="out of range"):
                text_embed_fwd(params, self.CFG, np.array([[2, bad]]), np.array([2]))


class TestEncodeImage:
    """The full-volume visual path: model.embed_volumes and tasks.predict_logits."""

    @staticmethod
    def bundle(vis_cfg=TOY_VIS):
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, vis_cfg, proj_dim=4)
        init_text_params(rng, TestEncodeText.CFG, 4, params)
        params["head.w"] = nn.trunc_normal(rng, (vis_cfg.embed_dim, 2))
        params["head.b"] = nn.zeros(2, np.float32)
        return ModelBundle(params=params, vis_cfg=vis_cfg, txt_cfg=TestEncodeText.CFG,
                           vocab=TestEncodeText.VOCAB, catalog=load_catalog())

    def test_deterministic_and_finite(self):
        bundle = self.bundle()
        vols = [toy_volume(3), toy_volume(4)]
        e1 = embed_volumes(bundle, vols)
        e2 = embed_volumes(bundle, vols)
        assert np.array_equal(e1, e2)
        assert np.all(np.isfinite(e1))
        assert e1.shape == (2, 4)
        assert predict_logits(bundle.params, TOY_VIS, vols).shape == (2, 2)

    def test_dim_mismatch(self):
        # a 4^3 volume under an 8^3 config has 8 patches, not 64; an 8^3 volume
        # under a 4^3 config has 64, not 8
        cfg8 = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=1, heads=2,
                                   mlp_ratio=2.0, input_dims=(8, 8, 8))
        for cfg, side, n in ((cfg8, 4, 8), (TOY_VIS, 8, 64)):
            bundle = self.bundle(cfg)
            vol = Volume3D(voxels=np.zeros((side,) * 3, dtype=np.float32))
            msg = f"{n} patches .* n_patches {cfg.n_patches}"
            with pytest.raises(ValueError, match=msg):
                embed_volumes(bundle, [vol])
            with pytest.raises(ValueError, match=msg):
                predict_logits(bundle.params, cfg, [vol])


class TestStageLossGradients:
    """Gradient checks of both pre-training losses on the shared toy problem."""

    def test_mae_loss_gradients(self):
        fn, params = toy_losses(5)["mae"]
        assert gradient_check(fn, params, n_probes=48, eps=1e-5, seed=7) < 1e-4

    def test_contrastive_loss_gradients(self):
        fn, params = toy_losses(8)["contrastive"]
        assert gradient_check(fn, params, n_probes=48, eps=1e-5, seed=11) < 1e-4
