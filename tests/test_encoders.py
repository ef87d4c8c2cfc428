import numpy as np
import pytest

from cardioclip import nn
from cardioclip.clip import clip_batch_fwd_bwd
from cardioclip.encoders import (
    Embedding,
    TextEncoderConfig,
    VisualEncoderConfig,
    embed_patches,
    encode_image,
    encode_text,
    encode_visible,
    init_text_params,
    init_visual_params,
    patch_tokens_bwd,
    patch_tokens_fwd,
)
from cardioclip.gradcheck import gradient_check
from cardioclip.mae import DecoderConfig, init_decoder_params, mae_batch_bwd, mae_batch_fwd
from cardioclip.tokenizer import TokenSequence, build_vocab, pad_batch, tokenize
from cardioclip.volume import Volume3D, patchify

TOY_VIS = VisualEncoderConfig(
    patch_size=(2, 2, 2), embed_dim=8, depth=1, heads=2, mlp_ratio=2.0, input_dims=(4, 4, 4)
)
TOY_DEC = DecoderConfig(embed_dim=4, depth=1, heads=2, mlp_ratio=2.0)


def toy_visual_params(seed=0, dtype=np.float64, with_decoder=False, spread=0.0):
    rng = np.random.default_rng(seed)
    params = init_visual_params(rng, TOY_VIS, proj_dim=4, dtype=dtype)
    if with_decoder:
        init_decoder_params(rng, TOY_VIS, TOY_DEC, params, dtype=dtype)
    if spread:
        # move off the near-zero init so gradients are large enough for
        # well-conditioned finite differences
        for k in params:
            params[k] = params[k] + rng.normal(0, spread, params[k].shape).astype(dtype)
    return params


def toy_volume(seed=0):
    rng = np.random.default_rng(seed)
    return Volume3D(voxels=rng.random((4, 4, 4), dtype=np.float32))


class TestEmbedPatches:
    def test_shape_65x128_at_default_geometry(self):
        cfg = VisualEncoderConfig()
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, cfg, proj_dim=64)
        vox = np.zeros((64, 64, 64), dtype=np.float32)
        g = patchify(Volume3D(voxels=vox), cfg.patch_size)
        tokens = embed_patches(g, cfg, params)
        assert tokens.shape == (65, 128)

    def test_zero_weights_rows_equal_positional_vectors(self):
        params = toy_visual_params()
        params["vis.patch.w"][:] = 0.0
        params["vis.patch.b"][:] = 0.0
        g = patchify(toy_volume(), TOY_VIS.patch_size)
        tokens = embed_patches(g, TOY_VIS, params)
        assert np.allclose(tokens[0], params["vis.cls"])
        assert np.allclose(tokens[1:], params["vis.pos"])

    def test_positions_pinned_to_slots_not_content(self):
        params = toy_visual_params()
        g = patchify(toy_volume(), TOY_VIS.patch_size)
        tokens = embed_patches(g, TOY_VIS, params)
        perm = np.random.default_rng(1).permutation(g.n_patches)
        g_perm = type(g)(patch_size=g.patch_size, grid_dims=g.grid_dims,
                         patches=g.patches[perm], spacing=g.spacing)
        tokens_perm = embed_patches(g_perm, TOY_VIS, params)
        std = (g.patches - g.patches.mean()) / (g.patches.std() + 1e-6)
        lin = std @ params["vis.patch.w"] + params["vis.patch.b"]
        assert np.allclose(tokens_perm[1:], lin[perm] + params["vis.pos"], atol=1e-6)
        assert not np.allclose(tokens_perm[1:], tokens[1:])

    def test_patch_length_mismatch(self):
        params = toy_visual_params()
        g = patchify(Volume3D(voxels=np.zeros((4, 4, 4), dtype=np.float32)), (4, 4, 4))
        with pytest.raises(ValueError, match="patch"):
            embed_patches(g, TOY_VIS, params)


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
    def test_depth_zero_is_identity(self):
        cfg = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=0, heads=2,
                                  input_dims=(4, 4, 4))
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, cfg, proj_dim=4)
        tokens = np.random.default_rng(1).normal(0, 1, (5, 8))
        assert np.array_equal(encode_visible(tokens, cfg, params), tokens)

    def test_duplicate_rows_stay_duplicates(self):
        params = toy_visual_params()
        row = np.random.default_rng(2).normal(0, 1, 8)
        tokens = np.stack([row, row, row])
        out = encode_visible(tokens, TOY_VIS, params)
        assert np.allclose(out[0], out[1])
        assert np.allclose(out[1], out[2])

    def test_single_token(self):
        params = toy_visual_params()
        out = encode_visible(np.zeros((1, 8)), TOY_VIS, params)
        assert out.shape == (1, 8)

    def test_width_mismatch(self):
        params = toy_visual_params()
        with pytest.raises(ValueError, match="embed_dim"):
            encode_visible(np.zeros((3, 5)), TOY_VIS, params)


class TestEncodeText:
    VOCAB = build_vocab(["there is coronary stenosis", "no pericardial effusion seen"])
    CFG = TextEncoderConfig(vocab_size=len(VOCAB), max_len=8, embed_dim=8, depth=1,
                            heads=2, mlp_ratio=2.0)

    def params(self, seed=0):
        rng = np.random.default_rng(seed)
        return init_text_params(rng, self.CFG, proj_dim=4)

    def test_deterministic(self):
        params = self.params()
        seq = tokenize("there is coronary stenosis", self.VOCAB, 8)
        e1 = encode_text(seq, self.CFG, params)
        e2 = encode_text(seq, self.CFG, params)
        assert np.array_equal(e1.vector, e2.vector)

    def test_padding_does_not_change_embedding(self):
        params = self.params()
        seq = tokenize("coronary stenosis", self.VOCAB, 8)
        padded = TokenSequence(token_ids=seq.token_ids + (0, 0, 0), length=seq.length)
        e1 = encode_text(seq, self.CFG, params)
        e2 = encode_text(padded, self.CFG, params)
        assert np.allclose(e1.vector, e2.vector, atol=1e-12)

    def test_output_width_is_projection_dim(self):
        params = self.params()
        e = encode_text(tokenize("stenosis", self.VOCAB, 8), self.CFG, params)
        assert e.vector.shape == (4,)
        assert e.norm == pytest.approx(float(np.linalg.norm(e.vector)))

    def test_out_of_range_token_id(self):
        params = self.params()
        seq = TokenSequence(token_ids=(2, 10_000), length=2)
        with pytest.raises(ValueError, match="out of range"):
            encode_text(seq, self.CFG, params)


class TestEncodeImage:
    def test_deterministic_and_finite(self):
        params = toy_visual_params(dtype=np.float32)
        v = toy_volume(3)
        e1 = encode_image(v, TOY_VIS, params)
        e2 = encode_image(v, TOY_VIS, params)
        assert np.array_equal(e1.vector, e2.vector)
        assert np.all(np.isfinite(e1.vector))
        assert e1.vector.shape == (4,)

    def test_dim_mismatch(self):
        params = toy_visual_params(dtype=np.float32)
        v = Volume3D(voxels=np.zeros((8, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="dims"):
            encode_image(v, TOY_VIS, params)


class TestStageLossGradients:
    """Acceptance-level gradient checks of both pre-training losses."""

    def test_mae_loss_gradients(self):
        params = toy_visual_params(seed=5, dtype=np.float64, with_decoder=True, spread=0.2)
        rng = np.random.default_rng(6)
        patches = rng.random((2, 8, 8))
        vis_idx = np.array([[0, 3, 5], [1, 2, 7]])
        mask_idx = np.array([[1, 2, 4, 6, 7], [0, 3, 4, 5, 6]])

        def loss_fn(p):
            loss, cache = mae_batch_fwd(p, TOY_VIS, TOY_DEC, patches, vis_idx, mask_idx)
            return loss, mae_batch_bwd(p, TOY_VIS, TOY_DEC, cache)

        err = gradient_check(loss_fn, params, n_probes=48, eps=1e-5, seed=7)
        assert err < 1e-4

    def test_contrastive_loss_gradients(self):
        vocab = TestEncodeText.VOCAB
        txt_cfg = TestEncodeText.CFG
        params = toy_visual_params(seed=8, dtype=np.float64)
        init_text_params(np.random.default_rng(9), txt_cfg, 4, params)
        rng = np.random.default_rng(10)
        for k in params:
            params[k] = params[k].astype(np.float64) + rng.normal(0, 0.2, params[k].shape)
        patches = rng.random((3, 8, 8))
        seqs = [tokenize(t, vocab, 8) for t in
                ["there is coronary stenosis", "no pericardial effusion", "stenosis seen"]]
        ids, lengths = pad_batch(seqs)
        targets = np.array([[0.6, 0.2, 0.2], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])

        def loss_fn(p):
            loss, grads, _ = clip_batch_fwd_bwd(p, TOY_VIS, txt_cfg, patches, ids,
                                                lengths, targets, tau=0.5)
            return loss, grads

        err = gradient_check(loss_fn, params, n_probes=48, eps=1e-5, seed=11)
        assert err < 1e-4

    def test_embedding_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Embedding(vector=np.array([1.0, np.nan]), norm=0.0)
