import weakref

import numpy as np
import pytest

from cardioclip import gradcheck, model, nn
from cardioclip.encoders import (
    TextEncoderConfig,
    VisualEncoderConfig,
    add_rows_at,
    init_text_params,
    init_visual_params,
    patch_tokens_bwd,
    patch_tokens_fwd,
    text_embed_bwd,
    text_embed_fwd,
    visual_embed_bwd,
    visual_embed_fwd,
)
from cardioclip.gradcheck import gradient_check, toy_losses
from cardioclip.model import ModelBundle, embed_texts, embed_volumes
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


def every_cell(patches):
    """The grid positions of a full volume's patches, as visual_embed_fwd passes them."""
    return np.broadcast_to(np.arange(patches.shape[1]), patches.shape[:2])


class TestEmbedPatches:
    """patch_tokens_fwd, the patch embedding both visual paths share."""

    def test_shape_65x128_at_default_geometry(self):
        cfg = VisualEncoderConfig()
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, cfg, proj_dim=64)
        vox = np.zeros((64, 64, 64), dtype=np.float32)
        patches = batch_patches([Volume3D(voxels=vox)], cfg.patch_size, np.float32)
        tokens, _ = patch_tokens_fwd(params, patches, every_cell(patches))
        assert tokens.shape == (1, 65, 128)

    def test_zero_weights_rows_equal_positional_vectors(self):
        params = toy_visual_params()
        params["vis.patch.w"][:] = 0.0
        params["vis.patch.b"][:] = 0.0
        patches = toy_patches([toy_volume(0), toy_volume(1)])
        tokens, _ = patch_tokens_fwd(params, patches, every_cell(patches))
        assert np.allclose(tokens[:, 0], params["vis.cls"])
        assert np.allclose(tokens[:, 1:], params["vis.pos"])

    def test_positions_pinned_to_slots_not_content(self):
        params = toy_visual_params()
        patches = toy_patches([toy_volume()])
        tokens, _ = patch_tokens_fwd(params, patches, every_cell(patches))
        perm = np.random.default_rng(1).permutation(patches.shape[1])
        tokens_perm, _ = patch_tokens_fwd(params, patches[:, perm], every_cell(patches))
        std = (patches[0] - patches.mean()) / (patches.std() + 1e-6)
        lin = std @ params["vis.patch.w"] + params["vis.patch.b"]
        assert np.allclose(tokens_perm[0, 1:], lin[perm] + params["vis.pos"], atol=1e-6)
        assert not np.allclose(tokens_perm[:, 1:], tokens[:, 1:])
        # permuted positions move each slot's vector with its patch
        tokens_moved, _ = patch_tokens_fwd(params, patches[:, perm], perm[None])
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
        _, standardized = patch_tokens_fwd(params, patches, every_cell(patches))
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

    @pytest.mark.parametrize("B", [1, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_cell_equals_the_identity_layout(self, B, dtype):
        """The full-volume path's grid positions give, bit for bit, the
        identity layout: vis.pos added to the patch rows in order, and its
        gradient the batch sum of dx in dx's dtype, cast to vis.pos's once (a
        float64 stage-2 backward cast per sample into float32 would differ)."""
        rng = np.random.default_rng(13)
        n, P, E = 64, 8, 128
        params = {"vis.patch.w": rng.normal(size=(P, E)).astype(np.float32),
                  "vis.patch.b": rng.normal(size=E).astype(np.float32),
                  "vis.pos": rng.normal(size=(n, E)).astype(np.float32),
                  "vis.cls": rng.normal(size=E).astype(np.float32)}
        patches = rng.random((B, n, P), dtype=np.float32)
        tokens, standardized = patch_tokens_fwd(params, patches, every_cell(patches))
        x = nn.matmul(standardized, params["vis.patch.w"])
        x += params["vis.patch.b"]
        assert tokens[:, 1:].tobytes() == (x + params["vis.pos"][None]).tobytes()
        dx = rng.normal(size=(B, n + 1, E)).astype(dtype)
        grads = {}
        patch_tokens_bwd(params, standardized, every_cell(patches), dx, grads)
        ref = dx[:, 1:].sum(axis=0).astype(params["vis.pos"].dtype)
        assert grads["vis.pos"].dtype == ref.dtype
        assert grads["vis.pos"].tobytes() == ref.tobytes()


class TestEncodeVisible:
    """The visual block stack: nn.stack_fwd over the "vis" blocks."""

    def test_depth_zero_is_final_norm_alone(self):
        cfg = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=0, heads=2,
                                  input_dims=(4, 4, 4))
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, cfg, proj_dim=4)
        tokens = np.random.default_rng(1).normal(0, 1, (2, 5, 8))
        out, _ = nn.stack_fwd(params, "vis", tokens, cfg.depth, cfg.heads)
        want, _ = nn.layernorm_fwd(params, "vis.lnf", tokens)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

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
        return init_text_params(rng, self.CFG, 4, {})

    def batch(self, *texts):
        return pad_batch([tokenize(t, self.VOCAB, 8) for t in texts])

    def embed(self, params, ids, lengths):
        """(features, projected): the tower's features and txt.proj over them."""
        feats, _ = text_embed_fwd(params, self.CFG, ids, lengths)
        return feats, nn.linear_fwd(params, "txt.proj", feats)[0]

    def test_deterministic(self):
        params = self.params()
        ids, lengths = self.batch("there is coronary stenosis", "no pericardial effusion")
        _, e1 = self.embed(params, ids, lengths)
        _, e2 = self.embed(params, ids, lengths)
        assert np.array_equal(e1, e2)

    def test_padding_does_not_change_embedding(self):
        params = self.params()
        ids, lengths = self.batch("coronary stenosis", "there is no pericardial effusion")
        padded = np.pad(ids, ((0, 0), (0, self.CFG.max_len - ids.shape[1])))
        assert padded.shape[1] > ids.shape[1]
        f1, e1 = self.embed(params, ids, lengths)
        f2, e2 = self.embed(params, padded, lengths)
        assert np.allclose(f1, f2, atol=1e-6)
        assert np.allclose(e1, e2, atol=1e-6)

    def test_output_width_is_projection_dim(self):
        params = self.params()
        feats, emb = self.embed(params, *self.batch("stenosis", "no effusion"))
        assert feats.shape == (2, 8)
        assert emb.shape == (2, 4)
        assert embed_texts(TestEncodeImage.bundle(), ["stenosis", "no effusion"]).shape == (2, 4)

    def test_out_of_range_token_id(self):
        params = self.params()
        for bad in (10_000, -1):
            with pytest.raises(ValueError, match="out of range"):
                text_embed_fwd(params, self.CFG, np.array([[2, bad]]), np.array([2]))

    def test_empty_list(self):
        with pytest.raises(ValueError, match="no sequences to pad: the list is empty"):
            pad_batch([])
        with pytest.raises(ValueError, match="no texts to embed: the list is empty"):
            embed_texts(TestEncodeImage.bundle(), [])

    @pytest.mark.parametrize("n", [65, 129])
    def test_embed_texts_rows_do_not_depend_on_their_chunk(self, n):
        # n copies of one report under a default-width tower: chunks are
        # balanced, so no text goes alone down BLAS's gemv path (with fixed
        # runs of TEXT_CHUNK the last one did, and its row differed)
        report = "there is coronary stenosis no pericardial effusion seen"
        cfg = TextEncoderConfig(vocab_size=len(self.VOCAB))
        params = init_text_params(np.random.default_rng(0), cfg, 64, {})
        bundle = ModelBundle(params=params, vis_cfg=TOY_VIS, txt_cfg=cfg, vocab=self.VOCAB)
        rows = embed_texts(bundle, [report] * n)
        assert all(r.tobytes() == rows[0].tobytes() for r in rows)


class TestTokenGradientScatter:
    """add_rows_at, the txt.tok gradient scatter, against np.add.at."""

    @pytest.mark.parametrize("target_dtype, rows_dtype, zero_frac, vocab", [
        (np.float32, np.float64, 0.0, 40),
        (np.float64, np.float64, 0.0, 40),
        (np.float32, np.float64, 0.5, 3),  # repeated ids, half the rows zero
    ])
    def test_bitwise_equal_to_add_at(self, target_dtype, rows_dtype, zero_frac, vocab):
        rng = np.random.default_rng(0)
        for n in (0, 1, 7, 300):
            ids = rng.integers(0, vocab, size=n)
            rows = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
            rows[rng.random(n) < zero_frac] = 0.0
            rows = rows.astype(rows_dtype)
            start = rng.normal(size=(vocab, 6)).astype(target_dtype)
            ref, got = start.copy(), start.copy()
            np.add.at(ref, ids, rows)
            add_rows_at(got, ids, rows)
            assert got.tobytes() == ref.tobytes()


class TestEncodeImage:
    """The full-volume visual path: model.embed_volumes and tasks.predict_logits."""

    @staticmethod
    def bundle(vis_cfg=TOY_VIS):
        rng = np.random.default_rng(0)
        params = init_visual_params(rng, vis_cfg, proj_dim=4)
        init_text_params(rng, TestEncodeText.CFG, 4, params)
        params["head.w"] = nn.trunc_normal(rng, (vis_cfg.embed_dim, 2))
        params["head.b"] = np.zeros(2, np.float32)
        return ModelBundle(params=params, vis_cfg=vis_cfg, txt_cfg=TestEncodeText.CFG,
                           vocab=TestEncodeText.VOCAB)

    def test_deterministic_and_finite(self):
        bundle = self.bundle()
        vols = [toy_volume(3), toy_volume(4)]
        e1 = embed_volumes(bundle, vols)
        e2 = embed_volumes(bundle, vols)
        assert np.array_equal(e1, e2)
        assert np.all(np.isfinite(e1))
        assert e1.shape == (2, 4)
        assert predict_logits(bundle.params, TOY_VIS, vols).shape == (2, 2)

    def test_patches_are_standardized_in_the_params_dtype(self):
        # float64 params: the head reads float64 features, as in fine-tuning
        params = {k: v.astype(np.float64) for k, v in self.bundle().params.items()}
        vols = [toy_volume(3), toy_volume(4)]
        feats = visual_embed_fwd(params, TOY_VIS, batch_patches(vols, TOY_VIS.patch_size,
                                                                np.float64))[0]
        want = nn.linear_fwd(params, "head", feats)[0]
        assert predict_logits(params, TOY_VIS, vols).tobytes() == want.tobytes()

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

    def test_wrong_dims_with_the_config_patch_count(self):
        # 4x8x16 under an 8^3 config with 2^3 patches is 2*4*8 = 64 patches, as
        # many as 8^3 has, but its patches sit on another grid
        cfg8 = VisualEncoderConfig(patch_size=(2, 2, 2), embed_dim=8, depth=1, heads=2,
                                   mlp_ratio=2.0, input_dims=(8, 8, 8))
        bundle = self.bundle(cfg8)
        good = Volume3D(voxels=np.ones((8, 8, 8), dtype=np.float32))
        bad = Volume3D(voxels=np.ones((4, 8, 16), dtype=np.float32))
        msg = r"volume 1 has dims \(4, 8, 16\), 64 patches .* input_dims \(8, 8, 8\)"
        with pytest.raises(ValueError, match=msg):
            embed_volumes(bundle, [good, bad])
        with pytest.raises(ValueError, match=msg):
            predict_logits(bundle.params, cfg8, [good, bad])

    def test_no_chunk_cache_outlives_its_forward(self, monkeypatch):
        # 5 volumes at 2 per chunk: 3 forwards; when each starts, the
        # standardized patches cached by every earlier one must be freed
        bundle = self.bundle()
        vols = [toy_volume(s) for s in range(5)]
        whole = embed_volumes(bundle, vols)
        real, cached = model.visual_embed_fwd, []

        def spy(params, cfg, patches):
            assert all(ref() is None for ref in cached), "an earlier chunk's cache is alive"
            out = real(params, cfg, patches)
            cached.append(weakref.ref(out[1][0]))  # the standardized patches
            return out

        monkeypatch.setattr(model, "VOLUME_CHUNK", 2)
        monkeypatch.setattr(model, "visual_embed_fwd", spy)
        chunked = embed_volumes(bundle, vols)
        assert len(cached) == 3
        np.testing.assert_allclose(chunked, whole, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("n", [9, 17])
    def test_rows_do_not_depend_on_the_chunk_size(self, monkeypatch, n):
        # chunks are balanced, so none holds a single volume (which would take
        # BLAS's gemv path and round differently) and none exceeds VOLUME_CHUNK
        bundle = self.bundle()
        vols = [toy_volume(s) for s in range(n)]
        real, sizes = model.visual_embed_fwd, []

        def spy(params, cfg, patches):
            sizes.append(patches.shape[0])
            return real(params, cfg, patches)

        monkeypatch.setattr(model, "visual_embed_fwd", spy)
        rows = {}
        for chunk in (4, 8, 32):
            monkeypatch.setattr(model, "VOLUME_CHUNK", chunk)
            sizes.clear()
            rows[chunk] = embed_volumes(bundle, vols)
            assert sum(sizes) == n and len(sizes) == -(-n // chunk)
            assert min(sizes) >= 2 and max(sizes) <= chunk, sizes
        assert rows[4].tobytes() == rows[8].tobytes() == rows[32].tobytes()

    def test_empty_list(self):
        bundle = self.bundle()
        with pytest.raises(ValueError, match="no volumes to embed: the list is empty"):
            embed_volumes(bundle, [])
        with pytest.raises(ValueError, match="no volumes to embed: the list is empty"):
            predict_logits(bundle.params, TOY_VIS, [])


class TestStageLossGradients:
    """Gradient checks of both pre-training losses on the shared toy problem."""

    def test_mae_loss_gradients(self):
        fn, params = toy_losses(5)["mae"]
        assert gradient_check(fn, params, n_probes=48, eps=1e-5, seed=7) < 1e-4

    def test_contrastive_loss_gradients(self):
        fn, params = toy_losses(8)["contrastive"]
        assert gradient_check(fn, params, n_probes=48, eps=1e-5, seed=11) < 1e-4

    # The fine-tune and text-warmup heads read the pooled features, so no
    # projection runs on their path and it gets no gradient.

    def test_finetune_head_loss_gradients_through_the_features(self):
        cfg = gradcheck.TOY_VIS
        rng = np.random.default_rng(3)
        params = init_visual_params(rng, cfg, proj_dim=4, dtype=np.float64)
        params["head.w"] = nn.trunc_normal(rng, (cfg.embed_dim, 3), dtype=np.float64)
        params["head.b"] = np.zeros(3, np.float64)
        for k in params:
            params[k] += rng.normal(0, 0.2, params[k].shape)
        patches = rng.random((3, cfg.n_patches, cfg.patch_volume))
        labels = np.array([0, 2, 1])

        def loss_fn(p):
            feats, cache = visual_embed_fwd(p, cfg, patches)
            logits, c_head = nn.linear_fwd(p, "head", feats)
            loss, dlogits, _ = nn.softmax_cross_entropy(logits, np.eye(3)[labels])
            grads = {}
            dfeats = nn.linear_bwd(p, "head", c_head, dlogits, grads)
            visual_embed_bwd(p, cache, dfeats, grads)
            return loss, grads

        assert not any(k.startswith("vis.proj") for k in loss_fn(params)[1])
        assert gradient_check(loss_fn, params, n_probes=64, seed=13) < gradcheck.TOLERANCE

    def test_text_warmup_head_loss_gradients_through_the_features(self):
        vocab = build_vocab(gradcheck.TOY_TEXTS)
        cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=8, embed_dim=8, depth=1,
                                heads=2, mlp_ratio=2.0)
        rng = np.random.default_rng(4)
        params = init_text_params(rng, cfg, 4, {}, dtype=np.float64)
        params["warm.head.w"] = nn.trunc_normal(rng, (cfg.embed_dim, 5), dtype=np.float64)
        params["warm.head.b"] = np.zeros(5, np.float64)
        for k in params:
            params[k] += rng.normal(0, 0.2, params[k].shape)
        ids, lengths = pad_batch([tokenize(t, vocab, 8) for t in gradcheck.TOY_TEXTS])
        targets = rng.random((len(gradcheck.TOY_TEXTS), 5))

        def loss_fn(p):
            feats, cache = text_embed_fwd(p, cfg, ids, lengths)
            logits, c_head = nn.linear_fwd(p, "warm.head", feats)
            loss, dlogits = nn.sigmoid_cross_entropy(logits, targets)
            grads = {}
            dfeats = nn.linear_bwd(p, "warm.head", c_head, dlogits, grads)
            text_embed_bwd(p, cache, dfeats, grads)
            return loss, grads

        assert not any(k.startswith("txt.proj") for k in loss_fn(params)[1])
        assert gradient_check(loss_fn, params, n_probes=64, seed=17) < gradcheck.TOLERANCE


# The loss bodies nn.softmax_cross_entropy and nn.sigmoid_cross_entropy
# replaced, as they were written: stage 2's soft-target cross-entropy, the
# fine-tune head's integer-label one, and the text warmup's sigmoid one.


def ref_soft_ce(logits, targets):
    B = logits.shape[0]
    logp = nn.log_softmax(logits)
    loss = float(-(targets * logp).mean(axis=0).sum())
    p = np.exp(logp)
    row_mass = targets.sum(axis=1, keepdims=True)
    dlogits = (p * row_mass - targets) / B
    return loss, dlogits


def ref_label_ce(logits, labels):
    logp = nn.log_softmax(logits)
    B = logits.shape[0]
    loss = float(-logp[np.arange(B), labels].mean())
    p = np.exp(logp)
    d = p.copy()
    d[np.arange(B), labels] -= 1.0
    return loss, d / B, p


def ref_sigmoid_ce(logits, targets):
    # the loss as softplus(z) - t * z on the unclipped logits; the gradient as written
    softplus = np.maximum(logits, 0) + np.log1p(np.exp(-np.abs(logits)))
    loss = float((softplus - targets * logits).mean())
    z = np.clip(logits, -30, 30)
    p = 1.0 / (1.0 + np.exp(-z))
    return loss, (p - targets) / targets.size


class TestHeadLosses:
    """nn's two head losses: finite-difference checked, and bitwise the
    bodies they replaced."""

    @staticmethod
    def soft_rows(rng, B, K):
        t = rng.random((B, K))
        return t / t.sum(axis=1, keepdims=True)

    def test_softmax_cross_entropy_gradient_with_soft_targets(self):
        rng = np.random.default_rng(21)
        params = {"z": rng.normal(0, 2.0, (6, 5))}
        # row masses of 1 and 0.5: the gradient scales p by each row's mass
        targets = self.soft_rows(rng, 6, 5) * np.array([1.0, 0.5] * 3)[:, None]

        def loss_fn(p):
            loss, dz, _ = nn.softmax_cross_entropy(p["z"], targets)
            return loss, {"z": dz}

        assert gradient_check(loss_fn, params, n_probes=30, seed=23) < 1e-7

    def test_sigmoid_cross_entropy_stays_finite_past_the_clip(self):
        logits = np.array([[-1e3, -31.0, 0.0, 31.0, 1e3]])
        for targets in (np.zeros_like(logits), np.ones_like(logits), np.full_like(logits, 0.3)):
            loss, d = nn.sigmoid_cross_entropy(logits, targets)
            assert np.isfinite(loss) and np.all(np.isfinite(d))
        # a confidently wrong logit costs about its own size, as the gradient says,
        # not the loss at the +/-30 clip
        wrong = np.array([[1.0, 0.0]])
        far, _ = nn.sigmoid_cross_entropy(np.array([[-1e3, 1e3]]), wrong)
        at_clip, _ = nn.sigmoid_cross_entropy(np.array([[-30.0, 30.0]]), wrong)
        assert far == 1e3 and 30.0 < at_clip < 30.0 + 1e-12

    @pytest.mark.parametrize("target", [0.0, 0.3, 1.0])
    def test_sigmoid_cross_entropy_gradient_past_the_clip(self, target):
        params = {"z": np.array([[-1e3, -31.0, 31.0, 1e3]])}
        targets = np.full_like(params["z"], target)

        def loss_fn(p):
            loss, dz = nn.sigmoid_cross_entropy(p["z"], targets)
            return loss, {"z": dz}

        assert gradient_check(loss_fn, params, n_probes=4, seed=29) < gradcheck.TOLERANCE

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("K", [2, 5])
    def test_softmax_cross_entropy_is_the_bodies_it_replaced(self, dtype, K):
        rng = np.random.default_rng(K)
        for _ in range(50):
            B = int(rng.integers(1, 17))
            logits = rng.normal(0, 3.0, (B, K)).astype(dtype)
            labels = rng.integers(0, K, B)
            loss, d, p = nn.softmax_cross_entropy(logits, np.eye(K, dtype=dtype)[labels])
            ref_loss, ref_d, ref_p = ref_label_ce(logits, labels)
            assert d.dtype == ref_d.dtype and p.dtype == ref_p.dtype
            assert np.array_equal(d, ref_d) and np.array_equal(p, ref_p)
            assert np.isclose(loss, ref_loss, rtol=1e-5 if dtype == np.float32 else 1e-12)
            soft = self.soft_rows(rng, B, K)  # float64, as stage 2's targets are
            loss, d, p = nn.softmax_cross_entropy(logits, soft)
            ref_loss, ref_d = ref_soft_ce(logits, soft)
            assert loss == ref_loss and d.dtype == ref_d.dtype and np.array_equal(d, ref_d)
            assert np.array_equal(p, np.exp(nn.log_softmax(logits)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_cross_entropy_is_the_body_it_replaced(self, dtype):
        rng = np.random.default_rng(5)
        logits = rng.normal(0, 20.0, (16, 8)).astype(dtype)
        targets = rng.random((16, 8))
        loss, d = nn.sigmoid_cross_entropy(logits, targets)
        ref_loss, ref_d = ref_sigmoid_ce(logits, targets)
        assert loss == ref_loss and d.dtype == ref_d.dtype and np.array_equal(d, ref_d)
