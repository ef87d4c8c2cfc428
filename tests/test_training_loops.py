"""The training loop the four stages share (optim.Trainer): the non-finite
loss check, the per-epoch records handed to trace_hook, and stage 2's
skipped trailing singleton batch."""

import numpy as np
import pytest

from cardioclip import clip
from cardioclip.clip import ContrastiveConfig, train_clip, warmup_text_encoder
from cardioclip.encoders import (
    TextEncoderConfig,
    VisualEncoderConfig,
    init_text_params,
    init_visual_params,
)
from cardioclip.mae import DecoderConfig, MAETrainConfig, init_decoder_params, train_mae
from cardioclip.model import ModelBundle
from cardioclip.optim import ScheduleConfig, Trainer, lr_at_step
from cardioclip.reports import load_catalog, structured_from_flags
from cardioclip.supervision import pathology_vector
from cardioclip.tasks import FinetuneConfig, finetune_classifier
from cardioclip.tokenizer import build_vocab
from cardioclip.volume import Volume3D

CAT = load_catalog()
VIS = VisualEncoderConfig(patch_size=(4, 4, 4), embed_dim=16, depth=1, heads=2,
                          mlp_ratio=2.0, input_dims=(8, 8, 8))
DEC = DecoderConfig(embed_dim=8, depth=1, heads=2, mlp_ratio=2.0)


def volumes(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Volume3D(voxels=rng.random((8, 8, 8), dtype=np.float32)) for _ in range(n)]


def pairs(n, seed=0):
    """(volume, free text, structured report, pathology vector) per case."""
    rng = np.random.default_rng(seed)
    out = []
    for i, v in enumerate(volumes(n, seed)):
        s = structured_from_flags(f"c{i}", tuple(bool(f) for f in rng.integers(0, 2, CAT.size)),
                                  CAT)
        out.append((v, s.text(), s, pathology_vector(s)))
    return out


def visual_params(seed=0):
    rng = np.random.default_rng(seed)
    params = init_visual_params(rng, VIS, proj_dim=8)
    init_decoder_params(rng, VIS, DEC, params)
    return params


def text_setup(cases, params):
    vocab = build_vocab([text for _, text, _, _ in cases])
    txt = TextEncoderConfig(vocab_size=len(vocab), max_len=32, embed_dim=16, depth=1, heads=2,
                            mlp_ratio=2.0)
    init_text_params(np.random.default_rng(1), txt, 8, params)
    return txt, vocab


class TestTrainer:
    def test_step_counts_and_names_the_epoch_of_a_non_finite_loss(self):
        params = {"w": np.ones((2, 2), dtype=np.float32)}
        grads = {"w": np.ones((2, 2), dtype=np.float32)}
        trainer = Trainer("toy", params, weight_decay=0.0)
        cfg = MAETrainConfig(epochs=2, batch=2)
        # 5 cases at batch 2: 3 steps per epoch, so step 3 is epoch 1's first
        with pytest.raises(FloatingPointError, match=r"non-finite toy loss at step 3 \(epoch 1\)"):
            for _, batches, _ in trainer.epochs(5, cfg, 1e-3, seed=0, order_name="toy"):
                for _ in batches:
                    trainer.step(float("nan") if trainer.steps == 3 else 1.0, grads)
        assert trainer.steps == 3 and len(trainer.trace) == 1

    def test_constant_rate_step_outside_epochs(self):
        params = {"w": np.ones((2, 2), dtype=np.float32)}
        trainer = Trainer("toy", params, weight_decay=0.0)
        trainer.step(0.5, {"w": np.ones((2, 2), dtype=np.float32)}, lr=1e-2)
        assert trainer.steps == 1 and trainer.lr == 1e-2
        assert np.all(params["w"] < 1.0)
        with pytest.raises(FloatingPointError, match="non-finite toy loss at step 1$"):
            trainer.step(float("inf"), {}, lr=1e-2)


class TestNonFiniteLoss:
    """Each of the four loops refuses a non-finite loss, naming its stage and step."""

    def test_reconstruction(self):
        params = visual_params()
        params["dec.head.b"][0] = np.nan
        with pytest.raises(FloatingPointError,
                           match=r"non-finite reconstruction loss at step 0 \(epoch 0\)"):
            train_mae(volumes(4), VIS, DEC, MAETrainConfig(epochs=1, batch=2), seed=0,
                      params=params)

    def test_text_warmup(self):
        cases = pairs(4)
        params = visual_params()
        txt, vocab = text_setup(cases, params)
        params["txt.lnf.b"][0] = np.nan
        cfg = ContrastiveConfig(text_warmup_steps=3, text_warmup_batch=2)
        with pytest.raises(FloatingPointError, match="non-finite text warmup loss at step 0"):
            warmup_text_encoder(cases, params, txt, vocab, cfg, seed=0)

    def test_contrastive(self):
        cases = pairs(4)
        params = visual_params()
        txt, vocab = text_setup(cases, params)
        params["vis.proj.b"][0] = np.nan
        cfg = ContrastiveConfig(epochs=1, batch=2, text_warmup_steps=0)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite contrastive loss at step 0 \(epoch 0\)"):
            train_clip(cases, params, VIS, txt, vocab, cfg, seed=0)

    @pytest.mark.parametrize("freeze", [True, False])
    def test_fine_tune(self, freeze):
        cases = pairs(4)
        params = visual_params()
        txt, vocab = text_setup(cases, params)
        params["vis.lnf.b"][0] = np.nan
        bundle = ModelBundle(params=params, vis_cfg=VIS, txt_cfg=txt, vocab=vocab, catalog=CAT)
        train = [(v, i % 2) for i, (v, _, _, _) in enumerate(cases)]
        cfg = FinetuneConfig(epochs=1, batch=2, freeze_encoder=freeze)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite fine-tune loss at step 0 \(epoch 0\)"):
            finetune_classifier(train, params, 2, cfg, bundle, seed=0)


class TestTraceHook:
    def test_reconstruction_hook_gets_the_returned_records(self):
        seen = []
        _, trace = train_mae(volumes(5), VIS, DEC, MAETrainConfig(epochs=3, batch=2), seed=2,
                             params=visual_params(), trace_hook=seen.append)
        assert len(trace) == 3 and [r["epoch"] for r in trace] == [0, 1, 2]
        assert seen == trace and all(a is b for a, b in zip(seen, trace))
        assert all(set(r) == {"epoch", "mean_loss", "lr_last"} for r in trace)

    def test_contrastive_hook_gets_the_returned_records(self):
        cases = pairs(4)
        params = visual_params()
        txt, vocab = text_setup(cases, params)
        seen = []
        cfg = ContrastiveConfig(epochs=2, batch=2, text_warmup_steps=0)
        _, trace = train_clip(cases, params, VIS, txt, vocab, cfg, seed=0, trace_hook=seen.append)
        assert len(trace) == 2 and [r["epoch"] for r in trace] == [0, 1]
        assert seen == trace and all(a is b for a, b in zip(seen, trace))
        assert all(set(r) == {"epoch", "mean_loss", "lr_last", "variant_structured_frac"}
                   for r in trace)


class TestContrastiveSingletonBatch:
    def test_trailing_singleton_skipped_and_schedule_counts_only_the_batches_run(self,
                                                                                  monkeypatch):
        # 5 pairs at batch 2: batches of 2, 2 and 1 per epoch. The singleton
        # is skipped, and the schedule counts the 2 batches that run per epoch.
        cases = pairs(5)
        params = visual_params()
        txt, vocab = text_setup(cases, params)
        sizes = []
        base = clip.clip_batch_fwd_bwd

        def spy(params, vis_cfg, txt_cfg, patches, *rest):
            sizes.append(patches.shape[0])
            return base(params, vis_cfg, txt_cfg, patches, *rest)

        monkeypatch.setattr(clip, "clip_batch_fwd_bwd", spy)
        cfg = ContrastiveConfig(epochs=2, batch=2, warmup_frac=0.34, text_warmup_steps=0)
        _, trace = train_clip(cases, params, VIS, txt, vocab, cfg, seed=0)
        assert sizes == [2, 2, 2, 2]
        sched = ScheduleConfig(cfg.lr, 1, 4, cfg.min_lr)  # round(0.34 * 4) = 1 warmup step
        # steps 0, 1 ran in epoch 0 and steps 2, 3, the last scheduled, in epoch 1
        assert trace[0]["lr_last"] == lr_at_step(sched, 1)
        assert trace[-1]["lr_last"] == lr_at_step(sched, 3)
