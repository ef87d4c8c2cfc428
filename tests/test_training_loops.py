"""The training loop the four stages share (optim.Trainer): the non-finite
loss check, the per-epoch records handed to trace_hook, stage 2's skipped
trailing singleton batch, that no step's buffers outlive the step, that
a step holds one copy of its patches, that stage 1 frees its patch batch
in the loss and its loss gradient in dec.head's backward, that the backward
frees every block's activations before the patch embedding's backward and
the standardized patches before the patch input gradient, and that each
loop refuses a volume of the wrong shape."""

import weakref

import numpy as np
import pytest

from cardioclip import clip, encoders, mae, nn, optim, tasks
from cardioclip.clip import ContrastiveConfig, train_clip, warmup_text_encoder
from cardioclip.encoders import (
    TextEncoderConfig,
    VisualEncoderConfig,
    init_text_params,
    init_visual_params,
)
from cardioclip.mae import DecoderConfig, MAETrainConfig, init_decoder_params, train_mae
from cardioclip.optim import Trainer, lr_at_step
from cardioclip.reports import load_catalog, structured_from_flags
from cardioclip.supervision import pathology_vector
from cardioclip.synth import calcium_wording_severity
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
        trainer = Trainer("toy", params)
        cfg = MAETrainConfig(epochs=2, batch=2)
        # 5 cases at batch 2: 3 steps per epoch, so step 3 is epoch 1's first
        with pytest.raises(FloatingPointError, match=r"non-finite toy loss at step 3 \(epoch 1\)"):
            for _, batches, _ in trainer.epochs(5, cfg, seed=0, order_name="toy"):
                for _ in batches:
                    trainer.step(float("nan") if trainer.steps == 3 else 1.0, grads)
        assert trainer.steps == 3 and len(trainer.trace) == 1

    def test_constant_rate_step_outside_epochs(self):
        params = {"w": np.ones((2, 2), dtype=np.float32)}
        trainer = Trainer("toy", params)
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
            warmup_text_encoder(cases, params, txt, vocab, cfg, 0, calcium_wording_severity)

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
        params = visual_params()
        params["vis.lnf.b"][0] = np.nan
        train = [(v, i % 2) for i, v in enumerate(volumes(4))]
        cfg = FinetuneConfig(epochs=1, batch=2, freeze_encoder=freeze)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite fine-tune loss at step 0 \(epoch 0\)"):
            finetune_classifier(train, params, 2, cfg, VIS, seed=0)


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
        # round(0.34 * 4) = 1 warmup step; steps 0, 1 ran in epoch 0 and
        # steps 2, 3, the last scheduled, in epoch 1
        assert trace[0]["lr_last"] == lr_at_step(cfg.lr, 1, 4, 1)
        assert trace[-1]["lr_last"] == lr_at_step(cfg.lr, 1, 4, 3)


def arrays_in(obj):
    """Every ndarray in obj, looking through tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from arrays_in(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from arrays_in(x)


def run_reconstruction():
    train_mae(volumes(6), VIS, DEC, MAETrainConfig(epochs=1, batch=2), seed=0,
              params=visual_params())


def run_text_warmup():
    cases = pairs(6)
    params = visual_params()
    txt, vocab = text_setup(cases, params)
    cfg = ContrastiveConfig(text_warmup_steps=3, text_warmup_batch=2)
    warmup_text_encoder(cases, params, txt, vocab, cfg, 0, calcium_wording_severity)


def run_contrastive():
    cases = pairs(6)
    params = visual_params()
    txt, vocab = text_setup(cases, params)
    cfg = ContrastiveConfig(epochs=1, batch=2, text_warmup_steps=0)
    train_clip(cases, params, VIS, txt, vocab, cfg, seed=0)


def run_fine_tune():
    train = [(v, i % 2) for i, v in enumerate(volumes(6))]
    cfg = FinetuneConfig(epochs=1, batch=2, freeze_encoder=False)
    finetune_classifier(train, visual_params(), 2, cfg, VIS, seed=0)


class TestStepLifetimes:
    """Each loop holds one step of buffers: when a step's first forward
    starts, the inputs, forward cache and gradients of every earlier step
    are freed. (Fine-tuning: test_tasks.py.)"""

    @pytest.mark.parametrize("module, fwd_name, run", [
        (mae, "mae_batch_fwd", run_reconstruction),
        (clip, "text_embed_fwd", run_text_warmup),
        (clip, "visual_embed_fwd", run_contrastive),
    ], ids=["reconstruction", "text_warmup", "contrastive"])
    def test_no_step_buffers_outlive_the_step(self, monkeypatch, module, fwd_name, run):
        real_fwd, real_step, refs, forwards = getattr(module, fwd_name), optim.Trainer.step, [], []

        def spy_fwd(params, *args):
            assert all(ref() is None for ref in refs), "an earlier step's array is alive"
            out = real_fwd(params, *args)
            owned = {id(p) for p in params.values()}
            refs.extend(weakref.ref(a) for a in arrays_in((args, out)) if id(a) not in owned)
            forwards.append(len(refs))
            return out

        def spy_step(self, loss, grads, lr=None):
            refs.extend(weakref.ref(g) for g in grads.values())
            real_step(self, loss, grads, lr)

        monkeypatch.setattr(module, fwd_name, spy_fwd)
        monkeypatch.setattr(optim.Trainer, "step", spy_step)
        run()
        # three steps, the first forward's inputs and cache alone holding > 10 arrays
        assert len(forwards) == 3 and forwards[0] > 10


class TestOneCopyOfPatches:
    """Within a step, the raw patch batch dies once the forward has cached its
    standardized copy: nothing but the forward holds it."""

    @pytest.mark.parametrize("module, run", [(clip, run_contrastive), (tasks, run_fine_tune)],
                             ids=["contrastive", "fine_tune"])
    def test_raw_batch_is_freed_before_the_visual_backward(self, monkeypatch, module, run):
        real_fwd, real_bwd, raw, freed = module.visual_embed_fwd, module.visual_embed_bwd, [], []

        def spy_fwd(params, cfg, patches):
            raw.append(weakref.ref(patches))
            return real_fwd(params, cfg, patches)

        def spy_bwd(*args, **kwargs):
            freed.append(raw[-1]() is None)
            return real_bwd(*args, **kwargs)

        monkeypatch.setattr(module, "visual_embed_fwd", spy_fwd)
        monkeypatch.setattr(module, "visual_embed_bwd", spy_bwd)
        run()
        assert freed == [True] * 3

    def test_visible_patch_gather_is_freed_before_the_loss(self, monkeypatch):
        real_tokens, real_mse, gathers, freed = mae.patch_tokens_fwd, mae.masked_mse, [], []

        def spy_tokens(params, patches, positions):
            gathers.append(weakref.ref(patches))
            return real_tokens(params, patches, positions)

        def spy_mse(*args):
            freed.append(gathers[-1]() is None)
            return real_mse(*args)

        monkeypatch.setattr(mae, "patch_tokens_fwd", spy_tokens)
        monkeypatch.setattr(mae, "masked_mse", spy_mse)
        run_reconstruction()
        assert freed == [True] * 3


class TestStageOneBatchDiesInTheLoss:
    """A stage-1 step holds its patch batch only until masked_mse has read
    the masked rows, and the loss gradient only until dec.head's backward
    has read it. The batch is checked from a later call: a masked_mse spy's
    argument tuple would keep it alive."""

    def test_batch_is_freed_before_the_backward_and_the_cache_emptied(self, monkeypatch):
        real_patches, real_bwd, batches, freed, left = (mae.batch_patches, mae.mae_batch_bwd,
                                                        [], [], [])

        def spy_patches(*args):
            batch = real_patches(*args)
            batches.append(weakref.ref(batch))
            return batch

        def spy_bwd(params, cache):
            freed.append(batches[-1]() is None)
            grads = real_bwd(params, cache)
            left.append(len(cache))
            return grads

        monkeypatch.setattr(mae, "batch_patches", spy_patches)
        monkeypatch.setattr(mae, "mae_batch_bwd", spy_bwd)
        run_reconstruction()
        assert freed == [True] * 3 and left == [0] * 3

    def test_loss_gradient_and_head_input_die_before_the_decoder_backward(self, monkeypatch):
        real_mse, real_linear, real_stack_bwd = mae.masked_mse, nn.linear_fwd, nn.stack_bwd
        refs, seen = [], []

        def spy_mse(*args):
            loss, d_recon = real_mse(*args)
            refs.append(weakref.ref(d_recon))
            return loss, d_recon

        def spy_linear(params, prefix, x):
            y, cache = real_linear(params, prefix, x)
            if prefix == "dec.head":
                refs.append(weakref.ref(cache))
            return y, cache

        def spy_stack_bwd(params, prefix, *args):
            if prefix == "dec":
                seen.append((len(refs), sum(r() is not None for r in refs)))
                refs.clear()
            return real_stack_bwd(params, prefix, *args)

        monkeypatch.setattr(mae, "masked_mse", spy_mse)
        monkeypatch.setattr(nn, "linear_fwd", spy_linear)
        monkeypatch.setattr(nn, "stack_bwd", spy_stack_bwd)
        run_reconstruction()
        assert seen == [(2, 0)] * 3


class TestActivationsDieInTheBackward:
    """Each block's activations are freed as soon as the backward has read
    them: when the patch embedding's backward starts, no array of any block
    cache of the visual tower (or of stage 1's decoder) is alive, and
    stack_bwd has emptied its caches list."""

    @pytest.mark.parametrize("run", [run_contrastive, run_fine_tune, run_reconstruction],
                             ids=["contrastive", "fine_tune", "reconstruction"])
    def test_block_caches_die_before_patch_tokens_bwd(self, monkeypatch, run):
        real_stack_fwd, real_tokens_bwd = nn.stack_fwd, encoders.patch_tokens_bwd
        refs, stacks, seen = [], [], []

        def spy_stack_fwd(params, prefix, *args, **kwargs):
            x, caches = real_stack_fwd(params, prefix, *args, **kwargs)
            if prefix in ("vis", "dec"):  # the text tower's backward runs after the visual one
                refs.extend(weakref.ref(a) for c in caches for a in arrays_in(c))
                stacks.append(caches)
            return x, caches

        def spy_tokens_bwd(*args):
            seen.append((len(refs), sum(r() is not None for r in refs),
                         [len(caches) for caches in stacks]))
            refs.clear()
            stacks.clear()
            return real_tokens_bwd(*args)

        monkeypatch.setattr(nn, "stack_fwd", spy_stack_fwd)
        monkeypatch.setattr(encoders, "patch_tokens_bwd", spy_tokens_bwd)
        monkeypatch.setattr(mae, "patch_tokens_bwd", spy_tokens_bwd)
        run()
        n_stacks = 2 if run is run_reconstruction else 1
        # three steps, each with 14 arrays per one-block stack: ln1 (2),
        # attention (6), ln2 (2) and gelu (2), then lnf (2)
        assert seen == [(14 * n_stacks, 0, [0] * n_stacks)] * 3


class TestPatchesDieBeforeTheInputGradient:
    """The patch embedding's backward drops the standardized patches once
    vis.patch.w's gradient is accumulated: on the full-volume path nothing
    else holds them, so they are freed before the patch input gradient (the
    one product whose output is patch_volume wide) is computed."""

    @pytest.mark.parametrize("run", [run_contrastive, run_fine_tune],
                             ids=["contrastive", "fine_tune"])
    def test_standardized_patches_are_freed_first(self, monkeypatch, run):
        real_tokens_fwd, real_matmul, refs, freed = encoders.patch_tokens_fwd, nn.matmul, [], []

        def spy_tokens_fwd(params, patches, positions):
            x, cache = real_tokens_fwd(params, patches, positions)
            refs.append(weakref.ref(cache))
            return x, cache

        def spy_matmul(x, w):
            if w.shape[-1] == VIS.patch_volume:
                freed.append(refs[-1]() is None)
            return real_matmul(x, w)

        monkeypatch.setattr(encoders, "patch_tokens_fwd", spy_tokens_fwd)
        monkeypatch.setattr(nn, "matmul", spy_matmul)
        run()
        assert freed == [True] * 3


class TestWrongShapeRefused:
    """Every loop refuses, before any step, a volume whose dims are not the
    config's input_dims even when it has as many patches: 4x8x16 at 4^3
    patches is 1*2*4 = 8 patches, as many as 8^3, on another grid."""

    MSG = r"volume 1 has dims \(4, 8, 16\), 8 patches .* input_dims \(8, 8, 8\)"

    @staticmethod
    def mixed(n):
        bad = Volume3D(voxels=np.ones((4, 8, 16), dtype=np.float32))
        return [bad if i == 1 else v for i, v in enumerate(volumes(n))]

    def fine_tune(self, on_eval):
        good = [(v, i % 2) for i, v in enumerate(volumes(4))]
        bad = [(v, i % 2) for i, v in enumerate(self.mixed(4))]
        finetune_classifier(good if on_eval else bad, visual_params(), 2,
                            FinetuneConfig(epochs=1, batch=2), VIS, seed=0,
                            eval_set=bad if on_eval else good)

    def contrastive(self):
        cases = [(v, *rest) for v, (_, *rest) in zip(self.mixed(4), pairs(4))]
        params = visual_params()
        txt, vocab = text_setup(cases, params)
        train_clip(cases, params, VIS, txt, vocab, ContrastiveConfig(epochs=1, batch=2), seed=0)

    @pytest.mark.parametrize("stage", ["reconstruction", "contrastive", "fine_tune_train",
                                       "fine_tune_eval"])
    def test_refused_before_any_step(self, monkeypatch, stage):
        def refuse(*_, **__):
            raise AssertionError("an optimizer step ran")

        monkeypatch.setattr(optim.Trainer, "step", refuse)
        run = {
            "reconstruction": lambda: train_mae(self.mixed(4), VIS, DEC,
                                                MAETrainConfig(epochs=1, batch=2), seed=0),
            "contrastive": self.contrastive,
            "fine_tune_train": lambda: self.fine_tune(on_eval=False),
            "fine_tune_eval": lambda: self.fine_tune(on_eval=True),
        }[stage]
        with pytest.raises(ValueError, match=self.MSG):
            run()
