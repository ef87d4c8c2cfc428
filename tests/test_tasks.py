import numpy as np
import pytest

from cardioclip import tasks
from cardioclip.encoders import TextEncoderConfig, VisualEncoderConfig, init_text_params, init_visual_params
from cardioclip.model import ModelBundle, embed_texts, embed_volumes, unit_rows
from cardioclip.reports import load_catalog
from cardioclip.seeding import substream
from cardioclip.synth import plant_signature, smooth_background
from cardioclip.tasks import (
    FinetuneConfig,
    cac_confidences,
    finetune_classifier,
    retrieval_metrics,
    zero_shot_scores,
)
from cardioclip.tokenizer import build_vocab
from cardioclip.volume import Volume3D

CAT = load_catalog()
VIS = VisualEncoderConfig(patch_size=(16, 16, 16), input_dims=(32, 32, 32),
                          embed_dim=32, depth=1, heads=2, mlp_ratio=2.0)
TXT_TEXTS = [
    "there is coronary stenosis no pericardial effusion cardiomegaly",
    "coronary artery calcium aortic calcification atherosclerosis",
    "pulmonary arterial hypertension is suspected there is no",
]


@pytest.fixture(scope="module")
def bundle():
    vocab = build_vocab(TXT_TEXTS)
    txt_cfg = TextEncoderConfig(vocab_size=len(vocab), max_len=16, embed_dim=32,
                                depth=1, heads=2, mlp_ratio=2.0)
    params = init_visual_params(substream(0, "tv"), VIS, proj_dim=16)
    init_text_params(substream(0, "tt"), txt_cfg, 16, params)
    return ModelBundle(params=params, vis_cfg=VIS, txt_cfg=txt_cfg, vocab=vocab, catalog=CAT)


def make_volume(seed=0, motif=None, strength=0.6):
    v = Volume3D(voxels=smooth_background((32, 32, 32), substream(seed, "bg")))
    if motif is not None:
        v = plant_signature(v, motif, strength, substream(seed, "m", motif))
    return v


class TestZeroShot:
    """zero_shot_scores, the s_p - s_n margin behind zero-shot AUROC."""

    def test_returns_scores_and_decision(self, bundle):
        vols = [make_volume(1), make_volume(2)]
        scores = zero_shot_scores(vols, "coronary stenosis", bundle)
        v = unit_rows(embed_volumes(bundle, vols))
        t = unit_rows(embed_texts(bundle, ["There is coronary stenosis",
                                           "There is no coronary stenosis"]))
        s_p, s_n = (v @ t.T).T
        assert np.all(np.abs(s_p) <= 1.0 + 1e-6) and np.all(np.abs(s_n) <= 1.0 + 1e-6)
        np.testing.assert_allclose(scores, s_p - s_n, atol=1e-6)
        assert np.array_equal(scores > 0, s_p > s_n)

    def test_unknown_abnormality(self, bundle):
        with pytest.raises(KeyError):
            zero_shot_scores([make_volume(1)], "aortic stenosis", bundle)

    def test_decision_invariant_to_image_rescaling(self, bundle, monkeypatch):
        vols = [make_volume(3), make_volume(4)]
        base = tasks.embed_volumes
        s1 = zero_shot_scores(vols, "cardiomegaly", bundle)
        monkeypatch.setattr(tasks, "embed_volumes",
                            lambda b, vols, **kw: 10.0 * base(b, vols, **kw))
        s2 = zero_shot_scores(vols, "cardiomegaly", bundle)
        np.testing.assert_allclose(s1, s2, atol=1e-6)
        assert np.array_equal(np.sign(s1), np.sign(s2))


def retrieve(bundle, v, t, flags, recall_ks=(1, 5), precision_ks=(1, 5)):
    """retrieval_metrics over unit-norm rows v, t, with case ids "0", "1", ..."""
    ids = [str(i) for i in range(len(v))]
    return retrieval_metrics(v, t, ids, np.asarray(flags, dtype=bool), bundle,
                             recall_ks, precision_ks)


def no_flags(n):
    return np.zeros((n, CAT.size), dtype=bool)


class TestRetrieval:
    """retrieval_metrics, the one Recall@K / keyword P@K scorer."""

    def test_pool_of_one(self, bundle):
        v = unit_rows(embed_volumes(bundle, [make_volume(4)]))
        t = unit_rows(embed_texts(bundle, ["only report"]))
        scores = retrieve(bundle, v, t, no_flags(1))
        assert all(r == 1.0 for r in scores["recall"].values())
        assert scores["keyword"] == {}  # findings without a positive are skipped

    def test_duplicate_pool_entries_tie_break_by_index(self, bundle):
        # three identical volumes and reports: every score ties, so each
        # ranking is the pool order 0, 1, 2
        v = np.repeat(unit_rows(embed_volumes(bundle, [make_volume(5)])), 3, axis=0)
        t = np.repeat(unit_rows(embed_texts(bundle, ["same text"])), 3, axis=0)
        flags = no_flags(3)
        flags[1, 0] = flags[0, 1] = flags[2, 2] = True
        scores = retrieve(bundle, v, t, flags, recall_ks=(1,), precision_ks=(1, 2))
        assert scores["recall"]["image_to_text_r@1"] == pytest.approx(1 / 3)
        assert scores["recall"]["text_to_image_r@1"] == pytest.approx(1 / 3)
        p = {name: (kw["p@1"], kw["p@2"]) for name, kw in scores["keyword"].items()}
        assert p == {CAT.names[0]: (0.0, 0.5), CAT.names[1]: (1.0, 0.5),
                     CAT.names[2]: (0.0, 0.0)}

    def test_empty_pool_rejected(self, bundle):
        empty = np.zeros((0, 16))
        with pytest.raises(ValueError, match="empty"):
            retrieve(bundle, empty, empty, no_flags(0))

    def test_text_to_image_deterministic(self, bundle):
        pool = [make_volume(i) for i in range(4)]
        texts = ["coronary stenosis", "cardiomegaly", "no pericardial effusion",
                 "aortic calcification"]
        flags = no_flags(4)
        flags[0, 0] = True
        runs = [retrieve(bundle, unit_rows(embed_volumes(bundle, pool)),
                         unit_rows(embed_texts(bundle, texts)), flags) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_keyword_retrieve_precision(self, bundle):
        pool = [make_volume(i, motif=1 if i % 2 == 0 else None) for i in range(6)]
        v = unit_rows(embed_volumes(bundle, pool))
        flags = no_flags(6)
        d = CAT.index_of("coronary calcification")
        flags[::2, d] = True
        scores = retrieve(bundle, v, v, flags, precision_ks=(6,))
        # all positives are counted at K = pool
        assert scores["keyword"] == {"coronary calcification": {"prevalence": 0.5, "p@6": 0.5}}


class TestCacConfidence:
    def test_pure_and_bounded(self, bundle):
        # the confidence is the zero-shot margin s_p - s_n, so it lies in [-2, 2]
        vols = [make_volume(7, motif=1), make_volume(8)]
        c1 = cac_confidences(vols, bundle)
        c2 = cac_confidences(vols, bundle)
        assert np.array_equal(c1, c2)
        assert np.all((-2.0 <= c1) & (c1 <= 2.0))
        assert np.array_equal(c1, zero_shot_scores(vols, tasks.CAC_PROMPT_NAME, bundle))


class TestFinetune:
    def make_sets(self, n=16):
        # class-1 volumes carry a strong central swelling; linearly separable
        # in feature space even under a random frozen encoder
        out = []
        for i in range(n):
            label = i % 2
            out.append((make_volume(100 + i, motif=4 if label else None, strength=0.9), label))
        return out

    def test_reaches_full_train_accuracy_frozen(self, bundle):
        train = self.make_sets()
        cfg = FinetuneConfig(epochs=100, batch=8, lr=1e-2, head_lr=5e-2,
                             warmup_frac=0.0, freeze_encoder=True)
        # 2 steps/epoch -> 200 steps total
        _, result = finetune_classifier(train, bundle.params, 2, cfg, bundle, seed=0)
        assert result["train_accuracy"] == 1.0

    def test_label_range_checked(self, bundle):
        train = [(make_volume(1), 2)]
        cfg = FinetuneConfig(epochs=1, batch=2, lr=1e-3, head_lr=1e-3, freeze_encoder=True)
        with pytest.raises(ValueError, match="labels"):
            finetune_classifier(train, bundle.params, 2, cfg, bundle, seed=0)

    def test_freeze_flag_controls_encoder_updates(self, bundle):
        train = self.make_sets(8)
        before = {k: v.copy() for k, v in bundle.params.items()}
        cfg = FinetuneConfig(epochs=1, batch=4, lr=1e-3, head_lr=1e-3, freeze_encoder=True)
        params_frozen, _ = finetune_classifier(train, bundle.params, 2, cfg, bundle, seed=1)
        assert all(np.array_equal(params_frozen[k], before[k]) for k in before
                   if k.startswith("vis."))
        cfg = FinetuneConfig(epochs=1, batch=4, lr=1e-3, head_lr=1e-3, freeze_encoder=False)
        params_full, _ = finetune_classifier(train, bundle.params, 2, cfg, bundle, seed=1)
        changed = [k for k in before if k.startswith("vis.blk") and
                   not np.array_equal(params_full[k], before[k])]
        assert changed  # encoder moved when unfrozen

    def test_caller_params_unchanged_when_unfrozen(self, bundle):
        train = self.make_sets(8)
        before = {k: v.copy() for k, v in bundle.params.items()}
        cfg = FinetuneConfig(epochs=1, batch=4, lr=1e-2, head_lr=1e-2, freeze_encoder=False)
        finetune_classifier(train, bundle.params, 2, cfg, bundle, seed=4)
        assert before.keys() == bundle.params.keys()
        for k in before:
            assert bundle.params[k].tobytes() == before[k].tobytes(), k

    def test_binary_eval_reports_auroc(self, bundle):
        train = self.make_sets(12)
        evalset = self.make_sets(8)
        cfg = FinetuneConfig(epochs=5, batch=6, lr=5e-3, head_lr=2e-2,
                             warmup_frac=0.0, freeze_encoder=True)
        _, result = finetune_classifier(train, bundle.params, 2, cfg, bundle,
                                        seed=2, eval_set=evalset)
        assert "auroc" in result
        assert 0.0 <= result["auroc"] <= 1.0

    def test_graded_eval_reports_ordinal(self, bundle):
        rng = np.random.default_rng(0)
        train = [(make_volume(200 + i, motif=1 if g >= 3 else None,
                              strength=0.2 * g), g - 1)
                 for i, g in enumerate(rng.integers(1, 6, size=15))]
        cfg = FinetuneConfig(epochs=2, batch=8, lr=1e-3, head_lr=5e-3, freeze_encoder=True)
        _, result = finetune_classifier(train, bundle.params, 5, cfg, bundle,
                                        seed=3, eval_set=train)
        assert "ordinal_auroc" in result
        assert [t for t, _ in result["ordinal_auroc"]] == [1, 2, 3, 4]
