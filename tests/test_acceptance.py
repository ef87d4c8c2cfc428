"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy experiments (corpus generation, both training stages, downstream
evaluation, fine-tuning) run once in module-scoped fixtures and are shared by
the criteria that read them. On a 2-core laptop-class CPU the whole suite
takes about 4 minutes.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from acceptance_verdicts import zero_shot_verdict

from cardioclip.clip import contrastive_loss, contrastive_pairs, train_clip
from cardioclip.config import merge_config, stage_configs
from cardioclip.gradcheck import TOLERANCE, stage_loss_errors
from cardioclip.mae import masked_mse, sample_mask, train_mae
from cardioclip.metrics import auroc, ordinal_auroc, recall_at_k
from cardioclip.model import ModelBundle
from cardioclip.reports import load_catalog, structure_report, structured_from_flags
from cardioclip.supervision import affinity_matrix, pathology_vector
from cardioclip.synth import SynthSpec, calcium_wording_severity, generate_full_corpus
from cardioclip.tasks import (cac_grading, case_retrieval, finetune_classifier, finetune_labels,
                              zero_shot_aurocs)

pytestmark = pytest.mark.acceptance

SEED = 0


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared pipeline state (default config, trained once)


@pytest.fixture(scope="module")
def cfg():
    return merge_config({"seed": SEED})


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def corpus(cfg):
    cases = generate_full_corpus(stage_configs(cfg)["synth"])
    n_train = cfg["synth"]["train_cases"]
    return cases[:n_train], cases[n_train:]


@pytest.fixture(scope="module")
def stage1(corpus, cfg):
    train_cases, _ = corpus
    stages = stage_configs(cfg)
    t0 = time.time()
    params, trace = train_mae(
        [c.volume for c in train_cases], stages["visual"], stages["decoder"], stages["mae"],
        seed=SEED, proj_dim=cfg["proj_dim"],
    )
    return params, trace, time.time() - t0


@pytest.fixture(scope="module")
def stage2(corpus, stage1, cfg, catalog):
    train_cases, _ = corpus
    params = {k: v.copy() for k, v in stage1[0].items()}
    pairs, vocab = contrastive_pairs(train_cases, catalog)
    stages = stage_configs(cfg, len(vocab))
    t0 = time.time()
    params, trace = train_clip(
        pairs, params, stages["visual"], stages["text"], vocab, stages["clip"],
        seed=SEED, severity_fn=calcium_wording_severity,
    )
    bundle = ModelBundle(params=params, vis_cfg=stages["visual"], txt_cfg=stages["text"],
                         vocab=vocab, catalog=catalog)
    return bundle, trace, time.time() - t0


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of both stage losses


class TestCriterion1Gradients:
    def test_gradient_checks_under_budget(self):
        t0 = time.time()
        errors = stage_loss_errors(SEED)
        runtime = time.time() - t0
        report(
            "criterion 1 (gradient correctness)",
            all(e < TOLERANCE for e in errors.values()) and runtime < 120,
            f"mae={errors['mae']:.2e}, contrastive={errors['contrastive']:.2e}, "
            f"runtime={runtime:.1f}s (tolerance {TOLERANCE:.0e}, budget 120s)",
        )


# ---------------------------------------------------------------------------
# criterion 2: masked-loss semantics and the partition invariant


def reference_masked_mse(recon, targets, masked_idx):
    """The full-size masked MSE: recon (B, N, P) holds every patch, and
    d_recon (B, N, P) is exactly zero at every visible-patch entry."""
    rows = np.arange(recon.shape[0])[:, None]
    diff = recon[rows, masked_idx]
    diff -= targets[rows, masked_idx]
    count = diff.size
    loss = float(np.square(diff).sum() / count)
    diff *= 2.0 / count
    d_recon = np.zeros_like(recon)
    d_recon[rows, masked_idx] = diff
    return loss, d_recon


class TestCriterion2MaskSemantics:
    def test_visible_gradients_zero_and_partition(self):
        rng = np.random.default_rng(SEED)
        recon = rng.random((4, 16, 8))
        targets = rng.random((4, 16, 8))
        mask_idx = np.stack([np.sort(rng.choice(16, size=12, replace=False)) for _ in range(4)])
        rows = np.arange(4)[:, None]
        ref_loss, ref_d = reference_masked_mse(recon, targets, mask_idx)
        loss, d = masked_mse(recon[rows, mask_idx], targets, mask_idx)
        # one gradient row per masked patch: no visible position exists to receive one
        rows_ok = d.shape == (4, 12, 8)
        equal_ok = loss == ref_loss and d.tobytes() == ref_d[rows, mask_idx].tobytes()
        visible = [np.setdiff1d(np.arange(16), mask_idx[b]) for b in range(4)]
        visible_ok = all(bool(np.all(ref_d[b, visible[b]] == 0.0)) for b in range(4))
        # overwriting the targets at visible positions changes neither loss
        other = targets.copy()
        for b in range(4):
            other[b, visible[b]] = rng.random((visible[b].size, 8)) + 5.0
        ref_loss2, ref_d2 = reference_masked_mse(recon, other, mask_idx)
        loss2, d2 = masked_mse(recon[rows, mask_idx], other, mask_idx)
        visible_ok &= (loss2 == loss and d2.tobytes() == d.tobytes()
                       and ref_loss2 == ref_loss and ref_d2.tobytes() == ref_d.tobytes())
        nonzero_ok = bool(np.all(np.any(d != 0.0, axis=-1)))

        partition_ok = True
        for seed in range(1000):
            n = 8 + (seed % 57)
            visible, masked = sample_mask(n, 0.75, seed)
            partition_ok &= bool(np.all(np.diff(visible) > 0) and np.all(np.diff(masked) > 0))
            partition_ok &= sorted(visible.tolist() + masked.tolist()) == list(range(n))
            partition_ok &= masked.size == math.floor(0.75 * n)
        report(
            "criterion 2 (masked-loss semantics)",
            rows_ok and equal_ok and visible_ok and nonzero_ok and partition_ok,
            f"one gradient row per masked patch: {rows_ok}; "
            f"loss and gradient bitwise equal to the full-size reference: {equal_ok}; "
            f"visible positions get no gradient and are never read: {visible_ok}; "
            f"every masked row has a nonzero gradient: {nonzero_ok}; "
            f"partition invariant over 1000 plans: {partition_ok}",
        )


# ---------------------------------------------------------------------------
# criterion 3: affinity matrix oracle equivalence and quantization


class TestCriterion3Affinity:
    def test_oracle_equivalence_100_batches(self):
        rng = np.random.default_rng(SEED)
        allowed = np.array([(7 - 2 * k) / 7 for k in range(8)])
        worst = 0.0
        quantized = True
        for _ in range(100):
            b = int(rng.integers(2, 33))
            signs = rng.choice([-1, 1], size=(b, 7))
            vs = [pathology_vector(structured_from_flags(f"c{i}", row > 0, load_catalog()))
                  for i, row in enumerate(signs)]
            got = affinity_matrix(vs)
            ref = np.empty((b, b))
            for i in range(b):
                for j in range(b):
                    yi = np.asarray(vs[i], dtype=np.float64)
                    yj = np.asarray(vs[j], dtype=np.float64)
                    ref[i, j] = (yi @ yj) / (np.linalg.norm(yi) * np.linalg.norm(yj))
            worst = max(worst, float(np.abs(got - ref).max()))
            quantized &= bool(np.abs(got[..., None] - allowed).min(axis=-1).max() < 1e-12)
        report(
            "criterion 3 (affinity oracle)",
            worst < 1e-12 and quantized,
            f"max |fast - brute force| = {worst:.1e} over 100 batches; "
            f"entries quantized to (7-2k)/7: {quantized}",
        )


# ---------------------------------------------------------------------------
# criterion 4: contrastive-loss fixed point, shift invariance, symmetry


class TestCriterion4LossFixedPoint:
    def test_fixed_point_and_invariances(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = contrastive_loss(S, np.eye(2), tau=1.0)
        expected = math.log(1 + math.exp(-1))
        fixed_ok = abs(loss - expected) < 1e-6

        rng = np.random.default_rng(SEED)
        S4 = rng.normal(0, 1, (4, 4))
        T4 = np.abs(rng.normal(0, 1, (4, 4)))
        T4 = T4 / T4.sum(axis=1, keepdims=True)
        l1, _ = contrastive_loss(S4, T4, tau=0.3)
        l2, _ = contrastive_loss(S4 + 11.3, T4, tau=0.3)
        shift_ok = abs(l1 - l2) < 1e-10
        l3, _ = contrastive_loss(S4.T, T4.T, tau=0.3)
        transpose_ok = abs(l1 - l3) < 1e-10
        report(
            "criterion 4 (loss fixed point)",
            fixed_ok and shift_ok and transpose_ok,
            f"L(I,I,tau=1)={loss:.8f} vs ln(1+e^-1)={expected:.8f}; "
            f"shift delta={abs(l1 - l2):.1e}; transpose delta={abs(l1 - l3):.1e}",
        )


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


class TestCriterion5MetricOracles:
    def test_auroc_ordinal_and_chance_retrieval(self):
        rng = np.random.default_rng(SEED)
        exact = True
        for _ in range(100):
            n = int(rng.integers(5, 201))
            scores = rng.choice(np.round(rng.normal(0, 1, 30), 2), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            brute = float(((pos[:, None] > neg[None, :]).sum()
                           + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (len(pos) * len(neg)))
            exact &= auroc(scores, labels) == pytest.approx(brute, abs=1e-12)

        grades = rng.integers(1, 6, size=80)
        gscores = rng.normal(0, 1, size=80) + 0.4 * grades
        compositional = True
        for t, value in ordinal_auroc(grades, gscores):
            compositional &= value == pytest.approx(auroc(gscores, grades > t), abs=1e-12)

        # one query per random ranking of a pool of 100; its counterpart is item 0
        hits = [recall_at_k([rng.permutation(100)], 10) for _ in range(10_000)]
        chance = float(np.mean(hits))
        chance_ok = abs(chance - 0.10) < 0.02
        report(
            "criterion 5 (metric oracles)",
            exact and compositional and chance_ok,
            f"auroc==brute force on 100 sets: {exact}; ordinal==relabeled auroc: "
            f"{compositional}; random R@10={chance:.4f} (expect 0.10 +/- 0.02)",
        )


# ---------------------------------------------------------------------------
# criterion 6: report structurer accuracy and closure


class TestCriterion6Structurer:
    def test_golden_corpus_and_closure(self, catalog):
        from importlib import resources

        raw = resources.files("cardioclip.data").joinpath("golden_sentences.jsonl").read_text("utf-8")
        golden = [json.loads(line) for line in raw.splitlines() if line.strip()]
        golden_hits = sum(
            list(structure_report(f"g{i}", e["text"], catalog).flags) == e["flags"]
            for i, e in enumerate(golden)
        )

        spec = SynthSpec(n_cases=1000, dims=(32, 32, 32), prevalence=(0.3,) * 7, seed=123)
        from cardioclip.synth import _build_case  # flags/text only; volumes unused

        closure_hits = 0
        for i in range(1000):
            case = _build_case(spec, i, None)
            s = structure_report(case.case_id, case.free_text, catalog)
            closure_hits += s.flags == case.flags
        report(
            "criterion 6 (report structurer)",
            golden_hits == len(golden) == 50 and closure_hits == 1000,
            f"golden corpus {golden_hits}/{len(golden)}; synthetic closure {closure_hits}/1000",
        )


# ---------------------------------------------------------------------------
# criterion 7: stage-1 end-to-end loss halving under budget


class TestCriterion7Stage1:
    def test_loss_halves_within_budget(self, stage1):
        _, trace, runtime = stage1
        first, last = trace[0]["mean_loss"], trace[-1]["mean_loss"]
        report(
            "criterion 7 (stage-1 end-to-end)",
            last < 0.5 * first and runtime < 900,
            f"epoch-0 loss {first:.5f} -> epoch-{len(trace)-1} loss {last:.5f} "
            f"(ratio {last / first:.3f} < 0.5), runtime {runtime:.0f}s < 900s",
        )


# ---------------------------------------------------------------------------
# criterion 8: stage-2 + zero-shot AUROC >= 0.85 per finding


class TestCriterion8ZeroShot:
    def test_per_finding_zero_shot(self, stage2, corpus):
        bundle, _, runtime = stage2
        _, eval_cases = corpus
        # the same call as `cardioclip eval-zeroshot`
        report("criterion 8 (zero-shot AUROC >= 0.85 x7)",
               *zero_shot_verdict(zero_shot_aurocs(eval_cases, bundle), runtime))


# ---------------------------------------------------------------------------
# criterion 9: retrieval thresholds


class TestCriterion9Retrieval:
    def test_recall_and_keyword_precision(self, stage2, corpus, catalog):
        bundle, _, _ = stage2
        _, eval_cases = corpus
        # the same call as `cardioclip eval-retrieval`
        scores = case_retrieval(eval_cases, bundle, recall_ks=[10], precision_ks=[5])
        r10_i2t = scores["recall"]["image_to_text_r@10"]
        r10_t2i = scores["recall"]["text_to_image_r@10"]
        chance = 10 / len(eval_cases)

        keyword_ok = True
        kw_detail = []
        for name in catalog.names:
            prevalence = scores["keyword"][name]["prevalence"]
            p5 = scores["keyword"][name]["p@5"]
            keyword_ok &= p5 >= 2 * prevalence
            kw_detail.append(f"{name.split()[0][:4]}:{p5:.2f}/{2 * prevalence:.2f}")
        report(
            "criterion 9 (retrieval)",
            r10_i2t >= 5 * chance and r10_t2i >= 5 * chance and keyword_ok,
            f"R@10 i2t={r10_i2t:.3f}, t2i={r10_t2i:.3f} (min {5 * chance:.3f}); "
            f"keyword P@5 vs 2x prevalence: {' '.join(kw_detail)}",
        )


# ---------------------------------------------------------------------------
# criterion 10: CAC confidence proxy and fine-tuned head


class TestCriterion10CAC:
    def test_zero_shot_and_finetuned_ordinal(self, stage2, corpus, cfg, catalog):
        bundle, _, _ = stage2
        train_cases, eval_cases = corpus
        # the same calls as `cardioclip eval-cac` and `cardioclip finetune`
        per_cut, _ = cac_grading([c for c in eval_cases if c.grade is not None], bundle)
        zero_shot = dict(per_cut)
        zs_ok = all(v is not None and v >= 0.75 for v in zero_shot.values())

        graded_train, head_classes = finetune_labels(train_cases, "cac", catalog)
        eval_pairs, _ = finetune_labels(eval_cases, "cac", catalog)
        # the default finetune section, shortened to 4 epochs
        ft_cfg = replace(stage_configs(cfg)["finetune"], epochs=4)
        _, result = finetune_classifier(graded_train, bundle.params, head_classes, ft_cfg,
                                        bundle.vis_cfg, seed=SEED, eval_set=eval_pairs)
        tuned = dict(result["ordinal_auroc"])
        ft_ok = all(
            tuned[t] is not None and (tuned[t] >= zero_shot[t] + 0.05 or tuned[t] >= 0.9)
            for t in (1, 2, 3, 4)
        )
        report(
            "criterion 10 (CAC grading)",
            zs_ok and ft_ok,
            "zero-shot ordinal " + str({t: round(v, 3) for t, v in zero_shot.items()})
            + "; fine-tuned " + str({t: round(v, 3) for t, v in tuned.items()}),
        )


# ---------------------------------------------------------------------------
# criterion 11: byte-identical rerun determinism


class TestCriterion11Determinism:
    def test_pipeline_metrics_reproduce_byte_identically(self, tmp_path):
        from cardioclip.cli import main

        cfg = {
            "geometry": {"dims": [32, 32, 32]},
            "synth": {"n_cases": 24, "train_cases": 16, "cac_fraction": 0.8},
            "visual": {"embed_dim": 32, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
            "text": {"embed_dim": 32, "depth": 1, "heads": 2, "max_len": 64, "mlp_ratio": 2.0},
            "decoder": {"embed_dim": 16, "depth": 1, "heads": 2, "mlp_ratio": 2.0},
            "proj_dim": 16,
            "mae": {"epochs": 2, "batch": 8},
            "clip": {"epochs": 2, "batch": 8},
            "eval": {"recall_ks": [1, 5], "precision_ks": [1, 5]},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = {}
        for run in ("a", "b"):
            out = tmp_path / run
            for command in ("synth", "pretrain-mae", "pretrain-clip", "eval-zeroshot",
                            "eval-retrieval", "eval-cac"):
                code = main([command, "--config", str(cfg_path), "--out", str(out)])
                assert code == 0, f"{command} failed on run {run}"
            blobs[run] = {
                cmd: (out / cmd / "metrics.json").read_bytes()
                for cmd in ("synth", "pretrain_mae", "pretrain_clip", "eval_zeroshot",
                            "eval_retrieval", "eval_cac")
            }
        identical = {cmd: blobs["a"][cmd] == blobs["b"][cmd] for cmd in blobs["a"]}
        report(
            "criterion 11 (determinism)",
            all(identical.values()),
            f"byte-identical metrics across reruns: {identical}",
        )
