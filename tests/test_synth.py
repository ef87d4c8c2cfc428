import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from cardioclip import synth
from cardioclip.reports import load_catalog, structure_report
from cardioclip.seeding import substream
from cardioclip.synth import (
    FALLBACK_SENTENCE,
    NEGATIVE_TEMPLATES,
    POSITIVE_TEMPLATES,
    SynthSpec,
    finding_region,
    generate_full_corpus,
    plant_signature,
    smooth_background,
    write_corpus,
)
from cardioclip.volume import Volume3D, load_volume

CAT = load_catalog()
SMALL = SynthSpec(n_cases=24, dims=(32, 32, 32), prevalence=(0.3,) * 7, cac_fraction=0.5,
                  seed=7)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_full_corpus(SMALL)


class TestGenerateCorpus:
    def test_prevalence_zero_all_negative(self):
        spec = SynthSpec(n_cases=10, dims=(32, 32, 32), prevalence=(0.0,) * 7,
                         cac_fraction=0.0, seed=1)
        for case in generate_full_corpus(spec):
            assert case.flags == (False,) * 7
            s = structure_report(case.case_id, case.free_text, CAT)
            assert s.flags == (False,) * 7

    def test_prevalence_one_all_positive(self):
        spec = SynthSpec(n_cases=5, dims=(32, 32, 32), prevalence=(1.0,) * 7,
                         cac_fraction=0.0, seed=2)
        for case in generate_full_corpus(spec):
            assert case.flags == (True,) * 7

    def test_prevalence_binomial(self):
        spec = SynthSpec(n_cases=1000, dims=(32, 32, 32), prevalence=(0.3,) * 7,
                         cac_fraction=0.0, seed=3)
        # flags only; skip the volumes for speed
        from cardioclip.synth import _build_case  # noqa: PLC2701 - test reaches into module

        flags = np.array([_build_case(spec, i, None).flags for i in range(0, 1000, 1)][:1000])
        frac = flags.mean(axis=0)
        assert np.all(np.abs(frac - 0.3) < 0.04)

    def test_bit_deterministic(self):
        spec = SynthSpec(n_cases=3, dims=(32, 32, 32), seed=9)
        c1 = generate_full_corpus(spec)
        c2 = generate_full_corpus(spec)
        for a, b in zip(c1, c2):
            assert a.case_id == b.case_id
            assert a.flags == b.flags
            assert a.free_text == b.free_text
            assert a.grade == b.grade
            assert np.array_equal(a.volume.voxels, b.volume.voxels)

    def test_golden_digest(self, small_corpus):
        # volume bytes, texts, flags and grades of SMALL, pinned (numpy 2.x
        # Generator streams): any change to a case's bytes moves it. SMALL
        # holds graded and ungraded cases, so the digest pins both kinds.
        assert {c.grade is None for c in small_corpus} == {True, False}
        h = hashlib.sha256()
        for c in small_corpus:
            h.update(c.volume.voxels.tobytes())
            h.update(json.dumps([c.case_id, c.free_text, list(c.flags), c.grade]).encode())
        assert h.hexdigest() == \
            "09fffd1366ecabb519043721ab8b3c3b4656d2344e808ac0783d4bdc9e1ded4b"


class TestPlantSignature:
    def base(self):
        return smooth_background((32, 32, 32), substream(0, "bg"))

    def planted(self, d, strength, rng):
        vox = self.base()
        plant_signature(vox, d, strength, rng)
        return vox

    def test_zero_strength_is_identity(self):
        assert np.array_equal(self.planted(0, 0.0, substream(0, "m")), self.base())

    def test_region_mean_strictly_increases(self):
        v = self.base()
        for d in range(7):
            out = self.planted(d, 0.4, substream(0, "m", d))
            region = finding_region(v.shape, d)
            assert out[region].mean() > v[region].mean()

    def test_regions_are_disjoint(self):
        hit = np.zeros((32, 32, 32), dtype=int)
        for d in range(7):
            hit[finding_region((32, 32, 32), d)] += 1
        assert hit.max() == 1

    def test_only_own_region_touched(self):
        v = self.base()
        for d in range(7):
            out = self.planted(d, 0.5, substream(1, "m", d))
            mask = np.zeros(v.shape, dtype=bool)
            mask[finding_region(v.shape, d)] = True
            assert np.array_equal(out[~mask], v[~mask])

    def test_region_is_clamped_to_the_unit_interval(self):
        for d in range(7):
            out = self.planted(d, 5.0, substream(2, "m", d))
            assert out.dtype == np.float32
            assert out.max() == 1.0 and out.min() >= 0.0

    def test_deterministic(self):
        a = self.planted(1, 0.4, substream(5, "m"))
        b = self.planted(1, 0.4, substream(5, "m"))
        assert np.array_equal(a, b)


class TestCacGrades:
    def test_grades_uniform_and_fraction(self):
        spec = SynthSpec(n_cases=600, dims=(32, 32, 32), prevalence=(0.0,) * 7,
                         cac_fraction=0.5, seed=4)
        graded = generate_full_corpus(spec)
        grades = [c.grade for c in graded if c.grade is not None]
        frac = len(grades) / len(graded)
        assert abs(frac - 0.5) < 0.06
        hist = np.bincount(grades, minlength=6)[1:]
        assert hist.min() > 0.6 * hist.mean()

    def test_grade_flag_consistency(self, small_corpus):
        for case in small_corpus:
            if case.grade is not None:
                assert case.flags[1] == (case.grade >= 2)

    def test_region_mean_monotone_in_grade(self):
        spec = SynthSpec(n_cases=150, dims=(32, 32, 32), prevalence=(0.0,) * 7,
                         cac_fraction=1.0, seed=5)
        cases = generate_full_corpus(spec)
        region = finding_region((32, 32, 32), 1)
        means = {g: [] for g in range(1, 6)}
        for c in cases:
            means[c.grade].append(float(c.volume.voxels[region].mean()))
        avg = [np.mean(means[g]) for g in range(1, 6)]
        assert all(a < b for a, b in zip(avg, avg[1:]))


class TestClosureProperty:
    def test_structurer_recovers_generator_flags(self, small_corpus):
        for case in small_corpus:
            s = structure_report(case.case_id, case.free_text, CAT)
            assert s.flags == case.flags, case.free_text

    def test_templates_have_min_counts(self):
        for d in range(7):
            assert len(POSITIVE_TEMPLATES[d]) >= 3
            assert len(NEGATIVE_TEMPLATES[d]) >= 3

    def test_fallback_sentence_is_neutral(self):
        s = structure_report("f", FALLBACK_SENTENCE, CAT)
        assert s.flags == (False,) * 7


class TestWriteCorpus:
    def test_emits_expected_files(self, tmp_path, small_corpus):
        write_corpus(small_corpus, tmp_path, CAT)
        reports = [json.loads(l) for l in (tmp_path / "reports.jsonl").read_text().splitlines()]
        assert len(reports) == len(small_corpus)
        assert set(reports[0]) == {"case_id", "free_text", "structured", "flags"}
        assert len(reports[0]["structured"]) == 7
        grades = [json.loads(l) for l in (tmp_path / "grades.jsonl").read_text().splitlines()]
        graded = [c for c in small_corpus if c.grade is not None]
        assert len(grades) == len(graded)
        vol = load_volume(tmp_path / "volumes" / f"{small_corpus[0].case_id}.ccv1")
        assert np.array_equal(vol.voxels, small_corpus[0].volume.voxels)

    def test_write_failing_partway_leaves_the_previous_files_and_no_temp_file(
            self, tmp_path, monkeypatch, small_corpus):
        # the previous corpus has the same case ids but other voxels, so a
        # volume overwritten in place would show
        previous = [dataclasses.replace(c, volume=Volume3D(c.volume.voxels + 1.0))
                    for c in small_corpus[:4]]
        write_corpus(previous, tmp_path, CAT)
        names = ("reports.jsonl", "grades.jsonl")
        before = {n: (tmp_path / n).read_bytes() for n in names}
        vol_dir = tmp_path / "volumes"
        volumes_before = {p.name: p.read_bytes() for p in vol_dir.iterdir()}
        calls = []
        save = synth.save_volume

        def save_then_fail(volume, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("no space left on device")
            save(volume, path)

        monkeypatch.setattr(synth, "save_volume", save_then_fail)
        with pytest.raises(OSError, match="no space left"):
            write_corpus(small_corpus, tmp_path, CAT)
        assert {n: (tmp_path / n).read_bytes() for n in names} == before
        assert not [f for _, _, files in os.walk(tmp_path) for f in files
                    if f.endswith(".tmp")]
        assert {p.name: p.read_bytes() for p in vol_dir.iterdir()} == volumes_before
        assert sorted(os.listdir(tmp_path)) == ["grades.jsonl", "reports.jsonl", "volumes"]

    def test_rewrite_replaces_every_volume(self, tmp_path, small_corpus):
        write_corpus(small_corpus, tmp_path, CAT)
        write_corpus(small_corpus[:3], tmp_path, CAT)
        assert sorted(os.listdir(tmp_path)) == ["grades.jsonl", "reports.jsonl", "volumes"]
        assert sorted(p.name for p in (tmp_path / "volumes").iterdir()) == [
            f"{c.case_id}.ccv1" for c in small_corpus[:3]]
