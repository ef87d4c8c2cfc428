import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from cardioclip import cli, synth
from cardioclip.model import VOLUME_CHUNK, balanced_chunks
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
    read_corpus,
    smooth_background,
    write_corpus,
)
from cardioclip.volume import VolumeFile, load_volume

CAT = load_catalog()
SMALL = SynthSpec(n_cases=24, dims=(32, 32, 32), prevalence=(0.3,) * 7, cac_fraction=0.5,
                  seed=7)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_full_corpus(SMALL)


def run_synth(tmp_path, *assignments) -> int:
    """`cardioclip synth` of a 24-case 32^3 corpus into tmp_path/runs."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"geometry": {"dims": [32, 32, 32]},
                               "synth": {"n_cases": 24, "train_cases": 20}}))
    sets = [arg for a in assignments for arg in ("--set", a)]
    return cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "runs"), *sets])


def files_under(path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}


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


class TestChunkedCorpus:
    """A corpus built a chunk of indices at a time is the whole corpus, case
    for case, and `synth` builds and writes it that way."""

    SPEC = SynthSpec(n_cases=21, dims=(16, 16, 16), cac_fraction=0.5, seed=5)

    def test_chunks_rebuild_the_whole_corpus(self):
        whole = generate_full_corpus(self.SPEC)
        chunked = [case for idx in balanced_chunks(21, 8)
                   for case in generate_full_corpus(self.SPEC, idx)]
        assert {c.grade is None for c in whole} == {True, False}
        assert len(chunked) == len(whole) == 21
        for got, want in zip(chunked, whole):
            assert (got.case_id, got.flags, got.free_text, got.grade) == (
                want.case_id, want.flags, want.free_text, want.grade)
            assert got.volume.voxels.dtype == want.volume.voxels.dtype
            assert got.volume.voxels.tobytes() == want.volume.voxels.tobytes()

    def test_numpy_int_indices_build_the_same_cases(self):
        whole = generate_full_corpus(self.SPEC)
        got = generate_full_corpus(self.SPEC, np.array([17, 3, 0]))
        assert [c.case_id for c in got] == ["case_0017", "case_0003", "case_0000"]
        for case, i in zip(got, (17, 3, 0)):
            assert (case.flags, case.free_text, case.grade) == (
                whole[i].flags, whole[i].free_text, whole[i].grade)
            assert case.volume.voxels.tobytes() == whole[i].volume.voxels.tobytes()

    def test_synth_holds_one_chunk_of_volumes(self, tmp_path, monkeypatch):
        n = 40
        chunk_of = {int(i): c for c, idx in enumerate(balanced_chunks(n, VOLUME_CHUNK))
                    for i in idx}
        assert max(chunk_of.values()) >= 2
        real_build, real_corpus = synth._build_case, cli.generate_full_corpus
        built, alive_back, sizes = [], [], []

        def spy_build(spec, i, grade):
            chunk = chunk_of[i]
            if not built or chunk_of[built[-1][0]] != chunk:  # a chunk starts
                alive_back.append(sum(ref() is not None for j, ref in built
                                      if chunk_of[j] <= chunk - 2))
            case = real_build(spec, i, grade)
            built.append((i, weakref.ref(case.volume)))
            return case

        def spy_corpus(*args):
            cases = real_corpus(*args)
            sizes.append(len(cases))
            return cases

        monkeypatch.setattr(synth, "_build_case", spy_build)
        monkeypatch.setattr(cli, "generate_full_corpus", spy_corpus)
        assert run_synth(tmp_path, f"synth.n_cases={n}") == 0
        assert [i for i, _ in built] == list(range(n))
        assert alive_back == [0] * len(set(chunk_of.values()))
        # perfbench's traced run sums these lengths as the corpus' cases
        assert sum(sizes) == n

    def test_synth_draws_the_grade_stream_once(self, tmp_path, monkeypatch):
        n = 40
        assert len(balanced_chunks(n, VOLUME_CHUNK)) >= 3
        real_draw, draws = synth._draw_grade, []

        def spy_draw(rng, spec):
            draws.append(spec)
            return real_draw(rng, spec)

        synth._grades.cache_clear()  # another test may have drawn this spec's stream
        monkeypatch.setattr(synth, "_draw_grade", spy_draw)
        assert run_synth(tmp_path, f"synth.n_cases={n}") == 0
        assert len(draws) == n


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
        write_corpus(small_corpus, tmp_path, CAT, 20)
        assert sorted(os.listdir(tmp_path)) == ["cases.jsonl", "volumes"]
        lines = (tmp_path / "cases.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert lines == [json.dumps(row, sort_keys=True) for row in rows]
        assert [row["case_id"] for row in rows] == [c.case_id for c in small_corpus]
        assert set(rows[0]) == {"case_id", "free_text", "structured", "flags", "grade", "split"}
        assert len(rows[0]["structured"]) == 7
        assert [row["grade"] for row in rows] == [c.grade for c in small_corpus]
        assert {c.grade is None for c in small_corpus} == {True, False}
        assert [row["split"] for row in rows] == ["train"] * 20 + ["eval"] * 4
        vol = load_volume(tmp_path / "volumes" / f"{small_corpus[0].case_id}.ccv1")
        assert np.array_equal(vol.voxels, small_corpus[0].volume.voxels)

    # a failing synth leaves the previous corpus, volumes, metrics and
    # manifest byte-identical and no synth.tmp or synth.old next to it
    def test_write_failing_partway_leaves_the_previous_files_and_no_temp_file(
            self, tmp_path, monkeypatch, capsys):
        # the previous corpus has the same case ids but other voxels, so a
        # volume overwritten in place would show
        assert run_synth(tmp_path, "seed=1") == 0
        before = files_under(tmp_path / "runs" / "synth")
        calls = []
        save = synth.save_volume

        def save_then_fail(volume, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("no space left on device")
            save(volume, path)

        monkeypatch.setattr(synth, "save_volume", save_then_fail)
        assert run_synth(tmp_path) == 1
        assert "no space left" in capsys.readouterr().err
        assert files_under(tmp_path / "runs" / "synth") == before
        assert os.listdir(tmp_path / "runs") == ["synth"]

    def test_failing_cases_write_leaves_the_previous_corpus(self, tmp_path, monkeypatch, capsys):
        assert run_synth(tmp_path, "seed=1") == 0
        before = files_under(tmp_path / "runs" / "synth")
        written = []

        class FullDevice:
            """A file whose rows land until the last one, which fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if len(written) == 23:
                    raise OSError("no space left on device")
                written.append(text)
                return self.fh.write(text)

        def opening(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return FullDevice(fh) if str(path).endswith("cases.jsonl") else fh

        monkeypatch.setattr(synth, "open", opening, raising=False)
        assert run_synth(tmp_path) == 1
        assert "no space left" in capsys.readouterr().err
        assert len(written) == 23  # the last row failed after every volume was written
        assert files_under(tmp_path / "runs" / "synth") == before
        assert os.listdir(tmp_path / "runs") == ["synth"]

    def test_rewrite_replaces_every_volume(self, tmp_path):
        assert run_synth(tmp_path) == 0
        assert run_synth(tmp_path, "synth.n_cases=4", "synth.train_cases=2") == 0
        out = tmp_path / "runs" / "synth"
        assert sorted(os.listdir(out)) == ["cases.jsonl", "manifest.json", "metrics.json",
                                           "volumes"]
        rows = (out / "cases.jsonl").read_text().splitlines()
        ids = [json.loads(row)["case_id"] for row in rows]
        assert len(ids) == 4
        assert sorted(p.name for p in (out / "volumes").iterdir()) == sorted(
            f"{cid}.ccv1" for cid in ids)


class TestReadCorpus:
    def test_reads_back_the_written_corpus(self, tmp_path, monkeypatch, small_corpus):
        write_corpus(small_corpus, tmp_path, CAT, 20)
        opened = []
        base_open = open

        def recording_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return base_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        train, evalset = read_corpus(tmp_path)
        monkeypatch.undo()
        # no volume payload (nor header) is read until a batch asks for it
        assert opened == ["cases.jsonl"]
        assert len(train) == 20 and len(train) + len(evalset) == len(small_corpus)
        assert {c.grade is None for c in small_corpus} == {True, False}
        for got, want in zip(train + evalset, small_corpus):
            assert (got.case_id, got.flags, got.free_text, got.grade) == (
                want.case_id, want.flags, want.free_text, want.grade)
            assert got.volume == VolumeFile(os.path.join(tmp_path, "volumes",
                                                         f"{want.case_id}.ccv1"))
            voxels = got.volume.voxels
            assert voxels.dtype == want.volume.voxels.dtype
            assert voxels.tobytes() == want.volume.voxels.tobytes()
