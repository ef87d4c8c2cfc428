"""Synthetic paired corpus: volumes with planted per-finding signatures,
template free-text reports, and graded calcification severity.

Each of the seven findings owns a disjoint octant region and a distinct
intensity motif, so per-finding learnability is separable by construction.
The free-text templates stay inside the report structurer's synonym and
negation coverage: structuring a generated report always reproduces the
generator's flags (the closure property the acceptance suite leans on).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from .checkpoint import replacing
from .optim import count_rule, require
from .reports import AbnormalityCatalog, contains_phrase, structured_from_flags
from .seeding import derive_seed, substream
from .tokenizer import normalize_words
from .volume import Volume3D, VolumeFile, save_volume

N_FINDINGS = 7
NEGATION_PROB = 0.5  # chance an absent finding is explicitly negated in the report

# one octant origin (unit cube corner) per finding; the (1,1,1) octant stays empty
_OCTANTS = (
    (0, 0, 0),
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, 0),
)

# sentence templates, indexed by catalog order; every phrase is inside the
# structurer's synonym lists and negation-cue coverage
POSITIVE_TEMPLATES = (
    (
        "Severe coronary stenosis is observed.",
        "There is coronary stenosis.",
        "Imaging findings indicate coronary artery stenosis.",
        "Focal luminal narrowing of the proximal coronary artery.",
    ),
    # ordered by severity wording: graded cases pick the slot matching their
    # grade, so report language tracks calcification burden the way real
    # reports do (overlap with the calcium query phrase grows with severity)
    (
        "Calcified plaque is noted.",
        "Coronary calcification is present.",
        "There is coronary calcium.",
        "There is coronary artery calcium.",
        "Extensive coronary artery calcium is seen.",
    ),
    (
        "Aortic calcification is present.",
        "There is aortic calcification.",
        "Mural calcification of the aorta is noted.",
    ),
    (
        "Atherosclerosis is evident.",
        "There is atherosclerosis.",
        "Diffuse atherosclerotic changes are seen.",
        "Scattered atherosclerotic plaque is present.",
    ),
    (
        "Cardiomegaly is present.",
        "There is cardiomegaly.",
        "An enlarged heart is noted.",
        "The heart shows cardiac enlargement.",
    ),
    (
        "Pericardial effusion is present.",
        "There is pericardial effusion.",
        "A small pericardial effusion is seen.",
        "Moderate pericardial fluid is present.",
    ),
    (
        "Pulmonary arterial hypertension is suspected.",
        "There is pulmonary arterial hypertension.",
        "A dilated pulmonary artery is noted.",
        "Findings are compatible with pulmonary hypertension.",
    ),
)

NEGATIVE_TEMPLATES = (
    (
        "No coronary stenosis is identified.",
        "There is no coronary stenosis.",
        "No significant coronary artery stenosis.",
    ),
    (
        "No coronary calcification is seen.",
        "There is no coronary calcification.",
        "The study is free of coronary artery calcium.",
    ),
    (
        "No aortic calcification.",
        "There is no aortic calcification.",
        "No calcification of the aorta is seen.",
    ),
    (
        "No atherosclerosis.",
        "There is no atherosclerosis.",
        "No atherosclerotic changes are identified.",
    ),
    (
        "No cardiomegaly.",
        "There is no cardiomegaly.",
        "The heart is not enlarged.",
    ),
    (
        "No pericardial effusion.",
        "There is no pericardial effusion.",
        "Pericardial effusion is absent.",
    ),
    (
        "No pulmonary arterial hypertension.",
        "There is no pulmonary arterial hypertension.",
        "No evidence of pulmonary hypertension.",
    ),
)

FALLBACK_SENTENCE = "Unremarkable cardiac study."

# wording severity of the calcification templates, by ladder slot; the last
# (free-variety) wording reads as heavy burden
CAC_WORDING_SEVERITY = (0.25, 0.5, 0.75, 1.0, 1.0)
_CAC_PHRASES = tuple(tuple(normalize_words(t)) for t in POSITIVE_TEMPLATES[1])


def calcium_wording_severity(text: str) -> float:
    """Severity conveyed by the calcification wording of a report, in [0, 1].

    Matches the full positive-template word sequences, so negated statements
    ("there is no coronary calcification") conveying absence score 0.
    """
    words = normalize_words(text)
    return max((sev for phrase, sev in zip(_CAC_PHRASES, CAC_WORDING_SEVERITY)
                if contains_phrase(words, phrase)), default=0.0)


@dataclass(frozen=True)
class SynthSpec:
    n_cases: int = 640
    dims: tuple[int, int, int] = (64, 64, 64)
    # per-finding prevalence; coronary calcification runs lower because
    # uniform CAC grades add flag-positive cases on top of the base rate
    prevalence: tuple = (0.3, 0.1, 0.3, 0.3, 0.3, 0.3, 0.3)
    signal_strength: float = 0.4
    cac_fraction: float = 0.4
    seed: int = 0

    def __post_init__(self):
        prev = tuple(float(p) for p in self.prevalence)
        require(
            (len(prev) == N_FINDINGS, f"prevalence needs {N_FINDINGS} entries, got {len(prev)}"),
            (all(0.0 <= p <= 1.0 for p in prev),
             f"prevalence entries must lie in [0, 1], got {prev}"),
            (0.0 <= self.cac_fraction <= 1.0,
             f"cac_fraction must lie in [0, 1], got {self.cac_fraction}"),
            (self.signal_strength >= 0,
             f"signal_strength must be >= 0, got {self.signal_strength}"),
            count_rule(self, "n_cases", 1),
            # each finding's region must be several voxels wide; a patch size
            # that divides dims is the visual config's rule, not synth's
            (len(self.dims) == 3 and all(d >= 16 for d in self.dims),
             f"dims must be 3 sizes of at least 16, got {self.dims}"),
        )
        object.__setattr__(self, "prevalence", prev)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


@dataclass(frozen=True)
class SynthCase:
    """One corpus case. The generator holds its volume in memory; a corpus
    read back from disk (cli._load_synth) holds a VolumeFile on its CCV1 file,
    whose voxels are read only when a batch needs them."""

    case_id: str
    volume: Volume3D | VolumeFile
    flags: tuple[bool, ...]
    free_text: str
    grade: int | None = None


def finding_region(dims, d: int):
    """Slices of the motif region for finding d: a centered box in its octant."""
    oz, oy, ox = _OCTANTS[d]
    half = tuple(s // 2 for s in dims)
    margin = tuple(max(1, h // 8) for h in half)
    return tuple(
        slice(o * h + m, o * h + h - m)
        for o, h, m in zip((oz, oy, ox), half, margin)
    )


def _region_grid(region):
    """Coordinate offsets from the region center, shape (3, *region_shape)."""
    axes = [np.arange(s.stop - s.start, dtype=np.float64) for s in region]
    centers = [(len(a) - 1) / 2.0 for a in axes]
    zz, yy, xx = np.meshgrid(*[a - c for a, c in zip(axes, centers)], indexing="ij")
    return zz, yy, xx


def _blob_sites(finding: int, count: int, shape) -> np.ndarray:
    """Deterministic per-finding blob layout (center offsets, shape (count, 3)).

    The layout is part of the signature definition, shared by every case, so
    the within-patch intensity pattern of a motif is a consistent direction a
    small model can read out; per-case randomness only jitters it.
    """
    rng = np.random.Generator(np.random.PCG64(0xC0FFEE + finding))
    half = [(s - 1) / 2.0 - 3.0 for s in shape]
    return rng.uniform(-1.0, 1.0, size=(count, 3)) * np.asarray(half)


def _add_blobs(patch, zz, yy, xx, rng, sites: np.ndarray, radius: float, amp: float) -> None:
    for c in sites:
        j = rng.uniform(-1.5, 1.5, size=3)
        mask = ((zz - c[0] - j[0]) ** 2 + (yy - c[1] - j[1]) ** 2
                + (xx - c[2] - j[2]) ** 2) <= radius**2
        patch[mask] += amp * rng.uniform(0.95, 1.05)


def cac_motif_params(grade: int | None, strength: float) -> tuple[int, float]:
    """(speckle count, amplitude) of the calcification motif.

    Monotone in grade; grade 1 carries no motif; ungraded positives sit at
    the middle of the graded range. Severity rides mostly on speckle count
    (amplitude would clip against the intensity ceiling), with the grade-2
    floor strong enough to be separable from clean backgrounds.
    """
    if grade is None:
        return 24, 1.25 * strength
    if grade == 1:
        return 0, 0.0
    counts = {2: 8, 3: 20, 4: 36, 5: 56}
    return counts[grade], strength * (1.0 + 0.1 * grade)


def plant_signature(vox: np.ndarray, d: int, strength: float, rng,
                    grade: int | None = None) -> None:
    """Add the intensity motif of finding d inside its region of vox, a
    float32 voxel array already in [0, 1], in place, and clamp that region to
    [0, 1]. The regions are disjoint, so vox stays in [0, 1] as a whole."""
    if not 0 <= d < N_FINDINGS:
        raise ValueError(f"finding index {d} outside [0, {N_FINDINGS})")
    region = finding_region(vox.shape, d)
    patch = vox[region].astype(np.float64)
    zz, yy, xx = _region_grid(region)
    scale = min(patch.shape) / 24.0  # motif geometry is tuned at a 24-voxel region

    if d == 0:  # stenosis: thin bright tube along z
        cy, cx = rng.uniform(-2, 2, size=2) * scale
        patch[(yy - cy) ** 2 + (xx - cx) ** 2 <= (3.0 * scale) ** 2] += strength
    elif d == 1:  # calcification: speckle cluster, count/amplitude graded
        count, amp = cac_motif_params(grade, strength)
        sites = _blob_sites(1, 56, patch.shape)[:count]
        _add_blobs(patch, zz, yy, xx, rng, sites, 3.0 * scale, amp)
    elif d == 2:  # aortic calcification: bright spherical shell
        r = np.sqrt(zz**2 + yy**2 + xx**2)
        patch[(r >= 7.0 * scale) & (r <= 9.5 * scale)] += strength
    elif d == 3:  # atherosclerosis: a few mid-size plaques
        sites = _blob_sites(3, 3, patch.shape)
        _add_blobs(patch, zz, yy, xx, rng, sites, 4.0 * scale, 0.8 * strength)
    elif d == 4:  # cardiomegaly: broad smooth swelling of the whole region
        r2 = zz**2 + yy**2 + xx**2
        patch += 0.9 * strength * np.exp(-r2 / (2.0 * (10.0 * scale) ** 2))
    elif d == 5:  # pericardial effusion: thick fluid rim
        r = np.sqrt(zz**2 + yy**2 + xx**2)
        patch[(r >= 5.0 * scale) & (r <= 9.0 * scale)] += 0.7 * strength
    else:  # pulmonary arterial hypertension: fat bright tube along y
        cz, cx = rng.uniform(-2, 2, size=2) * scale
        patch[(zz - cz) ** 2 + (xx - cx) ** 2 <= (4.5 * scale) ** 2] += 0.8 * strength

    vox[region] = np.clip(patch.astype(np.float32), 0.0, 1.0)


def _lin_upsample(a: np.ndarray, n: int, axis: int) -> np.ndarray:
    s = a.shape[axis]
    t = np.linspace(0.0, s - 1.0, n)
    i0 = np.floor(t).astype(np.int64)
    i1 = np.minimum(i0 + 1, s - 1)
    w = (t - i0).reshape([-1 if ax == axis else 1 for ax in range(a.ndim)])
    # take(a, i0) * (1 - w) + take(a, i1) * w, in the two gathered arrays
    out = np.take(a, i0, axis=axis)
    out *= 1.0 - w
    hi = np.take(a, i1, axis=axis)
    hi *= w
    out += hi
    return out


def smooth_background(dims, rng) -> np.ndarray:
    """Low-frequency field in [0.25, 0.45] plus light voxel noise."""
    coarse = rng.uniform(0.25, 0.45, size=(5, 5, 5))
    field = coarse
    for axis, n in enumerate(dims):
        field = _lin_upsample(field, n, axis)
    field += rng.normal(0.0, 0.02, size=dims)
    return np.clip(field, 0.0, 1.0, out=field).astype(np.float32)


def _case_text(flags, grade, rng) -> str:
    sentences = []
    for d in range(N_FINDINGS):
        if flags[d]:
            pool = POSITIVE_TEMPLATES[d]
            if d == 1 and grade is not None and grade >= 2:
                sentences.append(pool[grade - 2])  # severity-matched wording
            else:
                sentences.append(pool[rng.integers(len(pool))])
        elif rng.random() < NEGATION_PROB:
            sentences.append(NEGATIVE_TEMPLATES[d][rng.integers(len(NEGATIVE_TEMPLATES[d]))])
    if not sentences:
        return FALLBACK_SENTENCE
    rng.shuffle(sentences)
    return " ".join(sentences)


def _build_case(spec: SynthSpec, i: int, grade: int | None) -> SynthCase:
    rng_flags = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, "case-flags", i)))
    flags = [bool(rng_flags.random() < p) for p in spec.prevalence]
    if grade is not None:
        flags[1] = grade >= 2  # grade 1 means no calcification motif
    vox = smooth_background(spec.dims, np.random.Generator(
        np.random.PCG64(derive_seed(spec.seed, "case-bg", i))))
    for d in range(N_FINDINGS):
        if flags[d]:
            rng_motif = np.random.Generator(
                np.random.PCG64(derive_seed(spec.seed, "case-motif", i, d)))
            plant_signature(vox, d, spec.signal_strength, rng_motif,
                            grade=grade if d == 1 else None)
    text = _case_text(flags, grade, np.random.Generator(
        np.random.PCG64(derive_seed(spec.seed, "case-text", i))))
    return SynthCase(
        case_id=f"case_{i:04d}",
        volume=Volume3D(voxels=vox),
        flags=tuple(flags),
        free_text=text,
        grade=grade,
    )


def _draw_grade(rng, spec: SynthSpec) -> int | None:
    """A uniform grade 1..5 for a cac_fraction share of cases, else None."""
    if rng.random() < spec.cac_fraction:
        return int(rng.integers(1, 6))
    return None


def generate_full_corpus(spec: SynthSpec) -> list[SynthCase]:
    """The corpus of spec, bit-deterministic: case i draws its flags from
    per-finding Bernoulli trials, its volume with the motifs of those flags
    planted, and its free text from the templates, each from its own
    (spec.seed, i) substream. A cac_fraction share of the cases, drawn in
    order from the (spec.seed, "cac") stream, get a uniform grade 1..5 that
    sets the calcification flag, motif and wording."""
    rng = substream(spec.seed, "cac")
    return [_build_case(spec, i, _draw_grade(rng, spec)) for i in range(spec.n_cases)]


def write_corpus(cases, out_dir, cat: AbnormalityCatalog) -> None:
    """Emit CCV1 volumes, the JSONL report corpus, and grades.jsonl.

    The volumes go to a fresh volumes.tmp directory next to volumes/ and the
    JSONL pair to temp files. Only once every volume and both JSONL files are
    whole does volumes.tmp replace volumes/ and the pair replace the previous
    pair, so a write that fails partway leaves the previous corpus as it was
    and removes what it staged.
    """
    vol_dir = os.path.join(out_dir, "volumes")
    staging = f"{vol_dir}.tmp"
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed earlier write
    os.makedirs(staging)
    try:
        with replacing(os.path.join(out_dir, "reports.jsonl")) as rep_fh, \
             replacing(os.path.join(out_dir, "grades.jsonl")) as grade_fh:
            for case in cases:
                save_volume(case.volume, os.path.join(staging, f"{case.case_id}.ccv1"))
                structured = structured_from_flags(case.case_id, case.flags, cat)
                rep_fh.write(json.dumps({
                    "case_id": case.case_id,
                    "free_text": case.free_text,
                    "structured": list(structured.statements),
                    "flags": list(case.flags),
                }, sort_keys=True) + "\n")
                if case.grade is not None:
                    grade_fh.write(json.dumps(
                        {"case_id": case.case_id, "grade": case.grade}, sort_keys=True) + "\n")
            rep_fh.flush()  # a failed write raises here, before the swap
            grade_fh.flush()
            _replace_dir(staging, vol_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _replace_dir(src: str, dst: str) -> None:
    """Move directory src to dst, removing any previous dst: a directory
    cannot be renamed over a non-empty one, so the old one is renamed aside
    first."""
    old = f"{dst}.old"
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(dst):
        os.replace(dst, old)
    os.replace(src, dst)
    shutil.rmtree(old, ignore_errors=True)
