"""Synthetic paired corpus: volumes with planted per-finding signatures,
template free-text reports, and graded calcification severity.

Each of the seven findings owns a disjoint octant region and a distinct
intensity motif, so per-finding learnability is separable by construction.
The free-text templates stay inside the report structurer's synonym and
negation coverage: structuring a generated report always reproduces the
generator's flags (the closure property the acceptance suite leans on).
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .optim import count_rule, require
from .reports import CATALOG, contains_phrase, report_record, structured_from_flags
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
    """One corpus case: one row of cases.jsonl plus its volume. The
    generator holds the volume in memory; a corpus read back from disk
    (read_corpus) holds a VolumeFile on its CCV1 file, whose voxels are read
    only when a batch needs them. grade is None for an ungraded case."""

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


@functools.lru_cache(maxsize=1)
def _grades(spec: SynthSpec) -> tuple:
    """The (spec.seed, "cac") grade stream, drawn once for a chunked build."""
    rng = substream(spec.seed, "cac")
    return tuple(_draw_grade(rng, spec) for _ in range(spec.n_cases))


def generate_full_corpus(spec: SynthSpec, indices=None) -> list[SynthCase]:
    """The corpus of spec, bit-deterministic: case i draws its flags from
    per-finding Bernoulli trials, its volume with the motifs of those flags
    planted, and its free text from the templates, each from its own
    (spec.seed, i) substream. A cac_fraction share of the cases, drawn in
    order from the (spec.seed, "cac") stream, get a uniform grade 1..5 that
    sets the calcification flag, motif and wording.

    indices, when given, builds only those cases, in that order: each takes
    its grade from the whole stream, so it is bitwise the case the whole
    corpus holds at its index, and a caller can build a corpus one chunk
    at a time.
    """
    grades = _grades(spec)
    indices = range(spec.n_cases) if indices is None else indices
    # a plain int whatever indices holds: i names the case and seeds its streams
    return [_build_case(spec, int(i), grades[i]) for i in indices]


def write_corpus(cases, out_dir, n_train: int) -> None:
    """Emit a CCV1 volume per case under volumes/ and cases.jsonl, one row
    per case in generation order: its report record (reports.report_record,
    the CATALOG statements from its flags), its grade (null when
    ungraded) and its split, "train" for the first n_train cases and "eval"
    for the rest.

    out_dir must not hold a corpus yet: the CLI hands synth a fresh staged
    directory and swaps it in whole once every file is written and closed,
    so a write that fails partway leaves the previous corpus as it was.
    """
    vol_dir = os.path.join(out_dir, "volumes")
    os.makedirs(vol_dir)
    with open(os.path.join(out_dir, "cases.jsonl"), "w", encoding="utf-8") as fh:
        for i, case in enumerate(cases):
            save_volume(case.volume, os.path.join(vol_dir, f"{case.case_id}.ccv1"))
            structured = structured_from_flags(case.case_id, case.flags, CATALOG)
            fh.write(json.dumps({
                **report_record(case.case_id, case.free_text, structured),
                "grade": case.grade, "split": "train" if i < n_train else "eval",
            }, sort_keys=True) + "\n")


def read_corpus(synth_dir) -> tuple[list[SynthCase], list[SynthCase]]:
    """Read write_corpus's output back as (train, eval) lists of SynthCase:
    each row of cases.jsonl joins the list of its split, in file order.

    Each case's volume is a VolumeFile on its CCV1 file, and no payload is
    read here: a caller reads a volume only when a batch (or an eval chunk)
    needs its voxels, and again each epoch, so its memory grows with the
    batch, not with the corpus. A row that is not a JSON object, that lacks
    a key read here, whose case_id (a file name with no directory part),
    split, flags, grade or free text is not of the form write_corpus gives
    it, or whose case_id an earlier row holds, is refused naming its line.
    """
    path = os.path.join(synth_dir, "cases.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found; run `cardioclip synth` first")
    splits = {"train": [], "eval": []}
    line_of = {}  # case_id -> the line that holds it
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            where = f"{path} line {line_no}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                msg = f"{where}: not valid JSON, {e.msg} at character {e.pos}"
                raise ValueError(msg) from None
            if not isinstance(doc, dict):
                raise ValueError(f"{where}: {line.strip()[:40]!r} is not a JSON object")
            where += f" ({doc['case_id']})" if "case_id" in doc else ""
            missing = [k for k in ("case_id", "flags", "free_text", "grade", "split") if k not in doc]
            if missing:
                raise ValueError(f"{where}: missing key {', '.join(map(repr, missing))}")
            cid, flags, grade, text = doc["case_id"], doc["flags"], doc["grade"], doc["free_text"]
            for ok, problem in (
                    (isinstance(cid, str) and cid not in ("", ".", "..")
                     and os.path.basename(cid) == cid,
                     f"case_id {cid!r} is not a file name without a directory part"),
                    # a tuple, not the dict: a list or object split is unhashable
                    (doc["split"] in ("train", "eval"),
                     f"split {doc['split']!r} is not one of 'train', 'eval'"),
                    (isinstance(flags, list) and list(map(type, flags)) == [bool] * N_FINDINGS,
                     f"flags {flags!r} is not a list of {N_FINDINGS} booleans"),
                    # type, not isinstance: a bool is an int to Python but no grade
                    (grade is None or type(grade) is int and 1 <= grade <= 5,
                     f"grade {grade!r} is not null or an integer in 1..5"),
                    (isinstance(text, str), f"free_text {text!r} is not a string")):
                if not ok:
                    raise ValueError(f"{where}: {problem}")
            if cid in line_of:
                raise ValueError(f"{where}: case_id {cid!r} repeats line {line_of[cid]}")
            line_of[cid] = line_no
            volume = VolumeFile(os.path.join(synth_dir, "volumes", f"{cid}.ccv1"))
            splits[doc["split"]].append(SynthCase(cid, volume, tuple(flags), text, grade))
    return splits["train"], splits["eval"]
