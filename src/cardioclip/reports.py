"""Deterministic structuring of free-text reports into seven standard statements.

A rule-based matcher: each sentence is split into clauses on , ; . and a
finding counts as present when one of its surface synonyms occurs in a
clause that carries no negation cue. Synonyms and cues ship as data
(data/catalog.json), not code.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .tokenizer import normalize_words

_CLAUSE_SPLIT = re.compile(r"[.,;\n]")

POSITIVE_TEMPLATE = "There is {name}."
NEGATIVE_TEMPLATE = "There is no {name}."
POSITIVE_PROMPT = "There is {name}"
NEGATIVE_PROMPT = "There is no {name}"


@dataclass(frozen=True)
class AbnormalityCatalog:
    names: tuple[str, ...]
    synonyms: dict
    negation_cues: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("catalog names must be distinct")
        for name in self.names:
            if name not in self.synonyms:
                raise ValueError(f"no synonym list for {name!r}")

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Resolve a canonical name or any synonym (case-insensitive) to its index."""
        words = tuple(normalize_words(name))
        for d, canon in enumerate(self.names):
            for phrase in (canon, *self.synonyms[canon]):
                if tuple(normalize_words(phrase)) == words:
                    return d
        raise KeyError(f"unknown abnormality {name!r}")


@dataclass(frozen=True)
class StructuredReport:
    case_id: str
    statements: tuple[str, ...]
    flags: tuple[bool, ...]

    def __post_init__(self):
        if len(self.statements) != len(self.flags):
            raise ValueError("statements and flags must have equal length")

    def text(self) -> str:
        return " ".join(self.statements)


def load_catalog() -> AbnormalityCatalog:
    doc = json.loads(resources.files("cardioclip.data").joinpath("catalog.json").read_text("utf-8"))
    return AbnormalityCatalog(
        names=tuple(doc["names"]),
        synonyms={k: tuple(v) for k, v in doc["synonyms"].items()},
        negation_cues=tuple(doc["negation_cues"]),
    )


def contains_phrase(words: list[str], phrase_words: tuple[str, ...]) -> bool:
    """Whether phrase_words occurs as a contiguous run of words."""
    k = len(phrase_words)
    if k == 0 or k > len(words):
        return False
    return any(tuple(words[i : i + k]) == phrase_words for i in range(len(words) - k + 1))


def structure_report(case_id: str, text: str, cat: AbnormalityCatalog) -> StructuredReport:
    """The structured report of case_id's free text: a finding is flagged iff
    some clause of text mentions it without a negation cue."""
    cue_words = [tuple(normalize_words(c)) for c in cat.negation_cues]
    phrases = {
        d: [tuple(normalize_words(p)) for p in (name, *cat.synonyms[name])]
        for d, name in enumerate(cat.names)
    }
    flags = [False] * cat.size
    for clause in _CLAUSE_SPLIT.split(text):
        words = normalize_words(clause)
        if not words:
            continue
        if any(contains_phrase(words, cue) for cue in cue_words):
            continue
        for d, plist in phrases.items():
            if not flags[d] and any(contains_phrase(words, p) for p in plist):
                flags[d] = True
    return structured_from_flags(case_id, flags, cat)


def structured_from_flags(case_id: str, flags, cat: AbnormalityCatalog) -> StructuredReport:
    if len(flags) != cat.size:
        raise ValueError(f"expected {cat.size} flags, got {len(flags)}")
    statements = tuple(
        (POSITIVE_TEMPLATE if f else NEGATIVE_TEMPLATE).format(name=name)
        for name, f in zip(cat.names, flags)
    )
    return StructuredReport(case_id=case_id, statements=statements, flags=tuple(bool(f) for f in flags))


def report_record(case_id: str, free_text: str, s: StructuredReport) -> dict:
    """The JSON record of one structured report: the corpus row's report
    fields and a structured.jsonl row."""
    return {"case_id": case_id, "free_text": free_text,
            "structured": list(s.statements), "flags": list(s.flags)}


def make_prompt_pair(name: str, cat: AbnormalityCatalog) -> tuple[str, str]:
    """Positive and negative zero-shot prompts for a catalog finding.

    The surface form is used verbatim, so synonym queries keep their wording.
    """
    cat.index_of(name)  # raises KeyError for unknown findings
    return POSITIVE_PROMPT.format(name=name), NEGATIVE_PROMPT.format(name=name)

