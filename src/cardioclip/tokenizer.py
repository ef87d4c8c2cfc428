"""Word-level tokenizer: lowercase, strip punctuation, whitespace split.

A deterministic, dependency-free stand-in for a pretrained subword tokenizer.
Ids 0, 1, 2 are reserved for PAD, UNK, CLS; the vocabulary file stores one
token per line with line number = id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SPECIALS = ("<pad>", "<unk>", "<cls>")

_WORD_RE = re.compile(r"[a-z0-9]+")


def normalize_words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if tuple(self.tokens[:3]) != SPECIALS:
            raise ValueError(f"vocabulary must start with {SPECIALS}, got {self.tokens[:3]}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, word: str) -> int:
        return self.index.get(word, UNK_ID)


@dataclass(frozen=True)
class TokenSequence:
    """CLS-prefixed id sequence; padding only ever follows position length-1."""

    token_ids: tuple[int, ...]
    length: int

    def __post_init__(self):
        if self.length < 1 or self.length > len(self.token_ids):
            raise ValueError(f"length {self.length} out of range for {len(self.token_ids)} ids")
        if self.token_ids[0] != CLS_ID:
            raise ValueError("position 0 must be the class token id")
        if any(t != PAD_ID for t in self.token_ids[self.length:]):
            raise ValueError("padding ids found before the end of content")


def build_vocab(texts) -> Vocabulary:
    """Vocabulary over all words occurring in the given corpus, sorted for determinism."""
    words = set()
    for text in texts:
        words.update(normalize_words(text))
    return Vocabulary(tokens=SPECIALS + tuple(sorted(words)))


def tokenize(text: str, vocab: Vocabulary, max_len: int | None = None) -> TokenSequence:
    """Map text to ids: CLS + per-word ids (UNK for unknowns), truncated to max_len."""
    if len(vocab) <= len(SPECIALS):
        raise RuntimeError("vocabulary is empty; run build_vocab over the training corpus first")
    words = normalize_words(text)
    if max_len is not None:
        words = words[: max_len - 1]
    ids = (CLS_ID,) + tuple(vocab.id_of(w) for w in words)
    return TokenSequence(token_ids=ids, length=len(ids))


def pad_batch(seqs):
    """Stack sequences into (ids, lengths) int arrays, right-padding with PAD_ID
    to the longest."""
    import numpy as np

    width = max(s.length for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    lengths = np.zeros(len(seqs), dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : s.length] = s.token_ids[: s.length]
        lengths[i] = s.length
    return ids, lengths


def save_vocab(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = tuple(line.rstrip("\n") for line in fh if line.rstrip("\n"))
    return Vocabulary(tokens=tokens)
