"""Word-level tokenizer: lowercase, strip punctuation, whitespace split.

A deterministic, dependency-free stand-in for a pretrained subword tokenizer.
Ids 0, 1, 2 are reserved for PAD, UNK, CLS; the vocabulary file stores one
token per line with line number = id. tokenize gives a text's ids as a
tuple with CLS first; pad_batch stacks such tuples into padded arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

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


def build_vocab(texts) -> Vocabulary:
    """Vocabulary over all words occurring in the given corpus, sorted for determinism."""
    words = set()
    for text in texts:
        words.update(normalize_words(text))
    return Vocabulary(tokens=SPECIALS + tuple(sorted(words)))


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> tuple[int, ...]:
    """Map text to ids: CLS, then one id per word (UNK for unknowns), the
    whole truncated to max_len."""
    if len(vocab) <= len(SPECIALS):
        raise RuntimeError("vocabulary is empty; run build_vocab over the training corpus first")
    words = normalize_words(text)[: max_len - 1]
    return (CLS_ID,) + tuple(vocab.id_of(w) for w in words)


def pad_batch(seqs):
    """Stack tokenize's id tuples into (ids, lengths) int64 arrays, each row
    right-padded with PAD_ID to the longest. Refuses an empty list."""
    if len(seqs) == 0:
        raise ValueError("no sequences to pad: the list is empty")
    lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
    ids = np.full((len(seqs), int(lengths.max())), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    return ids, lengths


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write the tokens one per line. The eval commands load the vocab and the
    checkpoint next to it as a pair; the CLI swaps both in with the rest of
    pretrain-clip's directory, or neither."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.tokens:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = tuple(line.rstrip("\n") for line in fh if line.rstrip("\n"))
    return Vocabulary(tokens=tokens)
