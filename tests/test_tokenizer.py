import pytest

from cardioclip.tokenizer import (
    CLS_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    load_vocab,
    pad_batch,
    save_vocab,
    tokenize,
)


@pytest.fixture
def vocab():
    return build_vocab(["There is coronary stenosis.", "No pericardial effusion."])


def test_reserved_ids():
    assert (PAD_ID, UNK_ID, CLS_ID) == (0, 1, 2)


def test_tokenize_prepends_cls(vocab):
    seq = tokenize("There is coronary stenosis", vocab, 16)
    assert seq[0] == CLS_ID
    assert len(seq) == 5
    words = [vocab.tokens[i] for i in seq[1:]]
    assert words == ["there", "is", "coronary", "stenosis"]


def test_empty_text_is_cls_only(vocab):
    assert tokenize("", vocab, 16) == (CLS_ID,)


def test_unknown_word_maps_to_unk(vocab):
    seq = tokenize("there is cardiomegaly", vocab, 16)
    assert seq[3] == UNK_ID


def test_punctuation_and_case_are_normalized(vocab):
    a = tokenize("There is CORONARY stenosis.", vocab, 16)
    b = tokenize("there is coronary stenosis", vocab, 16)
    assert a == b


def test_truncation_to_max_len(vocab):
    seq = tokenize("there is coronary stenosis", vocab, max_len=3)
    assert seq == (CLS_ID, vocab.id_of("there"), vocab.id_of("is"))


def test_empty_vocab_raises():
    empty = Vocabulary(tokens=SPECIALS)
    with pytest.raises(RuntimeError, match="empty"):
        tokenize("anything", empty, 16)


def test_pad_batch(vocab):
    seqs = [tokenize("there is", vocab, 16), tokenize("no pericardial effusion seen", vocab, 16)]
    ids, lengths = pad_batch(seqs)
    assert ids.shape == (2, 5)
    assert lengths.tolist() == [3, 5]
    assert ids[0].tolist() == [*seqs[0], PAD_ID, PAD_ID]
    assert ids[1].tolist() == list(seqs[1])


def test_vocab_file_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    back = load_vocab(path)
    assert back.tokens == vocab.tokens
    lines = path.read_text("utf-8").splitlines()
    assert lines[:3] == list(SPECIALS)  # line number = id


def test_build_vocab_is_sorted_and_deterministic():
    v1 = build_vocab(["b a", "c b"])
    v2 = build_vocab(["c b", "b a"])
    assert v1.tokens == v2.tokens == SPECIALS + ("a", "b", "c")
