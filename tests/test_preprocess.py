from collections import Counter

import pytest

from ontoclass.corpus import Corpus, Document
from ontoclass.errors import ParseError
from ontoclass.preprocess import (
    load_stoplist,
    preprocess_corpus,
    preprocess_text,
    tokenize,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize("X-linked GENES, 2-fold rise!") == [
        "linked", "genes", "fold", "rise",
    ]


def test_tokenize_drops_single_letters_and_digits():
    assert tokenize("a B 42 7q31 ok") == ["ok"]


def test_bundled_stoplist():
    stop = load_stoplist()
    assert len(stop) == 318
    assert {"the", "of", "and", "whence"} <= stop
    assert "patient" not in stop


def test_custom_stoplist(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_text("# header\nFOO\n\nbar\n")
    assert load_stoplist(f) == {"foo", "bar"}


def test_non_utf8_stoplist_names_the_file(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_bytes(b"the\ncaf\xe9\n")
    with pytest.raises(ParseError, match=r"stop\.txt: not UTF-8 \(byte 0xe9\)"):
        load_stoplist(f)


def test_preprocess_text_pipeline():
    stop = load_stoplist()
    tv = preprocess_text("d1", "The patients were walking in the clinic.", stop)
    assert tv.stems == ("patient", "walk", "clinic")
    assert tv.counts == {"patient": 1, "walk": 1, "clinic": 1}


def test_counts_match_stem_sequence():
    stop = frozenset()
    tv = preprocess_text("d1", "spin spin spun spinning", stop)
    assert Counter(tv.stems) == tv.counts


def test_preprocess_corpus_carries_labels():
    corpus = Corpus(
        documents=(
            Document(doc_id="1", title="Heart disease", abstract="in adults",
                     labels=("CatA",)),
        ),
        categories=("CatA",),
    )
    [tv] = preprocess_corpus(corpus)
    assert tv.doc_id == "1"
    assert tv.labels == ("CatA",)
    assert "heart" in tv.counts
