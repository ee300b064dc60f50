from collections import Counter

import pytest

from ontoclass.corpus import Corpus, Document
from ontoclass.errors import ParseError
from ontoclass.ontology import build_ontology
from ontoclass.porter import stem
from ontoclass.preprocess import (
    TermVector,
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


def test_counts_are_derived_from_stems():
    tv = TermVector("d1", ("walk", "clinic", "walk"))
    assert tv.counts == {"walk": 2, "clinic": 1}
    assert list(tv.counts) == ["walk", "clinic"]
    assert sum(tv.counts.values()) == len(tv.stems) == 3
    with pytest.raises(TypeError):
        TermVector("d1", ("walk",), counts={"walk": 5})


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


def test_preprocess_corpus_logs_counts_at_info(caplog):
    corpus = Corpus(documents=(
        Document(doc_id="1", title="Heart disease", abstract="in walking adults"),
        Document(doc_id="2", title="Heart", abstract="walked, walking"),
    ))
    with caplog.at_level("INFO", logger="ontoclass.preprocess"):
        preprocess_corpus(corpus)
    assert "preprocess: 2 documents, 7 tokens, 4 distinct stems" in caplog.text


def test_each_distinct_word_is_stemmed_once():
    # the thesaurus and the abstracts share some words and each has words
    # of its own, so a caller that skips the memo shows in the counts
    stop = load_stoplist()
    rows = [
        ("D1", "Heart Failure", ["C14"], ["Cardiac Failure", "Failure of the Heart"]),
        ("D2", "Heart Diseases", ["C14.280"], ["Cardiac Disease"]),
    ]
    corpus = Corpus(documents=(
        Document(doc_id="1", title="Heart failure",
                 abstract="Cardiac failure of the heart in walking patients."),
        Document(doc_id="2", title="Walking",
                 abstract="The patients walked; patients walk, walking."),
    ))
    texts = [term for row in rows for term in (row[1], *row[3])]
    texts += [doc.text for doc in corpus.documents]
    tokens = [tok for text in texts for tok in tokenize(text) if tok not in stop]
    stem.cache_clear()
    build_ontology(rows, stopwords=stop)
    preprocess_corpus(corpus, stop)
    info = stem.cache_info()
    assert info.misses == len(set(tokens))
    assert info.hits + info.misses == len(tokens)
