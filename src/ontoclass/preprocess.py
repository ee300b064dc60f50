"""Text preprocessing: tokenization, stopword removal, stemming, and the
bag-of-stems document representation.

The pipeline is deliberately plain: lowercase, keep alphabetic tokens of
length >= 2, drop function words, Porter-stem what remains. A TermVector
keeps both the stem frequency map and the stem sequence, because phrase
lookup against an ontology needs token order, not just counts.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .corpus import strip_markup
from .errors import open_utf8
from .porter import stem

log = logging.getLogger(__name__)

_TOKEN = re.compile(r"[a-z]{2,}")


def tokenize(text: str) -> list[str]:
    """Lowercase and return alphabetic tokens of length >= 2.

    Digits, punctuation and single letters act as separators, so
    "X-linked" yields ["linked"] and "2-fold" yields ["fold"].
    """
    return _TOKEN.findall(text.lower())


def load_stoplist(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line.

    Blank lines and lines starting with '#' are ignored; words are
    lowercased. With no path, the bundled English function-word list
    (318 words) is returned.
    """
    if path is None:
        text = (
            resources.files("ontoclass.data").joinpath("stoplist.txt").read_text("utf-8")
        )
    else:
        with open_utf8(path) as fh:
            text = fh.read()
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


@dataclass(frozen=True)
class TermVector:
    """Preprocessed document: the stem sequence plus stem frequencies.

    `stems` is the in-order stem sequence; `counts` maps stem -> frequency
    in first-seen order and is derived from `stems`, so the two always
    agree.
    """

    doc_id: str
    counts: dict[str, int] = field(init=False)
    stems: tuple[str, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(Counter(self.stems)))

    def total(self) -> int:
        return len(self.stems)


def preprocess_text(
    doc_id: str,
    text: str,
    stopwords: frozenset[str],
    labels: tuple[str, ...] = (),
) -> TermVector:
    """Run the full pipeline on one text: strip markup, tokenize, stop, stem."""
    clean = strip_markup(text)
    stems = tuple(stem(tok) for tok in tokenize(clean) if tok not in stopwords)
    if not stems:
        log.warning("document %s is empty after preprocessing", doc_id)
    return TermVector(doc_id=doc_id, stems=stems, labels=labels)


def preprocess_corpus(corpus, stopwords: frozenset[str] | None = None) -> list[TermVector]:
    """Preprocess every document of a corpus (title + abstract)."""
    if stopwords is None:
        stopwords = load_stoplist()
    vectors = [
        preprocess_text(doc.doc_id, doc.text, stopwords, labels=doc.labels)
        for doc in corpus.documents
    ]
    if log.isEnabledFor(logging.INFO):
        log.info(
            "preprocess: %d documents, %d tokens, %d distinct stems",
            len(vectors), sum(v.total() for v in vectors),
            len(set().union(*(v.counts for v in vectors))),
        )
    return vectors
