from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontoclass.porter import stem

PAIRS_FILE = Path(__file__).parent / "data" / "porter_pairs.txt"


def reference_pairs() -> list[tuple[str, str]]:
    pairs = []
    for line in PAIRS_FILE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        word, expected = line.split("\t")
        pairs.append((word, expected))
    return pairs


@pytest.mark.parametrize("word,expected", reference_pairs())
def test_reference_pairs(word, expected):
    assert stem(word) == expected


def test_enough_reference_pairs():
    assert len(reference_pairs()) >= 30


@pytest.mark.parametrize(
    "word,expected",
    [
        ("walking", "walk"),
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("infection", "infect"),
        ("clinical", "clinic"),
        ("inflammation", "inflamm"),
        ("appendicitis", "append"),
        ("appendiceal", "appendic"),
    ],
)
def test_known_words(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize(
    "word,expected",
    [
        ("adoption", "adopt"),
        ("opinion", "opinion"),
        ("region", "region"),
        ("champion", "champion"),
        ("union", "union"),
    ],
)
def test_step4_drops_ion_only_after_s_or_t(word, expected):
    # The C reference's step 4 removes -ion only when the letter before it
    # is s or t (and m > 1). Steps 1-3 leave these words alone, and no
    # other step-4 suffix ends them, so after any other letter the word
    # comes through whole.
    assert stem(word) == expected


def test_short_words_untouched():
    # the algorithm skips strings of length 1 and 2 entirely
    assert stem("a") == "a"
    assert stem("as") == "as"
    assert stem("is") == "is"


def test_not_idempotent_in_general():
    # re-stemming can strip again once an inner suffix is exposed; the
    # reference distribution behaves the same way, so this is pinned down
    # rather than "fixed"
    assert stem("abrasion") == "abras"
    assert stem("abras") == "abra"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_stem_properties(word):
    s = stem(word)
    assert s
    assert len(s) <= len(word)
    assert s.islower()


@given(st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                        max_size=12), max_size=20))
def test_memo_returns_the_uncached_stem(words):
    for word in words + words:
        assert stem(word) == stem.__wrapped__(word)
