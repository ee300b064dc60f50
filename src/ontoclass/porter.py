"""Porter stemmer (1980), matching the author's reference distribution.

This follows the widely circulated C reference implementation, including
its two step-2 adjustments relative to the original journal text
(``bli`` -> ``ble`` instead of ``abli`` -> ``able``, and the added
``logi`` -> ``log`` rule).  Words of length <= 2 are returned unchanged.

Input must be lowercase alphabetic; behaviour on anything else is
unspecified.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions: the m of [C](VC)^m[V]."""
    pattern = []
    for i in range(len(stem)):
        tag = "C" if _is_consonant(stem, i) else "V"
        if not pattern or pattern[-1] != tag:
            pattern.append(tag)
    return "".join(pattern).count("VC")


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant, where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # cleanup after ed/ing removal
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs; within each step the first suffix that
# matches decides, and the substitution happens only when m(base) > 0.
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _apply_rules(word: str, rules) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            base = word[: -len(suffix)]
            if _measure(base) > 0:
                return base + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            base = word[: -len(suffix)]
            if suffix == "ion" and (not base or base[-1] not in "st"):
                continue
            if _measure(base) > 1:
                return base
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        base = word[:-1]
        m = _measure(base)
        if m > 1 or (m == 1 and not _ends_cvc(base)):
            return base
    return word


def _step5b(word: str) -> str:
    if word.endswith("l") and _ends_double_consonant(word) and _measure(word) > 1:
        return word[:-1]
    return word


@lru_cache(maxsize=None)
def stem(word: str) -> str:
    """Return the Porter stem of a lowercase alphabetic word.

    Memoised for the life of the process: each distinct word is stemmed
    once, whichever caller (document text, thesaurus entry terms, MeSH
    annotations) meets it first. The memo holds one entry per distinct
    word, the vocabulary the term vectors and phrase index already hold.
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES)
    word = _apply_rules(word, _STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
