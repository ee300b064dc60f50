"""Seeded generator of Ohsumed-shaped inputs for the benchmark.

For one workload and one seed it writes, into a directory:

* ``corpus.txt``  tagged records (.I/.U/.S/.M/.T/.P/.W/.A) with closed
  markup, character entities, numbers and stopwords around the content;
* ``labels.tsv``  ``doc_id<TAB>category[;category]`` over the 23 Ohsumed
  disease categories;
* ``mesh.tsv`` and ``mesh.txt``  the same thesaurus in the TSV format and
  in the MeSH ASCII descriptor format;
* ``<workload>.ini``  the experiment config;
* ``truth.json``  what the generator planted, for the output checks.

All words are made-up words ending in a vowel that no Porter suffix rule
ends in, so every word is its own stem and the generator knows the exact
stem sequence of every document. Entry-term words and filler words come
from disjoint vocabularies, and every planted entry term sits between two
filler words, so the generator also knows which concepts each document
mentions and how often.

A fixed set of abstracts carries statistical notation such as
``(p < 0.05)`` before later content. Those documents, their text and
their labels do not depend on the seed.

Run ``python3 bench/gen.py --workload knn-hyperonyms --seed 1 --out DIR``
to write one input set by hand.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

#: The 23 disease categories of the Ohsumed split (the program's
#: ``corpus.OHSUMED_CATEGORIES``, repeated here so the inputs and the
#: checks do not depend on the code under test).
CATEGORIES = (
    "Bacterial Infections and Mycoses",
    "Virus Diseases",
    "Parasitic Diseases",
    "Neoplasms",
    "Musculoskeletal Diseases",
    "Digestive System Diseases",
    "Stomatognathic Diseases",
    "Respiratory Tract Diseases",
    "Otorhinolaryngologic Diseases",
    "Nervous System Diseases",
    "Eye Diseases",
    "Urologic and Male Genital Diseases",
    "Female Genital Diseases and Pregnancy Complications",
    "Cardiovascular Diseases",
    "Hemic and Lymphatic Diseases",
    "Neonatal Diseases and Abnormalities",
    "Skin and Connective Tissue Diseases",
    "Nutritional and Metabolic Diseases",
    "Endocrine Diseases",
    "Immunologic Diseases",
    "Disorders of Environmental Origin",
    "Animal Diseases",
    "Pathological Conditions, Signs and Symptoms",
)

#: Function words written between content words. Each is on the
#: program's bundled stoplist; `generate` checks that against the file.
STOPWORDS = ("the", "of", "and", "in", "with", "was", "were", "to", "for",
             "by", "on", "from", "is", "after", "between", "than", "that",
             "these", "which", "we")

#: Zipf exponent of filler words in abstracts and of words in entry terms.
ZIPF_S = 1.07

#: Seed of the fixed documents that carry ``<`` notation.
FAULT_SEED = 20120702

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiu"


@dataclass(frozen=True)
class Workload:
    docs: int                 # seeded documents
    fault_docs: int           # fixed documents with '<' notation
    descriptors: int
    filler_vocab: int
    entry_vocab: int
    config: dict = field(default_factory=dict)


WORKLOADS = {
    "knn-hyperonyms": Workload(
        docs=184, fault_docs=23, descriptors=4000,
        filler_vocab=800, entry_vocab=1500,
        config={
            "ontology": {"path": "mesh.tsv", "format": "tsv"},
            "mapping": {"representation": "concepts_hyperonyms",
                        "strategy": "AddConcept",
                        "disambiguation": "AllConcepts"},
            "features": {"k": "100", "weighting": "tfidf"},
            "classify": {"classifier": "knn", "knn_k": "5"},
        },
    ),
    "c45-stems": Workload(
        docs=184, fault_docs=23, descriptors=1500,
        filler_vocab=500, entry_vocab=300,
        config={
            "mapping": {"representation": "stems"},
            "features": {"k": "8", "weighting": "tfidf"},
            "classify": {"classifier": "c45", "tree_min_leaf": "2",
                         "tree_prune": "true"},
        },
    ),
    "mesh-thesaurus": Workload(
        docs=138, fault_docs=17, descriptors=20000,
        filler_vocab=600, entry_vocab=5000,
        config={
            "ontology": {"path": "mesh.txt", "format": "mesh-ascii"},
            "mapping": {"representation": "concepts",
                        "strategy": "ReplaceTerms",
                        "disambiguation": "FirstConcept",
                        "use_mesh_annotations": "true"},
            "features": {"k": "50", "weighting": "tfidf"},
            "classify": {"classifier": "knn", "knn_k": "5"},
        },
    ),
}

N_FOLDS = 3
ROOTS = 30          # 23 disease roots C01..C23 plus 7 others
LEVELS = 5          # tree depth in concepts
LONG_TERM_SHARE = 0.10
AMBIGUOUS_SHARE = 0.03
SECOND_TREE_SHARE = 0.08
MULTI_LABEL_SHARE = 0.2
MENTIONS = 10         # mean planted concept mentions per document
ABSTRACT_TOKENS = 142  # mean content tokens per abstract


def _zipf_cum(n: int) -> list[float]:
    return list(accumulate(1.0 / (r ** ZIPF_S) for r in range(1, n + 1)))


def _make_words(rng: random.Random, count: int, final: str, taken: set[str],
                stop: frozenset[str]) -> list[str]:
    """Distinct made-up words of 2-3 syllables plus `final`.

    No Porter suffix rule ends in 'o' or 'a', so these words are their
    own stems.
    """
    words: list[str] = []
    while len(words) < count:
        syllables = 2 if rng.random() < 0.4 else 3
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                    for _ in range(syllables))
        w = w[:-1] + final
        if w in taken or w in stop:
            continue
        taken.add(w)
        words.append(w)
    return words


@dataclass
class _Concept:
    cid: str
    trees: list[str]
    parents: list[str]
    preferred: list[str] = field(default_factory=list)   # words
    entries: list[list[str]] = field(default_factory=list)
    shared: list[list[str]] = field(default_factory=list)  # ambiguous terms


def _title(words: list[str]) -> str:
    return " ".join(w if w in STOPWORDS else w.capitalize() for w in words)


def _content(words: list[str]) -> list[str]:
    return [w for w in words if w not in STOPWORDS]


class _Thesaurus:
    """The generator's own model of the thesaurus and its phrase index."""

    def __init__(self, rng: random.Random, wl: Workload, entry_words: list[str]):
        self.rng = rng
        self.entry_words = entry_words
        self.entry_cum = _zipf_cum(len(entry_words))
        self.keys: dict[str, list[str]] = {}   # indexed key -> owner ids
        self.concepts: dict[str, _Concept] = {}
        self._build_tree(wl.descriptors)
        self._name_concepts()

    def _build_tree(self, n: int) -> None:
        rng = self.rng
        # level sizes grow by a constant factor until n concepts exist
        lo, hi = 1.0, 50.0
        for _ in range(60):
            f = (lo + hi) / 2
            total = sum(ROOTS * f ** i for i in range(LEVELS))
            lo, hi = (f, hi) if total < n else (lo, f)
        sizes = [round(ROOTS * f ** i) for i in range(LEVELS)]
        sizes[-1] = n - sum(sizes[:-1])
        ids = [f"D{i:06d}" for i in rng.sample(range(1, 1_000_000), n)]
        serial: dict[str, int] = {}
        levels: list[list[_Concept]] = []
        pos = 0
        for level, size in enumerate(sizes):
            layer = []
            for i in range(size):
                cid = ids[pos]
                pos += 1
                if level == 0:
                    tree = f"C{i + 1:02d}" if i < 23 else f"A{i - 22:02d}"
                    node = _Concept(cid, [tree], [])
                else:
                    # children go one to each concept above first, so
                    # every branch but some of the last level reaches down
                    above = levels[-1]
                    parent = above[i] if i < len(above) else rng.choice(above)
                    node = _Concept(cid, [self._child_tree(parent, serial)],
                                    [parent.cid])
                    if level >= 2 and rng.random() < SECOND_TREE_SHARE:
                        other = rng.choice(levels[-1])
                        if other.cid != parent.cid:
                            node.trees.append(self._child_tree(other, serial))
                            node.parents.append(other.cid)
                layer.append(node)
                self.concepts[cid] = node
            levels.append(layer)
        self.levels = levels

    @staticmethod
    def _child_tree(parent: _Concept, serial: dict[str, int]) -> str:
        tree = parent.trees[0]
        serial[tree] = serial.get(tree, 0) + 1
        return f"{tree}.{serial[tree]:03d}"

    def _words(self, n: int) -> list[str]:
        return self.rng.choices(self.entry_words, cum_weights=self.entry_cum, k=n)

    def _term(self, long_ok: bool) -> list[str] | None:
        """A fresh entry term (words incl. stopwords) with an unused key."""
        rng = self.rng
        for _ in range(50):
            r = rng.random()
            if long_ok and r < LONG_TERM_SHARE:
                n = rng.randint(4, 6)
            else:
                n = 1 if r < 0.3 else 2 if r < 0.8 else 3
            words = self._words(n)
            if len(set(words)) < n:
                continue
            key = " ".join(words[:3])
            if key in self.keys:
                continue
            if n >= 2 and rng.random() < 0.15:
                words.insert(rng.randint(1, n - 1), rng.choice(("of", "and", "the")))
            return words
        return None

    def _index(self, cid: str, words: list[str]) -> None:
        content = _content(words)
        self.keys.setdefault(" ".join(content[:3]), []).append(cid)

    def _name_concepts(self) -> None:
        rng = self.rng
        order = list(self.concepts.values())
        for c in order:
            term = None
            while term is None:
                term = self._term(long_ok=True)
            c.preferred = term
            self._index(c.cid, term)
            for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
                syn = self._term(long_ok=True)
                if syn is not None:
                    c.entries.append(syn)
                    self._index(c.cid, syn)
        # ambiguous keys: one short synonym shared by two concepts
        for c in rng.sample(order, int(len(order) * AMBIGUOUS_SHARE)):
            other = rng.choice(order)
            syn = self._term(long_ok=False)
            if other.cid == c.cid or syn is None:
                continue
            for owner in (c, other):
                owner.shared.append(syn)
                self._index(owner.cid, syn)

    def head(self, key: str) -> str:
        """FirstConcept's sense for a key no concept prefers by name."""
        return min(self.keys[key],
                   key=lambda cid: (min(self.concepts[cid].trees), cid))

    def terms(self, c: _Concept) -> list[list[str]]:
        return [c.preferred, *c.entries, *c.shared]

    def write_tsv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id\tpreferred name\ttree numbers\tentry terms\n")
            for c in self.concepts.values():
                entries = "|".join(_title(t) for t in [*c.entries, *c.shared])
                fh.write(f"{c.cid}\t{_title(c.preferred)}\t{','.join(c.trees)}"
                         f"\t{entries}\n")

    def write_mesh(self, path: Path) -> None:
        rng = self.rng
        with open(path, "w", encoding="utf-8") as fh:
            for c in self.concepts.values():
                fh.write("*NEWRECORD\nRECTYPE = D\n")
                fh.write(f"MH = {_title(c.preferred)}\n")
                fh.write("AQ = CL CO DI DT EP ET GE PA PC TH\n")
                for t in [*c.entries, *c.shared]:
                    tag = "PRINT ENTRY" if rng.random() < 0.3 else "ENTRY"
                    fh.write(f"{tag} = {_title(t)}|T047|NON|EQV|NLM (1990)"
                             f"|900308|abcdef\n")
                for tree in c.trees:
                    fh.write(f"MN = {tree}\n")
                fh.write("MS = A condition described by its entry terms.\n")
                fh.write(f"UI = {c.cid}\n\n")


class _Writer:
    """Turns content units into text with the usual non-content noise."""

    def __init__(self, rng: random.Random, markup: bool = True):
        self.rng = rng
        self.markup = markup

    def sentence(self, units: list[list[str]]) -> str:
        rng = self.rng
        out: list[str] = []
        for unit in units:
            if rng.random() < 0.3:
                out.append(rng.choice(STOPWORDS))
            r = rng.random()
            text = " ".join(unit)
            if self.markup and len(unit) == 1 and r < 0.03:
                text = f"<i>{text}</i>"
            elif r < 0.05:
                text = f"{text} {rng.choice(('&amp;', '&beta;', '&#945;'))}"
            elif r < 0.08:
                text = f"{text} ({rng.randint(2, 400)} %)"
            elif r < 0.10:
                text = f"{text},"
            out.append(text)
        if rng.random() < 0.2:
            out.append(f"(n = {rng.randint(10, 900)})")
        first = out[0]
        return first[:1].upper() + first[1:] + " " + " ".join(out[1:]) + "."


def _units(fillers: list[str], phrases: list[list[str]],
           rng: random.Random) -> list[list[str]]:
    """Fillers with each phrase inserted between two filler words."""
    gaps = sorted(rng.sample(range(1, len(fillers)), len(phrases)))
    units: list[list[str]] = []
    prev = 0
    for gap, phrase in zip(gaps, phrases):
        units.extend([w] for w in fillers[prev:gap])
        units.append(phrase)
        prev = gap
    units.extend([w] for w in fillers[prev:])
    return units


def _sentences(units: list[list[str]], rng: random.Random) -> list[list[list[str]]]:
    out = []
    i = 0
    while i < len(units):
        n = rng.randint(8, 18)
        out.append(units[i:i + n])
        i += n
    return out


def _record(seq: int, doc_id: str, title: str, abstract: str,
            annotations: list[str], rng: random.Random) -> str:
    year = rng.randint(1987, 1991)
    mesh = f".M\n{'; '.join(annotations)}.\n" if annotations else ""
    return (
        f".I {seq}\n.U\n{doc_id}\n"
        f".S\nJ Med Res {year} {rng.choice(('Jan', 'Jun', 'Oct'))}; "
        f"{rng.randint(1, 90)}({rng.randint(1, 12)}):{rng.randint(1, 900)}-9\n"
        f"{mesh}.T\n{title}\n.P\nJOURNAL ARTICLE.\n.W\n{abstract}\n"
        f".A\nAuthor {rng.choice('ABCDEFGH')}; Writer {rng.choice('JKLMN')}.\n"
    )


def _category_sizes(total: int) -> list[int]:
    """Fixed, mildly skewed category sizes summing to `total`."""
    weights = [1.0 / (i + 1) ** 0.5 for i in range(len(CATEGORIES))]
    scale = total / sum(weights)
    sizes = [max(N_FOLDS, int(w * scale)) for w in weights]
    i = 0
    while sum(sizes) < total:
        sizes[i % len(sizes)] += 1
        i += 1
    while sum(sizes) > total:
        j = sizes.index(max(sizes))
        sizes[j] -= 1
    return sizes


def _fault_documents(n: int, stop: frozenset[str]) -> list[dict]:
    """Documents whose abstract holds '<' notation before later content.

    They come from a fixed seed and use their own vocabulary, so they are
    the same for every benchmark seed.
    """
    rng = random.Random(FAULT_SEED)
    words = _make_words(rng, 400, "a", set(), stop)
    cum = _zipf_cum(len(words))
    writer = _Writer(rng, markup=False)
    docs = []
    for j in range(n):
        title = rng.choices(words, cum_weights=cum, k=rng.randint(5, 9))
        before = rng.choices(words, cum_weights=cum, k=rng.randint(30, 60))
        between = rng.choices(words, cum_weights=cum, k=rng.randint(1, 3))
        after = rng.choices(words, cum_weights=cum, k=rng.randint(60, 100))
        if j % 2 == 0:
            notation = "(p < 0.05)"
            middle = " ".join(between)
        else:
            notation = f"p<0.05 {' '.join(between)} and p>0.1"
            middle = ""
        abstract = " ".join(
            [writer.sentence([[w] for w in before]), notation, middle,
             writer.sentence([[w] for w in after])]
        ).replace("  ", " ")
        docs.append({
            "doc_id": f"9{j:07d}",
            "title": _title(title),
            "abstract": abstract,
            "content_tokens": len(title) + len(before) + len(between) + len(after),
            "category": CATEGORIES[j % len(CATEGORIES)],
        })
    return docs


def _read_stoplist(root: Path) -> frozenset[str]:
    path = root / "src" / "ontoclass" / "data" / "stoplist.txt"
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        w = line.strip().lower()
        if w and not w.startswith("#"):
            words.add(w)
    return frozenset(words)


def _ini(wl: Workload, seed: int) -> str:
    sections = {
        "corpus": {"path": "corpus.txt", "format": "ohsumed",
                   "label_map": "labels.tsv",
                   "categories": ";".join(CATEGORIES),
                   "label_policy": "first-label"},
        **wl.config,
        "evaluate": {"n_folds": str(N_FOLDS), "seed": str(seed)},
        "cli": {"output_dir": "out"},
    }
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    return "\n".join(lines)


def generate(workload: str, seed: int, out: Path, root: Path) -> dict:
    """Write one input set; returns the make-up of what was written."""
    wl = WORKLOADS[workload]
    stop = _read_stoplist(root)
    missing = [w for w in STOPWORDS if w not in stop]
    if missing:
        raise SystemExit(f"words {missing} are not on the program's stoplist")
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)

    taken: set[str] = set()
    filler = _make_words(rng, wl.filler_vocab, "o", taken, stop)
    entry = _make_words(rng, wl.entry_vocab, "o", taken, stop)
    filler_cum = _zipf_cum(len(filler))
    thes = _Thesaurus(rng, wl, entry)
    thes.write_tsv(out / "mesh.tsv")
    thes.write_mesh(out / "mesh.txt")

    mapping = wl.config.get("mapping", {})
    first_concept = mapping.get("disambiguation") == "FirstConcept"
    hyperonyms = mapping.get("representation") == "concepts_hyperonyms"
    annotations_on = mapping.get("use_mesh_annotations") == "true"

    # each disease category draws most mentions from its root's subtree
    subtree: dict[str, list[str]] = {}
    for level in thes.levels[1:]:
        for c in level:
            root_id = c
            while root_id.parents:
                root_id = thes.concepts[root_id.parents[0]]
            subtree.setdefault(root_id.cid, []).append(c.cid)
    pools = [subtree[c.cid] for c in thes.levels[0][:len(CATEGORIES)]]
    everything = list(thes.concepts)

    writer = _Writer(rng)
    docs: list[dict] = []
    sizes = _category_sizes(wl.docs)
    doc_no = 0
    for cat_index, size in enumerate(sizes):
        pool = pools[cat_index]
        pool_cum = _zipf_cum(len(pool))
        for _ in range(size):
            doc_no += 1
            n_mentions = max(1, round(rng.gauss(MENTIONS, 2.0)))
            mentions: list[tuple[str, list[str]]] = []
            for _ in range(n_mentions):
                if rng.random() < 0.75:
                    cid = rng.choices(pool, cum_weights=pool_cum)[0]
                else:
                    cid = rng.choice(everything)
                c = thes.concepts[cid]
                mentions.append((cid, rng.choice(thes.terms(c))))
            n_title = rng.randint(5, 9)
            n_abstract = max(40, round(rng.gauss(ABSTRACT_TOKENS, 15)))
            title_fill = rng.choices(filler, cum_weights=filler_cum, k=n_title)
            abs_fill = rng.choices(filler, cum_weights=filler_cum, k=n_abstract)
            in_title = mentions[:1] if rng.random() < 0.4 else []
            title_units = _units(title_fill, [t for _, t in in_title], rng)
            abs_units = _units(abs_fill, [t for _, t in mentions[len(in_title):]], rng)
            title = writer.sentence(title_units).rstrip(".")
            abstract = " ".join(writer.sentence(s) for s in _sentences(abs_units, rng))

            content = n_title + n_abstract + sum(len(_content(t)) for _, t in mentions)
            expect: dict[str, int] = {}
            words: dict[str, int] = {}
            for cid, term in mentions:
                key_words = _content(term)
                for w in key_words:
                    words[w] = words.get(w, 0) + 1
                key = " ".join(key_words[:3])
                target = cid
                if first_concept and len(thes.keys[key]) > 1:
                    target = thes.head(key)
                expect[target] = expect.get(target, 0) + 1
            annotations = []
            for cid, _ in mentions[:4]:
                c = thes.concepts[cid]
                name = _title(c.preferred)
                if rng.random() < 0.3:
                    annotations.append(f"{name}/*{rng.choice(('DI', 'TH', 'ET'))}")
                    continue
                annotations.append(name)
                if annotations_on and len(_content(c.preferred)) <= 3:
                    expect[cid] = expect.get(cid, 0) + 1
            labels = [CATEGORIES[cat_index]]
            if rng.random() < MULTI_LABEL_SHARE:
                other = rng.choice(CATEGORIES)
                if other != labels[0]:
                    labels.append(other)
            docs.append({
                "doc_id": f"87{doc_no:06d}",
                "title": title,
                "abstract": abstract,
                "annotations": annotations,
                "labels": labels,
                "content_tokens": content,
                "concepts": expect,
                "words": words,
            })

    faults = _fault_documents(wl.fault_docs, stop)
    for f in faults:
        docs.append({**f, "annotations": [], "labels": [f["category"]],
                     "concepts": {}, "words": {}})
    order = list(range(len(docs)))
    rng.shuffle(order)
    with open(out / "corpus.txt", "w", encoding="utf-8") as fh:
        for seq, i in enumerate(order, start=1):
            d = docs[i]
            fh.write(_record(seq, d["doc_id"], d["title"], d["abstract"],
                             d["annotations"], rng))
    with open(out / "labels.tsv", "w", encoding="utf-8") as fh:
        for i in order:
            fh.write(f"{docs[i]['doc_id']}\t{';'.join(docs[i]['labels'])}\n")
    (out / f"{workload}.ini").write_text(_ini(wl, seed), encoding="utf-8")

    planted = {cid for d in docs for cid in d["concepts"]}
    category_sizes = {c: 0 for c in CATEGORIES}
    for d in docs:
        category_sizes[d["labels"][0]] += 1
    truth = {
        "workload": workload,
        "seed": seed,
        "config": f"{workload}.ini",
        "representation": mapping.get("representation"),
        "hyperonyms": hyperonyms,
        "category_sizes": category_sizes,
        "fault_docs": sorted(f["doc_id"] for f in faults),
        "parents": {cid: thes.concepts[cid].parents for cid in sorted(planted)},
        "docs": {d["doc_id"]: {"content_tokens": d["content_tokens"],
                               "concepts": d["concepts"],
                               "words": d["words"]} for d in docs},
    }
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")

    terms = [t for c in thes.concepts.values() for t in thes.terms(c)]
    return {
        "documents": len(docs),
        "fault_documents": len(faults),
        "content_tokens": sum(d["content_tokens"] for d in docs),
        "filler_vocabulary": wl.filler_vocab,
        "entry_vocabulary": wl.entry_vocab,
        "zipf_exponent": ZIPF_S,
        "descriptors": len(thes.concepts),
        "entry_terms": len(terms),
        "long_entry_terms": sum(len(_content(t)) > 3 for t in terms),
        "ambiguous_keys": sum(len(v) > 1 for v in thes.keys.values()),
        "tree_depth": LEVELS,
        "fault_share": len(faults) / len(docs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    print(json.dumps(generate(args.workload, args.seed, args.out, root), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
