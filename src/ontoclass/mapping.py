"""Term-to-concept mapping: turn a stem vector into a concept-based
representation under one of three combination strategies and two sense
disambiguation strategies, with optional one-level hyperonym enrichment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import OntoclassError, OntologyError
from .ontology import Ontology, phrase_key
from .preprocess import TermVector

log = logging.getLogger(__name__)

STRATEGIES = ("AddConcept", "ReplaceTerms", "ConceptOnly")
DISAMBIGUATIONS = ("AllConcepts", "FirstConcept")
HYPERONYM_VARIANTS = ("additive", "hyponyms-only")


@dataclass(frozen=True)
class ConceptVector:
    """Sparse concept frequencies; zero entries are never stored."""

    counts: dict[str, int]

    def __post_init__(self):
        object.__setattr__(
            self, "counts", {c: n for c, n in self.counts.items() if n}
        )
        if any(n < 0 for n in self.counts.values()):
            raise OntoclassError("negative concept frequency")

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class HybridVector:
    """A document in mixed stem/concept space.

    Under AddConcept and for stems, `term_part` is the term vector's own
    `counts` dict, not a copy: both are frozen values, and nothing
    mutates either dict.
    """

    doc_id: str
    term_part: dict[str, int]
    concept_part: ConceptVector
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class MappingConfig:
    """How documents are mapped into concept space."""

    strategy: str = "AddConcept"
    disambiguation: str = "AllConcepts"
    use_hyperonyms: bool = False
    hyperonym_variant: str = "additive"
    use_mesh_annotations: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise OntoclassError(f"unknown strategy {self.strategy!r}")
        if self.disambiguation not in DISAMBIGUATIONS:
            raise OntoclassError(
                f"unknown disambiguation {self.disambiguation!r}"
            )
        if self.hyperonym_variant not in HYPERONYM_VARIANTS:
            raise OntoclassError(
                f"unknown hyperonym variant {self.hyperonym_variant!r}"
            )


def _senses(candidates: tuple[str, ...], disamb: str) -> tuple[str, ...]:
    """The candidate concepts one match counts toward: all of them under
    AllConcepts, only the head (most canonical sense) under FirstConcept."""
    return candidates if disamb == "AllConcepts" else candidates[:1]


def match_phrases(
    term_vector: TermVector, ontology: Ontology, disamb: str = "AllConcepts"
) -> tuple[ConceptVector, set[str]]:
    """Find concept matches in a stem sequence.

    Matching scans left to right taking the longest indexed window at
    each position; windows never overlap. Only the widths that
    `ontology.phrase_widths` lists for a position's stem are probed, so a
    stem that starts no key costs one lookup. Each match counts once
    toward the senses `_senses` picks. Returns the concept counts and the
    set of stems inside any match.
    """
    if disamb not in DISAMBIGUATIONS:
        raise OntoclassError(f"unknown disambiguation {disamb!r}")

    counts: dict[str, int] = {}
    consumed: set[str] = set()
    index = ontology.phrase_index
    widths_of = ontology.phrase_widths
    stems = term_vector.stems
    i = 0
    n = len(stems)
    while i < n:
        for width in widths_of.get(stems[i], ()):
            if width > n - i:
                continue
            window = stems[i : i + width]
            candidates = index.get(" ".join(window))
            if candidates:
                for cid in _senses(candidates, disamb):
                    counts[cid] = counts.get(cid, 0) + 1
                consumed.update(window)
                i += width
                break
        else:
            i += 1
    return ConceptVector(counts), consumed


def enrich_hyperonyms(
    concepts: ConceptVector, ontology: Ontology, variant: str = "additive"
) -> ConceptVector:
    """Propagate concept frequencies one hierarchy level upward.

    Every parent receives the summed pre-enrichment frequencies of its
    direct children. The default keeps each concept's own frequency and
    adds the children's; the "hyponyms-only" variant replaces it with the
    children's sum alone. Parents absent from the input vector enter it
    when their children carry frequency.
    """
    if variant not in HYPERONYM_VARIANTS:
        raise OntoclassError(f"unknown hyperonym variant {variant!r}")
    from_children: dict[str, int] = {}
    for cid, n in concepts.counts.items():
        if cid not in ontology.parents:
            raise OntologyError(f"unknown concept id {cid!r}")
        for parent in ontology.parents[cid]:
            from_children[parent] = from_children.get(parent, 0) + n
    if variant == "hyponyms-only":
        merged = from_children
    else:
        merged = dict(concepts.counts)
        for cid, n in from_children.items():
            merged[cid] = merged.get(cid, 0) + n
    return ConceptVector(merged)


def map_document(
    term_vector: TermVector,
    ontology: Ontology,
    config: MappingConfig,
    mesh_terms: Sequence[str] = (),
) -> HybridVector:
    """Build the document's hybrid representation.

    AddConcept keeps every original stem next to the matched concepts;
    ReplaceTerms drops the stems that contributed to a match; ConceptOnly
    drops all stems. Thesaurus annotation phrases (`mesh_terms`) only
    contribute when the config opts in; each annotation counts once, and
    is keyed with the thesaurus's own stoplist.
    """
    concept_vec, consumed = match_phrases(
        term_vector, ontology, config.disambiguation
    )
    counts = dict(concept_vec.counts)

    if config.use_mesh_annotations:
        for term in mesh_terms:
            candidates = ontology.phrase_index.get(
                phrase_key(term, ontology.stopwords), ()
            )
            for cid in _senses(candidates, config.disambiguation):
                counts[cid] = counts.get(cid, 0) + 1
    concept_vec = ConceptVector(counts)

    if config.use_hyperonyms:
        concept_vec = enrich_hyperonyms(
            concept_vec, ontology, config.hyperonym_variant
        )

    if config.strategy == "AddConcept":
        term_part = term_vector.counts
    elif config.strategy == "ReplaceTerms":
        term_part = {
            s: n for s, n in term_vector.counts.items() if s not in consumed
        }
    else:
        term_part = {}
    return HybridVector(
        doc_id=term_vector.doc_id,
        term_part=term_part,
        concept_part=concept_vec,
        labels=term_vector.labels,
    )


def map_corpus(
    term_vectors: Iterable[TermVector],
    ontology: Ontology,
    config: MappingConfig,
    mesh_by_doc: Mapping[str, Sequence[str]] | None = None,
) -> list[HybridVector]:
    """Map every document; `mesh_by_doc` supplies annotation phrases."""
    mesh_by_doc = mesh_by_doc or {}
    mapped = [
        map_document(tv, ontology, config, mesh_by_doc.get(tv.doc_id, ()))
        for tv in term_vectors
    ]
    if log.isEnabledFor(logging.INFO):
        log.info(
            "mapping: %d documents, %d concept occurrences, %d documents "
            "with no concept",
            len(mapped), sum(hv.concept_part.total() for hv in mapped),
            sum(not hv.concept_part.counts for hv in mapped),
        )
    return mapped


def stems_only(term_vector: TermVector) -> HybridVector:
    """The baseline representation: stems pass through untouched."""
    return HybridVector(
        doc_id=term_vector.doc_id,
        term_part=term_vector.counts,
        concept_part=ConceptVector({}),
        labels=term_vector.labels,
    )
