import dataclasses
import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontoclass.errors import OntoclassError, OntologyError
from ontoclass.mapping import (
    DISAMBIGUATIONS,
    ConceptVector,
    MappingConfig,
    enrich_hyperonyms,
    map_corpus,
    map_document,
    match_phrases,
    stems_only,
)
from ontoclass.ontology import MAX_PHRASE_LEN, build_ontology
from ontoclass.preprocess import TermVector, load_stoplist, preprocess_text

STOP = load_stoplist()


def dimensionality(vector):
    """Distinct stems plus distinct concepts of a mapped document."""
    return len(vector.term_part) + len(vector.concept_part.counts)


def appendicitis_ontology():
    # "appendicitis" stems to "append", "appendiceal" to "appendic";
    # both keys resolve to the single concept
    rows = [("D064", "Appendicitis", ["C01.100"], ["Appendiceal"])]
    return build_ontology(rows, STOP)


def cold_ontology():
    # "cold" is ambiguous; C001 owns it as preferred name so it leads
    rows = [
        ("C001", "Cold", ["A01.100"], []),
        ("C002", "Cold Temperature", ["A02.200"], ["Cold"]),
    ]
    return build_ontology(rows, STOP)


def chain_ontology():
    # A is parent of both B and C
    rows = [
        ("A", "Disorders", ["C01"], ["maladies"]),
        ("B", "Fractures", ["C01.100"], []),
        ("C", "Sprains", ["C01.200"], []),
    ]
    return build_ontology(rows, STOP)


def doc_vector(text, doc_id="d1", labels=()):
    return preprocess_text(doc_id, text, STOP, labels=labels)


FIGURE_TEXT = (
    "appendicitis appendicitis appendiceal patient patient patient patient"
)


class TestMatchPhrases:
    def test_synonyms_merge_frequencies(self):
        onto = appendicitis_ontology()
        concepts, consumed = match_phrases(doc_vector(FIGURE_TEXT), onto)
        assert concepts.counts == {"D064": 3}
        assert consumed == {"append", "appendic"}

    def test_ambiguous_stem_all_concepts(self):
        onto = cold_ontology()
        vec = doc_vector("cold cold cold cold")
        concepts, consumed = match_phrases(vec, onto, "AllConcepts")
        assert concepts.counts == {"C001": 4, "C002": 4}
        assert consumed == {"cold"}

    def test_ambiguous_stem_first_concept(self):
        onto = cold_ontology()
        vec = doc_vector("cold cold cold cold")
        concepts, _ = match_phrases(vec, onto, "FirstConcept")
        assert concepts.counts == {"C001": 4}

    def test_no_match_is_empty(self):
        onto = appendicitis_ontology()
        concepts, consumed = match_phrases(doc_vector("zebra sightings"), onto)
        assert concepts.counts == {}
        assert consumed == set()

    def test_longest_window_wins(self):
        rows = [
            ("P1", "Appendiceal Inflammation", ["C01.100"], []),
            ("P2", "Inflammation", ["C02"], []),
        ]
        onto = build_ontology(rows, STOP)
        vec = doc_vector("appendiceal inflammation persists")
        concepts, consumed = match_phrases(vec, onto)
        assert concepts.counts == {"P1": 1}
        assert consumed == {"appendic", "inflamm"}

    def test_windows_do_not_overlap(self):
        # after the two-stem match consumes "appendic inflamm", the
        # second "inflamm" still matches alone
        rows = [
            ("P1", "Appendiceal Inflammation", ["C01.100"], []),
            ("P2", "Inflammation", ["C02"], []),
        ]
        onto = build_ontology(rows, STOP)
        vec = doc_vector("appendiceal inflammation inflammation")
        concepts, _ = match_phrases(vec, onto)
        assert concepts.counts == {"P1": 1, "P2": 1}

    def test_three_stem_window(self):
        rows = [("Q1", "acute bacterial myocarditis", ["C03"], [])]
        onto = build_ontology(rows, STOP)
        vec = doc_vector("acute bacterial myocarditis confirmed")
        concepts, _ = match_phrases(vec, onto)
        assert concepts.counts == {"Q1": 1}

    def test_unknown_disambiguation_rejected(self):
        onto = appendicitis_ontology()
        with pytest.raises(OntoclassError):
            match_phrases(doc_vector("cold"), onto, "Oracle")


def match_phrases_reference(term_vector, ontology, disamb="AllConcepts"):
    """The three-width loop: probe every width from MAX_PHRASE_LEN down to 1
    at each position, whatever stem starts it."""
    counts, consumed = {}, set()
    stems = term_vector.stems
    i, n = 0, len(stems)
    while i < n:
        for width in range(min(MAX_PHRASE_LEN, n - i), 0, -1):
            candidates = ontology.phrase_index.get(" ".join(stems[i : i + width]), ())
            if candidates:
                senses = candidates if disamb == "AllConcepts" else candidates[:1]
                for cid in senses:
                    counts[cid] = counts.get(cid, 0) + 1
                consumed.update(stems[i : i + width])
                i += width
                break
        else:
            i += 1
    return counts, consumed


# Four words that are their own stems, so keys share first stems and
# overlap often; "zeta" starts no key.
_WORDS = ("alpha", "beta", "gamma", "delta")
_phrases = st.lists(
    st.tuples(
        st.integers(0, 3),  # the owning concept
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=MAX_PHRASE_LEN),
    ),
    min_size=1,
    max_size=10,
)
_doc_words = st.lists(st.sampled_from(_WORDS + ("zeta",)), max_size=14)


class TestMatchPhrasesEquivalence:
    @settings(deadline=None)
    @given(phrases=_phrases, words=_doc_words,
           disamb=st.sampled_from(DISAMBIGUATIONS))
    # "alpha beta gamma" and "alpha beta" share a first stem, and the last
    # "alpha" opens a three-stem window that would run past the end
    @example(phrases=[(0, ["alpha", "beta", "gamma"]), (1, ["alpha", "beta"]),
                      (2, ["beta", "gamma"]), (3, ["gamma"])],
             words=["alpha", "beta", "gamma", "zeta", "alpha", "beta", "alpha"],
             disamb="AllConcepts")
    # one key with two senses, under both disambiguations
    @example(phrases=[(0, ["beta"]), (1, ["beta"]), (2, ["beta", "delta"])],
             words=["beta", "beta", "delta", "beta"], disamb="FirstConcept")
    def test_matches_three_width_loop(self, phrases, words, disamb):
        terms = {}
        for owner, phrase in phrases:
            terms.setdefault(owner, []).append(" ".join(phrase))
        rows = [(f"C{owner}", names[0], [], names[1:])
                for owner, names in sorted(terms.items())]
        onto = build_ontology(rows, STOP)
        vec = TermVector(doc_id="d", stems=tuple(words))
        concepts, consumed = match_phrases(vec, onto, disamb)
        ref_counts, ref_consumed = match_phrases_reference(vec, onto, disamb)
        assert list(concepts.counts.items()) == list(ref_counts.items())
        assert consumed == ref_consumed


class _CountingIndex(dict):
    """A phrase index that counts its probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


class TestMatchPhrasesWork:
    def test_stem_that_opens_no_key_probes_at_most_once(self):
        rows = [("P1", "Appendiceal Inflammation", ["C01.100"], []),
                ("P2", "acute bacterial myocarditis", ["C02"], [])]
        onto = build_ontology(rows, STOP)
        index = _CountingIndex(onto.phrase_index)
        onto = dataclasses.replace(onto, phrase_index=index)
        vec = doc_vector("zebra sightings reported near rivers daily")
        assert len(vec.stems) == 6
        concepts, consumed = match_phrases(vec, onto)
        assert concepts.counts == {} and consumed == set()
        assert index.probes <= len(vec.stems)

    def test_only_the_widths_a_stem_opens_are_probed(self):
        # "appendic" opens only a two-stem key: one probe, which matches;
        # "persist" opens none
        rows = [("P1", "Appendiceal Inflammation", ["C01.100"], [])]
        onto = build_ontology(rows, STOP)
        index = _CountingIndex(onto.phrase_index)
        onto = dataclasses.replace(onto, phrase_index=index)
        concepts, _ = match_phrases(
            doc_vector("appendiceal inflammation persists"), onto
        )
        assert concepts.counts == {"P1": 1}
        assert index.probes == 1


class TestMapDocument:
    def figure_parts(self, strategy):
        onto = appendicitis_ontology()
        config = MappingConfig(strategy=strategy)
        return map_document(doc_vector(FIGURE_TEXT), onto, config)

    def test_add_concept_keeps_all_terms(self):
        hv = self.figure_parts("AddConcept")
        assert hv.term_part == {"append": 2, "appendic": 1, "patient": 4}
        assert hv.concept_part.counts == {"D064": 3}

    def test_replace_terms_drops_matched_stems(self):
        hv = self.figure_parts("ReplaceTerms")
        assert hv.term_part == {"patient": 4}
        assert hv.concept_part.counts == {"D064": 3}

    def test_concept_only_drops_every_term(self):
        hv = self.figure_parts("ConceptOnly")
        assert hv.term_part == {}
        assert hv.concept_part.counts == {"D064": 3}

    def test_dimensionality_ordering(self):
        dims = {s: dimensionality(self.figure_parts(s))
                for s in ("ConceptOnly", "ReplaceTerms", "AddConcept")}
        assert dims["ConceptOnly"] <= dims["ReplaceTerms"] <= dims["AddConcept"]
        assert dims == {"ConceptOnly": 1, "ReplaceTerms": 2, "AddConcept": 4}

    def test_empty_document_maps_to_empty_vector(self):
        onto = appendicitis_ontology()
        hv = map_document(doc_vector(""), onto, MappingConfig())
        assert hv.term_part == {}
        assert hv.concept_part.counts == {}

    def test_replace_terms_without_matches_keeps_original(self):
        onto = appendicitis_ontology()
        vec = doc_vector("zebra zebra crossing")
        hv = map_document(vec, onto, MappingConfig(strategy="ReplaceTerms"))
        assert hv.term_part == dict(vec.counts)
        assert hv.concept_part.counts == {}

    def test_frequency_conservation_first_concept_replace(self):
        # unigram matches move each matched stem's tf into exactly one
        # concept, so the grand total is preserved; no "cold" is followed
        # by "temperature", so the two-stem key never matches
        onto = cold_ontology()
        vec = doc_vector("temperature temperature zebra cold cold cold cold")
        config = MappingConfig(strategy="ReplaceTerms",
                               disambiguation="FirstConcept")
        hv = map_document(vec, onto, config)
        total = sum(hv.term_part.values()) + hv.concept_part.total()
        assert total == sum(vec.counts.values())

    def test_all_concepts_dominates_first_concept(self):
        onto = cold_ontology()
        vec = doc_vector("cold temperature cold weather cold")
        totals = {}
        for disamb in ("AllConcepts", "FirstConcept"):
            hv = map_document(vec, onto, MappingConfig(disambiguation=disamb))
            totals[disamb] = hv.concept_part.total()
        assert totals["AllConcepts"] >= totals["FirstConcept"]

    def test_deterministic(self):
        onto = cold_ontology()
        config = MappingConfig(strategy="ReplaceTerms", use_hyperonyms=True)
        a = map_document(doc_vector("cold appendiceal cold"), onto, config)
        b = map_document(doc_vector("cold appendiceal cold"), onto, config)
        assert a == b

    def test_labels_carried_through(self):
        onto = appendicitis_ontology()
        vec = doc_vector(FIGURE_TEXT, labels=("C14",))
        hv = map_document(vec, onto, MappingConfig())
        assert hv.labels == ("C14",)


class TestHyperonyms:
    def test_parent_gains_children_frequencies(self):
        onto = chain_ontology()
        out = enrich_hyperonyms(ConceptVector({"A": 1, "B": 2, "C": 1}), onto)
        assert out.counts == {"A": 4, "B": 2, "C": 1}

    def test_leaf_only_vector_is_fixed_point(self):
        onto = chain_ontology()
        out = enrich_hyperonyms(ConceptVector({"B": 2, "C": 5}), onto)
        assert out.counts["B"] == 2
        assert out.counts["C"] == 5

    def test_silent_parent_enters_vector(self):
        onto = chain_ontology()
        out = enrich_hyperonyms(ConceptVector({"B": 2}), onto)
        assert out.counts == {"A": 2, "B": 2}

    def test_pointwise_non_decreasing(self):
        onto = chain_ontology()
        before = ConceptVector({"A": 1, "B": 2, "C": 1})
        after = enrich_hyperonyms(before, onto)
        for cid, n in before.counts.items():
            assert after.counts.get(cid, 0) >= n

    def test_not_idempotent(self):
        onto = chain_ontology()
        once = enrich_hyperonyms(ConceptVector({"A": 1, "B": 2, "C": 1}), onto)
        twice = enrich_hyperonyms(once, onto)
        assert twice.counts != once.counts
        assert twice.counts["A"] == 7

    def test_hyponyms_only_variant_discards_own_frequency(self):
        onto = chain_ontology()
        out = enrich_hyperonyms(
            ConceptVector({"A": 1, "B": 2, "C": 1}), onto, "hyponyms-only"
        )
        assert out.counts == {"A": 3}

    def test_unknown_concept_rejected(self):
        onto = chain_ontology()
        with pytest.raises(OntologyError):
            enrich_hyperonyms(ConceptVector({"ZZZ": 1}), onto)

    def test_unknown_variant_rejected(self):
        onto = chain_ontology()
        with pytest.raises(OntoclassError):
            enrich_hyperonyms(ConceptVector({"B": 1}), onto, "transitive")

    def test_map_document_applies_enrichment(self):
        onto = chain_ontology()
        vec = doc_vector("fractures and sprains after maladies")
        plain = map_document(vec, onto, MappingConfig(strategy="ConceptOnly"))
        rich = map_document(
            vec, onto, MappingConfig(strategy="ConceptOnly", use_hyperonyms=True)
        )
        assert plain.concept_part.counts == {"A": 1, "B": 1, "C": 1}
        assert rich.concept_part.counts == {"A": 3, "B": 1, "C": 1}


class TestMeshAnnotations:
    def test_annotations_ignored_by_default(self):
        onto = appendicitis_ontology()
        hv = map_document(
            doc_vector("patient history"), onto, MappingConfig(),
            mesh_terms=("Appendicitis",),
        )
        assert hv.concept_part.counts == {}

    def test_annotations_count_once_when_enabled(self):
        onto = appendicitis_ontology()
        config = MappingConfig(use_mesh_annotations=True)
        hv = map_document(
            doc_vector("patient history"), onto, config,
            mesh_terms=("Appendicitis", "Nonexistent Heading"),
        )
        assert hv.concept_part.counts == {"D064": 1}

    def test_annotations_add_to_text_matches(self):
        onto = appendicitis_ontology()
        config = MappingConfig(use_mesh_annotations=True)
        hv = map_document(
            doc_vector(FIGURE_TEXT), onto, config,
            mesh_terms=("Appendicitis",),
        )
        assert hv.concept_part.counts == {"D064": 4}

    def test_annotations_keyed_with_the_thesaurus_stoplist(self):
        # "acute" is a stopword of the thesaurus only: the index holds
        # "append", and the annotation must be keyed the same way
        rows = [("D1", "Acute Appendicitis", ["C01"], [])]
        onto = build_ontology(rows, load_stoplist() | {"acute"})
        out = map_corpus(
            [TermVector("d", ("patient",))], onto,
            MappingConfig(use_mesh_annotations=True),
            {"d": ("Acute Appendicitis",)},
        )
        assert out[0].concept_part.counts == {"D1": 1}


class TestMapCorpus:
    def test_maps_in_document_order(self):
        onto = appendicitis_ontology()
        vecs = [doc_vector("appendicitis", doc_id="a"),
                doc_vector("zebra", doc_id="b")]
        out = map_corpus(vecs, onto, MappingConfig())
        assert [hv.doc_id for hv in out] == ["a", "b"]
        assert out[0].concept_part.counts == {"D064": 1}
        assert out[1].concept_part.counts == {}

    def test_mesh_routing_by_doc_id(self):
        onto = appendicitis_ontology()
        config = MappingConfig(strategy="ConceptOnly", use_mesh_annotations=True)
        vecs = [doc_vector("patient", doc_id="a"),
                doc_vector("patient", doc_id="b")]
        out = map_corpus(vecs, onto, config,
                         mesh_by_doc={"b": ("Appendiceal",)})
        assert out[0].concept_part.counts == {}
        assert out[1].concept_part.counts == {"D064": 1}

    def test_counts_logged_at_info(self, caplog):
        onto = appendicitis_ontology()
        vecs = [doc_vector("appendicitis appendiceal", doc_id="a"),
                doc_vector("zebra", doc_id="b"),
                doc_vector("", doc_id="c")]
        with caplog.at_level(logging.INFO, logger="ontoclass.mapping"):
            map_corpus(vecs, onto, MappingConfig())
        assert ("mapping: 3 documents, 2 concept occurrences, 2 documents "
                "with no concept") in caplog.text


class TestVectorTypes:
    def test_concept_vector_drops_zeros(self):
        assert ConceptVector({"A": 0, "B": 2}).counts == {"B": 2}

    def test_concept_vector_rejects_negative(self):
        with pytest.raises(OntoclassError):
            ConceptVector({"A": -1})

    def test_bad_strategy_rejected(self):
        with pytest.raises(OntoclassError):
            MappingConfig(strategy="Merge")
        with pytest.raises(OntoclassError):
            MappingConfig(disambiguation="Best")
        with pytest.raises(OntoclassError,
                           match="unknown hyperonym variant 'transitive'"):
            MappingConfig(hyperonym_variant="transitive")

    def test_stems_only_passthrough(self):
        vec = doc_vector(FIGURE_TEXT, labels=("C01",))
        hv = stems_only(vec)
        assert hv.term_part == {"append": 2, "appendic": 1, "patient": 4}
        assert hv.concept_part.counts == {}
        assert hv.labels == ("C01",)
        assert dimensionality(hv) == 3
