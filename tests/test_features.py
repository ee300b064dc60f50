import logging
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import sparse

from ontoclass import features
from ontoclass.errors import OntoclassError
from ontoclass.features import (
    FeatureSpace,
    WeightedMatrix,
    build_matrix,
    chi_square,
    count_matrix,
    save_matrix,
    select_top_k,
    tfidf_weight,
)
from ontoclass.mapping import ConceptVector, HybridVector


def hv(doc_id, terms, concepts=None, label=None):
    return HybridVector(
        doc_id=doc_id,
        term_part=dict(terms),
        concept_part=ConceptVector(concepts or {}),
        labels=(label,) if label else (),
    )


def chi_square_definitional(n11, n10, n01, n00):
    """Independent oracle: sum of (observed - expected)^2 / expected."""
    total = n11 + n10 + n01 + n00
    rows = (n11 + n10, n01 + n00)
    cols = (n11 + n01, n10 + n00)
    observed = ((n11, n10), (n01, n00))
    acc = 0.0
    for i in range(2):
        for j in range(2):
            expected = rows[i] * cols[j] / total
            acc += (observed[i][j] - expected) ** 2 / expected
    return acc


def degenerate(n11, n10, n01, n00):
    """True when a marginal of the 2x2 table is empty."""
    return 0 in (n11 + n10, n01 + n00, n11 + n01, n10 + n00)


class TestTfidfWeight:
    def test_df_equal_to_category_count_is_zero(self):
        assert tfidf_weight(7, 5, 5) == 0.0

    def test_zero_tf_is_zero(self):
        assert tfidf_weight(0, 1, 8) == 0.0

    def test_worked_value(self):
        assert math.isclose(tfidf_weight(3, 2, 8), 3 * math.log(4))
        assert round(tfidf_weight(3, 2, 8), 4) == 4.1589

    def test_df_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tfidf_weight(1, 0, 8)
        with pytest.raises(ValueError):
            tfidf_weight(1, 9, 8)

    def test_negative_tf_rejected(self):
        with pytest.raises(ValueError):
            tfidf_weight(-1, 1, 8)

    def test_strictly_increasing_in_tf(self):
        weights = [tfidf_weight(tf, 3, 8) for tf in range(6)]
        assert all(b > a for a, b in zip(weights, weights[1:]))


class TestChiSquare:
    def test_independent_table_scores_zero(self):
        assert chi_square(2, 2, 2, 2) == 0.0

    def test_worked_value_exact(self):
        assert chi_square(4, 1, 1, 4) == 3.6

    def test_perfect_association_equals_total(self):
        assert chi_square(5, 0, 0, 5) == 10.0

    def test_degenerate_marginal_scores_zero(self):
        assert chi_square(0, 0, 3, 5) == 0.0
        assert chi_square(3, 5, 0, 0) == 0.0
        assert chi_square(0, 3, 0, 5) == 0.0
        assert chi_square(3, 0, 5, 0) == 0.0

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError, match="negative contingency cell"):
            chi_square(1, -1, 2, 2)

    def test_matches_definitional_form(self):
        rng = random.Random(17)
        checked = 0
        while checked < 1000:
            cells = [rng.randint(0, 30) for _ in range(4)]
            if degenerate(*cells):
                continue
            assert abs(chi_square(*cells) - chi_square_definitional(*cells)) <= 1e-9
            checked += 1

    def test_invariant_under_category_complement(self):
        rng = random.Random(5)
        for _ in range(200):
            n11, n10, n01, n00 = (rng.randint(0, 12) for _ in range(4))
            a = chi_square(n11, n10, n01, n00)
            b = chi_square(n01, n00, n11, n10)
            assert math.isclose(a, b, abs_tol=1e-12)

    def test_invariant_under_term_complement(self):
        rng = random.Random(6)
        for _ in range(200):
            n11, n10, n01, n00 = (rng.randint(0, 12) for _ in range(4))
            a = chi_square(n11, n10, n01, n00)
            b = chi_square(n10, n11, n00, n01)
            assert math.isclose(a, b, abs_tol=1e-12)

    def test_non_negative_and_zero_iff_independent(self):
        rng = random.Random(7)
        for _ in range(500):
            n11, n10, n01, n00 = (rng.randint(0, 9) for _ in range(4))
            score = chi_square(n11, n10, n01, n00)
            assert score >= 0.0
            if not degenerate(n11, n10, n01, n00):
                assert (score == 0.0) == (n11 * n00 == n10 * n01)


def descriptor_counts(vector):
    """A hybrid vector flattened into the shared descriptor namespace, as
    `count_matrix` counts it: stems first, then concepts."""
    counts = {"t:" + s: n for s, n in vector.term_part.items()}
    for cid, n in vector.concept_part.counts.items():
        counts["c:" + cid] = n
    return counts


class TestDescriptorCounts:
    def test_namespaces_are_disjoint(self):
        v = hv("d", {"cold": 2}, {"cold": 5})
        counts = count_matrix([v])
        assert counts.descriptors == ("c:cold", "t:cold")
        assert counts.values.toarray().tolist() == [[5.0, 2.0]]


class TestCountMatrix:
    def fixture(self):
        return [
            hv("d1", {"a": 2, "b": 1}, label="X"),
            hv("d2", {"a": 1}, {"K9": 3}, label="X"),
            hv("d3", {"b": 2, "c": 4}),
        ]

    def test_columns_in_descriptor_order(self):
        counts = count_matrix(self.fixture())
        assert counts.descriptors == ("c:K9", "t:a", "t:b", "t:c")

    def test_raw_counts(self):
        counts = count_matrix(self.fixture())
        assert counts.values.toarray().tolist() == [
            [0.0, 2.0, 1.0, 0.0],
            [3.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 4.0],
        ]

    def test_rows_keep_first_seen_entry_order(self):
        counts = count_matrix(self.fixture())
        order = [counts.descriptors[c] for c in counts.values.indices]
        assert order == ["t:a", "t:b", "t:a", "c:K9", "t:b", "t:c"]

    def test_ids_and_labels_in_input_order(self):
        counts = count_matrix(self.fixture())
        assert counts.doc_ids == ("d1", "d2", "d3")
        assert counts.labels == ("X", "X", "")

    def test_empty_input(self):
        counts = count_matrix([])
        assert counts.values.shape == (0, 0)


def marker_fixture():
    """12 docs, 3 categories; 'mx' marks every X doc and nothing else."""
    vecs = []
    for i in range(4):
        vecs.append(hv(f"x{i}", {"mx": 1, "shared": 1}, label="X"))
    for i in range(4):
        terms = {"shared": 1, "ybias": 1} if i < 3 else {"shared": 1}
        vecs.append(hv(f"y{i}", terms, label="Y"))
    for i in range(4):
        terms = {"shared": 1, "zbias": 1} if i < 2 else {"shared": 1}
        vecs.append(hv(f"z{i}", terms, label="Z"))
    return vecs


class TestSelectTopK:
    def test_category_marker_always_selected(self):
        space = select_top_k(marker_fixture(), k=1)
        assert "t:mx" in space.descriptors
        assert space.selected["X"] == ("t:mx",)
        # perfect association: chi-square equals the table total
        assert space.per_category_scores[("X", "t:mx")] == 12.0

    def test_scores_kept_for_unselected_descriptors(self):
        space = select_top_k(marker_fixture(), k=1)
        assert ("Y", "t:mx") in space.per_category_scores
        assert ("X", "t:shared") in space.per_category_scores

    def test_uniform_descriptor_never_selected(self):
        space = select_top_k(marker_fixture(), k=50)
        assert "t:shared" not in space.descriptors
        assert space.per_category_scores[("X", "t:shared")] == 0.0

    def test_large_k_selects_all_discriminating_descriptors(self):
        space = select_top_k(marker_fixture(), k=50)
        assert set(space.descriptors) == {"t:mx", "t:ybias", "t:zbias"}

    def test_per_category_count_is_min_k_positive(self):
        for k in (1, 2, 50):
            space = select_top_k(marker_fixture(), k=k)
            for cat in ("X", "Y", "Z"):
                positive = sum(
                    1
                    for (c, _), s in space.per_category_scores.items()
                    if c == cat and s > 0
                )
                assert len(space.selected[cat]) == min(k, positive)
            assert len(space.descriptors) <= k * 3

    def test_union_order_categories_first_occurrence(self):
        vecs = [
            hv("x0", {"mx": 1, "both": 1}, label="X"),
            hv("x1", {"mx": 1, "both": 1}, label="X"),
            hv("y0", {"my": 1}, label="Y"),
            hv("y1", {"my": 1, "both": 1}, label="Y"),
        ]
        space = select_top_k(vecs, k=5)
        # X's descriptors first, score-descending; Y adds only what is new
        assert space.descriptors[0] == "t:mx"
        assert space.descriptors.index("t:mx") < space.descriptors.index("t:my")
        assert len(space.descriptors) == len(set(space.descriptors))

    def test_ties_break_lexicographically(self):
        vecs = [
            hv("d1", {"ab": 1, "aa": 1}, label="X"),
            hv("d2", {"zz": 1}, label="Y"),
        ]
        space = select_top_k(vecs, k=1)
        assert space.selected["X"] == ("t:aa",)

    def test_deterministic_output(self):
        a = select_top_k(marker_fixture(), k=2)
        b = select_top_k(marker_fixture(), k=2)
        assert a.descriptors == b.descriptors
        assert a.selected == b.selected

    def test_bad_inputs_rejected(self):
        with pytest.raises(OntoclassError):
            select_top_k(marker_fixture(), k=0)
        with pytest.raises(OntoclassError):
            select_top_k([], k=1)
        with pytest.raises(OntoclassError):
            select_top_k([hv("d", {"a": 1}, label="X")], k=1)
        with pytest.raises(OntoclassError, match="'u1' has no label"):
            select_top_k(marker_fixture() + [hv("u1", {"a": 1})], k=1)

    def test_label_outside_category_list_rejected(self):
        with pytest.raises(OntoclassError):
            select_top_k(marker_fixture(), k=1, categories=("X", "Y"))

    def test_recorder_sees_every_document(self):
        seen = []
        select_top_k(marker_fixture(), k=1, recorder=seen.append)
        assert seen == [v.doc_id for v in marker_fixture()]


class TestCategoryStats:
    """The per-category statistics select_top_k gathers: category order,
    category df and the checks on its input."""

    def fixture(self):
        return [
            hv("d1", {"a": 2, "b": 1}, label="X"),
            hv("d2", {"a": 1}, {"K9": 3}, label="X"),
            hv("d3", {"b": 2}, label="Y"),
        ]

    def test_df_counts_categories_not_documents(self):
        space = select_top_k(self.fixture(), k=50)
        assert dict(zip(space.descriptors, space.df)) == {
            "t:a": 1, "t:b": 2, "c:K9": 1,
        }
        space = select_top_k(marker_fixture(), k=50)
        df = dict(zip(space.descriptors, space.df))
        # mx: 4 documents, all in X; ybias: 3 documents in Y
        assert df == {"t:mx": 1, "t:ybias": 1, "t:zbias": 1}
        vecs = marker_fixture() + [hv("z9", {"mx": 1}, label="Z")]
        space = select_top_k(vecs, k=50)
        assert dict(zip(space.descriptors, space.df))["t:mx"] == 2

    def test_category_order_is_first_appearance(self):
        assert list(select_top_k(self.fixture(), k=1).selected) == ["X", "Y"]
        vecs = marker_fixture()
        space = select_top_k(vecs[4:] + vecs[:4], k=1)
        assert list(space.selected) == ["Y", "Z", "X"]

    def test_recorder_sees_every_document(self):
        seen = []
        select_top_k(self.fixture(), k=1, recorder=seen.append)
        assert seen == ["d1", "d2", "d3"]

    def test_unlabeled_document_rejected(self):
        with pytest.raises(OntoclassError, match="'d1' has no label"):
            select_top_k([hv("d1", {"a": 1})], k=1)

    def test_df_bounds_enforced(self):
        for df in (0, 3):
            with pytest.raises(OntoclassError, match="df"):
                FeatureSpace(
                    descriptors=("t:a",),
                    per_category_scores={},
                    selected={"X": ("t:a",), "Y": ()},
                    df=(df,),
                )

    def test_one_df_per_descriptor_required(self):
        with pytest.raises(OntoclassError, match="one df per selected descriptor"):
            FeatureSpace(
                descriptors=("t:a", "t:b"),
                per_category_scores={},
                selected={"X": ("t:a",), "Y": ("t:b",)},
                df=(1,),
            )

    def test_empty_input_rejected(self):
        with pytest.raises(OntoclassError):
            select_top_k([], k=1)


def select_top_k_reference(vectors, k, categories=None):
    """The per-pair loop: one chi-square table for every category x
    descriptor, ranked by (-score, descriptor)."""
    cats = tuple(categories) if categories is not None else tuple(
        dict.fromkeys(v.labels[0] for v in vectors)
    )
    cat_sizes = {c: 0 for c in cats}
    presence = {}
    for v in vectors:
        cat_sizes[v.labels[0]] += 1
        for desc in descriptor_counts(v):
            presence.setdefault(desc, {c: 0 for c in cats})[v.labels[0]] += 1
    scores, selected, union = {}, {}, []
    for cat in cats:
        size = cat_sizes[cat]
        ranked = []
        for desc, by_cat in sorted(presence.items()):
            with_desc = sum(by_cat.values())
            n11 = by_cat[cat]
            score = chi_square(
                n11, size - n11, with_desc - n11,
                len(vectors) - size - (with_desc - n11),
            )
            scores[(cat, desc)] = score
            if score > 0:
                ranked.append((score, desc))
        ranked.sort(key=lambda pair: (-pair[0], pair[1]))
        selected[cat] = tuple(desc for _, desc in ranked[:k])
        union += [d for d in selected[cat] if d not in union]
    return scores, selected, tuple(union)


def hex_items(scores):
    return [(key, value.hex()) for key, value in scores.items()]


# A small pool, so many descriptors share a contingency table and tie.
_POOL = ("a", "aa", "ab", "b", "ba", "c")
_docs = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.dictionaries(st.sampled_from(_POOL), st.integers(1, 3), max_size=4),
        st.dictionaries(st.sampled_from(("D1", "D2")), st.integers(1, 2),
                        max_size=2),
    ),
    min_size=1,
    max_size=30,
)


class TestSelectTopKEquivalence:
    @given(docs=_docs, k=st.integers(1, len(_POOL) + 3),
           explicit=st.booleans())
    # W and X are both two documents large, so they share their tables
    @example(docs=[(0, {"a": 1}, {}), (0, {"b": 2}, {"D1": 1}),
                   (1, {"a": 1, "c": 1}, {}), (1, {"b": 1}, {"D1": 2})],
             k=2, explicit=False)
    def test_matches_per_pair_reference(self, docs, k, explicit):
        vecs = [
            hv(f"d{i}", terms, concepts, label="WXYZ"[cat])
            for i, (cat, terms, concepts) in enumerate(docs)
        ]
        categories = ("Z", "X", "W", "Y") if explicit else None
        if not explicit:
            assume(len({cat for cat, _, _ in docs}) >= 2)
        space = select_top_k(vecs, k=k, categories=categories)
        scores, selected, union = select_top_k_reference(vecs, k, categories)
        assert hex_items(space.per_category_scores) == hex_items(scores)
        assert space.selected == selected
        assert space.descriptors == union

    def test_large_n_scores_are_correctly_rounded(self):
        # 6,000 documents: N * (ad - bc)^2 passes 2^53, where a float64
        # formula rounds twice and misses the correctly rounded quotient.
        rng = random.Random(5)
        sizes = {"X": 3105, "Y": 2895}
        n = sum(sizes.values())
        tables = {}
        terms = {cat: [{} for _ in range(size)] for cat, size in sizes.items()}
        for j in range(48):
            # strong associations, alternately with X and with Y
            if j % 2:
                n11, n01 = rng.randint(1500, 3000), rng.randint(100, 1200)
            else:
                n11, n01 = rng.randint(100, 1200), rng.randint(1500, 2800)
            tables[f"t:w{j:02d}"] = (n11, n11 + n01)
            for cat, count in (("X", n11), ("Y", n01)):
                for i in rng.sample(range(sizes[cat]), count):
                    terms[cat][i][f"w{j:02d}"] = 1
        vecs = [
            hv(f"{cat}{i}", t, label=cat)
            for cat, docs in terms.items() for i, t in enumerate(docs)
        ]
        space = select_top_k(vecs, k=7)

        float_differs = 0
        for (cat, desc), score in space.per_category_scores.items():
            n11, freq = tables[desc]
            a = n11 if cat == "X" else freq - n11
            b, c = sizes[cat] - a, freq - a
            d = n - a - b - c
            num = n * (a * d - b * c) ** 2
            den = (a + b) * (c + d) * (a + c) * (b + d)
            assert score.hex() == float(Fraction(num, den)).hex()
            float_differs += float(n) * float(a * d - b * c) ** 2 / den != score
        assert float_differs > 0
        scores, selected, union = select_top_k_reference(vecs, 7)
        assert hex_items(space.per_category_scores) == hex_items(scores)
        assert space.selected == selected
        assert space.descriptors == union


class TestSelectTopKWork:
    def test_chi_square_once_per_distinct_table(self, monkeypatch):
        # sizes 6, 6, 4, 4 and 2: equal-size categories share tables
        rng = random.Random(3)
        vecs = [
            hv(f"d{i}", {w: 1 for w in rng.sample(_POOL, rng.randint(0, 4))},
               label=cat)
            for i, cat in enumerate("VVVVVVWWWWWWXXXXYYYYZZ")
        ]
        scored = Counter()

        def counting(n11, n10, n01, n00):
            scored[(n11 + n10, n11, n11 + n01)] += 1
            return chi_square(n11, n10, n01, n00)

        monkeypatch.setattr(features, "chi_square", counting)
        space = select_top_k(vecs, k=3)
        monkeypatch.undo()

        presence = {}
        for v in vecs:
            for desc in descriptor_counts(v):
                presence.setdefault(desc, Counter())[v.labels[0]] += 1
        sizes = Counter(v.labels[0] for v in vecs)
        tables = {(sizes[cat], by_cat[cat], sum(by_cat.values()))
                  for cat in sizes for by_cat in presence.values()}
        assert len(tables) < len(sizes) * len(presence)
        assert scored == Counter(dict.fromkeys(tables, 1))
        scores, selected, _ = select_top_k_reference(vecs, 3)
        assert hex_items(space.per_category_scores) == hex_items(scores)
        assert space.selected == selected


def small_matrix_fixture():
    vecs = [
        hv("d1", {"a": 2, "b": 1}, label="X"),
        hv("d2", {"a": 1, "c": 3}, label="Y"),
        hv("d3", {"b": 2, "c": 1, "d": 1}, label="Z"),
    ]
    space = select_top_k(vecs, k=10)
    return vecs, space


class TestBuildMatrix:
    def test_hand_computed_tfidf_rows(self):
        vecs, space = small_matrix_fixture()
        matrix = build_matrix(count_matrix(vecs), space)
        # df: a=2, b=2, c=2, d=1 over 3 categories; weight = n*ln(3/df),
        # rows L2-normalized; values hand-computed from that formula
        expected = {
            "d1": {"t:a": 0.894427190999916, "t:b": 0.447213595499958},
            "d2": {"t:a": 0.31622776601683794, "t:c": 0.9486832980505139},
            "d3": {"t:b": 0.5693074621569949, "t:c": 0.28465373107849745,
                   "t:d": 0.7712724984825094},
        }
        dense = matrix.values.toarray()
        col = {d: i for i, d in enumerate(matrix.descriptors)}
        for r, doc_id in enumerate(matrix.doc_ids):
            want = expected[doc_id]
            for desc in matrix.descriptors:
                got = dense[r, col[desc]]
                assert abs(got - want.get(desc, 0.0)) <= 1e-9

    def test_rows_are_unit_length(self):
        vecs, space = small_matrix_fixture()
        matrix = build_matrix(count_matrix(vecs), space)
        norms = np.sqrt(matrix.values.multiply(matrix.values).sum(axis=1))
        assert np.allclose(np.asarray(norms).ravel(), 1.0)

    def test_labels_and_ids_in_corpus_order(self):
        vecs, space = small_matrix_fixture()
        matrix = build_matrix(count_matrix(vecs), space)
        assert matrix.doc_ids == ("d1", "d2", "d3")
        assert matrix.labels == ("X", "Y", "Z")

    def test_tf_weighting_keeps_raw_proportions(self):
        vecs, space = small_matrix_fixture()
        matrix = build_matrix(count_matrix(vecs), space, weighting="tf")
        dense = matrix.values.toarray()
        col = matrix.descriptors.index("t:c")
        row = matrix.doc_ids.index("d2")
        assert math.isclose(dense[row, col], 3 / math.sqrt(10))

    def test_binary_weighting_flattens_counts(self):
        vecs, space = small_matrix_fixture()
        matrix = build_matrix(count_matrix(vecs), space, weighting="binary")
        dense = matrix.values.toarray()
        row = matrix.doc_ids.index("d1")
        nonzero = dense[row][dense[row] > 0]
        assert np.allclose(nonzero, 1 / math.sqrt(2))

    def test_unknown_weighting_rejected(self):
        vecs, space = small_matrix_fixture()
        with pytest.raises(OntoclassError):
            build_matrix(count_matrix(vecs), space, weighting="idf")

    def test_unlabeled_document_rejected(self):
        vecs, space = small_matrix_fixture()
        with pytest.raises(OntoclassError, match="'u1' has no label"):
            build_matrix(count_matrix(vecs + [hv("u1", {"a": 1})]), space)

    def test_document_without_selected_descriptors_is_zero_row(self, caplog):
        vecs, space = small_matrix_fixture()
        stranger = hv("d4", {"qqq": 5}, label="X")
        with caplog.at_level(logging.WARNING, logger="ontoclass.features"):
            matrix = build_matrix(count_matrix(vecs + [stranger]), space)
        assert "all-zero rows" in caplog.text
        assert matrix.values.getrow(3).nnz == 0


def category_df_reference(vectors):
    """compute_category_stats as it was before selection returned df,
    kept to what build_matrix read: the categories each descriptor
    occurs in."""
    seen_in = {}
    for v in vectors:
        for desc in descriptor_counts(v):
            seen_in.setdefault(desc, set()).add(v.labels[0])
    return {desc: len(cats) for desc, cats in seen_in.items()}


def build_matrix_reference(vectors, descriptors, df, nbr_category, weighting):
    """build_matrix as it was when it read separately fitted category
    statistics: one dict walk per document, weights as Python floats."""
    col_of = {d: i for i, d in enumerate(descriptors)}
    row_idx, col_idx, data = [], [], []
    for r, v in enumerate(vectors):
        for desc, n in descriptor_counts(v).items():
            c = col_of.get(desc)
            if c is None:
                continue
            if weighting == "binary":
                w = 1.0
            elif weighting == "tf":
                w = float(n)
            else:
                if desc not in df:
                    continue
                w = tfidf_weight(n, df[desc], nbr_category)
            if w:
                row_idx.append(r)
                col_idx.append(c)
                data.append(w)
    mat = sparse.csr_matrix(
        (data, (row_idx, col_idx)),
        shape=(len(vectors), len(descriptors)),
        dtype=np.float64,
    )
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return (sparse.diags(scale) @ mat).tocsr()


# Test documents also draw descriptors no training document holds, and
# may hold nothing at all, so zero rows come up often.
_test_docs = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.dictionaries(st.sampled_from(_POOL + ("q", "zz")), st.integers(1, 3),
                        max_size=4),
        st.dictionaries(st.sampled_from(("D1", "D3")), st.integers(1, 2),
                        max_size=2),
    ),
    max_size=12,
)

# "a" sits in every category at different rates, so it is selected
# with df equal to the category count and weighs 0 under tfidf.
_EVERY_CATEGORY = [
    (0, {"a": 1, "b": 1}, {}), (0, {"a": 1}, {}), (0, {"a": 2}, {}),
    (1, {"a": 1}, {}), (1, {"c": 1}, {}), (1, {"c": 2}, {}),
    (1, {"b": 1}, {}), (1, {"c": 1}, {}),
]


class TestBuildMatrixEquivalence:
    @given(train=_docs, test=_test_docs, k=st.integers(1, len(_POOL) + 3),
           explicit=st.booleans())
    @example(train=_EVERY_CATEGORY, test=[(0, {"a": 3}, {}), (1, {}, {})],
             k=10, explicit=False)
    @example(train=_EVERY_CATEGORY, test=[(2, {"q": 1}, {"D3": 1})],
             k=1, explicit=True)
    def test_matches_separate_stats_reference(self, train, test, k, explicit):
        train_vecs = [
            hv(f"d{i}", terms, concepts, label="WXYZ"[cat])
            for i, (cat, terms, concepts) in enumerate(train)
        ]
        test_vecs = [
            hv(f"e{i}", terms, concepts, label="WXYZ"[cat])
            for i, (cat, terms, concepts) in enumerate(test)
        ]
        categories = ("Z", "X", "W", "Y") if explicit else None
        if not explicit:
            assume(len({cat for cat, _, _ in train}) >= 2)
        space = select_top_k(train_vecs, k=k, categories=categories)
        df = category_df_reference(train_vecs)
        nbr = len(categories or {v.labels[0] for v in train_vecs})
        assert space.df == tuple(df[d] for d in space.descriptors)
        for weighting in ("tfidf", "tf", "binary"):
            for vecs in (train_vecs, test_vecs):
                got = build_matrix(count_matrix(vecs), space, weighting=weighting)
                want = build_matrix_reference(vecs, space.descriptors, df, nbr,
                                              weighting)
                assert got.doc_ids == tuple(v.doc_id for v in vecs)
                assert got.labels == tuple(v.labels[0] for v in vecs)
                assert got.values.indptr.tolist() == want.indptr.tolist()
                assert got.values.indices.tolist() == want.indices.tolist()
                assert ([x.hex() for x in got.values.data.tolist()]
                        == [x.hex() for x in want.data.tolist()])


def row_slice(counts, rows):
    """The rows of a count matrix, as run_experiment hands them to a fold."""
    return WeightedMatrix(
        doc_ids=tuple(counts.doc_ids[r] for r in rows),
        descriptors=counts.descriptors,
        values=counts.values[rows],
        labels=tuple(counts.labels[r] for r in rows),
    )


# Held-out documents draw from a wider pool, so some descriptors occur
# only in held-out rows; any document may be empty.
_split_docs = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 3),
        st.dictionaries(st.sampled_from(_POOL), st.integers(1, 3), max_size=4),
        st.dictionaries(st.sampled_from(("q", "zz")), st.integers(1, 2),
                        max_size=2),
        st.dictionaries(st.sampled_from(("D1", "D2")), st.integers(1, 2),
                        max_size=2),
    ),
    min_size=1,
    max_size=30,
)


class TestRowSliceEquivalence:
    """Selection and weighting over a row slice of one all-documents count
    matrix give what they give over the training documents alone."""

    @given(docs=_split_docs, k=st.integers(1, len(_POOL) + 3),
           explicit=st.booleans())
    @example(docs=[(True, 0, {}, {"q": 1}, {}), (False, 0, {"a": 1}, {}, {}),
                   (True, 1, {"b": 2}, {"zz": 1}, {"D1": 1}),
                   (False, 1, {}, {}, {}), (False, 1, {"b": 1}, {}, {"D2": 2})],
             k=2, explicit=False)
    def test_slice_matches_fresh_count_matrix(self, docs, k, explicit):
        vecs = [
            hv(f"d{i}", terms, concepts, label="WXYZ"[cat])
            if not held_out else
            hv(f"d{i}", {**terms, **extra}, concepts, label="WXYZ"[cat])
            for i, (held_out, cat, terms, extra, concepts) in enumerate(docs)
        ]
        train_rows = [i for i, d in enumerate(docs) if not d[0]]
        test_rows = [i for i, d in enumerate(docs) if d[0]]
        assume(train_rows)
        categories = ("Z", "X", "W", "Y") if explicit else None
        if not explicit:
            assume(len({docs[i][1] for i in train_rows}) >= 2)
        counts = count_matrix(vecs)
        train = [vecs[i] for i in train_rows]
        test = [vecs[i] for i in test_rows]

        space = select_top_k(train, k=k, categories=categories,
                             counts=row_slice(counts, train_rows))
        want = select_top_k(train, k=k, categories=categories)
        assert (hex_items(space.per_category_scores)
                == hex_items(want.per_category_scores))
        assert space.selected == want.selected
        assert space.descriptors == want.descriptors
        assert space.df == want.df
        for weighting in ("tfidf", "tf", "binary"):
            for vs, rows in ((train, train_rows), (test, test_rows)):
                got = build_matrix(row_slice(counts, rows), want,
                                   weighting=weighting).values
                ref = build_matrix(count_matrix(vs), want,
                                   weighting=weighting).values
                assert got.indptr.tolist() == ref.indptr.tolist()
                assert got.indices.tolist() == ref.indices.tolist()
                assert ([x.hex() for x in got.data.tolist()]
                        == [x.hex() for x in ref.data.tolist()])

    def test_mismatched_doc_ids_rejected(self):
        vecs = marker_fixture()
        for wrong in (count_matrix(vecs[::-1]), count_matrix(vecs[1:])):
            with pytest.raises(OntoclassError, match="do not match"):
                select_top_k(vecs, k=2, counts=wrong)

    def test_counts_out_of_descriptor_order_rejected(self):
        vecs = marker_fixture()
        counts = count_matrix(vecs)
        reversed_columns = WeightedMatrix(
            doc_ids=counts.doc_ids,
            descriptors=counts.descriptors[::-1],
            values=counts.values[:, ::-1].tocsr(),
            labels=counts.labels,
        )
        with pytest.raises(OntoclassError, match="not in descriptor order"):
            select_top_k(vecs, k=2, counts=reversed_columns)


class TestScoreTableView:
    def space_and_reference(self):
        train = marker_fixture()
        held_out = hv("h0", {"only_held_out": 2, "mx": 1}, label="X")
        counts = count_matrix(train + [held_out])
        space = select_top_k(train, k=2,
                             counts=row_slice(counts, range(len(train))))
        scores, _, _ = select_top_k_reference(train, 2)
        return space.per_category_scores, scores

    def test_matches_reference_dict(self):
        view, ref = self.space_and_reference()
        assert len(view) == len(ref) == 3 * 4
        assert view == ref and ref == view
        assert list(view) == list(ref)
        assert all(type(v) is float for v in view.values())

    def test_absent_keys(self):
        view, _ = self.space_and_reference()
        assert ("X", "t:mx") in view
        for key in (("Q", "t:mx"), ("X", "t:nope"), ("X", "t:only_held_out"),
                    "X", ("X",), ("X", "t:mx", "t:mx"), ["X", "t:mx"], None):
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
        assert view.get(("X", "t:nope")) is None

    def test_read_only(self):
        view, _ = self.space_and_reference()
        with pytest.raises(TypeError):
            view[("X", "t:mx")] = 0.0
        with pytest.raises(TypeError):
            del view[("X", "t:mx")]
        assert view[("X", "t:mx")] == 12.0

    def test_repeated_category_iterated_once(self):
        space = select_top_k(marker_fixture(), k=1, categories=("X", "Y", "X", "Z"))
        assert [c for c, _ in space.per_category_scores][::4] == ["X", "Y", "Z"]
        assert len(space.per_category_scores) == 3 * 4


class TestSelectTopKBoundedMemory:
    def test_scores_are_not_held_per_pair(self):
        # 20 categories x about 8,600 descriptors: about 172k scored pairs,
        # some 1.4 MB as one float64 grid and over 20 MB as a dict of
        # (category, descriptor) tuples to Python floats
        n_docs, n_desc, per_doc, n_cats = 1000, 10_000, 20, 20
        rng = np.random.default_rng(11)
        vecs = [
            hv(f"d{i}", {f"w{j}": 1 for j in rng.choice(n_desc, per_doc,
                                                         replace=False)},
               label=f"C{i % n_cats}")
            for i in range(n_docs)
        ]
        counts = count_matrix(vecs)
        n_pairs = n_cats * len(counts.descriptors)
        tracemalloc.start()
        try:
            space = select_top_k(vecs, k=10, counts=counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(space.per_category_scores) == n_pairs
        assert peak < 40 * n_pairs, f"peak {peak} bytes for {n_pairs} pairs"


class TestWeightedMatrixChecks:
    def matrix(self, rows, labels=("X", "Y")):
        return WeightedMatrix(
            doc_ids=("d1", "d2"),
            descriptors=("t:a", "t:b", "t:c"),
            values=sparse.csr_matrix(np.array(rows, dtype=np.float64)),
            labels=labels,
        )

    def test_well_formed_matrix_accepted(self):
        assert self.matrix([[1, 0, 2], [0, 0, 0]]).values.nnz == 2

    def test_shape_must_match_ids_and_descriptors(self):
        with pytest.raises(OntoclassError,
                           match=r"shape \(2, 2\) does not match 2 docs x 3"):
            self.matrix([[1, 0], [0, 1]])

    def test_one_label_per_row(self):
        with pytest.raises(OntoclassError, match="one label per row"):
            self.matrix([[1, 0, 2], [0, 1, 0]], labels=("X",))

    def test_negative_weight_rejected(self):
        with pytest.raises(OntoclassError, match="negative weight"):
            self.matrix([[1, 0, 2], [0, -0.5, 0]])


class TestMatrixSerialization:
    def test_header_counts_nonzeros(self, tmp_path):
        vecs, space = small_matrix_fixture()
        matrix = build_matrix(count_matrix(vecs), space)
        path = tmp_path / "weights.mtx"
        save_matrix(matrix, path)
        header = path.read_text().splitlines()[0].split()
        assert header == ["3", str(len(matrix.descriptors)),
                          str(matrix.values.nnz)]
