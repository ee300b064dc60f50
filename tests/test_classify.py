import logging
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ontoclass import classify
from ontoclass.classify import (
    KnnModel,
    TreeNode,
    _entropy,
    _extra_errors,
    c45_predict_all,
    c45_train,
    knn_predict_all,
    knn_train,
)
from ontoclass.config import ExperimentConfig
from ontoclass.errors import OntoclassError
from ontoclass.features import WeightedMatrix


def make_matrix(rows, labels, descriptors=None):
    arr = np.asarray(rows, dtype=np.float64)
    if descriptors is None:
        descriptors = tuple(f"t:f{i}" for i in range(arr.shape[1]))
    return WeightedMatrix(
        doc_ids=tuple(f"d{i}" for i in range(arr.shape[0])),
        descriptors=tuple(descriptors),
        values=sparse.csr_matrix(arr),
        labels=tuple(labels),
    )


def knn_predict(model, query):
    """Single-row reference for knn_predict_all: one query row, wrapped as
    a matrix over the default descriptors that `make_matrix` gives."""
    return knn_predict_all(model, make_matrix([query], ["?"]))[0]


def c45_predict(tree, query):
    """Single-row reference for c45_predict_all: a dense walk down the tree."""
    if sparse.issparse(query):
        query = np.asarray(query.todense()).ravel()
    else:
        query = np.asarray(query, dtype=np.float64).ravel()
    node = tree
    while not node.is_leaf:
        node = node.left if query[node.col] <= node.threshold else node.right
    return node.category


def unit(x, y):
    norm = math.hypot(x, y)
    return (x / norm, y / norm)


def knn_oracle(train_rows, train_labels, query, k):
    """From-scratch cosine KNN with the documented tie rules."""
    sims = [sum(a * b for a, b in zip(row, query)) for row in train_rows]
    order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))[:k]
    votes = Counter(train_labels[j] for j in order)
    sum_sim = {}
    for j in order:
        sum_sim[train_labels[j]] = sum_sim.get(train_labels[j], 0.0) + sims[j]
    return min(votes, key=lambda c: (-votes[c], -sum_sim[c], c))


class TestKnnTrain:
    def test_model_keeps_reference_rows(self):
        m = make_matrix(np.eye(10), ["A"] * 5 + ["B"] * 5)
        model = knn_train(m, k=3)
        assert model.matrix.values.shape == (10, 10)
        assert model.k == 3 and model.similarity == "cosine"

    def test_k_bounds(self):
        m = make_matrix(np.eye(3), ["A", "B", "A"])
        with pytest.raises(OntoclassError):
            knn_train(m, k=0)
        with pytest.raises(OntoclassError):
            knn_train(m, k=4)

    def test_unknown_similarity_rejected(self):
        m = make_matrix(np.eye(3), ["A", "B", "A"])
        with pytest.raises(OntoclassError):
            knn_train(m, k=1, similarity="manhattan")

    def test_zero_training_rows_accepted(self):
        rows = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        model = knn_train(make_matrix(rows, ["A", "B", "C"]), k=1)
        cat, _ = knn_predict(model, [1.0, 0.0])
        assert cat == "A"


class TestKnnPredict:
    def fixture(self):
        rows = [unit(1, 0), unit(3, 1), unit(1, 3), unit(0, 1)]
        labels = ["X", "X", "Y", "Y"]
        return rows, labels, knn_train(make_matrix(rows, labels), k=3)

    def test_training_row_with_k1_returns_own_label(self):
        rows, labels, _ = self.fixture()
        model = knn_train(make_matrix(rows, labels), k=1)
        for row, lab in zip(rows, labels):
            cat, votes = knn_predict(model, row)
            assert cat == lab
            assert votes == {lab: 1}

    def test_scale_invariance(self):
        _, _, model = self.fixture()
        base, _ = knn_predict(model, [0.6, 0.8])
        for scale in (0.01, 2.0, 750.0):
            scaled, _ = knn_predict(model, [0.6 * scale, 0.8 * scale])
            assert scaled == base

    def test_matches_brute_force_enumeration(self):
        rows, labels, model = self.fixture()
        cat, votes = knn_predict(model, [0.6, 0.8])
        assert cat == knn_oracle(rows, labels, [0.6, 0.8], 3) == "Y"
        assert votes == {"X": 1, "Y": 2}

    def test_matches_brute_force_on_random_queries(self):
        rng = random.Random(23)
        rows = [unit(rng.random() + 0.05, rng.random() + 0.05) for _ in range(9)]
        labels = [rng.choice("PQR") for _ in range(9)]
        labels[0], labels[1], labels[2] = "P", "Q", "R"
        for k in (1, 2, 3, 5, 9):
            model = knn_train(make_matrix(rows, labels), k=k)
            for _ in range(40):
                q = (rng.random(), rng.random())
                got, _ = knn_predict(model, list(q))
                assert got == knn_oracle(rows, labels, q, k)

    def test_batch_equals_single(self):
        rows, labels, model = self.fixture()
        queries = np.array([unit(1, 1), unit(5, 1), unit(1, 9), [0.0, 0.0]])
        batched = knn_predict_all(model, make_matrix(queries, ["?"] * 4))
        for i in range(queries.shape[0]):
            assert knn_predict(model, queries[i]) == batched[i]

    def test_weighted_matrix_query_accepted(self):
        rows, labels, model = self.fixture()
        out = knn_predict_all(model, make_matrix([unit(1, 4)], ["?"]))
        assert out[0][0] == "Y"

    def test_zero_query_falls_back_to_majority(self, caplog):
        rows = [unit(1, 0), unit(2, 1), unit(0, 1)]
        model = knn_train(make_matrix(rows, ["X", "X", "Y"]), k=1)
        with caplog.at_level(logging.WARNING, logger="ontoclass.classify"):
            cat, votes = knn_predict(model, [0.0, 0.0])
        assert cat == "X"
        assert votes == {}
        assert "zero query" in caplog.text

    def test_zero_queries_log_one_warning_with_their_count(self, caplog):
        rows = [unit(1, 0), unit(2, 1), unit(0, 1)]
        model = knn_train(make_matrix(rows, ["X", "X", "Y"]), k=1)
        queries = make_matrix([[0.0, 0.0], unit(0, 1), [0.0, 0.0], [0.0, 0.0]],
                              ["?"] * 4)
        with caplog.at_level(logging.WARNING, logger="ontoclass.classify"):
            out = knn_predict_all(model, queries)
        assert out == [("X", {}), ("Y", {"Y": 1}), ("X", {}), ("X", {})]
        warnings = [r for r in caplog.records
                    if r.name == "ontoclass.classify" and r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "3 zero query" in warnings[0].getMessage()

    def test_zero_queries_are_never_scored(self, monkeypatch):
        rows = [unit(1, 0), unit(2, 1), unit(0, 1)]
        model = knn_train(make_matrix(rows, ["X", "X", "Y"]), k=1)
        queries = make_matrix(np.zeros((3, 2)), ["?"] * 3)

        def no_block(*args, **kwargs):
            raise AssertionError("a block of zero queries was scored")

        monkeypatch.setattr(np, "partition", no_block)
        out = knn_predict_all(model, queries)
        assert out == [("X", {})] * 3
        assert len({id(votes) for _, votes in out}) == 3

    def test_query_in_another_descriptor_space_rejected(self):
        _, _, model = self.fixture()
        queries = make_matrix([unit(1, 4)], ["?"], descriptors=["t:f1", "t:f0"])
        assert queries.values.shape[1] == model.matrix.values.shape[1]
        with pytest.raises(OntoclassError, match="different descriptors"):
            knn_predict_all(model, queries)

    def test_vote_tie_broken_by_summed_similarity(self):
        rows = [unit(1, 0), unit(2, 3)]
        model = knn_train(make_matrix(rows, ["B", "A"]), k=2)
        cat, votes = knn_predict(model, [1.0, 0.0])
        assert votes == {"A": 1, "B": 1}
        assert cat == "B"

    def test_vote_tie_broken_by_name_last(self):
        rows = [unit(1, 0), unit(1, 0)]
        model = knn_train(make_matrix(rows, ["Q", "P"]), k=2)
        cat, _ = knn_predict(model, [1.0, 0.0])
        assert cat == "P"

    def test_neighbor_tie_prefers_earlier_row(self):
        rows = [unit(1, 0), unit(1, 0), unit(1, 0)]
        model = knn_train(make_matrix(rows, ["B", "A", "A"]), k=1)
        cat, _ = knn_predict(model, [1.0, 0.0])
        assert cat == "B"

    def test_wrong_column_count_rejected(self):
        _, _, model = self.fixture()
        with pytest.raises(OntoclassError):
            knn_predict(model, [1.0, 0.0, 0.0])

    def test_euclidean_prefers_closer_point(self):
        rows = [[1.0, 0.0], [0.0, 3.0]]
        model = knn_train(make_matrix(rows, ["A", "B"]), k=1,
                          similarity="euclidean")
        assert knn_predict(model, [0.0, 0.0])[0] == "A"
        assert knn_predict(model, [0.0, 2.0])[0] == "B"
        assert knn_predict(model, [1.0, 0.0])[0] == "A"


def knn_predict_all_reference(model, queries):
    """knn_predict_all as it was before query blocks: one dense (queries x
    training rows) similarity array and a full stable argsort per query."""
    train = model.matrix.values
    labels = model.matrix.labels
    q = queries.values
    dots = np.asarray((q @ train.T).todense())
    q_sq = np.asarray(q.multiply(q).sum(axis=1)).ravel()
    if model.similarity == "cosine":
        sims = dots
    else:
        r_sq = np.asarray(train.multiply(train).sum(axis=1)).ravel()
        d2 = np.maximum(q_sq[:, None] + r_sq[None, :] - 2.0 * dots, 0.0)
        sims = -np.sqrt(d2)
    fallback = classify._majority_class(Counter(labels))
    zero_rows = (q_sq == 0.0) & (model.similarity == "cosine")
    out = []
    for i in range(q.shape[0]):
        if zero_rows[i]:
            out.append((fallback, {}))
            continue
        order = np.argsort(-sims[i], kind="stable")[: model.k]
        votes, sum_sim = {}, {}
        for j in order:
            cat = labels[j]
            votes[cat] = votes.get(cat, 0) + 1
            sum_sim[cat] = sum_sim.get(cat, 0.0) + sims[i, j]
        winner = min(votes, key=lambda c: (-votes[c], -sum_sim[c], c))
        out.append((winner, votes))
    return out


# Few distinct values over few columns: most similarities tie, and many
# are zero, including whole zero rows.
_cells = st.sampled_from((0.0, 0.0, 0.1, 0.3, 1.0))


@st.composite
def knn_problems(draw):
    n_cols = draw(st.integers(1, 3))
    n_train = draw(st.integers(1, 9))
    train = draw(st.lists(st.lists(_cells, min_size=n_cols, max_size=n_cols),
                          min_size=n_train, max_size=n_train))
    queries = draw(st.lists(st.lists(_cells, min_size=n_cols, max_size=n_cols),
                            min_size=1, max_size=7))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n_train,
                           max_size=n_train))
    return train, labels, queries, draw(st.integers(1, n_train))


class TestKnnBlockEquivalence:
    @given(problem=knn_problems(),
           similarity=st.sampled_from(("cosine", "euclidean")),
           cells=st.sampled_from((1, 2, 5, 1 << 16)))
    @settings(max_examples=200)
    def test_matches_full_argsort_reference(self, problem, similarity, cells):
        train, labels, queries, k = problem
        model = knn_train(make_matrix(train, labels), k=k, similarity=similarity)
        q = make_matrix(queries, ["?"] * len(queries))
        with mock.patch.object(classify, "_BLOCK_CELLS", cells):
            got = knn_predict_all(model, q)
        want = knn_predict_all_reference(model, q)
        assert got == want
        # the same votes, counted in the same neighbor order
        assert [list(v.items()) for _, v in got] == [list(v.items()) for _, v in want]


def entropy_bits(labels):
    n = len(labels)
    return -sum(c / n * math.log2(c / n) for c in Counter(labels).values())


def brute_force_root(x, y, min_leaf):
    """Exhaustive (column, threshold) search mirroring the split contract."""
    n = len(y)
    parent_h = entropy_bits(y)
    candidates = []
    for col in range(x.shape[1]):
        distinct = sorted(set(x[:, col]))
        for a, b in zip(distinct, distinct[1:]):
            thr = (a + b) / 2.0
            left = [y[i] for i in range(n) if x[i, col] <= thr]
            right = [y[i] for i in range(n) if x[i, col] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent_h - (
                len(left) * entropy_bits(left) + len(right) * entropy_bits(right)
            ) / n
            pl = len(left) / n
            split_info = -(pl * math.log2(pl) + (1 - pl) * math.log2(1 - pl))
            ratio = gain / split_info if split_info > 0 else 0.0
            candidates.append((gain, ratio, col, thr))
    if not candidates:
        return None
    mean_gain = sum(c[0] for c in candidates) / len(candidates)
    eligible = [c for c in candidates if c[0] >= mean_gain - 1e-12 and c[0] > 1e-12]
    if not eligible:
        return None
    best = min(eligible, key=lambda c: (-c[1], c[2], c[3]))
    return best[2], best[3]


def separable_8rows():
    # column 1 separates perfectly; column 0 is noisy; column 2 constant
    rows = [
        [0.9, 0.10, 0.5],
        [0.1, 0.20, 0.5],
        [0.8, 0.30, 0.5],
        [0.2, 0.35, 0.5],
        [0.7, 0.70, 0.5],
        [0.3, 0.80, 0.5],
        [0.6, 0.90, 0.5],
        [0.4, 0.95, 0.5],
    ]
    labels = ["A", "A", "A", "A", "B", "B", "B", "B"]
    return rows, labels


class TestC45:
    def test_pure_input_gives_single_leaf(self):
        m = make_matrix([[0.1, 0.2], [0.3, 0.4]], ["A", "A"])
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=1))
        assert tree.is_leaf
        assert tree.category == "A"
        assert tree.class_counts == {"A": 2}

    def test_perfect_training_accuracy_on_consistent_data(self):
        rng = random.Random(11)
        rows = [[rng.random() for _ in range(4)] for _ in range(12)]
        labels = [rng.choice("ABC") for _ in range(12)]
        m = make_matrix(rows, labels)
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
        assert c45_predict_all(tree, m) == list(labels)

    def test_adjacent_values_are_split_at_the_lower(self):
        # the midpoint of these adjacent floats rounds up to the upper one
        low, high = 0.5000000000000001, 0.5000000000000002
        assert (low + high) / 2 == high
        m = make_matrix([[low], [high]], ["A", "B"])
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
        assert tree.threshold == low
        assert c45_predict_all(tree, m) == ["A", "B"]

    def test_root_split_matches_exhaustive_search(self):
        rows, labels = separable_8rows()
        m = make_matrix(rows, labels)
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
        x = np.asarray(rows)
        expected = brute_force_root(x, labels, 1)
        assert expected is not None
        assert (tree.col, tree.threshold) == expected
        assert tree.col == 1
        assert tree.threshold == pytest.approx((0.35 + 0.70) / 2)
        assert tree.descriptor == "t:f1"
        assert tree.left.is_leaf and tree.right.is_leaf

    def test_root_split_matches_exhaustive_search_randomized(self):
        grid = [0.0, 0.25, 0.5, 0.75]
        for seed in range(20):
            rng = random.Random(seed)
            rows = [[rng.choice(grid) for _ in range(3)] for _ in range(10)]
            labels = [rng.choice("AB") for _ in range(10)]
            if len(set(labels)) < 2:
                continue
            m = make_matrix(rows, labels)
            tree = c45_train(m, ExperimentConfig(tree_min_leaf=2, tree_prune=False))
            expected = brute_force_root(np.asarray(rows), labels, 2)
            if expected is None:
                assert tree.is_leaf
            else:
                assert (tree.col, tree.threshold) == expected

    def test_deterministic(self):
        rows, labels = separable_8rows()
        m = make_matrix(rows, labels)
        a = c45_train(m, ExperimentConfig(tree_min_leaf=1))
        b = c45_train(m, ExperimentConfig(tree_min_leaf=1))
        assert a == b

    def test_max_depth_stops_growth(self):
        # three classes along one column: unlimited, the tree is two deep
        m = make_matrix([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]],
                        ["A", "A", "B", "B", "C", "C"])
        unlimited = ExperimentConfig(tree_min_leaf=1, tree_prune=False)
        assert c45_train(m, unlimited).node_count() == 5
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_max_depth=1,
                                             tree_prune=False))
        assert not tree.is_leaf
        assert tree.left.is_leaf and tree.right.is_leaf

    def test_min_leaf_respected(self):
        rows, labels = separable_8rows()
        m = make_matrix(rows, labels)
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=4, tree_prune=False))

        def check(node):
            if node.is_leaf:
                assert sum(node.class_counts.values()) >= 4
            else:
                check(node.left)
                check(node.right)

        check(tree)

    def test_empty_matrix_rejected(self):
        m = make_matrix(np.zeros((0, 2)), [])
        with pytest.raises(OntoclassError):
            c45_train(m)

    def test_config_validation(self):
        with pytest.raises(OntoclassError):
            ExperimentConfig(tree_min_leaf=0)


class TestPruning:
    def weak_split_matrix(self):
        # the split leaves both sides majority-A, barely reducing entropy;
        # the pessimistic estimate then favors the collapsed leaf
        rows, labels = [], []
        for _ in range(11):
            rows.append([0.0]); labels.append("A")
        for _ in range(5):
            rows.append([0.0]); labels.append("B")
        for _ in range(9):
            rows.append([1.0]); labels.append("A")
        for _ in range(7):
            rows.append([1.0]); labels.append("B")
        return make_matrix(rows, labels)

    def test_weak_split_collapses_to_leaf(self):
        m = self.weak_split_matrix()
        unpruned = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
        pruned = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=True))
        assert not unpruned.is_leaf
        assert pruned.is_leaf
        assert pruned.category == "A"

    def test_pruned_never_larger(self):
        fixtures = [self.weak_split_matrix(),
                    make_matrix(*separable_8rows())]
        rng = random.Random(2)
        rows = [[rng.random() for _ in range(3)] for _ in range(16)]
        labels = [rng.choice("AB") for _ in range(16)]
        fixtures.append(make_matrix(rows, labels))
        for m in fixtures:
            unpruned = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
            pruned = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=True))
            assert pruned.node_count() <= unpruned.node_count()

    def test_strong_split_survives(self):
        m = make_matrix(*separable_8rows())
        pruned = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=True))
        assert not pruned.is_leaf
        assert c45_predict_all(pruned, m) == list(m.labels)


class TestTreeDescent:
    def hand_tree(self):
        left = TreeNode(class_counts={"L": 3}, category="L")
        right = TreeNode(class_counts={"R": 2}, category="R")
        return TreeNode(
            class_counts={"L": 3, "R": 2},
            category="L",
            descriptor="t:f0",
            col=0,
            threshold=0.5,
            left=left,
            right=right,
        )

    def test_descends_by_threshold(self):
        tree = self.hand_tree()
        assert c45_predict(tree, [0.3, 9.9]) == "L"
        assert c45_predict(tree, [0.7, 0.0]) == "R"

    def test_boundary_goes_left(self):
        assert c45_predict(self.hand_tree(), [0.5, 0.0]) == "L"

    def test_sparse_query(self):
        tree = self.hand_tree()
        q = sparse.csr_matrix(np.array([[0.9, 0.0]]))
        assert c45_predict(tree, q) == "R"

    def test_single_leaf_constant(self):
        leaf = TreeNode(class_counts={"Z": 1}, category="Z")
        assert c45_predict(leaf, [123.0, -5.0]) == "Z"

    def test_queries_over_other_descriptors_rejected(self):
        m = make_matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                        ["A", "A", "B", "B"], descriptors=("t:a", "t:b"))
        tree = c45_train(m, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
        assert (tree.descriptor, tree.col) == ("t:a", 0)
        swapped = make_matrix([[0.0, 1.0], [1.0, 0.0]], ["?", "?"],
                              descriptors=("t:b", "t:a"))
        with pytest.raises(OntoclassError, match="t:a"):
            c45_predict_all(tree, swapped)
        narrow = make_matrix([[1.0]], ["?"], descriptors=("t:b",))
        split_on_b = TreeNode(class_counts=tree.class_counts,
                              category=tree.category, descriptor="t:b", col=1,
                              threshold=0.5, left=tree.left, right=tree.right)
        with pytest.raises(OntoclassError, match="t:b"):
            c45_predict_all(split_on_b, narrow)
        # with no query rows, no split is routed through
        assert c45_predict_all(tree, make_matrix(np.zeros((0, 2)), [],
                                                 ("t:b", "t:a"))) == []


# -- dense reference: the split search as it was before it read only the
# nonzeros; the sparse search must grow the same trees, bit for bit

def dense_best_split(x, y, n_classes, min_leaf):
    n = x.shape[0]
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_h = _entropy(parent_counts)
    if parent_h == 0.0 or n < 2 * min_leaf:
        return None

    cand_gain, cand_ratio, cand_col, cand_thr = [], [], [], []
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    for col in range(x.shape[1]):
        vals = x[:, col]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cum = np.cumsum(onehot[order], axis=0)
        cut = np.nonzero(sv[:-1] != sv[1:])[0]
        if cut.size == 0:
            continue
        left_n = cut + 1
        keep = (left_n >= min_leaf) & (n - left_n >= min_leaf)
        cut = cut[keep]
        if cut.size == 0:
            continue
        left_n = left_n[keep].astype(np.float64)
        right_n = n - left_n
        left_counts = cum[cut]
        right_counts = parent_counts[None, :] - left_counts

        def h(counts, totals):
            p = counts / totals[:, None]
            terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
            return -terms.sum(axis=1)

        gain = parent_h - (left_n * h(left_counts, left_n)
                           + right_n * h(right_counts, right_n)) / n
        pl = left_n / n
        split_info = -(pl * np.log2(pl) + (1 - pl) * np.log2(1 - pl))
        ratio = np.where(split_info > 0, gain / split_info, 0.0)
        cand_gain.append(gain)
        cand_ratio.append(ratio)
        cand_col.append(np.full(cut.size, col))
        mid = (sv[cut] + sv[cut + 1]) / 2.0
        cand_thr.append(np.where(mid < sv[cut + 1], mid, sv[cut]))

    if not cand_gain:
        return None
    gain = np.concatenate(cand_gain)
    ratio = np.concatenate(cand_ratio)
    cols = np.concatenate(cand_col)
    thrs = np.concatenate(cand_thr)
    mean_gain = gain.mean()
    eligible = (gain >= mean_gain - 1e-12) & (gain > 1e-12)
    if not eligible.any():
        return None
    idx = np.nonzero(eligible)[0]
    best = min(idx, key=lambda i: (-ratio[i], cols[i], thrs[i]))
    return int(cols[best]), float(thrs[best])


# -- reference pruning: subtree replacement as a second walk over the grown
# tree, re-walking the subtree at every node; c45_train prunes as it grows

def reference_estimated_errors(node, cf):
    n = sum(node.class_counts.values())
    if node.is_leaf:
        e = n - node.class_counts.get(node.category, 0)
        return e + _extra_errors(n, e, cf)
    return (reference_estimated_errors(node.left, cf)
            + reference_estimated_errors(node.right, cf))


def reference_prune_tree(node, confidence=classify.PRUNE_CONFIDENCE):
    if node.is_leaf:
        return node
    pruned = TreeNode(
        class_counts=node.class_counts,
        category=node.category,
        descriptor=node.descriptor,
        col=node.col,
        threshold=node.threshold,
        left=reference_prune_tree(node.left, confidence),
        right=reference_prune_tree(node.right, confidence),
    )
    n = sum(node.class_counts.values())
    e_leaf = n - node.class_counts.get(node.category, 0)
    leaf_errors = e_leaf + _extra_errors(n, e_leaf, confidence)
    if leaf_errors <= reference_estimated_errors(pruned, confidence) + 0.1:
        return TreeNode(class_counts=node.class_counts, category=node.category)
    return pruned


def dense_c45_train(matrix, config):
    x = np.asarray(matrix.values.todense(), dtype=np.float64)
    cat_names = sorted(set(matrix.labels))
    y = np.array([cat_names.index(lab) for lab in matrix.labels], dtype=np.int64)

    def grow(rows, depth):
        bc = np.bincount(y[rows], minlength=len(cat_names))
        counts = {cat_names[i]: int(bc[i]) for i in range(len(cat_names)) if bc[i]}
        cat = min(counts, key=lambda c: (-counts[c], c))
        if len(counts) == 1 or (
            config.tree_max_depth and depth >= config.tree_max_depth
        ):
            return TreeNode(class_counts=counts, category=cat)
        found = dense_best_split(x[rows], y[rows], len(cat_names),
                                 config.tree_min_leaf)
        if found is None:
            return TreeNode(class_counts=counts, category=cat)
        col, thr = found
        mask = x[rows, col] <= thr
        return TreeNode(
            class_counts=counts, category=cat,
            descriptor=matrix.descriptors[col], col=col, threshold=thr,
            left=grow(rows[mask], depth + 1), right=grow(rows[~mask], depth + 1),
        )

    tree = grow(np.arange(x.shape[0]), 0)
    return reference_prune_tree(tree) if config.tree_prune else tree


def assert_same_tree(got, want, path="root"):
    assert got.class_counts == want.class_counts, path
    assert got.category == want.category, path
    assert got.descriptor == want.descriptor, path
    assert got.col == want.col, path
    assert float(got.threshold).hex() == float(want.threshold).hex(), path
    if not want.is_leaf:
        assert_same_tree(got.left, want.left, path + ".L")
        assert_same_tree(got.right, want.right, path + ".R")


# Few distinct values, most of them zero: many tied cuts and gain ratios,
# empty rows and empty columns.
_cell = st.one_of(
    st.sampled_from((0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3.0)),
    st.floats(1e-3, 2.0),
)


@st.composite
def _tree_inputs(draw):
    n_rows = draw(st.integers(1, 14))
    n_cols = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_cell, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    labels = draw(st.lists(st.integers(0, n_classes - 1),
                           min_size=n_rows, max_size=n_rows))
    queries = draw(st.lists(st.lists(_cell, min_size=n_cols, max_size=n_cols),
                            max_size=6))
    config = ExperimentConfig(
        tree_min_leaf=draw(st.integers(1, 4)),
        tree_max_depth=draw(st.integers(0, 3)),
        tree_prune=draw(st.booleans()),
    )
    m = make_matrix(rows, [f"c{lab}" for lab in labels])
    q = sparse.csr_matrix(np.asarray(queries, dtype=np.float64).reshape(-1, n_cols))
    return m, q, config


@st.composite
def _prune_inputs(draw):
    # many rows over few distinct values, so that trees reach several
    # levels and a leaf's estimate often lands within 0.1 of its subtree's
    n_rows = draw(st.integers(2, 40))
    n_cols = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    cell = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0))
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    labels = draw(st.lists(st.integers(0, n_classes - 1),
                           min_size=n_rows, max_size=n_rows))
    config = ExperimentConfig(
        tree_min_leaf=draw(st.integers(1, 3)),
        tree_max_depth=draw(st.sampled_from((0, 0, 2, 4))),
        tree_prune=False,
    )
    return make_matrix(rows, [f"c{lab}" for lab in labels]), config


class TestPruneEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_prune_inputs())
    def test_matches_reference(self, inputs):
        m, unpruned = inputs
        assert_same_tree(c45_train(m, replace(unpruned, tree_prune=True)),
                         reference_prune_tree(c45_train(m, unpruned)))


class TestSparseSplitEquivalence:
    # block sizes of one column, a few columns, and the default
    @settings(max_examples=300, deadline=None)
    @given(inputs=_tree_inputs(),
           cells=st.sampled_from((1, 7, classify._BLOCK_CELLS)))
    def test_matches_dense_reference(self, inputs, cells):
        m, q, config = inputs
        with mock.patch.object(classify, "_BLOCK_CELLS", cells):
            tree = c45_train(m, config)
        assert_same_tree(tree, dense_c45_train(m, config))
        for values in (m.values, q):
            n = values.shape[0]
            queries = WeightedMatrix(tuple(f"q{i}" for i in range(n)),
                                     m.descriptors, values, ("?",) * n)
            row_by_row = [c45_predict(tree, values[i]) for i in range(n)]
            assert c45_predict_all(tree, queries) == row_by_row

    @pytest.mark.parametrize("cells", [20, classify._BLOCK_CELLS])
    def test_many_classes_match_dense_reference(self, cells, monkeypatch):
        # From eight classes on, numpy sums a row of class terms pairwise,
        # so the order of the additions can flip a near-tie in gain ratio.
        monkeypatch.setattr(classify, "_BLOCK_CELLS", cells)
        for seed in range(300):
            rng = random.Random(seed)
            n_classes = rng.randint(8, 12)
            n_rows, n_cols = rng.randint(10, 30), rng.randint(2, 6)
            rows = [[rng.choice((0.0, 0.0, 0.0, 0.5, 1.0)) for _ in range(n_cols)]
                    for _ in range(n_rows)]
            labels = [f"c{rng.randrange(n_classes)}" for _ in range(n_rows)]
            m = make_matrix(rows, labels)
            config = ExperimentConfig(tree_min_leaf=1, tree_prune=False)
            assert_same_tree(c45_train(m, config), dense_c45_train(m, config),
                             f"seed {seed}")

    def test_explicit_zeros_and_duplicates_read_as_dense(self):
        rows = [[0.0, 0.2, 0.5], [0.3, 0.0, 0.5], [0.0, 0.7, 0.0],
                [0.6, 0.9, 0.0], [0.0, 0.0, 0.5], [0.6, 0.2, 0.0]]
        labels = ["A", "A", "B", "B", "A", "B"]
        dense = make_matrix(rows, labels)
        # every zero cell stored, every nonzero stored as two halves
        data, indices, indptr = [], [], [0]
        for row in rows:
            for j, v in enumerate(row):
                data += [v / 2, v / 2] if v else [0.0]
                indices += [j, j] if v else [j]
            indptr.append(len(data))
        values = sparse.csr_matrix((data, indices, indptr), shape=(6, 3))
        assert not values.has_canonical_format
        odd = WeightedMatrix(dense.doc_ids, dense.descriptors, values, dense.labels)
        config = ExperimentConfig(tree_min_leaf=1, tree_prune=False)
        tree = c45_train(odd, config)
        assert_same_tree(tree, dense_c45_train(dense, config))
        assert not tree.is_leaf
        assert c45_predict_all(tree, odd) == c45_predict_all(tree, dense) == labels


class TestC45BoundedMemory:
    def test_wide_sparse_matrix_is_never_densified(self):
        # 300 x 50,000 is 120 MB dense; ten nonzeros a row are about 36 KB
        n_rows, n_cols, per_row = 300, 50_000, 10
        rng = np.random.default_rng(5)
        cols = rng.integers(2, n_cols, size=(n_rows, per_row))
        cols[::3, 0] = 0  # column 0 marks class A, column 1 class B
        cols[1::3, 0] = 1
        values = sparse.csr_matrix(
            (rng.uniform(0.1, 1.0, n_rows * per_row),
             (np.repeat(np.arange(n_rows), per_row), cols.ravel())),
            shape=(n_rows, n_cols),
        )
        labels = tuple("ABC"[i % 3] for i in range(n_rows))
        m = WeightedMatrix(
            doc_ids=tuple(f"d{i}" for i in range(n_rows)),
            descriptors=tuple(f"t:f{j}" for j in range(n_cols)),
            values=values,
            labels=labels,
        )
        dense_bytes = n_rows * n_cols * 8
        tracemalloc.start()
        try:
            tree = c45_train(m)
            predicted = c45_predict_all(tree, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert predicted == list(labels)
        assert tree.node_count() <= 5
        assert peak < dense_bytes / 10, f"peak {peak} bytes"

    def test_split_search_memory_does_not_grow_with_candidates_times_classes(self):
        # 80,000 nonzeros, nearly all distinct, under 23 classes: scoring
        # every cut at once takes about nine (nonzeros x classes) float
        # arrays at the root, scoring them a block of columns at a time
        # less than one
        n_rows, n_cols, per_row, n_classes = 2000, 2000, 40, 23
        rng = np.random.default_rng(7)
        values = sparse.csr_matrix(
            (rng.uniform(0.1, 1.0, n_rows * per_row),
             (np.repeat(np.arange(n_rows), per_row),
              rng.integers(0, n_cols, n_rows * per_row))),
            shape=(n_rows, n_cols),
        )
        m = WeightedMatrix(
            doc_ids=tuple(f"d{i}" for i in range(n_rows)),
            descriptors=tuple(f"t:f{j}" for j in range(n_cols)),
            values=values,
            labels=tuple(f"c{i % n_classes:02d}" for i in range(n_rows)),
        )
        array_bytes = values.nnz * n_classes * 8
        tracemalloc.start()
        try:
            c45_train(m, ExperimentConfig(tree_max_depth=1, tree_prune=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * array_bytes, f"peak {peak} bytes"
