"""The two classifiers: k-nearest-neighbors over cosine similarity and a
binary numeric-threshold decision tree grown on gain ratio with optional
pessimistic pruning.

Both take a fold's WeightedMatrix, whose rows are already L2-normalized,
so cosine similarity reduces to a dot product.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Mapping

import numpy as np
from scipy import sparse

from .config import SIMILARITIES, ExperimentConfig
from .errors import OntoclassError
from .features import WeightedMatrix

log = logging.getLogger(__name__)

PRUNE_CONFIDENCE = 0.25
#: cells of one block of a dense work array: (candidates x classes) in the
#: split search, (queries x training rows) in KNN
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class KnnModel:
    """Lazy learner: just the training matrix and the vote parameters."""

    matrix: WeightedMatrix
    k: int
    similarity: str = ExperimentConfig.knn_similarity

    def __post_init__(self):
        if self.similarity not in SIMILARITIES:
            raise OntoclassError(f"unknown similarity {self.similarity!r}")
        n = self.matrix.values.shape[0]
        if self.k < 1:
            raise OntoclassError(f"k must be >= 1, got {self.k}")
        if self.k > n:
            raise OntoclassError(f"k = {self.k} exceeds {n} training rows")


def knn_train(
    matrix: WeightedMatrix,
    k: int = ExperimentConfig.knn_k,
    similarity: str = ExperimentConfig.knn_similarity,
) -> KnnModel:
    return KnnModel(matrix=matrix, k=k, similarity=similarity)


def _majority_class(counts: Mapping[str, int]) -> str:
    """The most frequent class; a tie goes to the smaller name."""
    return min(counts, key=lambda c: (-counts[c], c))


def knn_predict_all(
    model: KnnModel, queries: WeightedMatrix
) -> list[tuple[str, dict[str, int]]]:
    """Classify each row of the fold's test matrix, which must share the
    model's descriptors; returns (category, neighbor votes) pairs.

    Neighbors are the k most similar training rows (ties toward the
    earlier row); the winning category has the most votes, with ties
    broken by larger summed similarity, then by name. A zero query under
    cosine matches nothing: it is never scored, and falls back to the
    training majority class with empty votes; one warning counts them.

    Queries are scored a block of rows at a time, so that the dense
    (queries x training rows) similarities stay near _BLOCK_CELLS
    cells at any corpus size. In each row, `np.partition` finds the k-th
    largest similarity, and a stable sort of only the entries at or above
    it ranks the neighbors, ties, zero cosines included, toward the
    earlier row; each category's similarities are summed in that order.
    """
    if queries.descriptors != model.matrix.descriptors:
        raise OntoclassError("queries and model are over different descriptors")
    train = model.matrix.values
    labels = model.matrix.labels
    q = queries.values
    k = model.k
    cosine = model.similarity == "cosine"
    # what `q @ train.T` converts train.T to, once for every block
    train_t = train.T.tocsr()
    q_sq = np.asarray(q.multiply(q).sum(axis=1)).ravel()
    if not cosine:
        r_sq = np.asarray(train.multiply(train).sum(axis=1)).ravel()
    fallback = _majority_class(Counter(labels))
    out = [(fallback, {}) for _ in range(q.shape[0])]
    scored = np.flatnonzero(q_sq) if cosine else np.arange(q.shape[0])
    if scored.size < len(out):
        log.warning("%d zero query vectors; using majority class %r",
                    len(out) - scored.size, fallback)
    q, q_sq = q[scored], q_sq[scored]

    n_train = train.shape[0]
    per_block = max(1, _BLOCK_CELLS // max(1, n_train))
    for a in range(0, scored.size, per_block):
        # distances: the negated similarities, smallest first
        dist = (q[a:a + per_block] @ train_t).toarray()
        if cosine:
            np.negative(dist, out=dist)
        else:
            d2 = q_sq[a:a + per_block, None] + r_sq[None, :]
            dist *= 2.0
            d2 -= dist
            np.maximum(d2, 0.0, out=d2)
            dist = np.sqrt(d2, out=d2)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(dist <= kth[:, None])
        order = np.lexsort((dist[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        per_row = np.bincount(rows, minlength=dist.shape[0])
        rank = np.arange(rows.size) - np.repeat(np.cumsum(per_row) - per_row,
                                                per_row)
        first = rank < k
        neighbors = cols[first].reshape(-1, k).tolist()
        sims = (-dist[rows[first], cols[first]]).reshape(-1, k).tolist()
        for i, row_neighbors, row_sims in zip(
            scored[a:a + per_block].tolist(), neighbors, sims
        ):
            votes: dict[str, int] = {}
            sum_sim: dict[str, float] = {}
            for j, sim in zip(row_neighbors, row_sims):
                cat = labels[j]
                votes[cat] = votes.get(cat, 0) + 1
                sum_sim[cat] = sum_sim.get(cat, 0.0) + sim
            winner = min(votes, key=lambda c: (-votes[c], -sum_sim[c], c))
            out[i] = (winner, votes)
    return out


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class TreeNode:
    """Internal node (descriptor set) or leaf (descriptor None)."""

    class_counts: dict[str, int]
    category: str
    descriptor: str | None = None
    col: int = -1
    threshold: float = 0.0
    left: TreeNode | None = None
    right: TreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.descriptor is None

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()


def _row_nonzeros(
    x: sparse.csr_matrix, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions in x.data of the stored entries of `rows`, and the index
    into `rows` of the row each entry belongs to."""
    starts = x.indptr[rows]
    lens = x.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lens)
    pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return pos, owner


def _router(x: sparse.csc_matrix) -> Callable[[np.ndarray, int, float], np.ndarray]:
    """goes_left(rows, col, thr): which of `rows` have x[row, col] <= thr.
    `x` holds no duplicate entries; each call reads only column `col`."""
    column = np.zeros(x.shape[0])

    def goes_left(rows: np.ndarray, col: int, thr: float) -> np.ndarray:
        nz = slice(x.indptr[col], x.indptr[col + 1])
        column[x.indices[nz]] = x.data[nz]
        left = column[rows] <= thr
        column[x.indices[nz]] = 0.0
        return left

    return goes_left


def _entropies(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a C-contiguous (candidates x classes)
    count array. Summing along the rows fixes the order of the additions."""
    p = counts / totals[:, None]
    terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def _score_cuts(
    group: np.ndarray, labels: np.ndarray, g_col: np.ndarray, g_val: np.ndarray,
    parent: np.ndarray, min_leaf: int,
) -> tuple[np.ndarray, ...]:
    """(column, threshold, gain, ratio) of the admissible cuts of whole
    columns. Groups are the distinct nonzero (column, value) pairs in
    (column, value) order; entry i has class labels[i] and is in group
    group[i]. Each group yields the cut just below it, whose left side
    holds the column's zeros and smaller nonzeros: the parent minus the
    rows valued at or above the group's value."""
    n_groups, n_classes = g_col.size, parent.size
    n = int(parent.sum())
    g_counts = np.bincount(
        group * n_classes + labels, minlength=n_groups * n_classes
    ).reshape(n_groups, n_classes)
    first = np.concatenate(([True], g_col[1:] != g_col[:-1]))
    # one past the last group of each group's column
    col_stops = np.append(np.flatnonzero(first)[1:], n_groups)[np.cumsum(first) - 1]
    cum = np.vstack(
        [np.zeros((1, n_classes), dtype=np.int64), np.cumsum(g_counts, axis=0)]
    )
    left = parent[None, :] - (cum[col_stops] - cum[:-1])
    left_n = left.sum(axis=1)
    below = np.where(first, 0.0, np.concatenate(([0.0], g_val[:-1])))
    keep = (left_n >= min_leaf) & (n - left_n >= min_leaf)

    parent_counts = parent.astype(np.float64)
    left_counts = left[keep].astype(np.float64)
    left_n = left_n[keep].astype(np.float64)
    right_n = n - left_n
    right_counts = parent_counts[None, :] - left_counts
    gain = _entropy(parent_counts) - (
        left_n * _entropies(left_counts, left_n)
        + right_n * _entropies(right_counts, right_n)
    ) / n
    pl = left_n / n
    split_info = -(pl * np.log2(pl) + (1 - pl) * np.log2(1 - pl))
    ratio = np.where(split_info > 0, gain / split_info, 0.0)
    # the midpoint of two adjacent floats can round up to the upper one,
    # which would send every row left; the lower value then cuts instead
    below, above = below[keep], g_val[keep]
    mid = (below + above) / 2.0
    return g_col[keep], np.where(mid < above, mid, below), gain, ratio


def _best_split(
    x: sparse.csr_matrix, y: np.ndarray, rows: np.ndarray, n_classes: int,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Spec: pick the (column, threshold) with the best gain ratio among
    splits whose information gain reaches the mean gain of all admissible
    candidates. Ties fall to the lowest column, then lowest threshold.

    Only the nonzeros of `rows` are sorted. Weights are never negative, so
    a column's zeros form one group that sorts first: the cut after it
    sits at half the column's smallest nonzero, and the other cuts sit
    between adjacent distinct nonzeros.
    """
    n = rows.size
    labels = y[rows]
    parent = np.bincount(labels, minlength=n_classes)
    if n < 2 * min_leaf:
        return None

    pos, owner = _row_nonzeros(x, rows)
    if pos.size == 0:
        return None
    cols, vals = x.indices[pos], x.data[pos]
    order = np.lexsort((vals, cols))
    cols, vals, labels = cols[order], vals[order], labels[owner[order]]
    # one group per distinct (column, value), in (column, value) order
    opens = np.concatenate(
        ([True], (cols[1:] != cols[:-1]) | (vals[1:] != vals[:-1]))
    )
    group = np.cumsum(opens) - 1
    g_entry = np.append(np.flatnonzero(opens), cols.size)
    g_col, g_val = cols[opens], vals[opens]

    # Score whole columns a block at a time, so that the (candidates x
    # classes) arrays stay near _BLOCK_CELLS cells at any corpus size.
    col_starts = np.flatnonzero(np.concatenate(([True], g_col[1:] != g_col[:-1])))
    per_block = max(1, _BLOCK_CELLS // n_classes)
    marks = np.arange(0, g_col.size, per_block)
    bounds = np.unique(col_starts[np.searchsorted(col_starts, marks, side="right") - 1])
    scored = []
    for a, b in zip(bounds, np.append(bounds[1:], g_col.size)):
        e = slice(g_entry[a], g_entry[b])
        scored.append(_score_cuts(
            group[e] - a, labels[e], g_col[a:b], g_val[a:b], parent, min_leaf
        ))
    cut_col, cut_thr, gain, ratio = (np.concatenate(parts) for parts in zip(*scored))
    if gain.size == 0:
        return None
    mean_gain = gain.mean()
    eligible = (gain >= mean_gain - 1e-12) & (gain > 1e-12)
    if not eligible.any():
        return None
    # candidates run in (column, threshold) order, so the first maximum
    # ratio is the minimum of (-ratio, column, threshold)
    best = np.flatnonzero(eligible)[np.argmax(ratio[eligible])]
    return int(cut_col[best]), float(cut_thr[best])


def c45_train(
    matrix: WeightedMatrix, config: ExperimentConfig = ExperimentConfig()
) -> TreeNode:
    """Grow a binary decision tree no deeper than `tree_max_depth` (0 =
    unlimited) with at least `tree_min_leaf` rows a leaf.

    With `tree_prune`, pessimistic pruning runs as each subtree closes:
    once both children have returned, a node collapses to its leaf unless
    the leaf's estimated errors exceed its children's by more than 0.1."""
    n = matrix.values.shape[0]
    if n == 0:
        raise OntoclassError("empty training matrix")
    x = sparse.csr_matrix(matrix.values, dtype=np.float64, copy=True)
    x.sum_duplicates()
    x.eliminate_zeros()
    goes_left = _router(x.tocsc())
    cat_names = sorted(set(matrix.labels))
    cat_index = {c: i for i, c in enumerate(cat_names)}
    y = np.array([cat_index[lab] for lab in matrix.labels], dtype=np.int64)

    def counts_dict(rows: np.ndarray) -> dict[str, int]:
        bc = np.bincount(y[rows], minlength=len(cat_names))
        return {cat_names[i]: int(bc[i]) for i in range(len(cat_names)) if bc[i]}

    def grow(rows: np.ndarray, depth: int) -> tuple[TreeNode, float]:
        """The subtree over `rows` and its estimated errors."""
        counts = counts_dict(rows)
        cat = _majority_class(counts)
        e = rows.size - counts[cat]
        leaf = TreeNode(class_counts=counts, category=cat)
        leaf_errors = e + _extra_errors(rows.size, e, PRUNE_CONFIDENCE)
        if len(counts) == 1 or 0 < config.tree_max_depth <= depth:
            return leaf, leaf_errors
        found = _best_split(x, y, rows, len(cat_names), config.tree_min_leaf)
        if found is None:
            return leaf, leaf_errors
        col, thr = found
        mask = goes_left(rows, col, thr)
        left, left_errors = grow(rows[mask], depth + 1)
        right, right_errors = grow(rows[~mask], depth + 1)
        if config.tree_prune and leaf_errors <= left_errors + right_errors + 0.1:
            return leaf, leaf_errors
        return TreeNode(
            class_counts=counts,
            category=cat,
            descriptor=matrix.descriptors[col],
            col=col,
            threshold=thr,
            left=left,
            right=right,
        ), left_errors + right_errors

    return grow(np.arange(n), 0)[0]


def _extra_errors(n: int, e: int, cf: float) -> float:
    """Pessimistic additional-error estimate at confidence cf for a leaf
    of n rows, e of them misclassified.

    Classic upper-confidence-bound correction: exact binomial tail at
    e = 0, continuity-corrected normal approximation elsewhere.
    """
    if e == 0:
        return n * (1.0 - cf ** (1.0 / n))
    if e + 0.5 >= n:
        return 0.67 * (n - e)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    pr = (
        f + z * z / (2.0 * n)
        + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))
    ) / (1.0 + z * z / n)
    return pr * n - e


def c45_predict_all(tree: TreeNode, queries: WeightedMatrix) -> list[str]:
    """Classify each row of the fold's test matrix; rows descend together.
    Each split that rows reach must find its descriptor at its column."""
    q = sparse.csc_matrix(queries.values, dtype=np.float64, copy=True)
    q.sum_duplicates()
    goes_left = _router(q)
    out = np.empty(q.shape[0], dtype=object)
    stack = [(tree, np.arange(q.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.category
        elif rows.size:
            if not (0 <= node.col < len(queries.descriptors)
                    and queries.descriptors[node.col] == node.descriptor):
                raise OntoclassError(
                    f"queries do not hold the tree's split {node.descriptor!r} "
                    f"at column {node.col}"
                )
            left = goes_left(rows, node.col, node.threshold)
            stack.append((node.left, rows[left]))
            stack.append((node.right, rows[~left]))
    return out.tolist()
