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
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Mapping

import numpy as np
from scipy import sparse

from .errors import OntoclassError
from .features import WeightedMatrix

log = logging.getLogger(__name__)

SIMILARITIES = ("cosine", "euclidean")
DEFAULT_KNN_K = 5
PRUNE_CONFIDENCE = 0.25
#: cells of a (candidates x classes) array in one block of the split search
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class KnnModel:
    """Lazy learner: just the training matrix and the vote parameters."""

    matrix: WeightedMatrix
    k: int
    similarity: str = "cosine"

    def __post_init__(self):
        if self.similarity not in SIMILARITIES:
            raise OntoclassError(f"unknown similarity {self.similarity!r}")
        n = self.matrix.values.shape[0]
        if self.k < 1:
            raise OntoclassError(f"k must be >= 1, got {self.k}")
        if self.k > n:
            raise OntoclassError(f"k = {self.k} exceeds {n} training rows")


def knn_train(
    matrix: WeightedMatrix, k: int = DEFAULT_KNN_K, similarity: str = "cosine"
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
    cosine matches nothing and falls back to the training majority class
    with empty votes; one warning counts them.
    """
    if queries.descriptors != model.matrix.descriptors:
        raise OntoclassError("queries and model are over different descriptors")
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
    fallback = _majority_class(Counter(labels))
    zero_rows = (q_sq == 0.0) & (model.similarity == "cosine")
    if zero_rows.any():
        log.warning("%d zero query vectors; using majority class %r",
                    zero_rows.sum(), fallback)

    out: list[tuple[str, dict[str, int]]] = []
    for i in range(q.shape[0]):
        if zero_rows[i]:
            out.append((fallback, {}))
            continue
        order = np.argsort(-sims[i], kind="stable")[: model.k]
        votes: dict[str, int] = {}
        sum_sim: dict[str, float] = {}
        for j in order:
            cat = labels[j]
            votes[cat] = votes.get(cat, 0) + 1
            sum_sim[cat] = sum_sim.get(cat, 0.0) + sims[i, j]
        winner = min(votes, key=lambda c: (-votes[c], -sum_sim[c], c))
        out.append((winner, votes))
    return out


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class TreeConfig:
    min_leaf: int = 2
    max_depth: int | None = None
    prune: bool = True

    def __post_init__(self):
        if self.min_leaf < 1:
            raise OntoclassError(f"min_leaf must be >= 1, got {self.min_leaf}")


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


def c45_train(matrix: WeightedMatrix, config: TreeConfig = TreeConfig()) -> TreeNode:
    """Grow (and optionally prune) a binary decision tree."""
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

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        counts = counts_dict(rows)
        cat = _majority_class(counts)
        if len(counts) == 1 or (
            config.max_depth is not None and depth >= config.max_depth
        ):
            return TreeNode(class_counts=counts, category=cat)
        found = _best_split(x, y, rows, len(cat_names), config.min_leaf)
        if found is None:
            return TreeNode(class_counts=counts, category=cat)
        col, thr = found
        mask = goes_left(rows, col, thr)
        return TreeNode(
            class_counts=counts,
            category=cat,
            descriptor=matrix.descriptors[col],
            col=col,
            threshold=thr,
            left=grow(rows[mask], depth + 1),
            right=grow(rows[~mask], depth + 1),
        )

    tree = grow(np.arange(n), 0)
    if config.prune:
        tree = prune_tree(tree)
    return tree


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


def prune_tree(node: TreeNode, confidence: float = PRUNE_CONFIDENCE) -> TreeNode:
    """Bottom-up subtree replacement when a leaf would not estimate worse."""
    return _prune(node, confidence)[0]


def _prune(node: TreeNode, cf: float) -> tuple[TreeNode, float]:
    """Prune a subtree; return it with its estimated errors, so that no
    subtree is walked again to estimate an ancestor."""
    n = sum(node.class_counts.values())
    e = n - node.class_counts.get(node.category, 0)
    leaf_errors = e + _extra_errors(n, e, cf)
    if node.is_leaf:
        return node, leaf_errors
    left, left_errors = _prune(node.left, cf)
    right, right_errors = _prune(node.right, cf)
    subtree_errors = left_errors + right_errors
    if leaf_errors <= subtree_errors + 0.1:
        return TreeNode(class_counts=node.class_counts,
                        category=node.category), leaf_errors
    return replace(node, left=left, right=right), subtree_errors


def c45_predict_all(tree: TreeNode, queries: WeightedMatrix) -> list[str]:
    """Classify each row of the fold's test matrix; rows descend together."""
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
            left = goes_left(rows, node.col, node.threshold)
            stack.append((node.left, rows[left]))
            stack.append((node.right, rows[~left]))
    return out.tolist()
