"""Descriptor weighting and selection: category-level TF-IDF, chi-square
association scoring, per-category top-K selection, and the weighted
document-by-descriptor matrix fed to the classifiers.

Descriptors live in one namespace: stems are prefixed "t:" and concept
ids "c:", so a stem can never collide with a concept id. Selection,
weighting and `ontoclass map` all start from one raw-count matrix,
`count_matrix`, whose columns are in descriptor order; cross-validation
builds it once over every document, and each fold selects and weights
from its own row slice of it.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .errors import OntoclassError
from .mapping import HybridVector

log = logging.getLogger(__name__)

DEFAULT_K = 100
WEIGHTINGS = ("tfidf", "tf", "binary")

TERM_PREFIX = "t:"
CONCEPT_PREFIX = "c:"

#: Called with each doc_id a fitting step reads; lets tests prove that
#: statistics never touch held-out documents.
Recorder = Callable[[str], None]


def tfidf_weight(tf: float, df: int, nbr_category: int) -> float:
    """tf times the natural log of (category count / category df)."""
    if df < 1 or df > nbr_category:
        raise ValueError(f"df must be in [1, {nbr_category}], got {df}")
    if tf < 0:
        raise ValueError(f"tf must be non-negative, got {tf}")
    return tf * math.log(nbr_category / df)


def chi_square(n11: int, n10: int, n01: int, n00: int) -> float:
    """Standard chi-square of a 2x2 descriptor/category table; degenerate
    tables, where a marginal is empty, score 0.

    n11: in-category documents containing the descriptor; n10: in-category
    without it; n01: out-category containing it; n00: the rest.
    """
    if min(n11, n10, n01, n00) < 0:
        raise ValueError("negative contingency cell")
    # the product of the four marginals is zero exactly when one is empty
    den = (n11 + n01) * (n11 + n10) * (n10 + n00) * (n01 + n00)
    if not den:
        return 0.0
    return (n11 + n10 + n01 + n00) * (n11 * n00 - n10 * n01) ** 2 / den


@dataclass(frozen=True)
class WeightedMatrix:
    """Documents as weighted rows over the selected descriptors."""

    doc_ids: tuple[str, ...]
    descriptors: tuple[str, ...]
    values: sparse.csr_matrix
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != (len(self.doc_ids), len(self.descriptors)):
            raise OntoclassError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.doc_ids)} docs x {len(self.descriptors)} descriptors"
            )
        if len(self.labels) != len(self.doc_ids):
            raise OntoclassError("one label per row required")
        if self.values.nnz and self.values.data.min() < 0:
            raise OntoclassError("negative weight in matrix")


def require_labels(counts: WeightedMatrix) -> None:
    """Reject a count row with no label, which `count_matrix` marks ""."""
    for doc_id, label in zip(counts.doc_ids, counts.labels):
        if not label:
            raise OntoclassError(f"document {doc_id!r} has no label")


def count_matrix(vectors: Sequence[HybridVector]) -> WeightedMatrix:
    """Raw descriptor counts, one row per document.

    Columns are in descriptor (string) order; each row keeps its entries
    in the vector's own order, stems before concepts, which fixes the
    order of the float sums downstream. An unlabeled document gets the
    label "".
    """
    col_of: dict[str, int] = {}
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for v in vectors:
        for prefix, counts in ((TERM_PREFIX, v.term_part),
                               (CONCEPT_PREFIX, v.concept_part.counts)):
            indices.extend(col_of.setdefault(prefix + d, len(col_of))
                           for d in counts)
            data.extend(counts.values())
        indptr.append(len(indices))
    descriptors = sorted(col_of)
    rank = np.empty(len(col_of), dtype=np.int64)
    rank[[col_of[d] for d in descriptors]] = np.arange(len(col_of))
    values = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         rank[np.asarray(indices, dtype=np.int64)],
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(vectors), len(col_of)),
    )
    return WeightedMatrix(
        doc_ids=tuple(v.doc_id for v in vectors),
        descriptors=tuple(descriptors),
        values=values,
        labels=tuple(v.labels[0] if v.labels else "" for v in vectors),
    )


class ScoreTable(Mapping):
    """Read-only (category, descriptor) -> chi-square view over a score
    grid with one row per category and one column per descriptor.

    Keys iterate category-major, in the given orders; values come out as
    Python floats. Anything else, including a key that is not a pair, is
    absent.
    """

    def __init__(self, categories: Sequence[str], descriptors: Sequence[str],
                 grid: np.ndarray):
        grid.flags.writeable = False
        self._categories = tuple(categories)
        self._descriptors = tuple(descriptors)
        self._grid = grid

    @cached_property
    def _position(self) -> tuple[dict[str, int], dict[str, int]]:
        return ({c: i for i, c in enumerate(self._categories)},
                {d: j for j, d in enumerate(self._descriptors)})

    def __getitem__(self, key: tuple[str, str]) -> float:
        if isinstance(key, tuple) and len(key) == 2:
            rows, cols = self._position
            try:
                return float(self._grid[rows[key[0]], cols[key[1]]])
            except (KeyError, TypeError):
                pass
        raise KeyError(key)

    def __iter__(self):
        return ((c, d) for c in self._categories for d in self._descriptors)

    def __len__(self) -> int:
        return self._grid.size


@dataclass(frozen=True)
class FeatureSpace:
    """The selected descriptor set, in deterministic order.

    `descriptors` is the deduplicated union of each category's top-K:
    categories in corpus order, descriptors score-descending within each,
    first occurrence wins. `per_category_scores` maps every (category,
    training descriptor) pair to its chi-square value, selected or not;
    `select_top_k` makes it a read-only `ScoreTable` over its score grid,
    categories in corpus order and descriptors in column (string) order.
    `selected` has one entry per category, and `df[i]` counts the
    training categories that hold `descriptors[i]`.
    """

    descriptors: tuple[str, ...]
    per_category_scores: Mapping[tuple[str, str], float]
    selected: dict[str, tuple[str, ...]]
    df: tuple[int, ...]

    def __post_init__(self):
        if len(self.df) != len(self.descriptors):
            raise OntoclassError("one df per selected descriptor required")
        n_categories = len(self.selected)
        if any(d < 1 or d > n_categories for d in self.df):
            raise OntoclassError(f"df must be in [1, {n_categories}]")

    def index(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.descriptors)}


def select_top_k(
    vectors: Sequence[HybridVector],
    k: int = DEFAULT_K,
    categories: Sequence[str] | None = None,
    recorder: Recorder | None = None,
    counts: WeightedMatrix | None = None,
) -> FeatureSpace:
    """Pick each category's K most associated descriptors by chi-square.

    Association is document presence against category membership. Only
    descriptors with positive scores can be selected, so a category with
    fewer than K positively scoring descriptors contributes all of them.
    Ties break toward the lexicographically smaller descriptor. Chi-square
    is computed once per distinct contingency table of the call, not once
    per pair, so categories of equal size share their scores.
    Categories default to the labels in first-appearance order.

    `counts` is `vectors`' raw-count matrix, by default `count_matrix`;
    a row slice of a larger one serves as well, since its columns that
    no row holds drop out. Its rows must be `vectors`' documents and its
    columns in descriptor order.
    """
    if k < 1:
        raise OntoclassError(f"k must be >= 1, got {k}")
    if not vectors:
        raise OntoclassError("no documents to select features from")
    if counts is None:
        counts = count_matrix(vectors)
    elif counts.doc_ids != tuple(v.doc_id for v in vectors):
        raise OntoclassError("count matrix rows do not match the documents")
    elif any(a >= b for a, b in zip(counts.descriptors, counts.descriptors[1:])):
        raise OntoclassError("count matrix columns are not in descriptor order")
    if recorder is not None:
        for doc_id in counts.doc_ids:
            recorder(doc_id)
    require_labels(counts)
    cats = tuple(dict.fromkeys(counts.labels) if categories is None else categories)
    if len(cats) < 2:
        raise OntoclassError("feature selection needs at least 2 categories")
    row_of: dict[str, int] = {}
    for cat in cats:
        row_of.setdefault(cat, len(row_of))
    try:
        doc_rows = np.array([row_of[lab] for lab in counts.labels], dtype=np.int64)
    except KeyError as exc:
        raise OntoclassError(
            f"label {exc.args[0]!r} outside the category list"
        ) from None

    # The count columns the rows hold, in descriptor order, so a score tie
    # goes to the lower column, i.e. the smaller descriptor.
    x = counts.values
    held = np.unique(x.indices)
    vocab = [counts.descriptors[c] for c in held.tolist()]
    n_docs, n_rows, n_desc = len(counts.doc_ids), len(row_of), len(vocab)
    n11_grid = np.bincount(
        np.repeat(doc_rows, np.diff(x.indptr)) * n_desc
        + np.searchsorted(held, x.indices),
        minlength=n_rows * n_desc,
    ).reshape(n_rows, n_desc)
    doc_freq = n11_grid.sum(axis=0)
    category_freq = np.count_nonzero(n11_grid, axis=0)
    sizes = np.bincount(doc_rows, minlength=n_rows)

    # A score depends only on (size, n11, doc_freq, n_docs), and categories
    # of equal size share their tables: key each table by (size rank, n11,
    # doc_freq), which int64 holds while categories x (n_docs + 1)^2 does,
    # and score each distinct one of the call once, on Python ints, so
    # every value is exact.
    base = n_docs + 1
    size_values, size_rank = np.unique(sizes, return_inverse=True)

    def table_keys(row: int) -> np.ndarray:
        return (size_rank[row] * base + n11_grid[row]) * base + doc_freq

    keys = np.unique(np.concatenate(
        [np.unique(table_keys(row)) for row in range(n_rows)]
    ))
    size_list = size_values.tolist()
    distinct = []
    for key in keys.tolist():
        rest, freq = divmod(key, base)
        rank, n11 = divmod(rest, base)
        size = size_list[rank]
        distinct.append(chi_square(n11, size - n11, freq - n11,
                                   n_docs - size - (freq - n11)))
    table_scores = np.asarray(distinct, dtype=np.float64)
    scores = np.empty((n_rows, n_desc), dtype=np.float64)
    for row in range(n_rows):
        scores[row] = table_scores[np.searchsorted(keys, table_keys(row))]

    selected: dict[str, tuple[str, ...]] = {}
    union: dict[int, None] = {}
    for cat in cats:
        row_scores = scores[row_of[cat]]
        positive = np.flatnonzero(row_scores > 0)
        order = np.lexsort((positive, -row_scores[positive]))
        chosen = positive[order[:k]].tolist()
        selected[cat] = tuple(vocab[c] for c in chosen)
        union.update(dict.fromkeys(chosen))

    return FeatureSpace(
        descriptors=tuple(vocab[c] for c in union),
        per_category_scores=ScoreTable(row_of, vocab, scores),
        selected=selected,
        df=tuple(category_freq[list(union)].tolist()),
    )


def build_matrix(
    counts: WeightedMatrix,
    feature_space: FeatureSpace,
    weighting: str = "tfidf",
) -> WeightedMatrix:
    """Weight a raw-count matrix over the selected descriptors;
    L2-normalize rows.

    `counts` is a `count_matrix` or a row slice of one; its columns are
    matched to the selection by name, in any order. The tfidf weighting
    multiplies each document-level raw frequency by
    ln(category count / category df), with df from the selection's
    training counts. Zero weights are dropped. Documents whose descriptors
    were all deselected come out as zero rows (flagged in the log, kept
    in the matrix).
    """
    if weighting not in WEIGHTINGS:
        raise OntoclassError(f"unknown weighting {weighting!r}")
    require_labels(counts)
    col_of = feature_space.index()
    # each count column's place among the selected descriptors, or -1
    target = np.array(
        [col_of.get(d, -1) for d in counts.descriptors], dtype=np.int64
    )
    x = counts.values
    cols = target[x.indices]
    keep = cols >= 0
    rows = np.repeat(np.arange(len(counts.doc_ids)), np.diff(x.indptr))[keep]
    cols = cols[keep]
    data = x.data[keep]
    if weighting == "binary":
        data = np.ones_like(data)
    elif weighting == "tfidf":
        n_categories = len(feature_space.selected)
        idf = np.array(
            [tfidf_weight(1, df, n_categories) for df in feature_space.df],
            dtype=np.float64,
        )
        data = data * idf[cols]
    nonzero = data != 0

    mat = sparse.csr_matrix(
        (data[nonzero], (rows[nonzero], cols[nonzero])),
        shape=(len(counts.doc_ids), len(feature_space.descriptors)),
        dtype=np.float64,
    )
    zero_rows = int(np.count_nonzero(np.diff(mat.indptr) == 0))
    if zero_rows:
        log.warning("%d document(s) produced all-zero rows", zero_rows)
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    mat = sparse.diags(scale) @ mat
    return WeightedMatrix(
        doc_ids=counts.doc_ids,
        descriptors=tuple(feature_space.descriptors),
        values=mat.tocsr(),
        labels=counts.labels,
    )


def save_matrix(matrix: WeightedMatrix, path: str | Path) -> None:
    """Write triples plus .rows/.cols/.labels sidecars."""
    path = Path(path)
    coo = matrix.values.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.values.shape[0]} {matrix.values.shape[1]} {coo.nnz}\n")
        order = np.lexsort((coo.col, coo.row))
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]} {float(coo.data[i])!r}\n")
    path.with_suffix(path.suffix + ".rows").write_text(
        "".join(f"{d}\n" for d in matrix.doc_ids), encoding="utf-8"
    )
    path.with_suffix(path.suffix + ".cols").write_text(
        "".join(f"{d}\n" for d in matrix.descriptors), encoding="utf-8"
    )
    path.with_suffix(path.suffix + ".labels").write_text(
        "".join(f"{lab}\n" for lab in matrix.labels), encoding="utf-8"
    )
