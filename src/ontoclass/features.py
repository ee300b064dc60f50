"""Descriptor weighting and selection: category-level TF-IDF, chi-square
association scoring, per-category top-K selection, and the weighted
document-by-descriptor matrix fed to the classifiers.

Descriptors live in one namespace: stems are prefixed "t:" and concept
ids "c:", so a stem can never collide with a concept id.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import OntoclassError, ParseError
from .mapping import HybridVector

log = logging.getLogger(__name__)

DEFAULT_K = 100
WEIGHTINGS = ("tfidf", "tf", "binary")

TERM_PREFIX = "t:"
CONCEPT_PREFIX = "c:"

#: Called with each doc_id a fitting step reads; lets tests prove that
#: statistics never touch held-out documents.
Recorder = Callable[[str], None]


def descriptor_counts(vector: HybridVector) -> dict[str, int]:
    """Flatten a hybrid vector into the shared descriptor namespace."""
    counts = {TERM_PREFIX + s: n for s, n in vector.term_part.items()}
    for cid, n in vector.concept_part.counts.items():
        counts[CONCEPT_PREFIX + cid] = n
    return counts


def tfidf_weight(tf: float, df: int, nbr_category: int) -> float:
    """tf times the natural log of (category count / category df)."""
    if df < 1 or df > nbr_category:
        raise ValueError(f"df must be in [1, {nbr_category}], got {df}")
    if tf < 0:
        raise ValueError(f"tf must be non-negative, got {tf}")
    return tf * math.log(nbr_category / df)


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 descriptor/category table.

    n11: in-category documents containing the descriptor; n10: in-category
    without it; n01: out-category containing it; n00: the rest.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self):
        if min(self.n11, self.n10, self.n01, self.n00) < 0:
            raise ValueError("negative contingency cell")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def degenerate(self) -> bool:
        """True when any marginal is empty (chi-square is undefined)."""
        return 0 in (
            self.n11 + self.n10,
            self.n01 + self.n00,
            self.n11 + self.n01,
            self.n10 + self.n00,
        )


def chi_square(table: ContingencyTable) -> float:
    """Standard 2x2 chi-square; degenerate tables score 0."""
    if table.degenerate:
        return 0.0
    num = table.total * (table.n11 * table.n00 - table.n10 * table.n01) ** 2
    den = (
        (table.n11 + table.n01)
        * (table.n11 + table.n10)
        * (table.n10 + table.n00)
        * (table.n01 + table.n00)
    )
    return num / den


@dataclass(frozen=True)
class CategoryStats:
    """Training-side frequency statistics.

    `tf` sums descriptor occurrences over each category's documents; `df`
    counts the categories a descriptor occurs in (so 1 <= df <= the
    number of categories).
    """

    nbr_category: int
    tf: dict[tuple[str, str], int]
    df: dict[str, int]
    categories: tuple[str, ...]

    def __post_init__(self):
        for desc, d in self.df.items():
            if not 1 <= d <= self.nbr_category:
                raise OntoclassError(
                    f"df({desc!r}) = {d} outside [1, {self.nbr_category}]"
                )


def _label_of(vector: HybridVector, labels: Mapping[str, str] | None) -> str:
    if labels is not None:
        try:
            return labels[vector.doc_id]
        except KeyError:
            raise OntoclassError(f"no label for document {vector.doc_id!r}") from None
    if not vector.labels:
        raise OntoclassError(f"document {vector.doc_id!r} has no label")
    return vector.labels[0]


def _category_order(
    vectors: Sequence[HybridVector],
    labels: Mapping[str, str] | None,
    categories: Sequence[str] | None,
) -> tuple[str, ...]:
    if categories is not None:
        return tuple(categories)
    seen: list[str] = []
    for v in vectors:
        cat = _label_of(v, labels)
        if cat not in seen:
            seen.append(cat)
    return tuple(seen)


def compute_category_stats(
    vectors: Sequence[HybridVector],
    labels: Mapping[str, str] | None = None,
    categories: Sequence[str] | None = None,
    recorder: Recorder | None = None,
) -> CategoryStats:
    """Accumulate per-category tf and category-level df over documents."""
    if not vectors:
        raise OntoclassError("no documents to fit statistics on")
    cats = _category_order(vectors, labels, categories)
    tf: dict[tuple[str, str], int] = {}
    seen_in: dict[str, set[str]] = {}
    for v in vectors:
        if recorder is not None:
            recorder(v.doc_id)
        cat = _label_of(v, labels)
        for desc, n in descriptor_counts(v).items():
            tf[(cat, desc)] = tf.get((cat, desc), 0) + n
            seen_in.setdefault(desc, set()).add(cat)
    df = {desc: len(cats_with) for desc, cats_with in seen_in.items()}
    return CategoryStats(nbr_category=len(cats), tf=tf, df=df, categories=cats)


@dataclass(frozen=True)
class FeatureSpace:
    """The selected descriptor set, in deterministic order.

    `descriptors` is the deduplicated union of each category's top-K:
    categories in corpus order, descriptors score-descending within each,
    first occurrence wins. `per_category_scores` keeps every computed
    chi-square value, selected or not.
    """

    descriptors: tuple[str, ...]
    per_category_scores: dict[tuple[str, str], float]
    k_per_category: int
    selected: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def index(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.descriptors)}


def select_top_k(
    vectors: Sequence[HybridVector],
    labels: Mapping[str, str] | None = None,
    k: int = DEFAULT_K,
    categories: Sequence[str] | None = None,
    recorder: Recorder | None = None,
) -> FeatureSpace:
    """Pick each category's K most associated descriptors by chi-square.

    Association is document presence against category membership. Only
    descriptors with positive scores can be selected, so a category with
    fewer than K positively scoring descriptors contributes all of them.
    Ties break toward the lexicographically smaller descriptor. Chi-square
    is computed once per distinct contingency table, not once per pair.
    """
    if k < 1:
        raise OntoclassError(f"k must be >= 1, got {k}")
    if not vectors:
        raise OntoclassError("no documents to select features from")
    cats = _category_order(vectors, labels, categories)
    if len(cats) < 2:
        raise OntoclassError("feature selection needs at least 2 categories")

    # One walk: each document's category row and the descriptors it holds,
    # numbered in first-seen order (the order of `per_category_scores`).
    row_of: dict[str, int] = {}
    for cat in cats:
        row_of.setdefault(cat, len(row_of))
    seen: dict[str, int] = {}
    doc_rows: list[int] = []
    pair_rows: list[int] = []
    pair_seen: list[int] = []
    for v in vectors:
        if recorder is not None:
            recorder(v.doc_id)
        cat = _label_of(v, labels)
        row = row_of.get(cat)
        if row is None:
            raise OntoclassError(f"label {cat!r} outside the category list")
        doc_rows.append(row)
        descs = descriptor_counts(v)
        pair_rows.extend([row] * len(descs))
        pair_seen.extend(seen.setdefault(d, len(seen)) for d in descs)

    # Columns follow sorted() string order, so a score tie goes to the
    # lower column, i.e. the lexicographically smaller descriptor.
    n_docs, n_rows, n_desc = len(vectors), len(row_of), len(seen)
    seen_order = list(seen)
    by_string = sorted(range(n_desc), key=seen_order.__getitem__)
    vocab = [seen_order[i] for i in by_string]
    column_of_seen = np.empty(n_desc, dtype=np.int64)
    column_of_seen[by_string] = np.arange(n_desc)
    n11_grid = np.bincount(
        np.asarray(pair_rows, dtype=np.int64) * n_desc
        + column_of_seen[np.asarray(pair_seen, dtype=np.int64)],
        minlength=n_rows * n_desc,
    ).reshape(n_rows, n_desc)
    doc_freq = n11_grid.sum(axis=0)
    sizes = np.bincount(np.asarray(doc_rows, dtype=np.int64), minlength=n_rows)

    scores: dict[tuple[str, str], float] = {}
    selected: dict[str, tuple[str, ...]] = {}
    union: list[str] = []
    in_union: set[str] = set()
    for cat in cats:
        row = row_of[cat]
        size = int(sizes[row])
        # A score depends only on (size, n11, doc_freq, n_docs): score each
        # distinct table once, on Python ints, so every value is exact.
        tables, inverse = np.unique(
            n11_grid[row] * (n_docs + 1) + doc_freq, return_inverse=True
        )
        distinct = [
            chi_square(ContingencyTable(
                n11=n11,
                n10=size - n11,
                n01=freq - n11,
                n00=n_docs - size - (freq - n11),
            ))
            for n11, freq in (divmod(t, n_docs + 1) for t in tables.tolist())
        ]
        row_scores = np.asarray(distinct, dtype=np.float64)[inverse]
        scores.update(zip(
            [(cat, desc) for desc in seen_order],
            row_scores[column_of_seen].tolist(),
        ))
        positive = np.flatnonzero(row_scores > 0)
        order = np.lexsort((positive, -row_scores[positive]))
        chosen = tuple(vocab[c] for c in positive[order[:k]].tolist())
        selected[cat] = chosen
        for desc in chosen:
            if desc not in in_union:
                in_union.add(desc)
                union.append(desc)

    return FeatureSpace(
        descriptors=tuple(union),
        per_category_scores=scores,
        k_per_category=k,
        selected=selected,
    )


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


def build_matrix(
    vectors: Sequence[HybridVector],
    feature_space: FeatureSpace,
    category_stats: CategoryStats,
    labels: Mapping[str, str] | None = None,
    weighting: str = "tfidf",
) -> WeightedMatrix:
    """Weight documents over the selected descriptors; L2-normalize rows.

    The tfidf weighting multiplies each document-level raw frequency by
    ln(category count / category df). A descriptor the training stats
    never saw gets df = category count, hence weight 0. Documents whose
    descriptors were all deselected come out as zero rows (flagged in the
    log, kept in the matrix).
    """
    if weighting not in WEIGHTINGS:
        raise OntoclassError(f"unknown weighting {weighting!r}")
    col_of = feature_space.index()
    nbr = category_stats.nbr_category
    row_idx: list[int] = []
    col_idx: list[int] = []
    data: list[float] = []
    doc_ids: list[str] = []
    row_labels: list[str] = []
    missing: set[str] = set()
    zero_rows = 0
    for r, v in enumerate(vectors):
        doc_ids.append(v.doc_id)
        row_labels.append(_label_of(v, labels))
        nnz_before = len(data)
        for desc, n in descriptor_counts(v).items():
            c = col_of.get(desc)
            if c is None:
                continue
            if weighting == "binary":
                w = 1.0
            elif weighting == "tf":
                w = float(n)
            else:
                df = category_stats.df.get(desc)
                if df is None:
                    missing.add(desc)
                    continue
                w = tfidf_weight(n, df, nbr)
            if w:
                row_idx.append(r)
                col_idx.append(c)
                data.append(w)
        if len(data) == nnz_before:
            zero_rows += 1
    if missing:
        log.warning(
            "%d selected descriptor(s) absent from training stats; weighted 0",
            len(missing),
        )
    if zero_rows:
        log.warning("%d document(s) produced all-zero rows", zero_rows)

    mat = sparse.csr_matrix(
        (data, (row_idx, col_idx)),
        shape=(len(vectors), len(feature_space.descriptors)),
        dtype=np.float64,
    )
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    mat = sparse.diags(scale) @ mat
    return WeightedMatrix(
        doc_ids=tuple(doc_ids),
        descriptors=tuple(feature_space.descriptors),
        values=mat.tocsr(),
        labels=tuple(row_labels),
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


def load_matrix(path: str | Path) -> WeightedMatrix:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ParseError("expected header 'rows cols nnz'", 1)
        n_rows, n_cols, nnz = (int(x) for x in header)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for i in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ParseError("expected 'row col value' triple", i + 2)
            rows[i], cols[i], vals[i] = int(parts[0]), int(parts[1]), float(parts[2])
    doc_ids = path.with_suffix(path.suffix + ".rows").read_text("utf-8").splitlines()
    descriptors = path.with_suffix(path.suffix + ".cols").read_text("utf-8").splitlines()
    labels = path.with_suffix(path.suffix + ".labels").read_text("utf-8").splitlines()
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    return WeightedMatrix(
        doc_ids=tuple(doc_ids),
        descriptors=tuple(descriptors),
        values=mat,
        labels=tuple(labels),
    )
