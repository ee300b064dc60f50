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
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .config import WEIGHTINGS, ExperimentConfig
from .errors import OntoclassError
from .mapping import HybridVector

log = logging.getLogger(__name__)

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


def count_matrix(vectors: Sequence[HybridVector]) -> WeightedMatrix:
    """Raw descriptor counts, one row per document.

    Columns are in descriptor (string) order; each row holds its entries
    in the vector's own order, stems before concepts, and no score or
    weight downstream depends on that order. A row's label is its
    document's first; a document with none, which only `ontoclass map`
    over an unlabeled corpus counts, gets the label "".
    """
    stems: set[str] = set()
    concepts: set[str] = set()
    for v in vectors:
        stems.update(v.term_part)
        concepts.update(v.concept_part.counts)
    # "c:" sorts before "t:", so concepts take the first columns; each
    # kind is numbered in its own dict, with no prefixed key per entry
    concept_names, stem_names = sorted(concepts), sorted(stems)
    n_concepts = len(concept_names)
    concept_col = dict(zip(concept_names, range(n_concepts)))
    stem_col = dict(zip(stem_names, range(n_concepts, n_concepts + len(stem_names))))
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    for v in vectors:
        concept_counts = v.concept_part.counts
        indices.extend(map(stem_col.__getitem__, v.term_part))
        indices.extend(map(concept_col.__getitem__, concept_counts))
        data.extend(v.term_part.values())
        data.extend(concept_counts.values())
        indptr.append(len(indices))
    values = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(vectors), n_concepts + len(stem_names)),
    )
    return WeightedMatrix(
        doc_ids=tuple(v.doc_id for v in vectors),
        descriptors=tuple([CONCEPT_PREFIX + d for d in concept_names]
                          + [TERM_PREFIX + d for d in stem_names]),
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
        if self.df and (min(self.df) < 1 or max(self.df) > n_categories):
            raise OntoclassError(f"df must be in [1, {n_categories}]")

    def index(self) -> dict[str, int]:
        return dict(zip(self.descriptors, range(len(self.descriptors))))


def _chi_square_grid(n11: np.ndarray, sizes: np.ndarray, freq: np.ndarray,
                     n: int) -> np.ndarray:
    """`chi_square` of every (category, descriptor) table at once, as a
    float64 grid; consumes the int64 `n11` grid.

    Cell (i, j) is N·(n11·N − size·freq)² / (size·(N − size)·freq·(N −
    freq)) with N = n, size = sizes[i] and freq = freq[j], `chi_square`'s
    formula over the table's marginals. Each factor is an integer held
    exactly in float64, and a product rounds only once it passes 2^53, so
    where the numerator and the denominator are both below 2^53 they are
    exact and one division rounds their quotient correctly, as
    `chi_square` does on Python ints: the same bits. The other cells are
    scored by `chi_square` itself, once per distinct table.
    """
    exact = 2 ** 53
    # An empty marginal zeroes the denominator and the numerator alike;
    # a factor of 1 in its place scores such a cell 0 / den = 0.
    size_factor = sizes * (n - sizes)
    freq_factor = freq * (n - freq)
    size_factor[size_factor == 0] = 1
    freq_factor[freq_factor == 0] = 1
    size = sizes.astype(np.float64)[:, None]
    scores = np.multiply(n11, n, dtype=np.float64)
    # n11 is now scores / n; its buffer holds the float work grid
    work = n11.view(np.float64)
    np.multiply(size, freq.astype(np.float64), out=work)
    scores -= work                                   # n11·N − size·freq
    np.multiply(size_factor.astype(np.float64)[:, None],
                freq_factor.astype(np.float64), out=work)
    # |n11·N − size·freq| <= N·size, so past that no cell needs a check
    inexact = np.empty(0, dtype=np.int64)
    if (n ** 3 * int(sizes.max()) ** 2 >= exact
            or int(size_factor.max()) * int(freq_factor.max(initial=1)) >= exact):
        # N·diff² < 2^53 exactly when |diff| <= isqrt((2^53 - 1) // N)
        limit = math.isqrt((exact - 1) // n)
        past = scores > limit
        past |= scores < -limit
        past |= work >= exact
        inexact = np.flatnonzero(past)
        del past
        rows, cols = np.divmod(inexact, scores.shape[1])
        size_of, freq_of = sizes[rows], freq[cols]
        n11_of = (scores.flat[inexact].astype(np.int64) + size_of * freq_of) // n
        tables, where = np.unique(np.stack([size_of, n11_of, freq_of], axis=1),
                                  axis=0, return_inverse=True)
    np.square(scores, out=scores)
    scores *= n
    scores /= work
    if inexact.size:
        values = [chi_square(a, s - a, f - a, n - s - f + a)
                  for s, a, f in tables.tolist()]
        scores.flat[inexact] = np.asarray(values, dtype=np.float64)[where.ravel()]
    return scores


def select_top_k(
    vectors: Sequence[HybridVector],
    k: int = ExperimentConfig.k_features,
    categories: Sequence[str] | None = None,
    recorder: Recorder | None = None,
    counts: WeightedMatrix | None = None,
) -> FeatureSpace:
    """Pick each category's K most associated descriptors by chi-square.

    Association is document presence against category membership. Only
    descriptors with positive scores can be selected, so a category with
    fewer than K positively scoring descriptors contributes all of them.
    Ties break toward the lexicographically smaller descriptor.
    Categories default to the labels in first-appearance order.

    The whole categories x descriptors grid is scored at once from its
    marginals (`_chi_square_grid`): a cell whose numerator and denominator
    are both below 2^53 gets `chi_square`'s exact bits from one float64
    division, and `chi_square` scores the rest, once per distinct table.
    Each category's top K comes from one `np.partition` of the grid at
    the K-th largest score and one lexsort of the cells at or above it.

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
    elif not all(map(operator.lt, counts.descriptors, counts.descriptors[1:])):
        raise OntoclassError("count matrix columns are not in descriptor order")
    if recorder is not None:
        for doc_id in counts.doc_ids:
            recorder(doc_id)
    if "" in counts.labels:
        doc_id = counts.doc_ids[counts.labels.index("")]
        raise OntoclassError(f"document {doc_id!r} has no label")
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
    held = np.flatnonzero(np.bincount(x.indices, minlength=len(counts.descriptors)))
    vocab = list(map(counts.descriptors.__getitem__, held.tolist()))
    n_docs, n_rows, n_desc = len(counts.doc_ids), len(row_of), len(vocab)
    position = np.zeros(len(counts.descriptors), dtype=np.int64)
    position[held] = np.arange(n_desc)
    n11_grid = np.bincount(
        np.repeat(doc_rows * n_desc, np.diff(x.indptr)) + position[x.indices],
        minlength=n_rows * n_desc,
    ).reshape(n_rows, n_desc)
    doc_freq = n11_grid.sum(axis=0)
    category_freq = np.count_nonzero(n11_grid, axis=0)
    sizes = np.bincount(doc_rows, minlength=n_rows)
    scores = _chi_square_grid(n11_grid, sizes, doc_freq, n_docs)
    del n11_grid  # its buffer goes before np.partition copies the grid

    # Each category's top k: the positive cells at or above its k-th
    # largest score, ranked by (-score, column), the first k of each row.
    # No positive score is below the least positive float.
    floor = np.full(n_rows, np.nextafter(0.0, 1.0))
    if k < n_desc:
        np.maximum(floor, np.partition(scores, n_desc - k, axis=1)[:, n_desc - k],
                   out=floor)
    rows, cols = np.nonzero(scores >= floor[:, None])
    # nonzero lists each row's cells by column, and the sort is stable
    order = np.lexsort((-scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    per_row = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(per_row) - per_row
    rank = np.arange(rows.size) - np.repeat(starts, per_row)
    top = cols[rank < k].tolist()
    bounds = [0, *np.cumsum(np.minimum(per_row, k)).tolist()]

    selected: dict[str, tuple[str, ...]] = {}
    union: dict[int, None] = {}
    for cat in cats:
        row = row_of[cat]
        chosen = top[bounds[row]:bounds[row + 1]]
        selected[cat] = tuple(map(vocab.__getitem__, chosen))
        union.update(dict.fromkeys(chosen))

    return FeatureSpace(
        descriptors=tuple(map(vocab.__getitem__, union)),
        per_category_scores=ScoreTable(row_of, vocab, scores),
        selected=selected,
        df=tuple(category_freq[list(union)].tolist()),
    )


def build_matrix(
    counts: WeightedMatrix,
    feature_space: FeatureSpace,
    weighting: str = ExperimentConfig.weighting,
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

    Each row's norm sums its squared weights in ascending column order,
    and each row stores its entries in descending column order: the
    layout `sparse.diags(scale) @ m` gives a canonical `m` on scipy
    1.17, and the order in which KNN's `q @ train.T` sums its products.
    """
    if weighting not in WEIGHTINGS:
        raise OntoclassError(f"unknown weighting {weighting!r}")
    n_docs, n_cols = len(counts.doc_ids), len(feature_space.descriptors)
    # each count column's place among the selected descriptors, or -1
    target = np.fromiter(
        map(feature_space.index().get, counts.descriptors, repeat(-1)),
        dtype=np.int64, count=len(counts.descriptors),
    )
    x = counts.values
    cols = target[x.indices]
    rows = np.repeat(np.arange(n_docs), np.diff(x.indptr))
    keep = cols >= 0
    rows, cols, data = rows[keep], cols[keep], x.data[keep]
    if weighting == "binary":
        data = np.ones_like(data)
    elif weighting == "tfidf":
        # ln(n / df) for df = 0, 1, ..., n; no df is 0
        n_categories = len(feature_space.selected)
        idf = np.array([0.0] + [tfidf_weight(1, df, n_categories)
                                for df in range(1, n_categories + 1)])
        data = data * idf[np.asarray(feature_space.df, dtype=np.int64)[cols]]
    nonzero = data != 0
    rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]

    # rows ascending, each in ascending column order
    order = np.argsort(rows * n_cols + cols)
    lens = np.bincount(rows, minlength=n_docs)
    indptr = np.concatenate(([0], np.cumsum(lens)))
    zero_rows = int(np.count_nonzero(lens == 0))
    if zero_rows:
        log.warning("%d document(s) produced all-zero rows", zero_rows)
    squares = np.square(data[order])
    norms = np.zeros(n_docs)
    nonempty = np.flatnonzero(lens)
    norms[nonempty] = np.sqrt(np.add.reduceat(squares, indptr[nonempty]))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    # then each row reversed, into descending column order, and scaled
    order = order[np.repeat(indptr[:-1] + indptr[1:] - 1, lens)
                  - np.arange(order.size)]
    data = data[order]
    data *= np.repeat(scale, lens)
    values = sparse.csr_matrix((data, cols[order], indptr), shape=(n_docs, n_cols))
    return WeightedMatrix(
        doc_ids=counts.doc_ids,
        descriptors=tuple(feature_space.descriptors),
        values=values,
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
