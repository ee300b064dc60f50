"""Stratified cross-validation, pooled one-vs-rest confusion accounting,
and precision/recall/F reporting.

A report carries pooled per-category metrics, the macro F average, the
per-fold snapshots, and an echo of the configuration that produced it;
rendering is deterministic so identical runs give identical bytes.
"""

from __future__ import annotations

import csv
import io
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .classify import c45_predict_all, c45_train, knn_predict_all, knn_train
from .config import ExperimentConfig
from .corpus import Corpus
from .errors import ExperimentError, OntoclassError
from .features import (
    WeightedMatrix,
    build_matrix,
    count_matrix,
    select_top_k,
)
from .mapping import HybridVector, map_corpus, stems_only
from .ontology import Ontology
from .preprocess import load_stoplist, preprocess_corpus

log = logging.getLogger(__name__)

#: Called with (fold_index, doc_id) for every document a fitting step
#: reads; tests use it to prove held-out folds stay untouched.
FitRecorder = Callable[[int, str], None]


def make_folds(labels: Mapping[str, str], n: int, seed: int) -> dict[str, int]:
    """Each document's fold in [0, n): per category, seeded shuffle then
    round-robin.

    Per-category fold sizes can differ by at most 1. Categories with
    fewer than n documents are allowed (some folds just miss them) with
    a warning.
    """
    if n < 2:
        raise OntoclassError(f"need at least 2 folds, got {n}")
    by_cat: dict[str, list[str]] = {}
    for doc_id, cat in labels.items():
        by_cat.setdefault(cat, []).append(doc_id)
    rng = random.Random(seed)
    assignment: dict[str, int] = {}
    for cat in sorted(by_cat):
        ids = sorted(by_cat[cat])
        if len(ids) < n:
            log.warning("category %r has %d documents for %d folds", cat,
                        len(ids), n)
        rng.shuffle(ids)
        for i, doc_id in enumerate(ids):
            assignment[doc_id] = i % n
    return assignment


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if not 0.0 <= precision <= 1.0 or not 0.0 <= recall <= 1.0:
        raise ValueError("precision and recall must be in [0, 1]")
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class CategoryMetrics:
    category: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_measure: float

    @classmethod
    def from_counts(cls, category: str, tp: int, fp: int, fn: int) -> CategoryMetrics:
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return cls(category, tp, fp, fn, p, r, f_measure(p, r))


@dataclass(frozen=True)
class EvalReport:
    per_category: tuple[CategoryMetrics, ...]
    macro_f: float
    config_echo: tuple[tuple[str, str], ...]
    per_fold: tuple[tuple[CategoryMetrics, ...], ...]


def _confusion_to_metrics(
    categories: Sequence[str], conf: np.ndarray
) -> tuple[CategoryMetrics, ...]:
    """One `CategoryMetrics` per row of a categories x (tp, fp, fn) array."""
    return tuple(
        CategoryMetrics.from_counts(cat, *row)
        for cat, row in zip(categories, conf.tolist())
    )


def representation_vectors(
    corpus: Corpus,
    ontology: Ontology | None,
    config: ExperimentConfig,
) -> list[HybridVector]:
    """Preprocess the corpus and map it to the configured representation.
    Stems drop the words on `config.stoplist`; concept representations
    drop those on the ontology's own stoplist, which keyed its terms."""
    if config.representation == "stems":
        stopwords = load_stoplist(config.resolve(config.stoplist))
        return [stems_only(tv) for tv in preprocess_corpus(corpus, stopwords)]
    if ontology is None:
        raise OntoclassError(
            f"representation {config.representation!r} needs an ontology"
        )
    term_vectors = preprocess_corpus(corpus, ontology.stopwords)
    mesh_by_doc = None
    if config.use_mesh_annotations:
        mesh_by_doc = {d.doc_id: d.mesh_annotations for d in corpus.documents}
    return map_corpus(term_vectors, ontology, config, mesh_by_doc)


def run_experiment(
    corpus: Corpus,
    ontology: Ontology | None,
    config: ExperimentConfig,
    threads: int = 1,
    fit_recorder: FitRecorder | None = None,
) -> EvalReport:
    """Cross-validate the configured pipeline on a labeled corpus: each
    document carries exactly one label, as `assign_labels` leaves it.

    The documents are counted once, into one `count_matrix`; labels and
    fold membership are read from it, and each fold takes its rows. Every
    fold fits its feature space on its training rows only, weights its
    training and held-out rows with `build_matrix`, then classifies the
    held-out rows; each fold counts per-category tp/fp/fn into a
    categories x 3 array, and the folds' arrays are summed before
    precision/recall/F. n_folds = 1 is a diagnostic mode that trains and
    tests on the full corpus. A fold with no document is an ExperimentError
    before any fold runs. Folds run in a thread pool when threads > 1;
    results reduce in fold order, so the report is identical for any
    thread count.
    """
    if not corpus.documents:
        raise OntoclassError("empty corpus")
    for doc in corpus.documents:
        if len(doc.labels) != 1:
            labels = f"{len(doc.labels)} labels" if doc.labels else "no label"
            raise OntoclassError(f"document {doc.doc_id!r} has {labels}")
    categories = corpus.categories
    vectors = representation_vectors(corpus, ontology, config)
    counts = count_matrix(vectors)

    n_folds = config.n_folds
    if n_folds == 1:
        log.warning("single-fold diagnostic mode: training set = test set")
        fold_of = np.zeros(len(counts.doc_ids), dtype=np.int64)
    else:
        plan = make_folds(dict(zip(counts.doc_ids, counts.labels)),
                          n_folds, config.seed)
        fold_of = np.array([plan[doc_id] for doc_id in counts.doc_ids])
    empty = np.flatnonzero(np.bincount(fold_of, minlength=n_folds) == 0)
    if empty.size:
        raise ExperimentError(f"fold {empty[0]}: a fold came out empty")
    category_of = {cat: i for i, cat in enumerate(categories)}
    actual_of = np.array([category_of[lab] for lab in counts.labels])

    def rows(positions: np.ndarray) -> WeightedMatrix:
        return WeightedMatrix(
            doc_ids=tuple(counts.doc_ids[i] for i in positions),
            descriptors=counts.descriptors,
            values=counts.values[positions],
            labels=tuple(counts.labels[i] for i in positions),
        )

    def run_fold(fold: int) -> np.ndarray:
        """The fold's categories x (tp, fp, fn) counts."""
        try:
            test = np.flatnonzero(fold_of == fold)
            train = test if n_folds == 1 else np.flatnonzero(fold_of != fold)
            train_counts, test_counts = rows(train), rows(test)
            recorder = None
            if fit_recorder is not None:
                recorder = lambda doc_id: fit_recorder(fold, doc_id)
            space = select_top_k(
                [vectors[i] for i in train], k=config.k_features,
                categories=categories, recorder=recorder, counts=train_counts,
            )
            train_m = build_matrix(train_counts, space, weighting=config.weighting)
            test_m = build_matrix(test_counts, space, weighting=config.weighting)
            if config.classifier == "knn":
                model = knn_train(train_m, k=config.knn_k,
                                  similarity=config.knn_similarity)
                predicted = [cat for cat, _ in knn_predict_all(model, test_m)]
            else:
                tree = c45_train(train_m, config)
                predicted = c45_predict_all(tree, test_m)
        except Exception as exc:
            raise ExperimentError(f"fold {fold}: {exc}") from exc
        actual = actual_of[test]
        guessed = np.array([category_of[cat] for cat in predicted], dtype=np.int64)
        miss = actual != guessed
        return np.stack([
            np.bincount(actual[~miss], minlength=len(categories)),
            np.bincount(guessed[miss], minlength=len(categories)),
            np.bincount(actual[miss], minlength=len(categories)),
        ], axis=1)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fold_confs = list(pool.map(run_fold, range(n_folds)))
    else:
        fold_confs = [run_fold(i) for i in range(n_folds)]

    per_category = _confusion_to_metrics(categories, sum(fold_confs))
    macro_f = sum(m.f_measure for m in per_category) / len(per_category)
    per_fold = tuple(
        _confusion_to_metrics(categories, conf) for conf in fold_confs
    )
    return EvalReport(
        per_category=per_category,
        macro_f=macro_f,
        config_echo=config.echo(),
        per_fold=per_fold,
    )


_CSV_COLUMNS = ("fold", "category", "tp", "fp", "fn",
                "precision", "recall", "f_measure")


def _metric_row(scope: str, m: CategoryMetrics) -> list[str]:
    return [scope, m.category, str(m.tp), str(m.fp), str(m.fn),
            repr(m.precision), repr(m.recall), repr(m.f_measure)]


def report_to_csv(report: EvalReport) -> str:
    """Machine-readable rows under a '#'-prefixed config echo block."""
    buf = io.StringIO()
    for key, value in report.config_echo:
        buf.write(f"# {key} = {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for m in report.per_category:
        writer.writerow(_metric_row("pooled", m))
    macros = _macro_means(report.per_category)
    writer.writerow(["pooled", "AvG", "", "", "",
                     repr(macros[0]), repr(macros[1]), repr(report.macro_f)])
    for fold, metrics in enumerate(report.per_fold):
        for m in metrics:
            writer.writerow(_metric_row(str(fold), m))
    return buf.getvalue()


def _macro_means(metrics: Sequence[CategoryMetrics]) -> tuple[float, float]:
    n = len(metrics)
    return (sum(m.precision for m in metrics) / n,
            sum(m.recall for m in metrics) / n)


def render_table(report: EvalReport) -> str:
    """Human-readable pooled table: one category per row plus the average."""
    rows = [(m.category, m.precision, m.recall, m.f_measure)
            for m in report.per_category]
    macros = _macro_means(report.per_category)
    rows.append(("AvG", macros[0], macros[1], report.macro_f))
    width = max(len("category"), *(len(r[0]) for r in rows))
    lines = [
        f"{'category':<{width}}  {'precision':>9}  {'recall':>9}  {'f-measure':>9}"
    ]
    for name, p, r, f in rows:
        lines.append(f"{name:<{width}}  {p:>9.3f}  {r:>9.3f}  {f:>9.3f}")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.csv and report.txt; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    txt_path = out_dir / "report.txt"
    csv_path.write_text(report_to_csv(report), encoding="utf-8")
    txt_path.write_text(render_table(report), encoding="utf-8")
    return csv_path, txt_path
