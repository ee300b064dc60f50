"""Acceptance checks, one test per criterion the package is sold on.

Every expected value here is either produced by an independent oracle
written inside this file (or in synthcorpus.py) or is a constant small
enough to verify by hand. Nothing is read back from the code under
test. The conftest hook prints one PASS/FAIL line per criterion at the
end of the run.
"""

import csv
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import synthcorpus
from ontoclass.classify import (
    c45_predict_all,
    c45_train,
    knn_predict_all,
    knn_train,
)
from ontoclass.cli import main
from ontoclass.config import STRATEGIES, ExperimentConfig
from ontoclass.evaluate import (
    make_folds,
    f_measure,
    report_to_csv,
    run_experiment,
)
from ontoclass.features import WeightedMatrix, chi_square
from ontoclass.mapping import map_document
from ontoclass.ontology import build_ontology
from ontoclass.porter import stem
from ontoclass.preprocess import load_stoplist, preprocess_text, tokenize


def eval_config(**kwargs) -> ExperimentConfig:
    base = dict(classifier="knn", knn_k=5, n_folds=5, seed=0, k_features=100)
    base.update(kwargs)
    return ExperimentConfig(**base)


def fixture_ontology(fixture):
    return build_ontology(list(fixture.ontology_rows), stopwords=load_stoplist())


def test_criterion_1_concepts_beat_stems_by_margin():
    started = time.monotonic()
    for seed in range(5):
        fx = synthcorpus.synonym_split_fixture(seed=seed)
        assert len(fx.corpus.documents) >= 200
        assert len(fx.categories) == 4
        assert sum(1 for cid, *_ in fx.ontology_rows if cid.startswith("G")) >= 10

        # trust gate: the merged-concept space must be separable per an
        # oracle that never touches the library
        labels = {d.doc_id: d.labels[0] for d in fx.corpus.documents}
        oracle_acc = synthcorpus.loo_nearest_neighbor_accuracy(
            fx.concept_truth, labels
        )
        assert oracle_acc >= 0.99

        onto = fixture_ontology(fx)
        concepts = run_experiment(
            fx.corpus, onto,
            eval_config(representation="concepts_hyperonyms", seed=seed),
        )
        stems = run_experiment(
            fx.corpus, None, eval_config(representation="stems", seed=seed)
        )
        assert concepts.macro_f - stems.macro_f >= 0.05, (
            f"seed {seed}: margin {concepts.macro_f - stems.macro_f:.3f}"
        )
    assert time.monotonic() - started < 60


def test_criterion_2_hyperonyms_keep_or_improve_macro_f():
    fx = synthcorpus.sibling_merge_fixture(seed=0)
    labels = {d.doc_id: d.labels[0] for d in fx.corpus.documents}
    assert synthcorpus.loo_nearest_neighbor_accuracy(fx.concept_truth, labels) >= 0.99

    onto = fixture_ontology(fx)
    plain = run_experiment(fx.corpus, onto, eval_config(representation="concepts"))
    enriched = run_experiment(
        fx.corpus, onto, eval_config(representation="concepts_hyperonyms")
    )
    assert enriched.macro_f >= plain.macro_f


def test_criterion_3_chi_square_matches_definition():
    started = time.monotonic()

    def definitional(n11, n10, n01, n00):
        row1, row0 = n11 + n10, n01 + n00
        col1, col0 = n11 + n01, n10 + n00
        total = row1 + row0
        out = 0.0
        for observed, r, c in (
            (n11, row1, col1), (n10, row1, col0),
            (n01, row0, col1), (n00, row0, col0),
        ):
            expected = r * c / total
            out += (observed - expected) ** 2 / expected
        return out

    assert chi_square(4, 1, 1, 4) == 3.6

    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        t = [rng.randint(0, 40) for _ in range(4)]
        n11, n10, n01, n00 = t
        if 0 in (n11 + n10, n01 + n00, n11 + n01, n10 + n00):
            continue
        assert abs(chi_square(*t) - definitional(*t)) <= 1e-9
        checked += 1
    assert time.monotonic() - started < 1


def test_criterion_4_stemmer_reference_pairs_and_stability():
    started = time.monotonic()
    pairs = []
    for line in (Path(__file__).parent / "data" / "porter_pairs.txt").read_text(
        encoding="utf-8"
    ).splitlines():
        if line and not line.startswith("#"):
            word, expected = line.split("\t")
            pairs.append((word, expected))
    assert len(pairs) >= 30
    misses = [(w, stem(w), e) for w, e in pairs if stem(w) != e]
    assert not misses

    vocabulary = set()
    for fx in (
        synthcorpus.synonym_split_fixture(seed=0),
        synthcorpus.sibling_merge_fixture(seed=0),
    ):
        for doc in fx.corpus.documents:
            vocabulary.update(tokenize(doc.text))
    assert len(vocabulary) > 500
    unstable = [w for w in vocabulary if stem(stem(w)) != stem(w)]
    assert not unstable
    assert time.monotonic() - started < 5


def dimensionality(vector):
    """Distinct stems plus distinct concepts of a mapped document."""
    return len(vector.term_part) + len(vector.concept_part.counts)


def test_criterion_5_synonyms_merge_to_cf_3_under_every_strategy():
    stop = load_stoplist()
    onto = build_ontology(
        [("D064", "Appendicitis", ["C01.100"], ["Appendiceal"])], stopwords=stop
    )
    text = (
        "Appendicitis is suspected; acute appendicitis with appendiceal "
        "distension was recorded for the patient."
    )
    vector = preprocess_text("case", text, stop)
    for strategy in STRATEGIES:
        mapped = map_document(
            vector, onto, ExperimentConfig(strategy=strategy)
        )
        assert mapped.concept_part.counts == {"D064": 3}, strategy

    fx = synthcorpus.synonym_split_fixture(seed=0)
    fx_onto = fixture_ontology(fx)
    for doc in fx.corpus.documents:
        vec = preprocess_text(doc.doc_id, doc.text, stop)
        dims = [
            dimensionality(map_document(vec, fx_onto, ExperimentConfig(strategy=s)))
            for s in ("ConceptOnly", "ReplaceTerms", "AddConcept")
        ]
        assert dims[0] <= dims[1] <= dims[2], doc.doc_id


def test_criterion_6_f_measure_arithmetic():
    assert f_measure(0.5, 1.0) == pytest.approx(0.6667, abs=1e-4)
    for p in (0, 0.25, 0.5, 1):
        assert f_measure(p, p) == p
    rng = random.Random(7)
    for _ in range(1000):
        p, r = rng.random(), rng.random()
        f = f_measure(p, r)
        assert min(p, r) <= f <= max(p, r)


def test_criterion_7_cross_validation_hygiene():
    fx = synthcorpus.sibling_merge_fixture(seed=0)
    labels = {d.doc_id: d.labels[0] for d in fx.corpus.documents}

    def members(plan, fold):
        return {doc_id for doc_id, f in plan.items() if f == fold}

    plan = make_folds(labels, 5, seed=11)
    assigned = Counter()
    for fold in range(5):
        assigned.update(members(plan, fold))
    assert set(assigned) == set(labels)
    assert all(count == 1 for count in assigned.values())
    for category in set(labels.values()):
        sizes = [
            sum(1 for d in members(plan, fold) if labels[d] == category)
            for fold in range(5)
        ]
        assert max(sizes) - min(sizes) <= 1

    onto = fixture_ontology(fx)
    config = eval_config(representation="concepts", seed=11)
    fitted: list[tuple[int, str]] = []
    run_experiment(
        fx.corpus, onto, config,
        fit_recorder=lambda fold, doc_id: fitted.append((fold, doc_id)),
    )
    assert fitted
    replan = make_folds(labels, config.n_folds, config.seed)
    leaks = [
        (fold, doc_id)
        for fold, doc_id in fitted
        if doc_id in members(replan, fold)
    ]
    assert leaks == []

    serial = report_to_csv(run_experiment(fx.corpus, onto, config, threads=1))
    threaded = report_to_csv(run_experiment(fx.corpus, onto, config, threads=4))
    assert serial == threaded


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
    mean_gain = sum(c[0] for c in candidates) / len(candidates)
    eligible = [c for c in candidates if c[0] >= mean_gain - 1e-12 and c[0] > 1e-12]
    best = min(eligible, key=lambda c: (-c[1], c[2], c[3]))
    return best[2], best[3]


def matrix_from(rows, labels):
    arr = np.asarray(rows, dtype=np.float64)
    return WeightedMatrix(
        doc_ids=tuple(f"d{i}" for i in range(arr.shape[0])),
        descriptors=tuple(f"t:f{i}" for i in range(arr.shape[1])),
        values=sparse.csr_matrix(arr),
        labels=tuple(labels),
    )


def test_criterion_8_classifier_sanity():
    rng = random.Random(41)
    # unit rows, matching what build_matrix feeds the classifier
    raw = np.asarray([[rng.random() for _ in range(5)] for _ in range(10)])
    rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    labels = [("X", "Y", "Z")[i % 3] for i in range(10)]
    matrix = matrix_from(rows, labels)
    predictions = knn_predict_all(knn_train(matrix, k=1), matrix)
    assert [category for category, _ in predictions] == labels

    grid_rows = [[rng.randrange(10) / 10 for _ in range(4)] for _ in range(12)]
    assert len({tuple(r) for r in grid_rows}) == 12
    grid_labels = [rng.choice(("A", "B", "C")) for _ in range(12)]
    grid = matrix_from(grid_rows, grid_labels)
    tree = c45_train(grid, ExperimentConfig(tree_min_leaf=1, tree_prune=False))
    assert c45_predict_all(tree, grid) == grid_labels

    rows8 = [
        [0.9, 0.10, 0.5],
        [0.1, 0.20, 0.5],
        [0.8, 0.30, 0.5],
        [0.2, 0.35, 0.5],
        [0.7, 0.70, 0.5],
        [0.3, 0.80, 0.5],
        [0.6, 0.90, 0.5],
        [0.4, 0.95, 0.5],
    ]
    labels8 = ["A", "A", "A", "A", "B", "B", "B", "B"]
    root = c45_train(matrix_from(rows8, labels8), ExperimentConfig(tree_min_leaf=2))
    expected_col, expected_thr = brute_force_root(
        np.asarray(rows8), labels8, min_leaf=2
    )
    assert not root.is_leaf
    assert (root.col, root.threshold) == (expected_col, expected_thr)


EIGHT_CATEGORIES = (
    ("Bacterial Infections and Mycoses", "Bacteremia", "C01"),
    ("Virus Diseases", "Viremia", "C02"),
    ("Neoplasms", "Carcinoma", "C04"),
    ("Digestive System Diseases", "Gastritis", "C06"),
    ("Respiratory Tract Diseases", "Asthma", "C08"),
    ("Nervous System Diseases", "Seizures", "C10"),
    ("Cardiovascular Diseases", "Infarction", "C14"),
    ("Immunologic Diseases", "Lupus", "C20"),
)

EVAL_INI = """\
[corpus]
path = corpus.txt
format = ohsumed
label_map = labels.tsv

[ontology]
path = mesh.txt
format = mesh-ascii

[mapping]
representation = concepts_hyperonyms

[features]
k = 25

[classify]
classifier = knn
knn_k = 5

[evaluate]
n_folds = 5
seed = 0

[cli]
output_dir = out
"""


def test_criterion_9_cli_evaluate_on_eight_category_corpus(tmp_path, capsys):
    records, label_lines = [], []
    serial = 0
    for name, heading, tree in EIGHT_CATEGORIES:
        for i in range(10):
            serial += 1
            doc_id = f"{9100000 + serial}"
            records.append(
                f".I {serial}\n.U\n{doc_id}\n.T\n"
                f"{heading} admission note {i}\n.W\n"
                f"patient presented with {heading.lower()} and was observed\n"
            )
            label_lines.append(f"{doc_id}\t{name}\n")
    (tmp_path / "corpus.txt").write_text("".join(records), encoding="utf-8")
    (tmp_path / "labels.tsv").write_text("".join(label_lines), encoding="utf-8")

    mesh = []
    for i, (_, heading, tree) in enumerate(EIGHT_CATEGORIES, start=1):
        mesh.append(
            "*NEWRECORD\n"
            f"MH = {heading}\n"
            f"ENTRY = {heading.lower()}|T047|NON|EQV\n"
            f"MN = {tree}\n"
            f"UI = D{i:06d}\n"
        )
    (tmp_path / "mesh.txt").write_text("\n".join(mesh), encoding="utf-8")
    (tmp_path / "exp.ini").write_text(EVAL_INI, encoding="utf-8")

    assert main(["evaluate", "--config", str(tmp_path / "exp.ini")]) == 0
    out = capsys.readouterr().out
    assert "report ->" in out

    text = (tmp_path / "out" / "report.csv").read_text(encoding="utf-8")
    pooled = [row for row in csv.DictReader(
                  line for line in text.splitlines() if not line.startswith("# "))
              if row["fold"] == "pooled"]
    names = {row["category"] for row in pooled if row["category"] != "AvG"}
    assert names == {name for name, _, _ in EIGHT_CATEGORIES}
    macro_f = next(float(row["f_measure"]) for row in pooled
                   if row["category"] == "AvG")
    assert 0.0 <= macro_f <= 1.0

    table = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert table[0].split()[0] == "category"
    assert len(table) == 1 + 8 + 1
    assert table[-1].startswith("AvG")
