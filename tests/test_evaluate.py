import csv
import hashlib
import logging
import random
import tracemalloc
from collections import Counter

import pytest

import synthcorpus
from ontoclass import evaluate
from ontoclass.config import ExperimentConfig
from ontoclass.corpus import Corpus, Document, assign_labels
from ontoclass.errors import ExperimentError, OntoclassError
from ontoclass.evaluate import (
    CategoryMetrics,
    EvalReport,
    f_measure,
    make_folds,
    render_table,
    report_to_csv,
    representation_vectors,
    run_experiment,
    write_report,
)
from ontoclass.features import count_matrix
from ontoclass.mapping import map_document
from ontoclass.ontology import build_ontology
from ontoclass.preprocess import load_stoplist, preprocess_text


def fold_members(plan, fold):
    """The documents a fold plan puts in one fold."""
    return {doc_id for doc_id, f in plan.items() if f == fold}


class TestMakeFolds:
    def test_single_category_even_deal(self):
        labels = {f"d{i}": "A" for i in range(10)}
        plan = make_folds(labels, 5, seed=0)
        sizes = Counter(plan.values())
        assert sizes == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}

    def test_two_categories_stratified_exactly(self):
        labels = {f"a{i}": "A" for i in range(10)}
        labels.update({f"b{i}": "B" for i in range(10)})
        plan = make_folds(labels, 5, seed=1)
        for fold in range(5):
            ids = fold_members(plan, fold)
            per_cat = Counter(labels[d] for d in ids)
            assert per_cat == {"A": 2, "B": 2}

    def test_seven_documents_five_folds(self):
        labels = {f"d{i}": "A" for i in range(7)}
        plan = make_folds(labels, 5, seed=3)
        sizes = sorted(Counter(plan.values()).values(), reverse=True)
        assert sizes == [2, 2, 1, 1, 1]

    def test_partition_and_stratification_invariants(self):
        rng = random.Random(9)
        labels = {f"d{i}": rng.choice("ABC") for i in range(53)}
        plan = make_folds(labels, 5, seed=7)
        assert set(plan) == set(labels)
        all_ids = [d for f in range(5) for d in fold_members(plan, f)]
        assert len(all_ids) == len(set(all_ids)) == 53
        for cat in "ABC":
            per_fold = [
                sum(1 for d in fold_members(plan, f) if labels[d] == cat)
                for f in range(5)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_same_seed_same_plan(self):
        labels = {f"d{i}": "AB"[i % 2] for i in range(20)}
        assert make_folds(labels, 4, seed=5) == make_folds(labels, 4, seed=5)
        assert make_folds(labels, 4, seed=5) != make_folds(labels, 4, seed=6)

    def test_small_category_warns(self, caplog):
        labels = {"d1": "A", "d2": "A", "d3": "A", "d4": "B"}
        with caplog.at_level(logging.WARNING, logger="ontoclass.evaluate"):
            plan = make_folds(labels, 3, seed=0)
        assert "has 1 documents for 3 folds" in caplog.text
        assert len(plan) == 4

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(OntoclassError):
            make_folds({"d1": "A"}, 1, seed=0)


class TestFMeasure:
    def test_equal_inputs_pass_through(self):
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert f_measure(p, p) == pytest.approx(p)

    def test_zero_convention(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_worked_value(self):
        assert f_measure(0.5, 1.0) == pytest.approx(0.6667, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            f_measure(-0.1, 0.5)
        with pytest.raises(ValueError):
            f_measure(0.5, 1.5)

    def test_bracketing(self):
        rng = random.Random(31)
        for _ in range(1000):
            p, r = rng.random(), rng.random()
            f = f_measure(p, r)
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    def test_metrics_from_counts_conventions(self):
        m = CategoryMetrics.from_counts("A", tp=0, fp=0, fn=0)
        assert (m.precision, m.recall, m.f_measure) == (0.0, 0.0, 0.0)
        m = CategoryMetrics.from_counts("A", tp=3, fp=1, fn=2)
        assert m.precision == 0.75
        assert m.recall == 0.6
        assert m.f_measure == pytest.approx(2 * 0.75 * 0.6 / 1.35)


MARKERS = {"Cardio": "kardol", "Neuro": "fenwip", "Renal": "moxart"}


def separable_corpus(docs_per_cat=10):
    docs = []
    for cat, marker in MARKERS.items():
        for i in range(docs_per_cat):
            docs.append(
                Document(
                    doc_id=f"{cat[:3].lower()}{i}",
                    title=f"{marker} report",
                    abstract=f"patient treatment outcome {marker}",
                    labels=(cat,),
                )
            )
    return Corpus(documents=tuple(docs), categories=tuple(MARKERS))


def stems_config(**kwargs):
    defaults = dict(representation="stems", classifier="knn", knn_k=1,
                    n_folds=5, seed=0, k_features=50)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_separable_corpus_is_perfect_with_knn(self):
        report = run_experiment(separable_corpus(), None, stems_config())
        assert report.macro_f == 1.0
        assert all(m.f_measure == 1.0 for m in report.per_category)
        assert [m.category for m in report.per_category] == list(MARKERS)

    def test_separable_corpus_is_perfect_with_tree(self):
        config = stems_config(classifier="c45", tree_min_leaf=1)
        report = run_experiment(separable_corpus(), None, config)
        assert report.macro_f == 1.0

    def test_diagnostic_single_fold(self, caplog):
        config = stems_config(n_folds=1)
        with caplog.at_level(logging.WARNING, logger="ontoclass.evaluate"):
            report = run_experiment(separable_corpus(), None, config)
        assert "training set = test set" in caplog.text
        assert report.macro_f == 1.0
        assert len(report.per_fold) == 1

    def test_per_fold_snapshots_cover_all_folds(self):
        report = run_experiment(separable_corpus(), None, stems_config())
        assert len(report.per_fold) == 5
        for snapshot in report.per_fold:
            assert [m.category for m in snapshot] == list(MARKERS)

    def test_a_fold_with_no_test_document_is_an_error(self):
        # two documents per category deal into folds 0 and 1 only
        corpus = separable_corpus(docs_per_cat=2)
        fitted = []
        with pytest.raises(ExperimentError,
                           match=r"^fold 2: a fold came out empty$"):
            run_experiment(corpus, None, stems_config(n_folds=3),
                           fit_recorder=lambda fold, doc: fitted.append(doc))
        # caught before folds 0 and 1 fit anything
        assert fitted == []

    def test_deterministic_and_thread_invariant(self):
        corpus = separable_corpus()
        a = run_experiment(corpus, None, stems_config())
        b = run_experiment(corpus, None, stems_config())
        c = run_experiment(corpus, None, stems_config(), threads=4)
        assert a == b == c
        assert report_to_csv(a) == report_to_csv(c)

    def test_fit_never_touches_test_fold(self):
        corpus = separable_corpus()
        config = stems_config()
        touched = []
        run_experiment(corpus, None, config,
                       fit_recorder=lambda fold, doc: touched.append((fold, doc)))
        labels = {d.doc_id: d.labels[0] for d in corpus.documents}
        plan = make_folds(labels, config.n_folds, config.seed)
        assert touched
        for fold, doc_id in touched:
            assert doc_id not in fold_members(plan, fold)

    def test_each_document_is_counted_once_per_run(self, monkeypatch):
        walked = Counter()

        def counting(vectors):
            walked.update(v.doc_id for v in vectors)
            return count_matrix(vectors)

        monkeypatch.setattr(evaluate, "count_matrix", counting)
        corpus = separable_corpus()
        report = run_experiment(corpus, None, stems_config(n_folds=3))
        assert len(report.per_fold) == 3
        assert walked == Counter(d.doc_id for d in corpus.documents)

    def test_upstream_error_is_fold_tagged(self):
        config = stems_config(knn_k=500)
        with pytest.raises(ExperimentError, match=r"fold 0: "):
            run_experiment(separable_corpus(), None, config)

    @pytest.mark.parametrize("n_folds", [5, 1])
    def test_unlabeled_document_rejected_before_folds(self, n_folds, caplog):
        corpus = separable_corpus()
        unlabeled = Document(doc_id="root", title="kardol report")
        corpus = Corpus(documents=corpus.documents + (unlabeled,),
                        categories=corpus.categories)
        with caplog.at_level(logging.WARNING, logger="ontoclass.evaluate"):
            with pytest.raises(OntoclassError) as err:
                run_experiment(corpus, None, stems_config(n_folds=n_folds))
        assert str(err.value) == "document 'root' has no label"
        assert not isinstance(err.value, ExperimentError)
        assert caplog.text == ""

    def test_unlabeled_document_rejected_before_preprocessing(self, monkeypatch):
        def preprocess_work(*args):
            raise AssertionError("preprocessed before the label check")

        monkeypatch.setattr(evaluate, "preprocess_corpus", preprocess_work)
        corpus = separable_corpus()
        unlabeled = Document(doc_id="root", title="kardol report")
        corpus = Corpus(documents=(unlabeled,) + corpus.documents,
                        categories=corpus.categories)
        with pytest.raises(OntoclassError, match="^document 'root' has no label$"):
            run_experiment(corpus, None, stems_config())

    def test_multilabel_document_rejected_naming_it(self, monkeypatch):
        # count_matrix would take its first label without a word
        def preprocess_work(*args):
            raise AssertionError("preprocessed before the label check")

        monkeypatch.setattr(evaluate, "preprocess_corpus", preprocess_work)
        corpus = separable_corpus()
        twice = Document(doc_id="twice", title="kardol moxart report",
                         labels=("Cardio", "Renal"))
        corpus = Corpus(documents=corpus.documents + (twice,),
                        categories=corpus.categories)
        with pytest.raises(OntoclassError) as err:
            run_experiment(corpus, None, stems_config())
        assert str(err.value) == "document 'twice' has 2 labels"
        assert not isinstance(err.value, ExperimentError)

    def test_empty_corpus_rejected(self):
        empty = Corpus(documents=(), categories=("A",))
        with pytest.raises(OntoclassError):
            run_experiment(empty, None, stems_config())

    def test_corpus_without_category_list_rejected(self):
        bare = Corpus(documents=tuple(
            Document(doc_id=d.doc_id, title=d.title, abstract=d.abstract)
            for d in separable_corpus().documents
        ))
        with pytest.raises(OntoclassError, match="has no label"):
            run_experiment(bare, None, stems_config())

    def test_concept_representation_requires_ontology(self):
        config = stems_config(representation="concepts")
        with pytest.raises(OntoclassError, match="needs an ontology"):
            run_experiment(separable_corpus(), None, config)

    def test_config_echo_embedded(self):
        report = run_experiment(separable_corpus(), None, stems_config())
        echo = dict(report.config_echo)
        assert echo["mapping.representation"] == "stems"
        assert echo["evaluate.n_folds"] == "5"
        assert echo["classify.knn_k"] == "1"


class TestMeshAnnotations:
    """`use_mesh_annotations` through `representation_vectors` and
    `run_experiment`: each document's row counts its own `.M` headings."""

    # D3 is named in no document text, only in annotations
    ROWS = [
        ("D1", "Kardol Syndrome", ["C01"], ["kardol"]),
        ("D2", "Moxart Failure", ["C02"], ["moxart"]),
        ("D3", "Fenwip Disorder", ["C01.100"], []),
    ]

    @staticmethod
    def annotated_corpus():
        docs, label_map = [], {}
        for cat, marker, heading in (("Cardio", "kardol", "Kardol Syndrome"),
                                     ("Renal", "moxart", "Moxart Failure")):
            for i in range(4):
                doc_id = f"{marker}{i}"
                headings = (heading,) if i % 2 else (heading, "Fenwip Disorder")
                docs.append(Document(doc_id=doc_id, title=f"{marker} report",
                                     abstract=f"patient outcome {marker}",
                                     mesh_annotations=headings))
                label_map[doc_id] = (cat,)
        # two labels: the duplicate policy clones it as "both::2"
        docs.append(Document(doc_id="both", title="kardol moxart report",
                             mesh_annotations=("Fenwip Disorder*",)))
        label_map["both"] = ("Cardio", "Renal")
        return assign_labels(Corpus(documents=tuple(docs)), label_map,
                             policy="duplicate")

    def test_each_row_maps_its_own_annotations(self, monkeypatch):
        corpus = self.annotated_corpus()
        stopwords = load_stoplist()
        onto = build_ontology(self.ROWS, stopwords)
        config = ExperimentConfig(
            representation="concepts", use_mesh_annotations=True,
            label_policy="duplicate", knn_k=1, n_folds=2, seed=0, k_features=10,
        )
        counted = []

        def counting(vectors):
            counted.append(count_matrix(vectors))
            return counted[-1]

        monkeypatch.setattr(evaluate, "count_matrix", counting)
        run_experiment(corpus, onto, config)
        vectors = representation_vectors(corpus, onto, config)

        mcfg = ExperimentConfig(use_mesh_annotations=True)
        expected = [
            map_document(preprocess_text(d.doc_id, d.text, stopwords, d.labels),
                         onto, mcfg, d.mesh_annotations)
            for d in corpus.documents
        ]
        assert vectors == expected
        (counts,) = counted
        want = count_matrix(expected)
        assert counts.doc_ids == want.doc_ids and counts.labels == want.labels
        assert counts.descriptors == want.descriptors
        assert (counts.values != want.values).nnz == 0

        clone = vectors[-1]
        assert (clone.doc_id, clone.labels) == ("both::2", ("Renal",))
        assert clone.concept_part.counts == {"D1": 1, "D2": 1, "D3": 1}
        text_only = map_document(
            preprocess_text("both", "kardol moxart report", stopwords), onto, mcfg
        )
        assert "D3" not in text_only.concept_part.counts

    def test_text_and_annotations_share_the_ontology_stoplist(self):
        # an ontology keyed with no stoplist keeps "of" in its keys, and
        # the title must keep it too, as the annotation does
        onto = build_ontology([("D1", "Loss of Vision", ["C01"], [])], frozenset())
        doc = Document(doc_id="d", title="loss of vision",
                       mesh_annotations=("Loss of Vision",))
        config = ExperimentConfig(use_mesh_annotations=True)
        (vector,) = representation_vectors(Corpus(documents=(doc,)), onto, config)
        assert vector.concept_part.counts == {"D1": 2}

    def test_missing_ontology_rejected_before_any_text_is_read(self, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("text read")

        monkeypatch.setattr(evaluate, "preprocess_corpus", unread)
        with pytest.raises(OntoclassError, match="needs an ontology"):
            representation_vectors(self.annotated_corpus(), None,
                                   ExperimentConfig(use_mesh_annotations=True))


def generated_corpus(n_docs, seed=13):
    """`n_docs` documents of 120 Zipf-drawn made-up words over four
    categories, and a thesaurus naming the 300 most frequent words."""
    rng = random.Random(seed)
    syllables = ["ka", "lo", "mi", "ner", "tus", "pha", "gen", "ost", "rid",
                 "vel", "cor", "dia"]
    words = sorted({
        "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        for _ in range(3000)
    })
    weights = [1 / rank for rank in range(1, len(words) + 1)]
    cats = ("A", "B", "C", "D")
    docs = tuple(
        Document(doc_id=f"d{i}",
                 title=" ".join(rng.choices(words, weights, k=10)),
                 abstract=" ".join(rng.choices(words, weights, k=110)),
                 labels=(cats[i % 4],))
        for i in range(n_docs)
    )
    rows = [(f"D{i}", w, [f"C{i}"], []) for i, w in enumerate(words[:300])]
    return Corpus(documents=docs, categories=cats), rows


class TestRepresentationBoundedMemory:
    @pytest.mark.parametrize("representation, bound", [
        ("concepts", 5400),
        ("stems", 3900),
    ])
    def test_peak_per_document(self, representation, bound):
        # 400 documents of about 80 distinct stems on CPython 3.11, every
        # word already in the stem memo: AddConcept peaks at about
        # 4,630 B per document and stems at about 3,110 B when `term_part`
        # is the term vector's own counts; a copy of the counts per
        # document peaked at about 6,300 B and 4,780 B
        n = 400
        corpus, rows = generated_corpus(n)
        onto = build_ontology(rows, load_stoplist())
        config = ExperimentConfig(representation=representation,
                                  strategy="AddConcept")
        representation_vectors(corpus, onto, config)  # fills the stem memo
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vectors = representation_vectors(corpus, onto, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(vectors) == n
        assert peak < bound * n, f"{peak} bytes at peak for {n} documents"


class TestCrossValidationBoundedMemory:
    """The traced peak of cross-validation alone, from the built count
    matrix on, at n and 4n documents: it grows no faster than the
    documents, and stays under a bound per document at 4n, under every
    classifier. Sizes and bounds are fixed: 500 and 2,000 documents,
    three folds, growth at most 4x and 4,000 B per document at 2,000.

    On CPython 3.11 with numpy 2.4, `generated_corpus` as stems read
    (MB at 500 -> MB at 2,000, growth, B per document at 2,000):
    - KNN over one dense (queries x training rows) array per fold:
      cosine 1.19 -> 9.42, 7.9x, 4,710 B; euclidean 2.02 -> 23.66,
      11.7x, 11,829 B;
    - KNN over blocks of _BLOCK_CELLS cells: cosine 1.74 -> 5.96, 3.4x,
      2,978 B; euclidean 1.69 -> 5.25, 3.1x, 2,623 B;
    - C4.5: 1.37 -> 4.52, 3.3x, 2,259 B.
    """

    @pytest.fixture(scope="class")
    def represented(self):
        config = ExperimentConfig(representation="stems", n_folds=3)
        out = {}
        for n in (500, 2000):
            corpus, _ = generated_corpus(n)
            out[n] = corpus, representation_vectors(corpus, None, config)
        return out

    @staticmethod
    def traced_peak(monkeypatch, corpus, vectors, config):
        """Run the folds over `vectors`; tracing starts once the count
        matrix is built."""
        def counted(vs):
            counts = count_matrix(vs)
            tracemalloc.start()
            return counts

        monkeypatch.setattr(evaluate, "representation_vectors",
                            lambda *args: vectors)
        monkeypatch.setattr(evaluate, "count_matrix", counted)
        try:
            run_experiment(corpus, None, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()

    @pytest.mark.parametrize("classifier", [
        {"classifier": "knn", "knn_similarity": "cosine"},
        {"classifier": "knn", "knn_similarity": "euclidean"},
        {"classifier": "c45"},
    ], ids=["knn-cosine", "knn-euclidean", "c45"])
    def test_peak_grows_no_faster_than_documents(self, represented, monkeypatch,
                                                 classifier):
        config = ExperimentConfig(representation="stems", n_folds=3, **classifier)
        small, large = (self.traced_peak(monkeypatch, *represented[n], config)
                        for n in (500, 2000))
        assert large <= 4 * small, f"{small} -> {large} bytes at peak"
        assert large < 4000 * 2000, f"{large} bytes at peak for 2,000 documents"


class TestReportRendering:
    def small_report(self):
        return run_experiment(separable_corpus(4), None,
                              stems_config(n_folds=2))

    def test_csv_round_trip(self):
        # the echo, every count and every float read back exactly, thirds
        # and a category name with a comma in it included
        def metrics(cat, tp, fp, fn):
            return CategoryMetrics.from_counts(cat, tp, fp, fn)

        pooled = (metrics("Heart", 1, 2, 5), metrics("Renal, Chronic", 2, 1, 1))
        report = EvalReport(
            per_category=pooled,
            macro_f=sum(m.f_measure for m in pooled) / 2,
            config_echo=(("corpus.path", "corpus.txt"), ("features.k", "42")),
            per_fold=((metrics("Heart", 1, 1, 2), metrics("Renal, Chronic", 1, 1, 0)),
                      (metrics("Heart", 0, 1, 3), metrics("Renal, Chronic", 1, 0, 1))),
        )
        lines = report_to_csv(report).splitlines()
        echo = [tuple(line[2:].split(" = ", 1)) for line in lines
                if line.startswith("# ")]
        assert echo == list(report.config_echo)
        rows = list(csv.reader(line for line in lines if not line.startswith("# ")))
        got = [(fold, cat, *(int(n) if n else None for n in (tp, fp, fn)),
                float(p), float(r), float(f))
               for fold, cat, tp, fp, fn, p, r, f in rows[1:]]

        def row(fold, m):
            return (fold, m.category, m.tp, m.fp, m.fn,
                    m.precision, m.recall, m.f_measure)

        avg = ("pooled", "AvG", None, None, None,
               sum(m.precision for m in pooled) / len(pooled),
               sum(m.recall for m in pooled) / len(pooled), report.macro_f)
        assert got == ([row("pooled", m) for m in pooled] + [avg]
                       + [row(str(fold), m)
                          for fold, metrics in enumerate(report.per_fold)
                          for m in metrics])

    def test_csv_has_pooled_avg_and_fold_rows(self):
        text = report_to_csv(self.small_report())
        lines = [l for l in text.splitlines() if not l.startswith("# ")]
        assert lines[0] == "fold,category,tp,fp,fn,precision,recall,f_measure"
        assert sum(1 for l in lines if l.startswith("pooled,")) == 4
        assert any(l.startswith("pooled,AvG") for l in lines)
        assert sum(1 for l in lines if l.startswith(("0,", "1,"))) == 6

    def test_table_shape(self):
        table = render_table(self.small_report())
        lines = table.splitlines()
        assert lines[0].split() == ["category", "precision", "recall", "f-measure"]
        assert [l.split()[0] for l in lines[1:]] == list(MARKERS) + ["AvG"]
        assert lines[-1].split()[1:] == ["1.000", "1.000", "1.000"]

    def test_write_report_emits_both_files(self, tmp_path):
        report = self.small_report()
        csv_path, txt_path = write_report(report, tmp_path / "out")
        assert csv_path.read_text().startswith("# corpus.path = ")
        assert txt_path.read_text().startswith("category")


class TestReportBytesPinned:
    """report.csv must not change by a byte for a fixed config. The
    digests were taken from the per-pair chi-square selection loop."""

    @pytest.mark.parametrize("classifier, representation, digest", [
        ("knn", "concepts_hyperonyms",
         "fa6bacfbc64acbbfd05feb3bd884047781845564660ee30cdb60eccdad3fcf49"),
        ("c45", "stems",
         "0911c616191b5282ae5c8ed1a2f5266952e7923886de33e23b792890b3fa5ada"),
    ])
    def test_report_digest(self, classifier, representation, digest):
        fx = synthcorpus.sibling_merge_fixture(seed=3)
        onto = None
        if representation != "stems":
            onto = build_ontology(list(fx.ontology_rows), stopwords=load_stoplist())
        config = ExperimentConfig(
            classifier=classifier, representation=representation,
            knn_k=5, n_folds=4, seed=7, k_features=6,
        )
        csv = report_to_csv(run_experiment(fx.corpus, onto, config))
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("classifier, representation, option, value, digest", [
        ("knn", "concepts_hyperonyms", "weighting", "tf",
         "650430680f52ac7359a6a5afdce6a54200a36046bf51e3fd4c2b96f5a6466d74"),
        ("knn", "concepts_hyperonyms", "weighting", "binary",
         "f86c3cb5453f0af876a6da878becfed64614228b569234871f5191f2e2d4bf39"),
        ("c45", "stems", "weighting", "tf",
         "86622d713e233333cad7350b45dff5e79c0dc9818d8986466de74411bdaf2e87"),
        ("c45", "stems", "weighting", "binary",
         "1f3e4fc78babdcbaa635014f4521b1e19bf6c7af21547de8876e20b11e67443f"),
        ("knn", "concepts_hyperonyms", "knn_similarity", "euclidean",
         "79dc24915971be3de7a88d66480e03bce0f9b08e226fd702d87068c0375e7d5a"),
    ])
    def test_option_digest(self, classifier, representation, option, value,
                           digest):
        """The other weightings and the euclidean KNN, pinned from the
        pipeline that fitted separate category statistics."""
        fx = synthcorpus.sibling_merge_fixture(seed=3)
        onto = None
        if representation != "stems":
            onto = build_ontology(list(fx.ontology_rows), stopwords=load_stoplist())
        config = ExperimentConfig(
            classifier=classifier, representation=representation,
            knn_k=5, n_folds=4, seed=7, k_features=6, **{option: value},
        )
        csv = report_to_csv(run_experiment(fx.corpus, onto, config))
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest
