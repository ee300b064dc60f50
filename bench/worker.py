"""One benchmark round in a fresh process.

It does what ``ontoclass evaluate --config`` does: load the config, the
corpus, the labels and the thesaurus through the public loaders, then
``run_experiment`` and ``write_report`` with one thread. It then runs the
output checks and prints one JSON line: the round's timings, peak RSS,
failed documents, check problems and, in a traced round, the per-layer
numbers. The spans of a traced round are written to ``--spans``.

Usage: ``python3 bench/worker.py --inputs DIR --trace 0|1 [--spans FILE]``
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from probe import Probe  # noqa: E402
from ontoclass import (  # noqa: E402
    config as config_mod,
    corpus as corpus_mod,
    evaluate,
    mapping,
    ontology,
    preprocess,
)

#: Query rows per fold that the brute-force KNN check recomputes.
KNN_SAMPLE = 8

#: Training documents whose descriptors join the chi-square sample.
CHI_SAMPLE_DOCS = 3


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Round:
    """Hooks for one round and the numbers they gather."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.totals: dict[str, int] = {}
        self.selections: list = []
        self.term_vectors: list = []
        self.mapped: list = []
        self.consumed: list = []
        self.counts = {"features.scored_pairs": 0,
                       "features.selected_descriptors": 0,
                       "features.zero_rows": 0,
                       "classify.queries": 0,
                       "classify.tree_nodes": 0}

    def install(self) -> None:
        p = self.probe
        p.wrap(config_mod, "load_config", "config.load")
        p.wrap(corpus_mod, "load_ohsumed", "corpus.parse")
        p.wrap(corpus_mod, "load_label_map", "corpus.labels")
        p.wrap(corpus_mod, "assign_labels", "corpus.labels")
        p.wrap(ontology, "load_ontology", "ontology.build")
        p.wrap(ontology, "import_mesh_ascii", "ontology.build")
        p.wrap(evaluate, "run_experiment", "evaluate")
        p.wrap(evaluate, "write_report", "evaluate.write")
        p.wrap(evaluate, "preprocess_corpus", "preprocess", self.on_preprocess)
        p.wrap(evaluate, "map_corpus", "mapping", self.on_map)
        p.wrap(evaluate, "stems_only", None, self.on_stems)
        p.wrap(evaluate, "compute_category_stats", "features.stats")
        p.wrap(evaluate, "select_top_k", "features.select", self.on_select)
        p.wrap(evaluate, "build_matrix", "features.matrix", self.on_matrix)
        p.wrap(evaluate, "knn_train", "classify.train")
        p.wrap(evaluate, "c45_train", "classify.train", self.on_c45_train)
        p.wrap(evaluate, "knn_predict_all", "classify.predict", self.on_knn_predict)
        p.wrap(evaluate, "c45_predict_all", "classify.predict", self.on_c45_predict)
        if p.traced:
            p.wrap(mapping, "match_phrases", None, self.on_match)

    # -- hooks: keep only what the checks and counts need -----------------------

    def on_preprocess(self, args, kwargs, result) -> None:
        self.totals = {tv.doc_id: len(tv.stems) for tv in result}
        if self.probe.traced:
            self.term_vectors = result

    # the mapped vectors live as long as run_experiment does
    def on_map(self, args, kwargs, result) -> None:
        self.mapped = result

    def on_stems(self, args, kwargs, result) -> None:
        self.mapped.append(result)

    def on_match(self, args, kwargs, result) -> None:
        self.consumed.append((_arg(args, kwargs, 0, "term_vector"), result[1]))

    def on_select(self, args, kwargs, result) -> None:
        train = _arg(args, kwargs, 0, "vectors")
        k = _arg(args, kwargs, 2, "k")
        categories = tuple(_arg(args, kwargs, 3, "categories"))
        scores = result.per_category_scores
        descs = {d for cat in categories[:3] for d in result.selected[cat][:1]}
        for v in train[:: max(1, len(train) // CHI_SAMPLE_DOCS)]:
            descs.update(sorted(checks.descriptor_set(v))[:4])
        sampled = []
        for cat in categories:
            for d in sorted(descs):
                if (cat, d) not in scores:
                    self.probe.problems.append(f"no chi-square for {cat!r}, {d!r}")
                    continue
                sampled.append((cat, d, scores[(cat, d)]))
        self.selections.append((train, categories, k, dict(result.selected),
                                sampled))
        if self.probe.traced:
            self.counts["features.scored_pairs"] += len(scores)
            self.counts["features.selected_descriptors"] += len(result.descriptors)

    def on_matrix(self, args, kwargs, result) -> None:
        if self.probe.traced:
            empty = np.diff(result.values.indptr) == 0
            self.counts["features.zero_rows"] += int(empty.sum())

    def on_knn_predict(self, args, kwargs, result) -> None:
        model = _arg(args, kwargs, 0, "model")
        queries = _arg(args, kwargs, 1, "queries")
        self.probe.problems.extend(checks.knn(
            model.matrix.values, model.matrix.labels, model.k,
            queries.values, result, KNN_SAMPLE))
        self.counts["classify.queries"] += len(result)

    def on_c45_train(self, args, kwargs, result) -> None:
        matrix = _arg(args, kwargs, 0, "matrix")
        self.probe.problems.extend(
            checks.tree_counts(matrix.values, matrix.labels, result))
        self.counts["classify.tree_nodes"] += result.node_count()

    def on_c45_predict(self, args, kwargs, result) -> None:
        self.counts["classify.queries"] += len(result)

    # -- after the timed part ---------------------------------------------------

    def check(self, report, csv_path: Path, truth: dict) -> dict[str, str]:
        """Run the deferred checks; returns the failed documents."""
        problems = self.probe.problems
        for train, categories, k, selected, sampled in self.selections:
            problems.extend(checks.feature_selection(train, categories, k,
                                                     selected, sampled))
        problems.extend(checks.report(report, csv_path, truth))
        vectors = {v.doc_id: v for v in self.mapped}
        return checks.document_failures(self.totals, vectors, truth)

    def layers(self, probe: Probe, corpus, onto) -> dict[str, float]:
        busy = probe.busy_times()
        own = probe.self_times()
        tokens = sum(len(tv.stems) for tv in self.term_vectors)
        distinct: set[str] = set()
        for tv in self.term_vectors:
            distinct.update(tv.counts)
        consumed = sum(tv.counts[s] for tv, used in self.consumed for s in used)
        return {
            "corpus.parse_s": busy.get("corpus.parse", 0.0),
            "corpus.labels_s": busy.get("corpus.labels", 0.0),
            "corpus.docs": len(corpus.documents),
            "ontology.build_s": busy.get("ontology.build", 0.0),
            "ontology.concepts": len(onto) if onto else 0,
            "ontology.index_keys": len(onto.phrase_index) if onto else 0,
            "preprocess.busy_s": busy.get("preprocess", 0.0),
            "preprocess.tokens": tokens,
            "preprocess.distinct_stems": len(distinct),
            "mapping.busy_s": busy.get("mapping", 0.0),
            "mapping.concept_occurrences": sum(
                v.concept_part.total() for v in self.mapped),
            "mapping.consumed_share": consumed / tokens if tokens else 0.0,
            "features.stats_s": busy.get("features.stats", 0.0),
            "features.select_s": busy.get("features.select", 0.0),
            "features.matrix_s": busy.get("features.matrix", 0.0),
            **{k: v for k, v in self.counts.items() if k.startswith("features.")},
            "classify.train_s": busy.get("classify.train", 0.0),
            "classify.predict_s": busy.get("classify.predict", 0.0),
            "classify.queries": self.counts["classify.queries"],
            "classify.tree_nodes": self.counts["classify.tree_nodes"],
            "evaluate.self_s": own.get("evaluate", 0.0),
            "evaluate.write_s": busy.get("evaluate.write", 0.0),
        }


def run(inputs: Path, traced: bool, spans: Path | None) -> dict:
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    probe = Probe(traced)
    rnd = Round(probe)
    rnd.install()
    out: dict = {"ok": False, "docs": len(truth["docs"])}
    try:
        h0 = probe.hook_s
        t0 = perf_counter()
        config_path = inputs / truth["config"]
        config = config_mod.load_config(config_path)
        base = config_path.parent
        corpus = corpus_mod.load_ohsumed(
            config_mod.resolve_path(config.corpus_path, base))
        label_map = corpus_mod.load_label_map(
            config_mod.resolve_path(config.label_map, base))
        corpus = corpus_mod.assign_labels(
            corpus, label_map, categories=config.categories or None,
            policy=config.label_policy)
        onto = None
        if config.representation != "stems":
            stopwords = preprocess.load_stoplist(
                config_mod.resolve_path(config.stoplist, base)
                if config.stoplist else None)
            loader = (ontology.import_mesh_ascii
                      if config.ontology_format == "mesh-ascii"
                      else ontology.load_ontology)
            onto = loader(config_mod.resolve_path(config.ontology_path, base),
                          stopwords)
        t1 = perf_counter()
        h1 = probe.hook_s
        report = evaluate.run_experiment(corpus, onto, config, threads=1)
        csv_path, _ = evaluate.write_report(
            report, config_mod.resolve_path(config.output_dir, base))
        t2 = perf_counter()
        h2 = probe.hook_s
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception as exc:
        probe.restore()
        out["problems"] = [f"round raised {type(exc).__name__}: {exc}"]
        out["failed_docs"] = sorted(truth["docs"])
        return out
    probe.restore()
    failed = rnd.check(report, csv_path, truth)
    out.update({
        "ok": True,
        "setup_s": (t1 - t0) - (h1 - h0),
        "evaluate_s": (t2 - t1) - (h2 - h1),
        "hook_s": h2 - h0,
        "peak_rss_mb": rss_mb,
        "macro_f": report.macro_f,
        "failed_docs": sorted(failed),
        "unexpected": {d: why for d, why in failed.items()
                       if d not in set(truth["fault_docs"])},
        "problems": probe.problems,
    })
    if traced:
        out["layers"] = rnd.layers(probe, corpus, onto)
        if spans is not None:
            probe.write_spans(spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark round")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    # the same logging set-up as the command-line tool
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    print(json.dumps(run(args.inputs, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
