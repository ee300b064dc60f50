"""The paper's comparison as a regression oracle: stems against concepts
against concepts plus hyperonyms, under KNN and under C4.5, and across
the three mapping strategies.

The inputs are the benchmark's `knn-hyperonyms` workload at seed 907,
written by the bench generator (`bench/gen.py`'s `generate`), which
imports nothing from `ontoclass`: 207 abstracts over the 23 Ohsumed
categories, 23 of them with an unclosed `<` that cuts the abstract short,
and a 4,000-descriptor thesaurus. The generator plants the concepts, so
this shows that the pipeline carries the paper's effect through, not
that the effect is real.

Macro F read at seed 907 (3 folds; KNN as the workload configures it:
K = 100, tf-idf, k = 5; C4.5 with K = 8, `tree_min_leaf = 2`, pruned):

    |                   | stems  | concepts | + hyperonyms |
    | KNN  AddConcept   | 0.4958 | 0.8190   | 0.8548       |
    | KNN  ReplaceTerms |        | 0.8181   | 0.8571       |
    | KNN  ConceptOnly  |        | 0.8541   | 0.9086       |
    | C4.5 AddConcept   | 0.3058 | 0.6401   | 0.7382       |
    | C4.5 ReplaceTerms |        | 0.6453   | 0.7447       |
    | C4.5 ConceptOnly  |        | 0.6630   | 0.7447       |

Over generator seeds 1, 2, 3, 907 and 4242, concepts led stems by at
least 0.209 in every cell, so CONCEPT_LEAD leaves room for seed noise.
Hyperonyms improved every cell but one: at seed 4242, KNN under
ReplaceTerms read 0.8438 with hyperonyms against 0.8475 without, and
that cell alone gets HYPERONYM_TOLERANCE.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ontoclass.config import load_config
from ontoclass.corpus import assign_labels, load_label_map, load_ohsumed
from ontoclass.evaluate import run_experiment
from ontoclass.ontology import load_ontology
from ontoclass.preprocess import load_stoplist

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD, SEED = "knn-hyperonyms", 907
CLASSIFIERS = ("knn", "c45")
STRATEGIES = ("AddConcept", "ReplaceTerms", "ConceptOnly")
CONCEPTS = ("concepts", "concepts_hyperonyms")
#: (strategy, representation) of each run, under each classifier
CELLS = [("AddConcept", "stems")] + [(s, r) for s in STRATEGIES for r in CONCEPTS]
#: macro F by which every concept cell must lead the stems cell
CONCEPT_LEAD = 0.15
#: macro F that hyperonyms may lose against concepts, by cell
HYPERONYM_TOLERANCE = {("knn", "ReplaceTerms"): 0.01}


def _bench_generator():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def macro_f(tmp_path_factory):
    """Macro F by (classifier, strategy, representation)."""
    out = tmp_path_factory.mktemp(WORKLOAD)
    _bench_generator().generate(WORKLOAD, SEED, out, ROOT)
    config = load_config(out / f"{WORKLOAD}.ini")
    corpus = assign_labels(
        load_ohsumed(config.resolve(config.corpus_path)),
        load_label_map(config.resolve(config.label_map)),
        categories=config.categories or None, policy=config.label_policy,
    )
    ontology = load_ontology(config.resolve(config.ontology_path),
                             load_stoplist(config.resolve(config.stoplist)))
    table = {}
    for classifier in CLASSIFIERS:
        base = config if classifier == "knn" else replace(
            config, classifier="c45", k_features=8, tree_min_leaf=2,
            tree_prune=True)
        for strategy, representation in CELLS:
            run = replace(base, strategy=strategy, representation=representation)
            table[classifier, strategy, representation] = run_experiment(
                corpus, ontology, run).macro_f
    return table


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_concepts_lead_stems(macro_f, classifier, strategy):
    stems = macro_f[classifier, "AddConcept", "stems"]
    for representation in CONCEPTS:
        assert macro_f[classifier, strategy, representation] >= stems + CONCEPT_LEAD


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hyperonyms_keep_or_improve(macro_f, classifier, strategy):
    tolerance = HYPERONYM_TOLERANCE.get((classifier, strategy), 0.0)
    assert (macro_f[classifier, strategy, "concepts_hyperonyms"]
            >= macro_f[classifier, strategy, "concepts"] - tolerance)
