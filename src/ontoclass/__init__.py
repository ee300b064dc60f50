"""Ontology-concept text classification: map medical documents from
bag-of-stems into thesaurus-concept space and compare classifiers under
cross-validation.
"""

from .classify import (
    KnnModel,
    TreeNode,
    c45_train,
    knn_train,
)
from .config import ExperimentConfig, load_config
from .corpus import (
    Corpus,
    Document,
    assign_labels,
    load_label_map,
    load_ohsumed,
    parse_ohsumed,
    parse_textdir,
    strip_markup,
)
from .errors import (
    ConfigError,
    ExperimentError,
    OntoclassError,
    OntologyError,
    ParseError,
)
from .evaluate import (
    CategoryMetrics,
    EvalReport,
    f_measure,
    make_folds,
    run_experiment,
)
from .features import (
    FeatureSpace,
    WeightedMatrix,
    build_matrix,
    chi_square,
    select_top_k,
    tfidf_weight,
)
from .mapping import (
    ConceptVector,
    HybridVector,
    enrich_hyperonyms,
    map_corpus,
    map_document,
    match_phrases,
)
from .ontology import (
    Ontology,
    build_ontology,
    import_mesh_ascii,
    load_ontology,
)
from .porter import stem
from .preprocess import TermVector, load_stoplist, preprocess_corpus, tokenize

__version__ = "0.1.0"

__all__ = [
    "CategoryMetrics",
    "ConceptVector",
    "ConfigError",
    "Corpus",
    "Document",
    "EvalReport",
    "ExperimentConfig",
    "ExperimentError",
    "FeatureSpace",
    "HybridVector",
    "KnnModel",
    "OntoclassError",
    "Ontology",
    "OntologyError",
    "ParseError",
    "TermVector",
    "TreeNode",
    "WeightedMatrix",
    "assign_labels",
    "build_matrix",
    "build_ontology",
    "c45_train",
    "chi_square",
    "enrich_hyperonyms",
    "f_measure",
    "import_mesh_ascii",
    "knn_train",
    "load_config",
    "load_label_map",
    "load_ohsumed",
    "load_ontology",
    "load_stoplist",
    "make_folds",
    "map_corpus",
    "map_document",
    "match_phrases",
    "parse_ohsumed",
    "parse_textdir",
    "preprocess_corpus",
    "run_experiment",
    "select_top_k",
    "stem",
    "strip_markup",
    "tfidf_weight",
    "tokenize",
]
