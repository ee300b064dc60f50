"""Experiment configuration: a flat INI file with sections mirroring the
pipeline modules, validated into one immutable dataclass.

List values (the category subset) are semicolon-separated because real
category names contain commas. Relative paths resolve against the config
file's directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .classify import SIMILARITIES
from .corpus import LABEL_POLICIES
from .errors import ConfigError, open_utf8
from .features import WEIGHTINGS
from .mapping import DISAMBIGUATIONS, HYPERONYM_VARIANTS, STRATEGIES

CORPUS_FORMATS = ("ohsumed", "textdir", "jsonl")
ONTOLOGY_FORMATS = ("tsv", "mesh-ascii")
REPRESENTATIONS = ("stems", "concepts", "concepts_hyperonyms")
CLASSIFIERS = ("knn", "c45")

#: (section, key) -> (ExperimentConfig field, type tag), in report order
_SCHEMA = {
    ("corpus", "path"): ("corpus_path", "path"),
    ("corpus", "format"): ("corpus_format", "str"),
    ("corpus", "label_map"): ("label_map", "path"),
    ("corpus", "categories"): ("categories", "list"),
    ("corpus", "label_policy"): ("label_policy", "str"),
    ("preprocess", "stoplist"): ("stoplist", "path"),
    ("ontology", "path"): ("ontology_path", "path"),
    ("ontology", "format"): ("ontology_format", "str"),
    ("mapping", "representation"): ("representation", "str"),
    ("mapping", "strategy"): ("strategy", "str"),
    ("mapping", "disambiguation"): ("disambiguation", "str"),
    ("mapping", "hyperonym_variant"): ("hyperonym_variant", "str"),
    ("mapping", "use_mesh_annotations"): ("use_mesh_annotations", "bool"),
    ("features", "k"): ("k_features", "int"),
    ("features", "weighting"): ("weighting", "str"),
    ("classify", "classifier"): ("classifier", "str"),
    ("classify", "knn_k"): ("knn_k", "int"),
    ("classify", "knn_similarity"): ("knn_similarity", "str"),
    ("classify", "tree_min_leaf"): ("tree_min_leaf", "int"),
    ("classify", "tree_max_depth"): ("tree_max_depth", "int"),
    ("classify", "tree_prune"): ("tree_prune", "bool"),
    ("evaluate", "n_folds"): ("n_folds", "int"),
    ("evaluate", "seed"): ("seed", "int"),
    ("cli", "output_dir"): ("output_dir", "path"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one evaluation run needs, with validated enums."""

    corpus_path: str = ""
    corpus_format: str = "ohsumed"
    label_map: str | None = None
    categories: tuple[str, ...] = ()
    label_policy: str = "first-label"
    stoplist: str | None = None
    ontology_path: str | None = None
    ontology_format: str = "tsv"
    representation: str = "concepts"
    strategy: str = "AddConcept"
    disambiguation: str = "AllConcepts"
    hyperonym_variant: str = "additive"
    use_mesh_annotations: bool = False
    k_features: int = 100
    weighting: str = "tfidf"
    classifier: str = "knn"
    knn_k: int = 5
    knn_similarity: str = "cosine"
    tree_min_leaf: int = 2
    tree_max_depth: int = 0
    tree_prune: bool = True
    n_folds: int = 5
    seed: int = 0
    output_dir: str = "out"
    #: the directory relative paths resolve against: the config file's,
    #: once `load_config` has read it
    base_dir: Path = field(default=Path("."), repr=False, compare=False)

    def resolve(self, value: str | None) -> Path | None:
        """A path value of this config, resolved against `base_dir`; None
        when the value is unset."""
        return resolve_path(value, self.base_dir) if value else None

    def echo(self) -> tuple[tuple[str, str], ...]:
        """Flat (section.key, value) pairs in schema order, for reports."""
        out = []
        for (section, key), (field, kind) in _SCHEMA.items():
            value = getattr(self, field)
            if value is None:
                rendered = ""
            elif kind == "list":
                rendered = ";".join(value)
            elif kind == "bool":
                rendered = "true" if value else "false"
            else:
                rendered = str(value)
            out.append((f"{section}.{key}", rendered))
        return tuple(out)


def _check_enum(value: str, allowed: tuple[str, ...], field: str) -> None:
    if value not in allowed:
        raise ConfigError(
            field, f"invalid value {value!r}; expected one of {', '.join(allowed)}"
        )


def validate_config(config: ExperimentConfig) -> None:
    """Check enums, numeric ranges and path existence; raises ConfigError."""
    _check_enum(config.corpus_format, CORPUS_FORMATS, "corpus.format")
    _check_enum(config.label_policy, LABEL_POLICIES, "corpus.label_policy")
    _check_enum(config.ontology_format, ONTOLOGY_FORMATS, "ontology.format")
    _check_enum(config.representation, REPRESENTATIONS, "mapping.representation")
    _check_enum(config.strategy, STRATEGIES, "mapping.strategy")
    _check_enum(config.disambiguation, DISAMBIGUATIONS, "mapping.disambiguation")
    _check_enum(config.hyperonym_variant, HYPERONYM_VARIANTS,
                "mapping.hyperonym_variant")
    _check_enum(config.weighting, WEIGHTINGS, "features.weighting")
    _check_enum(config.classifier, CLASSIFIERS, "classify.classifier")
    _check_enum(config.knn_similarity, SIMILARITIES, "classify.knn_similarity")

    if not config.corpus_path:
        raise ConfigError("corpus.path", "required")
    for i, cat in enumerate(config.categories):
        if cat in config.categories[:i]:
            raise ConfigError("corpus.categories",
                              f"category {cat!r} listed more than once")
    if config.k_features < 1:
        raise ConfigError("features.k", "must be >= 1")
    if config.knn_k < 1:
        raise ConfigError("classify.knn_k", "must be >= 1")
    if config.tree_min_leaf < 1:
        raise ConfigError("classify.tree_min_leaf", "must be >= 1")
    if config.tree_max_depth < 0:
        raise ConfigError("classify.tree_max_depth", "must be >= 0 (0 = unlimited)")
    if config.n_folds < 1:
        raise ConfigError("evaluate.n_folds", "must be >= 1")
    if config.representation != "stems" and not config.ontology_path:
        raise ConfigError(
            "ontology.path",
            f"required for representation {config.representation!r}",
        )

    for field_name, value in (
        ("corpus.path", config.corpus_path),
        ("corpus.label_map", config.label_map),
        ("ontology.path", config.ontology_path),
        ("preprocess.stoplist", config.stoplist),
    ):
        path = config.resolve(value)
        if path is not None and not path.exists():
            raise ConfigError(field_name, f"path does not exist: {path}")


def resolve_path(config_value: str, base_dir: str | Path) -> Path:
    path = Path(config_value)
    return path if path.is_absolute() else Path(base_dir) / path


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an INI config; unknown sections or keys fail."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open_utf8(path, lambda msg: ConfigError("config", msg)) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError("config", f"bad INI syntax: {exc}") from None

    known_sections = {section for section, _ in _SCHEMA}
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(section, "unknown section")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"{section}.{key}", "unknown key")
            field, kind = _SCHEMA[section, key]
            try:
                if kind == "int":
                    values[field] = int(raw)
                elif kind == "bool":
                    values[field] = parser.getboolean(section, key)
                elif kind == "list":
                    values[field] = tuple(
                        part.strip() for part in raw.split(";") if part.strip()
                    )
                else:
                    values[field] = raw.strip()
            except ValueError:
                raise ConfigError(
                    f"{section}.{key}", f"cannot parse {raw!r} as {kind}"
                ) from None

    config = ExperimentConfig(**values, base_dir=path.parent)
    validate_config(config)
    return config

