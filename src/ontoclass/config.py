"""Experiment configuration: a flat INI file with sections mirroring the
pipeline modules, validated into one immutable dataclass.

List values (the category subset) are semicolon-separated because real
category names contain commas. Relative paths resolve against the config
file's directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, open_utf8

# The allowed values of every enumerated setting. The stage modules that
# also take these as plain arguments import them from here.
CORPUS_FORMATS = ("ohsumed", "textdir", "jsonl")
LABEL_POLICIES = ("first-label", "duplicate")
ONTOLOGY_FORMATS = ("tsv", "mesh-ascii")
REPRESENTATIONS = ("stems", "concepts", "concepts_hyperonyms")
STRATEGIES = ("AddConcept", "ReplaceTerms", "ConceptOnly")
DISAMBIGUATIONS = ("AllConcepts", "FirstConcept")
HYPERONYM_VARIANTS = ("additive", "hyponyms-only")
WEIGHTINGS = ("tfidf", "tf", "binary")
CLASSIFIERS = ("knn", "c45")
SIMILARITIES = ("cosine", "euclidean")


def _setting(key: str, default, allowed: tuple[str, ...] = (),
             minimum: int | None = None, note: str = ""):
    """A field read from INI `section.key`, with its allowed values or its
    minimum. Its kind (bool, int, tuple or str) is its default's."""
    return field(default=default, metadata={
        "key": key, "allowed": allowed, "minimum": minimum, "note": note})


def _kind(setting) -> type:
    """A setting's kind: its default's type, or str for a None default."""
    return str if setting.default is None else type(setting.default)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one evaluation run needs; every instance is checked when
    it is made, however it is made. Field order is report order."""

    corpus_path: str = _setting("corpus.path", "")
    corpus_format: str = _setting("corpus.format", "ohsumed", CORPUS_FORMATS)
    label_map: str | None = _setting("corpus.label_map", None)
    categories: tuple[str, ...] = _setting("corpus.categories", ())
    label_policy: str = _setting("corpus.label_policy", "first-label",
                                 LABEL_POLICIES)
    stoplist: str | None = _setting("preprocess.stoplist", None)
    ontology_path: str | None = _setting("ontology.path", None)
    ontology_format: str = _setting("ontology.format", "tsv", ONTOLOGY_FORMATS)
    representation: str = _setting("mapping.representation", "concepts",
                                   REPRESENTATIONS)
    strategy: str = _setting("mapping.strategy", "AddConcept", STRATEGIES)
    disambiguation: str = _setting("mapping.disambiguation", "AllConcepts",
                                   DISAMBIGUATIONS)
    hyperonym_variant: str = _setting("mapping.hyperonym_variant", "additive",
                                      HYPERONYM_VARIANTS)
    use_mesh_annotations: bool = _setting("mapping.use_mesh_annotations", False)
    k_features: int = _setting("features.k", 100, minimum=1)
    weighting: str = _setting("features.weighting", "tfidf", WEIGHTINGS)
    classifier: str = _setting("classify.classifier", "knn", CLASSIFIERS)
    knn_k: int = _setting("classify.knn_k", 5, minimum=1)
    knn_similarity: str = _setting("classify.knn_similarity", "cosine",
                                   SIMILARITIES)
    tree_min_leaf: int = _setting("classify.tree_min_leaf", 2, minimum=1)
    tree_max_depth: int = _setting("classify.tree_max_depth", 0, minimum=0,
                                   note=" (0 = unlimited)")
    tree_prune: bool = _setting("classify.tree_prune", True)
    n_folds: int = _setting("evaluate.n_folds", 5, minimum=1)
    seed: int = _setting("evaluate.seed", 0)
    output_dir: str = _setting("cli.output_dir", "out")
    #: the directory relative paths resolve against: the config file's,
    #: once `load_config` has read it
    base_dir: Path = field(default=Path("."), repr=False, compare=False)

    def __post_init__(self):
        for key, setting in _SETTINGS.items():
            value, meta = getattr(self, setting.name), setting.metadata
            if value is None and setting.default is None:
                continue
            kind = _kind(setting)
            if type(value) is not kind or (
                    kind is tuple and any(type(v) is not str for v in value)):
                name = "tuple of str" if kind is tuple else kind.__name__
                raise ConfigError(key, f"expected {name}, got {value!r}")
            if meta["allowed"] and value not in meta["allowed"]:
                raise ConfigError(key, f"invalid value {value!r}; expected one "
                                       f"of {', '.join(meta['allowed'])}")
            if meta["minimum"] is not None and value < meta["minimum"]:
                raise ConfigError(key, f"must be >= {meta['minimum']}{meta['note']}")
        for i, cat in enumerate(self.categories):
            if cat in self.categories[:i]:
                raise ConfigError("corpus.categories",
                                  f"category {cat!r} listed more than once")

    def resolve(self, value: str | None) -> Path | None:
        """A path value of this config, resolved against `base_dir`; None
        when the value is unset."""
        return resolve_path(value, self.base_dir) if value else None

    def echo(self) -> tuple[tuple[str, str], ...]:
        """Flat (section.key, value) pairs in field order, for reports."""
        out = []
        for key, setting in _SETTINGS.items():
            value, kind = getattr(self, setting.name), _kind(setting)
            if value is None:
                rendered = ""
            elif kind is tuple:
                rendered = ";".join(value)
            elif kind is bool:
                rendered = "true" if value else "false"
            else:
                rendered = str(value)
            out.append((key, rendered))
        return tuple(out)


#: INI `section.key` -> the ExperimentConfig field it sets, in report order
_SETTINGS = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def validate_config(config: ExperimentConfig) -> None:
    """Check what a config read from a file needs beyond its own checks:
    the corpus path, a thesaurus unless stems, and that referenced paths
    exist; raises ConfigError."""
    if not config.corpus_path:
        raise ConfigError("corpus.path", "required")
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

    known_sections = {key.split(".")[0] for key in _SETTINGS}
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(section, "unknown section")
        for key, raw in parser.items(section):
            name = f"{section}.{key}"
            setting = _SETTINGS.get(name)
            if setting is None:
                raise ConfigError(name, "unknown key")
            kind = _kind(setting)
            try:
                if kind is int:
                    values[setting.name] = int(raw)
                elif kind is bool:
                    values[setting.name] = parser.getboolean(section, key)
                elif kind is tuple:
                    values[setting.name] = tuple(
                        part.strip() for part in raw.split(";") if part.strip()
                    )
                else:
                    values[setting.name] = raw.strip()
            except ValueError:
                raise ConfigError(
                    name, f"cannot parse {raw!r} as {kind.__name__}"
                ) from None

    config = ExperimentConfig(**values, base_dir=path.parent)
    validate_config(config)
    return config

