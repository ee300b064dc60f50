import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ontoclass.config import (
    ExperimentConfig,
    load_config,
    resolve_path,
    validate_config,
)
from ontoclass.errors import ConfigError

FULL_INI = """\
[corpus]
path = corpus.txt
format = ohsumed
label_map = labels.tsv
categories = Heart; Lung, Chronic; Kidney
label_policy = duplicate

[preprocess]
stoplist = stop.txt

[ontology]
path = onto.tsv
format = mesh-ascii

[mapping]
representation = concepts_hyperonyms
strategy = ReplaceTerms
disambiguation = FirstConcept
hyperonym_variant = hyponyms-only
use_mesh_annotations = true

[features]
k = 42
weighting = binary

[classify]
classifier = c45
knn_k = 9
knn_similarity = euclidean
tree_min_leaf = 3
tree_max_depth = 6
tree_prune = false

[evaluate]
n_folds = 3
seed = 99

[cli]
output_dir = results
"""


def write_config(tmp_path, text, referenced=("corpus.txt", "labels.tsv",
                                             "stop.txt", "onto.tsv")):
    for name in referenced:
        (tmp_path / name).write_text("", encoding="utf-8")
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_default_values(self):
        config = ExperimentConfig()
        assert config.corpus_format == "ohsumed"
        assert config.representation == "concepts"
        assert config.strategy == "AddConcept"
        assert config.disambiguation == "AllConcepts"
        assert config.k_features == 100
        assert config.weighting == "tfidf"
        assert config.classifier == "knn"
        assert config.knn_k == 5
        assert config.n_folds == 5
        assert config.seed == 0
        assert config.tree_max_depth == 0
        assert config.output_dir == "out"


class TestLoadConfig:
    def test_full_parse(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_INI))
        assert config.corpus_path == "corpus.txt"
        assert config.label_map == "labels.tsv"
        assert config.label_policy == "duplicate"
        assert config.stoplist == "stop.txt"
        assert config.ontology_format == "mesh-ascii"
        assert config.representation == "concepts_hyperonyms"
        assert config.strategy == "ReplaceTerms"
        assert config.disambiguation == "FirstConcept"
        assert config.hyperonym_variant == "hyponyms-only"
        assert config.use_mesh_annotations is True
        assert config.k_features == 42
        assert config.weighting == "binary"
        assert config.classifier == "c45"
        assert config.knn_k == 9
        assert config.knn_similarity == "euclidean"
        assert config.tree_min_leaf == 3
        assert config.tree_max_depth == 6
        assert config.tree_prune is False
        assert config.n_folds == 3
        assert config.seed == 99
        assert config.output_dir == "results"

    def test_records_its_directory_outside_keys_and_equality(self, tmp_path):
        here = load_config(write_config(tmp_path, FULL_INI))
        (tmp_path / "sub").mkdir()
        there = load_config(write_config(tmp_path / "sub", FULL_INI))
        assert here.base_dir == tmp_path
        assert there.base_dir == tmp_path / "sub"
        assert here == there
        assert here.echo() == there.echo()
        assert "base_dir" not in repr(here)
        assert there.resolve(there.stoplist) == tmp_path / "sub" / "stop.txt"
        assert there.resolve(None) is None
        assert ExperimentConfig().base_dir == Path(".")

    def test_replace_keeps_its_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        path = write_config(tmp_path / "sub", FULL_INI)
        assert replace(load_config(path), seed=1).base_dir == tmp_path / "sub"

    def test_semicolon_separated_categories_keep_commas(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_INI))
        assert config.categories == ("Heart", "Lung, Chronic", "Kidney")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config: file not found"):
            load_config(tmp_path / "nope.ini")

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = write_config(tmp_path, FULL_INI)
        path.write_bytes(path.read_bytes() + b"# Caf\xe9\n")
        with pytest.raises(ConfigError,
                           match=r"config: .*exp\.ini: not UTF-8 \(byte 0xe9\)"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        text = FULL_INI + "\n[training]\nepochs = 5\n"
        with pytest.raises(ConfigError, match="training: unknown section"):
            load_config(write_config(tmp_path, text))

    def test_unknown_key(self, tmp_path):
        text = FULL_INI.replace("seed = 99", "seed = 99\nshuffle = yes")
        with pytest.raises(ConfigError, match="evaluate.shuffle: unknown key"):
            load_config(write_config(tmp_path, text))

    def test_bad_int(self, tmp_path):
        text = FULL_INI.replace("k = 42", "k = many")
        with pytest.raises(ConfigError, match="features.k"):
            load_config(write_config(tmp_path, text))

    def test_bad_bool(self, tmp_path):
        text = FULL_INI.replace("tree_prune = false", "tree_prune = perhaps")
        with pytest.raises(ConfigError, match="classify.tree_prune"):
            load_config(write_config(tmp_path, text))

    def test_bad_ini_syntax(self, tmp_path):
        with pytest.raises(ConfigError, match="bad INI syntax"):
            load_config(write_config(tmp_path, "no section header\n"))

    def test_bad_enum_names_field(self, tmp_path):
        text = FULL_INI.replace(
            "representation = concepts_hyperonyms", "representation = conceptz"
        )
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field == "mapping.representation"
        assert "conceptz" in str(err.value)

    def test_missing_referenced_path_names_field(self, tmp_path):
        path = write_config(tmp_path, FULL_INI)
        (tmp_path / "onto.tsv").unlink()
        with pytest.raises(ConfigError, match="ontology.path: path does not exist"):
            load_config(path)


class TestValidateConfig:
    def base(self, tmp_path, **kwargs):
        (tmp_path / "c.txt").write_text("", encoding="utf-8")
        (tmp_path / "o.tsv").write_text("", encoding="utf-8")
        defaults = dict(corpus_path="c.txt", ontology_path="o.tsv")
        defaults.update(kwargs)
        return ExperimentConfig(**defaults, base_dir=tmp_path)

    def test_accepts_valid_config(self, tmp_path):
        validate_config(self.base(tmp_path))

    def test_corpus_path_required(self, tmp_path):
        with pytest.raises(ConfigError, match="corpus.path: required"):
            validate_config(ExperimentConfig(base_dir=tmp_path))

    def test_ontology_needed_unless_stems(self, tmp_path):
        config = self.base(tmp_path, ontology_path=None)
        with pytest.raises(ConfigError, match="ontology.path: required"):
            validate_config(config)
        stems = self.base(tmp_path, ontology_path=None, representation="stems")
        validate_config(stems)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("features.k", {"k_features": 0}),
            ("classify.knn_k", {"knn_k": 0}),
            ("classify.tree_min_leaf", {"tree_min_leaf": 0}),
            ("classify.tree_max_depth", {"tree_max_depth": -1}),
            ("evaluate.n_folds", {"n_folds": 0}),
        ],
    )
    def test_numeric_bounds_name_their_field(self, tmp_path, field, kwargs):
        with pytest.raises(ConfigError) as err:
            validate_config(self.base(tmp_path, **kwargs))
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("corpus.format", {"corpus_format": "csv"}),
            ("corpus.label_policy", {"label_policy": "all"}),
            ("ontology.format", {"ontology_format": "owl"}),
            ("mapping.strategy", {"strategy": "Blend"}),
            ("mapping.disambiguation", {"disambiguation": "Vote"}),
            ("mapping.hyperonym_variant", {"hyperonym_variant": "deep"}),
            ("features.weighting", {"weighting": "idf"}),
            ("classify.classifier", {"classifier": "svm"}),
            ("classify.knn_similarity", {"knn_similarity": "dot"}),
        ],
    )
    def test_enum_errors_name_their_field(self, tmp_path, field, kwargs):
        with pytest.raises(ConfigError) as err:
            validate_config(self.base(tmp_path, **kwargs))
        assert err.value.field == field


    def test_repeated_category_names_the_field(self, tmp_path):
        with pytest.raises(ConfigError, match="'Heart' listed more than once") as err:
            self.base(tmp_path, categories=("Heart", "Lung", "Heart"))
        assert err.value.field == "corpus.categories"

    def test_repeated_category_rejected_on_load(self, tmp_path):
        text = FULL_INI.replace("categories = Heart; Lung, Chronic; Kidney",
                                "categories = Heart; Lung, Chronic; Heart")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="corpus.categories: category 'Heart'"):
            load_config(path)


class TestEveryConfigIsChecked:
    """A config built in code or made by `replace` is checked as a loaded
    one is, with the same messages."""

    def test_replace_of_a_loaded_config(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_INI))
        with pytest.raises(ConfigError) as err:
            replace(config, classifier="svm")
        assert err.value.field == "classify.classifier"
        assert str(err.value) == (
            "classify.classifier: invalid value 'svm'; expected one of knn, c45"
        )

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"classifier": "KNN"},
             "classify.classifier: invalid value 'KNN'; expected one of knn, c45"),
            ({"representation": "concept"},
             "mapping.representation: invalid value 'concept'; expected one of "
             "stems, concepts, concepts_hyperonyms"),
            ({"tree_max_depth": -1},
             "classify.tree_max_depth: must be >= 0 (0 = unlimited)"),
            ({"k_features": 0}, "features.k: must be >= 1"),
        ],
    )
    def test_built_in_code(self, kwargs, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**kwargs)
        assert str(err.value) == message
        assert err.value.field == message.split(":")[0]

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"knn_k": "5"}, "classify.knn_k: expected int, got '5'"),
            ({"knn_k": True}, "classify.knn_k: expected int, got True"),
            ({"categories": "AB"},
             "corpus.categories: expected tuple of str, got 'AB'"),
            ({"categories": ("A", 2)},
             "corpus.categories: expected tuple of str, got ('A', 2)"),
            ({"tree_prune": "no"}, "classify.tree_prune: expected bool, got 'no'"),
            ({"label_map": 3}, "corpus.label_map: expected str, got 3"),
            ({"corpus_path": None}, "corpus.path: expected str, got None"),
        ],
    )
    def test_wrong_kind_names_the_key(self, kwargs, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**kwargs)
        assert str(err.value) == message
        assert err.value.field == message.split(":")[0]

    def test_bounds_are_inclusive(self):
        config = ExperimentConfig(k_features=1, knn_k=1, tree_min_leaf=1,
                                  tree_max_depth=0, n_folds=1, seed=-3)
        assert config.seed == -3

    def test_echo_loads_back_to_an_equal_config(self, tmp_path):
        config = replace(load_config(write_config(tmp_path, FULL_INI)),
                         corpus_format="jsonl")
        default = ExperimentConfig()
        assert [f.name for f in fields(config)
                if f.compare and getattr(config, f.name) == getattr(default, f.name)
                ] == []
        sections: dict[str, list[str]] = {}
        for key, value in config.echo():
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}\n")
        text = "".join(f"[{section}]\n" + "".join(lines)
                       for section, lines in sections.items())
        (tmp_path / "again").mkdir()
        again = load_config(write_config(tmp_path / "again", text))
        assert again == config
        assert again.echo() == config.echo()


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def table(self):
        rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \| (.*?) \| (.*?) \|$",
                          README.read_text(encoding="utf-8"), re.MULTILINE)
        return {key: (default, allowed) for key, default, allowed in rows}

    def test_settings_table_matches_the_declarations(self):
        table = self.table()
        echo = dict(ExperimentConfig().echo())
        assert list(table) == list(echo)
        for setting in fields(ExperimentConfig):
            if not setting.metadata:
                continue
            key = setting.metadata["key"]
            default, allowed = table[key]
            assert default == (f"`{echo[key]}`" if echo[key] else "—"), key
            if setting.metadata["allowed"]:
                assert allowed == ", ".join(
                    f"`{value}`" for value in setting.metadata["allowed"]), key
            if setting.metadata["minimum"] is not None:
                assert allowed == (f">= {setting.metadata['minimum']}"
                                   f"{setting.metadata['note']}"), key

    def test_minimal_config_loads(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        ini = re.search(r"A minimal config:\n\n```ini\n(.*?)```", text, re.DOTALL)
        path = write_config(tmp_path, ini.group(1),
                            referenced=("corpus.txt", "labels.tsv", "mesh.txt"))
        config = load_config(path)
        assert config.representation == "concepts_hyperonyms"
        assert config.resolve(config.ontology_path) == tmp_path / "mesh.txt"


class TestEcho:
    def test_schema_order_and_rendering(self):
        config = ExperimentConfig(
            corpus_path="c.txt", categories=("A", "B"), tree_prune=False,
        )
        echo = config.echo()
        keys = [k for k, _ in echo]
        assert keys[0] == "corpus.path"
        assert keys[-1] == "cli.output_dir"
        assert len(keys) == len(set(keys))
        values = dict(echo)
        assert values["corpus.categories"] == "A;B"
        assert values["classify.tree_prune"] == "false"
        assert values["mapping.use_mesh_annotations"] == "false"
        assert values["ontology.path"] == ""

    def test_echo_is_stable(self):
        assert ExperimentConfig().echo() == ExperimentConfig().echo()


class TestResolvePath:
    def test_relative_joins_base(self, tmp_path):
        assert resolve_path("sub/x.txt", tmp_path) == tmp_path / "sub/x.txt"

    def test_absolute_passes_through(self, tmp_path):
        assert resolve_path("/etc/hosts", tmp_path) == resolve_path("/etc/hosts", "/")
