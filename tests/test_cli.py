import csv
import hashlib
import json
import logging

import pytest

from ontoclass import cli
from ontoclass.cli import CONFIG_ENV, main

INI = """\
[corpus]
path = corpus.txt
format = ohsumed
label_map = labels.tsv

[ontology]
path = onto.tsv
format = tsv

[mapping]
representation = concepts

[features]
k = 10

[classify]
classifier = knn
knn_k = 1

[evaluate]
n_folds = 2
seed = 0

[cli]
output_dir = out
"""

#: the stems run, which names no thesaurus
STEMS_INI = INI.replace("[ontology]\npath = onto.tsv\nformat = tsv\n\n", "").replace(
    "representation = concepts", "representation = stems"
)

ONTO_TSV = """\
D100\tDiseases\tC01\t
D200\tKardol Syndrome\tC01.100\tkardol
D300\tMoxart Failure\tC01.100.500\tmoxart
"""

DOCS = [
    ("h1", "kardol onset", "patient kardol gilbo", "Heart Disease"),
    ("h2", "kardol relapse", "patient kardol vunta", "Heart Disease"),
    ("h3", "kardol note", "patient kardol pemdo", "Heart Disease"),
    ("h4", "kardol update", "patient kardol rizov", "Heart Disease"),
    ("r1", "moxart onset", "patient moxart talku", "Renal Disease"),
    ("r2", "moxart relapse", "patient moxart wunib", "Renal Disease"),
    ("r3", "moxart note", "patient moxart sodge", "Renal Disease"),
    ("r4", "moxart update", "patient moxart larfi", "Renal Disease"),
]


def ohsumed_text(docs):
    parts = []
    for i, (doc_id, title, abstract, _) in enumerate(docs, start=1):
        parts.append(f".I {i}\n.U\n{doc_id}\n.T\n{title}\n.W\n{abstract}\n")
    return "".join(parts)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "corpus.txt").write_text(ohsumed_text(DOCS), encoding="utf-8")
    (tmp_path / "labels.tsv").write_text(
        "".join(f"{d}\t{cat}\n" for d, _, _, cat in DOCS), encoding="utf-8"
    )
    (tmp_path / "onto.tsv").write_text(ONTO_TSV, encoding="utf-8")
    (tmp_path / "exp.ini").write_text(INI, encoding="utf-8")
    return tmp_path


def run(workspace, *argv, config="exp.ini"):
    return main([argv[0], "--config", str(workspace / config), *argv[1:]])


def multilabel_jsonl(tmp_path, policy):
    """60 self-labeled jsonl documents, labeled [A], [B] or, every third,
    [A, C], with a stems config under `policy` and no corpus.categories."""
    words = {"A": "kardol", "B": "moxart", "C": "fenwip"}
    records = [{"_meta": {"categories": ["A", "B", "C"], "dropped": []}}]
    for i in range(60):
        labels = (["A"], ["B"], ["A", "C"])[i % 3]
        text = " ".join(words[lab] for lab in labels)
        records.append({"doc_id": f"d{i}", "title": text,
                        "abstract": f"patient {text} case{i}", "labels": labels})
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (tmp_path / "exp.ini").write_text(
        "[corpus]\npath = corpus.jsonl\nformat = jsonl\n"
        f"label_policy = {policy}\n"
        "[mapping]\nrepresentation = stems\n"
        "[classify]\nknn_k = 1\n"
        "[evaluate]\nn_folds = 3\n"
        "[cli]\noutput_dir = out\n",
        encoding="utf-8",
    )


def self_labeled_corpus(root, fmt, unlabeled=True, two_labels=False):
    """Four documents in each of A and B under `root`, with a stems config
    and no label map: a `textdir` tree, or a `jsonl` corpus with a
    `_meta` category list. `unlabeled` adds a document with no label, a
    file at the textdir root or a `"labels": []` record. `two_labels`
    gives one jsonl record the labels A and B; a textdir file has one
    label, so there it lists `categories = A;B` instead."""
    root.mkdir()
    docs = [(f"{cat}/{i}", f"{marker} note", f"patient {marker} case{i}", [cat])
            for cat, marker in (("A", "kardol"), ("B", "moxart"))
            for i in range(4)]
    if unlabeled:
        docs.append(("root", "kardol", "", []))
    ini = ("[corpus]\npath = docs\nformat = textdir\n"
           "[mapping]\nrepresentation = stems\n"
           "[classify]\nknn_k = 1\n"
           "[evaluate]\nn_folds = 2\n"
           "[cli]\noutput_dir = out\n")
    if fmt == "textdir":
        for doc_id, title, abstract, _ in docs:
            path = root / "docs" / f"{doc_id}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"{title}\n{abstract}\n", encoding="utf-8")
        if two_labels:
            ini = ini.replace("format = textdir\n",
                              "format = textdir\ncategories = A;B\n")
    else:
        if two_labels:
            docs[0][3].append("B")
        records = [{"_meta": {"categories": ["A", "B"], "dropped": []}}]
        records += [{"doc_id": d, "title": t, "abstract": a, "labels": labels}
                    for d, t, a, labels in docs]
        (root / "docs.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        ini = ini.replace("path = docs\nformat = textdir",
                          "path = docs.jsonl\nformat = jsonl")
    (root / "exp.ini").write_text(ini, encoding="utf-8")


def report_rows(root):
    return [line for line in (root / "out" / "report.csv")
            .read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


class TestSubcommands:
    def test_ingest(self, workspace, capsys):
        assert run(workspace, "ingest") == 0
        out = capsys.readouterr().out
        assert "8 documents, 2 categories, 0 dropped ->" in out
        assert (workspace / "out" / "corpus.jsonl").exists()

    def test_ontology_check(self, workspace, capsys):
        assert run(workspace, "ontology-check") == 0
        assert capsys.readouterr().out.strip() == "3 concepts, 1 root, depth 3"

    def test_map_writes_sparse_matrix(self, workspace, capsys):
        assert run(workspace, "map") == 0
        out = capsys.readouterr().out
        assert "8 documents x " in out
        mtx = workspace / "out" / "vectors.mtx"
        rows, cols, _ = mtx.read_text().splitlines()[0].split()
        assert rows == "8"
        for suffix, count in ((".rows", rows), (".cols", cols), (".labels", rows)):
            sidecar = mtx.parent / (mtx.name + suffix)
            assert len(sidecar.read_text().splitlines()) == int(count)

    def test_select_writes_scored_descriptors(self, workspace, capsys):
        assert run(workspace, "select") == 0
        path = workspace / "out" / "features.tsv"
        lines = path.read_text().splitlines()
        assert lines[0] == "# k = 10"
        cats = set()
        for line in lines[1:]:
            cat, desc, score = line.split("\t")
            cats.add(cat)
            assert desc.startswith(("t:", "c:"))
            assert float(score) > 0
        assert cats == {"Heart Disease", "Renal Disease"}

    def test_map_and_select_bytes_pinned(self, workspace, capsys):
        """Digests taken when `map` built its own matrix and `select`
        walked the vectors on its own."""
        assert run(workspace, "map") == 0
        assert run(workspace, "select") == 0
        digests = {
            "vectors.mtx":
                "78d9c189118a96d22a23d1ae1ed6fcc26de939144cfe0710477a710ca37c9ac6",
            "vectors.mtx.rows":
                "ec9632e5679aa196e626267ee806fe1ff1a871131bcaca973d9e6f76bd1c6c48",
            "vectors.mtx.cols":
                "c7d485f393c3789acc0aaa008bf48e093118ea9e28ff2dfe4f09fafa08e0bc7a",
            "vectors.mtx.labels":
                "8df71c1ba209bf2d073821e208893df0c40a585834e309d23906b1696b11787e",
            "features.tsv":
                "1dff13e9bf10f91094113d1699a729b95ecce7522ec96e3db73f5178093b079d",
        }
        for name, digest in digests.items():
            data = (workspace / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_evaluate_writes_report(self, workspace, capsys):
        assert run(workspace, "evaluate") == 0
        out = capsys.readouterr().out
        assert "AvG" in out
        assert "1.000" in out
        assert "report ->" in out
        assert (workspace / "out" / "report.csv").read_text().startswith(
            "# corpus.path"
        )
        assert (workspace / "out" / "report.txt").exists()

    def test_evaluate_reruns_are_byte_identical(self, workspace, capsys):
        assert run(workspace, "evaluate") == 0
        first = (workspace / "out" / "report.csv").read_bytes()
        assert run(workspace, "evaluate") == 0
        assert (workspace / "out" / "report.csv").read_bytes() == first
        assert run(workspace, "evaluate", "--threads", "3") == 0
        assert (workspace / "out" / "report.csv").read_bytes() == first

    def test_report_renders_cached_csv(self, workspace, capsys):
        assert run(workspace, "evaluate") == 0
        capsys.readouterr()
        assert run(workspace, "report") == 0
        out = capsys.readouterr().out
        assert out.startswith("category")
        assert "AvG" in out

    def test_report_prints_exactly_the_evaluated_table(self, workspace, capsys):
        # the CSV round trip loses no digit that the table shows
        assert run(workspace, "evaluate") == 0
        capsys.readouterr()
        assert run(workspace, "report") == 0
        out = capsys.readouterr().out
        assert out == (workspace / "out" / "report.txt").read_text(encoding="utf-8")

    def test_report_without_cache_fails(self, workspace, capsys):
        assert run(workspace, "report") == 1
        err = capsys.readouterr().err
        assert err.startswith("error [report]")
        assert "run evaluate first" in err
        assert not (workspace / "out").exists()

    def test_multilabel_jsonl_duplicates_under_duplicate_policy(self, tmp_path):
        # every [A, C] document also runs as a C clone, so C is tested
        multilabel_jsonl(tmp_path, "duplicate")
        assert run(tmp_path, "evaluate") == 0
        with open(tmp_path / "out" / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        pooled = {r["category"]: r for r in rows if r["fold"] == "pooled"}
        assert [int(pooled[c]["tp"]) + int(pooled[c]["fn"])
                for c in "ABC"] == [40, 20, 20]
        cache = tmp_path / "cache.jsonl"
        assert run(tmp_path, "ingest", "--out", str(cache)) == 0
        cached = cache.read_text(encoding="utf-8")
        assert cached.count('::2"') == 20

    def test_category_subset_applies_to_textdir_and_its_cache(self, tmp_path):
        for cat, marker in (("A", "kardol"), ("B", "moxart"), ("C", "fenwip")):
            (tmp_path / "docs" / cat).mkdir(parents=True)
            for i in range(4):
                (tmp_path / "docs" / cat / f"{i}.txt").write_text(
                    f"{marker} note\npatient {marker} case{i}\n", encoding="utf-8")
        textdir_ini = ("[corpus]\npath = docs\nformat = textdir\n"
                       "[mapping]\nrepresentation = stems\n"
                       "[classify]\nknn_k = 1\n"
                       "[evaluate]\nn_folds = 2\n"
                       "[cli]\noutput_dir = out\n")
        (tmp_path / "full.ini").write_text(textdir_ini, encoding="utf-8")
        assert run(tmp_path, "ingest", config="full.ini") == 0
        assert '"categories": ["A", "B", "C"]' in (
            tmp_path / "out" / "corpus.jsonl").read_text(encoding="utf-8")

        subset = textdir_ini.replace("format = textdir\n",
                                     "format = textdir\ncategories = A;B\n")
        cached = subset.replace("path = docs\nformat = textdir",
                                "path = out/corpus.jsonl\nformat = jsonl")
        rows = {}
        for name, ini in (("textdir", subset), ("jsonl", cached)):
            (tmp_path / f"{name}.ini").write_text(ini, encoding="utf-8")
            assert run(tmp_path, "evaluate", config=f"{name}.ini") == 0
            rows[name] = [line for line in (tmp_path / "out" / "report.csv")
                          .read_text(encoding="utf-8").splitlines()
                          if not line.startswith("#")]
        assert {line.split(",")[1] for line in rows["jsonl"][1:]} == {
            "A", "B", "AvG"}
        assert rows["jsonl"] == rows["textdir"]


    def test_unlabeled_document_is_dropped_in_every_format(
        self, tmp_path, caplog, capsys
    ):
        # the rule once depended on the other documents: a jsonl record
        # with no label ended the run, unless another carried two labels
        self_labeled_corpus(tmp_path / "plain", "jsonl", unlabeled=False)
        assert run(tmp_path / "plain", "evaluate") == 0
        want = report_rows(tmp_path / "plain")
        labeled = [f"{cat}/{i}" for cat in "AB" for i in range(4)]
        for fmt in ("textdir", "jsonl"):
            for two_labels in (False, True):
                root = tmp_path / f"{fmt}-{two_labels}"
                self_labeled_corpus(root, fmt, two_labels=two_labels)
                for command in ("ingest", "map", "evaluate"):
                    caplog.clear()
                    with caplog.at_level(logging.WARNING):
                        assert run(root, command) == 0, (fmt, two_labels, command)
                    assert [r.getMessage() for r in caplog.records] == [
                        "dropped 1 document(s) with no label in the category subset"]
                assert "8 documents, 2 categories, 1 dropped" in capsys.readouterr().out
                cache = (root / "out" / "corpus.jsonl").read_text(encoding="utf-8")
                assert '"dropped": ["root"]' in cache
                assert (root / "out" / "vectors.mtx.rows").read_text(
                    encoding="utf-8").split() == labeled
                assert report_rows(root) == want, (fmt, two_labels)


class TestConfigPaths:
    def test_relative_stoplist_resolves_against_config_dir(
        self, workspace, monkeypatch, capsys
    ):
        cfg = workspace / "cfg"
        cfg.mkdir()
        for name in ("corpus.txt", "labels.tsv", "onto.tsv"):
            (cfg / name).write_bytes((workspace / name).read_bytes())
        (cfg / "stop.txt").write_text("patient\n", encoding="utf-8")
        (cfg / "exp.ini").write_text(
            INI.replace("[ontology]", "[preprocess]\nstoplist = stop.txt\n\n"
                                      "[ontology]"),
            encoding="utf-8",
        )
        report = cfg / "out" / "report.csv"
        monkeypatch.chdir(cfg)
        assert main(["evaluate", "--config", "exp.ini"]) == 0
        want = report.read_bytes()

        # from the parent directory, with no stop.txt there ...
        monkeypatch.chdir(workspace)
        report.unlink()
        assert main(["evaluate", "--config", "cfg/exp.ini"]) == 0
        assert report.read_bytes() == want
        # ... and with a different one there, which must not be read
        (workspace / "stop.txt").write_text("kardol\nmoxart\n",
                                            encoding="utf-8")
        report.unlink()
        assert main(["evaluate", "--config", "cfg/exp.ini"]) == 0
        assert report.read_bytes() == want


class TestExitCodes:
    def test_bad_enum_exits_2_naming_field(self, workspace, capsys):
        bad = INI.replace("representation = concepts",
                          "representation = conceptz")
        (workspace / "bad.ini").write_text(bad, encoding="utf-8")
        assert run(workspace, "evaluate", config="bad.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: mapping.representation")

    def test_repeated_category_exits_2_naming_field(self, workspace, capsys):
        ini = INI.replace("label_map = labels.tsv\n",
                          "label_map = labels.tsv\ncategories = Heart Disease; "
                          "Heart Disease; Renal Disease\n")
        (workspace / "twice.ini").write_text(ini, encoding="utf-8")
        assert run(workspace, "evaluate", config="twice.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: corpus.categories")
        assert "'Heart Disease' listed more than once" in err
        assert not (workspace / "out" / "report.csv").exists()

    def test_ontology_check_without_thesaurus_exits_2(self, workspace, capsys):
        (workspace / "stems.ini").write_text(STEMS_INI, encoding="utf-8")
        assert run(workspace, "ontology-check", config="stems.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ontology.path: required")

    def test_select_on_unlabeled_corpus_exits_2_before_mapping(
        self, workspace, capsys, monkeypatch
    ):
        def mapping_work(*args):
            raise AssertionError("mapped before the label check")

        monkeypatch.setattr(cli, "representation_vectors", mapping_work)
        ini = STEMS_INI.replace("label_map = labels.tsv\n", "")
        (workspace / "unlabeled.ini").write_text(ini, encoding="utf-8")
        assert run(workspace, "select", config="unlabeled.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: corpus.label_map: labeled corpus")
        assert not (workspace / "out" / "features.tsv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_threads_below_one_is_usage_error(self, workspace, capsys, threads):
        with pytest.raises(SystemExit) as err:
            run(workspace, "evaluate", "--threads", threads)
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (workspace / "out" / "report.csv").exists()

    def test_missing_config_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        assert main(["ingest"]) == 2
        assert "config error: config" in capsys.readouterr().err

    def test_nonexistent_config_exits_2(self, workspace, capsys):
        assert run(workspace, "ingest", config="ghost.ini") == 2
        assert "file not found" in capsys.readouterr().err

    def test_runtime_parse_failure_exits_1(self, workspace, capsys):
        text = ohsumed_text(DOCS) + ".I 9\n.U\nh1\n.T\nduplicate id\n"
        (workspace / "corpus.txt").write_text(text, encoding="utf-8")
        assert run(workspace, "ingest") == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ingest] ParseError:")

    def test_non_utf8_corpus_exits_1_naming_file(self, workspace, capsys):
        text = ohsumed_text(DOCS).replace("kardol onset", "Caf\xe9 onset")
        (workspace / "corpus.txt").write_bytes(text.encode("latin-1"))
        assert run(workspace, "ingest") == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ingest] ParseError:")
        assert "corpus.txt: not UTF-8 (byte 0xe9)" in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_ontology_exits_1_without_traceback(self, workspace, capsys):
        latin1 = ONTO_TSV.encode("utf-8") + b"D400\tCaf\xe9\tC02\t\n"
        (workspace / "onto.tsv").write_bytes(latin1)
        assert run(workspace, "ontology-check") == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ontology-check] ParseError:")
        assert "onto.tsv: not UTF-8 (byte 0xe9)" in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_report_exits_1_naming_file(self, workspace, capsys):
        assert run(workspace, "evaluate") == 0
        path = workspace / "out" / "report.txt"
        path.write_bytes(path.read_bytes() + "Caf\xe9\n".encode("latin-1"))
        capsys.readouterr()
        assert run(workspace, "report") == 1
        err = capsys.readouterr().err
        assert err.startswith("error [report] ParseError:")
        assert "report.txt: not UTF-8 (byte 0xe9)" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_unlabeled_corpus_exits_2_before_the_thesaurus(
        self, workspace, capsys, command
    ):
        # a thesaurus that does not parse: loading it would exit 1
        (workspace / "onto.tsv").write_text("D100\n", encoding="utf-8")
        ini = INI.replace("label_map = labels.tsv\n", "")
        (workspace / "unlabeled.ini").write_text(ini, encoding="utf-8")
        assert run(workspace, command, config="unlabeled.ini") == 2
        err = capsys.readouterr().err
        assert err == ("config error: corpus.label_map: "
                       "labeled corpus required\n")

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_category_with_no_document_exits_2_naming_it(
        self, workspace, capsys, command
    ):
        ini = INI.replace("label_map = labels.tsv\n",
                          "label_map = labels.tsv\ncategories = Heart Disease; "
                          "Renal Disease; Lung Disease\n")
        (workspace / "unseen.ini").write_text(ini, encoding="utf-8")
        assert run(workspace, command, config="unseen.ini") == 2
        err = capsys.readouterr().err
        assert err == ("config error: corpus.categories: "
                       "no document labeled 'Lung Disease'\n")
        assert not (workspace / "out").exists()

    def test_cached_category_with_no_document_exits_2_naming_it(
        self, workspace, capsys
    ):
        assert run(workspace, "ingest") == 0
        cache = workspace / "out" / "corpus.jsonl"
        cache.write_text(cache.read_text(encoding="utf-8").replace(
            '"Renal Disease"]', '"Renal Disease", "Lung Disease"]', 1),
            encoding="utf-8")
        ini = INI.replace("path = corpus.txt\nformat = ohsumed\n"
                          "label_map = labels.tsv\n",
                          "path = out/corpus.jsonl\nformat = jsonl\n")
        (workspace / "cached.ini").write_text(ini, encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, "evaluate", config="cached.ini") == 2
        err = capsys.readouterr().err
        assert err == ("config error: corpus.categories: "
                       "no document labeled 'Lung Disease'\n")
        assert not (workspace / "out" / "report.csv").exists()

    def test_multilabel_jsonl_under_first_label_exits_2_naming_category(
        self, tmp_path, capsys
    ):
        # C is only ever a second label, so first-label leaves it empty
        multilabel_jsonl(tmp_path, "first-label")
        assert run(tmp_path, "evaluate") == 2
        err = capsys.readouterr().err
        assert err == ("config error: corpus.categories: "
                       "no document labeled 'C'\n")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_env_var_supplies_config(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv(CONFIG_ENV, str(workspace / "exp.ini"))
        assert main(["ontology-check"]) == 0
        assert "3 concepts" in capsys.readouterr().out


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "ingest" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for cmd in ("ingest", "ontology-check", "map", "select",
                    "evaluate", "report"):
            with pytest.raises(SystemExit) as err:
                main([cmd, "--help"])
            assert err.value.code == 0
            capsys.readouterr()

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train"])
        assert err.value.code == 2
