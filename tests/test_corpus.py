import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontoclass.corpus import (
    Corpus,
    Document,
    assign_labels,
    load_corpus_jsonl,
    load_label_map,
    load_ohsumed,
    parse_ohsumed,
    parse_textdir,
    save_corpus_jsonl,
    strip_markup,
)
from ontoclass.errors import OntoclassError, ParseError

SAMPLE = """\
.I 1
.U
87001
.T
Septic shock management
.W
Early recognition of septic shock improves
outcomes in intensive care.
.M
Shock, Septic; Critical Care.
.A
Smith J.
.I 2
.U
87002
.T
Hepatitis B serology
.W
Markers of hepatitis B infection were reviewed.
"""


class TestStripMarkup:
    def test_removes_tags(self):
        assert strip_markup("a <b>bold</b> claim") == "a bold claim"

    def test_decodes_basic_entities(self):
        assert strip_markup("x &amp; y") == "x & y"
        assert strip_markup("a &quot;b&quot; &apos;c&apos;") == "a \"b\" 'c'"

    def test_decoded_angle_pair_is_stripped_as_markup(self):
        # once &lt;...&gt; decodes to a bracket pair, the next cleaning pass
        # treats it as a tag span; this keeps the output free of < and >
        assert strip_markup("n &lt; 30 &amp; p &gt; 0.05") == "n 0.05"
        assert strip_markup("score &gt; 7") == "score 7"

    def test_unknown_entity_becomes_space(self):
        assert strip_markup("alpha&beta;gamma") == "alpha gamma"

    def test_unclosed_tag_drops_to_end(self):
        assert strip_markup("before <table oops") == "before"

    def test_stray_bracket_removed(self):
        assert strip_markup("5 > 3") == "5 3"

    def test_collapses_whitespace(self):
        assert strip_markup("  a \n\t b  ") == "a b"

    def test_no_angle_brackets_survive(self):
        out = strip_markup("&lt;script&gt;alert()&lt;/script&gt;")
        assert "<" not in out and ">" not in out

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = strip_markup(text)
        assert strip_markup(once) == once
        assert "<" not in once and ">" not in once


class TestParseOhsumed:
    def test_fields(self):
        corpus = parse_ohsumed(io.StringIO(SAMPLE))
        assert len(corpus) == 2
        doc = corpus.documents[0]
        assert doc.doc_id == "87001"
        assert doc.title == "Septic shock management"
        assert "intensive care" in doc.abstract
        assert doc.mesh_annotations == ("Shock, Septic", "Critical Care.")
        assert corpus.documents[1].doc_id == "87002"

    def test_continuation_lines_joined(self):
        corpus = parse_ohsumed(io.StringIO(SAMPLE))
        assert corpus.documents[0].abstract == (
            "Early recognition of septic shock improves "
            "outcomes in intensive care."
        )

    def test_doc_id_falls_back_to_sequence(self):
        corpus = parse_ohsumed(io.StringIO(".I 42\n.T\nSome title\n"))
        assert corpus.documents[0].doc_id == "42"

    def test_duplicate_doc_id_rejected(self):
        text = ".I 1\n.U\n9\n.T\na\n.I 2\n.U\n9\n.T\nb\n"
        with pytest.raises(ParseError, match="'9'"):
            parse_ohsumed(io.StringIO(text))

    def test_unknown_tag_errors_with_line(self):
        with pytest.raises(ParseError, match="line 2.*\\.X"):
            parse_ohsumed(io.StringIO(".I 1\n.X\nsurprise\n"))

    def test_content_before_any_record(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_ohsumed(io.StringIO("stray text\n"))

    def test_record_without_text_dropped(self, caplog):
        text = ".I 1\n.U\n5\n.A\nDoe J.\n.I 2\n.U\n6\n.T\nkept\n"
        with caplog.at_level("WARNING"):
            corpus = parse_ohsumed(io.StringIO(text))
        assert [d.doc_id for d in corpus.documents] == ["6"]
        assert corpus.dropped == ("5",)

    def test_empty_stream(self):
        assert len(parse_ohsumed(io.StringIO(""))) == 0


class TestTextDir:
    def test_labeled_subdirectories(self, tmp_path):
        (tmp_path / "CatA").mkdir()
        (tmp_path / "CatA" / "one.txt").write_text("Title line\nBody text.")
        (tmp_path / "loose.txt").write_text("No category\nStill a doc.")
        corpus = parse_textdir(tmp_path)
        by_id = {d.doc_id: d for d in corpus.documents}
        assert by_id["CatA/one"].labels == ("CatA",)
        assert by_id["CatA/one"].title == "Title line"
        assert by_id["loose"].labels == ()
        assert corpus.categories == ("CatA",)

    def test_empty_file_dropped(self, tmp_path):
        (tmp_path / "empty.txt").write_text("")
        corpus = parse_textdir(tmp_path)
        assert len(corpus) == 0
        assert corpus.dropped == ("empty",)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OntoclassError):
            parse_textdir(tmp_path / "nowhere")


class TestLabelMap:
    def test_parse(self, tmp_path):
        f = tmp_path / "labels.tsv"
        f.write_text("# comment\n1\tCatA\n2\tCatA;CatB\n")
        assert load_label_map(f) == {"1": ("CatA",), "2": ("CatA", "CatB")}

    def test_missing_tab(self, tmp_path):
        f = tmp_path / "labels.tsv"
        f.write_text("1 CatA\n")
        with pytest.raises(ParseError, match="line 1"):
            load_label_map(f)

    def test_repeated_doc_id_rejected(self, tmp_path):
        f = tmp_path / "labels.tsv"
        f.write_text("1\tA\n2\tB\n# comment\n1\tC\n")
        with pytest.raises(ParseError) as err:
            load_label_map(f)
        assert str(err.value) == "line 4: doc_id '1' already labeled on line 1"


def _corpus(*ids):
    return Corpus(
        documents=tuple(
            Document(doc_id=i, title=f"doc {i}", abstract="text") for i in ids
        )
    )


class TestAssignLabels:
    def test_first_label_policy(self):
        out = assign_labels(_corpus("1"), {"1": ("B", "A")})
        assert out.documents[0].labels == ("B",)
        assert out.categories == ("B",)

    def test_duplicate_policy_clones(self):
        out = assign_labels(_corpus("1"), {"1": ("B", "A")}, policy="duplicate")
        assert [(d.doc_id, d.labels) for d in out.documents] == [
            ("1", ("B",)),
            ("1::2", ("A",)),
        ]

    def test_category_subset_drops_unlabeled(self):
        out = assign_labels(
            _corpus("1", "2"), {"1": ("A",), "2": ("B",)}, categories=("A",)
        )
        assert [d.doc_id for d in out.documents] == ["1"]
        assert out.dropped == ("2",)

    def test_unknown_doc_id(self):
        with pytest.raises(OntoclassError, match="'99'"):
            assign_labels(_corpus("1"), {"99": ("A",)})

    def test_unknown_policy(self):
        with pytest.raises(OntoclassError):
            assign_labels(_corpus("1"), {"1": ("A",)}, policy="random")

    def test_categories_in_first_appearance_order(self):
        out = assign_labels(
            _corpus("1", "2", "3"),
            {"1": ("Z",), "2": ("A",), "3": ("Z",)},
        )
        assert out.categories == ("Z", "A")


    def test_repeated_category_rejected(self):
        with pytest.raises(OntoclassError, match="'A' listed more than once"):
            assign_labels(_corpus("1", "2"), {"1": ("A",), "2": ("B",)},
                          categories=("A", "B", "A"))


class TestCorpusInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(OntoclassError, match="duplicate"):
            Corpus(
                documents=(
                    Document(doc_id="1", title="a"),
                    Document(doc_id="1", title="b"),
                )
            )

    def test_label_outside_categories_rejected(self):
        with pytest.raises(OntoclassError):
            Corpus(
                documents=(Document(doc_id="1", title="a", labels=("X",)),),
                categories=("Y",),
            )

    def test_text_joins_title_and_abstract(self):
        doc = Document(doc_id="1", title="A title", abstract="A body")
        assert doc.text == "A title A body"


def test_jsonl_round_trip(tmp_path):
    corpus = assign_labels(_corpus("1", "2"), {"1": ("A",), "2": ("B",)})
    path = tmp_path / "cache.jsonl"
    save_corpus_jsonl(corpus, path)
    loaded = load_corpus_jsonl(path)
    assert loaded == corpus
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    assert sorted(record) == ["abstract", "doc_id", "labels", "mesh_annotations",
                              "title"]


def test_jsonl_ignores_the_keys_of_older_caches(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"doc_id": "1", "title": "t", "authors": "Smith J.", '
                    '"source": "", "pub_type": ["x"]}\n', encoding="utf-8")
    assert load_corpus_jsonl(path).documents == (Document(doc_id="1", title="t"),)


class TestJsonlMalformed:
    def test_record_without_doc_id(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"doc_id": "1"}\n{"title": "x"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: record has no doc_id"):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize("line", ['["doc_id"]', '"text"', "7", "null"])
    def test_record_not_an_object(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1: record is not a JSON object"):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"doc_id": 5, "labels": "AB"}', "doc_id is not a non-empty string"),
            ('{"doc_id": ""}', "doc_id is not a non-empty string"),
            ('{"doc_id": "1", "labels": "AB"}', "labels is not a list of strings"),
            ('{"doc_id": "1", "labels": ["A", 3]}', "labels is not a list of strings"),
            ('{"doc_id": "1", "mesh_annotations": "Heart"}',
             "mesh_annotations is not a list of strings"),
            ('{"doc_id": "1", "title": 7}', "title is not a string"),
            ('{"doc_id": "1", "abstract": null}', "abstract is not a string"),
            ('{"_meta": {"categories": "AB"}}', "categories is not a list of strings"),
        ],
    )
    def test_field_of_wrong_type(self, tmp_path, record, message):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"doc_id": "0"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            load_corpus_jsonl(path)

    def test_meta_category_listed_twice(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"_meta": {"categories": ["A", "A", "B"]}}\n'
            '{"doc_id": "1", "labels": ["A"]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="line 1: category 'A' listed more than once"):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"doc_id": "1"}', '{"_meta": {"categories": ["A"]}}'],
             "line 2: _meta must be the first line"),
            (['{"_meta": {"categories": ["A"]}}', '{"_meta": {"categories": ["B"]}}'],
             "line 2: _meta must be the first line"),
            (['{"_meta": {"categories": ["A"]}}', '{"doc_id": "1", "labels": ["A"]}',
              '{"doc_id": "1", "labels": ["A"]}'],
             "line 3: duplicate doc_id '1'"),
            (['{"_meta": {"categories": ["A"]}}', '{"doc_id": "1", "labels": ["A"]}',
              '{"doc_id": "2", "labels": ["A", "B"]}'],
             "line 3: label 'B' is not in the _meta categories"),
        ],
        ids=["meta_after_record", "second_meta", "duplicate_doc_id",
             "label_outside_categories"],
    )
    def test_record_that_does_not_fit_earlier_lines(self, tmp_path, lines, message):
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_corpus_jsonl(path)

    def test_meta_not_an_object(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"_meta": ["A"]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1: _meta is not a JSON object"):
            load_corpus_jsonl(path)


def test_non_utf8_corpus_names_the_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b".I 1\n.U\nd1\n.T\nCaf\xe9\n")
    with pytest.raises(ParseError, match=r"corpus\.txt: not UTF-8 \(byte 0xe9\)"):
        load_ohsumed(path)
