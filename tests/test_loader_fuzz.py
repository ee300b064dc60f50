"""Every loader, fed a mutated copy of a valid file, either loads it or
raises an `OntoclassError`; no other exception gets out. A UTF-8
byte-order mark at the start of a file changes nothing."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ontoclass.config import load_config
from ontoclass.corpus import load_corpus_jsonl, load_label_map, load_ohsumed
from ontoclass.errors import OntoclassError
from ontoclass.ontology import import_mesh_ascii, load_ontology
from ontoclass.preprocess import load_stoplist

OHSUMED = """\
.I 1
.U
h1
.M
Heart Diseases/*TH; Kardol Syndrome
.T
Kardol onset &amp; <i>relapse</i>
.W
Patient kardol gilbo.
.A
Smith J.
.S
Am J Card 1991 Jan;3(1):1-2
.P
JOURNAL ARTICLE.
.I 2
.U
r1
.T
Moxart onset
.W
Patient moxart talku
"""

JSONL = """\
{"_meta": {"categories": ["Heart", "Renal"], "dropped": ["x9"]}}
{"abstract": "patient kardol", "doc_id": "h1", "labels": ["Heart"], \
"mesh_annotations": ["Kardol Syndrome"], "title": "kardol onset"}
{"abstract": "patient moxart", "doc_id": "r1", "labels": ["Renal"], \
"title": "moxart onset", "authors": "", "source": "", "pub_type": ""}
"""

LABELS = """\
# doc_id<TAB>categories
h1\tHeart Disease
r1\tRenal Disease;Heart Disease
"""

ONTOLOGY_TSV = """\
# comment line
D100\tDiseases\tC01\t
D200\tKardol Syndrome\tC01.100\tkardol|Kardol Disease
D300\tMoxart Failure\tC01.100.500,C02\tmoxart
"""

MESH_ASCII = """\
*NEWRECORD
MH = Diseases
MN = C01
UI = D100

*NEWRECORD
MH = Kardol Syndrome
ENTRY = kardol|T047|NON|EQV
PRINT ENTRY = Kardol Disease|T047|NON|EQV
MN = C01.100
UI = D200
"""

CONFIG = """\
[corpus]
path = corpus.txt
format = ohsumed
label_map = labels.tsv
categories = Heart; Lung, Chronic
label_policy = duplicate

[preprocess]
stoplist = stop.txt

[ontology]
path = onto.tsv
format = tsv

[mapping]
representation = concepts_hyperonyms
strategy = ReplaceTerms
use_mesh_annotations = yes

[features]
k = 42

[classify]
classifier = c45
tree_max_depth = 6
tree_prune = false

[evaluate]
n_folds = 3
seed = 99

[cli]
output_dir = results
"""


LOADERS = {
    "parse_ohsumed": (load_ohsumed, OHSUMED),
    "load_corpus_jsonl": (load_corpus_jsonl, JSONL),
    "load_label_map": (load_label_map, LABELS),
    "load_ontology": (load_ontology, ONTOLOGY_TSV),
    "import_mesh_ascii": (import_mesh_ascii, MESH_ASCII),
    "load_config": (load_config, CONFIG),
}

#: Pieces that mean something to one of the formats, plus bytes that are
#: not UTF-8.
_TOKENS = [
    b"\n", b"\r\n", b"\t", b" ", b"|", b";", b",", b"=", b"#", b"\"", b"[",
    b"]", b"{", b"}", b":", b".", b"<", b">", b"&", b"&amp;", b"::2",
    b".I 7\n", b".I\n", b".U\n", b".T\n", b".Q\n", b"*NEWRECORD\n", b"MN = ",
    b"UI = ", b"MH = ", b"[DEFAULT]\n", b"[corpus]\n", b"_meta", b"null",
    b"pooled", b"AvG", b"-1", b"0", b"1e999", b"nan", b"9" * 40, b"\x00",
    b"\xff", b"\xc3", b"\xe9", b"\xef\xbb\xbf",
]

_edit = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1 << 16),
              st.sampled_from(_TOKENS) | st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 12)),
    st.tuples(st.just("replace"), st.integers(0, 1 << 16),
              st.sampled_from(_TOKENS)),
    st.tuples(st.just("repeat_line"), st.integers(0, 1 << 16), st.just(None)),
    st.tuples(st.just("drop_line"), st.integers(0, 1 << 16), st.just(None)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.just(None)),
)


def mutate(data: bytes, edits) -> bytes:
    for kind, where, arg in edits:
        at = where % (len(data) + 1)
        if kind == "insert":
            data = data[:at] + arg + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + arg:]
        elif kind == "replace":
            data = data[:at] + arg + data[at + len(arg):]
        elif kind == "truncate":
            data = data[:at]
        else:
            lines = data.splitlines(keepends=True)
            if lines:
                i = where % len(lines)
                lines[i:i + 1] = [lines[i]] * (2 if kind == "repeat_line" else 0)
            data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    # files the config names, so that a clean mutant validates
    for name in ("corpus.txt", "labels.tsv", "stop.txt", "onto.tsv"):
        (root / name).write_text("", encoding="utf-8")
    return root


def test_mutate_edits_lines_and_bytes():
    seed = b"a\nb\nc\n"
    assert mutate(seed, [("repeat_line", 1, None)]) == b"a\nb\nb\nc\n"
    assert mutate(seed, [("drop_line", 4, None)]) == b"a\nc\n"
    assert mutate(seed, [("insert", 0, b"\xff")]) == b"\xffa\nb\nc\n"
    assert mutate(seed, [("replace", 2, b"xy")]) == b"a\nxyc\n"
    assert mutate(seed, [("delete", 1, 2), ("truncate", 3, None)]) == b"a\nc"


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_clean_seed_loads(workdir, loader):
    load, seed = LOADERS[loader]
    path = workdir / f"{loader}.seed"
    path.write_text(seed, encoding="utf-8")
    load(path)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(_edit, min_size=1, max_size=6))
@example(edits=[("insert", 0, b"\xff")])
@example(edits=[("truncate", 0, None)])
@example(edits=[("insert", 10, b"9" * 5000)])
@example(edits=[("insert", 10, b"[" * 100_000)])
def test_mutants_raise_only_package_errors(workdir, loader, edits):
    load, seed = LOADERS[loader]
    path = workdir / f"{loader}.mutant"
    path.write_bytes(mutate(seed.encode("utf-8"), edits))
    try:
        load(path)
    except OntoclassError:
        pass


#: Every loader's seed, plus the first lines that a byte-order mark kept
#: in the text spoiled: a TSV thesaurus or MeSH file that opens with a
#: concept row or a field line, and a stoplist's first word.
BOM_CASES = {
    **LOADERS,
    "load_ontology, row first": (load_ontology, ONTOLOGY_TSV.split("\n", 1)[1]),
    "import_mesh_ascii, field first": (import_mesh_ascii,
                                       MESH_ASCII.split("\n", 1)[1]),
    "load_stoplist": (load_stoplist, "the\n# comment\nof\n"),
}


@pytest.mark.parametrize("case", sorted(BOM_CASES))
def test_byte_order_mark_loads_like_no_mark(workdir, case):
    load, seed = BOM_CASES[case]
    plain, marked = workdir / "plain.seed", workdir / "marked.seed"
    plain.write_text(seed, encoding="utf-8")
    marked.write_text(seed, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert repr(load(marked)) == repr(load(plain))
