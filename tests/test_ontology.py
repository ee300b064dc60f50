import hashlib
import itertools
import logging
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthcorpus
from ontoclass.errors import OntologyError, ParseError, open_utf8
from ontoclass.ontology import (
    MAX_PHRASE_LEN,
    Ontology,
    _mesh_rows,
    build_ontology,
    import_mesh_ascii,
    load_ontology,
    phrase_key,
)
from ontoclass.preprocess import load_stoplist

CHAIN_TSV = """\
# comment line
D001\tDiseases\tC01\tDisease
D002\tInfections\tC01.539\tInfection|Infectious Disease
D003\tAppendicitis\tC01.539.100\tAppendiceal Inflammation|Appendiceal
"""

CHAIN_MESH = """\
*NEWRECORD
MH = Diseases
ENTRY = Disease
MN = C01
UI = D001

*NEWRECORD
MH = Infections
ENTRY = Infection|T047|NON|EQV
PRINT ENTRY = Infectious Disease|T047|NON|EQV
MN = C01.539
UI = D002

*NEWRECORD
MH = Appendicitis
ENTRY = Appendiceal Inflammation
ENTRY = Appendiceal
MN = C01.539.100
UI = D003
"""


def children_of(onto, cid):
    return {child for child, parents in onto.parents.items() if cid in parents}


@pytest.fixture
def chain(tmp_path):
    f = tmp_path / "onto.tsv"
    f.write_text(CHAIN_TSV)
    return load_ontology(f)


class TestLoaders:
    def test_chain_hierarchy(self, chain):
        assert len(chain) == 3
        assert chain.parents == {"D001": frozenset(), "D002": {"D001"},
                                 "D003": {"D002"}}
        assert chain.roots() == ("D001",)
        assert chain.depth() == 3

    def test_parent_child_duality(self, chain):
        # every parent is a concept, and each child hangs under its parent
        for cid, parents in chain.parents.items():
            for p in parents:
                assert p in chain.parents
                assert cid in children_of(chain, p)

    def test_preferred_name_included_in_entry_terms(self, chain):
        key = phrase_key("Appendicitis", load_stoplist())
        assert chain.phrase_index.get(key, ()) == ("D003",)

    def test_mesh_ascii_equivalent(self, tmp_path, chain):
        f = tmp_path / "mesh.txt"
        f.write_text(CHAIN_MESH)
        onto = import_mesh_ascii(f)
        assert onto.parents == chain.parents
        assert onto.phrase_index == chain.phrase_index

    def test_mesh_record_missing_ui_skipped(self, tmp_path, caplog):
        f = tmp_path / "mesh.txt"
        f.write_text("*NEWRECORD\nMH = Orphan\n\n*NEWRECORD\nMH = Kept\nUI = D9\n")
        with caplog.at_level("WARNING"):
            onto = import_mesh_ascii(f)
        assert list(onto.parents) == ["D9"]
        assert "skipped" in caplog.text

    def test_mesh_no_valid_records(self, tmp_path, caplog):
        f = tmp_path / "mesh.txt"
        f.write_text("*NEWRECORD\nMH = Orphan\n\n*NEWRECORD\nUI = D2\nMN = A\n")
        with caplog.at_level("WARNING"), pytest.raises(OntologyError) as exc:
            import_mesh_ascii(f)
        assert str(exc.value) == "no valid descriptor records"
        assert caplog.text.count("missing MH or UI") == 2

    def test_empty_file_errors(self, tmp_path):
        f = tmp_path / "empty.tsv"
        f.write_text("# nothing\n")
        with pytest.raises(OntologyError, match="no concepts"):
            load_ontology(f)

    def test_bad_field_count(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("D1\tName\tC01\textra\ttoomuch\n")
        with pytest.raises(ParseError, match="line 1"):
            load_ontology(f)

    def test_non_utf8_tsv_names_the_file(self, tmp_path):
        f = tmp_path / "onto.tsv"
        f.write_bytes(CHAIN_TSV.encode("utf-8") + b"D400\tCaf\xe9\tC02\t\n")
        with pytest.raises(ParseError, match=r"onto\.tsv: not UTF-8 \(byte 0xe9\)"):
            load_ontology(f)

    def test_non_utf8_mesh_ascii_names_the_file(self, tmp_path):
        f = tmp_path / "mesh.txt"
        f.write_bytes(CHAIN_MESH.encode("utf-8")
                      + b"*NEWRECORD\nMH = Caf\xe9\nUI = D9\n")
        with pytest.raises(ParseError, match=r"mesh\.txt: not UTF-8 \(byte 0xe9\)"):
            import_mesh_ascii(f)

    def test_duplicate_concept_id(self):
        rows = [("D1", "One", [], []), ("D1", "Two", [], [])]
        with pytest.raises(OntologyError, match="duplicate"):
            build_ontology(rows)

    def test_duplicate_tree_number(self):
        rows = [("D1", "One", ["C01"], []), ("D2", "Two", ["C01"], [])]
        with pytest.raises(OntologyError, match="C01"):
            build_ontology(rows)

    def test_missing_parent_becomes_root(self, caplog):
        rows = [("D1", "Lonely", ["C01.539.100"], [])]
        with caplog.at_level("WARNING"):
            onto = build_ontology(rows)
        assert onto.roots() == ("D1",)
        assert "no parent" in caplog.text

    def test_cycle_detected(self):
        # polyhierarchy can close a loop: each concept is the other's parent
        rows = [
            ("D1", "One", ["X", "Y.1"], []),
            ("D2", "Two", ["Y", "X.1"], []),
        ]
        with pytest.raises(OntologyError, match="cycle"):
            build_ontology(rows)


class TestPhraseIndex:
    def test_keys_are_stemmed(self, chain):
        # "Appendicitis" strips to "append"; "Appendiceal" keeps its -al stem
        assert chain.phrase_index.get("append", ()) == ("D003",)
        assert chain.phrase_index.get("appendic", ()) == ("D003",)
        assert chain.phrase_index.get("appendic inflamm", ()) == ("D003",)

    def test_unknown_key_empty(self, chain):
        assert chain.phrase_index.get("zzz", ()) == ()

    def test_round_trip_every_entry_term(self, chain):
        stop = load_stoplist()
        for line in CHAIN_TSV.splitlines()[1:]:
            cid, preferred, _, entries = line.split("\t")
            for term in [preferred, *entries.split("|")]:
                key = phrase_key(term, stop)
                assert cid in chain.phrase_index.get(key, ())

    def test_phrase_widths_list_each_first_stem_longest_first(self, chain):
        # "append" and "appendic" start one-stem keys; "appendic" also
        # starts the two-stem "appendic inflamm"
        assert chain.phrase_widths["append"] == (1,)
        assert chain.phrase_widths["appendic"] == (2, 1)
        assert "inflamm" not in chain.phrase_widths
        derived = {}
        for key in chain.phrase_index:
            tokens = key.split(" ")
            derived.setdefault(tokens[0], set()).add(len(tokens))
        assert chain.phrase_widths == {
            first: tuple(sorted(widths, reverse=True))
            for first, widths in derived.items()
        }
        # one tuple per width set, shared by every stem that has it
        assert chain.phrase_widths["append"] is chain.phrase_widths["diseas"]

    def test_phrase_key_removes_stopwords(self):
        stop = load_stoplist()
        assert phrase_key("Inflammation of the Appendix", stop) == "inflamm appendix"

    def test_ambiguous_key_ordering(self):
        # "cold" names D_CC and is a synonym of D_CT: preferred name first
        rows = [
            ("D_CT", "Cold Temperature", ["G01"], ["Cold"]),
            ("D_CC", "Cold", ["C02"], []),
        ]
        onto = build_ontology(rows)
        assert onto.phrase_index.get("cold", ()) == ("D_CC", "D_CT")

    def test_tie_broken_by_tree_number_then_id(self):
        rows = [
            ("D_B", "Fever", ["C23"], []),
            ("D_A", "Pyrexia", ["C11"], ["Fever"]),
        ]
        onto = build_ontology(rows)
        # preferred-name match (D_B) outranks the synonym match (D_A)
        assert onto.phrase_index.get("fever", ()) == ("D_B", "D_A")
        rows = [
            ("D_B", "Grippe", ["C23"], []),
            ("D_A", "Grippe", ["C11"], []),
        ]
        onto = build_ontology(rows)
        # both preferred: smaller tree number wins
        assert onto.phrase_index.get("gripp", ()) == ("D_A", "D_B")


class TestTruncation:
    def test_long_phrase_truncated_when_unambiguous(self):
        rows = [("D1", "Systemic inflammatory response syndrome shock", [], [])]
        onto = build_ontology(rows)
        assert onto.phrase_index.get("system inflammatori respons", ()) == ("D1",)

    def test_ambiguous_truncations_dropped(self, caplog):
        rows = [
            ("D1", "Acute bacterial meningitis outbreak", [], []),
            ("D2", "Acute bacterial meningitis relapse", [], []),
        ]
        with caplog.at_level("WARNING"):
            onto = build_ontology(rows)
        assert onto.phrase_index.get("acut bacteri meningiti", ()) == ()
        assert "ambiguous" in caplog.text

    def test_truncation_colliding_with_exact_phrase_dropped(self, caplog):
        rows = [
            ("D1", "Chronic renal failure", [], []),
            ("D2", "Chronic renal failure progression markers", [], []),
        ]
        with caplog.at_level("WARNING"):
            onto = build_ontology(rows)
        # the exact 3-token phrase keeps its concept; the truncation loses
        assert onto.phrase_index.get("chronic renal failur", ()) == ("D1",)

    def test_same_concept_collision_is_fine(self):
        rows = [
            ("D1", "Chronic renal failure",
             [], ["Chronic renal failure progression markers"]),
        ]
        onto = build_ontology(rows)
        assert onto.phrase_index.get("chronic renal failur", ()) == ("D1",)


log = logging.getLogger("ontoclass.ontology")


def build_ontology_reference(rows, stopwords):
    """The three-pass build: tree owners over a row list, then parents,
    then a dict of preferred-name flags per index key, every key's senses
    sorted."""
    if not rows:
        raise OntologyError("no concepts")

    tree_owner = {}
    for concept_id, _, trees, _ in rows:
        for tn in trees:
            if tn in tree_owner:
                raise OntologyError(
                    f"tree number {tn} owned by both {tree_owner[tn]} and {concept_id}"
                )
            tree_owner[tn] = concept_id

    parents, first_tree = {}, {}
    for concept_id, _, trees, _ in rows:
        if concept_id in parents:
            raise OntologyError(f"duplicate concept id {concept_id!r}")
        first_tree[concept_id] = min(trees, default="~")
        owners = set()
        for tn in trees:
            if "." not in tn:
                continue
            parent_tn = tn.rsplit(".", 1)[0]
            owner = tree_owner.get(parent_tn)
            if owner is None:
                log.warning(
                    "tree number %s has no parent concept for %s; "
                    "treating %s as a root there", tn, parent_tn, concept_id,
                )
                continue
            owners.add(owner)
        parents[concept_id] = frozenset(owners)

    exact, truncated = {}, {}
    for concept_id, preferred, _, entries in rows:
        for term in dict.fromkeys([preferred, *entries]):
            key = phrase_key(term, stopwords)
            if not key:
                log.debug("entry term %r of %s normalizes to nothing", term,
                          concept_id)
                continue
            tokens = key.split(" ")
            is_pref = term == preferred
            if len(tokens) <= MAX_PHRASE_LEN:
                slot = exact.setdefault(key, {})
            else:
                key = " ".join(tokens[:MAX_PHRASE_LEN])
                slot = truncated.setdefault(key, {})
            slot[concept_id] = slot.get(concept_id, False) or is_pref

    for key, candidates in truncated.items():
        owners = set(candidates) | set(exact.get(key, {}))
        if len(owners) == 1:
            slot = exact.setdefault(key, {})
            for cid, is_pref in candidates.items():
                slot[cid] = slot.get(cid, False) or is_pref
        else:
            log.warning(
                "long entry terms truncating to %r are ambiguous across %s; dropped",
                key, sorted(owners),
            )

    phrase_index = {
        key: tuple(sorted(
            cids, key=lambda cid: (not cids[cid], first_tree[cid], cid)
        ))
        for key, cids in exact.items()
    }
    widths = {}
    for key in phrase_index:
        widths.setdefault(key.split(" ")[0], set()).add(key.count(" ") + 1)
    phrase_widths = {
        first: tuple(sorted(ws, reverse=True)) for first, ws in widths.items()
    }
    onto = Ontology(parents=parents, phrase_index=phrase_index,
                    stopwords=stopwords, phrase_widths=phrase_widths)
    onto.depth()
    return onto


@contextmanager
def ontology_log():
    """Every record the ontology module logs, DEBUG and up."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def build_outcome(build, rows):
    """What a build returns or raises, its warnings in order and its
    debug records as a multiset."""
    with ontology_log() as records:
        try:
            onto = build(rows, STOP)
            result = (list(onto.parents.items()), list(onto.phrase_index.items()),
                      list(onto.phrase_widths.items()))
        except OntologyError as exc:
            result = str(exc)
    warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
    debug = Counter(r.getMessage() for r in records if r.levelno == logging.DEBUG)
    return result, warnings, debug


STOP = load_stoplist()
# "colds" stems like "cold"; "the" and "of" are stopwords and "x" is too
# short, so a term of them alone normalizes to nothing
_WORDS = ("cold", "colds", "heart", "fever", "acute", "the", "of", "x")
_terms = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join)
# B.2.1 and C.3 have no parent position; owning A and B.1 while another
# concept owns B and A.1 closes a cycle
_TREES = ("A", "A.1", "A.1.1", "A.2", "B", "B.1", "B.2.1", "C.3")


@st.composite
def _thesauri(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(n)))
    owner = dict(zip(_TREES, draw(st.lists(
        st.integers(-1, n - 1), min_size=len(_TREES), max_size=len(_TREES),
    ))))
    order = draw(st.permutations(_TREES))
    return [
        (f"D{num}", draw(_terms), [tn for tn in order if owner[tn] == i],
         draw(st.lists(_terms, max_size=3)))
        for i, num in enumerate(ids)
    ]


class TestBuildOntologyEquivalence:
    @settings(deadline=None)
    @given(rows=_thesauri())
    # a unique truncation (D3), an ambiguous one (D1 and D2) and one that
    # collides with an exact key (D0's against D4's); "cold" has three
    # senses, two of them preferred, and D9 has no tree number
    @example(rows=[
        ("D3", "fever cold heart acute", ["B"], []),
        ("D2", "heart heart heart cold", ["A.1"], ["cold"]),
        ("D1", "colds", ["A"], ["heart heart heart fever"]),
        ("D4", "acute acute acute", ["C.3"], ["the x"]),
        ("D0", "acute acute acute acute", ["B.2.1"], ["of"]),
        ("D9", "cold", [], ["colds"]),
    ])
    # each concept owns the other's parent position
    @example(rows=[("D1", "cold", ["A", "B.1"], []),
                   ("D0", "heart", ["B", "A.1"], [])])
    def test_matches_three_pass_build(self, rows):
        new = build_outcome(lambda rs, stop: build_ontology(iter(rs), stop), rows)
        assert new == build_outcome(build_ontology_reference, rows)

    @given(rows=_thesauri())
    def test_siblings_share_one_parent_set(self, rows):
        try:
            onto = build_ontology(rows, STOP)
        except OntologyError:  # a cycle
            return
        sets = list(onto.parents.values())
        assert len({id(ps) for ps in sets}) == len(set(sets))

    @given(rows=_thesauri())
    def test_single_sense_keys_share_one_tuple(self, rows):
        try:
            onto = build_ontology(rows, STOP)
        except OntologyError:  # a cycle
            return
        assert_one_tuple_per_sense(onto)


def assert_one_tuple_per_sense(onto):
    """Every key whose only sense is concept c holds one and the same
    tuple object."""
    sense_of = {}
    for cids in onto.phrase_index.values():
        if len(cids) == 1:
            assert sense_of.setdefault(cids[0], cids) is cids


class TestBuildOntologyErrors:
    @pytest.mark.parametrize("rows, message", [
        ([("D1", "One", ["C01", "C01"], [])],
         "tree number C01 owned by both D1 and D1"),
        ([("D1", "One", ["C01"], []), ("D1", "Two", ["C01"], [])],
         "tree number C01 owned by both D1 and D1"),
        # a repeated id before a tree number owned twice, and the reverse
        ([("D1", "One", ["A"], []), ("D1", "Two", ["B"], []),
          ("D2", "Three", ["A"], [])],
         "tree number A owned by both D1 and D2"),
        ([("D1", "One", ["A"], []), ("D2", "Two", ["A"], []),
          ("D2", "Three", ["B"], [])],
         "tree number A owned by both D1 and D2"),
        # the first of two tree numbers owned twice
        ([("D1", "One", ["A", "B"], []), ("D2", "Two", ["B"], []),
          ("D3", "Three", ["A"], [])],
         "tree number B owned by both D1 and D2"),
        ([("D1", "One", [], []), ("D2", "Two", [], []), ("D2", "Three", [], []),
          ("D1", "Four", [], [])],
         "duplicate concept id 'D2'"),
        ([], "no concepts"),
    ])
    def test_same_error_as_three_pass_build(self, rows, message):
        for build in (build_ontology, build_ontology_reference):
            with pytest.raises(OntologyError) as exc:
                build(iter(rows) if build is build_ontology else rows, STOP)
            assert str(exc.value) == message

    def test_parse_error_wins_over_later_tree_error(self, tmp_path):
        f = tmp_path / "onto.tsv"
        f.write_text("D1\tOne\tA\nD2\tTwo\tA\nD3\tThree\tB\nD4\ta\tb\tc\td\n")
        with pytest.raises(ParseError) as exc:
            load_ontology(f)
        assert str(exc.value) == "line 4: expected 2-4 tab-separated fields, got 5"


def mesh_rows_reference(path):
    """The MeSH reader that strips every line, then tests it for the
    record mark, then partitions and strips it again."""
    kept = skipped = 0
    record = {}
    with open_utf8(path) as fh:
        for raw in itertools.chain(fh, ["*NEWRECORD"]):
            line = raw.strip()
            if line == "*NEWRECORD":
                if not record:
                    continue
                name = record.get("MH", [""])[0]
                uid = record.get("UI", [""])[0]
                if name and uid:
                    entries = [
                        v.split("|", 1)[0].strip()
                        for v in record.get("ENTRY", []) + record.get("PRINT ENTRY", [])
                    ]
                    kept += 1
                    yield uid, name, record.get("MN", []), [e for e in entries if e]
                else:
                    log.warning("descriptor record missing MH or UI; skipped")
                    skipped += 1
                record = {}
                continue
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in {"MH", "UI", "MN", "ENTRY", "PRINT ENTRY"} and value:
                record.setdefault(key, []).append(value)
    if skipped and not kept:
        raise OntologyError("no valid descriptor records")


def mesh_rows_outcome(read, path):
    """The rows a MeSH reader yields, the error it ends in, if any, and
    its warnings in order."""
    rows, error = [], None
    with ontology_log() as records:
        try:
            rows.extend(read(path))
        except OntologyError as exc:
            error = str(exc)
    warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
    return rows, error, warnings


# str.strip drops all of these; a text file splits lines at "\n" only
_PAD = st.sampled_from(["", " ", "\t", "\x0b", "\xa0", " \t\xa0"])
_MESH_KEY = st.sampled_from(
    ["MH", "UI", "MN", "ENTRY", "PRINT ENTRY", "PRINT", "AN", "mh", ""]
)
_MESH_VALUE = st.sampled_from(
    ["", "Cold", "Flu", "D1", "D2", "C01.5", "a = b", "=", "Flu|T047|NON", "|x", "x|"]
)
_MESH_OTHER = st.sampled_from(
    ["*NEWRECORD", "*NEWRECORD x", "*newrecord", "MH Cold", "ENTRY", "*"]
)


@st.composite
def _mesh_files(draw):
    lines = []
    for kind in draw(st.lists(st.sampled_from("ffffmb-"), max_size=30)):
        lead, trail = draw(_PAD), draw(_PAD)
        if kind == "f":
            line = (f"{lead}{draw(_MESH_KEY)}{draw(_PAD)}={draw(_PAD)}"
                    f"{draw(_MESH_VALUE)}{trail}")
        elif kind == "m":
            line = f"{lead}*NEWRECORD{trail}"
        elif kind == "b":
            line = lead
        else:
            line = f"{lead}{draw(_MESH_OTHER)}{trail}"
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def mesh_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mesh") / "mesh.txt"


class TestMeshRowsEquivalence:
    @settings(deadline=None, max_examples=300)
    @given(text=_mesh_files())
    # PRINT ENTRY before ENTRY, repeated MH and UI, "=" in a value, empty
    # values, and a last record with no final newline
    @example(text=" MH\t= Flu = Grippe\nPRINT ENTRY = Grippe|T047\nENTRY=Flu\n"
                  "MH = Cold\nUI = D1\nUI = D2\nMN =\nENTRY = \xa0\nMH=\n"
                  "\xa0*NEWRECORD\x0b\n"
                  "AN = x\n*NEWRECORD\nMH = Fever\nMN = C01\nUI = D3")
    # every record skipped: one without UI, one without MH
    @example(text="*NEWRECORD\nMH = Cold\n*NEWRECORD\nUI = D1\nUI =\n")
    def test_matches_line_loop(self, mesh_path, text):
        mesh_path.write_text(text, encoding="utf-8")
        assert (mesh_rows_outcome(_mesh_rows, mesh_path)
                == mesh_rows_outcome(mesh_rows_reference, mesh_path))


def test_acyclicity_by_traversal(chain):
    # depth-first from every root, no node revisited on the current path
    def visit(cid, path):
        assert cid not in path
        for child in children_of(chain, cid):
            visit(child, path | {cid})

    for root in chain.roots():
        visit(root, set())


def test_two_tree_positions_union_children():
    rows = [
        ("D_P", "Parent", ["A", "B"], []),
        ("D_C1", "Child one", ["A.1"], []),
        ("D_C2", "Child two", ["B.1"], []),
        ("D_C3", "Child both", ["A.2", "B.2"], []),
    ]
    onto = build_ontology(rows)
    assert children_of(onto, "D_P") == {"D_C1", "D_C2", "D_C3"}


def generated_rows(n, seed=5):
    """A thesaurus of `n` concepts: 30 roots, each other concept under a
    random earlier tree position, every seventh under two; names and
    zero to two synonyms of one to four made-up words."""
    rng = random.Random(seed)
    syllables = ["ka", "lo", "mi", "ner", "tus", "pha", "gen", "ost", "rid",
                 "vel", "cor", "dia"]

    def phrase():
        return " ".join(
            "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
            for _ in range(rng.randint(1, 4))
        )

    rows, trees = [], []
    for i in range(n):
        if i < 30:
            own = [f"C{i:02d}"]
        else:
            own = [f"{rng.choice(trees)}.{i:04d}"]
            if i % 7 == 0:
                own.append(f"{rng.choice(trees)}.{i:04d}x")
        trees += own
        rows.append((f"D{i:05d}", phrase(), own,
                     [phrase() for _ in range(rng.randint(0, 2))]))
    return rows


class TestBuildOntologyBoundedMemory:
    def test_memory_held_per_concept(self):
        # 4,000 concepts on CPython 3.11: the parent table and the phrase
        # index hold about 750 B per concept; a frozen record per concept
        # (id, name, entry terms, tree numbers, parent and child sets)
        # on top of them held about 1,210 B
        n = 4000
        rows, stopwords = generated_rows(n), load_stoplist()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            onto = build_ontology(rows, stopwords=stopwords)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(onto) == n and len(onto.roots()) == 30 and onto.depth() > 5
        assert held < 1000 * n, f"{held} bytes held for {n} concepts"

    def test_single_sense_keys_share_one_tuple(self):
        onto = build_ontology(generated_rows(4000), load_stoplist())
        assert_one_tuple_per_sense(onto)
        # about 7,200 single-sense keys share about 3,800 tuples, one per
        # concept, since most concepts have a synonym
        single = [cids for cids in onto.phrase_index.values() if len(cids) == 1]
        assert len({id(cids) for cids in single}) == len(set(single)) < len(single)

    def test_memory_held_per_concept_with_stems_memoised(self):
        # 4,000 concepts on CPython 3.11, every word already in the stem
        # memo: the build holds about 375 B per concept when a concept's
        # single-sense keys share one (concept id,) tuple, and held about
        # 450 B with one such tuple per key
        n = 4000
        rows, stopwords = generated_rows(n), load_stoplist()
        build_ontology(rows, stopwords)  # every word is in the stem memo
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            onto = build_ontology(rows, stopwords=stopwords)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(onto) == n
        assert held < 410 * n, f"{held} bytes held for {n} concepts"

    def test_import_peak_per_concept(self, tmp_path):
        # 4,000 concepts on CPython 3.11: reading the file into a row list
        # first, then indexing it with a dict of flags per key, peaked at
        # about 1,760-1,800 B per concept in either loader; rows streamed
        # into the index peak at about 690 B
        n = 4000
        rows, stopwords = generated_rows(n), load_stoplist()
        tsv, mesh = tmp_path / "onto.tsv", tmp_path / "mesh.txt"
        tsv.write_text("".join(
            f"{cid}\t{name}\t{','.join(trees)}\t{'|'.join(entries)}\n"
            for cid, name, trees, entries in rows
        ))
        mesh.write_text("".join(
            f"*NEWRECORD\nMH = {name}\n"
            + "".join(f"ENTRY = {e}\n" for e in entries)
            + "".join(f"MN = {tn}\n" for tn in trees)
            + f"UI = {cid}\n\n"
            for cid, name, trees, entries in rows
        ))
        for loader, path in ((load_ontology, tsv), (import_mesh_ascii, mesh)):
            loader(path, stopwords)  # every word is in the stem memo before the trace
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                onto = loader(path, stopwords)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert len(onto) == n
            assert peak < 1400 * n, (
                f"{loader.__name__}: {peak} bytes at peak for {n} concepts"
            )


# Keys with two and three senses, ranked by preferred name, then tree
# number, then id, and entered in an order that is not their rank; a
# unique and an ambiguous truncation; a synonym that stems like its name.
SENSES_MESH = """\
*NEWRECORD
MH = Common Cold
ENTRY = Cold|T047|NON|EQV
ENTRY = Head Cold
MN = C08.730.162
UI = D012

*NEWRECORD
MH = Cold Temperature
ENTRY = Cold
ENTRY = Low Temperature
MN = G01.358.500
UI = D011

*NEWRECORD
MH = Cold
MN = C02
UI = D010

*NEWRECORD
MH = Grippe
MN = C23
UI = D021

*NEWRECORD
MH = Grippe
ENTRY = Influenza
MN = C11
UI = D020

*NEWRECORD
MH = Influenza, Human
PRINT ENTRY = Influenza|T047|NON|EQV
ENTRY = Human Flu
UI = D032

*NEWRECORD
MH = Flu Season
ENTRY = Influenza
ENTRY = Human Flu
UI = D031

*NEWRECORD
MH = Acute Bacterial Meningitis Outbreak
MN = C10.228
UI = D040

*NEWRECORD
MH = Acute Bacterial Meningitis Relapse
MN = C10.229
UI = D041

*NEWRECORD
MH = Systemic Inflammatory Response Syndrome Shock
ENTRY = Sepsis
MN = C23.550
UI = D050

*NEWRECORD
MH = Temperature
ENTRY = Low Temperature
ENTRY = Temperatures
MN = G01
UI = D013
"""


class TestPhraseIndexPinned:
    """The phrase index must not change by key, by sense or by order. The
    digests were taken from the index that sorted every key's senses."""

    def test_sibling_merge_fixture(self):
        fx = synthcorpus.sibling_merge_fixture(seed=3)
        onto = build_ontology(list(fx.ontology_rows), stopwords=load_stoplist())
        assert hashlib.sha256(
            repr(list(onto.phrase_index.items())).encode("utf-8")
        ).hexdigest() == "742619d71d504057551476f84e0a01382e4ef3f2c1fa5746ee3130f50058a240"

    def test_mesh_senses(self, tmp_path):
        f = tmp_path / "mesh.txt"
        f.write_text(SENSES_MESH)
        onto = import_mesh_ascii(f)
        assert onto.phrase_index.get("cold", ()) == ("D010", "D012", "D011")
        assert onto.phrase_index.get("influenza", ()) == ("D020", "D031", "D032")
        assert hashlib.sha256(
            repr(list(onto.phrase_index.items())).encode("utf-8")
        ).hexdigest() == "0a13c6b93f658dde9f3638a403148b59e421239d21fcbc9c0add24b7861d7e84"

    def test_counts_logged_at_info(self, tmp_path, caplog):
        f = tmp_path / "mesh.txt"
        f.write_text(SENSES_MESH)
        with caplog.at_level("INFO", logger="ontoclass.ontology"):
            import_mesh_ascii(f)
        assert ("ontology: 11 concepts, 13 index keys, 5 with more than one "
                "sense, 1 ambiguous truncations dropped") in caplog.text
