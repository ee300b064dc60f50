"""Corpus ingestion: tagged medical-abstract records, text directories,
markup stripping and category label assignment.

The tagged record layout handled here is the classic medical-abstract
interchange format: records are separated by a ``.I <seq>`` line and carry
single-letter tag lines (``.U`` id, ``.T`` title, ``.W`` abstract, ``.M``
thesaurus annotations, ``.A`` authors, ``.S`` source, ``.P`` publication
type), each followed by its content line(s). Authors, source and
publication type are accepted and not kept.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .config import LABEL_POLICIES, ExperimentConfig
from .errors import OntoclassError, ParseError, open_utf8

log = logging.getLogger(__name__)

#: Tags recognised inside a record. Anything else that looks like a tag
#: line is treated as format drift and rejected loudly.
KNOWN_TAGS = {".U", ".T", ".W", ".M", ".A", ".S", ".P"}


@dataclass(frozen=True)
class Document:
    """One parsed corpus record."""

    doc_id: str
    title: str = ""
    abstract: str = ""
    mesh_annotations: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.doc_id:
            raise OntoclassError("document with empty doc_id")

    @property
    def text(self) -> str:
        return f"{self.title} {self.abstract}".strip()


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of documents plus the category list.

    `dropped` records the ids of records rejected at parse time or dropped
    during label assignment, so callers can report exact counts.
    """

    documents: tuple[Document, ...]
    categories: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        for i, cat in enumerate(self.categories):
            if cat in self.categories[:i]:
                raise OntoclassError(f"category {cat!r} listed more than once")
        seen = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise OntoclassError(f"duplicate doc_id: {doc.doc_id}")
            seen.add(doc.doc_id)
        cats = set(self.categories)
        for doc in self.documents:
            for lab in doc.labels:
                if lab not in cats:
                    raise OntoclassError(
                        f"document {doc.doc_id} labeled {lab!r}, "
                        f"which is not in the corpus categories"
                    )

    def __len__(self) -> int:
        return len(self.documents)


_TAG_SHAPED = re.compile(r"^\.[A-Z]+\s*$")
_SEPARATOR = re.compile(r"^\.I\s+(\S+)\s*$")
_ENTITY = re.compile(r"&(#x?[0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*);")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def strip_markup(text: str) -> str:
    """Remove markup tags and decode the five basic character entities.

    Tag spans ``<...>`` are deleted (an unclosed ``<`` drops everything to
    the end of the text), stray ``>`` characters are deleted, entities for
    amp/lt/gt/quot/apos are decoded and all other ``&name;`` entities
    become a space. Stripping and decoding repeat until stable, so decoded
    angle brackets are themselves treated as markup; the result never
    contains ``<`` or ``>`` and the whole function is idempotent.
    Whitespace runs collapse to single spaces.
    """

    def decode(match: re.Match) -> str:
        return _NAMED_ENTITIES.get(match.group(1), " ")

    prev = None
    while text != prev:
        prev = text
        text = re.sub(r"<[^>]*>", "", text)
        text = re.sub(r"<.*$", "", text, flags=re.S)
        text = text.replace(">", "")
        text = _ENTITY.sub(decode, text)
    return re.sub(r"\s+", " ", text).strip()


def parse_ohsumed(stream: IO[str] | Iterable[str]) -> Corpus:
    """Parse a tagged-record stream into a Corpus with empty labels.

    Records lacking both a title and an abstract are rejected (their ids
    are reported in ``Corpus.dropped``). Unknown tag lines and duplicate
    document ids raise :class:`ParseError`.
    """
    documents: list[Document] = []
    dropped: list[str] = []
    seen_ids: set[str] = set()

    fields: dict[str, list[str]] = {}
    seq_id: str | None = None
    current_tag: str | None = None
    record_line = 0

    def flush():
        nonlocal fields, seq_id, current_tag
        if seq_id is None:
            return
        doc_id = " ".join(fields.get(".U", ())).strip() or seq_id
        if doc_id in seen_ids:
            raise ParseError(f"duplicate doc_id {doc_id!r}", line=record_line)
        seen_ids.add(doc_id)
        title = " ".join(fields.get(".T", ())).strip()
        abstract = " ".join(fields.get(".W", ())).strip()
        if not title and not abstract:
            log.warning("record %s has neither title nor abstract; rejected", doc_id)
            dropped.append(doc_id)
        else:
            mesh = " ".join(fields.get(".M", ())).strip()
            documents.append(
                Document(
                    doc_id=doc_id,
                    title=title,
                    abstract=abstract,
                    mesh_annotations=tuple(
                        p.strip() for p in mesh.split(";") if p.strip()
                    ),
                )
            )
        fields = {}
        seq_id = None
        current_tag = None

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        sep = _SEPARATOR.match(line)
        if sep:
            flush()
            seq_id = sep.group(1)
            record_line = lineno
            continue
        stripped = line.strip()
        if _TAG_SHAPED.match(stripped):
            if stripped == ".I":
                raise ParseError("record separator without sequence number", lineno)
            if stripped not in KNOWN_TAGS:
                raise ParseError(f"unknown tag {stripped!r}", lineno)
            if seq_id is None:
                raise ParseError(f"tag {stripped!r} before any record separator", lineno)
            current_tag = stripped
            fields.setdefault(current_tag, [])
            continue
        if seq_id is None or current_tag is None:
            raise ParseError("content line outside any tagged field", lineno)
        fields[current_tag].append(stripped)
    flush()

    if dropped:
        log.warning("rejected %d record(s) with no text", len(dropped))
    return Corpus(documents=tuple(documents), dropped=tuple(dropped))


def load_ohsumed(path: str | Path) -> Corpus:
    with open_utf8(path) as fh:
        return parse_ohsumed(fh)


def parse_textdir(root: str | Path) -> Corpus:
    """Load a directory of plain-text files, one document per file.

    Files nested one level deep are labeled with their directory name;
    files directly under `root` are unlabeled. The first line of a file is
    the title, the rest the abstract. Traversal order is sorted, so the
    document order is stable.
    """
    root = Path(root)
    if not root.is_dir():
        raise OntoclassError(f"not a directory: {root}")
    documents: list[Document] = []
    dropped: list[str] = []
    categories: list[str] = []
    for path in sorted(root.rglob("*.txt")):
        rel = path.relative_to(root)
        doc_id = str(rel.with_suffix("")).replace("\\", "/")
        with open_utf8(path) as fh:
            text = fh.read()
        title, _, abstract = text.partition("\n")
        title = title.strip()
        abstract = abstract.strip()
        if not title and not abstract:
            log.warning("file %s is empty; rejected", rel)
            dropped.append(doc_id)
            continue
        labels: tuple[str, ...] = ()
        if len(rel.parts) > 1:
            cat = rel.parts[0]
            if cat not in categories:
                categories.append(cat)
            labels = (cat,)
        documents.append(
            Document(doc_id=doc_id, title=title, abstract=abstract, labels=labels)
        )
    return Corpus(
        documents=tuple(documents),
        categories=tuple(categories),
        dropped=tuple(dropped),
    )


def load_label_map(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read a ``doc_id<TAB>category[;category...]`` file, one line per
    doc_id."""
    label_map: dict[str, tuple[str, ...]] = {}
    first_line: dict[str, int] = {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise ParseError("expected doc_id<TAB>categories", lineno)
            doc_id, _, cats = line.partition("\t")
            doc_id = doc_id.strip()
            labels = tuple(c.strip() for c in cats.split(";") if c.strip())
            if not doc_id or not labels:
                raise ParseError("empty doc_id or empty category list", lineno)
            if doc_id in first_line:
                raise ParseError(f"doc_id {doc_id!r} already labeled on line "
                                 f"{first_line[doc_id]}", lineno)
            first_line[doc_id] = lineno
            label_map[doc_id] = labels
    return label_map


def assign_labels(
    corpus: Corpus,
    label_map: Mapping[str, Sequence[str]],
    categories: Sequence[str] | None = None,
    policy: str = ExperimentConfig.label_policy,
) -> Corpus:
    """Attach category labels and restrict the corpus to them.

    `categories` is the configured category subset (kept in the given
    order, each name once); when omitted it is derived from the labels in
    first-appearance order. Documents left with no label after
    restriction are dropped and reported via ``Corpus.dropped``.

    Multi-label documents are resolved per `policy`: ``first-label`` keeps
    the first surviving label; ``duplicate`` emits one instance per label,
    suffixing clone ids with ``::2``, ``::3``, ...
    """
    if policy not in LABEL_POLICIES:
        raise OntoclassError(f"unknown label policy {policy!r}")
    known_ids = {doc.doc_id for doc in corpus.documents}
    for doc_id in label_map:
        if doc_id not in known_ids:
            raise OntoclassError(f"label map names unknown doc_id {doc_id!r}")

    subset = None if categories is None else set(categories)

    documents: list[Document] = []
    dropped = list(corpus.dropped)
    for doc in corpus.documents:
        labels = [
            lab
            for lab in label_map.get(doc.doc_id, ())
            if subset is None or lab in subset
        ]
        # dedupe, preserving order
        labels = list(dict.fromkeys(labels))
        if not labels:
            dropped.append(doc.doc_id)
            continue
        documents.append(replace(doc, labels=(labels[0],)))
        if policy == "duplicate":
            for i, lab in enumerate(labels[1:], start=2):
                documents.append(
                    replace(doc, doc_id=f"{doc.doc_id}::{i}", labels=(lab,))
                )
    if categories is None:
        # first-appearance order over the labels actually kept, so every
        # category ends up non-empty
        categories = dict.fromkeys(doc.labels[0] for doc in documents)
    n_dropped = len(dropped) - len(corpus.dropped)
    if n_dropped:
        log.warning("dropped %d document(s) with no label in the category subset",
                    n_dropped)
    return Corpus(
        documents=tuple(documents),
        categories=tuple(categories),
        dropped=tuple(dropped),
    )


def save_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Cache a corpus as JSON lines; first line holds corpus-level metadata."""
    with open(path, "w", encoding="utf-8") as fh:
        meta = {"categories": list(corpus.categories), "dropped": list(corpus.dropped)}
        fh.write(json.dumps({"_meta": meta}, sort_keys=True) + "\n")
        for doc in corpus.documents:
            fh.write(json.dumps(asdict(doc), sort_keys=True) + "\n")


_JSONL_TEXT_FIELDS = ("title", "abstract")


def _jsonl_strings(rec: dict, key: str, lineno: int) -> tuple[str, ...]:
    value = rec.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{key} is not a list of strings", lineno)
    return tuple(value)


def load_corpus_jsonl(path: str | Path) -> Corpus:
    """Read a cache that `save_corpus_jsonl` wrote. A line that is malformed
    or does not fit the lines before it raises ParseError naming it."""
    documents: dict[str, Document] = {}
    categories: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"bad JSON: {exc}", lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("record is not a JSON object", lineno)
            if "_meta" in rec:
                meta = rec["_meta"]
                if not isinstance(meta, dict):
                    raise ParseError("_meta is not a JSON object", lineno)
                categories = _jsonl_strings(meta, "categories", lineno)
                dropped = _jsonl_strings(meta, "dropped", lineno)
                if lineno != 1:
                    raise ParseError("_meta must be the first line", lineno)
                repeated = [c for i, c in enumerate(categories) if c in categories[:i]]
                if repeated:
                    raise ParseError(f"category {repeated[0]!r} listed more than once",
                                     lineno)
                continue
            if "doc_id" not in rec:
                raise ParseError("record has no doc_id", lineno)
            doc_id = rec["doc_id"]
            if not isinstance(doc_id, str) or not doc_id:
                raise ParseError("doc_id is not a non-empty string", lineno)
            if doc_id in documents:
                raise ParseError(f"duplicate doc_id {doc_id!r}", lineno)
            text = {key: rec.get(key, "") for key in _JSONL_TEXT_FIELDS}
            for key, value in text.items():
                if not isinstance(value, str):
                    raise ParseError(f"{key} is not a string", lineno)
            labels = _jsonl_strings(rec, "labels", lineno)
            unknown = [lab for lab in labels if lab not in categories]
            if unknown:
                raise ParseError(f"label {unknown[0]!r} is not in the _meta categories",
                                 lineno)
            documents[doc_id] = Document(
                doc_id=doc_id,
                mesh_annotations=_jsonl_strings(rec, "mesh_annotations", lineno),
                labels=labels,
                **text,
            )
    return Corpus(documents=tuple(documents.values()), categories=categories,
                  dropped=dropped)
