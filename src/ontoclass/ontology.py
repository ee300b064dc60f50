"""Thesaurus model: each concept's direct parents, taken from its tree
numbers, plus a stemmed phrase index over its names and entry terms.

Two loaders are provided, one for a portable tab-separated interchange
format and one for the NLM ASCII descriptor format. Both feed the same
builder, so equivalent content yields identical ontologies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import OntologyError, ParseError, open_utf8
from .porter import stem
from .preprocess import load_stoplist, tokenize

log = logging.getLogger(__name__)

#: Longest phrase, in stemmed tokens, kept in the phrase index.
MAX_PHRASE_LEN = 3

#: Bit w-1 set in a mask -> the widths w it holds, longest first; every
#: first stem with the same width set shares one tuple.
_WIDTHS = {
    mask: tuple(w for w in range(MAX_PHRASE_LEN, 0, -1) if mask >> (w - 1) & 1)
    for mask in range(1 << MAX_PHRASE_LEN)
}

#: One thesaurus row: concept id, preferred name, tree numbers, entry terms.
Row = tuple[str, str, Sequence[str], Sequence[str]]

#: Sorts after every real tree number, so concepts without tree numbers
#: order last among equals.
_NO_TREE = "~"


@dataclass(frozen=True)
class Ontology:
    """Immutable concept hierarchy plus phrase index.

    `parents` maps every concept id to the ids of its direct parents, an
    empty set for a root. `phrase_index` maps a stemmed-phrase key to the
    ordered candidate concept list (most canonical sense first); every
    query is read-only. `stopwords` is the stoplist the keys were built
    with, so any other phrase is keyed the same way. `phrase_widths` maps
    each key's first stem to the key widths, in stems, that start with it,
    longest first; a stem that starts no key is absent.
    """

    parents: dict[str, frozenset[str]]
    phrase_index: dict[str, tuple[str, ...]]
    stopwords: frozenset[str]
    phrase_widths: dict[str, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.parents)

    def roots(self) -> tuple[str, ...]:
        """Concepts with no parents, in id order."""
        return tuple(sorted(cid for cid, ps in self.parents.items() if not ps))

    def depth(self) -> int:
        """Number of concepts on the longest root-to-leaf path."""
        children: dict[str, list[str]] = {cid: [] for cid in self.parents}
        for cid, ps in self.parents.items():
            for parent in ps:
                children[parent].append(cid)
        in_deg = {cid: len(ps) for cid, ps in self.parents.items()}
        depth = dict.fromkeys(self.parents, 1)
        queue = [cid for cid, d in in_deg.items() if d == 0]
        seen = 0
        while queue:
            cid = queue.pop()
            seen += 1
            for child in children[cid]:
                depth[child] = max(depth[child], depth[cid] + 1)
                in_deg[child] -= 1
                if in_deg[child] == 0:
                    queue.append(child)
        if seen != len(self.parents):
            raise OntologyError("hierarchy contains a cycle")
        return max(depth.values(), default=0)


def phrase_key(term: str, stopwords: frozenset[str]) -> str:
    """Normalize a phrase the same way document text is preprocessed.

    Tokens are lowercased alphabetic runs of length >= 2; stopwords drop
    out; the rest are stemmed and joined with single spaces. May be empty.
    """
    return " ".join(stem(t) for t in tokenize(term) if t not in stopwords)


def load_ontology(
    path: str | Path, stopwords: frozenset[str] | None = None
) -> Ontology:
    """Load the portable tab-separated ontology format.

    One concept per line: id, preferred name, comma-separated tree
    numbers, '|'-separated extra entry terms. The last two fields may be
    empty. '#' starts a comment line.
    """
    return build_ontology(_tsv_rows(path), stopwords)


def _tsv_rows(path: str | Path) -> Iterator[Row]:
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or len(parts) > 4:
                raise ParseError(
                    f"expected 2-4 tab-separated fields, got {len(parts)}", lineno
                )
            concept_id = parts[0].strip()
            preferred = parts[1].strip()
            if not concept_id or not preferred:
                raise ParseError("empty concept id or preferred name", lineno)
            trees = [t.strip() for t in parts[2].split(",")] if len(parts) > 2 else []
            trees = [t for t in trees if t]
            entries = [e.strip() for e in parts[3].split("|")] if len(parts) > 3 else []
            entries = [e for e in entries if e]
            yield concept_id, preferred, trees, entries


def import_mesh_ascii(
    path: str | Path, stopwords: frozenset[str] | None = None
) -> Ontology:
    """Load the NLM ASCII descriptor format.

    Records are separated by ``*NEWRECORD`` lines and carry ``KEY = value``
    lines; only MH, UI, MN, ENTRY and PRINT ENTRY are used. ENTRY values
    keep their first '|'-delimited field. Records missing MH or UI are
    skipped with a warning.
    """
    return build_ontology(_mesh_rows(path), stopwords)


def _mesh_rows(path: str | Path) -> Iterator[Row]:
    kept = skipped = 0
    record: dict[str, list[str]] = {}
    with open_utf8(path) as fh:
        # one more record mark after the file ends the last record
        for raw in chain(fh, ["*NEWRECORD"]):
            # a line holding "=" is a field; of the others, only the
            # record mark means anything
            key, eq, value = raw.partition("=")
            if eq:
                key = key.strip()
                if key in {"MH", "UI", "MN", "ENTRY", "PRINT ENTRY"}:
                    value = value.strip()
                    if value:
                        record.setdefault(key, []).append(value)
                continue
            if key.strip() != "*NEWRECORD" or not record:
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
    if skipped and not kept:
        raise OntologyError("no valid descriptor records")


def build_ontology(
    rows: Iterable[Row], stopwords: frozenset[str] | None = None
) -> Ontology:
    """Assemble an Ontology from (id, preferred, trees, entries) rows.

    `rows` may be any iterable; it is read once, and each row is indexed
    as it is read. Hierarchy comes from tree numbers: the parent of
    C01.539.100 is the concept owning C01.539; a tree number whose parent
    path is owned by no concept makes that position a root (with a
    warning). Concepts with the same parents share one parent set, and
    the keys whose only sense is one concept share one sense tuple. Entry
    terms longer than MAX_PHRASE_LEN stemmed tokens are indexed under
    their leading tokens only when that truncated key identifies the
    concept uniquely; otherwise they are dropped.

    Errors in the rows are raised once they are all read: the first tree
    number owned twice, else the first repeated concept id, else "no
    concepts" for no rows. An error raised while reading `rows` comes
    before all of them.
    """
    if stopwords is None:
        stopwords = load_stoplist()

    trees_of: dict[str, Sequence[str]] = {}  # concept id -> tree numbers, row order
    tree_owner: dict[str, str] = {}
    # concept id -> its preferred name's key, when that key is not truncated
    pref_key: dict[str, str] = {}
    # key -> concept ids, first seen first; exact keys, then long terms'
    # truncated keys, kept apart until every exact key is known
    exact: dict[str, tuple[str, ...]] = {}
    truncated: dict[str, tuple[str, ...]] = {}
    masks: dict[str, int] = {}  # first stem -> bit w-1 per exact key width w
    tree_error = id_error = ""
    for concept_id, preferred, trees, entries in rows:
        for tn in trees:
            if tn not in tree_owner:
                tree_owner[tn] = concept_id
            elif not tree_error:
                tree_error = (
                    f"tree number {tn} owned by both {tree_owner[tn]} and {concept_id}"
                )
        if concept_id in trees_of and not id_error:
            id_error = f"duplicate concept id {concept_id!r}"
        trees_of[concept_id] = trees
        sense = (concept_id,)  # shared by every key only this concept has
        for term in dict.fromkeys([preferred, *entries]):
            # phrase_key's stems, joined below only as far as they are kept
            stems = [stem(t) for t in tokenize(term) if t not in stopwords]
            if not stems:
                log.debug("entry term %r of %s normalizes to nothing", term,
                          concept_id)
                continue
            if len(stems) > MAX_PHRASE_LEN:
                key = " ".join(stems[:MAX_PHRASE_LEN])
                slot = truncated
            else:
                key = " ".join(stems)
                slot = exact
                if term == preferred:
                    pref_key[concept_id] = key
            cids = slot.get(key)
            if cids is None:
                slot[key] = sense
                if slot is exact:
                    masks[stems[0]] = masks.get(stems[0], 0) | 1 << (len(stems) - 1)
            elif cids[-1] != concept_id:  # a concept's terms come together
                slot[key] = (*cids, concept_id)
    if tree_error:
        raise OntologyError(tree_error)
    if id_error:
        raise OntologyError(id_error)
    if not trees_of:
        raise OntologyError("no concepts")

    # a key with more than one sense never takes a truncated key, so a
    # sense ranks first when its preferred name has exactly this key,
    # then by its smallest tree number, then by id
    for key, cids in exact.items():
        if len(cids) > 1:
            exact[key] = tuple(sorted(cids, key=lambda cid: (
                pref_key.get(cid) != key, min(trees_of[cid], default=_NO_TREE), cid,
            )))
    del pref_key

    # each concept's tree numbers give way to its parents, in place;
    # concepts with the same parents share one set
    parents: dict[str, frozenset[str]] = trees_of  # type: ignore[assignment]
    shared: dict[frozenset[str], frozenset[str]] = {}
    for concept_id, trees in trees_of.items():
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
        ps = frozenset(owners)
        parents[concept_id] = shared.setdefault(ps, ps)
    del tree_owner, shared

    dropped = 0
    for key, cids in truncated.items():
        owners = set(cids).union(exact.get(key, ()))
        if len(owners) == 1:
            if key not in exact:
                exact[key] = cids
                first = key.partition(" ")[0]
                masks[first] = masks.get(first, 0) | 1 << (MAX_PHRASE_LEN - 1)
        else:
            dropped += 1
            log.warning(
                "long entry terms truncating to %r are ambiguous across %s; dropped",
                key, sorted(owners),
            )

    phrase_widths = {first: _WIDTHS[mask] for first, mask in masks.items()}

    onto = Ontology(parents=parents, phrase_index=exact,
                    stopwords=stopwords, phrase_widths=phrase_widths)
    onto.depth()  # raises on a hierarchy cycle
    if log.isEnabledFor(logging.INFO):
        log.info(
            "ontology: %d concepts, %d index keys, %d with more than one "
            "sense, %d ambiguous truncations dropped",
            len(parents), len(exact),
            sum(len(cids) > 1 for cids in exact.values()), dropped,
        )
    return onto
