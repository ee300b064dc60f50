"""Thesaurus model: each concept's direct parents, taken from its tree
numbers, plus a stemmed phrase index over its names and entry terms.

Two loaders are provided, one for a portable tab-separated interchange
format and one for the NLM ASCII descriptor format. Both feed the same
builder, so equivalent content yields identical ontologies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

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
    rows: list[tuple[str, str, list[str], list[str]]] = []
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
            rows.append((concept_id, preferred, trees, entries))
    return build_ontology(rows, stopwords)


def import_mesh_ascii(
    path: str | Path, stopwords: frozenset[str] | None = None
) -> Ontology:
    """Load the NLM ASCII descriptor format.

    Records are separated by ``*NEWRECORD`` lines and carry ``KEY = value``
    lines; only MH, UI, MN, ENTRY and PRINT ENTRY are used. ENTRY values
    keep their first '|'-delimited field. Records missing MH or UI are
    skipped with a warning.
    """
    rows: list[tuple[str, str, list[str], list[str]]] = []
    skipped = 0

    record: dict[str, list[str]] = {}

    def flush():
        nonlocal skipped
        if not record:
            return
        name = record.get("MH", [""])[0]
        uid = record.get("UI", [""])[0]
        if not name or not uid:
            log.warning("descriptor record missing MH or UI; skipped")
            skipped += 1
            record.clear()
            return
        entries = [v.split("|", 1)[0].strip() for v in record.get("ENTRY", [])]
        entries += [v.split("|", 1)[0].strip() for v in record.get("PRINT ENTRY", [])]
        rows.append((uid, name, record.get("MN", []), [e for e in entries if e]))
        record.clear()

    with open_utf8(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line == "*NEWRECORD":
                flush()
                continue
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in {"MH", "UI", "MN", "ENTRY", "PRINT ENTRY"} and value:
                record.setdefault(key, []).append(value)
    flush()

    if not rows and skipped:
        raise OntologyError("no valid descriptor records")
    return build_ontology(rows, stopwords)


def build_ontology(
    rows: list[tuple[str, str, list[str], list[str]]],
    stopwords: frozenset[str] | None = None,
) -> Ontology:
    """Assemble an Ontology from (id, preferred, trees, entries) rows.

    Hierarchy comes from tree numbers: the parent of C01.539.100 is the
    concept owning C01.539; a tree number whose parent path is owned by no
    concept makes that position a root (with a warning). Entry terms
    longer than MAX_PHRASE_LEN stemmed tokens are indexed under their
    leading tokens only when that truncated key identifies the concept
    uniquely; otherwise they are dropped.
    """
    if not rows:
        raise OntologyError("no concepts")
    if stopwords is None:
        stopwords = load_stoplist()

    tree_owner: dict[str, str] = {}
    for concept_id, _, trees, _ in rows:
        for tn in trees:
            if tn in tree_owner:
                raise OntologyError(
                    f"tree number {tn} owned by both {tree_owner[tn]} and {concept_id}"
                )
            tree_owner[tn] = concept_id

    parents: dict[str, frozenset[str]] = {}
    first_tree: dict[str, str] = {}  # ranks a key's senses
    for concept_id, _, trees, _ in rows:
        if concept_id in parents:
            raise OntologyError(f"duplicate concept id {concept_id!r}")
        first_tree[concept_id] = min(trees, default=_NO_TREE)
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

    # index construction: exact keys first, then unambiguous truncations
    exact: dict[str, dict[str, bool]] = {}
    truncated: dict[str, dict[str, bool]] = {}
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
                slot[concept_id] = slot.get(concept_id, False) or is_pref
            else:
                key = " ".join(tokens[:MAX_PHRASE_LEN])
                slot = truncated.setdefault(key, {})
                slot[concept_id] = slot.get(concept_id, False) or is_pref

    dropped = 0
    for key, candidates in truncated.items():
        owners = set(candidates) | set(exact.get(key, {}))
        if len(owners) == 1:
            slot = exact.setdefault(key, {})
            for cid, is_pref in candidates.items():
                slot[cid] = slot.get(cid, False) or is_pref
        else:
            dropped += 1
            log.warning(
                "long entry terms truncating to %r are ambiguous across %s; dropped",
                key, sorted(owners),
            )

    def order_key(key: str):
        def rank(cid: str) -> tuple:
            return (0 if exact[key][cid] else 1, first_tree[cid], cid)
        return rank

    # most keys name one concept, and one candidate needs no ranking
    phrase_index = {
        key: tuple(cids) if len(cids) == 1
        else tuple(sorted(cids, key=order_key(key)))
        for key, cids in exact.items()
    }

    masks: dict[str, int] = {}
    for key in phrase_index:
        first = key.partition(" ")[0]
        masks[first] = masks.get(first, 0) | 1 << key.count(" ")
    phrase_widths = {first: _WIDTHS[mask] for first, mask in masks.items()}

    onto = Ontology(parents=parents, phrase_index=phrase_index,
                    stopwords=stopwords, phrase_widths=phrase_widths)
    onto.depth()  # raises on a hierarchy cycle
    if log.isEnabledFor(logging.INFO):
        log.info(
            "ontology: %d concepts, %d index keys, %d with more than one "
            "sense, %d ambiguous truncations dropped",
            len(parents), len(phrase_index),
            sum(len(cids) > 1 for cids in phrase_index.values()), dropped,
        )
    return onto
