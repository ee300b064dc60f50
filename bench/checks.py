"""Output checks computed apart from the program.

Every check recomputes a result from the generator's truth, from the
inputs a layer was given, or from first principles, and compares it with
what the program produced. None of them calls into ``ontoclass``; they
only read the fields of the objects the program returned.

A check returns a list of problems (empty when it passes), except the
per-document check, which returns the failed documents with the reason.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

import numpy as np

#: Relative tolerance when a float is recomputed by other arithmetic.
REL_TOL = 1e-9

TERM, CONCEPT = "t:", "c:"


def descriptor_set(vector) -> set[str]:
    return ({TERM + s for s in vector.term_part}
            | {CONCEPT + c for c in vector.concept_part.counts})


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# -- per-document checks ----------------------------------------------------

def document_failures(totals: dict[str, int], vectors: dict, truth: dict) -> dict[str, str]:
    """(a) stem totals and (b) planted concepts, one verdict per document.

    `totals` maps doc_id to the stem count preprocessing produced;
    `vectors` maps doc_id to the document's mapped vector.
    """
    failed: dict[str, str] = {}
    stems_only = truth["representation"] == "stems"
    parents = truth["parents"]
    for doc_id, want in truth["docs"].items():
        got = totals.get(doc_id)
        if got != want["content_tokens"]:
            failed[doc_id] = f"(a) {got} stems, {want['content_tokens']} written"
            continue
        v = vectors.get(doc_id)
        if v is None:
            failed[doc_id] = "(b) document missing from the mapped vectors"
            continue
        if stems_only:
            short = [w for w, n in want["words"].items()
                     if v.term_part.get(w, 0) < n]
            if short:
                failed[doc_id] = f"(b) planted stems short: {short[:3]}"
            continue
        counts = v.concept_part.counts
        short = [c for c, n in want["concepts"].items() if counts.get(c, 0) < n]
        if truth["hyperonyms"]:
            short += [p for c, n in want["concepts"].items()
                      for p in parents[c] if counts.get(p, 0) < n]
        if short:
            failed[doc_id] = f"(b) planted concepts short: {short[:3]}"
    return failed


# -- features ------------------------------------------------------------------

def _presence(train, categories):
    """Per-descriptor document counts by category, and category sizes."""
    cat_index = {c: i for i, c in enumerate(categories)}
    col: dict[str, int] = {}
    rows: list[int] = []
    cats: list[int] = []
    sizes = np.zeros(len(categories), dtype=np.int64)
    for v in train:
        ci = cat_index[v.labels[0]]
        sizes[ci] += 1
        for d in descriptor_set(v):
            rows.append(col.setdefault(d, len(col)))
            cats.append(ci)
    counts = np.zeros((len(col), len(categories)), dtype=np.int64)
    np.add.at(counts, (np.array(rows, dtype=np.int64), np.array(cats, dtype=np.int64)), 1)
    return col, counts, sizes


def chi_square_definition(o11: int, o10: int, o01: int, o00: int) -> float:
    """Sum over the four cells of (observed - expected)^2 / expected."""
    n = o11 + o10 + o01 + o00
    rows = (o11 + o10, o01 + o00)
    cols = (o11 + o01, o10 + o00)
    if 0 in rows or 0 in cols:
        return 0.0
    total = 0.0
    for (i, j), o in {(0, 0): o11, (0, 1): o10, (1, 0): o01, (1, 1): o00}.items():
        e = rows[i] * cols[j] / n
        total += (o - e) ** 2 / e
    return total


def _chi_square_all(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The same definition for every descriptor x category at once."""
    n = float(sizes.sum())
    o11 = counts.astype(np.float64)
    o10 = sizes[None, :] - o11
    o01 = counts.sum(axis=1, keepdims=True) - o11
    o00 = n - o11 - o10 - o01
    total = np.zeros_like(o11)
    degenerate = np.zeros(o11.shape, dtype=bool)
    for o, r, c in ((o11, o11 + o10, o11 + o01), (o10, o11 + o10, o10 + o00),
                    (o01, o01 + o00, o11 + o01), (o00, o01 + o00, o10 + o00)):
        degenerate |= (r == 0) | (c == 0)
        e = np.divide(r * c, n)
        total += np.divide((o - e) ** 2, e, out=np.zeros_like(e), where=e > 0)
    total[degenerate] = 0.0
    return total


def feature_selection(train, categories, k: int, selected: dict,
                      sampled: list[tuple[str, str, float]]) -> list[str]:
    """Chi-square of sampled pairs by definition, and the top-K rank property.

    `sampled` holds (category, descriptor, program score) triples.
    """
    problems: list[str] = []
    col, counts, sizes = _presence(train, categories)
    cat_index = {c: i for i, c in enumerate(categories)}
    n = int(sizes.sum())
    for cat, desc, score in sampled:
        ci = cat_index[cat]
        row = col.get(desc)
        o11 = int(counts[row, ci]) if row is not None else 0
        with_desc = int(counts[row].sum()) if row is not None else 0
        want = chi_square_definition(o11, int(sizes[ci]) - o11, with_desc - o11,
                                     n - int(sizes[ci]) - (with_desc - o11))
        if not _close(want, score):
            problems.append(f"chi-square({cat!r}, {desc!r}) = {score}, "
                            f"definition gives {want}")
    scores = _chi_square_all(counts, sizes)
    # exact integers decide which scores are 0: a*d - b*c = 0 or a
    # degenerate table, where float rounding could leave a tiny residue
    with_desc = counts.sum(axis=1, keepdims=True)
    o10 = sizes[None, :] - counts
    o01 = with_desc - counts
    o00 = n - counts - o10 - o01
    nonzero = (counts * o00 != o10 * o01) & (scores > 0)
    for cat, ci in cat_index.items():
        chosen = set(selected.get(cat, ()))
        column = scores[:, ci]
        positive = nonzero[:, ci]
        expected = min(k, int(positive.sum()))
        if len(chosen) != expected:
            problems.append(f"{cat!r}: {len(chosen)} selected, "
                            f"{expected} expected")
            continue
        mask = np.zeros(len(col), dtype=bool)
        mask[[col[d] for d in chosen if d in col]] = True
        if mask.sum() != len(chosen) or (~positive & mask).any():
            problems.append(f"{cat!r}: a selected descriptor scores 0")
            continue
        rest = column[positive & ~mask]
        if chosen and rest.size:
            low, high = column[mask].min(), rest.max()
            if high > low and not _close(high, low):
                problems.append(f"{cat!r}: unselected score {high} beats "
                                f"selected score {low}")
    return problems


# -- classifiers ----------------------------------------------------------------

def _majority(labels) -> str:
    counts = Counter(labels)
    return min(counts, key=lambda c: (-counts[c], c))


def knn(train, train_labels, k: int, queries, predictions, sample: int) -> list[str]:
    """Brute-force cosine top-k for a sample of query rows.

    Each sampled query is made dense and compared with every training
    row. `train` and `queries` are sparse row matrices; `predictions` holds
    the program's (category, votes) per query. A disagreement counts
    only when the k-th and (k+1)-th similarities, or the two best
    candidates, are not tied to within rounding.
    """
    problems: list[str] = []
    n_train = train.shape[0]
    t_norm = np.sqrt(np.asarray(train.multiply(train).sum(axis=1)).ravel())
    picks = np.unique(np.linspace(0, queries.shape[0] - 1,
                                  min(sample, queries.shape[0])).astype(int))
    fallback = _majority(train_labels)
    for i in picks:
        q = queries[i].toarray().ravel()
        got_cat, got_votes = predictions[i]
        q_norm = math.sqrt(float(q @ q))
        if q_norm == 0.0:
            if got_votes or got_cat != fallback:
                problems.append(f"query {i}: zero query gave {got_cat!r} "
                                f"{got_votes}, majority is {fallback!r}")
            continue
        cos = np.divide(train @ q, t_norm * q_norm,
                        out=np.zeros(n_train), where=t_norm > 0)
        order = np.lexsort((np.arange(n_train), -cos))
        top = order[:k]
        votes: Counter = Counter()
        sums: dict[str, float] = {}
        for j in top:
            votes[train_labels[j]] += 1
            sums[train_labels[j]] = sums.get(train_labels[j], 0.0) + cos[j]
        ranked = sorted(votes, key=lambda c: (-votes[c], -sums[c], c))
        if ranked[0] == got_cat and dict(votes) == got_votes:
            continue
        boundary_tie = k < n_train and _close(cos[order[k - 1]], cos[order[k]])
        winner_tie = (len(ranked) > 1 and votes[ranked[0]] == votes[ranked[1]]
                      and _close(sums[ranked[0]], sums[ranked[1]]))
        if not (boundary_tie or winner_tie):
            problems.append(f"query {i}: program {got_cat!r} {got_votes}, "
                            f"brute force {ranked[0]!r} {dict(votes)}")
    return problems


def tree_counts(train, train_labels, tree) -> list[str]:
    """Each node's class counts equal the training rows routed to it."""
    problems: list[str] = []
    columns = train.tocsc()
    labels = np.asarray(train_labels, dtype=object)
    stack = [(tree, np.arange(train.shape[0]), "root")]
    while stack:
        node, rows, path = stack.pop()
        routed = dict(Counter(labels[rows]))
        if routed != node.class_counts:
            problems.append(f"node {path}: class counts {node.class_counts}, "
                            f"routed rows {routed}")
        if node.descriptor is None:
            continue
        values = columns[:, node.col].toarray().ravel()[rows]
        left = values <= node.threshold
        stack.append((node.left, rows[left], path + ".L"))
        stack.append((node.right, rows[~left], path + ".R"))
    return problems


# -- report ---------------------------------------------------------------------

def report(rep, csv_path, truth: dict) -> list[str]:
    """Counts against category sizes, P/R/F recomputed, CSV read back."""
    problems: list[str] = []
    sizes = truth["category_sizes"]
    n_docs = sum(sizes.values())
    f_values = []
    for m in rep.per_category:
        if m.tp + m.fn != sizes[m.category]:
            problems.append(f"{m.category!r}: tp+fn = {m.tp + m.fn}, "
                            f"category size {sizes[m.category]}")
        p = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
        r = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        f_values.append(f)
        if not (_close(p, m.precision) and _close(r, m.recall)
                and _close(f, m.f_measure)):
            problems.append(f"{m.category!r}: P/R/F {m.precision}/{m.recall}/"
                            f"{m.f_measure}, counts give {p}/{r}/{f}")
        fold_sums = [sum(getattr(fm, slot) for fold in rep.per_fold
                         for fm in fold if fm.category == m.category)
                     for slot in ("tp", "fp", "fn")]
        if fold_sums != [m.tp, m.fp, m.fn]:
            problems.append(f"{m.category!r}: folds sum to {fold_sums}")
    macro = sum(f_values) / len(f_values)
    if not _close(macro, rep.macro_f):
        problems.append(f"macro-F {rep.macro_f}, counts give {macro}")
    largest = max(sizes.values())
    baseline = (2 * (largest / n_docs) / (largest / n_docs + 1)) / len(sizes)
    if not rep.macro_f > baseline:
        problems.append(f"macro-F {rep.macro_f} does not beat the "
                        f"majority-class baseline {baseline}")
    with open(csv_path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    pooled = {r[1]: r for r in rows[1:] if r[0] == "pooled"}
    for m in rep.per_category:
        r = pooled.get(m.category)
        if r is None or [int(x) for x in r[2:5]] != [m.tp, m.fp, m.fn] \
                or float(r[7]) != m.f_measure:
            problems.append(f"report.csv row for {m.category!r} disagrees")
    if "AvG" not in pooled or float(pooled["AvG"][7]) != rep.macro_f:
        problems.append("report.csv macro-F row disagrees")
    return problems
