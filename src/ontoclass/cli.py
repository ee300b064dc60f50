"""Command-line driver: ingest -> ontology-check -> map -> select ->
evaluate -> report. Each stage reads the configured inputs; of the files
the stages write, only `corpus.jsonl` (as a `jsonl` corpus) and
`report.csv` are read back.

Exit status 0 on success, 2 for configuration problems (the offending
field is named), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .corpus import (
    assign_labels,
    load_corpus_jsonl,
    load_label_map,
    load_ohsumed,
    parse_textdir,
    save_corpus_jsonl,
)
from .errors import ConfigError, OntoclassError
from .evaluate import (
    read_report_csv,
    render_table,
    representation_vectors,
    run_experiment,
    write_report,
)
from .features import count_matrix, save_matrix, select_top_k
from .ontology import import_mesh_ascii, load_ontology
from .preprocess import load_stoplist

log = logging.getLogger(__name__)

CONFIG_ENV = "ONTOCLASS_CONFIG"


def _require_config(args: argparse.Namespace) -> ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    if not path:
        raise ConfigError(
            "config", f"no config file given (use --config or ${CONFIG_ENV})"
        )
    return load_config(path)


def _load_labeled_corpus(config: ExperimentConfig):
    path = config.resolve(config.corpus_path)
    if config.corpus_format == "ohsumed":
        corpus = load_ohsumed(path)
    elif config.corpus_format == "jsonl":
        corpus = load_corpus_jsonl(path)
    else:
        corpus = parse_textdir(path)
    if config.label_map:
        label_map = load_label_map(config.resolve(config.label_map))
        corpus = assign_labels(
            corpus,
            label_map,
            categories=config.categories or None,
            policy=config.label_policy,
        )
    elif config.categories and config.corpus_format != "ohsumed":
        # textdir and jsonl documents carry their own labels
        own_labels = {d.doc_id: d.labels for d in corpus.documents if d.labels}
        corpus = assign_labels(
            corpus, own_labels,
            categories=config.categories, policy=config.label_policy,
        )
    return corpus


def _load_ontology(config: ExperimentConfig):
    path = config.resolve(config.ontology_path)
    stopwords = load_stoplist(config.resolve(config.stoplist))
    if config.ontology_format == "mesh-ascii":
        return import_mesh_ascii(path, stopwords)
    return load_ontology(path, stopwords)


def _out_dir(config: ExperimentConfig) -> Path:
    out = config.resolve(config.output_dir) or config.base_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _require_config(args)
    corpus = _load_labeled_corpus(config)
    out = Path(args.out) if args.out else _out_dir(config) / "corpus.jsonl"
    save_corpus_jsonl(corpus, out)
    print(
        f"{len(corpus)} documents, {len(corpus.categories)} categories, "
        f"{len(corpus.dropped)} dropped -> {out}"
    )
    return 0


def _cmd_ontology_check(args: argparse.Namespace) -> int:
    config = _require_config(args)
    if not config.ontology_path:
        raise ConfigError("ontology.path", "required for ontology-check")
    onto = _load_ontology(config)
    n = len(onto)
    roots = len(onto.roots())
    print(
        f"{n} concept{'s' if n != 1 else ''}, "
        f"{roots} root{'s' if roots != 1 else ''}, depth {onto.depth()}"
    )
    return 0


def _inputs(config: ExperimentConfig):
    """The labeled corpus, and the ontology unless the run uses stems,
    which need no thesaurus."""
    corpus = _load_labeled_corpus(config)
    if config.representation == "stems":
        return corpus, None
    return corpus, _load_ontology(config)


def _cmd_map(args: argparse.Namespace) -> int:
    config = _require_config(args)
    vectors = representation_vectors(*_inputs(config), config)
    matrix = count_matrix(vectors)
    out = _out_dir(config) / "vectors.mtx"
    save_matrix(matrix, out)
    print(f"{len(vectors)} documents x {len(matrix.descriptors)} descriptors "
          f"-> {out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    config = _require_config(args)
    corpus, ontology = _inputs(config)
    if not corpus.categories:
        raise ConfigError("corpus.label_map", "labeled corpus required for select")
    vectors = representation_vectors(corpus, ontology, config)
    space = select_top_k(
        vectors, k=config.k_features, categories=corpus.categories
    )
    out = _out_dir(config) / "features.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# k = {config.k_features}\n")
        for cat in corpus.categories:
            for desc in space.selected[cat]:
                score = space.per_category_scores[(cat, desc)]
                fh.write(f"{cat}\t{desc}\t{score!r}\n")
    print(f"{len(space.descriptors)} descriptors selected -> {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _require_config(args)
    corpus, ontology = _inputs(config)
    report = run_experiment(corpus, ontology, config, threads=args.threads)
    csv_path, txt_path = write_report(report, _out_dir(config))
    print(render_table(report), end="")
    print(f"report -> {csv_path} and {txt_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _require_config(args)
    path = Path(args.report) if args.report else _out_dir(config) / "report.csv"
    if not path.exists():
        raise OntoclassError(f"no cached report at {path}; run evaluate first")
    report = read_report_csv(path)
    print(render_table(report), end="")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoclass",
        description="Classify medical text with ontology-concept representations.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            help=f"experiment config INI (default: ${CONFIG_ENV})",
        )
        p.set_defaults(func=func)
        return p

    p = add("ingest", _cmd_ingest, "parse the corpus and cache it as JSON lines")
    p.add_argument("--out", help="cache file (default: <output_dir>/corpus.jsonl)")
    add("ontology-check", _cmd_ontology_check,
        "load the ontology and print concept/root/depth stats")
    add("map", _cmd_map, "dump document vectors in the sparse-matrix format")
    add("select", _cmd_select, "dump the per-category selected descriptors")
    p = add("evaluate", _cmd_evaluate, "run cross-validation and write the report")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads for fold evaluation (default 1)")
    p = add("report", _cmd_report, "render a cached report")
    p.add_argument("--report", help="report CSV (default: <output_dir>/report.csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OntoclassError, OSError, UnicodeDecodeError) as exc:
        print(f"error [{args.command}] {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
