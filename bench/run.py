"""Benchmark of the cross-validated ontoclass pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory. The command generates the
workload's inputs from the seed (untimed), then runs whole rounds for
about S seconds. A round is one fresh single-threaded process that does
what ``ontoclass evaluate --config`` does and then checks the outputs
(see ``worker.py``). Each document of the corpus is one operation; a
document fails when a per-document check on it fails, and every document
of a round that raises fails.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, each the mean over the rounds. With
``--trace 1`` every round runs once untraced and once traced, and the
object holds the per-layer metrics of the traced runs plus the tracing
overhead. Inputs, reports and spans go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

#: No round starts once a run has used this much of its 180 s.
HARD_LIMIT_S = 120.0

END_TO_END = (("setup_s", "s"), ("evaluate_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {
    "corpus.docs": "count", "ontology.concepts": "count",
    "ontology.index_keys": "count", "preprocess.tokens": "count",
    "preprocess.distinct_stems": "count",
    "mapping.concept_occurrences": "count", "mapping.consumed_share": "share",
    "features.scored_pairs": "count", "features.selected_descriptors": "count",
    "features.zero_rows": "count", "classify.queries": "count",
    "classify.tree_nodes": "count",
}


def _worker(inputs: Path, spans: Path | None, timeout: float) -> dict:
    """One round in a fresh process, traced when `spans` is given.

    A crash or a timeout fails the round.
    """
    # one thread everywhere: folds share 2 cores with everything else
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs)]
    if spans is not None:
        cmd += ["--trace", "1", "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["round timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "problems": [
            f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import gen

    parser = argparse.ArgumentParser(description="ontoclass pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ontoclass" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'ontoclass'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    summary = gen.generate(args.workload, args.seed, inputs, ROOT)

    start = perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    while True:
        began = perf_counter()
        budget = HARD_LIMIT_S + 40.0 - (began - start)
        untraced.append(_worker(inputs, None, budget))
        if args.trace:
            traced.append(_worker(inputs, work / f"spans-{len(traced)}.json",
                                  budget - (perf_counter() - began)))
        walls.append(perf_counter() - began)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(walls) > min(args.seconds, HARD_LIMIT_S):
            break

    everything = untraced + traced
    n_docs = summary["documents"]
    attempted = n_docs * len(everything)
    failed = sum(len(r["failed_docs"]) if r["ok"] else n_docs for r in everything)
    correct = True
    for r in everything:
        for problem in r.get("problems", ()):
            print(f"check failed: {problem}", file=sys.stderr)
        for doc_id, why in r.get("unexpected", {}).items():
            print(f"document {doc_id} failed: {why}", file=sys.stderr)
        correct &= r["ok"] and not r["problems"] and not r["unexpected"]

    ok_untraced = [r for r in untraced if r["ok"]]
    ok_traced = [r for r in traced if r["ok"]]
    metrics: dict[str, dict] = {}
    if args.trace and ok_traced and ok_untraced:
        for name in ok_traced[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in ok_traced)
            metrics[name] = {"value": value,
                             "unit": PER_LAYER_UNITS.get(name, "s")}
        metrics["trace.overhead_s"] = {
            "value": _median(ok_traced, "evaluate_s")
            - _median(ok_untraced, "evaluate_s"),
            "unit": "s"}
    elif not args.trace and ok_untraced:
        # the mean, not the median: the machine's speed drifts for minutes,
        # and the mean of a run's rounds spreads least between runs
        # (README.md, "Steadiness")
        for name, unit in END_TO_END:
            value = statistics.fmean(r[name] for r in ok_untraced)
            metrics[name] = {"value": value, "unit": unit}

    print(f"{args.workload} seed {args.seed}: {len(untraced)} rounds of "
          f"{n_docs} documents ({summary['fault_documents']} carry '<' "
          f"notation), {perf_counter() - start:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(
        json.dumps({**result, "inputs": summary, "rounds": everything}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
