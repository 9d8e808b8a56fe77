"""Command-line pipeline: synth -> build-graph -> cluster -> evaluate,
plus epsilon sweeps and sensitivity reports.

Every command validates its configuration up front, writes the configuration
(with a hash) into the output directory, and is a pure function of its inputs:
rerunning with the same arguments reproduces byte-identical files. The block
commands run each block (each (epsilon, block) in a sweep) on its own: one
that raises prints `<command>: <name> failed: <Type>: <message>`, the rest
are still written, and the command exits with status 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus as corpus_mod, metrics as metrics_mod
from .corpus import CorpusError, SynthConfig, split_blocks
from .graphsynth import build_graph
from .partition import cluster
from .persist import (config_hash, fmt9, read_graph_tsv, read_json,
                      read_partition_csv, write_graph_tsv, write_json,
                      write_partition_csv)
from .privacy import (BlockPairs, PrivacyError, PrivacyParams, SimilarityOracle,
                      sensitivity_report)


def _parse_epsilon(text: str) -> float | None:
    if text.lower() == "off":
        return None
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("epsilon must be a positive finite number or 'off'")
    return value


def _parse_epsilon_list(text: str) -> list[float | None]:
    values = [_parse_epsilon(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("the epsilon grid has no values")
    return values


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than lo."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _outdir(args, config: dict) -> Path:
    """Make --out and write its config.json.

    Each command calls it only once its input is read and checked.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", {"command": args.command, "config": config,
                                     "version": __version__, "config_hash": config_hash(config)})
    return out


def _each_block(command: str, jobs, work) -> int:
    """Call work(*args) for each (name, args) job; a job that raises fails alone.

    work returns the job's stdout line, or None for no line. A failure prints
    `<command>: <name> failed: <Type>: <message>` on stderr and the next job
    runs. Returns 1 when any job failed, else 0.
    """
    failures = 0
    for name, args in jobs:
        try:
            line = work(*args)
        except Exception as exc:  # noqa: BLE001 - per-block isolation
            print(f"{command}: {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if line is not None:
            print(line)
    return 1 if failures else 0


def _block_views(args, data) -> list:
    """(block id, view) of each block of data, or of the pooled corpus, with 2 records or more.

    A smaller block has no pairs: it is reported on stderr and skipped. Only
    the block offsets are read, so a command can stop before it makes --out.
    """
    blocks = [(0, data)] if args.pooled else zip(data.block_ids.tolist(), split_blocks(data))
    kept = []
    for block_id, view in blocks:
        if len(view) < 2:
            print(f"{args.command}: block {block_id} has {len(view)} record(s); skipped",
                  file=sys.stderr)
            continue
        kept.append((block_id, view))
    return kept


def _block_files(directory: Path, prefix: str, suffix: str) -> list[tuple[int, Path]]:
    """(block id, path) of each `{prefix}<block id>{suffix}` file, ordered by block id.

    A block id is written as str(int) writes it: 0, or digits with no
    leading zero. Other names that match the glob (`graph_block0.old.json`,
    `graph_block01.json`, ...) are ignored, so no block is read twice.
    """
    name = re.compile(re.escape(prefix) + r"(0|[1-9][0-9]*)" + re.escape(suffix))
    return sorted((int(m.group(1)), path) for path in directory.glob(f"{prefix}*{suffix}")
                  if (m := name.fullmatch(path.name)))


def _build_block_graph(pairs: BlockPairs, params: PrivacyParams, k_max: int):
    """The block's graph and sidecar; pairs is the block's state, shared across epsilons."""
    oracle = SimilarityOracle(pairs, params)
    graph, trace = build_graph(oracle, k_max=k_max)
    n = pairs.n
    sidecar = {
        "block": pairs.block_id,
        "n": n,
        "nodes": pairs.block.ids,
        "epsilon": "off" if params.off else params.epsilon,
        "mode": params.sensitivity_mode,
        "pairs_queried": 0 if params.off else n * (n - 1) // 2,
        "knn_trace": trace.to_dict(),
        "sensitivity_report": oracle.report.to_dict(),
        "num_edges": graph.num_edges,
    }
    return graph, sidecar


def cmd_synth(args) -> int:
    config = SynthConfig(num_events=args.events, points_per_event=args.points,
                         dim=args.dim, intra_concentration=args.concentration,
                         attribute_sharing_prob=args.share_prob, seed=args.seed)
    out = _outdir(args, config.to_dict())
    generated = corpus_mod.generate(config)
    corpus_mod.export(generated, out / "corpus.jsonl")
    manifest = {"n_records": len(generated), "seed": args.seed,
                "config_hash": config_hash(config.to_dict()),
                "labels": sorted(set(generated.labels))}
    write_json(out / "manifest.json", manifest)
    print(f"synth: wrote {len(generated)} records to {out / 'corpus.jsonl'}")
    return 0


def cmd_build_graph(args) -> int:
    data = corpus_mod.ingest(args.input)
    params = PrivacyParams(epsilon=args.epsilon, sensitivity_mode=args.mode)
    blocks = _block_views(args, data)
    if not blocks:
        print("build-graph: nothing built", file=sys.stderr)
        return 1
    out = _outdir(args, {
        "input": str(args.input), "epsilon": "off" if params.off else params.epsilon,
        "mode": args.mode, "seed": args.seed, "kmax": args.kmax, "pooled": args.pooled,
    })

    def build(block_id, view):
        graph, sidecar = _build_block_graph(BlockPairs(view, block_id, args.seed), params,
                                            args.kmax)
        write_graph_tsv(out / f"graph_block{block_id}.tsv", graph, sidecar["nodes"])
        write_json(out / f"graph_block{block_id}.json", sidecar)
        return (f"build-graph: block {block_id}: n={sidecar['n']} edges={graph.num_edges} "
                f"chosen_k={sidecar['knn_trace']['chosen_k']}")

    return _each_block("build-graph", [(f"block {b}", (b, view)) for b, view in blocks], build)


def cmd_cluster(args) -> int:
    graphs_dir = Path(args.graphs)
    sidecars = _block_files(graphs_dir, "graph_block", ".json")
    if not sidecars:
        print(f"cluster: no graph_block*.json files under {graphs_dir}", file=sys.stderr)
        return 1
    out = _outdir(args, {"graphs": str(graphs_dir), "q0": args.q0, "grouping": args.grouping})

    def cluster_block(block_id, sidecar_path):
        sidecar = read_json(sidecar_path)
        if sidecar["block"] != block_id:
            raise ValueError(f"sidecar is for block {sidecar['block']!r}, "
                             f"file name says {block_id}")
        tsv = graphs_dir / f"graph_block{block_id}.tsv"
        if not tsv.exists():
            raise FileNotFoundError(f"missing graph file {tsv}")
        graph = read_graph_tsv(tsv, sidecar["nodes"])
        run = cluster(graph, q0=args.q0, grouping=args.grouping)
        write_partition_csv(out / f"partition_block{block_id}.csv", sidecar["nodes"], run.final)
        write_json(out / f"run_block{block_id}.json", dict(run.to_dict(), block=block_id))
        return (f"cluster: block {block_id}: {run.final.num_communities} communities "
                f"in {len(run.rounds)} round(s)")

    return _each_block("cluster", [(path.name, (b, path)) for b, path in sidecars],
                       cluster_block)


def cmd_evaluate(args) -> int:
    data = corpus_mod.ingest(args.input)
    labels_by_id = dict(zip(data.ids, data.labels))
    # a partition must list exactly one block's records, or all of them (--pooled)
    ids_of_block = {block_id: set(view.ids)
                    for block_id, view in zip(data.block_ids.tolist(), split_blocks(data))}
    partitions_dir = Path(args.partitions)
    files = _block_files(partitions_dir, "partition_block", ".csv")
    if not files:
        print(f"evaluate: no partition_block*.csv files under {partitions_dir}", file=sys.stderr)
        return 1
    out = _outdir(args, {"input": str(args.input), "partitions": str(partitions_dir)})
    per_block = []

    def score(block_id, path):
        ids, clusters = read_partition_csv(path)
        unknown = [i for i in ids if i not in labels_by_id]
        if unknown:
            shown = ", ".join(repr(i) for i in unknown[:5])
            raise ValueError(f"{len(unknown)} id(s) not in the corpus: {shown}"
                             + (", ..." if len(unknown) > 5 else ""))
        block = ids_of_block.get(block_id, set())
        if len(ids) != len(labels_by_id) and set(ids) != block:
            inside = len(block.intersection(ids))
            raise ValueError(f"lists {inside} of the {len(block)} record(s) of block "
                             f"{block_id} and {len(ids) - inside} of other blocks; "
                             "expected the whole block, or every record")
        truth = [labels_by_id[i] for i in ids]
        if any(t is None for t in truth):
            print(f"evaluate: block {block_id} has unlabeled records; skipped", file=sys.stderr)
            return None
        result = dict(metrics_mod.evaluate(truth, clusters), block=block_id)
        write_json(out / f"metrics_block{block_id}.json", result)
        per_block.append(result)
        return f"evaluate: block {block_id}: ami={result['ami']:.4f} ari={result['ari']:.4f}"

    status = _each_block("evaluate", [(path.name, (b, path)) for b, path in files], score)
    if not per_block:
        print("evaluate: nothing evaluated", file=sys.stderr)
        return 1
    summary = {
        "blocks": [r["block"] for r in per_block],
        "mean_ami": float(np.mean([r["ami"] for r in per_block])),
        "mean_ari": float(np.mean([r["ari"] for r in per_block])),
    }
    write_json(out / "metrics_summary.json", summary)
    print(f"evaluate: mean ami={summary['mean_ami']:.4f} mean ari={summary['mean_ari']:.4f}")
    return status


def run_pipeline(pairs: BlockPairs, params: PrivacyParams, k_max: int, q0: int):
    """In-memory build-graph + cluster + evaluate for one block."""
    graph, sidecar = _build_block_graph(pairs, params, k_max)
    run = cluster(graph, q0=q0)
    result = {"block": pairs.block_id, "s_mixed": sidecar["sensitivity_report"]["s_mixed"],
              "num_communities": run.final.num_communities}
    if pairs.block.has_labels():
        result.update(metrics_mod.evaluate(pairs.block.labels, run.final.assignment.tolist()))
    return result


def cmd_sweep(args) -> int:
    data = corpus_mod.ingest(args.input)
    epsilons = list(args.epsilons)
    if args.include_off and None not in epsilons:
        epsilons.append(None)
    q0 = args.q0 if args.q0 is not None else (300 if args.pooled else 400)
    grid = tuple(PrivacyParams(epsilon=e, sensitivity_mode=args.mode) for e in epsilons)
    # each block's epsilon-independent state, the neighbour tables of the
    # whole grid included, fills during its first pipeline
    blocks = [(block_id, BlockPairs(view, block_id, args.seed, grid))
              for block_id, view in _block_views(args, data)]
    if not blocks:
        print("sweep: nothing swept", file=sys.stderr)
        return 1
    # as in evaluate, only fully labelled blocks are scored
    unscored = [block_id for block_id, pairs in blocks if not pairs.block.has_labels()]
    for block_id in unscored:
        print(f"sweep: block {block_id} has unlabeled records; not scored", file=sys.stderr)
    labels = ["off" if e is None else e for e in epsilons]
    out = _outdir(args, {"input": str(args.input), "epsilons": labels, "mode": args.mode,
                         "seed": args.seed, "kmax": args.kmax, "q0": q0, "pooled": args.pooled})
    rows = []

    def sweep_point(label, params, pairs):
        result = run_pipeline(pairs, params, args.kmax, q0)
        rows.append({**result, "epsilon": label})
        point = f"sweep: epsilon={label} block={pairs.block_id}"
        if "ari" not in result:  # an unscored block has no AMI or ARI
            return f"{point} not scored"
        return f"{point} ami={result['ami']:.4f} ari={result['ari']:.4f}"

    status = _each_block("sweep", [(f"epsilon={label} block={b}", (label, params, pairs))
                                   for label, params in zip(labels, grid)
                                   for b, pairs in blocks], sweep_point)
    if not rows:
        return 1
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("epsilon,block,ami,ari,s_mixed\n")
        for r in rows:
            scores = ",".join(fmt9(r[k]) if k in r else "" for k in ("ami", "ari"))
            fh.write(f"{r['epsilon']},{r['block']},{scores},{fmt9(r['s_mixed'])}\n")
    finite = [r for r in rows if r["epsilon"] != "off" and r["block"] not in unscored]
    summary: dict = {"epsilons": sorted({r["epsilon"] for r in finite})}
    means = {e: float(np.mean([r["ari"] for r in finite if r["epsilon"] == e]))
             for e in summary["epsilons"]}
    summary["mean_ari_by_epsilon"] = means
    if len(means) >= 2:
        # nan for a flat trend: the correlation is undefined
        rho = metrics_mod.spearman(list(means.keys()), list(means.values()))
        summary["spearman_epsilon_vs_ari"] = None if math.isnan(rho) else rho
        ordered = [means[e] for e in summary["epsilons"]]
        summary["monotone_violations"] = int(sum(b < a - 0.05 for a, b in zip(ordered, ordered[1:])))
    off_rows = [r for r in rows if r["epsilon"] == "off" and r["block"] not in unscored]
    if off_rows:
        summary["mean_ari_off"] = float(np.mean([r["ari"] for r in off_rows]))
    write_json(out / "sweep_summary.json", summary)
    return status


def cmd_sensitivity_report(args) -> int:
    data = corpus_mod.ingest(args.input)
    blocks = _block_views(args, data)
    if not blocks:
        print("sensitivity-report: nothing reported", file=sys.stderr)
        return 1
    grid = [PrivacyParams(epsilon=e, sensitivity_mode=args.mode) for e in args.epsilons]
    labels = ["off" if e is None else e for e in args.epsilons]
    out = _outdir(args, {"input": str(args.input), "epsilons": labels, "mode": args.mode,
                         "pooled": args.pooled})

    def report(block_id, view):
        pairs = BlockPairs(view, block_id, 0)  # s_local once for the grid
        reports = [dict(sensitivity_report(pairs, params).to_dict(), epsilon=label)
                   for params, label in zip(grid, labels)]
        write_json(out / f"sensitivity_block{block_id}.json",
                   {"block": block_id, "n": pairs.n, "reports": reports})
        return f"sensitivity-report: block {block_id}: s_local={reports[0]['s_local']:.6g}"

    return _each_block("sensitivity-report", [(f"block {b}", (b, view)) for b, view in blocks],
                       report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpevent",
                                     description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are spelled in full: `sweep --epsilon` must not pass for `--epsilons`
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_mode_flag(p):
        p.add_argument("--mode", choices=["global", "smooth", "mixed"], default="mixed",
                       help="sensitivity used: global, smooth, or the smaller of the two "
                            "(default: mixed)")

    def add_graph_flags(p):
        add_mode_flag(p)
        p.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
        p.add_argument("--kmax", type=_int_at_least(1), default=40,
                       help="maximum kNN neighborhood size (default: 40)")

    p = add_command("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--events", type=int, default=5)
    p.add_argument("--points", type=int, default=100, help="records per event")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--concentration", type=float, default=20.0)
    p.add_argument("--share-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = add_command("build-graph", help="synthesize per-block private message graphs")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=_parse_epsilon, default=None,
                   help="privacy budget (positive finite float) or 'off' (default: off)")
    add_graph_flags(p)
    p.add_argument("--pooled", action="store_true", help="treat all blocks as one")
    p.set_defaults(func=cmd_build_graph)

    p = add_command("cluster", help="cluster graphs by 2D SE minimization")
    p.add_argument("--graphs", required=True, help="directory written by build-graph")
    p.add_argument("--out", required=True)
    p.add_argument("--q0", type=_int_at_least(2), default=400,
                   help="initial subgraph size (default: 400; 300 suits pooled graphs)")
    p.add_argument("--grouping", choices=["optimal", "sequential"], default="optimal")
    p.set_defaults(func=cmd_cluster)

    p = add_command("evaluate", help="score partitions against gold labels")
    p.add_argument("--input", required=True, help="corpus JSONL with labels")
    p.add_argument("--partitions", required=True, help="directory written by cluster")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = add_command("sweep", help="full pipeline across an epsilon grid")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilons", type=_parse_epsilon_list,
                   default=[float(e) for e in range(1, 11)],
                   help="comma-separated grid (default: 1..10)")
    p.add_argument("--include-off", action=argparse.BooleanOptionalAction, default=True,
                   help="append a no-noise ceiling row (default: on)")
    add_graph_flags(p)
    p.add_argument("--q0", type=_int_at_least(2), default=None,
                   help="initial subgraph size (default: 400, or 300 with --pooled)")
    p.add_argument("--pooled", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = add_command("sensitivity-report", help="sensitivities per block and epsilon")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilons", type=_parse_epsilon_list,
                   default=[float(e) for e in range(1, 11)])
    add_mode_flag(p)
    p.add_argument("--pooled", action="store_true")
    p.set_defaults(func=cmd_sensitivity_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, PrivacyError) as exc:
        # ingest raises CorpusError on a malformed corpus and SynthConfig on an
        # invalid configuration. Every block command confines a PrivacyError
        # (a noise scale that overflows) to its block, so one reaches here only
        # from PrivacyParams, whose checks the parser already makes.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
