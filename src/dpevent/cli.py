"""Command-line pipeline: synth -> build-graph -> cluster -> evaluate,
plus epsilon sweeps and sensitivity reports.

Every command validates its configuration up front, writes the configuration
(with a hash) into the output directory, and is a pure function of its inputs:
rerunning with the same arguments reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus as corpus_mod, metrics as metrics_mod
from .corpus import Corpus, SynthConfig, split_blocks
from .graphsynth import build_graph
from .partition import cluster
from .persist import (config_hash, fmt9, read_graph_tsv, read_json,
                      read_partition_csv, write_graph_tsv, write_json,
                      write_partition_csv)
from .privacy import PrivacyParams, sensitivity_report


def _parse_epsilon(text: str) -> float | None:
    if text.lower() == "off":
        return None
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("epsilon must be positive or 'off'")
    return value


def _parse_epsilon_list(text: str) -> list[float | None]:
    return [_parse_epsilon(tok.strip()) for tok in text.split(",") if tok.strip()]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config(out: Path, command: str, config: dict) -> None:
    payload = {"command": command, "config": config, "version": __version__}
    payload["config_hash"] = config_hash(payload["config"])
    write_json(out / "config.json", payload)


def _blocks(corpus: Corpus, pooled: bool) -> list[tuple[int, Corpus]]:
    if pooled:
        return [(0, corpus)]
    return [(view.records[0].block, view) for view in split_blocks(corpus)]


def _privacy_params(args, epsilon) -> PrivacyParams:
    return PrivacyParams(epsilon=epsilon, sensitivity_mode=args.mode, seed=args.seed)


def _build_block_graph(block_id: int, view: Corpus, params: PrivacyParams, k_max: int):
    from .privacy import SimilarityOracle
    oracle = SimilarityOracle(view, params, block_id=block_id)
    graph, trace = build_graph(view, oracle, k_max=k_max)
    report = oracle.report or sensitivity_report(view, params, block_id)
    n = len(view)
    sidecar = {
        "block": block_id,
        "n": n,
        "nodes": view.ids,
        "epsilon": "off" if params.off else params.epsilon,
        "mode": params.sensitivity_mode,
        "noise_scale": oracle.noise_scale,
        "pairs_queried": 0 if params.off else n * (n - 1) // 2,
        "knn_trace": trace.to_dict(),
        "sensitivity_report": report.to_dict(),
        "num_edges": graph.num_edges,
    }
    return graph, sidecar


def cmd_synth(args) -> int:
    out = _outdir(args)
    config = SynthConfig(num_events=args.events, points_per_event=args.points,
                         dim=args.dim, intra_concentration=args.concentration,
                         attribute_sharing_prob=args.share_prob, seed=args.seed)
    generated = corpus_mod.generate(config)
    corpus_mod.export(generated, out / "corpus.jsonl")
    _write_config(out, "synth", config.to_dict())
    manifest = {"n_records": len(generated), "seed": args.seed,
                "config_hash": config_hash(config.to_dict()),
                "labels": sorted({r.label for r in generated.records})}
    write_json(out / "manifest.json", manifest)
    print(f"synth: wrote {len(generated)} records to {out / 'corpus.jsonl'}")
    return 0


def cmd_build_graph(args) -> int:
    out = _outdir(args)
    data = corpus_mod.ingest(args.input)
    params = _privacy_params(args, args.epsilon)
    _write_config(out, "build-graph", {
        "input": str(args.input), "epsilon": "off" if params.off else params.epsilon,
        "mode": args.mode, "seed": args.seed, "kmax": args.kmax, "pooled": args.pooled,
    })
    failures = 0
    for block_id, view in _blocks(data, args.pooled):
        if len(view) < 2:
            print(f"build-graph: block {block_id} has {len(view)} record(s); skipped",
                  file=sys.stderr)
            continue
        try:
            graph, sidecar = _build_block_graph(block_id, view, params, args.kmax)
        except Exception as exc:  # noqa: BLE001 - per-block isolation
            print(f"build-graph: block {block_id} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        write_graph_tsv(out / f"graph_block{block_id}.tsv", graph, view.ids)
        write_json(out / f"graph_block{block_id}.json", sidecar)
        print(f"build-graph: block {block_id}: n={sidecar['n']} edges={graph.num_edges} "
              f"chosen_k={sidecar['knn_trace']['chosen_k']}")
    return 1 if failures else 0


def cmd_cluster(args) -> int:
    out = _outdir(args)
    graphs_dir = Path(args.graphs)
    sidecars = sorted(graphs_dir.glob("graph_block*.json"),
                      key=lambda p: int(p.stem.removeprefix("graph_block")))
    if not sidecars:
        print(f"cluster: no graph_block*.json files under {graphs_dir}", file=sys.stderr)
        return 1
    _write_config(out, "cluster", {"graphs": str(graphs_dir), "q0": args.q0,
                                   "grouping": args.grouping})
    failures = 0
    for sidecar_path in sidecars:
        try:
            sidecar = read_json(sidecar_path)
            block_id = sidecar["block"]
            tsv = graphs_dir / f"graph_block{block_id}.tsv"
            if not tsv.exists():
                raise FileNotFoundError(f"missing graph file {tsv}")
            graph = read_graph_tsv(tsv, sidecar["nodes"])
            run = cluster(graph, q0=args.q0, grouping=args.grouping)
        except Exception as exc:  # noqa: BLE001 - per-block isolation
            print(f"cluster: {sidecar_path.name} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failures += 1
            continue
        write_partition_csv(out / f"partition_block{block_id}.csv", sidecar["nodes"], run.final)
        write_json(out / f"run_block{block_id}.json", dict(run.to_dict(), block=block_id))
        print(f"cluster: block {block_id}: {run.final.num_communities} communities "
              f"in {len(run.rounds)} round(s)")
    return 1 if failures else 0


def cmd_evaluate(args) -> int:
    out = _outdir(args)
    data = corpus_mod.ingest(args.input)
    labels_by_id = {r.id: r.label for r in data.records}
    partitions_dir = Path(args.partitions)
    files = sorted(partitions_dir.glob("partition_block*.csv"),
                   key=lambda p: int(p.stem.removeprefix("partition_block")))
    if not files:
        print(f"evaluate: no partition_block*.csv files under {partitions_dir}", file=sys.stderr)
        return 1
    per_block = []
    for path in files:
        block_id = int(path.stem.removeprefix("partition_block"))
        ids, clusters = read_partition_csv(path)
        truth = [labels_by_id.get(i) for i in ids]
        if any(t is None for t in truth):
            print(f"evaluate: block {block_id} has unlabeled records; skipped", file=sys.stderr)
            continue
        result = dict(metrics_mod.evaluate(truth, clusters), block=block_id)
        write_json(out / f"metrics_block{block_id}.json", result)
        per_block.append(result)
        print(f"evaluate: block {block_id}: ami={result['ami']:.4f} ari={result['ari']:.4f}")
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
    return 0


def run_pipeline(view: Corpus, block_id: int, params: PrivacyParams, k_max: int, q0: int,
                 grouping: str = "optimal"):
    """In-memory build-graph + cluster + evaluate for one block."""
    graph, sidecar = _build_block_graph(block_id, view, params, k_max)
    run = cluster(graph, q0=q0, grouping=grouping)
    result = {"block": block_id, "s_mixed": sidecar["sensitivity_report"]["s_mixed"],
              "num_communities": run.final.num_communities}
    if view.has_labels():
        result.update(metrics_mod.evaluate(view.labels, run.final.assignment.tolist()))
    return result


def cmd_sweep(args) -> int:
    out = _outdir(args)
    data = corpus_mod.ingest(args.input)
    epsilons = list(args.epsilons)
    if args.include_off and None not in epsilons:
        epsilons.append(None)
    _write_config(out, "sweep", {
        "input": str(args.input),
        "epsilons": ["off" if e is None else e for e in epsilons],
        "mode": args.mode, "seed": args.seed, "kmax": args.kmax,
        "q0": args.q0, "pooled": args.pooled,
    })
    rows = []
    for epsilon in epsilons:
        params = _privacy_params(args, epsilon)
        for block_id, view in _blocks(data, args.pooled):
            if len(view) < 2:
                continue
            result = run_pipeline(view, block_id, params, args.kmax, args.q0)
            rows.append({"epsilon": "off" if epsilon is None else epsilon,
                         "block": block_id,
                         "ami": result.get("ami", math.nan),
                         "ari": result.get("ari", math.nan),
                         "s_mixed": result["s_mixed"]})
            print(f"sweep: epsilon={rows[-1]['epsilon']} block={block_id} "
                  f"ami={rows[-1]['ami']:.4f} ari={rows[-1]['ari']:.4f}")
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("epsilon,block,ami,ari,s_mixed\n")
        for r in rows:
            fh.write(f"{r['epsilon']},{r['block']},{fmt9(r['ami'])},{fmt9(r['ari'])},"
                     f"{fmt9(r['s_mixed'])}\n")
    finite = [r for r in rows if r["epsilon"] != "off"]
    summary: dict = {"epsilons": sorted({r["epsilon"] for r in finite})}
    means = {e: float(np.mean([r["ari"] for r in finite if r["epsilon"] == e]))
             for e in summary["epsilons"]}
    summary["mean_ari_by_epsilon"] = means
    if len(means) >= 2:
        if len(set(means.values())) > 1:
            from scipy.stats import spearmanr
            rho = float(spearmanr(list(means.keys()), list(means.values())).statistic)
        else:
            rho = math.nan  # flat trend: correlation undefined
        summary["spearman_epsilon_vs_ari"] = None if math.isnan(rho) else rho
        ordered = [means[e] for e in summary["epsilons"]]
        summary["monotone_violations"] = int(sum(b < a - 0.05 for a, b in zip(ordered, ordered[1:])))
    off_rows = [r for r in rows if r["epsilon"] == "off"]
    if off_rows:
        summary["mean_ari_off"] = float(np.mean([r["ari"] for r in off_rows]))
    write_json(out / "sweep_summary.json", summary)
    return 0


def cmd_sensitivity_report(args) -> int:
    out = _outdir(args)
    data = corpus_mod.ingest(args.input)
    _write_config(out, "sensitivity-report", {
        "input": str(args.input),
        "epsilons": ["off" if e is None else e for e in args.epsilons],
        "mode": args.mode, "seed": args.seed, "pooled": args.pooled,
    })
    for block_id, view in _blocks(data, args.pooled):
        if len(view) < 2:
            print(f"sensitivity-report: block {block_id} too small; skipped", file=sys.stderr)
            continue
        reports = []
        for epsilon in args.epsilons:
            params = _privacy_params(args, epsilon)
            rep = sensitivity_report(view, params, block_id)
            reports.append(dict(rep.to_dict(), epsilon="off" if epsilon is None else epsilon))
        write_json(out / f"sensitivity_block{block_id}.json",
                   {"block": block_id, "n": len(view), "reports": reports})
        print(f"sensitivity-report: block {block_id}: s_local={reports[0]['s_local']:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpevent",
                                     description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_privacy_flags(p, with_kmax=True):
        p.add_argument("--epsilon", type=_parse_epsilon, default=None,
                       help="privacy budget (positive float) or 'off' (default: off)")
        p.add_argument("--mode", choices=["global", "smooth", "mixed"], default="mixed",
                       help="sensitivity strategy (default: mixed)")
        p.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
        if with_kmax:
            p.add_argument("--kmax", type=int, default=40,
                           help="maximum kNN neighborhood size (default: 40)")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--events", type=int, default=5)
    p.add_argument("--points", type=int, default=100, help="records per event")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--concentration", type=float, default=20.0)
    p.add_argument("--share-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="synthesize per-block private message graphs")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True)
    add_privacy_flags(p)
    p.add_argument("--pooled", action="store_true", help="treat all blocks as one")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("cluster", help="cluster graphs by 2D SE minimization")
    p.add_argument("--graphs", required=True, help="directory written by build-graph")
    p.add_argument("--out", required=True)
    p.add_argument("--q0", type=int, default=None,
                   help="initial subgraph size (default: 400, or 300 with --pooled upstream)")
    p.add_argument("--grouping", choices=["optimal", "sequential"], default="optimal")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score partitions against gold labels")
    p.add_argument("--input", required=True, help="corpus JSONL with labels")
    p.add_argument("--partitions", required=True, help="directory written by cluster")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="full pipeline across an epsilon grid")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilons", type=_parse_epsilon_list,
                   default=[float(e) for e in range(1, 11)],
                   help="comma-separated grid (default: 1..10)")
    p.add_argument("--include-off", action=argparse.BooleanOptionalAction, default=True,
                   help="append a no-noise ceiling row (default: on)")
    add_privacy_flags(p)
    p.add_argument("--q0", type=int, default=None)
    p.add_argument("--pooled", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sensitivity-report", help="sensitivities per block and epsilon")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilons", type=_parse_epsilon_list,
                   default=[float(e) for e in range(1, 11)])
    add_privacy_flags(p, with_kmax=False)
    p.add_argument("--pooled", action="store_true")
    p.set_defaults(func=cmd_sensitivity_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "q0", 2) is None:
        args.q0 = 300 if getattr(args, "pooled", False) else 400
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
