"""One benchmark repetition in a fresh interpreter; prints one JSON line.

    worker.py setup    --workload W --seed N --size S --corpus PATH
    worker.py pipeline --workload W --seed N --size S --corpus PATH --out DIR
                       [--trace] [--check]

``setup`` times imports, corpus generation and JSONL export. ``pipeline``
runs the workload's CLI commands in process through ``dpevent.cli.main``,
then (outside the timed region) digests the outputs and, with ``--check``,
verifies them. With ``--trace`` the public functions of every module are
wrapped first and the per-layer metrics are reported.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import EPSILON_GRID, WORKLOADS  # noqa: E402


def run_setup(args) -> dict:
    import dpevent.cli  # noqa: F401 - import cost is part of set-up
    from dpevent.corpus import export
    from workloads import make_corpus

    workload = WORKLOADS[args.workload]
    corpus = make_corpus(workload.shape(args.size), args.seed)
    export(corpus, args.corpus)
    setup_s = time.perf_counter() - T_START
    return {"setup_s": setup_s,
            "input_sha256": hashlib.sha256(Path(args.corpus).read_bytes()).hexdigest()}


def _stage_timer(module, name: str, totals: dict, key: str) -> None:
    """Accumulate the wall time of ``module.name`` into ``totals[key]``."""
    fn = getattr(module, name)

    def timed(*a, **k):
        t0 = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            totals[key] += time.perf_counter() - t0

    setattr(module, name, timed)


def run_pipeline(args) -> dict:
    import checks
    from dpevent import cli

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    times = {"build_graph": 0.0, "cluster": 0.0}
    if workload.is_sweep:
        # stage sums inside the in-memory sweep: two wrappers, 22 calls
        _stage_timer(cli, "_build_block_graph", times, "build_graph")
        _stage_timer(cli, "cluster", times, "cluster")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    errors = []
    with open(out / "cli.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        for stage, argv in workload.commands(Path(args.corpus), out, args.seed):
            t = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # noqa: BLE001 - a failed command is counted, not fatal
                rc = None
                errors.append(f"{stage}: {traceback.format_exc(limit=3)}")
            if rc != 0:
                errors.append(f"{stage}: exit code {rc}")
            if not workload.is_sweep:
                times[stage] = time.perf_counter() - t
        pipeline_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import dpevent._accel as accel
    import numpy
    import scipy
    result = {
        "pipeline_s": pipeline_s,
        "build_graph_s": times["build_graph"],
        "cluster_s": times["cluster"],
        "peak_rss_mb": peak_rss_mb,
        "digest": checks.digest(out),
        "errors": errors,
        "env": {"backend": accel.backend_name(), "has_numba": accel.HAS_NUMBA,
                "python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas_threads": _blas_threads(numpy)},
    }
    try:
        result["mean_ari"], result["mean_ami"] = checks.quality(out, workload.is_sweep)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        errors.append(f"quality: {exc}")
    if args.check:
        blocks = checks.read_blocks(Path(args.corpus))
        if workload.is_sweep:
            epsilons = [str(float(e)) for e in EPSILON_GRID.split(",")] + ["off"]
            failed = checks.check_sweep(out, blocks, epsilons)
        else:
            failed = checks.check_blocks(out, blocks)
        result["check_failures"] = [f"{key}: {why}" for key, why in failed.items()]
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["trace.pipeline_s"] = pipeline_s
    return result


def _blas_threads(numpy) -> int | None:
    """Threads the bundled OpenBLAS will use, when it can be asked."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "pipeline"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    result = run_setup(args) if args.mode == "setup" else run_pipeline(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
