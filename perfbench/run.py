#!/usr/bin/env python3
"""Benchmark of the dpevent CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition runs in a fresh
interpreter (``worker.py``) that calls ``dpevent.cli.main`` in process on a
corpus generated from the seed, so the timed work is what a user's commands
do. Set-up (imports, corpus generation, JSONL export) is repeated
``SETUP_REPS`` times; pipeline repetitions follow until ``--seconds`` is used
up. Every reported time is the median over repetitions.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the difference
of the two medians. The line before the last holds the environment stamp,
the sha256 digest of the deterministic outputs and the exact-repeat counters;
the last line is the result object.

The first repetition of each kind checks the outputs (see ``checks.py``);
every repetition must reproduce its digest, and traced and untraced digests
must agree. A failed command, a failed check or a differing digest counts
the repetition's block-pipelines as failed. Exits with code 2, printing no
result, when the checkout holds no ``src/dpevent``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"  # one process, one BLAS thread: steadier on a shared 2-core machine

EXACT_REPEAT = ["graphsynth.chosen_k", "graphsynth.edges_se", "graphsynth.edges_attr",
                "graphsynth.edges_both", "partition.rounds", "partition.stalled_rounds",
                "entropy.merges", "privacy.draws_per_pair", "partition.communities"]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one worker to completion; (its JSON result or None, error text)."""
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def git_stamp(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root:
            return {"git_sha": None, "git_dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip() != ""
        return {"git_sha": git("rev-parse", "HEAD").stdout.strip(), "git_dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}


def median(values: list[float]) -> float:
    """Median, or 0.0 when a failed run left no samples."""
    return float(statistics.median(values)) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = HERE.parent
    if not (root / "src" / "dpevent" / "__init__.py").is_file():
        print(f"perfbench: no src/dpevent under {root}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    corpus = work / "corpus.jsonl"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--corpus", str(corpus)]
    errors: list[str] = []
    attempted = failed = 0
    setups: list[dict] = []
    reps: dict[bool, list[dict]] = {False: [], True: []}
    try:
        work.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPS):
            result, err = run_worker(["setup", *common], env, deadline)
            if result is None:
                print(f"perfbench: set-up failed: {err}", file=sys.stderr)
                return 1
            setups.append(result)
        if len({s["input_sha256"] for s in setups}) != 1:
            errors.append("set-up: corpus generation is not deterministic")

        per_rep = workload.attempts(args.size)
        kinds = [False, True] if args.trace else [False]
        durations: list[float] = []
        digest = None
        loop_start = time.monotonic()
        i = 0
        while True:
            predicted = median(durations)
            if i >= len(kinds) and time.monotonic() - loop_start + predicted > args.seconds:
                break
            if time.monotonic() + predicted > deadline - 5.0:
                break
            traced = kinds[i % len(kinds)]
            out = work / f"rep{i}"
            argv = ["pipeline", *common, "--out", str(out)]
            argv += ["--trace"] * traced + ["--check"] * (not reps[traced])
            t0 = time.monotonic()
            result, err = run_worker(argv, env, deadline)
            durations.append(time.monotonic() - t0)
            shutil.rmtree(out, ignore_errors=True)
            attempted += per_rep
            i += 1
            if result is None:
                errors.append(err)
                failed += per_rep
                continue
            digest = digest or result["digest"]
            rep_failed = len(result.get("check_failures", []))
            errors.extend(result["errors"] + result.get("check_failures", []))
            if result["digest"] != digest:
                errors.append(f"rep {i - 1}: output digest differs from the first repetition")
            if result["errors"] or result["digest"] != digest:
                rep_failed = per_rep
            failed += min(rep_failed, per_rep)
            reps[traced].append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    plain, traced_reps = reps[False], reps[True]
    every = plain + traced_reps
    if not plain or (args.trace and not traced_reps):
        errors.append("a kind of pipeline repetition never completed")
    counters = {}
    if traced_reps:
        repeats = [{k: r["layers"][k] for k in EXACT_REPEAT} for r in traced_reps]
        if any(c != repeats[0] for c in repeats):
            errors.append("exact-repeat counters differ between traced repetitions")
        counters = repeats[0]

    if args.trace:
        values = {name: median([r["layers"][name] for r in traced_reps])
                  for name in (traced_reps[0]["layers"] if traced_reps else {})}
        values["trace.overhead_s"] = (median([r["pipeline_s"] for r in traced_reps])
                                      - median([r["pipeline_s"] for r in plain]))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": median([s["setup_s"] for s in setups]),
            **{k: median([r[k] for r in plain if k in r])
               for k in ("pipeline_s", "build_graph_s", "cluster_s", "peak_rss_mb",
                         "mean_ari", "mean_ami")},
            "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    env_stamp = dict(every[0]["env"] if every else {}, **git_stamp(root),
                     nproc=os.cpu_count(), cpu_affinity=len(os.sched_getaffinity(0)),
                     blas_threads_env=BLAS_THREADS, seed=args.seed, size=args.size)
    info = {"workload": args.workload, "environment": env_stamp,
            "digest": every[0]["digest"] if every else None,
            "counters": counters,
            "samples": {"setup": len(setups), "pipeline": len(plain), "traced": len(traced_reps)},
            "pipeline_s_samples": [round(r["pipeline_s"], 4) for r in every],
            "setup_s_samples": [round(s["setup_s"], 4) for s in setups],
            "errors": errors[:10]}
    if traced_reps:
        # per repetition, layer self times add up to the traced pipeline time
        info["trace_gap_s"] = max(abs(r["layers"]["trace.pipeline_s"] - sum(
            r["layers"][f"{layer}.self_s"] for layer in LAYERS)) for r in traced_reps)
    print(json.dumps(info, sort_keys=True))
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
