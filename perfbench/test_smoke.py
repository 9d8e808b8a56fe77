"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

For every workload: both trace modes report exactly the metrics named in
BENCHMARK.json with their units, the outputs pass their checks, traced and
untraced digests agree with each other and with a plain ``python -m
dpevent.cli`` run on the same corpus, and the layer self times add up to the
traced pipeline time. A directory holding only BENCHMARK.json and the
benchmark must make the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from run import child_env
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def plain_cli_digest(workload: str, tmp: Path) -> str:
    env = child_env(ROOT)
    corpus = tmp / "corpus.jsonl"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "setup", "--workload", workload,
                    "--seed", "7", "--size", "tiny", "--corpus", str(corpus)],
                   env=env, check=True, capture_output=True, timeout=120)
    for _, argv in WORKLOADS[workload].commands(corpus, tmp / "out", seed=7):
        subprocess.run([sys.executable, "-m", "dpevent.cli", *argv], env=env, check=True,
                       capture_output=True, timeout=120)
    return checks.digest(tmp / "out")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, tmp_path):
    info0, plain = bench(workload, trace=0)
    info1, traced = bench(workload, trace=1)
    for result, wanted in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in wanted} == \
            {name: m["unit"] for name, m in result["metrics"].items()}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] != 0, m["name"]
    assert info1["samples"]["traced"] >= 1 and info1["samples"]["pipeline"] >= 1
    assert info0["digest"] == info1["digest"] == plain_cli_digest(workload, tmp_path)
    assert info0["environment"]["seed"] == 7 and "backend" in info0["environment"]
    assert set(info1["counters"]) >= {"graphsynth.chosen_k", "partition.rounds",
                                      "entropy.merges", "privacy.draws_per_pair"}

    pipeline = traced["metrics"]["trace.pipeline_s"]["value"]
    assert info1["trace_gap_s"] <= 1e-3 + 0.01 * pipeline


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sim-knn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
