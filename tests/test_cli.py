import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_graph

from dpevent.cli import main
from dpevent.corpus import SynthConfig, export, generate
from dpevent.entropy import Partition
from dpevent.persist import (read_graph_tsv, read_json, read_partition_csv, write_graph_tsv,
                             write_partition_csv)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    export(generate(SynthConfig(num_events=3, points_per_event=30, dim=16,
                                attribute_sharing_prob=0.7, seed=11)), path)
    return path


def read_bytes(path):
    return path.read_bytes()


class TestPersist:
    def test_graph_tsv_round_trip(self, tmp_path, rng):
        g = make_graph(4, [(0, 1, 0.123456789123), (1, 2, 1.0), (0, 3, 1e-6)])
        ids = ["a", "b", "c", "d"]
        path = tmp_path / "g.tsv"
        write_graph_tsv(path, g, ids)
        loaded = read_graph_tsv(path, ids)
        assert loaded.n == 4
        assert np.array_equal(loaded.u, g.u) and np.array_equal(loaded.v, g.v)
        assert np.allclose(loaded.w, g.w, rtol=1e-9)
        assert np.array_equal(loaded.provenance, g.provenance)
        first = path.read_text().splitlines()[0].split("\t")
        assert first[:2] == ["a", "b"] and first[3] == "SE"

    @pytest.mark.parametrize("row, message", [
        ("a\tb\t0.5\tse", "unknown provenance 'se'"),
        ("a\tb\tabc\tSE", "weight 'abc' is not a number"),
        ("a\tb\tnan\tATTR", "weight nan is not in (0, 1]"),
        ("a\tb\t0\tBOTH", "weight 0.0 is not in (0, 1]"),
    ])
    def test_graph_tsv_bad_row_names_line(self, tmp_path, row, message):
        # the blank line counts: the bad row is line 3
        path = tmp_path / "g.tsv"
        path.write_text(f"a\tc\t0.25\tSE\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
            read_graph_tsv(path, ["a", "b", "c"])

    def test_partition_csv_round_trip(self, tmp_path):
        ids = ["m1", "m2", "m3"]
        part = Partition(np.array([0, 1, 0]))
        path = tmp_path / "p.csv"
        write_partition_csv(path, ids, part)
        assert path.read_text().splitlines()[0] == "id,cluster"
        got_ids, got_clusters = read_partition_csv(path)
        assert got_ids == ids and got_clusters == [0, 1, 0]

    @pytest.mark.parametrize("row, message", [("m2", "expected 2 fields"),
                                              ("m2,x", "cluster 'x' is not an integer")])
    def test_partition_csv_bad_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "p.csv"
        path.write_text(f"id,cluster\nm1,0\n{row}\n")
        with pytest.raises(ValueError, match=f"{path}:3: {message}"):
            read_partition_csv(path)


class TestPipelineCommands:
    def test_synth_outputs(self, tmp_path):
        out = tmp_path / "syn"
        assert main(["synth", "--out", str(out), "--events", "2", "--points", "5",
                     "--dim", "8", "--seed", "3"]) == 0
        lines = (out / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 10
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 3 and "config_hash" in manifest
        config = read_json(out / "config.json")
        assert config["config_hash"]

    def test_synth_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--events", "2", "--points", "4", "--dim", "4", "--seed", "9"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read_bytes(a / "corpus.jsonl") == read_bytes(b / "corpus.jsonl")
        assert read_bytes(a / "manifest.json") == read_bytes(b / "manifest.json")

    def test_full_pipeline(self, tmp_path, corpus_file):
        gdir, cdir, edir = (tmp_path / d for d in ("graphs", "clusters", "eval"))
        assert main(["build-graph", "--input", str(corpus_file), "--out", str(gdir),
                     "--epsilon", "off", "--seed", "2"]) == 0
        sidecar = read_json(gdir / "graph_block0.json")
        assert sidecar["epsilon"] == "off"
        assert sidecar["sensitivity_report"]["noise_scale"] == 0.0
        assert sidecar["knn_trace"]["chosen_k"] >= 1
        # off mode: weights are exact cosines of unit embeddings, within [floor, 1]
        graph = read_graph_tsv(gdir / "graph_block0.tsv", sidecar["nodes"])
        assert graph.w.max() <= 1.0

        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        run = read_json(cdir / "run_block0.json")
        h2s = [r["h2"] for r in run["rounds"]]
        assert all(b <= a + 1e-12 for a, b in zip(h2s, h2s[1:]))

        assert main(["evaluate", "--input", str(corpus_file), "--partitions", str(cdir),
                     "--out", str(edir)]) == 0
        summary = read_json(edir / "metrics_summary.json")
        assert summary["mean_ari"] > 0.8
        block_metrics = read_json(edir / "metrics_block0.json")
        assert {"ami", "ari", "n", "num_true", "num_pred"} <= set(block_metrics)

    @pytest.mark.parametrize("mode", ["global", "smooth"])
    def test_sidecar_records_the_noise_used(self, tmp_path, corpus_file, mode):
        out = tmp_path / "g"
        assert main(["build-graph", "--input", str(corpus_file), "--out", str(out),
                     "--epsilon", "2", "--mode", mode]) == 0
        sidecar = read_json(out / "graph_block0.json")
        report = sidecar["sensitivity_report"]
        assert "noise_scale" not in sidecar
        assert report["chosen"] == mode
        assert report["noise_scale"] == report[f"s_{mode}"] / 2.0
        assert report["s_mixed"] == min(2.0, report["s_smooth"])

    def test_build_graph_rerun_byte_identical(self, tmp_path, corpus_file):
        args = ["build-graph", "--input", str(corpus_file), "--epsilon", "5",
                "--mode", "mixed", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read_bytes(a / "graph_block0.tsv") == read_bytes(b / "graph_block0.tsv")
        assert read_bytes(a / "graph_block0.json") == read_bytes(b / "graph_block0.json")

    def test_epsilon_changes_weights_not_ids(self, tmp_path, corpus_file):
        outs = {}
        for eps in ("10", "15"):
            out = tmp_path / f"eps{eps}"
            main(["build-graph", "--input", str(corpus_file), "--out", str(out),
                  "--epsilon", eps, "--mode", "global", "--seed", "4"])
            outs[eps] = (out / "graph_block0.tsv").read_text()
        assert outs["10"] != outs["15"]

    def test_small_block_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "tiny.jsonl"
        rows = [{"id": "a", "block": 0, "embedding": [1.0, 0.0], "attributes": {}, "label": None},
                {"id": "b", "block": 1, "embedding": [1.0, 0.0], "attributes": {}, "label": None},
                {"id": "c", "block": 1, "embedding": [0.0, 1.0], "attributes": {}, "label": None}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "out"
        assert main(["build-graph", "--input", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped" in err
        assert not (out / "graph_block0.tsv").exists()
        assert (out / "graph_block1.tsv").exists()

    def test_pooled_merges_blocks(self, tmp_path):
        path = tmp_path / "two_blocks.jsonl"
        rows = []
        for i in range(6):
            rows.append({"id": f"r{i}", "block": i % 2,
                         "embedding": [1.0, float(i) / 10], "attributes": {}, "label": "e"})
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "out"
        assert main(["build-graph", "--input", str(path), "--out", str(out), "--pooled"]) == 0
        sidecar = read_json(out / "graph_block0.json")
        assert sidecar["n"] == 6

    def test_cluster_isolates_bad_block(self, tmp_path, capsys):
        path = tmp_path / "two_blocks.jsonl"
        rows = [{"id": f"r{i}", "block": i % 2, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": "e"} for i in range(8)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir = tmp_path / "g", tmp_path / "c"
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        bad = gdir / "graph_block0.tsv"
        bad.write_text(bad.read_text().replace("r0\t", "zz\t", 1))
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:1: unknown node id 'zz'" in err
        assert not (cdir / "partition_block0.csv").exists()
        assert (cdir / "partition_block1.csv").exists()

    @pytest.mark.parametrize("corrupt", ["bad_json", "no_block", "no_nodes"])
    def test_cluster_isolates_bad_sidecar(self, tmp_path, capsys, corrupt):
        path = tmp_path / "two_blocks.jsonl"
        rows = [{"id": f"r{i}", "block": i % 2, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": "e"} for i in range(8)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir = tmp_path / "g", tmp_path / "c"
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        bad = gdir / "graph_block0.json"
        if corrupt == "bad_json":
            bad.write_text("{not json")
        else:
            sidecar = json.loads(bad.read_text())
            del sidecar[corrupt.removeprefix("no_")]
            bad.write_text(json.dumps(sidecar))
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 1
        assert "cluster: graph_block0.json failed: " in capsys.readouterr().err
        assert not (cdir / "partition_block0.csv").exists()
        assert (cdir / "partition_block1.csv").exists()

    def test_stray_block_file_names_ignored(self, tmp_path, corpus_file):
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        assert main(["build-graph", "--input", str(corpus_file), "--out", str(gdir)]) == 0
        (gdir / "graph_block0.old.json").write_bytes((gdir / "graph_block0.json").read_bytes())
        (gdir / "graph_blockX.json").write_text("{}")
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        assert sorted(p.name for p in cdir.glob("partition_block*")) == ["partition_block0.csv"]
        (cdir / "partition_block0.bak.csv").write_text("not,a,partition\n")
        assert main(["evaluate", "--input", str(corpus_file), "--partitions", str(cdir),
                     "--out", str(edir)]) == 0
        assert read_json(edir / "metrics_summary.json")["blocks"] == [0]

    def test_cluster_block_id_from_file_name(self, tmp_path, corpus_file, capsys):
        gdir, cdir = tmp_path / "g", tmp_path / "c"
        assert main(["build-graph", "--input", str(corpus_file), "--out", str(gdir)]) == 0
        (gdir / "graph_block5.json").write_bytes((gdir / "graph_block0.json").read_bytes())
        capsys.readouterr()
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 1
        out, err = capsys.readouterr()
        assert "cluster: graph_block5.json failed: ValueError: " in err
        assert out.count("cluster: block 0:") == 1
        assert sorted(p.name for p in cdir.glob("partition_block*")) == ["partition_block0.csv"]

    def test_evaluate_isolates_bad_partition(self, tmp_path, capsys):
        path = tmp_path / "two_blocks.jsonl"
        rows = [{"id": f"r{i}", "block": i % 2, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": "e"} for i in range(8)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        bad = cdir / "partition_block0.csv"
        bad.write_text("id,cluster\nr0\n")
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 1
        err = capsys.readouterr().err
        assert f"evaluate: partition_block0.csv failed: ValueError: {bad}:2: " in err
        assert not (edir / "metrics_block0.json").exists()
        assert read_json(edir / "metrics_summary.json")["blocks"] == [1]

    def test_evaluate_skips_unlabeled(self, tmp_path, capsys):
        path = tmp_path / "nolabel.jsonl"
        rows = [{"id": f"r{i}", "block": 0, "embedding": [1.0, float(i + 1)],
                 "attributes": {}, "label": None} for i in range(4)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        main(["build-graph", "--input", str(path), "--out", str(gdir)])
        main(["cluster", "--graphs", str(gdir), "--out", str(cdir)])
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 1
        assert "unlabeled" in capsys.readouterr().err


class TestSweep:
    def test_sweep_rows_and_summary(self, tmp_path, corpus_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--input", str(corpus_file), "--out", str(out),
                     "--epsilons", "2,6", "--mode", "global", "--seed", "5"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,block,ami,ari,s_mixed"
        assert len(lines) == 1 + 3  # two epsilons + off ceiling, one block each
        assert lines[-1].startswith("off,")
        summary = read_json(out / "sweep_summary.json")
        assert set(summary["mean_ari_by_epsilon"]) == {"2.0", "6.0"}
        assert "mean_ari_off" in summary

    def test_no_include_off(self, tmp_path, corpus_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--input", str(corpus_file), "--out", str(out),
                     "--epsilons", "2", "--mode", "global", "--no-include-off"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 1
        assert not any(line.startswith("off,") for line in lines)
        assert "mean_ari_off" not in read_json(out / "sweep_summary.json")

    def test_sweep_leaves_scipy_stats_unimported(self, tmp_path, corpus_file):
        code = ("import sys; from dpevent.cli import main; "
                f"rc = main(['sweep', '--input', {str(corpus_file)!r}, '--out', "
                f"{str(tmp_path / 'sweep')!r}, '--epsilons', '2,6', '--mode', 'global']); "
                "print(rc, 'scipy.stats' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.split()[-2:] == ["0", "False"]
        assert "spearman_epsilon_vs_ari" in read_json(tmp_path / "sweep" / "sweep_summary.json")


    def test_q0_defaults(self, tmp_path, corpus_file):
        gdir, cdir, sdir = (tmp_path / d for d in ("g", "c", "s"))
        main(["build-graph", "--input", str(corpus_file), "--out", str(gdir)])
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        assert read_json(cdir / "config.json")["config"]["q0"] == 400
        assert main(["sweep", "--input", str(corpus_file), "--out", str(sdir), "--epsilons",
                     "2", "--no-include-off", "--pooled"]) == 0
        assert read_json(sdir / "config.json")["config"]["q0"] == 300


@pytest.mark.parametrize("argv", [
    ["sweep", "--input", "c.jsonl", "--out", "o", "--epsilon", "1"],
    ["sensitivity-report", "--input", "c.jsonl", "--out", "o", "--epsilon", "1"],
    ["sensitivity-report", "--input", "c.jsonl", "--out", "o", "--seed", "1"],
])
def test_removed_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestSensitivityReport:
    def test_per_block_grid(self, tmp_path, corpus_file):
        out = tmp_path / "sens"
        assert main(["sensitivity-report", "--input", str(corpus_file), "--out", str(out),
                     "--epsilons", "0.5,15"]) == 0
        report = read_json(out / "sensitivity_block0.json")
        assert [r["epsilon"] for r in report["reports"]] == [0.5, 15.0]
        eps15 = report["reports"][1]
        assert eps15["chosen"] == "smooth"
        assert eps15["s_mixed"] == min(2.0, eps15["s_smooth"])

    def test_mode_decides_reported_noise(self, tmp_path, corpus_file):
        out = tmp_path / "sens"
        assert main(["sensitivity-report", "--input", str(corpus_file), "--out", str(out),
                     "--epsilons", "15,off", "--mode", "global"]) == 0
        eps15, off = read_json(out / "sensitivity_block0.json")["reports"]
        assert eps15["chosen"] == "global" and eps15["noise_scale"] == 2.0 / 15
        assert off["chosen"] == "off" and off["noise_scale"] == 0.0
