import json
import math
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
from dpevent.persist import (config_hash, read_graph_tsv, read_json, read_partition_csv,
                             write_graph_tsv, write_json, write_partition_csv)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    export(generate(SynthConfig(num_events=3, points_per_event=30, dim=16,
                                attribute_sharing_prob=0.7, seed=11)), path)
    return path


def read_bytes(path):
    return path.read_bytes()


def two_block_rows(tmp_path):
    """JSONL rows of a labelled 2-block corpus: 3 events x 8 records per block,
    ids r00000.. in order (block 1 starts at r00024)."""
    from test_multiblock import multi_block_corpus
    path = tmp_path / "two_blocks.jsonl"
    export(multi_block_corpus(num_blocks=2, points=8), path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def strict_json(path):
    """The parsed JSON file at path; NaN, Infinity and -Infinity raise ValueError."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


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
        ("a\tb\t0.5", "expected 4 tab-separated fields"),
        ("a\tb\t0.5\tSE\tx", "expected 4 tab-separated fields"),
    ])
    def test_graph_tsv_bad_row_names_line(self, tmp_path, row, message):
        # the blank line counts: the bad row is line 3
        path = tmp_path / "g.tsv"
        path.write_text(f"a\tc\t0.25\tSE\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
            read_graph_tsv(path, ["a", "b", "c"])

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_graph_tsv_rejects_ids_that_break_rows(self, tmp_path, char):
        # the id's node has no edge: every id is checked, before the file is opened
        g = make_graph(3, [(0, 1, 0.5)])
        path = tmp_path / "g.tsv"
        message = f"graph TSV cannot hold record id {'c' + char!r}: it has a tab, CR or LF"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_graph_tsv(path, g, ["a", "b", "c" + char])
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_rejects_non_finite_floats(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"a": [1.0, value]})
        assert not path.exists()

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

    def test_only_small_blocks_fail(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"id": "a", "block": 0, "embedding": [1.0, 0.0],
                                    "attributes": {}, "label": None}) + "\n")
        out = tmp_path / "out"
        assert main(["build-graph", "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "block 0 has 1 record(s); skipped" in err
        assert "build-graph: nothing built" in err
        assert not list(out.glob("graph_block*"))

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
        # evaluate takes a block 0 that lists every record of the corpus
        cdir, edir = tmp_path / "c", tmp_path / "e"
        assert main(["cluster", "--graphs", str(out), "--out", str(cdir)]) == 0
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 0
        assert read_json(edir / "metrics_block0.json")["n"] == 6

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

    def test_zero_padded_block_files_ignored(self, tmp_path, capsys):
        # graph_block01.json is not block 1's file: a second copy of block 1
        # would be clustered again and scored twice
        path = write_rows(tmp_path / "corpus.jsonl", two_block_rows(tmp_path))
        gdir, cdir, edir, eref = (tmp_path / d for d in ("g", "c", "e", "eref"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(eref)]) == 0
        for name in ("graph_block1.json", "graph_block1.tsv", "graph_block0.json"):
            stray = name.replace("block", "block0")
            (gdir / stray).write_bytes((gdir / name).read_bytes())
        capsys.readouterr()
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        out = capsys.readouterr().out
        assert out.count("cluster: block 0:") == out.count("cluster: block 1:") == 1
        assert sorted(p.name for p in cdir.glob("partition_block*")) == [
            "partition_block0.csv", "partition_block1.csv"]
        (cdir / "partition_block01.csv").write_bytes((cdir / "partition_block1.csv").read_bytes())
        (cdir / "partition_block001.csv").write_text("not,a,partition\n")
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 0
        assert read_json(edir / "metrics_summary.json")["blocks"] == [0, 1]
        for name in ("metrics_summary.json", "metrics_block0.json", "metrics_block1.json"):
            assert (edir / name).read_bytes() == (eref / name).read_bytes()

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_id_that_breaks_the_graph_tsv_fails_its_block(self, tmp_path, capsys, char):
        rows = two_block_rows(tmp_path)
        for row in rows:
            if row["block"] == 1:
                row["id"] += char + "x"
        path = write_rows(tmp_path / "corpus.jsonl", rows)
        gdir, cdir, sdir = (tmp_path / d for d in ("g", "c", "s"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "build-graph: block 1 failed: ValueError: graph TSV cannot hold record id "
            f"{'r00024' + char + 'x'!r}: it has a tab, CR or LF"]
        assert "build-graph: block 0:" in out and "block 1:" not in out
        assert sorted(p.name for p in gdir.glob("graph_block*")) == [
            "graph_block0.json", "graph_block0.tsv"]
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        assert sorted(p.name for p in cdir.glob("partition_block*")) == ["partition_block0.csv"]
        # sweep writes no graph TSV
        assert main(["sweep", "--input", str(path), "--out", str(sdir), "--epsilons", "2",
                     "--mode", "global", "--kmax", "5"]) == 0
        lines = (sdir / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["2.0", "0"], ["2.0", "1"], ["off", "0"], ["off", "1"]]

    @pytest.mark.parametrize("command", ["cluster", "evaluate"])
    def test_failing_write_fails_only_its_block(self, tmp_path, capsys, command):
        # a block's output path that cannot be written (here a directory)
        path = write_rows(tmp_path / "corpus.jsonl", two_block_rows(tmp_path))
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        if command == "evaluate":
            assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
            argv = ["evaluate", "--input", str(path), "--partitions", str(cdir), "--out", str(edir)]
            blocked, name, written = edir / "metrics_block0.json", "partition_block0.csv", [
                "metrics_block1.json", "metrics_summary.json"]
        else:
            argv = ["cluster", "--graphs", str(gdir), "--out", str(cdir)]
            blocked, name, written = cdir / "partition_block0.csv", "graph_block0.json", [
                "partition_block1.csv", "run_block1.json"]
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{command}: {name} failed: IsADirectoryError: ")
        assert f"{command}: block 1:" in out and f"{command}: block 0:" not in out
        assert set(written) <= {p.name for p in blocked.parent.iterdir()}
        if command == "evaluate":
            assert read_json(edir / "metrics_summary.json")["blocks"] == [1]

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

    def test_evaluate_fails_on_unknown_ids(self, tmp_path, capsys):
        path = tmp_path / "two_blocks.jsonl"
        rows = [{"id": f"r{i}", "block": i % 2, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": "e"} for i in range(8)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        bad = cdir / "partition_block0.csv"
        bad.write_text(bad.read_text().replace("r0,", "zz,", 1).replace("r2,", "yy,", 1))
        capsys.readouterr()
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 1
        err = capsys.readouterr().err
        assert ("evaluate: partition_block0.csv failed: ValueError: "
                "2 id(s) not in the corpus: 'zz', 'yy'") in err
        assert "unlabeled" not in err
        assert not (edir / "metrics_block0.json").exists()
        assert read_json(edir / "metrics_summary.json")["blocks"] == [1]

    def test_evaluate_fails_on_repeated_ids(self, tmp_path, capsys):
        # a repeated row would be scored as one more record of the block
        path = tmp_path / "two_blocks.jsonl"
        rows = [{"id": f"r{i}", "block": i % 2, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": f"e{i % 4}"} for i in range(20)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        bad = cdir / "partition_block0.csv"
        lines = bad.read_text().splitlines()
        assert len(lines) == 1 + 10
        bad.write_text("\n".join(lines + [lines[3]]) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 1
        err = capsys.readouterr().err
        assert (f"evaluate: partition_block0.csv failed: ValueError: {bad}:12: "
                f"id {lines[3].split(',')[0]!r} is listed twice") in err
        assert not (edir / "metrics_block0.json").exists()
        assert read_json(edir / "metrics_block1.json")["n"] == 10
        assert read_json(edir / "metrics_summary.json")["blocks"] == [1]

    @pytest.mark.parametrize("edit, message", [
        ("drop", "lists 7 of the 10 record(s) of block 0 and 0 of other blocks"),
        ("mix", "lists 9 of the 10 record(s) of block 0 and 1 of other blocks"),
    ], ids=["drop", "mix"])
    def test_evaluate_fails_on_a_partial_block(self, tmp_path, capsys, edit, message):
        # the metrics would describe only the records that the file lists
        path = tmp_path / "two_blocks.jsonl"
        rows = [{"id": f"r{i}", "block": i % 2, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": f"e{i % 4}"} for i in range(20)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
        assert main(["build-graph", "--input", str(path), "--out", str(gdir)]) == 0
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        bad = cdir / "partition_block0.csv"
        lines = bad.read_text().splitlines()
        other = (cdir / "partition_block1.csv").read_text().splitlines()
        lines = lines[:-3] if edit == "drop" else lines[:-1] + other[1:2]
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--input", str(path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 1
        err = capsys.readouterr().err
        assert (f"evaluate: partition_block0.csv failed: ValueError: {message}; "
                "expected the whole block, or every record") in err
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

    def test_small_block_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "six_and_one.jsonl"
        rows = [{"id": f"r{i}", "block": 0, "embedding": [1.0, float(i) / 10],
                 "attributes": {}, "label": f"e{i % 2}"} for i in range(6)]
        rows.append({"id": "lone", "block": 1, "embedding": [0.0, 1.0], "attributes": {},
                     "label": "e0"})
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--input", str(path), "--out", str(out), "--epsilons", "2",
                     "--mode", "global", "--no-include-off", "--kmax", "3"]) == 0
        assert "sweep: block 1 has 1 record(s); skipped" in capsys.readouterr().err
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["2.0", "0"]]

    def test_only_small_blocks_fail(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"id": "a", "block": 0, "embedding": [1.0, 0.0],
                                    "attributes": {}, "label": "e0"}) + "\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--input", str(path), "--out", str(out), "--epsilons", "2"]) == 1
        err = capsys.readouterr().err
        assert "sweep: block 0 has 1 record(s); skipped" in err
        assert "sweep: nothing swept" in err
        assert not (out / "sweep.csv").exists() and not (out / "sweep_summary.json").exists()

    def test_failing_grid_point_leaves_the_rest(self, tmp_path, capsys):
        # 2/1e-310 overflows: that pipeline fails alone, and the other rows
        # are the ones a sweep without it writes
        path = tmp_path / "corpus.jsonl"
        export(generate(SynthConfig(num_events=2, points_per_event=10, seed=3)), path)
        out, clean = tmp_path / "s", tmp_path / "clean"
        args = ["--input", str(path), "--mode", "mixed"]
        assert main(["sweep", "--out", str(out), "--epsilons", "1,1e-310"] + args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("sweep: epsilon=1e-310 block=0 failed: PrivacyError: noise scale")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1.0", "0"], ["off", "0"]]
        assert main(["sweep", "--out", str(clean), "--epsilons", "1"] + args) == 0
        for name in ("sweep.csv", "sweep_summary.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    def test_no_include_off(self, tmp_path, corpus_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--input", str(corpus_file), "--out", str(out),
                     "--epsilons", "2", "--mode", "global", "--no-include-off"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 1
        assert not any(line.startswith("off,") for line in lines)
        assert "mean_ari_off" not in read_json(out / "sweep_summary.json")

    def test_unlabeled_block_is_not_scored(self, tmp_path, capsys):
        # block 1 has one unlabeled record: its rows stay in sweep.csv, and the
        # summary is the one of a sweep of block 0 alone
        rows = two_block_rows(tmp_path)
        rows[30]["label"] = None
        both = write_rows(tmp_path / "both.jsonl", rows)
        zero = write_rows(tmp_path / "zero.jsonl", [r for r in rows if r["block"] == 0])
        args = ["--epsilons", "2,6", "--mode", "global", "--kmax", "5"]
        capsys.readouterr()
        assert main(["sweep", "--input", str(both), "--out", str(tmp_path / "s")] + args) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == ["sweep: block 1 has unlabeled records; not scored"]
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [e, b] for e in ("2.0", "6.0", "off") for b in "01"]
        # block 1's AMI and ARI cells are empty, and stdout scores no block 1 row
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5 and math.isfinite(float(cells[4]))
            if cells[1] == "1":
                assert cells[2:4] == ["", ""]
            else:
                assert all(math.isfinite(float(c)) for c in cells[2:4])
        printed = [line for line in out.splitlines() if " block=1" in line]
        assert printed == [f"sweep: epsilon={e} block=1 not scored" for e in ("2.0", "6.0", "off")]
        assert main(["sweep", "--input", str(zero), "--out", str(tmp_path / "z")] + args) == 0
        summary = tmp_path / "s" / "sweep_summary.json"
        assert summary.read_bytes() == (tmp_path / "z" / "sweep_summary.json").read_bytes()
        assert set(strict_json(summary)) == {"epsilons", "mean_ari_by_epsilon", "mean_ari_off",
                                             "monotone_violations", "spearman_epsilon_vs_ari"}

    def test_no_labels_no_means(self, tmp_path, capsys):
        rows = two_block_rows(tmp_path)
        for row in rows:
            row["label"] = None
        path = write_rows(tmp_path / "corpus.jsonl", rows)
        out = tmp_path / "s"
        assert main(["sweep", "--input", str(path), "--out", str(out), "--epsilons", "2,6",
                     "--mode", "global", "--kmax", "5"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"sweep: block {b} has unlabeled records; not scored" for b in (0, 1)]
        assert strict_json(out / "sweep_summary.json") == {"epsilons": [],
                                                          "mean_ari_by_epsilon": {}}

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

    def test_pipeline_leaves_scipy_unimported(self, tmp_path, corpus_file):
        # every command of the paper's pipeline, in one fresh interpreter
        g, c, e, s, r = (str(tmp_path / d) for d in "gcesr")
        corpus = str(corpus_file)
        runs = [["build-graph", "--input", corpus, "--out", g],
                ["cluster", "--graphs", g, "--out", c],
                ["evaluate", "--input", corpus, "--partitions", c, "--out", e],
                ["sweep", "--input", corpus, "--out", s, "--epsilons", "2,6"],
                ["sensitivity-report", "--input", corpus, "--out", r, "--epsilons", "2"]]
        code = ("import sys; from dpevent.cli import main; "
                f"print([main(argv) for argv in {runs!r}]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "print('numpy.ma' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        # numpy.ma is what a plain np.unique imports on its first call
        assert proc.stdout.splitlines()[-3:] == ["[0, 0, 0, 0, 0]", "[]", "False"]
        assert read_json(tmp_path / "e" / "metrics_summary.json")

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


@pytest.mark.parametrize("argv", [
    ["build-graph", "--input", "c.jsonl", "--out", "o", "--epsilon", "inf"],
    ["build-graph", "--input", "c.jsonl", "--out", "o", "--epsilon", "nan"],
    ["sweep", "--input", "c.jsonl", "--out", "o", "--epsilons", "1,inf"],
    ["sweep", "--input", "c.jsonl", "--out", "o", "--epsilons=-inf"],
    ["sensitivity-report", "--input", "c.jsonl", "--out", "o", "--epsilons", "Infinity"],
])
def test_non_finite_epsilon_rejected(argv, capsys):
    # an infinite budget would release the exact graph and write "Infinity" into JSON
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "epsilon must be a positive finite number or 'off'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cluster", "--graphs", "g", "--q0", "1"],
    ["sweep", "--input", "c.jsonl", "--q0", "1"],
    ["build-graph", "--input", "c.jsonl", "--kmax", "0"],
    ["sweep", "--input", "c.jsonl", "--kmax", "0"],
])
def test_too_small_q0_or_kmax_rejected(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "must be an integer >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line, message", [
    ("build-graph", '{"id": "a", "block": 0, "embedding": [0, 0]}',
     "build-graph: line 1: record 'a': zero or non-finite embedding cannot be normalized"),
    ("build-graph", '{"id": "a", "block": 0, "embedding": [1, 0]',
     "build-graph: line 1: invalid JSON (Expecting ',' delimiter)"),
    ("sweep", '{"id": "a", "block": 0, "embedding": [1, "x"]}',
     "sweep: line 1: could not convert string to float: 'x'"),
    ("sweep", '["a", 0, [1, 0]]', "sweep: line 1: a record must be a JSON object"),
    ("sensitivity-report", '{"id": "a", "block": 0, "embedding": [NaN, 1]}',
     "sensitivity-report: line 1: record 'a': zero or non-finite embedding cannot be normalized"),
])
def test_corpus_error_is_one_line(command, line, message, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n")
    assert main([command, "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("command", ["build-graph", "evaluate", "sweep", "sensitivity-report"])
def test_embedding_integer_beyond_float64_is_one_line(command, tmp_path, capsys):
    # json reads a 400-digit integer exactly; float64 cannot hold it
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "block": 0, "embedding": [1, 0]}\n'
                    '{"id": "b", "block": 0, "embedding": [' + "9" * 400 + ', 0]}\n')
    extra = ["--partitions", str(tmp_path)] if command == "evaluate" else []
    out = tmp_path / "out"
    assert main([command, "--input", str(path), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{command}: line 2: int too large to convert to float"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build-graph", "--input", "{bad}"],
    ["sweep", "--input", "{bad}"],
    ["sweep", "--input", "{one}"],
    ["sensitivity-report", "--input", "{bad}"],
    ["cluster", "--graphs", "{empty}"],
    ["evaluate", "--input", "{bad}", "--partitions", "{empty}"],
    ["evaluate", "--input", "{one}", "--partitions", "{empty}"],
    ["build-graph", "--input", "{one}"],
    ["sensitivity-report", "--input", "{one}"],
])
def test_failed_command_makes_no_out(argv, tmp_path, capsys):
    # a malformed corpus, a corpus with no block of 2 records to build, sweep
    # or report, or no graph or partition file: the command stops before it
    # makes --out
    files = {"bad": tmp_path / "bad.jsonl", "one": tmp_path / "one.jsonl",
             "empty": tmp_path / "empty"}
    files["bad"].write_text('{"id": "a", "block": 0, "embedding": [0, 0]}\n')
    files["one"].write_text('{"id": "a", "block": 0, "embedding": [1, 0], "label": "e"}\n')
    files["empty"].mkdir()
    out = tmp_path / "out"
    assert main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sensitivity-report", "--epsilons", ""],
    ["sweep", "--epsilons", ",", "--no-include-off"],
])
def test_empty_epsilon_grid_rejected(argv, corpus_file, tmp_path, capsys):
    # a grid with no value would report nothing, or write a header-only sweep.csv
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(corpus_file), "--out", str(out)])
    assert exc.value.code == 2
    assert "the epsilon grid has no values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--epsilons", "1,1"],
    ["sweep", "--epsilons", "2,1,2.0", "--no-include-off"],
    ["sensitivity-report", "--epsilons", "1,1.0"],
    ["sensitivity-report", "--epsilons", "off,3,OFF"],
])
def test_repeated_epsilon_rejected(argv, tmp_path, capsys):
    # a repeated value ran each block's pipeline (or report) twice and wrote
    # each row twice; the parser rejects it before the corpus is read
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(tmp_path / "missing.jsonl"), "--out", str(out)])
    assert exc.value.code == 2
    assert "the epsilon grid repeats a value" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_synth_config_is_one_line(tmp_path, capsys):
    out = tmp_path / "syn"
    assert main(["synth", "--out", str(out), "--events", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == ["synth: num_events must be positive"]
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be non-negative"),
    (["--concentration", "nan"], "intra_concentration must be finite and positive"),
    (["--concentration", "inf"], "intra_concentration must be finite and positive"),
    (["--concentration", "1e-320"], "intra_concentration is too small: an embedding's norm "
                                    "overflows"),
    (["--concentration", "1e-160"], "intra_concentration is too small: an embedding's norm "
                                    "overflows"),
], ids=["negative_seed", "nan_concentration", "inf_concentration", "overflowing_noise",
        "overflowing_norm"])
def test_synth_rejects_before_making_out(flags, message, tmp_path, capsys):
    # each of these once crashed after --out was made (numpy's seed check, or
    # the strict JSON writer of config.json), or wrote a corpus of nan or
    # all-zero embeddings that ingest rejects
    out = tmp_path / "syn"
    assert main(["synth", "--out", str(out), "--events", "2", "--points", "3"] + flags) == 1
    assert capsys.readouterr().err.splitlines() == [f"synth: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("mode", ["global", "smooth", "mixed"])
def test_overflowing_noise_scale_fails(mode, tmp_path, capsys):
    # 2/1e-310 is not a finite float64: no file may carry an infinite scale
    path = tmp_path / "corpus.jsonl"
    export(generate(SynthConfig(num_events=2, points_per_event=10, seed=3)), path)
    runs = [
        ["build-graph", "--input", str(path), "--out", str(tmp_path / "g"),
         "--epsilon", "1e-310"],
        ["sweep", "--input", str(path), "--out", str(tmp_path / "s"),
         "--epsilons", "1e-310", "--no-include-off"],
        ["sensitivity-report", "--input", str(path), "--out", str(tmp_path / "r"),
         "--epsilons", "1,1e-310"],
    ]
    for argv in runs:
        assert main(argv + ["--mode", mode]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "noise scale" in err[0] and "overflows" in err[0]
        if argv[0] != "sweep":
            assert err[0].startswith(f"{argv[0]}: block 0 failed: PrivacyError: ")
    for out in ("g", "s", "r"):
        for f in (tmp_path / out).iterdir():
            assert "Infinity" not in f.read_text(), f


def test_every_json_file_is_strict_json(tmp_path):
    # NaN and Infinity are not JSON; a block with an unlabeled record once
    # put NaN into sweep_summary.json
    rows = two_block_rows(tmp_path)
    rows[30]["label"] = None
    path = write_rows(tmp_path / "corpus.jsonl", rows)
    g, c, e, s, r, y = (str(tmp_path / d) for d in "gcesry")
    for argv in (["synth", "--out", y, "--events", "2", "--points", "6"],
                 ["build-graph", "--input", str(path), "--out", g, "--epsilon", "3"],
                 ["cluster", "--graphs", g, "--out", c],
                 ["evaluate", "--input", str(path), "--partitions", c, "--out", e],
                 ["sweep", "--input", str(path), "--out", s, "--epsilons", "1,4", "--kmax", "5"],
                 ["sensitivity-report", "--input", str(path), "--out", r]):
        assert main(argv) == 0, argv
        config = read_json(Path(argv[argv.index("--out") + 1]) / "config.json")
        assert config["command"] == argv[0]
        assert config["config_hash"] == config_hash(config["config"])
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) == 16
    for f in written:
        strict_json(f)


class TestSensitivityReport:
    def test_local_sensitivity_once_per_block(self, tmp_path, monkeypatch):
        from dpevent import privacy
        from test_multiblock import multi_block_corpus
        path = tmp_path / "corpus.jsonl"
        export(multi_block_corpus(num_blocks=2, points=8), path)
        seen = []
        real = privacy.local_sensitivity

        def spy(pairs):
            seen.append(pairs.block_id)
            return real(pairs)

        monkeypatch.setattr(privacy, "local_sensitivity", spy)
        assert main(["sensitivity-report", "--input", str(path), "--out",
                     str(tmp_path / "sens")]) == 0  # the default grid has 10 epsilons
        assert seen == [0, 1]
        assert len(read_json(tmp_path / "sens" / "sensitivity_block1.json")["reports"]) == 10

    def test_only_small_blocks_fail(self, tmp_path, capsys):
        path = tmp_path / "two_ones.jsonl"
        rows = [{"id": f"r{b}", "block": b, "embedding": [1.0, float(b)], "attributes": {},
                 "label": None} for b in range(2)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "sens"
        assert main(["sensitivity-report", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "sensitivity-report: block 0 has 1 record(s); skipped",
            "sensitivity-report: block 1 has 1 record(s); skipped",
            "sensitivity-report: nothing reported",
        ]
        assert not list(out.glob("sensitivity_block*"))

    def test_failing_block_leaves_the_rest(self, tmp_path, capsys):
        # block 1's 6 identical records have s_local 0, so its smooth noise
        # scale at 1e-310 is 0; block 0's overflows
        rows = two_block_rows(tmp_path)
        block1 = [r for r in rows if r["block"] == 1][:6]
        for r in block1:
            r["embedding"] = block1[0]["embedding"]
        path = write_rows(tmp_path / "corpus.jsonl",
                          [r for r in rows if r["block"] == 0] + block1)
        out = tmp_path / "sens"
        assert main(["sensitivity-report", "--input", str(path), "--out", str(out),
                     "--mode", "smooth", "--epsilons", "1e-310"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("sensitivity-report: block 0 failed: PrivacyError: noise scale ")
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "sensitivity_block1.json"]
        report = read_json(out / "sensitivity_block1.json")["reports"][0]
        assert report["s_local"] == 0.0 and report["noise_scale"] == 0.0

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
