"""Checks on the ledger itself (not part of tier-1: ``testpaths`` is ``tests``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py``.
The static checks keep ``BENCHMARK.json`` and ``catalog.py`` in step and
inside the benchmark contract's limits; the two subprocess checks drive
``run.py --quick`` the way the driver does and look at what it leaves
behind.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import catalog
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LAYER_OF_PREFIX = {"eval": "core.evaluator", "engine": "core.engine"}


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_mirrors_the_catalog():
    doc = manifest()
    assert doc == catalog.benchmark_json(doc["command"], doc["paths"], doc["run_seconds"])
    assert doc["paths"] == ["benchmarks/ledger"]
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)


def test_names_units_and_counts_are_within_the_contract():
    doc = manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in doc["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    setup = [row for row in doc["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(row["bound"] for row in doc["end_to_end"])


def test_every_layer_metric_declares_what_it_should_move():
    end_to_end = {row["name"] for row in catalog.END_TO_END}
    for row in catalog.PER_LAYER:
        assert row["moves"] in end_to_end, row
        assert row["on"] and set(row["on"]) <= set(catalog.WORKLOADS), row
        prefix = row["name"].split(".")[0]
        assert row["layer"] == LAYER_OF_PREFIX.get(prefix, prefix), row


def test_self_times_tile_a_nested_trace():
    rec = spans.Recorder("unit")
    with rec.span("root", "driver", op=0):
        with rec.span("a", "x"):
            time.sleep(0.002)
            with rec.span("a.inner", "y"):
                time.sleep(0.002)
        time.sleep(0.001)
        with rec.span("b", "x"):
            time.sleep(0.002)
    selfs = rec.self_times()
    (root,) = rec.roots()
    assert all(v >= 0 for v in selfs.values())
    assert rec.tree_self_total(root, selfs) == pytest.approx(root.duration, rel=1e-9)
    assert sum(row["self_s"] for row in rec.layer_summary().values()) == pytest.approx(
        root.duration, rel=1e-9)
    assert {sp.op for sp in rec.spans} == {0}  # children inherit the op id


def drive(workload: str, seed: int, trace: int) -> dict:
    """One quick run, the way the driver calls it; returns the result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.3", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric_and_repeats_its_inputs():
    shas = []
    for _ in range(2):
        out = drive("kpath_wide_proc", 11, 0)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
        assert set(out["metrics"]) == {row["name"] for row in catalog.END_TO_END}
        assert all(m["value"] > 0 for m in out["metrics"].values())
        with open(ROOT / "benchmark_results" / "run_kpath_wide_proc_trace0.json") as fh:
            detail = json.load(fh)
        assert set(detail["host"]) >= {"nproc", "cpu_model", "numpy", "llc_bytes", "git_sha"}
        assert isinstance(detail["noisy"], bool)
        assert all("probe_cv" in part for part in detail["parts"])
        assert len(detail["setup_samples_s"]) == len(detail["parts"]) > 1
        shas.append(detail["manifest"]["sha256"])
    assert shas[0] == shas[1]  # one seed, byte-identical input manifest


def test_traced_run_reports_every_layer_metric_and_its_spans_tile():
    out = drive("service_mixed", 11, 1)
    assert out["correct"] is True
    assert set(out["metrics"]) == {row["name"] for row in catalog.PER_LAYER}
    with open(ROOT / "benchmark_results" / "trace_service_mixed.json") as fh:
        trace = json.load(fh)
    rec = spans.Recorder(trace["workload"])
    for row in trace["spans"]:
        sp = spans.Span(row["id"], row["parent"], row["name"], row["layer"], row["op"])
        sp.t0, sp.t1, sp.counts = row["t0"], row["t1"], row["counts"]
        rec.spans.append(sp)
    selfs = rec.self_times()
    roots = rec.roots()
    assert len(roots) > 8  # query ops plus one root per layer of the suite
    for root in roots:
        assert rec.tree_self_total(root, selfs) == pytest.approx(root.duration, rel=0.01)
    assert trace["layers"]["service"]["counts"]["queries"] >= 1
