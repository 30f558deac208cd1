"""Service smoke: one `repro serve` process under concurrent tenants.

What CI's ``service-smoke`` job runs, as pytest instead of inline heredocs:
``PYTHONPATH=src python -m pytest -m smoke tests/smoke/test_service_smoke.py``.
It starts ``repro serve --port 0`` itself on two preloaded graphs with a
quota of 2, drives it with 8 HTTP clients from 2 tenants, and stops it
with SIGINT.  The tests share that one server and run in file order: the
last one shuts it down and reads the store it swept into.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path
from repro.errors import QuotaExceededError
from repro.graph.io import read_edge_list
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import RunStore
from repro.service import HttpClient, QuerySpec, canonical_result, graph_sha
from serving import SRC, repro_serve

pytestmark = pytest.mark.smoke

ENV = dict(os.environ, PYTHONPATH=SRC)
# k=12 on the witness-free fixture keeps a query in flight for seconds
# (about 2 s with the compiled level step; k=10 ran 0.5 s, less than the
# CLI client's start): long enough to watch four of them, join one and
# bounce three more
K, EPS = 12, 0.05


class Served:
    def __init__(self, proc, url, workdir):
        self.proc, self.url, self.workdir = proc, url, workdir
        self.store = workdir / "service_runs.jsonl"
        self.fixture = workdir / "cliques.txt"

    def status(self):
        return json.loads(urllib.request.urlopen(
            self.url + "/status", timeout=5).read())

    def metrics(self):
        return urllib.request.urlopen(
            self.url + "/metrics", timeout=5).read().decode()


def _wait_for(predicate, what, timeout=60.0):
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, what
        time.sleep(0.05)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """``repro serve`` on ``fix`` (1000 disjoint 4-cliques: no path on
    more than 4 vertices, so a fixture query runs every amplification
    round) and ``er`` (ER n=600), two in-flight executions per tenant."""
    workdir = tmp_path_factory.mktemp("service-smoke")
    with open(workdir / "cliques.txt", "w") as fh:
        for c in range(1000):
            for i in range(4):
                for j in range(i + 1, 4):
                    fh.write(f"{4 * c + i} {4 * c + j}\n")
    with repro_serve("--register", "fix=cliques.txt",
                     "--register", "er=er:600:2400:7", "--quota", "2",
                     "--store", "service_runs.jsonl",
                     cwd=workdir) as (proc, url):
        yield Served(proc, url, workdir)


def _fixture_spec(seed):
    return QuerySpec(kind="detect-path", graph="fix", k=K, eps=EPS,
                     seed={"seed": seed})


def test_eight_clients_two_tenants_quotas_and_coalescing(served):
    # the preloaded fixture resolves to the same content sha locally
    fix = read_edge_list(str(served.fixture))
    shas = {g["name"]: g["sha"]
            for g in HttpClient(served.url).service_info()["graphs"]}
    assert shas["fix"] == graph_sha(fix), "graph content sha drifted"

    results, errors = {}, {}

    def run(tag, spec, tenant):
        try:
            results[tag] = HttpClient(served.url).query(spec, tenant=tenant)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors[tag] = exc

    # four slow executions, two per tenant: both tenants at quota
    plan = [("a1", _fixture_spec(1), "tenant-a"),
            ("a2", _fixture_spec(2), "tenant-a"),
            ("b3", _fixture_spec(3), "tenant-b"),
            ("b4", _fixture_spec(4), "tenant-b")]
    threads = [threading.Thread(target=run, args=p) for p in plan]
    for t in threads:
        t.start()
    _wait_for(lambda: sum(served.status()["broker"]["inflight"].values()) == 4,
              "four queries never in flight")
    text = served.metrics()
    assert "midas_service_inflight 4" in text
    for family in ("midas_service_queries_total", "midas_service_sweeps_total"):
        assert family in text, f"{family} missing from the mid-run scrape"

    # a fifth client repeats tenant-a's seed-1 query from tenant-b: it
    # coalesces onto the in-flight execution, at no quota cost
    threads.append(threading.Thread(
        target=run, args=("b1", _fixture_spec(1), "tenant-b")))
    threads[-1].start()
    _wait_for(lambda: served.status()["broker"]["stats"]["coalesced"] >= 1,
              "the repeated query never coalesced")

    # the next distinct query of either tenant bounces at once ...
    for seed, tenant in ((5, "tenant-a"), (6, "tenant-b")):
        t0 = time.monotonic()
        with pytest.raises(QuotaExceededError):
            HttpClient(served.url).query(_fixture_spec(seed), tenant=tenant)
        assert time.monotonic() - t0 < 5, "a 429 must be immediate"
    # ... also through the CLI client (exit code 6)
    rc = subprocess.run(
        [sys.executable, "-m", "repro", "query", served.url,
         "--graph", "fix", "-k", str(K), "--eps", str(EPS), "--seed", "7",
         "--tenant", "tenant-a"], env=ENV, capture_output=True).returncode
    assert rc == 6, f"repro query under quota: expected 6, got {rc}"

    for t in threads:
        t.join(timeout=600)
    assert not errors, errors

    # the coalesced reply is bit-identical to the primary, and both to a
    # standalone engine run with the same pinned seed policy
    a1, b1 = results["a1"], results["b1"]
    assert b1.coalesced and not a1.coalesced
    assert canonical_result(b1.payload) == canonical_result(a1.payload)
    ref = detect_path(fix, K, eps=EPS, rng=_fixture_spec(1).seed_stream(),
                      runtime=MidasRuntime(metrics=MetricsRegistry()))
    assert a1.result["round_values"] == [int(r.value) for r in ref.rounds]
    assert a1.result["found"] is ref.found is False


def test_mixed_kinds_and_a_cache_hit_across_tenants(served):
    tree = {"kind": "detect-tree", "graph": "er", "k": 4, "eps": 0.25,
            "seed": 11, "template": "star"}
    scan = {"kind": "scan", "graph": "er", "k": 3, "eps": 0.25, "seed": 12,
            "weights": [i % 3 for i in range(600)]}
    client = HttpClient(served.url)
    t_out = client.query(tree, tenant="tenant-a")
    s_out = client.query(scan, tenant="tenant-b")
    assert t_out.payload["ok"] and s_out.payload["ok"]
    again = client.query(tree, tenant="tenant-b")
    assert again.cache_hit and again.result == t_out.result

    stats = served.status()["broker"]["stats"]
    assert stats["queries"] >= 6, stats
    assert stats["rejected"] >= 3, stats
    assert stats["coalesced"] >= 1, stats
    assert stats["cache_hits"] >= 1, stats
    text = served.metrics()
    assert "midas_service_cache_hits_total" in text
    assert "midas_service_rejected_total" in text


def test_sigint_shuts_down_cleanly_and_the_records_are_in_the_store(served):
    served.proc.send_signal(signal.SIGINT)
    try:
        rest, _ = served.proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("server still running 60s after SIGINT")
    assert served.proc.returncode == 0, rest
    assert "shutting down" in rest, rest

    records = [r for r in RunStore(str(served.store)).load()
               if r.scenario.startswith("service:")]
    assert len(records) >= 6, [r.scenario for r in records]
    assert {"tenant-a", "tenant-b"} <= {r.meta["tenant"] for r in records}
    assert {r.meta["kind"] for r in records} == {
        "detect-path", "detect-tree", "scan"}
