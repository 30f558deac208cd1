"""Run-history store: record round-trips, baselines, regression
detection (the ISSUE acceptance criteria: a 2x phase slowdown is
flagged, identical-seed reruns pass), and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.store import (
    RunRecord,
    RunStore,
    compare_runs,
    compare_to_baseline,
    config_fingerprint,
)


def rec(scenario="s", mk=1.0, **values):
    values.setdefault("makespan", mk)
    return RunRecord(scenario=scenario, git_sha="abc", config_hash="cfg",
                     values=values)


class TestRunRecord:
    def test_round_trip(self, tmp_path):
        r = RunRecord(scenario="x", git_sha="deadbeef", config_hash="c0ffee",
                      problem="k-path", mode="simulated", nranks=8,
                      values={"makespan": 1.5, "span:r0p1": 0.2},
                      meta={"n1": "4"})
        r2 = RunRecord.from_dict(json.loads(json.dumps(r.to_dict())))
        assert r2 == r

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            RunRecord.from_dict({"type": "Other"})
        with pytest.raises(ConfigurationError):
            RunRecord.from_dict({"type": "RunRecord"})

    def test_config_fingerprint_stable_and_sensitive(self):
        a = config_fingerprint({"k": 5, "n1": 4})
        assert a == config_fingerprint({"n1": 4, "k": 5})  # order-free
        assert a == config_fingerprint({"k": "5", "n1": "4"})  # type-free
        assert a != config_fingerprint({"k": 6, "n1": 4})
        assert len(a) == 12


class TestRunStore:
    def test_append_load_filter(self, tmp_path):
        st = RunStore(tmp_path / "runs.jsonl")
        assert st.load() == []
        st.append(rec("a", 1.0))
        st.append(rec("b", 2.0))
        st.append(rec("a", 1.1))
        assert len(st.load()) == 3
        assert [r.values["makespan"] for r in st.load("a")] == [1.0, 1.1]
        assert st.scenarios() == ["a", "b"]
        assert st.latest("a").values["makespan"] == 1.1

    def test_bad_line_raises_with_location(self, tmp_path):
        # a malformed line in the *middle* of the file is real corruption
        p = tmp_path / "runs.jsonl"
        p.write_text('{"type": "RunRecord", "scenario": "a"}\nnot json\n'
                     '{"type": "RunRecord", "scenario": "b"}\n')
        with pytest.raises(ConfigurationError, match="runs.jsonl:2"):
            RunStore(p).load()

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        # ...but a torn *final* line is the signature of a killed append
        p = tmp_path / "runs.jsonl"
        p.write_text('{"type": "RunRecord", "scenario": "a"}\n'
                     '{"type": "RunRecord", "scen')
        recs = RunStore(p).load()
        assert [r.scenario for r in recs] == ["a"]

    def test_well_formed_but_invalid_line_still_raises(self, tmp_path):
        # valid JSON that is not a RunRecord raises even on the last line
        p = tmp_path / "runs.jsonl"
        p.write_text('{"type": "RunRecord", "scenario": "a"}\n{"type": "x"}\n')
        with pytest.raises(ConfigurationError, match="runs.jsonl:2"):
            RunStore(p).load()

    def test_rolling_baseline_means_priors(self, tmp_path):
        st = RunStore(tmp_path / "runs.jsonl")
        for mk in (1.0, 2.0, 3.0, 100.0):
            st.append(rec("s", mk))
        base = st.rolling_baseline("s", window=3)
        assert base.values["makespan"] == pytest.approx(2.0)  # mean(1,2,3)
        assert st.rolling_baseline("missing") is None
        one = RunStore(tmp_path / "one.jsonl")
        one.append(rec("s", 1.0))
        assert one.rolling_baseline("s") is None  # nothing before the newest


class TestCompare:
    def test_identical_runs_pass(self):
        a = rec(mk=1.0, comm=0.5)
        cmp = compare_runs(a, a, tolerance=0.25)
        assert cmp.ok and not cmp.regressions
        assert all(r["status"] == "ok" for r in cmp.rows)

    def test_2x_slowdown_detected(self):
        """The ISSUE acceptance criterion: a 2x slowdown on one phase
        must fail the default tolerance."""
        a = rec(mk=1.0, **{"span:r0p1": 0.4, "span:r0p2": 0.4})
        b = rec(mk=1.4, **{"span:r0p1": 0.8, "span:r0p2": 0.4})
        cmp = compare_runs(a, b, tolerance=0.25)
        assert not cmp.ok
        names = [r["metric"] for r in cmp.regressions]
        assert "span:r0p1" in names and "makespan" in names
        assert "span:r0p2" not in names

    def test_improvement_never_fails(self):
        cmp = compare_runs(rec(mk=2.0), rec(mk=0.5), tolerance=0.25)
        assert cmp.ok
        assert cmp.improvements[0]["metric"] == "makespan"

    def test_within_tolerance_ok(self):
        assert compare_runs(rec(mk=1.0), rec(mk=1.2), tolerance=0.25).ok
        assert not compare_runs(rec(mk=1.0), rec(mk=1.3), tolerance=0.25).ok

    def test_added_removed_metrics_never_fail(self):
        cmp = compare_runs(rec(mk=1.0, old=1.0), rec(mk=1.0, new=1.0))
        assert cmp.ok
        statuses = {r["metric"]: r["status"] for r in cmp.rows}
        assert statuses["old"] == "removed" and statuses["new"] == "added"

    def test_zero_baseline(self):
        assert compare_runs(rec(mk=0.0), rec(mk=0.0)).ok
        assert not compare_runs(rec(mk=0.0), rec(mk=1.0)).ok

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_runs(rec(), rec(), tolerance=-0.1)

    def test_markdown_and_dict(self):
        cmp = compare_runs(rec(mk=1.0), rec(mk=3.0), tolerance=0.25)
        md = cmp.markdown()
        assert "REGRESSION" in md and "| makespan |" in md
        d = cmp.to_dict()
        assert d["ok"] is False and d["n_regressions"] == 1

    def test_compare_to_baseline(self, tmp_path):
        st = RunStore(tmp_path / "runs.jsonl")
        for mk in (1.0, 1.02, 0.99, 2.5):
            st.append(rec("s", mk))
        cmp = compare_to_baseline(st, "s", tolerance=0.25)
        assert not cmp.ok
        with pytest.raises(ConfigurationError):
            compare_to_baseline(st, "missing")


class TestCli:
    def _run_once(self, store, seed=3, capsys=None):
        code = main(["detect-path", "--er", "30", "--seed", str(seed),
                     "-k", "4", "--mode", "simulated", "-N", "4", "--n1", "2",
                     "--store", str(store)])
        assert code in (0, 1)  # found / not found, both fine

    def test_store_history_compare_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        self._run_once(store)
        self._run_once(store)
        capsys.readouterr()

        assert main(["history", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out and "k-path:er30:k4" in out

        # identical-seed reruns are bit-identical -> compare passes
        assert main(["compare", str(store)]) == 0
        assert "**OK**" in capsys.readouterr().out

    def test_compare_flags_injected_slowdown(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        self._run_once(store)
        recs = RunStore(store).load()
        slow = recs[-1]
        for key in list(slow.values):
            if key.startswith("span:") or key in ("makespan",
                                                  "critical_path_length"):
                slow.values[key] *= 2.0
        RunStore(store).append(slow)
        json_out = tmp_path / "cmp.json"
        code = main(["compare", str(store), "--tolerance", "0.25",
                     "--json-out", str(json_out)])
        assert code == 3
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        doc = json.loads(json_out.read_text())
        assert doc["ok"] is False
        assert any(r["metric"] == "makespan" and r["status"] == "REGRESSED"
                   for r in doc["rows"])

    def test_compare_explicit_indices(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        st = RunStore(store)
        st.append(rec("s", 1.0))
        st.append(rec("s", 1.1))
        assert main(["compare", str(store), "--scenario", "s",
                     "--ref", "0", "--new", "1"]) == 0
        assert main(["compare", str(store), "--scenario", "s",
                     "--ref", "7"]) == 1  # out of range -> usage error
        capsys.readouterr()

    def test_compare_requires_scenario_when_ambiguous(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        st = RunStore(store)
        st.append(rec("a"))
        st.append(rec("a"))
        st.append(rec("b"))
        assert main(["compare", str(store)]) == 1
        assert "--scenario required" in capsys.readouterr().err

    def test_history_empty_store(self, tmp_path, capsys):
        assert main(["history", str(tmp_path / "nope.jsonl")]) == 1

    def test_metrics_format_prom(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        main(["detect-path", "--er", "30", "--seed", "3", "-k", "4",
              "--mode", "simulated", "-N", "4", "--n1", "2",
              "--metrics-out", str(out), "--metrics-format", "prom"])
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE" in text
        assert "_bucket{" in text and 'le="+Inf"' in text
        # cumulative buckets: counts never decrease within a series
        import re
        series = {}
        for line in text.splitlines():
            m = re.match(r"^(\w+_bucket)\{(.*)\} (\d+)$", line)
            if m:
                key = (m.group(1),
                       re.sub(r',?le="[^"]*"', "", m.group(2)))
                series.setdefault(key, []).append(int(m.group(3)))
        assert series, "expected at least one histogram series"
        for counts in series.values():
            assert counts == sorted(counts)


class TestCrashSafeAppends:
    def test_concurrent_appends_never_interleave(self, tmp_path):
        import threading

        st = RunStore(tmp_path / "runs.jsonl")
        n_threads, per_thread = 8, 25

        def writer(tid):
            for i in range(per_thread):
                st.append(rec("s", float(tid * 1000 + i)))

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        recs = st.load()  # every line parses: no torn/interleaved records
        assert len(recs) == n_threads * per_thread
        seen = {r.values["makespan"] for r in recs}
        assert len(seen) == n_threads * per_thread

    def test_append_after_truncated_tail_still_loads(self, tmp_path):
        st = RunStore(tmp_path / "runs.jsonl")
        st.append(rec("s", 1.0))
        with st.path.open("a") as fh:
            fh.write('{"type": "RunRec')  # killed mid-append
        recs = st.load()
        assert len(recs) == 1

    def test_appends_after_a_torn_tail_are_all_kept(self, tmp_path):
        """The next append cuts the torn record, so it is not swallowed as
        the "truncated trailing record" and the one after it cannot turn
        the file into a mid-file parse error."""
        st = RunStore(tmp_path / "runs.jsonl")
        st.append(rec("a", 1.0))
        with st.path.open("a") as fh:
            fh.write('{"type": "RunRec')  # killed mid-append
        st.append(rec("b", 2.0))
        st.append_many([rec("c", 3.0)])
        assert [r.scenario for r in st.load()] == ["a", "b", "c"]
        assert st.path.read_text().count("\n") == 3

    @pytest.mark.parametrize("batch", [False, True], ids=["append", "append_many"])
    def test_a_process_forked_mid_append_keeps_no_lock(self, tmp_path,
                                                       monkeypatch, batch):
        """A fleet worker forked by another thread while an append holds
        the flock shares the locked open file; the lock must still end
        with the append (the service's next sweep waited on it for ever)."""
        import fcntl
        import multiprocessing

        import repro.obs.store as store_mod

        ctx = multiprocessing.get_context("fork")
        release_r, release_w = ctx.Pipe(duplex=False)
        forked = []

        class ForkWhileLocked:
            LOCK_EX, LOCK_UN = fcntl.LOCK_EX, fcntl.LOCK_UN

            @staticmethod
            def flock(fd, op):
                fcntl.flock(fd, op)
                if op == fcntl.LOCK_EX:
                    child = ctx.Process(target=release_r.recv, daemon=True)
                    child.start()
                    forked.append(child)

        monkeypatch.setattr(store_mod, "fcntl", ForkWhileLocked)
        st = RunStore(tmp_path / "runs.jsonl")
        try:
            if batch:
                assert st.append_many([rec("s", 1.0), rec("s", 2.0)]) == 2
            else:
                st.append(rec("s", 1.0))
            assert len(forked) == 1 and forked[0].is_alive()
            with st.path.open("a") as fh:
                # BlockingIOError while the child's copy still holds it
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            release_w.send(None)
            for child in forked:
                child.join(timeout=10)
        assert len(st.load()) == (2 if batch else 1)


class TestProvenanceFlags:
    def test_flags_detected(self):
        r = rec("s", 1.0)
        assert r.provenance_flags == []
        r.meta["resumed_from"] = "/tmp/ckpt"
        r.meta["degraded"] = "True"
        assert r.provenance_flags == ["resumed_from", "degraded"]
        r.meta["degraded"] = "false"  # explicit falsy strings don't count
        assert r.provenance_flags == ["resumed_from"]

    def test_rolling_baseline_skips_flagged_records(self, tmp_path):
        st = RunStore(tmp_path / "runs.jsonl")
        st.append(rec("s", 1.0))
        st.append(rec("s", 1.2))
        partial = rec("s", 500.0)  # a degraded partial: absurdly cheap/odd
        partial.meta["degraded"] = "True"
        st.append(partial)
        st.append(rec("s", 1.1))  # the newest, to be compared
        base = st.rolling_baseline("s", window=5)
        assert base.values["makespan"] == pytest.approx((1.0 + 1.2) / 2)

    def test_baseline_none_when_only_flagged_priors(self, tmp_path):
        st = RunStore(tmp_path / "runs.jsonl")
        partial = rec("s", 1.0)
        partial.meta["resumed_from"] = "/tmp/ckpt"
        st.append(partial)
        st.append(rec("s", 1.1))
        assert st.rolling_baseline("s") is None

    def test_markdown_warns_on_flagged_sides(self):
        flagged = rec("s", 1.0)
        flagged.meta["resumed_from"] = "/tmp/ckpt"
        cmp = compare_runs(rec("s", 1.0), flagged)
        md = cmp.markdown()
        assert "provenance flag" in md and "resumed_from" in md
        clean = compare_runs(rec("s", 1.0), rec("s", 1.0)).markdown()
        assert "provenance flag" not in clean
