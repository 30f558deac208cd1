"""Durable checkpoints, crash recovery, and the wall-clock watchdog.

The acceptance bar: killing a run at *every* round boundary and resuming
must reproduce the uninterrupted run bit-for-bit — same witness verdict,
same accumulator values, same virtual seconds, same replay digests, same
resilience accounting.  The corruption matrix pins the typed rejection
of damaged checkpoints, and the watchdog tests pin graceful degradation
(a valid partial result carrying the live ``0.8^rounds`` bound).
"""

import glob
import json
import threading
import zlib

import numpy as np
import pytest

from repro.core.midas import (
    MidasRuntime,
    detect_path,
    detect_tree,
    scan_grid,
    stage_rounds,
)
from repro.core.mld import MLDCircuit
from repro.core.process_backend import close_fleet
from repro.core.schedule import rounds_for_epsilon
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    WatchdogExpired,
)
from repro.ff.gf2m import GF2m, field_degree_for_k, round_success_bound
from repro.graph.csr import CSRGraph
from repro.graph.templates import TreeTemplate
from repro.obs.live import LiveRun
from repro.runtime.durable import (
    CHECKPOINT_FILE,
    CHECKPOINT_VERSION,
    CheckpointManager,
    Watchdog,
    load_run_config,
    read_envelope,
    write_envelope,
    write_run_config,
)
from repro.runtime.faults import FaultPlan, crash, drop
from repro.sanitize.replay import DigestLog
from repro.util.rng import RngStream


def clique_islands(n_cliques=6, size=4):
    """Disjoint ``size``-cliques: no path on more than ``size`` vertices
    exists, so a k=size+1 detection runs every planned round (the
    witness-free regime where checkpointing actually matters)."""
    edges = []
    for c in range(n_cliques):
        base = c * size
        edges.extend(
            (base + i, base + j)
            for i in range(size) for j in range(i + 1, size)
        )
    return CSRGraph.from_edges(n_cliques * size, edges)


@pytest.fixture(scope="module")
def islands():
    return clique_islands()


class _Kill(BaseException):
    """Simulated SIGKILL: not an Exception, so no handler in the engine
    or driver can swallow it — execution stops exactly at the raise."""


def _kill_after(ckpt, n_rounds):
    """Poison a manager so the process 'dies' right after the n-th
    round's checkpoint commit — the on-disk state a real SIGKILL at
    that boundary would leave behind."""
    orig = ckpt.note_round
    seen = {"n": 0}

    def poisoned(*args, **kwargs):
        orig(*args, **kwargs)
        seen["n"] += 1
        if seen["n"] >= n_rounds:
            raise _Kill()

    ckpt.note_round = poisoned


def _crash_drop_plan():
    """``test_resume_restores_fault_state``'s plan: budgets that a run
    spends, so a resume must carry them over."""
    return FaultPlan([crash(rank=1, after_ops=40, max_events=2),
                      drop(src=0, dst=1, p=0.05, max_events=2)], seed=11)


def _values(res):
    return [r.value for r in res.rounds]


def _virtuals(res):
    return [r.virtual_seconds for r in res.rounds]


# ----------------------------------------------------------------- envelope
class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        payload = {"a": [1, 2, 3], "nested": {"x": "y"}, "f": 0.25}
        write_envelope(path, payload)
        assert read_envelope(path) == payload

    def test_overwrite_is_atomic_rename(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_envelope(path, {"gen": 1})
        write_envelope(path, {"gen": 2})
        assert read_envelope(path) == {"gen": 2}
        # no temp litter left behind
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_envelope(path, {"key": "value" * 50})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(CheckpointCorruptError) as ei:
            read_envelope(path)
        assert ei.value.reason == "truncated"
        assert str(path) in str(ei.value)

    def test_bit_flip_rejected_by_crc(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_envelope(path, {"key": 12345})
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x40  # flip one bit inside the JSON body
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError) as ei:
            read_envelope(path)
        assert ei.value.reason == "crc"

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_envelope(path, {"key": 1})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(f" v{CHECKPOINT_VERSION} ".encode(), b" v9 ", 1))
        with pytest.raises(CheckpointCorruptError) as ei:
            read_envelope(path)
        assert ei.value.reason == "version"

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"not a checkpoint at all\n{}")
        with pytest.raises(CheckpointCorruptError) as ei:
            read_envelope(path)
        assert ei.value.reason == "header"

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"no newline anywhere")
        with pytest.raises(CheckpointCorruptError) as ei:
            read_envelope(path)
        assert ei.value.reason == "header"


class TestRunConfig:
    def test_roundtrip(self, tmp_path):
        write_run_config(tmp_path, {"command": "detect-path", "k": 5})
        assert load_run_config(tmp_path) == {"command": "detect-path", "k": 5}

    def test_missing_names_the_flag(self, tmp_path):
        with pytest.raises(ConfigurationError, match="--checkpoint-dir"):
            load_run_config(tmp_path)

    def test_non_object_rejected(self, tmp_path):
        (tmp_path / "run.json").write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_run_config(tmp_path)


# ---------------------------------------------------------- manager basics
class TestCheckpointManager:
    def test_corrupt_checkpoint_blocks_resume(self, tmp_path):
        path = tmp_path / CHECKPOINT_FILE
        write_envelope(path, {"engines": {}})
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            CheckpointManager(tmp_path, resume=True)

    def test_allow_restart_discards_corruption(self, tmp_path):
        path = tmp_path / CHECKPOINT_FILE
        path.write_bytes(b"garbage\n")
        mgr = CheckpointManager(tmp_path, resume=True, allow_restart=True)
        assert mgr.resumed_from is None  # fresh start, not a resume

    #: the v1 checkpoint of a 3-round k = 5 path detection on two 4-vertex
    #: paths (eps = 0.5, seed 7, a digest log attached), as a v1 build
    #: wrote it: its rounds a level down under ``stages``, a stage label in
    #: every digest row
    V1_PAYLOAD = {
        "config_hash": "",
        "digests": {"phases": [["", r, 0, 0, 3971697493] for r in range(3)],
                    "rounds": [["", r, 3971697493] for r in range(3)]},
        "engines": {"e0:k-path": {"fault": None, "stages": {"s0:": {
            "complete": True, "hit": False,
            "identity": {
                "field_degree": 5, "field_modulus": 37,
                "graph": "99ed2aaf6c4c71b813265a77dd7244c7"
                         "a557fb945e43c2713526c198f609ab9b",
                "k": 5, "levels": 5, "problem": "k-path",
                "rng": {"entropy": 7, "n_children_spawned": 0, "spawn_key": []},
                "rounds": 3},
            "values": [0, 0, 0], "virtuals": [0.0, 0.0, 0.0]}}}},
        "status": None,
    }

    def test_a_v1_checkpoint_is_refused_by_its_version(self, tmp_path):
        body = json.dumps(self.V1_PAYLOAD, sort_keys=True).encode()
        assert f"{zlib.crc32(body):08x}" == "78a1b63c"  # the file v1 wrote
        (tmp_path / CHECKPOINT_FILE).write_bytes(
            b"MIDAS-CKPT v1 crc=78a1b63c len=%d\n" % len(body) + body)
        with pytest.raises(CheckpointCorruptError) as ei:
            CheckpointManager(tmp_path, resume=True)
        assert ei.value.reason == "version"
        g = CSRGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        rt = MidasRuntime(checkpoint_dir=str(tmp_path), resume=True)
        with pytest.raises(CheckpointCorruptError, match="v1") as ei:
            detect_path(g, 5, eps=0.5, rng=RngStream(7), runtime=rt)
        assert ei.value.reason == "version"

    #: the v2 checkpoint an older build wrote for
    #: ``test_resume_restores_fault_state``'s run (a 3-round k = 5 path
    #: detection on ``islands``, simulated on 4 ranks, eps = 0.5, seed 7, a
    #: digest log and a live bus attached), killed after its first round:
    #: one drop fired, and beside the fault entry and the digests the
    #: configuration hash and live status that this build no longer writes
    V2_PAYLOAD = {
        "config_hash": "",
        "digests": {"phases": [[0, 0, 0, 4150627774], [0, 0, 1, 4150627774]],
                    "rounds": [[0, 3971697493]]},
        "engines": {"e0:k-path": {
            "complete": False,
            "fault": {"accounting": {"backoff_seconds": 0.0014905045062676883,
                                     "injected": {"drop": 1},
                                     "phase_failures": 1, "retries": 1,
                                     "work_lost": 2.0251999999999997e-06,
                                     "work_recomputed": 9.0808e-06},
                      "counts": {"drop": 1},
                      "remaining": [[0, 2], [1, 1]]},
            "hit": False,
            "identity": {
                "field_degree": 5, "field_modulus": 37,
                "graph": "a8912633cdc008611149582fb2066a22"
                         "57520237a8f34b97e910f752da1da449",
                "k": 5, "levels": 5, "problem": "k-path",
                "rng": {"entropy": 7, "n_children_spawned": 0, "spawn_key": [0]},
                "rounds": 3},
            "values": [0], "virtuals": [0.001511618506267688]}},
        "status": {
            "error": "", "eta_seconds": 0.0050750159862218425,
            "eta_virtual_seconds": 0.003023237012535376,
            "faults": {"injected": 1, "phase_failures": 1, "retries": 1},
            "found": None, "graph": {"edges": 36, "nodes": 24},
            "heartbeat_age_seconds": 2.3365020751953125e-05, "k": 5,
            "last_heartbeat": 1792442277.4393315, "mode": "simulated",
            "p_failure_bound": 0.75006103515625, "phases_completed": 0,
            "phases_per_round": 2, "problem": "k-path", "rounds_completed": 1,
            "rounds_planned": 3, "runs": 1, "stage": "k-path",
            "stage_rounds_completed": 1, "stage_rounds_planned": 3,
            "started_at": 1792442277.4353702, "state": "running",
            "target_eps": 0.5, "virtual_seconds": 0.001511618506267688,
            "wall_seconds": 0.003984689712524414, "witness_found": None},
    }

    def test_an_older_v2_checkpoint_resumes_bit_identically(self, islands,
                                                            tmp_path):
        body = json.dumps(self.V2_PAYLOAD, sort_keys=True).encode()
        assert f"{zlib.crc32(body):08x}" == "93997f0a"  # the file it wrote
        (tmp_path / CHECKPOINT_FILE).write_bytes(
            b"MIDAS-CKPT v2 crc=93997f0a len=%d\n" % len(body) + body)
        rt_kw = dict(mode="simulated", n_processors=4, n1=2,
                     fault_plan=_crash_drop_plan())
        log0, log1 = DigestLog(), DigestLog()
        res0 = detect_path(islands, 5, eps=0.5, rng=RngStream(7).child("detect"),
                           runtime=MidasRuntime(digest_log=log0, **rt_kw))
        rt = MidasRuntime(digest_log=log1, checkpoint_dir=str(tmp_path),
                          resume=True, **rt_kw)
        res1 = detect_path(islands, 5, eps=0.5, rng=RngStream(7).child("detect"),
                           runtime=rt)
        assert res1.details["resumed_from"] == str(tmp_path)
        assert _values(res1) == _values(res0)
        assert _virtuals(res1) == _virtuals(res0)
        assert res1.details["resilience"] == res0.details["resilience"]
        assert (log1.phases, log1.rounds) == (log0.phases, log0.rounds)
        # the file is rewritten with what this build reads
        assert set(read_envelope(tmp_path / CHECKPOINT_FILE)) == {"engines",
                                                                  "digests"}

    def test_resume_without_checkpoint_is_fresh(self, tmp_path):
        mgr = CheckpointManager(tmp_path, resume=True)
        assert mgr.resumed_from is None

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, every=0)


# -------------------------------------------------- kill/resume property
class TestKillResumeBitIdentity:
    """The tentpole property: SIGKILL at every round boundary + resume
    == uninterrupted run, bit for bit."""

    K, EPS = 5, 0.3

    def _control(self, islands, **rt_kw):
        rt = MidasRuntime(digest_log=DigestLog(), **rt_kw)
        res = detect_path(islands, self.K, eps=self.EPS,
                          rng=RngStream(7).child("detect"), runtime=rt)
        return res, rt

    def _assert_identical(self, res0, res1, rt0, rt1):
        assert res1.found == res0.found
        assert _values(res1) == _values(res0)
        assert _virtuals(res1) == _virtuals(res0)
        assert rt1.digest_log.rounds == rt0.digest_log.rounds
        assert rt1.digest_log.phases == rt0.digest_log.phases

    @pytest.mark.parametrize("mode", ["sequential", "simulated", "process"])
    def test_every_round_boundary(self, islands, tmp_path, mode):
        rt_kw = {"mode": mode}
        if mode == "simulated":
            rt_kw.update(n_processors=4, n1=2)
        if mode == "process":
            rt_kw.update(workers=2)
        res0, rt0 = self._control(islands, **rt_kw)
        assert not res0.found and len(res0.rounds) >= 3  # witness-free

        for boundary in range(1, len(res0.rounds)):
            ckpt_dir = tmp_path / f"{mode}-r{boundary}"
            rt1 = MidasRuntime(digest_log=DigestLog(),
                               checkpoint_dir=str(ckpt_dir), **rt_kw)
            _kill_after(rt1.get_checkpoint(), boundary)
            with pytest.raises(_Kill):
                detect_path(islands, self.K, eps=self.EPS,
                            rng=RngStream(7).child("detect"), runtime=rt1)

            rt2 = MidasRuntime(digest_log=DigestLog(),
                               checkpoint_dir=str(ckpt_dir),
                               resume=True, **rt_kw)
            res1 = detect_path(islands, self.K, eps=self.EPS,
                               rng=RngStream(7).child("detect"), runtime=rt2)
            self._assert_identical(res0, res1, rt0, rt2)
            assert res1.details["resumed_from"] == str(ckpt_dir)
        # neither the killed nor the resumed runs leave a pool segment
        # behind, once the warm fleet (its fingerprint segment) is closed
        close_fleet()
        assert not glob.glob("/dev/shm/psm_*")

    def test_resume_restores_fault_state(self, islands, tmp_path):
        plan = FaultPlan([crash(rank=1, after_ops=40, max_events=2),
                          drop(src=0, dst=1, p=0.05, max_events=2)], seed=11)
        rt_kw = dict(mode="simulated", n_processors=4, n1=2, fault_plan=plan)
        res0 = detect_path(islands, self.K, eps=0.5,
                           rng=RngStream(7).child("detect"),
                           runtime=MidasRuntime(**rt_kw))
        assert res0.details["resilience"]["retries"] > 0

        for boundary in range(1, len(res0.rounds)):
            ckpt_dir = tmp_path / f"faults-r{boundary}"
            rt1 = MidasRuntime(checkpoint_dir=str(ckpt_dir), **rt_kw)
            _kill_after(rt1.get_checkpoint(), boundary)
            with pytest.raises(_Kill):
                detect_path(islands, self.K, eps=0.5,
                            rng=RngStream(7).child("detect"), runtime=rt1)
            rt2 = MidasRuntime(checkpoint_dir=str(ckpt_dir), resume=True,
                               **rt_kw)
            res1 = detect_path(islands, self.K, eps=0.5,
                               rng=RngStream(7).child("detect"), runtime=rt2)
            assert _values(res1) == _values(res0)
            assert _virtuals(res1) == _virtuals(res0)
            # injected-fault budgets and retry accounting carried over:
            # the resumed run reports the *whole* run's resilience story
            assert res1.details["resilience"] == res0.details["resilience"]

    @pytest.mark.parametrize("every", [1, 4])
    def test_commit_cadence_never_changes_the_values(self, islands, tmp_path,
                                                     every):
        control, _ = self._control(islands)
        rt = MidasRuntime(checkpoint_dir=str(tmp_path), checkpoint_every=every)
        res = detect_path(islands, self.K, eps=self.EPS,
                          rng=RngStream(7).child("detect"), runtime=rt)
        assert _values(res) == _values(control)

    def test_resume_completed_run_recomputes_nothing(self, islands, tmp_path):
        rt1 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path))
        res0 = detect_path(islands, self.K, eps=self.EPS,
                           rng=RngStream(7).child("detect"), runtime=rt1)

        rt2 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           resume=True)
        from repro.core import engine as engine_mod

        def boom(*a, **k):  # any executed round means state was recomputed
            raise AssertionError("resume of a completed run ran a round")

        orig = engine_mod.SequentialBackend.run_round
        engine_mod.SequentialBackend.run_round = boom
        try:
            res1 = detect_path(islands, self.K, eps=self.EPS,
                               rng=RngStream(7).child("detect"), runtime=rt2)
        finally:
            engine_mod.SequentialBackend.run_round = orig
        assert _values(res1) == _values(res0)
        assert _virtuals(res1) == _virtuals(res0)

    def test_resume_with_witness_hit(self, tmp_path):
        # a graph WITH a k-path: the hit round is checkpointed as final
        g = clique_islands(n_cliques=2, size=6)
        rt1 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path))
        res0 = detect_path(g, 4, eps=0.3, rng=RngStream(7).child("detect"),
                           runtime=rt1)
        assert res0.found
        rt2 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           resume=True)
        res1 = detect_path(g, 4, eps=0.3, rng=RngStream(7).child("detect"),
                           runtime=rt2)
        assert res1.found and _values(res1) == _values(res0)

    def test_multi_stage_scan_resume(self, islands, tmp_path):
        # scan_grid runs every size in one stage: its rounds resume as one
        weights = np.zeros(islands.n, dtype=np.int64)
        weights[:4] = 1
        res0 = scan_grid(islands, weights, k=4, eps=0.5,
                         rng=RngStream(9).child("scan"),
                         runtime=MidasRuntime(mode="sequential"))
        rt1 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path))
        _kill_after(rt1.get_checkpoint(), 3)
        with pytest.raises(_Kill):
            scan_grid(islands, weights, k=4, eps=0.5,
                      rng=RngStream(9).child("scan"), runtime=rt1)
        rt2 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           resume=True)
        res1 = scan_grid(islands, weights, k=4, eps=0.5,
                         rng=RngStream(9).child("scan"), runtime=rt2)
        assert np.array_equal(res1.detected, res0.detected)
        assert res1.virtual_seconds == res0.virtual_seconds

    def test_detect_tree_resume(self, islands, tmp_path):
        tmpl = TreeTemplate.star(5)
        res0 = detect_tree(islands, tmpl, eps=0.3,
                           rng=RngStream(3).child("detect"),
                           runtime=MidasRuntime(mode="sequential"))
        rt1 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path))
        _kill_after(rt1.get_checkpoint(), 2)
        with pytest.raises(_Kill):
            detect_tree(islands, tmpl, eps=0.3,
                        rng=RngStream(3).child("detect"), runtime=rt1)
        rt2 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           resume=True)
        res1 = detect_tree(islands, tmpl, eps=0.3,
                           rng=RngStream(3).child("detect"), runtime=rt2)
        assert res1.found == res0.found and _values(res1) == _values(res0)

    def test_live_counters_jump_on_restore(self, islands, tmp_path):
        rt1 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path))
        _kill_after(rt1.get_checkpoint(), 2)
        with pytest.raises(_Kill):
            detect_path(islands, self.K, eps=self.EPS,
                        rng=RngStream(7).child("detect"), runtime=rt1)
        live = LiveRun()
        events = []
        live.subscribe(events.append)
        rt2 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           resume=True, live=live)
        detect_path(islands, self.K, eps=self.EPS,
                    rng=RngStream(7).child("detect"), runtime=rt2)
        restores = [e for e in events if e["event"] == "restore"]
        assert len(restores) == 1 and restores[0]["rounds"] == 2
        snap = live.status.snapshot()
        assert snap["rounds_completed"] == snap["rounds_planned"]


# ------------------------------------------- a checkpoint's stage identity
class TestResumeIdentity:
    """A checkpoint directory answers only the question it was written
    for: restored round values are replayed as this run's, so another
    graph's witness would be a false positive (one-sided error broken)."""

    K, EPS = 6, 0.3

    def _run(self, graph, ckpt_dir, k=K, seed=7, **rt_kw):
        rt = MidasRuntime(checkpoint_dir=str(ckpt_dir), **rt_kw)
        return detect_path(graph, k, eps=self.EPS,
                           rng=RngStream(seed).child("detect"), runtime=rt)

    @pytest.fixture
    def witnessed(self, tmp_path):
        """A directory holding a finished run that found a 6-path."""
        has_path = clique_islands(n_cliques=2, size=8)
        assert self._run(has_path, tmp_path).found
        return has_path

    def test_another_graphs_checkpoint_is_refused(self, witnessed, islands,
                                                  tmp_path):
        # `islands` (4-cliques) has no 6-path; before the identity check
        # this resume returned the other graph's values with found=True
        with pytest.raises(CheckpointCorruptError, match="different graph") \
                as err:
            self._run(islands, tmp_path, resume=True)
        assert err.value.reason == "identity"
        assert str(tmp_path / CHECKPOINT_FILE) in str(err.value)

    @pytest.mark.parametrize("change, field", [
        ({"k": 5}, "k"),            # also a different field and levels
        ({"seed": 8}, "rng"),
    ])
    def test_another_k_or_seed_is_refused(self, witnessed, tmp_path, change,
                                          field):
        with pytest.raises(CheckpointCorruptError,
                           match=f"different {field} "):
            self._run(witnessed, tmp_path, resume=True, **change)

    def test_another_rounds_budget_is_refused(self, witnessed, tmp_path):
        rt = MidasRuntime(checkpoint_dir=str(tmp_path), resume=True)
        with pytest.raises(CheckpointCorruptError, match="different rounds"):
            detect_path(witnessed, self.K, eps=0.01,
                        rng=RngStream(7).child("detect"), runtime=rt)

    def test_a_checkpoint_without_an_identity_is_refused(self, witnessed,
                                                         tmp_path):
        path = tmp_path / CHECKPOINT_FILE
        state = read_envelope(path)
        for engine in state["engines"].values():
            del engine["identity"]  # what a pre-identity build wrote
        write_envelope(path, state)
        with pytest.raises(CheckpointCorruptError, match="identity"):
            self._run(witnessed, tmp_path, resume=True)

    def test_allow_restart_recomputes_for_this_graph(self, witnessed, islands,
                                                     tmp_path):
        fresh = self._run(islands, tmp_path / "fresh")
        res = self._run(islands, tmp_path, resume=True, allow_restart=True)
        assert not res.found
        assert _values(res) == _values(fresh)
        # ...and the directory now belongs to this question
        again = self._run(islands, tmp_path, resume=True)
        assert _values(again) == _values(fresh)

    def test_a_checkpoint_in_the_papers_field_is_refused(self, tmp_path):
        """Round values of a k = 10 stage written in the paper's GF(2^7) are
        another evaluation than this build's GF(2^6): refused by name, and
        recomputed under ``allow_restart``."""
        g = clique_islands(n_cliques=2, size=12)
        fresh = self._run(g, tmp_path / "fresh", k=10)
        assert fresh.found
        self._run(g, tmp_path, k=10)
        path = tmp_path / CHECKPOINT_FILE
        state = read_envelope(path)
        for engine in state["engines"].values():
            assert engine["identity"]["field_degree"] == 6
            engine["identity"].update(field_degree=7, field_modulus=GF2m(7).modulus)
        write_envelope(path, state)
        with pytest.raises(CheckpointCorruptError, match="different field_degree ") as err:
            self._run(g, tmp_path, k=10, resume=True)
        assert err.value.reason == "identity"
        res = self._run(g, tmp_path, k=10, resume=True, allow_restart=True)
        assert res.found and _values(res) == _values(fresh)

    def test_a_checkpoint_under_the_kind_free_round_count_is_refused(self, islands,
                                                                    tmp_path):
        """A stage checkpointed when every kind ran ``rounds_for_epsilon``
        rounds (6 at eps = 0.3) was planned for another count than a 6-path
        runs now (5): refused by name, and recomputed under
        ``allow_restart``."""
        fresh = self._run(islands, tmp_path / "fresh")
        assert fresh.rounds_run == stage_rounds(MLDCircuit.k_path(self.K), self.EPS) == 5
        self._run(islands, tmp_path)
        path = tmp_path / CHECKPOINT_FILE
        state = read_envelope(path)
        for engine in state["engines"].values():
            assert engine["identity"]["rounds"] == 5
            engine["identity"]["rounds"] = rounds_for_epsilon(self.EPS)
        write_envelope(path, state)
        with pytest.raises(CheckpointCorruptError, match="different rounds ") as err:
            self._run(islands, tmp_path, resume=True)
        assert err.value.reason == "identity"
        res = self._run(islands, tmp_path, resume=True, allow_restart=True)
        assert not res.found and _values(res) == _values(fresh)
        # ...and the directory now holds the stage under this build's count
        assert _values(self._run(islands, tmp_path, resume=True)) == _values(fresh)

    def test_a_restart_forgets_the_other_questions_digests(self, islands,
                                                           tmp_path):
        """The digests stored beside a k = 6 stage are that question's: a
        k = 5 stage restarted over it logs what a fresh k = 5 run logs."""
        self._run(islands, tmp_path, digest_log=DigestLog(), n2=16)
        fresh, log = DigestLog(), DigestLog()
        self._run(islands, tmp_path / "fresh", k=5, seed=8, digest_log=fresh,
                  n2=16)
        self._run(islands, tmp_path, k=5, seed=8, resume=True,
                  allow_restart=True, digest_log=log, n2=16)
        assert (log.phases, log.rounds) == (fresh.phases, fresh.rounds)
        # ...and the directory's log is now this question's
        assert read_envelope(tmp_path / CHECKPOINT_FILE)["digests"] == fresh.rows()

    def test_a_restart_forgets_the_other_questions_fault_budgets(self, islands,
                                                                 tmp_path):
        """A k = 5 stage restarted over a k = 6 one spends its own fault
        budgets, not what the k = 6 run left of them."""
        rt_kw = dict(mode="simulated", n_processors=4, n1=2,
                     fault_plan=_crash_drop_plan())
        self._run(islands, tmp_path, **rt_kw)
        fresh = self._run(islands, tmp_path / "fresh", k=5, seed=8, **rt_kw)
        assert fresh.details["resilience"]["retries"] > 0
        res = self._run(islands, tmp_path, k=5, seed=8, resume=True,
                        allow_restart=True, **rt_kw)
        assert res.details["resilience"] == fresh.details["resilience"]

    def test_the_same_question_still_resumes(self, witnessed, tmp_path):
        res = self._run(witnessed, tmp_path, resume=True)
        assert res.found and res.details["resumed_from"] == str(tmp_path)


# --------------------------------------------------------------- watchdog
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestWatchdogUnit:
    def test_deadline_trips(self):
        clk = FakeClock()
        wd = Watchdog(deadline=10.0, clock=clk).start(monitor=False)
        wd.check()  # inside budget
        clk.t = 10.5
        with pytest.raises(WatchdogExpired) as ei:
            wd.check()
        assert ei.value.reason == "deadline"
        assert wd.tripped[0] == "deadline"

    def test_beat_resets_stall_clock(self):
        clk = FakeClock()
        wd = Watchdog(hang_timeout=5.0, clock=clk).start(monitor=False)
        clk.t = 4.0
        wd.beat()
        clk.t = 8.0  # 4s since beat: alive
        wd.check()
        clk.t = 13.5  # 9.5s since beat: stalled
        with pytest.raises(WatchdogExpired) as ei:
            wd.check()
        assert ei.value.reason == "stall"

    def test_trip_is_sticky(self):
        clk = FakeClock()
        wd = Watchdog(deadline=1.0, clock=clk).start(monitor=False)
        clk.t = 2.0
        with pytest.raises(WatchdogExpired):
            wd.check()
        clk.t = 0.5  # even if the clock went backwards, the trip holds
        with pytest.raises(WatchdogExpired):
            wd.check()

    def test_unarmed_never_trips(self):
        wd = Watchdog().start(monitor=False)
        assert not wd.armed
        wd.check()

    def test_monitor_thread_fires_on_trip_once(self):
        fired = []
        done = threading.Event()

        def on_trip():
            fired.append(1)
            done.set()

        wd = Watchdog(deadline=0.01, poll_interval=0.005)
        wd.start(on_trip=on_trip)
        assert done.wait(2.0), "monitor thread never tripped"
        wd.stop()
        assert fired == [1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Watchdog(deadline=0.0)
        with pytest.raises(ConfigurationError):
            Watchdog(hang_timeout=-1.0)


class TestWatchdogDegraded:
    def test_deadline_degrades_with_bound(self, islands, tmp_path):
        live = LiveRun()
        rt = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                          deadline=1e-9, live=live)
        res = detect_path(islands, 5, eps=0.3,
                          rng=RngStream(7).child("detect"), runtime=rt)
        rt.close_live()
        d = res.details["degraded"]
        assert d["reason"] == "deadline"
        p = round_success_bound(5, field_degree_for_k(5), 5)  # the 5-path's
        assert d["p_failure_bound"] == float((1 - p) ** d["rounds_completed"])
        assert len(res.rounds) == d["rounds_completed"]
        assert live.status.snapshot()["state"] == "degraded"
        # the trip flushed a checkpoint for a later resume
        assert (tmp_path / CHECKPOINT_FILE).exists()

    def test_degraded_then_resume_completes(self, islands, tmp_path):
        res0 = detect_path(islands, 5, eps=0.3,
                           rng=RngStream(7).child("detect"),
                           runtime=MidasRuntime(mode="sequential"))
        rt1 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           deadline=1e-9)
        detect_path(islands, 5, eps=0.3, rng=RngStream(7).child("detect"),
                    runtime=rt1)
        rt1.close_live()
        rt2 = MidasRuntime(mode="sequential", checkpoint_dir=str(tmp_path),
                           resume=True)
        res1 = detect_path(islands, 5, eps=0.3,
                           rng=RngStream(7).child("detect"), runtime=rt2)
        assert "degraded" not in res1.details
        assert _values(res1) == _values(res0)
        assert _virtuals(res1) == _virtuals(res0)

    def test_degraded_without_checkpoint_still_flushes_result(self, islands):
        rt = MidasRuntime(mode="sequential", deadline=1e-9)
        res = detect_path(islands, 5, eps=0.3,
                          rng=RngStream(7).child("detect"), runtime=rt)
        rt.close_live()
        assert res.details["degraded"]["reason"] == "deadline"
        assert res.found is False

    def test_runtime_validation(self):
        with pytest.raises(ConfigurationError):
            MidasRuntime(deadline=-1.0)
        with pytest.raises(ConfigurationError):
            MidasRuntime(hang_timeout=0.0)
        with pytest.raises(ConfigurationError):
            MidasRuntime(checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            MidasRuntime(resume=True)  # resume needs a checkpoint_dir
