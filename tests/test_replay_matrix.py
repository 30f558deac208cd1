"""Cross-backend replay verification matrix.

`verify_replay` must pass for every detection driver on every backend
(primary) against the sequential reference — the engine's bit-identical
claim made checkable per run — and must localize a deliberately broken
accumulator to the exact (round, batch, phase) coordinate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import BACKENDS, MidasRuntime
from repro.core.midas import (
    detect_path,
    detect_scan_cell,
    detect_tree,
    max_weight_path,
    scan_grid,
)
from repro.core.problems import ProblemSpec
from repro.errors import ConfigurationError, ReplayMismatchError
from repro.graph.generators import erdos_renyi
from repro.graph.templates import TreeTemplate
from repro.sanitize import DigestLog, verify_replay
from repro.sanitize.replay import (
    ReplayDivergence,
    diff_digest_logs,
    value_digest,
)
from repro.util.rng import RngStream


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, m=80, rng=RngStream(77))


@pytest.fixture(scope="module")
def weights(graph):
    return RngStream(78).integers(0, 3, size=graph.n).astype(np.int64)


TEMPLATE = TreeTemplate(4, [(0, 1), (0, 2), (0, 3)])

# driver name -> (driver, extra positional args builder, kwargs)
DRIVERS = {
    "detect_path": (detect_path, lambda g, w: (4,), {"eps": 0.5}),
    "detect_tree": (detect_tree, lambda g, w: (TEMPLATE,), {"eps": 0.5}),
    "max_weight_path": (max_weight_path, lambda g, w: (4, w), {"eps": 0.5}),
    "detect_scan_cell": (
        detect_scan_cell,
        lambda g, w: (w, 3, int(w[:3].sum())),
        {"eps": 0.5},
    ),
    "scan_grid": (scan_grid, lambda g, w: (w, 3), {"eps": 0.5}),
}

MODES = ("sequential", "threaded", "simulated")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_replay_matrix(graph, weights, name, mode):
    driver, mkargs, kwargs = DRIVERS[name]
    rt = MidasRuntime(mode=mode, n_processors=4, n1=2)
    report = verify_replay(
        driver, graph, *mkargs(graph, weights),
        runtime=rt, reference_mode="sequential", seed=5, **kwargs,
    )
    assert report.ok
    assert report.primary_mode == mode
    assert report.phases_checked > 0
    assert report.rounds_checked > 0
    assert "identical" in report.text()


def test_replay_against_modeled_reference(graph):
    rt = MidasRuntime(mode="sequential")
    report = verify_replay(detect_path, graph, 4, runtime=rt,
                           reference_mode="modeled", seed=5, eps=0.5)
    assert report.ok


def test_replay_results_agree(graph):
    rt = MidasRuntime(mode="simulated", n_processors=4, n1=2)
    report = verify_replay(detect_path, graph, 4, runtime=rt, seed=5, eps=0.5)
    assert report.primary_result.found == report.reference_result.found


def test_invalid_reference_mode(graph):
    with pytest.raises(ConfigurationError):
        verify_replay(detect_path, graph, 4, reference_mode="mpi")


# ------------------------------------------------- deliberate divergence
def test_corrupted_phase_localized(graph, monkeypatch):
    """Corrupting the very first phase contribution of the primary run is
    pinpointed as a *phase* divergence at (round 0, batch 0, phase 0)."""
    real = ProblemSpec.phase_value
    calls = {"n": 0}

    def crooked(self, g, fp, q0, n2):
        calls["n"] += 1
        v = real(self, g, fp, q0, n2)
        return v ^ 1 if calls["n"] == 1 else v

    monkeypatch.setattr(ProblemSpec, "phase_value", crooked)
    rt = MidasRuntime(mode="sequential")
    with pytest.raises(ReplayMismatchError) as ei:
        verify_replay(detect_path, graph, 4, runtime=rt, seed=5, eps=0.8)
    err = ei.value
    assert err.round_index == 0
    assert err.batch == 0
    assert err.phase == 0
    assert "phase digest" in str(err)


def test_noncommutative_accumulator_localized_to_round(graph, monkeypatch):
    """A broken accumulator whose value depends on *execution history*
    (here: which run we are in) leaves every phase digest intact but
    diverges the round accumulator — reported as a *round* divergence."""
    state = {"salt": 0}

    def salted_init(self):
        state["salt"] += 1
        return state["salt"] if self.scalar else np.full(
            self.payload, state["salt"], dtype=self.field.dtype
        )

    monkeypatch.setattr(ProblemSpec, "acc_init", salted_init)
    rt = MidasRuntime(mode="sequential")
    report = verify_replay(detect_path, graph, 4, runtime=rt, seed=5,
                           eps=0.8, strict=False)
    assert not report.ok
    assert report.divergence.what == "round"
    assert report.divergence.round_index == 0
    with pytest.raises(ReplayMismatchError):
        report.raise_if_divergent()


# --------------------------------------------------------- log/diff units
class TestDigestLog:
    def test_record_and_len(self):
        log = DigestLog()
        log.record_phase(0, 0, 0, 111)
        log.record_round(0, 222)
        assert len(log) == 2
        assert log.phases[(0, 0, 0)] == 111
        assert log.rounds[(0,)] == 222

    def test_diff_identical_logs(self):
        a, b = DigestLog(), DigestLog()
        for log in (a, b):
            log.record_phase(0, 0, 0, 1)
            log.record_round(0, 2)
        assert diff_digest_logs(a, b) is None

    def test_diff_prefers_earliest_phase(self):
        a, b = DigestLog(), DigestLog()
        for log in (a, b):
            log.record_phase(0, 0, 0, 1)
        a.record_phase(0, 0, 1, 10)
        b.record_phase(0, 0, 1, 20)
        a.record_phase(1, 0, 0, 30)
        b.record_phase(1, 0, 0, 40)
        d = diff_digest_logs(a, b)
        assert (d.what, d.round_index, d.batch, d.phase) == ("phase", 0, 0, 1)

    def test_diff_missing_key_is_divergence(self):
        a, b = DigestLog(), DigestLog()
        a.record_phase(0, 0, 0, 1)
        d = diff_digest_logs(a, b)
        assert d.what == "phase"
        assert d.reference is None
        assert "missing" in d.message()

    def test_diff_round_only(self):
        a, b = DigestLog(), DigestLog()
        a.record_phase(0, 0, 0, 1)
        b.record_phase(0, 0, 0, 1)
        a.record_round(0, 5)
        b.record_round(0, 6)
        d = diff_digest_logs(a, b)
        assert d.what == "round"
        assert d.phase is None


class TestValueDigest:
    def test_scalar_digests(self):
        assert value_digest(5) == value_digest(5)
        assert value_digest(5) != value_digest(6)
        assert value_digest(0) != value_digest(1)

    def test_array_digests_include_dtype(self):
        a = np.arange(4, dtype=np.uint64)
        assert value_digest(a) == value_digest(a.copy())
        assert value_digest(a) != value_digest(a.astype(np.uint32))

    def test_numpy_integer_accepted(self):
        assert value_digest(np.uint64(7)) == value_digest(7)


def test_divergence_message_format():
    d = ReplayDivergence("phase", 2, 1, 0xAB, 0xCD, phase=5)
    msg = d.message()
    assert msg.startswith("replay diverged at round 2, ")
    assert "round 2" in msg
    assert "batch 1" in msg
    assert "phase 5" in msg


def test_every_mode_is_a_reference(graph):
    """The reference runtime's construction is the one mode check: every
    registered mode is a reference, process included, and no other."""
    assert "process" in BACKENDS
    rt = MidasRuntime(n_processors=4, n1=2, workers=2)
    for mode in BACKENDS:
        report = verify_replay(detect_path, graph, 4, runtime=rt,
                               reference_mode=mode, seed=5, eps=0.5)
        assert report.ok and report.reference_mode == mode
    with pytest.raises(ConfigurationError, match="mode must be one of"):
        verify_replay(detect_path, graph, 4, runtime=rt, reference_mode="mpi")


def test_cli_verify_against_process(capsys):
    assert main(["verify", "--er", "60", "-k", "4", "--reference-mode",
                 "process", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "replay sequential vs process: " in out
    assert "identical" in out and "verify: OK" in out
