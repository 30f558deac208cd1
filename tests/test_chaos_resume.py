"""Chaos test: SIGKILL a real detection subprocess mid-round and resume.

The in-process property tests in ``test_durable.py`` cover every round
boundary deterministically; this file covers the part they cannot — a
genuine ``kill -9`` of a separate OS process, with the checkpoint state
recovered purely from disk by ``repro resume``.  The final checkpoint
of the killed-then-resumed run must match an uninterrupted control run
exactly (accumulator values, virtual seconds, replay digests).

Set ``CHAOS_ARTIFACTS`` to a directory to keep the run directories (the
CI job uploads them on failure).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.durable import CHECKPOINT_FILE, read_envelope

K, EPS, SEED = 8, 0.2, 7
N2 = "64"  # pinned: "mid-round" below means between two of a round's windows
N_CLIQUES, CLIQUE = 1000, 4  # 4000 nodes, witness-free for k=8


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = os.environ.get("CHAOS_ARTIFACTS")
    if base:
        path = Path(base)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path_factory.mktemp("chaos")


@pytest.fixture(scope="module")
def edge_list(workdir):
    path = workdir / "cliques.txt"
    with path.open("w") as fh:
        for c in range(N_CLIQUES):
            b = c * CLIQUE
            for i in range(CLIQUE):
                for j in range(i + 1, CLIQUE):
                    fh.write(f"{b + i} {b + j}\n")
    return path


def _cmd(edge_list, ckpt_dir, progress=None):
    argv = [sys.executable, "-m", "repro", "detect-path",
            "--edge-list", str(edge_list), "-k", str(K), "--eps", str(EPS),
            "--seed", str(SEED), "--n2", N2, "--checkpoint-dir", str(ckpt_dir)]
    if progress is not None:
        argv += ["--progress-out", str(progress)]
    return argv


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _final_state(ckpt_dir):
    return read_envelope(Path(ckpt_dir) / CHECKPOINT_FILE)


def _wait_for_committed_round(ckpt_dir, proc, timeout=120.0):
    """Block until the subprocess *commits* a checkpoint holding at least
    one round (or exits).  Commits are atomic renames, so a reader never
    sees a torn file — only the previous snapshot or the new one."""
    path = Path(ckpt_dir) / CHECKPOINT_FILE
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False  # finished before we could strike
        if path.exists():
            state = read_envelope(path)
            if any(e.get("values") for e in state["engines"].values()):
                return True
        time.sleep(0.01)
    raise TimeoutError("subprocess never committed a round")


@pytest.mark.slow
def test_sigkill_then_resume_matches_uninterrupted_control(workdir, edge_list):
    control_dir = workdir / "control"
    victim_dir = workdir / "victim"
    progress = workdir / "victim-progress.jsonl"

    # uninterrupted control run
    control = subprocess.run(_cmd(edge_list, control_dir), env=_env(),
                             capture_output=True, text=True, timeout=600)
    assert control.returncode == 1, control.stderr  # witness-free: not found

    # victim: SIGKILL after the first checkpointed round
    proc = subprocess.Popen(_cmd(edge_list, victim_dir, progress=progress),
                            env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        struck = _wait_for_committed_round(victim_dir, proc)
        if struck:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=600)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test bug
            proc.kill()
    if struck:
        assert proc.returncode == -signal.SIGKILL
        # the kill left a committed, readable checkpoint behind
        mid = read_envelope(victim_dir / CHECKPOINT_FILE)
        assert mid["engines"], "no round was checkpointed before the kill"

    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(victim_dir)],
        env=_env(), capture_output=True, text=True, timeout=600)
    assert resumed.returncode == 1, resumed.stderr
    assert f"resuming detect-path from {victim_dir}" in resumed.stdout
    if struck:
        assert f"resumed from checkpoint: {victim_dir}" in resumed.stdout

    # bit-identical final state: values, virtual times, digests
    assert _final_state(victim_dir) == _final_state(control_dir)


@pytest.mark.slow
def test_resume_of_corrupt_checkpoint_exits_2_and_allow_restart_recovers(
        workdir, edge_list):
    run_dir = workdir / "corrupt"
    done = subprocess.run(_cmd(edge_list, run_dir), env=_env(),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 1, done.stderr
    ckpt = run_dir / CHECKPOINT_FILE
    raw = bytearray(ckpt.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    ckpt.write_bytes(bytes(raw))

    refused = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(run_dir)],
        env=_env(), capture_output=True, text=True, timeout=600)
    assert refused.returncode == 2
    assert "corrupt checkpoint" in refused.stderr
    assert "--allow-restart" in refused.stderr

    restarted = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(run_dir),
         "--allow-restart"],
        env=_env(), capture_output=True, text=True, timeout=600)
    assert restarted.returncode == 1, restarted.stderr
    assert _final_state(run_dir) == _final_state(workdir / "control")


def test_sigint_mid_round_exits_130_within_two_seconds(workdir, edge_list):
    """Ctrl-C lands in the thread that computes: the run stops mid-round,
    flushes what it has and exits 130.  k=15 on the witness-free fixture
    is ~6 s a round, so "within 2 s" cannot be the round finishing (a
    detection handed to another thread kept computing to the end of the
    *query* before the process could exit)."""
    progress = workdir / "sigint-progress.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "detect-path",
         "--edge-list", str(edge_list), "-k", "15", "--eps", str(EPS),
         "--seed", str(SEED), "--n2", N2, "--progress-out", str(progress)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # a test runner started in the background hands down SIGINT ignored
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 120
        while not (progress.exists()
                   and '"stage_start"' in progress.read_text()):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "the stage never started"
            time.sleep(0.01)
        sent = time.monotonic()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
        waited = time.monotonic() - sent
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test bug
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    assert "flushing partial artifacts" in err
    assert waited < 2.0, f"exited {waited:.1f}s after SIGINT"
    assert '"event": "round"' not in progress.read_text(), \
        "the first round finished"
