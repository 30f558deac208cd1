"""Host fingerprint and host-speed probe recorded with every ledger result.

A wall-clock number means nothing without the machine it was taken on,
and on a shared host it also needs a statement of how fast and how steady
that machine was while it was taken.  The probe is fixed work — a 256 MB
XOR-reduce (32 sweeps of an 8 MiB array, so it adds little to the peak RSS
it is reported beside) and a pure-Python loop — timed before and after the
measured section.  Its spread marks a run ``noisy`` (above
:data:`NOISY_CV`); its level is the host's slow-down factor, by which the
end-to-end timings are divided (see the README, "Host-normalised seconds").
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import List

import numpy as np

from catalog import THREAD_CAPS

NOISY_CV = 0.05
PROBE_BYTES = 256 << 20
PROBE_SWEEPS = 32
PY_PROBE_ITERS = 100_000
# Median probe durations on the 2-vCPU reference VM in its usual state
# (measured 2026-09-29); they only fix the unit of ``HostSpeed.factor``.
REF_XOR_S = 0.0144
REF_PY_S = 0.0148


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def llc_bytes() -> int:
    """Size of the largest cache level visible to cpu0 (0 when unknown)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * mult)
    return best


def _cpuinfo() -> dict:
    model, flags = "", []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            key = key.strip()
            if key == "model name" and not model:
                model = val.strip()
            elif key == "flags" and not flags:
                flags = val.split()
    except OSError:
        pass
    keep = ("sse4_2", "avx", "avx2", "avx512f", "avx512bw", "bmi2", "pclmulqdq")
    return {"model": model or platform.processor(),
            "flags": [f for f in keep if f in flags]}


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: Path) -> dict:
    cpu = _cpuinfo()
    return {
        "nproc": nproc(),
        "cpu_model": cpu["model"],
        "cpu_flags": cpu["flags"],
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "git_sha": _git_sha(root),
    }


def _py_loop() -> int:
    """A fixed stretch of interpreter-bound work (dict stores, int arithmetic)."""
    table, acc = {}, 0
    for i in range(PY_PROBE_ITERS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


class HostSpeed:
    """How fast the host is right now, from two fixed pieces of work that no
    change to the program can alter: a 256 MB XOR-reduce (numpy, streaming)
    and a pure-Python loop (interpreter-bound).

    ``sample()`` before and after a measured section; ``factor`` is the
    geometric mean of the two slow-downs against the reference durations
    (1.0 = the reference VM in its usual state, 1.2 = the host is running
    20 % slow), and ``cv`` the spread of the samples, which decides
    ``noisy``.
    """

    def __init__(self) -> None:
        self._data = np.arange(PROBE_BYTES // PROBE_SWEEPS // 8, dtype=np.uint64)
        self.xor_s: List[float] = []
        self.py_s: List[float] = []

    def sample(self, reps: int = 5) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(PROBE_SWEEPS):
                np.bitwise_xor.reduce(self._data)
            t1 = time.perf_counter()
            _py_loop()
            self.xor_s.append(t1 - t0)
            self.py_s.append(time.perf_counter() - t1)

    @property
    def factor(self) -> float:
        return ((statistics.median(self.xor_s) / REF_XOR_S)
                * (statistics.median(self.py_s) / REF_PY_S)) ** 0.5

    @property
    def cv(self) -> float:
        both = [(x * p) ** 0.5 for x, p in zip(self.xor_s, self.py_s)]
        if len(both) < 2:
            return 0.0
        return statistics.pstdev(both) / statistics.fmean(both)

    def report(self) -> dict:
        return {"probe_bytes": PROBE_BYTES, "probe_xor_s": self.xor_s,
                "probe_py_s": self.py_s, "host_factor": self.factor,
                "probe_cv": self.cv, "noisy": self.cv > NOISY_CV}
