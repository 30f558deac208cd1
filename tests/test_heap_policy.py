"""The allocator policy, measured: a level step stops re-faulting its memory.

Every process that runs level steps fixes glibc's malloc thresholds at
its first whole-graph window (``core.leveldp.retain_worker_heaps``);
nobody here asks for it.  The thresholds are process-wide and final, so
each case runs in a fresh interpreter and reports the minor page faults
``getrusage`` counted over the ops it was asked to time, after one
warm-up op (which first-touches the heap the rest reuse).
"""

import platform
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="glibc mallopt only")

_CASES = """
import resource, sys, threading
from repro.core.midas import MidasRuntime, detect_path
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream


def faults(who, run, ops):
    run(0)
    before = resource.getrusage(who).ru_minflt
    for seed in range(1, ops + 1):
        run(seed)
    return resource.getrusage(who).ru_minflt - before


case = sys.argv[1]
if case == "sequential":  # the library on the main thread, 16-word windows
    graph = erdos_renyi(800, m=6400, rng=RngStream(5))
    print(faults(resource.RUSAGE_SELF, lambda seed: detect_path(
        graph, 10, eps=0.2, rng=RngStream(seed), early_exit=False), 3))
elif case == "process":  # a forked fleet per op; the children are reaped
    graph = erdos_renyi(400, m=1600, rng=RngStream(5))
    print(faults(resource.RUSAGE_CHILDREN, lambda seed: detect_path(
        graph, 11, eps=0.2, rng=RngStream(seed), early_exit=False,
        runtime=MidasRuntime(mode="process", workers=2,
                             process_start=sys.argv[2])), 2) // 2)
elif case == "thread":  # what a service's querying thread runs
    graph = erdos_renyi(1500, m=6000, rng=RngStream(5))
    out = []
    worker = threading.Thread(target=lambda: out.append(faults(
        resource.RUSAGE_THREAD, lambda seed: detect_path(
            graph, 7, eps=0.2, rng=RngStream(seed), early_exit=False), 10)))
    worker.start()
    worker.join()
    print(out[0])
"""


def minor_faults(*case: str) -> int:
    out = subprocess.run([sys.executable, "-c", _CASES, *case],
                         capture_output=True, text=True, check=True, timeout=300)
    return int(out.stdout)


def test_main_thread_keeps_its_heap():
    # glibc 2.36 with its self-adjusting thresholds: ≈ 6 300 faults per op
    # on this graph (28 000 on the ledger's kpath_dense), 0.1 - 1.3 MB
    # level temporaries unmapped and mapped again every window
    assert minor_faults("sequential") < 1_000


def test_forked_fleet_stays_under_its_first_touch():
    # per op: two workers forked, attached and first-touching their heaps
    # (≈ 3 400 pages); with the defaults, which the parent never changed
    # (it runs no level step), glibc 2.36 takes ≈ 29 800
    assert minor_faults("process", "fork") < 8_000


def test_querying_thread_stops_refaulting_its_arena():
    # 480 level steps of two-word windows, 170-310 KB of plane temporaries
    # each, at the top of the thread's own arena: with the defaults glibc
    # 2.36 takes ≈ 27 500 page faults re-mapping it over these ten queries
    assert minor_faults("thread") < 500
