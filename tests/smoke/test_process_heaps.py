"""Process-backend smoke: a worker that did not inherit the allocator
policy applies it itself.

A forked worker inherits glibc's malloc thresholds from its parent; a
spawned or forkserver-started one begins with the self-adjusting
defaults, under which a 16-word k-path window hands its heap top back to
the kernel and faults it in again every round.  Its first whole-graph
window fixes them (``core.leveldp.retain_worker_heaps``).  CI's
``process-smoke`` job selects this file (``pytest -m smoke tests/smoke
-k process``); ``tests/test_heap_policy.py`` bounds the forked fleet.
"""

import platform

import pytest

from repro.core.mld import MLDCircuit
from repro.core.problems import compile
from repro.core.process_backend import ProcessPhasePool
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

pytestmark = [
    pytest.mark.smoke,
    pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt only"),
]


def _minor_faults(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as f:  # field 10, after "pid (comm) state"
        return int(f.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.parametrize("start", ["spawn", "forkserver"])
def test_fresh_worker_keeps_its_heap(start):
    k, n2 = 11, 1024
    graph = erdos_renyi(400, m=1600, rng=RngStream(5))
    spec = compile(MLDCircuit.k_path(k), default_field_for_k(k, kernel_strategy="bitsliced"))
    pool = ProcessPhasePool(graph, 2, start_method=start)
    try:
        wired = pool.wire_spec(spec)

        def one_round(seed):  # a round as the engine sends it: one window each
            fp = spec.draw_fingerprint(graph.n, RngStream(seed))
            return {stamps[0] for _t, (_v, stamps, _m)
                    in pool.round(wired, fp, n2, [0, n2])}

        pids = one_round(0)  # imports, attach, spec build, first touch
        assert len(pids) == 2
        before = sum(map(_minor_faults, pids))
        for seed in range(1, 8):
            one_round(seed)
        faults = sum(map(_minor_faults, pids)) - before
    finally:
        pool.close()
    # glibc 2.36 with the defaults: ≈ 3 450 faults per round across the
    # two workers (24 000 over these seven); kept, a few in all
    assert faults < 1_000
