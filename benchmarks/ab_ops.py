"""Interleaved per-op A/B of two revisions on one ledger workload.

    python3 benchmarks/ab_ops.py --base HEAD~1 [--head HEAD] [--workload W]
    python3 benchmarks/ab_ops.py --aa --quick          # the base against itself
    python3 benchmarks/ab_ops.py --base HEAD~1 --setup # set-up, not ops

Both revisions are checked out with ``git worktree`` at paths of equal
length, and each gets one long-lived worker process that imports that
tree's ``repro`` and its ``benchmarks/ledger/workloads.py`` (read-only)
and runs the workload's ops one at a time on request, every op through
``Workload.checked_op``, so each answer's digest is verified.  The
coordinator asks the two workers for op ``i`` in turn, alternating which
tree goes first, so host drift hits both sides alike; every ``--ops`` ops
it respawns the pair, because a process pair carries a bias of its own
(allocation, hash seeds, placement): the pair, not the op, is the unit
of replication.  Which tree's worker is spawned first alternates by pair
too, so neither side always starts on a quieter host.

``--setup`` times set-up instead: each pair spawns one fresh worker per
tree, one after the other, and takes the wall from spawn to ``ready`` —
interpreter start, imports, the workload's inputs, its ``setup()`` and
the warm op, what the ledger's ``setup_s`` counts — plus the worker's own
split of it into those four parts.  Run it with the ledger's environment
(``PYTHONDONTWRITEBYTECODE=1`` when the ledger runs so) to see what the
ledger sees.

It prints each pair's median per-op ratio head/base (``--setup``: the
pair's set-up ratio head/base and each side's split), then the median of
the pair medians, their spread (min..max) and how many pairs the head
won (a pair median below 1).  Beside each pair it prints the host-speed
probe of ``benchmarks/ledger/host.py`` — fixed work no change to the
program alters — as each worker ran it once ready: the head/base ratio of
the two probes, which reads 1 unless the worker processes themselves
differ in speed, and their mean host factor (1.0: the reference VM).  A move counts only outside the spread an
``--aa`` run shows on the same host, and a speed claim wants at least 9
of the default 10 pairs won.  Exit status
1 when an op fails or its digest is not the first op's.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the worker: import the tree's workload, then one timed op per request;
#: its ``ready`` line carries the seconds its imports, inputs, setup() and
#: warm op took
WORKER = r"""
import sys, time
t = [time.perf_counter()]
tree, name, seed, quick = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
sys.path[:0] = [tree + "/src", tree + "/benchmarks/ledger"]
import repro, workloads
from spans import NullRecorder
assert repro.__file__.startswith(tree), repro.__file__
t.append(time.perf_counter())
w = workloads.WORKLOADS[name](seed, quick=quick)
t.append(time.perf_counter())
w.setup()
t.append(time.perf_counter())
rec = NullRecorder()
w.checked_op(0, rec)  # warm: imports, fields, session
t.append(time.perf_counter())
print("ready", *(b - a for a, b in zip(t, t[1:])), flush=True)
for line in sys.stdin:
    if line == "probe\n":  # the host probe, fixed work in this process
        from host import HostSpeed
        probe = HostSpeed()
        probe.sample()
        print(probe.factor, flush=True)
        del probe
        continue
    i = int(line)
    t0 = time.perf_counter()
    try:
        w.checked_op(i, rec)
    except Exception as exc:
        print("error", type(exc).__name__, str(exc).replace("\n", " "), flush=True)
        continue
    print(time.perf_counter() - t0, flush=True)
w.close()
"""


#: the parts of a worker's set-up, in the order its ``ready`` line gives them
SPLIT = ("imports", "inputs", "setup", "warm_op")


class Worker:
    """One tree's long-lived op server; ``setup_s`` is its wall from spawn
    to ``ready`` and ``split`` the worker's own :data:`SPLIT` of it."""

    def __init__(self, tree: Path, args) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(tree), args.workload, str(args.seed),
             "1" if args.quick else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=tree)
        ready = self._expect("ready").split()
        self.setup_s = time.perf_counter() - t0
        self.split = dict(zip(SPLIT, map(float, ready[1:])))

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(what):
            raise RuntimeError(f"worker said {line!r}, expected {what!r}")
        return line

    def op(self, i) -> float:
        """Op ``i``'s seconds, or — ``i = "probe"`` — the host probe's factor."""
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if line.startswith("error") or not line:
            raise RuntimeError(f"op {i} failed: {line.strip() or 'worker died'}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def checkout(rev: str, path: Path) -> None:
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                    str(path), rev], check=True)


def spawn(trees, args, p: int) -> list:
    """Pair ``p``'s two workers, ``[base, head]``: the base's spawned first
    in an even pair, the head's in an odd one."""
    order = (0, 1) if p % 2 == 0 else (1, 0)
    workers = {}
    try:
        for side in order:
            workers[side] = Worker(trees[side], args)
    except BaseException:
        for w in workers.values():
            w.close()
        raise
    return [workers[0], workers[1]]


def probe(workers, p: int) -> tuple:
    """The pair's host probes, the side that went first alternating: their
    ratio head/base and the geometric mean of the two host factors."""
    order = (0, 1) if p % 2 == 0 else (1, 0)
    factor = {side: workers[side].op("probe") for side in order}
    return factor[1] / factor[0], (factor[0] * factor[1]) ** 0.5


def pair(trees, args, p: int) -> tuple:
    """Pair ``p``, ``args.ops`` ops each: the per-op ratios head/base, and
    the pair's :func:`probe`."""
    workers = spawn(trees, args, p)
    try:
        probes = probe(workers, p)
        ratios = []
        for i in range(p * args.ops, (p + 1) * args.ops):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            secs = {side: workers[side].op(i) for side in order}
            ratios.append(secs[1] / secs[0])
        return ratios, probes
    finally:
        for w in workers:
            w.close()


def setup_pair(trees, args, p: int) -> tuple:
    """Pair ``p`` of ``--setup``: the set-up ratio head/base, each side's
    wall and split printed, and the pair's :func:`probe`, taken after."""
    workers = spawn(trees, args, p)
    try:
        probes = probe(workers, p)
    finally:
        for w in workers:
            w.close()
    for side, w in zip(("base", "head"), workers):
        split = " ".join(f"{k} {v:.3f}" for k, v in w.split.items())
        print(f"  {side}: set-up {w.setup_s:.3f} s ({split})", flush=True)
    return workers[1].setup_s / workers[0].setup_s, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="the reference revision")
    ap.add_argument("--head", default="HEAD", help="the revision measured against it")
    ap.add_argument("--aa", action="store_true", help="run the base against itself")
    ap.add_argument("--workload", default="sim_scaling")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true", help="the ledger's smoke sizes")
    ap.add_argument("--ops", type=int, default=None,
                    help="ops a pair runs before both workers are respawned "
                         "(default 100; 20 with --quick)")
    ap.add_argument("--pairs", type=int, default=None,
                    help="worker pairs (default 10; 2 with --quick)")
    ap.add_argument("--setup", action="store_true",
                    help="time each side's set-up, spawn to ready, not its ops")
    args = ap.parse_args(argv)
    args.ops = args.ops or (20 if args.quick else 100)
    args.pairs = args.pairs or (2 if args.quick else 10)
    head = args.base if args.aa else args.head

    with tempfile.TemporaryDirectory(prefix="ab_ops-") as tmp:
        # equal-length paths: a checkout's path reaches some of what it runs
        trees = [Path(tmp) / "a" / "tree", Path(tmp) / "b" / "tree"]
        try:
            for rev, tree in zip((args.base, head), trees):
                checkout(rev, tree)
            medians, probes = [], []
            for p in range(args.pairs):
                t0 = time.perf_counter()
                if args.setup:
                    ratio, probed = setup_pair(trees, args, p)
                    what = "set-up head/base"
                else:
                    ratios, probed = pair(trees, args, p)
                    ratio = statistics.median(ratios)
                    what = f"{len(ratios)} ops, median head/base"
                medians.append(ratio)
                probes.append(probed)
                print(f"pair {p}: {what} {ratio:.4f}; probe head/base {probed[0]:.4f}, "
                      f"host x{probed[1]:.3f} ({time.perf_counter() - t0:.0f} s)",
                      flush=True)
        except RuntimeError as exc:
            print(f"ab_ops: {exc}", file=sys.stderr)
            return 1
        finally:
            for tree in trees:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                str(tree)], capture_output=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
    ratios, factors = zip(*probes)
    print(f"host probe: head/base median {statistics.median(ratios):.4f}, spread "
          f"{min(ratios):.4f}..{max(ratios):.4f}; host x{statistics.median(factors):.3f} "
          f"(x{min(factors):.3f}..x{max(factors):.3f})")
    label = f"{args.base} vs itself" if args.aa else f"{args.base} -> {head}"
    if args.setup:
        label += ", set-up"
    print(f"{args.workload} {label}: median of {len(medians)} pair medians "
          f"{statistics.median(medians):.4f}, spread {min(medians):.4f}..{max(medians):.4f}; "
          f"head faster in {sum(m < 1 for m in medians)}/{len(medians)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
