"""The five ledger workloads: generated inputs, set-up, ops, verification.

Each workload is a class whose constructor *generates the inputs* from the
benchmark seed (the program only ever sees graphs, weights and
``QuerySpec``s), ``setup()`` builds whatever the program keeps between
ops, ``op(i, rec)`` runs one closed-loop op under the given span recorder
and returns a digest of its answer, and ``companions()`` checks the
one-sided error contract on small instances.  All five use ``eps=0.2``
(8 rounds), ``early_exit=False`` and the default synthetic calibration, so
the work per op depends on the sizes alone, never on the seed.

Sizes are those recorded in ``BENCHMARK.json``; ``quick=True`` swaps in
tiny ones for the smoke test.
"""

from __future__ import annotations

import hashlib
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import exact
from repro.core.engine import MidasRuntime
from repro.core.midas import detect_path, detect_tree, max_weight_path, scan_grid
from repro.core.schedule import rounds_for_epsilon
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, plant_path, plant_tree
from repro.graph.templates import TreeTemplate
from repro.obs.metrics import MetricsRegistry
from repro.service import DetectionService, LocalClient, QuerySpec, canonical_result
from repro.service.broker import execute_query
from repro.util.rng import RngStream

from host import nproc

EPS = 0.2
ROUNDS = rounds_for_epsilon(EPS)


class WrongAnswer(Exception):
    """An op returned an answer the generated instance rules out."""


def derive(seed: int, label: str, n: int = 1) -> List[int]:
    """``n`` integer seeds determined by ``(seed, label)`` and nothing else."""
    seq = np.random.SeedSequence([int(seed), zlib.crc32(label.encode())])
    return [int(x) for x in seq.generate_state(n, dtype=np.uint32)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def detection_digest(res) -> str:
    return digest(res.found, [int(r.value) for r in res.rounds])


def graph_digest(g: CSRGraph) -> str:
    return digest(g.n, g.indptr, g.indices)


def small_components(size: int, copies: int = 3) -> CSRGraph:
    """Disjoint ``size``-cliques: no connected subgraph has more vertices."""
    edges = [(c * size + a, c * size + b)
             for c in range(copies) for a in range(size) for b in range(a + 1, size)]
    return CSRGraph.from_edges(size * copies, np.array(edges, dtype=np.int64).reshape(-1, 2),
                               name=f"cliques({copies}x{size})")


def tiny_graph(seed: int, label: str) -> CSRGraph:
    """The <= 14-vertex companion the exact oracle can enumerate."""
    return erdos_renyi(14, m=20, rng=RngStream(derive(seed, label)[0]))


class Workload:
    """Base: sequential closed loop over ``op`` until the time is up."""

    name = "?"
    sizes: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = int(seed)
        self.quick = quick
        self.p = dict(self.sizes["quick" if quick else "full"])
        # every op of a run repeats one computation: the work is fixed by the
        # sizes, and the answer's digest must be the same each time
        self.op_seed = derive(seed, f"{self.name}/op")[0]
        self._first_digest: Optional[str] = None

    # -- subclass surface ---------------------------------------------------
    def manifest_parts(self) -> dict:
        """Everything the program will receive, as hashable pieces."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build what the program keeps between ops."""

    def op(self, i: int, rec) -> str:
        raise NotImplementedError

    def companions(self) -> List[str]:
        """One-sided checks on small instances; returns failure messages."""
        return []

    def close(self) -> None:
        pass

    # -- shared -------------------------------------------------------------
    def manifest(self) -> dict:
        parts = {"workload": self.name, "seed": self.seed, "params": self.p,
                 "eps": EPS, "rounds": ROUNDS, "op_seed": self.op_seed,
                 **self.manifest_parts()}
        blob = repr(sorted(parts.items())).encode()
        return {**parts, "sha256": hashlib.sha256(blob).hexdigest()}

    def checked_op(self, i: int, rec) -> None:
        """One op plus the determinism check: every op must reproduce the
        first op's digest."""
        got = self.op(i, rec)
        if self._first_digest is None:
            self._first_digest = got
        if got != self._first_digest:
            raise WrongAnswer(f"{self.name} op {i}: digest {got} != "
                              f"{self._first_digest} of the first op")

    def run_timed(self, seconds: float, rec, first_op: int = 0) -> dict:
        samples, failures = [], []
        t_begin = time.perf_counter()
        deadline = t_begin + seconds
        i = first_op
        while True:
            t0 = time.perf_counter()
            try:
                with rec.span("op", "driver", op=i):
                    self.checked_op(i, rec)
            except Exception as exc:  # an op that raises is a failed op
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            samples.append(time.perf_counter() - t0)
            i += 1
            if time.perf_counter() >= deadline:
                break
        return {"samples": samples, "attempted": len(samples),
                "failures": failures, "wall_s": time.perf_counter() - t_begin,
                "counts": {}, "next_op": i}


def _planted_path_graph(seed: int, label: str, n: int, m: Optional[int], k: int):
    g = erdos_renyi(n, m=m, rng=RngStream(derive(seed, f"{label}/graph")[0]))
    return plant_path(g, k, rng=RngStream(derive(seed, f"{label}/plant")[0]))[0]


def _path_companions(seed: int, label: str, k: int,
                     run: Callable[[CSRGraph, int], bool]) -> List[str]:
    bad = []
    if run(small_components(k - 1), k):
        bad.append(f"{label}: k-path reported in components smaller than k")
    tiny, kk = tiny_graph(seed, f"{label}/tiny"), min(k, 6)
    if run(tiny, kk) and not exact.has_path(tiny, kk):
        bad.append(f"{label}: k-path reported on the tiny companion, exact says none")
    return bad


class KpathDense(Workload):
    name = "kpath_dense"
    sizes = {"full": {"n": 800, "m": 6400, "k": 10},
             "quick": {"n": 120, "m": 480, "k": 6}}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.k = self.p["k"]
        self.graph = _planted_path_graph(
            seed, self.name, self.p["n"], self.p["m"], self.k)

    def manifest_parts(self) -> dict:
        return {"graph": graph_digest(self.graph)}

    def _detect(self, g: CSRGraph, k: int, seed: int):
        return detect_path(g, k, eps=EPS, rng=RngStream(seed), early_exit=False)

    def op(self, i: int, rec) -> str:
        with rec.span("detect_path", "core.engine") as sp:
            res = self._detect(self.graph, self.k, self.op_seed)
            sp.count(rounds=res.rounds_run)
        if not res.found:
            raise WrongAnswer("planted k-path not found")
        return detection_digest(res)

    def companions(self) -> List[str]:
        return _path_companions(
            self.seed, self.name, self.k,
            lambda g, k: self._detect(g, k, self.op_seed).found)


class KindsElementwise(Workload):
    name = "kinds_elementwise"
    sizes = {"full": {"n": 600, "tree_k": 8, "wpath_k": 6, "scan_k": 5},
             "quick": {"n": 80, "tree_k": 5, "wpath_k": 4, "scan_k": 3}}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        n = self.p["n"]
        self.template = TreeTemplate.binary(self.p["tree_k"])
        g = erdos_renyi(n, rng=RngStream(derive(seed, f"{self.name}/graph")[0]))
        g, _ = plant_tree(g, self.template,
                          rng=RngStream(derive(seed, f"{self.name}/tree")[0]))
        self.graph, _ = plant_path(g, self.p["wpath_k"],
                                   rng=RngStream(derive(seed, f"{self.name}/path")[0]))
        self.weights = RngStream(derive(seed, f"{self.name}/weights")[0]).integers(
            0, 2, size=n)

    def manifest_parts(self) -> dict:
        return {"graph": graph_digest(self.graph), "weights": digest(self.weights),
                "template": self.template.name}

    def _tree(self, g, template, seed):
        return detect_tree(g, template, eps=EPS, rng=RngStream(seed), early_exit=False)

    def _wpath(self, g, w, k, seed):
        return max_weight_path(g, k, w, eps=EPS, rng=RngStream(seed))

    def _scan(self, g, w, k, seed):
        return scan_grid(g, w, k, eps=EPS, rng=RngStream(seed))

    def op(self, i: int, rec) -> str:
        seed = self.op_seed
        with rec.span("detect_tree", "core.engine"):
            tree = self._tree(self.graph, self.template, seed)
        with rec.span("max_weight_path", "core.engine"):
            best = self._wpath(self.graph, self.weights, self.p["wpath_k"], seed)
        with rec.span("scan_grid", "core.engine"):
            grid = self._scan(self.graph, self.weights, self.p["scan_k"], seed)
        if not tree.found:
            raise WrongAnswer("planted tree not found")
        # weights are 0/1, so a certified path weight can never exceed k
        if best is None or not 0 <= best <= self.p["wpath_k"]:
            raise WrongAnswer(f"max_weight_path returned {best!r} with a path planted")
        if not grid.detected[self.p["scan_k"]].any():
            raise WrongAnswer("no connected subgraph of the scanned size detected")
        return digest(detection_digest(tree), best, grid.detected)

    def companions(self) -> List[str]:
        bad, seed = [], self.op_seed
        tk, wk, sk = self.p["tree_k"], self.p["wpath_k"], self.p["scan_k"]
        if self._tree(small_components(tk - 1), self.template, seed).found:
            bad.append("k-tree reported in components smaller than k")
        none = small_components(wk - 1)
        if self._wpath(none, np.ones(none.n, dtype=np.int64), wk, seed) is not None:
            bad.append("weighted k-path reported in components smaller than k")
        none = small_components(sk - 1)
        if self._scan(none, np.ones(none.n, dtype=np.int64), sk, seed).detected[sk].any():
            bad.append("size-k scan cell reported in components smaller than k")

        tiny = tiny_graph(self.seed, f"{self.name}/tiny")
        w = RngStream(derive(self.seed, f"{self.name}/tiny-w")[0]).integers(0, 2, size=tiny.n)
        small_tree = TreeTemplate.binary(min(tk, 5))
        if (self._tree(tiny, small_tree, seed).found
                and not exact.has_tree(tiny, small_tree)):
            bad.append("k-tree reported on the tiny companion, exact says none")
        got, true_max = self._wpath(tiny, w, min(wk, 5), seed), exact.max_weight_path(
            tiny, min(wk, 5), w)
        if got is not None and (true_max is None or got > true_max):
            bad.append(f"weighted path {got} exceeds the exact maximum {true_max}")
        cells = set(self._scan(tiny, w, min(sk, 4), seed).feasible_cells())
        if not cells <= exact.scan_cells(tiny, w, min(sk, 4)):
            bad.append("scan grid reported a (size, weight) cell exact rules out")
        return bad


class KpathWideProc(Workload):
    name = "kpath_wide_proc"
    sizes = {"full": {"n": 400, "m": 1600, "k": 11},
             "quick": {"n": 100, "m": 400, "k": 7}}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.k = self.p["k"]
        self.workers = min(nproc(), 4)
        self.graph = _planted_path_graph(
            seed, self.name, self.p["n"], self.p["m"], self.k)
        self.reference: Optional[str] = None

    def manifest_parts(self) -> dict:
        return {"graph": graph_digest(self.graph), "workers": self.workers}

    def _detect(self, g: CSRGraph, k: int, seed: int, mode: str):
        rt = MidasRuntime(mode=mode, workers=self.workers if mode == "process" else None)
        return detect_path(g, k, eps=EPS, rng=RngStream(seed), runtime=rt,
                           early_exit=False)

    def setup(self) -> None:
        # the single-threaded baseline doubles as the bit-identity reference
        self.reference = detection_digest(
            self._detect(self.graph, self.k, self.op_seed, "sequential"))

    def op(self, i: int, rec) -> str:
        with rec.span("detect_path[process]", "core.engine") as sp:
            res = self._detect(self.graph, self.k, self.op_seed, "process")
            sp.count(rounds=res.rounds_run, workers=self.workers)
        if not res.found:
            raise WrongAnswer("planted k-path not found")
        got = detection_digest(res)
        if got != self.reference:
            raise WrongAnswer("process backend differs from the sequential reference")
        return got

    def companions(self) -> List[str]:
        return _path_companions(
            self.seed, self.name, self.k,
            lambda g, k: self._detect(g, k, self.op_seed, "process").found)


class SimScaling(Workload):
    name = "sim_scaling"
    sizes = {"full": {"n": 800, "k": 8, "n_processors": 64, "n1": 16},
             "quick": {"n": 100, "k": 5, "n_processors": 16, "n1": 4}}

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.k = self.p["k"]
        self.graph = _planted_path_graph(seed, self.name, self.p["n"], None, self.k)

    def manifest_parts(self) -> dict:
        return {"graph": graph_digest(self.graph)}

    def runtime(self, n_processors: Optional[int] = None, **extra) -> MidasRuntime:
        return MidasRuntime(n_processors=n_processors or self.p["n_processors"],
                            n1=self.p["n1"], mode="simulated", **extra)

    def _detect(self, g: CSRGraph, k: int, seed: int):
        return detect_path(g, k, eps=EPS, rng=RngStream(seed),
                           runtime=self.runtime(), early_exit=False)

    def op(self, i: int, rec) -> str:
        with rec.span("detect_path[simulated]", "runtime") as sp:
            res = self._detect(self.graph, self.k, self.op_seed)
            sp.count(rounds=res.rounds_run, ranks=self.p["n_processors"])
        if not res.found:
            raise WrongAnswer("planted k-path not found")
        # the virtual clock is part of the answer: it must repeat exactly
        return digest(detection_digest(res), res.virtual_seconds)

    def companions(self) -> List[str]:
        return _path_companions(
            self.seed, self.name, self.k,
            lambda g, k: self._detect(g, k, self.op_seed).found)


class ServiceMixed(Workload):
    name = "service_mixed"
    sizes = {"full": {"n": 1500, "m": 6000, "path_k": 6, "tree_k": 5, "stream": 1200},
             "quick": {"n": 200, "m": 800, "path_k": 4, "tree_k": 3, "stream": 60}}
    GRAPH = "ledger"
    PATH_SHARE, REPEAT_SHARE, STANDALONE_SAMPLE = 0.7, 0.25, 10

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.clients = min(nproc(), 2)
        self.graph = erdos_renyi(self.p["n"], m=self.p["m"],
                                 rng=RngStream(derive(seed, f"{self.name}/graph")[0]))
        self.stream, self.original = self._make_stream()
        self.service: Optional[DetectionService] = None
        self.client: Optional[LocalClient] = None

    def _spec(self, kind: str, seed: int, graph: str = GRAPH,
              k: Optional[int] = None) -> QuerySpec:
        if k is None:
            k = self.p["path_k"] if kind == "detect-path" else self.p["tree_k"]
        return QuerySpec(kind=kind, graph=graph, k=k, eps=EPS, seed={"seed": seed},
                         template="binary", early_exit=False)

    def _make_stream(self) -> Tuple[List[QuerySpec], List[int]]:
        """The query stream: 70 % k-path, 30 % binary k-tree, and a quarter
        of the queries repeat an earlier (kind, seed).  ``original[j]`` is
        the index of the first query with query ``j``'s content."""
        rng = np.random.default_rng(derive(self.seed, f"{self.name}/stream")[0])
        seeds = derive(self.seed, f"{self.name}/query-seeds", self.p["stream"])
        stream: List[QuerySpec] = []
        original: List[int] = []
        for j in range(self.p["stream"]):
            if stream and rng.random() < self.REPEAT_SHARE:
                first = original[int(rng.integers(len(stream)))]
                stream.append(stream[first])
                original.append(first)
            else:
                kind = "detect-path" if rng.random() < self.PATH_SHARE else "detect-tree"
                stream.append(self._spec(kind, seeds[j]))
                original.append(j)
        return stream, original

    def manifest_parts(self) -> dict:
        return {"graph": graph_digest(self.graph), "clients": self.clients,
                "stream": digest([(s.kind, s.k, s.seed["seed"]) for s in self.stream])}

    def setup(self) -> None:
        self.service = DetectionService(workers=nproc(), quota=8,
                                        metrics=MetricsRegistry()).start()
        self.client = LocalClient(self.service)
        self.client.register_graph(self.graph, name=self.GRAPH)

    def warm_specs(self) -> List[QuerySpec]:
        a, b = derive(self.seed, f"{self.name}/warm", 2)
        return [self._spec("detect-path", a), self._spec("detect-tree", b)]

    def op(self, i: int, rec) -> str:
        """Warm-up only (one query per kind); timed ops go through run_timed."""
        return digest([self._query(spec, "warm", i, rec)[0] for spec in self.warm_specs()])

    def _query(self, spec: QuerySpec, tenant: str, op: int, rec):
        with rec.span("LocalClient.query", "service", op=op) as sp:
            out = self.client.query(spec, tenant=tenant)
            sp.count(queries=1, cache_hits=int(out.cache_hit),
                     coalesced=int(out.coalesced))
        if out.found is not True:
            raise WrongAnswer(f"{spec.kind} k={spec.k} not found on a graph full of them")
        return canonical_result(out.payload), out

    def run_timed(self, seconds: float, rec, first_op: int = 0) -> dict:
        lock = threading.Lock()
        cursor = [first_op]
        samples: List[float] = []
        failures: List[str] = []
        results: Dict[int, dict] = {}
        counts = {"queries": 0, "cache_hits": 0, "coalesced": 0}
        t_begin = time.perf_counter()
        deadline = t_begin + seconds

        def client_loop(tenant: str) -> None:
            while True:
                with lock:
                    j = cursor[0]
                    cursor[0] += 1
                if j >= len(self.stream):
                    return
                t0 = time.perf_counter()
                try:
                    result, out = self._query(self.stream[j], tenant, j, rec)
                except Exception as exc:  # a query that raises is a failed op
                    result, out = None, None
                    err = f"query {j}: {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                with lock:
                    samples.append(dt)
                    if out is None:
                        failures.append(err)
                    else:
                        results[j] = result
                        counts["queries"] += 1
                        counts["cache_hits"] += int(out.cache_hit)
                        counts["coalesced"] += int(out.coalesced)
                if time.perf_counter() >= deadline:
                    return

        threads = [threading.Thread(target=client_loop, args=(f"tenant-{c}",))
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t_begin

        # a repeat must equal its original, however each was served
        for j, result in sorted(results.items()):
            first = self.original[j]
            if first != j and first in results and results[first] != result:
                failures.append(f"query {j}: differs from its original {first}")
        failures += self._standalone_sample(results)
        return {"samples": samples, "attempted": len(samples), "failures": failures,
                "wall_s": wall, "counts": counts, "next_op": cursor[0]}

    def _standalone_sample(self, results: Dict[int, dict]) -> List[str]:
        """Re-run a fixed sample of served queries without the service."""
        bad = []
        entry = self.service.registry.resolve(self.GRAPH)
        done = sorted(results)
        step = max(1, len(done) // self.STANDALONE_SAMPLE)
        for j in done[::step][: self.STANDALONE_SAMPLE]:
            payload, _ = execute_query(self.stream[j], entry,
                                       MidasRuntime(metrics=MetricsRegistry()))
            if canonical_result(payload) != results[j]:
                bad.append(f"query {j}: service answer differs from a standalone run")
        return bad

    def companions(self) -> List[str]:
        bad = []
        k = self.p["path_k"]
        self.client.register_graph(small_components(k - 1), name="none")
        out = self.client.query(self._spec("detect-path", self.op_seed, "none"),
                                tenant="check")
        if out.found:
            bad.append("service reported a k-path in components smaller than k")
        tiny = tiny_graph(self.seed, f"{self.name}/tiny")
        self.client.register_graph(tiny, name="tiny")
        kk = min(k, 5)
        out = self.client.query(self._spec("detect-path", self.op_seed, "tiny", k=kk),
                                tenant="check")
        if out.found and not exact.has_path(tiny, kk):
            bad.append("service reported a k-path on the tiny companion, exact says none")
        return bad

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = self.client = None


WORKLOADS = {cls.name: cls for cls in
             (KpathDense, KindsElementwise, KpathWideProc, ServiceMixed, SimScaling)}
