"""The wall-clock ledger: one command, five workloads, every metric by name.

Two ways in:

``run.py --workload NAME --seed S --seconds T --trace 0|1``
    One measured run of one workload.  Generates the inputs from
    ``--seed``, sets up, verifies the answers, measures for ``T`` seconds
    and prints every metric by name, ending with one JSON line
    ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
    reports the end-to-end metrics from ``PARTS`` fresh processes that each
    set up and then measure ``T / PARTS`` seconds; ``--trace 1`` reports the
    per-layer ones (the workload again with the ledger's span recorder,
    then the layer suite) from one process.

``run.py --seed S [--workload NAME] [--traced] [--quick] [--check-repeat]``
    The full ledger: the runs above (every workload in fresh
    subprocesses), ``PASSES`` interleaved passes (W1 .. W5, W1 ..) so a noisy
    neighbour does not land on one workload, samples pooled per workload.
    ``--check-repeat`` runs two sets of the same code and fails when an
    end-to-end metric differs between them by more than its bound.

Results, spans and input manifests go to ``benchmark_results/``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from process start

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmark_results"

import catalog

PASSES = 4
PARTS = 3  # fresh processes per run: each sets up, then measures a third of the time
TRACE_SLICES = 4  # traced and untraced slices alternate in a --trace 1 run
QUICK_SECONDS = 0.3


def child_env() -> dict:
    env = dict(os.environ)
    env.update(catalog.THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def peak_rss_mb() -> float:
    """Max RSS of this process plus its largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ------------------------------------------------------------- one workload
def run_part(args) -> int:
    """Set up, verify and measure in this process; print the raw numbers.

    A run is made of ``PARTS`` of these, each in a fresh process, so that
    set-up is sampled from process start every time and what one process
    happens to get (heap layout, huge pages) does not decide the run."""
    sys.path.insert(1, str(SRC))
    import host
    import spans
    import workloads as wl

    null = spans.NullRecorder()
    work = wl.WORKLOADS[args.workload](args.seed, args.quick)
    try:
        work.setup()
        work.checked_op(0, null)  # warm-up: GF tables, plane substrate, pools
        part = {"setup_s": time.perf_counter() - T_START,
                "manifest": work.manifest(),
                "companion_failures": work.companions() if args.part == 0 else []}
        probe = host.HostSpeed()
        probe.sample()
        if args.trace == 0:
            timed = work.run_timed(args.seconds, null)
        else:
            rec = spans.Recorder(args.workload)
            timed, part["trace_samples_s"] = trace_slices(work, args.seconds, rec, null)
        probe.sample()
        part["peak_rss_mb"] = peak_rss_mb()
    finally:
        work.close()
    timed.pop("next_op", None)
    part.update(timed, **probe.report())
    if args.part == 0:
        part["host"] = host.fingerprint(ROOT)
    if args.trace == 1:
        import layers

        metrics, notes = layers.measure_all(args.seed, args.quick, rec, RESULTS,
                                            child_env())
        by_arm = part["trace_samples_s"]
        metrics["obs.ledger_trace_ratio"] = (
            statistics.median(by_arm["traced"]) / statistics.median(by_arm["untraced"]))
        metrics["host.probe_cv"] = probe.cv
        if not all(v for k, v in notes.items() if k.startswith("replay_matches")):
            part["failures"].append("layer replay differs from the engine's round values")
        rec.dump(RESULTS / f"trace_{args.workload}.json")
        part.update(layer_metrics=metrics, notes=notes, layers=rec.layer_summary())
    print(json.dumps(part, default=str))
    return 0


def spawn_part(workload: str, seed: int, seconds: float, trace: int, quick: bool,
               index: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--part", str(index)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} part {index} failed "
                           f"({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_run(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One run: spawn its parts, pool them, write and return the detail record."""
    RESULTS.mkdir(exist_ok=True)
    if trace == 0:
        parts = [spawn_part(workload, seed, seconds / PARTS, 0, quick, i)
                 for i in range(PARTS)]
    else:
        parts = [spawn_part(workload, seed, seconds, 1, quick, 0)]
    samples = [x for p in parts for x in p["samples"]]
    attempted = sum(p["attempted"] for p in parts)
    failures = [f for p in parts for f in p["failures"]]
    if len({p["manifest"]["sha256"] for p in parts}) != 1:
        failures.append("input manifests differ between processes given one seed")
    bad_companions = parts[0]["companion_failures"]
    done = attempted - len(failures)
    # host-normalised seconds: each process's timings are divided by the
    # host slow-down factor its probe saw around them (README)
    normal = [x / p["host_factor"] for p in parts for x in p["samples"]]
    normal_wall = sum(p["wall_s"] / p["host_factor"] for p in parts)
    setups = [p["setup_s"] / p["host_factor"] for p in parts]
    if trace == 0:
        metrics = {"op_p50_s": statistics.median(normal),
                   "ops_per_s": done / normal_wall,
                   "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
                   "setup_s": statistics.median(setups)}
        raw = {"op_p50_s": statistics.median(samples),
               "ops_per_s": done / sum(p["wall_s"] for p in parts),
               "setup_s": statistics.median(p["setup_s"] for p in parts)}
        declared = catalog.END_TO_END
    else:
        metrics, raw = parts[0]["layer_metrics"], {}
        declared = catalog.PER_LAYER
    units = {row["name"]: row["unit"] for row in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"measured and declared metrics differ: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": not failures and not bad_companions,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }
    detail = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "quick": quick, "result": result, "raw_wall": raw,
              "samples_s": normal, "raw_samples_s": samples,
              "normal_wall_s": normal_wall, "setup_samples_s": setups,
              "host_factors": [p["host_factor"] for p in parts],
              "failures": failures + bad_companions,
              "failed_share": len(failures) / attempted,
              "noisy": any(p["noisy"] for p in parts),
              "manifest": parts[0]["manifest"], "host": parts[0]["host"],
              "parts": parts}
    with open(RESULTS / f"run_{workload}_trace{trace}.json", "w") as fh:
        json.dump(detail, fh)
    return detail


def run_one(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    detail = measure_run(args.workload, args.seed, args.seconds, args.trace, args.quick)
    result, raw = detail["result"], detail["raw_wall"]
    q1, _, q3 = quartiles(detail["samples_s"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed, op quartiles "
          f"{q1:.4g}..{q3:.4g} s, manifest {detail['manifest']['sha256'][:12]}, "
          f"host factor {' '.join(format(f, '.3f') for f in detail['host_factors'])}"
          + (", NOISY host (probe cv "
             + " ".join(f"{p['probe_cv']:.3f}" for p in detail["parts"]) + ")"
             if detail["noisy"] else ""))
    for line in detail["failures"]:
        print(f"# FAILED {line}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}"
              + (f"   (raw wall {raw[name]:.6g})" if name in raw else ""))
    print(json.dumps(result))
    return 0


def trace_slices(work, seconds: float, rec, null):
    """Alternate untraced and traced slices of the workload; the ratio of
    their op medians is the ledger's own tracing overhead."""
    by_arm = {"untraced": [], "traced": []}
    merged = {"samples": [], "attempted": 0, "failures": [], "wall_s": 0.0, "counts": {}}
    next_op = 0
    for s in range(TRACE_SLICES):
        arm, recorder = ("traced", rec) if s % 2 else ("untraced", null)
        part = work.run_timed(seconds / (2 * TRACE_SLICES), recorder, first_op=next_op)
        next_op = part["next_op"]
        by_arm[arm] += part["samples"]
        merged["samples"] += part["samples"]
        merged["attempted"] += part["attempted"]
        merged["failures"] += part["failures"]
        merged["wall_s"] += part["wall_s"]
        for key, val in part["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + val
    return merged, by_arm


# --------------------------------------------------------------- the ledger
def pooled(runs: list) -> dict:
    """End-to-end metrics of one workload from its passes' pooled samples."""
    samples = [x for r in runs for x in r["samples_s"]]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    q1, q2, q3 = quartiles(samples)
    out = {
        "n": len(samples), "op_p50_s": q2, "op_q1_s": q1, "op_q3_s": q3,
        "ops_per_s": (attempted - failed) / sum(r["normal_wall_s"] for r in runs),
        "failed_share": failed / attempted,
        "peak_rss_mb": max(r["result"]["metrics"]["peak_rss_mb"]["value"] for r in runs),
        "setup_s": statistics.median([x for r in runs for x in r["setup_samples_s"]]),
        "correct": all(r["result"]["correct"] for r in runs),
        "noisy_passes": sum(bool(r["noisy"]) for r in runs),
        "manifests": sorted({r["manifest"]["sha256"] for r in runs}),
    }
    # a percentile is reported only where ten samples lie beyond it
    if len(samples) * 0.05 >= 10:
        out["op_p95_s"] = statistics.quantiles(samples, n=20)[-1]
    return out


def run_set(args, names, seconds: float) -> dict:
    passes = 1 if args.quick else PASSES
    runs = {n: [] for n in names}
    for p in range(passes):
        for n in names:
            print(f"  pass {p + 1}/{passes} {n} ...", file=sys.stderr, flush=True)
            runs[n].append(measure_run(n, args.seed, seconds, 0, args.quick))
    result = {"end_to_end": {n: pooled(runs[n]) for n in names}, "per_layer": {},
              "host": runs[names[0]][0]["host"]}
    if args.traced or args.check_repeat:
        for n in names:
            print(f"  traced {n} ...", file=sys.stderr, flush=True)
            run = measure_run(n, args.seed, seconds, 1, args.quick)
            result["per_layer"][n] = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            result["end_to_end"][n]["correct"] &= run["result"]["correct"]
    return result


def print_set(result: dict) -> None:
    shown = ["setup_s", "op_p50_s", "op_p95_s", "ops_per_s", "failed_share", "peak_rss_mb"]
    units = {row["name"]: row["unit"] for row in catalog.END_TO_END}
    units.update(op_p95_s=catalog.LEDGER_TAIL["unit"], failed_share="ratio")
    for name, row in result["end_to_end"].items():
        print(f"\n== {name}: {row['n']} ops pooled, op quartiles "
              f"{row['op_q1_s']:.4g} / {row['op_p50_s']:.4g} / {row['op_q3_s']:.4g} s, "
              f"answers {'ok' if row['correct'] else 'WRONG'}"
              + (f", {row['noisy_passes']} noisy pass(es)" if row["noisy_passes"] else ""))
        for metric in shown:
            if metric in row:
                print(f"{metric:36s} {row[metric]:.6g} {units[metric]}")
            else:
                print(f"{metric:36s} n/a (fewer than ten samples beyond it)")
    units = {row["name"]: row["unit"] for row in catalog.PER_LAYER}
    for name, row in result["per_layer"].items():
        print(f"\n== {name}: per-layer (traced run)")
        for metric, value in row.items():
            print(f"{metric:36s} {value:.6g} {units[metric]}")


EXACT = ("runtime.virtual_makespan_s.n64", "runtime.comm_bytes.n64", "engine.phases_per_op")


def check_repeat(first: dict, second: dict) -> bool:
    ok = True
    print("\n== repeat check: |second - first| / first against the bound")
    for n in first["end_to_end"]:
        a, b = first["end_to_end"][n], second["end_to_end"][n]
        for row in catalog.END_TO_END + [catalog.LEDGER_TAIL]:
            m = row["name"]
            if m not in a or m not in b:
                continue
            rel = abs(b[m] - a[m]) / a[m]
            verdict = "ok" if rel <= row["bound"] else "EXCEEDS"
            ok &= rel <= row["bound"]
            print(f"{n:18s} {m:12s} {a[m]:.5g} -> {b[m]:.5g}  {rel:6.1%} "
                  f"(bound {row['bound']:.0%}) {verdict}")
        if a["failed_share"] or b["failed_share"] or not (a["correct"] and b["correct"]):
            ok = False
            print(f"{n:18s} failed_share {a['failed_share']} / {b['failed_share']} FAILED")
        if a["manifests"] != b["manifests"]:
            ok = False
            print(f"{n:18s} input manifests differ between the sets FAILED")
        for m in EXACT:
            va, vb = first["per_layer"][n][m], second["per_layer"][n][m]
            ok &= va == vb
            print(f"{n:18s} {m} {va!r} -> {vb!r} {'exact' if va == vb else 'DIFFERS'}")
    return ok


def run_ledger(args) -> int:
    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    seconds = QUICK_SECONDS if args.quick else run_seconds()
    sets = [run_set(args, names, seconds)]
    print_set(sets[0])
    ok = all(r["correct"] and not r["failed_share"] for r in sets[0]["end_to_end"].values())
    if args.check_repeat:
        sets.append(run_set(args, names, seconds))
        print_set(sets[1])
        ok &= check_repeat(*sets)
    with open(RESULTS / "ledger.json", "w") as fh:
        json.dump({"seed": args.seed, "quick": args.quick, "sets": sets}, fh, indent=1)
    print(f"\nledger: {'ok' if ok else 'FAILED'}; results in {RESULTS}")
    return 0 if ok else 1


def run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=list(catalog.WORKLOADS))
    ap.add_argument("--seconds", type=float, help="measure one workload for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="ledger: add the traced runs")
    ap.add_argument("--quick", action="store_true", help="tiny sizes (smoke test)")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is not None:
        if not args.workload:
            ap.error("--seconds needs --workload")
        return run_part(args) if args.part is not None else run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
