#!/usr/bin/env python3
"""qkalman benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-grid --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen): ``cli-grid``,
``population``, ``ensemble`` and ``verify``. Each is a closed loop with one
client in a single-threaded worker process (BLAS pinned to one thread).

``--trace 0`` measures every end-to-end metric named in BENCHMARK.json;
``--trace 1`` runs the workload's own operations twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report
(run environment, sample counts, failures, per-layer detail) is written
under ``.perfbench_out/`` in the checkout. A failed output check is
reported in ``correct`` and ``failed`` and on a ``FAILED CHECK`` line; the
exit code is 0 whenever the result line was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

#: BLAS and OpenMP thread pools, pinned to one thread in every worker.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from bench_worker import REF_KERNEL_S  # noqa: E402  (after the thread pins)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The operation families each workload loops over, with the share of the
#: measured time each gets.
NATIVE: dict[str, tuple[tuple[str, float], ...]] = {
    "cli-grid": (("analyze", 0.55), ("sweep", 0.45)),
    "population": (("population", 1.0),),
    "ensemble": (("simulate", 1.0),),
    "verify": (("verify", 1.0),),
}

#: Share of the run's seconds given to the workload's own families; the
#: fixed-size companion runs below take about the rest.
NATIVE_SHARE = 0.6

#: Fixed-size companion runs that give a workload the end-to-end metrics of
#: the families it does not loop over (every workload reports every
#: metric). They run in their own worker, so they do not touch the
#: workload's peak RSS, and they are not traced.
COMPANION: dict[str, dict[str, Any]] = {
    "analyze": {"count": 400},
    "sweep": {"count": 16},
    "population": {"count": 300},
    "simulate": {"count": 4},
    # five passes over the three short rows that need neither the cached
    # population nor the Monte Carlo; verify_s is the median pass
    "verify": {
        "count": 15,
        "rows": [["example1-product-phi0"], ["example2-product-phi0"], ["drive-invariance"]],
    },
}

#: Input of each verify call in the verify workload: one run_criteria([row])
#: call per row, in registry order, which is the work of one run_criteria()
#: call split at row boundaries so each row's time can be normalized.
VERIFY_ROWS: Any = "each"

#: Acceptance-suite Monte-Carlo calls held to the statistical check after
#: the ensemble workload's measured loop.
MC_REFERENCE_CALLS = 2

#: Acceptance rows with a per-layer ``acceptance.<row>.s`` metric.
ACCEPTANCE_ROWS = (
    "example1-det-grid",
    "example1-product-phi0",
    "example2-product-phi0",
    "theorem-bound-random",
    "heisenberg-floor-random",
    "proof-identities",
    "cross-solver-agreement",
    "monte-carlo-riccati",
    "drive-invariance",
    "stability-classification",
)

#: Set-up samples (fresh processes) per untraced run, half taken before the
#: measured loop and half after the companion runs; setup_s is their median.
SETUP_SAMPLES = 6

#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# workers


def _worker(plan: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    """Start a worker, return (seconds from start to READY, its result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", json.dumps(plan)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read().strip().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "READY" or not rest:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready, json.loads(rest[-1])


def _plan(seed: int, out: Path, warmup: str, steps: list[dict[str, Any]], **extra: Any) -> dict[str, Any]:
    return {"root": str(ROOT), "out": str(out), "seed": seed, "warmup": warmup, "steps": steps, **extra}


def _native_steps(workload: str, start: float, deadline: float) -> list[dict[str, Any]]:
    """Deadline steps that split [start, deadline] between the families."""
    steps, t = [], start
    for family, share in NATIVE[workload]:
        t += share * (deadline - start)
        steps.append({"family": family, "deadline": t})
    return steps


def _verify_step() -> dict[str, Any]:
    """One suite pass: a verify call per entry of VERIFY_ROWS."""
    count = None if VERIFY_ROWS == "each" else len(VERIFY_ROWS)
    return {"family": "verify", "count": count, "rows": VERIFY_ROWS}


def _merge(into: dict[str, Any], result: dict[str, Any]) -> None:
    for name, rec in result["families"].items():
        dst = into.setdefault(name, {"seconds": [], "norm": [], "work": [], "failed": 0, "notes": []})
        for key in ("seconds", "work"):
            dst[key].extend(rec[key])
        dst["norm"].extend(_normalized(rec))
        dst["failed"] += rec["failed"]
        dst["notes"] = (dst["notes"] + rec["notes"])[:5]


# ----------------------------------------------------------------------
# metrics


def _normalized(rec: dict[str, Any]) -> list[float]:
    """Operation times at the reference speed (see bench_worker.REF_KERNEL_S)."""
    return [s * REF_KERNEL_S / k for s, k in zip(rec["seconds"], rec["kernel"])]


def _rate(rec: dict[str, Any], key: str) -> float:
    """Work done per second over all of a family's operations."""
    return sum(rec["work"]) / sum(rec[key])


def end_to_end(
    fams: dict[str, Any], verify_passes: list[float], setup: list[float], rss: float, key: str = "norm"
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics from per-operation times (``key`` selects the
    normalized or the raw times) and their sample counts."""
    lat = [s * 1e3 for s in fams["analyze"][key]]
    p95 = statistics.quantiles(lat, n=20)[18] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": statistics.median(setup),
        "analyze_ms_p50": statistics.median(lat),
        "analyze_ms_p95": p95,
        "sweep_points_per_s": _rate(fams["sweep"], key),
        "population_specs_per_s": _rate(fams["population"], key),
        "simulate_traj_steps_per_s": _rate(fams["simulate"], key),
        "verify_s": statistics.median(verify_passes),
        "peak_rss_mb": rss,
    }
    samples = {
        "setup_s": len(setup),
        "analyze_ms": len(lat),
        "analyze_ms_beyond_p95": sum(1 for x in lat if x > p95),
        "sweep_runs": len(fams["sweep"][key]),
        "population_specs": len(fams["population"][key]),
        "simulate_calls": len(fams["simulate"][key]),
        "verify_suite_passes": len(verify_passes),
    }
    return values, samples


def per_layer(traced: dict[str, Any], untraced: dict[str, Any]) -> dict[str, float]:
    values = dict(traced["layers"])
    rows = untraced["families"].get("verify", {"labels": [], "seconds": [], "kernel": []})
    row_s = {label[0]: s for label, s in zip(rows["labels"], _normalized(rows)) if label and len(label) == 1}
    for name in ACCEPTANCE_ROWS:
        values[f"acceptance.{name}.s"] = row_s.get(name, 0.0)
    wall_u = sum(sum(_normalized(r)) for r in untraced["families"].values())
    wall_t = sum(sum(_normalized(r)) for r in traced["families"].values())
    values["trace.untraced_wall_s"] = wall_u
    values["trace.traced_wall_s"] = wall_t
    values["trace.overhead_s"] = wall_t - wall_u
    return values


# ----------------------------------------------------------------------
# run environment


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_seeded": args.workload != "verify",
    }


# ----------------------------------------------------------------------
# runs


def run_untraced(workload: str, seed: int, seconds: float, out: Path) -> dict[str, Any]:
    warmup = NATIVE[workload][0][0]
    setup, setup_raw, attempted, failed, notes = [], [], 0, 0, []

    def probe(i: int) -> None:
        nonlocal attempted, failed, notes
        ready, res = _worker(_plan(seed, out / f"probe{i}", warmup, [], probe=True))
        setup_raw.append(ready)
        setup.append(ready * REF_KERNEL_S / res["kernel"])
        attempted += 1
        failed += bool(res["warmup_failures"])
        notes += res["warmup_failures"]

    for i in range(SETUP_SAMPLES // 2):
        probe(i)
    deadline = time.time() + NATIVE_SHARE * seconds
    native = []
    if workload == "verify":
        # a fresh process per suite pass, so the cached population starts cold
        steps = [_verify_step()]
        while not native or time.time() < deadline:
            native.append(_worker(_plan(seed, out / "native", warmup, steps))[1])
    else:
        steps = _native_steps(workload, time.time(), deadline)
        if workload == "ensemble":
            steps.append({"family": "mc_reference", "count": MC_REFERENCE_CALLS})
        native.append(_worker(_plan(seed, out / "native", warmup, steps))[1])
    # each worker with the number of verify calls in one suite pass (a
    # native verify worker makes exactly one pass)
    workers = [(res, None) for res in native]
    companions = [{"family": f, **spec} for f, spec in COMPANION.items() if f not in dict(NATIVE[workload])]
    if companions:
        res = _worker(_plan(seed, out / "companion", companions[0]["family"], companions))[1]
        workers.append((res, len(COMPANION["verify"]["rows"])))
    for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES):
        probe(i)

    fams: dict[str, Any] = {}
    passes, passes_raw = [], []
    for res, per_pass in workers:
        _merge(fams, res)
        attempted += 1
        failed += bool(res["warmup_failures"])
        notes += res["warmup_failures"]
        if "verify" in res["families"]:
            rec = res["families"]["verify"]
            for times, dst in ((_normalized(rec), passes), (rec["seconds"], passes_raw)):
                n = per_pass or len(times)
                dst += [sum(times[i : i + n]) for i in range(0, len(times), n)]
    for rec in fams.values():
        attempted += len(rec["seconds"])
        failed += rec["failed"]
        notes += rec["notes"]
    rss = max(r["maxrss_mb"] for r in native)
    values, samples = end_to_end(fams, passes, setup, rss)
    raw, _ = end_to_end(fams, passes_raw, setup_raw, rss, key="seconds")
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "values": values,
        "raw_values": raw,
        "samples": samples,
        "families": {
            name: {"ops": len(rec["seconds"]), "failed": rec["failed"], "seconds_total": sum(rec["seconds"])}
            for name, rec in fams.items()
        },
    }


def run_traced(workload: str, seed: int, seconds: float, out: Path) -> dict[str, Any]:
    warmup = NATIVE[workload][0][0]
    if workload == "verify":
        steps = [_verify_step()]
    else:
        now = time.time()
        steps = _native_steps(workload, now, now + seconds / 2.0)
    # no speed samples in either pass: in the traced pass they would land
    # inside spans
    _, untraced = _worker(_plan(seed, out / "untraced", warmup, steps, speed_samples=False))
    counted = [
        {**{k: v for k, v in step.items() if k != "deadline"}, "count": len(untraced["families"][step["family"]]["seconds"])}
        for step in steps
    ]
    _, traced = _worker(_plan(seed, out / "traced", warmup, counted, trace=True, speed_samples=False))
    attempted = failed = 0
    notes: list[str] = []
    for res in (untraced, traced):
        attempted += 1 + sum(len(r["seconds"]) for r in res["families"].values())
        failed += bool(res["warmup_failures"]) + sum(r["failed"] for r in res["families"].values())
        notes += res["warmup_failures"] + [n for r in res["families"].values() for n in r["notes"]]
    values = per_layer(traced, untraced)
    values["check.failed_frac"] = failed / attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "values": values,
        "by_name": traced["by_name"],
        "spans_file": traced["spans_file"],
    }


def _metric_specs(trace: int) -> list[dict[str, Any]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(NATIVE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qkalman" / "__init__.py").is_file():
        print(f"error: no qkalman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = _metric_specs(args.trace)
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    env = environment(args)
    try:
        if args.trace:
            run = run_traced(args.workload, args.seed, args.seconds, out)
        else:
            run = run_untraced(args.workload, args.seed, args.seconds, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in specs if m["name"] not in run["values"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]} for m in specs}
    correct = run["failed"] == 0
    report = {"environment": env, "correct": correct, "metrics": metrics, **run}
    for sub in out.iterdir():
        if sub.is_dir():
            for name in ("analyze", "sweep", "simulate"):
                shutil.rmtree(sub / name, ignore_errors=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print("environment " + json.dumps({**env, "samples": run.get("samples")}, sort_keys=True))
    for note in run["notes"]:
        print(f"FAILED CHECK: {note}")
    raw = run.get("raw_values", {})
    for name, m in metrics.items():
        measured = f"  (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{measured}")
    print(f"report: {out / 'report.json'}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        import bench_worker

        raise SystemExit(bench_worker.main(sys.argv[2]))
    raise SystemExit(main())
