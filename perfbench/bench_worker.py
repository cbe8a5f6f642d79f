"""One benchmark worker process: imports the package, warms up, runs a plan.

The orchestrator (``run.py``) starts a worker as
``python3 run.py --worker '<plan json>'``. The worker

1. puts the checkout's ``src`` first on ``sys.path`` and imports ``qkalman``;
2. runs one warm-up operation of the ``warmup`` family and prints ``READY``;
3. runs each plan step, a fixed number of operations or operations until
   a wall-clock deadline, one at a time (a closed loop with one client);
4. prints one JSON line with per-family latencies, the median speed-kernel
   time taken before, after (and, for long operations, during) each
   operation, work, failures, its peak RSS and, in a
   traced run, the per-layer aggregation.

Plan fields: ``root`` (checkout), ``out`` (output directory), ``seed``,
``trace`` (bool), ``speed_samples`` (bool, default true: sample the
host's speed during long operations), ``probe`` (stop after READY),
``warmup`` (a family name), and ``steps``: a list of
``{"family", "count" | "deadline", "rows"}``, where ``rows`` lists the
row names of each verify call, or is ``"each"``: one call per row in
registry order, as many calls as rows.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Any

import bench_families as fam
from bench_trace import Tracer, aggregate


#: Reference speed: an operation's time is reported multiplied by
#: REF_KERNEL_S / (speed-kernel time measured next to it), that is, in
#: seconds of a host on which the kernel takes exactly 1 ms.
REF_KERNEL_S = 1e-3

#: Period of the speed samples taken while a long operation runs.
SAMPLE_PERIOD_S = 0.025


def speed_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy operations and Python
    float arithmetic, the instruction mix of the package's solvers.

    The benchmark host alternates between speed states about 1.6x apart
    within seconds; an operation's time divided by the kernel time taken
    next to it stays within about 5% across those states.
    """
    import numpy as np

    a = np.array([[1.0, 0.2], [0.1, 0.9]])
    q = 0.01 * np.eye(2)
    start = time.perf_counter()
    v = np.eye(2)
    x = 0.0
    for i in range(150):
        v = a @ v @ a.T + q
        v = 0.5 * (v + v.T)
        x += float(v[0, 0]) * 1e-3 + (i % 7) * 0.5
    return time.perf_counter() - start


class SpeedSampler:
    """Runs the speed kernel from a timer signal while an operation runs.

    Python runs the handler in the main thread between bytecodes, so each
    sample sees the speed state the operation is running in; the samples
    add about 4% to the operation's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(speed_kernel())

    @contextmanager
    def running(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _import_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qkalman", "__init__.py")):
        raise SystemExit(f"error: no qkalman package under {src}")
    sys.path.insert(0, src)
    import qkalman
    import qkalman.acceptance
    import qkalman.cli

    return qkalman


def _step_inputs(qk, step: dict[str, Any], seed: int):
    family = step["family"]
    if family == "verify":
        if step["rows"] == "each":
            return iter([[name] for name in qk.acceptance.CRITERION_NAMES])
        return itertools.cycle(step["rows"])
    if family == "mc_reference":
        return iter(fam.mc_reference_inputs(qk))
    return fam.FAMILIES[family].inputs(seed)


def run_plan(plan: dict[str, Any], emit=print) -> dict[str, Any]:
    sampler = SpeedSampler()
    # a set-up probe samples the host's speed while it imports and warms up
    with sampler.running() if plan.get("probe") else nullcontext([]) as setup_speed:
        qk = _import_package(plan["root"])
        os.makedirs(plan["out"], exist_ok=True)
        ctx = fam.Context(out_dir=plan["out"], qk=qk)
        seed = int(plan["seed"])
        tracer = Tracer()
        if plan.get("trace"):
            tracer.install()

        family = fam.FAMILIES[plan["warmup"]]
        warm_input = fam.warmup_input(plan["warmup"], seed)
        _, raw = family.call(ctx, warm_input)
        warm_fails = family.check(ctx, warm_input, raw)
        emit("READY")
    if plan.get("probe"):
        kernel = statistics.median(setup_speed + [speed_kernel()])
        return {"warmup_failures": warm_fails, "kernel": kernel}

    results: dict[str, Any] = {}
    scales: dict[int, float] = {}
    for step in plan["steps"]:
        name = step["family"]
        family = fam.FAMILIES[name]
        inputs = _step_inputs(qk, step, seed)
        rec = results.setdefault(
            name, {"seconds": [], "kernel": [], "work": [], "failed": 0, "notes": [], "labels": []}
        )
        raws = []
        deadline = step.get("deadline")
        count = step.get("count")
        done = failed = 0
        # until the count, or the deadline (after at least one operation),
        # or the end of a finite input list
        while True:
            if count is not None and done >= count:
                break
            if deadline is not None and done > 0 and time.time() >= deadline:
                break
            inp = next(inputs, StopIteration)
            if inp is StopIteration:
                break
            kernels = [speed_kernel()]
            sample = family.long_ops and plan.get("speed_samples", True)
            tracer.request += 1
            tracer.enabled = bool(plan.get("trace"))
            with sampler.running() if sample else nullcontext([]) as during:
                with tracer.span(f"op.{name}"):
                    seconds, raw = family.call(ctx, inp)
            tracer.enabled = False
            kernels += during
            kernels.append(speed_kernel())
            fails = family.check(ctx, inp, raw)
            if family.tally is not None:
                raws.append(raw)
            rec["seconds"].append(seconds)
            rec["kernel"].append(statistics.median(kernels))
            scales[tracer.request] = REF_KERNEL_S / rec["kernel"][-1]
            rec["work"].append(family.work(inp))
            rec["labels"].append(inp if name == "verify" else None)
            if fails:
                failed += 1
                rec["notes"] = (rec["notes"] + fails)[:5]
            done += 1
        if family.tally is not None:
            fails = family.tally(raws)
            if fails:
                failed = len(raws)
                rec["notes"].extend(fails)
        rec["failed"] += failed

    out: dict[str, Any] = {
        "families": results,
        "warmup_failures": warm_fails,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if plan.get("trace"):
        tracer.uninstall()
        agg = aggregate(tracer.spans, scales)
        out["layers"] = agg["metrics"]
        out["by_name"] = agg["by_name"]
        spans_path = os.path.join(plan["out"], "spans.jsonl")
        tracer.write_spans(spans_path)
        out["spans_file"] = spans_path
    return out


def main(plan_json: str) -> int:
    plan = json.loads(plan_json)

    def emit(line: str) -> None:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    result = run_plan(plan, emit)
    emit(json.dumps(result))
    return 0
