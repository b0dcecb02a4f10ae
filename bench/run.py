"""qcorr benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload sweep|purify|mixed --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one operation at a time from
this process. A run makes its inputs from --seed, measures the set-up time,
then repeats whole rounds of the workload's fixed operation list, starting
another round only while it is expected to end within --seconds (there is
always at least one). Every output is checked. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

NPROC = len(os.sched_getaffinity(0))
# numpy's BLAS uses at most nproc threads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench-work")

#: Fresh interpreters timed for setup_s: after one untimed warm-up, this
#: many before the inputs are built, so every workload times them alike,
#: then one before each round, so the samples span the whole run.
SETUP_FIRST = 5
SETUP_CODE = "import qcorr.cli; qcorr.cli.build_parser()"

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def time_setup(env: workloads.Env) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env.child_env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup(env: workloads.Env) -> list[float]:
    time_setup(env)
    return [time_setup(env) for _ in range(SETUP_FIRST)]


def run_round(ops, env, inproc: bool, tracer: Tracer | None) -> list[workloads.Outcome]:
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out = op.run(env, inproc, tracer)
        if tracer is not None:
            tracer.merge(out.spans)
        if out.error or out.wrong:
            print(f"operation failed: {op.name}: {out.error or out.wrong}", file=sys.stderr)
        outcomes.append(out)
    return outcomes


def run_rounds(budget_s: float, one_round) -> list:
    """At least one round; another only if a median round so far still fits."""
    start = time.perf_counter()
    rounds, took = [], []
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > budget_s:
            return rounds


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(ops, env, seconds, setup: list[float]) -> tuple[list, dict]:
    def one_round() -> list:
        setup.append(time_setup(env))
        return run_round(ops, env, False, None)

    rounds = run_rounds(seconds, one_round)
    per_op = [statistics.median(r[i].wall for r in rounds) for i in range(len(ops))]
    for op, t in zip(ops, per_op):
        print(f"{t:9.3f} s  {op.name}")
    # Per-operation medians, summed: a slow burst in one round moves only
    # the operations it hit, and only if it hit them in most rounds.
    per_op_cpu = [statistics.median(r[i].cpu for r in rounds) for i in range(len(ops))]
    values = {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_max_s": max(per_op),
        "cpu_s": sum(per_op_cpu),
        "peak_rss_mb": max(o.rss_mb for r in rounds for o in r),
        "setup_s": statistics.median(setup),
    }
    return rounds, {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def traced(ops, env, seconds, trace_path) -> tuple[list, dict]:
    """Pairs of an untraced and a traced round, every CLI command replayed
    in-process through qcorr.cli.main so the wrappers see it."""
    import qcorr.cli  # noqa: F401  (imported before anything is timed)

    tracer = Tracer()
    spans, walls = [], {False: [], True: []}

    def one_round(trace: bool) -> list:
        if trace:
            tracer.reset()
            tracer.install()
        try:
            outcomes = run_round(ops, env, True, tracer if trace else None)
        finally:
            tracer.uninstall()
        walls[trace].append(sum(o.wall for o in outcomes))
        if trace:
            spans.append([list(s) for s in tracer.spans])
        return outcomes

    # Alternating which round of a pair runs first spreads the warm-up of
    # the first round over both medians.
    order = itertools.cycle([(False, True), (True, False)])
    pairs = run_rounds(seconds, lambda: [one_round(trace) for trace in next(order)])
    metrics = {name: metric(v, unit) for name, (v, unit) in layer_metrics(spans).items()}
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = metric(overhead, "s")
    with open(trace_path, "w") as fh:
        json.dump({"ops": [op.name for op in ops], "spans": spans[-1]}, fh)
    return [r for pair in pairs for r in pair], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcorr", "__init__.py")):
        print(f"error: no qcorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = workloads.Env(
        root=ROOT,
        work=WORK,
        child_env=dict(os.environ, PYTHONPATH=SRC),
    )
    os.makedirs(WORK, exist_ok=True)
    setup = [] if args.trace else measure_setup(env)
    rng = np.random.default_rng(args.seed)
    ops = workloads.WORKLOADS[args.workload](rng, WORK)
    if args.trace:
        trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        rounds, metrics = traced(ops, env, args.seconds, trace_path)
    else:
        rounds, metrics = end_to_end(ops, env, args.seconds, setup)
    for name in os.listdir(WORK):
        if not name.startswith("trace-"):
            os.remove(os.path.join(WORK, name))
    outcomes = [o for r in rounds for o in r]
    print(
        json.dumps(
            {
                "correct": not any(o.wrong for o in outcomes),
                "attempted": len(outcomes),
                "failed": sum(1 for o in outcomes if o.error or o.wrong),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
