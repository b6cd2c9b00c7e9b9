"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {build,serve,grow} --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/`` of the
same checkout; inputs are generated from the seed into ``.perfbench_work/``
and the program only ever sees those files. With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the layers' public functions
are wrapped and the result holds the per-layer metrics instead. End-to-end
times are scaled to the reference speed of ``speed.py``; the ``# as
measured`` line gives them unscaled. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GENERATOR_TIMEOUT_S = 120


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build", "serve", "grow"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tablescout" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'tablescout'} is missing", file=sys.stderr)
        return 2
    # The program is single-threaded except for the timer thread that
    # execution_match starts for every SQL statement. Holding the process
    # to one CPU lets that thread start without waking the other CPU, a
    # wait that on a VM varies with the host's load and, unpinned, tripled
    # the p95 of one statement (see README).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import tablescout

    if Path(tablescout.__file__).resolve().parent != (SRC / "tablescout").resolve():
        print(f"perfbench: imported tablescout from {tablescout.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(inputs)],
        check=True, timeout=GENERATOR_TIMEOUT_S,
    )
    plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    run = workloads.Run(args.workload, plan, work, args.seconds, tracer)
    with tracing.instrument(tracer) if args.trace else contextlib.nullcontext():
        workloads.WORKLOADS[args.workload](run)
    metrics = workloads.end_to_end(run)
    if args.trace:
        metrics = workloads.per_layer(run, metrics)
        tracer.write(work / "trace.jsonl")

    for problem in run.problems[:50]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    latencies = sum(len(b["latencies"]) for b in run.batches)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(run.batches)} "
          f"setups={len(run.setup_s)} queries_timed={latencies} "
          f"tail_percentile={run.tail} (over {len(run.gold)} queries, each the median of its rounds)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# as measured, before scaling to the reference speed: " + ", ".join(
        f"{name} = {value:.6g}" for name, value in workloads.as_measured(run).items()))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
