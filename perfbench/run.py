"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload http-shallow --seed 1 \
        --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that replays each layer's entry point and prints
the per-layer ledger. ``--smoke`` shrinks every input for a quick check
of the plumbing; its records go to ``perfbench/out/smoke``, never beside
full-run records in ``perfbench/out/full``.

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Workload name -> the module that sets it up and measures it.
WORKLOADS = {
    "http-shallow": "perfbench.w_http",
    "batch-deep-sharded": "perfbench.w_batch",
    "ingest-mixed": "perfbench.w_ingest",
}


@dataclass(frozen=True)
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The program under test, from this checkout's sources.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=workdir,
    )
    started = time.perf_counter()
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        correct, attempted, failed, metrics, details = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = harness.PER_LAYER if ctx.trace else harness.END_TO_END
    line = harness.result_line(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=units,
    )
    record = {
        "workload": args.workload,
        "trace": ctx.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "provenance": harness.provenance(ROOT, seed=args.seed, smoke=args.smoke),
        "result": line,
        "details": details,
    }
    harness.write_record(
        harness.record_path(
            OUT,
            smoke=args.smoke,
            name=f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        ),
        record,
    )
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
