"""One child process of the benchmark; ``run.py`` starts it and reads its result file.

Modes:
  import  import the package and exit (the resident size the package owns);
  setup   set the workload up and exit (one sample of set-up time);
  run     set up, then run operations in a closed loop for the time budget;
  trace   set up and run a fixed list of operations with span wrappers
          installed, the first operation of each kind again with allocation
          tracing, then the list again without wrappers.

The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

MAX_OPS = 10_000


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _check_source(root: Path) -> None:
    import fimnar

    expected = (root / "src" / "fimnar").resolve()
    if Path(fimnar.__file__).resolve().parent != expected:
        raise SystemExit(f"fimnar imported from {fimnar.__file__}, not from {expected}")


def _outcome_record(outcome: workloads.Outcome) -> dict:
    return {
        "kind": outcome.kind,
        "seconds": outcome.seconds,
        "ok": outcome.ok,
        "reason": outcome.reason,
    }


def closed_loop(workload, seconds: float) -> list[workloads.Outcome]:
    """Run operations back to back until the next one would overrun the budget.

    The next operation's duration is predicted by the median of earlier
    operations of the same kind; ``workload.min_ops`` operations always run.
    """
    outcomes: list[workloads.Outcome] = []
    start = time.perf_counter()
    for k in range(MAX_OPS):
        if k >= workload.min_ops:
            nxt = workload.op_kind(k)
            past = [o.seconds for o in outcomes if o.kind == nxt]
            predicted = statistics.median(past) if past else 0.0
            if time.perf_counter() - start + predicted > seconds:
                break
        outcomes.append(workload.run_op(k))
    return outcomes


def traced_pass(workload, tracer: tracing.Tracer, ops) -> list[workloads.Outcome]:
    outcomes = []
    for k in ops:
        tracer.op = f"op{k}"
        with tracer.span("bench.op"):
            outcomes.append(workload.run_op(k))
    return outcomes


def trace(workload, tracer: tracing.Tracer) -> dict:
    """Span pass, allocation pass on the first operation of each kind, plain pass."""
    ops = range(workload.trace_ops)
    traced = traced_pass(workload, tracer, ops)
    tracer.uninstall()
    first_of_kind: dict[str, int] = {}
    for k in ops:
        first_of_kind.setdefault(workload.op_kind(k), k)
    memory = tracing.Tracer(memory=True)
    memory.install()
    allocating = traced_pass(workload, memory, first_of_kind.values())
    memory.uninstall()
    plain = [workload.run_op(k) for k in ops]
    layers = tracer.layer_metrics()
    for layer in tracing.MEMORY_LAYERS:
        layers[f"{layer}.peak_alloc_mb"] = memory.peak_alloc_mb(layer)
    return {
        "traced_ops": [_outcome_record(o) for o in traced],
        "memory_ops": [_outcome_record(o) for o in allocating],
        "plain_ops": [_outcome_record(o) for o in plain],
        "mismatches": sum(a.output != b.output for a, b in zip(traced, plain)),
        "layers": layers,
        "span_self_s": tracer.self_seconds(),
        "absent_sites": tracer.absent,
        "spans": tracer.span_records(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["import", "setup", "run", "trace"], required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the start")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    root = Path(args.root)
    result: dict = {}

    if args.mode == "import":
        import fimnar.cli  # noqa: F401
        import fimnar.sim  # noqa: F401

        _check_source(root)
        result["import_s"] = time.monotonic() - args.spawned_at
    else:
        workload = workloads.make(
            args.workload, root, args.seed, root / ".perfbench_out" / "work", args.tiny
        )
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        workload.prepare()
        result["setup_s"] = time.monotonic() - args.spawned_at
        _check_source(root)
        if args.mode == "run":
            outcomes = closed_loop(workload, args.seconds)
            result["ops"] = [_outcome_record(o) for o in outcomes]
        elif args.mode == "trace":
            result.update(trace(workload, tracer))

    result["versions"] = _versions()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
