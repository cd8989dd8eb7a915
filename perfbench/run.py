"""The fimnar benchmark: three workloads, timed end to end and, in a traced run, per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fit-election --seed 1 --seconds 35 --trace 0

Workloads (each a closed loop with one client and one process):
  fit-election  in-process ``fimnar fit`` on data/election_like.csv, alternating
                the donor engine with ``--engine parametric:200``;
  mc-s3         ``run_mc`` on scenario s3 (two-component normal mixture), n=500;
  mc-s1-large   ``run_mc`` on scenario s1 (kappa2 = 1), n=6000.

With ``--trace 0`` the parent starts, one after another: a child that only
imports the package (its peak RSS is ``import_rss_mb``), the measuring child
(set-up, then operations until ``--seconds`` would be overrun; its peak RSS
is ``peak_rss_mb``), and three children that only set up.  Peak RSS comes
from ``getrusage(RUSAGE_CHILDREN)`` read after each of the first two
children, which this process waits for before starting the next.

With ``--trace 1`` one child installs the span wrappers of ``tracing.py``,
runs a fixed list of operations, runs the first operation of each kind
again with allocation tracing (for the ``peak_alloc_mb`` metrics), then runs
the list again without wrappers.  The difference between the first and the
last pass is the tracing overhead, and their equal outputs show the
wrappers are transparent.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (with ``--workload
all``, one such object per workload, keyed by name).  A fuller report,
with the run's metadata and every sample (and, when traced, every span),
is written to ``.perfbench_out/``.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_CHILDREN = 3
BLAS_THREADS = "1"
REQUIRED = (
    "src/fimnar/__init__.py",
    "src/fimnar/cli.py",
    "src/fimnar/sim.py",
    workloads.ELECTION_DATA,
    workloads.ELECTION_CONFIG,
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(mode: str, args, out: Path, timeout: float, tag: str) -> dict:
    """Start one worker, wait for it, and return its result."""
    result_path = out / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode, "--root", str(ROOT), "--result", str(result_path),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.tiny:
        cmd.append("--tiny")
    log_path = out / f"{tag}.log"
    with open(log_path, "w") as log:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, env=_child_env(), stdout=log, stderr=log, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded {timeout:.0f} s; log in {log_path}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{mode} child exited {code}; log {log_path}:\n{tail}")
    with open(result_path) as fh:
        return json.load(fh)


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fimnar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _why() -> dict:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {w["name"]: w["why"] for w in json.loads(spec.read_text())["workloads"]}


def metadata(args, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "why": _why().get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        **versions,
    }


def describe(values: list[float], what: str) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    text = f"median of {len(values)} {what}"
    if len(values) > 10:
        ordered = sorted(values)
        k = len(values) - 11
        text += f"; p{100 * (k + 1) // len(values)} {ordered[k]:.4g}"
    return text


def measure(args, out: Path) -> tuple[dict, dict, list[str]]:
    """Untraced run: end-to-end metrics, report and human-readable lines."""
    imported = run_child("import", args, out, 60, "import")
    import_rss = children_peak_rss_mb()
    main_timeout = args.seconds + 110
    measured = run_child("run", args, out, main_timeout, "run")
    peak_rss = children_peak_rss_mb()
    setups = [measured["setup_s"]]
    for i in range(SETUP_CHILDREN):
        setups.append(run_child("setup", args, out, 30, f"setup{i}")["setup_s"])

    ops = measured["ops"]
    ok = [o for o in ops if o["ok"]]
    primary = "replicate" if args.workload in workloads.MC_SIZES else "donor"
    primary_s = [o["seconds"] for o in ops if o["kind"] == primary]
    metrics = {
        "setup_s": (statistics.median(setups), "s", describe(setups, "set-ups")),
        "fit_s": (statistics.median(primary_s), "s", describe(primary_s, f"{primary} fits")),
        "fits_per_s": (
            len(ok) / sum(o["seconds"] for o in ops), "1/s",
            f"{len(ok)} fits that passed over {sum(o['seconds'] for o in ops):.3f} s",
        ),
        "peak_rss_mb": (peak_rss, "MB", "measuring child"),
        "import_rss_mb": (import_rss, "MB", "child that only imports fimnar"),
    }
    failed = len(ops) - len(ok)
    lines = [f"{k:<18} {v:>12.6g} {u:<4} ({note})" for k, (v, u, note) in metrics.items()]
    # named views of the same samples, printed for readers but not gated
    if args.workload == "fit-election":
        param = [o["seconds"] for o in ops if o["kind"] == "parametric"]
        lines.append(f"{'fit_parametric_s':<18} {statistics.median(param):>12.6g} s    "
                     f"({describe(param, 'parametric fits')})")
    else:
        lines.append(f"{'replicates_per_s':<18} {metrics['fits_per_s'][0]:>12.6g} 1/s  "
                     f"(replicates that passed / run_mc wall time)")
    lines.append(f"{'failed_frac':<18} {failed / len(ops):>12.6g} ratio "
                 f"({failed} failed of {len(ops)} attempted)")
    for o in ops:
        if not o["ok"]:
            lines.append(f"failed {o['kind']}: {o['reason']}")
    report = {
        "meta": metadata(args, imported["versions"]),
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "setup_samples_s": setups,
        "import_s": imported["import_s"],
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, report, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("_frac") else "count"


def trace(args, out: Path) -> tuple[dict, dict, list[str]]:
    """Traced run: per-layer metrics, spans and the tracing overhead."""
    traced = run_child("trace", args, out, 170, "trace")
    t_traced = sum(o["seconds"] for o in traced["traced_ops"])
    t_plain = sum(o["seconds"] for o in traced["plain_ops"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = t_traced - t_plain
    layers["trace.overhead_frac"] = t_traced / t_plain - 1.0
    layers["trace.mismatches"] = traced["mismatches"]
    ops = traced["traced_ops"] + traced["memory_ops"] + traced["plain_ops"]
    failed = sum(not o["ok"] for o in ops) + traced["mismatches"]
    lines = [f"{k:<32} {v:>14.6g} {_layer_unit(k)}" for k, v in layers.items()]
    lines.append(f"traced ops {t_traced:.4f} s, same ops untraced {t_plain:.4f} s; "
                 f"{traced['mismatches']} outputs differ between the two passes")
    if traced["absent_sites"]:
        lines.append(f"sites not present in this version: {', '.join(traced['absent_sites'])}")
    for o in ops:
        if not o["ok"]:
            lines.append(f"failed {o['kind']}: {o['reason']}")
    report = {
        "meta": metadata(args, traced["versions"]),
        "layers": layers,
        "span_self_s": traced["span_self_s"],
        "absent_sites": traced["absent_sites"],
        "traced_ops": traced["traced_ops"],
        "memory_ops": traced["memory_ops"],
        "plain_ops": traced["plain_ops"],
        "spans": traced["spans"],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()},
    }
    return result, report, lines


def run_workload(args, out: Path) -> dict:
    """Run one workload, print its report lines and return its result."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / tag).mkdir(parents=True, exist_ok=True)
    result, report, lines = (trace if args.trace else measure)(args, out / tag)
    with open(out / f"{tag}.report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"# perfbench {tag}: {json.dumps(report['meta'])}")
    for line in lines:
        print(line)
    print(f"# full report: {out / (tag + '.report.json')}")
    return result


def run_all(args) -> int:
    """Each workload in a fresh benchmark process, so that the peak RSS of
    one workload's children cannot show in another's ``RUSAGE_CHILDREN``."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small scenario sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if not (HERE / "reference.json").is_file():
        missing.append("perfbench/reference.json")
    if missing:
        print(f"error: not a fimnar checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    # a terminated benchmark still stops its child in run_child's finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run_workload(args, ROOT / ".perfbench_out")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
