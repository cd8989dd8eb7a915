"""Per-layer wall time and memory of Monte Carlo replicates, written to a BENCH json.

Each replicate is the one ``run_mc(scenario, b=1, seed=s)`` runs for a seed
``s`` of the list: the respondent fit, ``em_fit``, ``variance_estimate`` and
``mu_y_variance`` are timed one by one with ``time.perf_counter``.  A run
walks every seed once; the script reports, per layer, the median over runs
of the mean milliseconds per replicate, every run's value, and the
process's peak RSS from ``resource.getrusage``.  After the timed runs, one
untimed pass over the seeds runs each layer under ``tracemalloc`` and
reports its largest peak of traced allocations (NumPy reports its
buffers), since tracing slows code that allocates.  BLAS runs on one
thread.

The results are merged into the output file under ``--label``, so two
checkouts can be compared in one file:

    python scripts/layer_split.py --label parent --src /path/to/parent/src
    python scripts/layer_split.py --label change

Usage:
    python scripts/layer_split.py [--scenario s3] [--n 500]
        [--seeds 3000-3019] [--runs 3] [--label change] [--src SRC]
        [--out BENCH_mixture.json]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO = Path(__file__).resolve().parents[1]
LAYERS = ("respondent_fit", "em_fit", "variance_estimate", "mu_y_variance")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_revision(src: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def timed(call):
    """``call()`` and its wall time in seconds."""
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


def traced(call):
    """``call()`` and the peak of its traced allocations in MB."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def replicate(scenario, seed, measure):
    """One ``run_mc`` replicate: its Var(mu) and ``measure``'s value for each layer."""
    # imported here, after main has put the --src tree on the path
    import numpy as np

    from fimnar.fiem import FiControls
    from fimnar.sim import _fit_respondent, em_fit, generate
    from fimnar.variance import mu_y_variance, variance_estimate

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    data = generate(scenario, rng)
    out = {}
    calls = (
        ("respondent_fit", lambda: _fit_respondent(scenario, data, rng, 10)),
        ("em_fit", lambda: em_fit(
            data, out["respondent_fit"], scenario.response.h_basis,
            controls=FiControls(max_em_iter=2000),
        )),
        ("variance_estimate", lambda: variance_estimate(
            out["em_fit"], out["respondent_fit"], data
        )),
        ("mu_y_variance", lambda: mu_y_variance(
            out["em_fit"], out["respondent_fit"], data, out["variance_estimate"][1]
        )),
    )
    values = {}
    for layer, call in calls:
        out[layer], values[layer] = measure(call)
    return float(out["mu_y_variance"]), values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="s3")
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--seeds", default="3000-3019",
                        help="comma-separated seeds or lo-hi ranges")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="the fimnar source tree to time")
    parser.add_argument("--out", default=str(REPO / "BENCH_mixture.json"))
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("at least 3 runs are needed for a median")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from fimnar.sim import built_in_scenario

    scenario = built_in_scenario(args.scenario, n=args.n)
    seeds = parse_seeds(args.seeds)
    replicate(scenario, seeds[0], timed)  # warm-up

    per_run = {layer: [] for layer in LAYERS}
    mu_var = []
    for _ in range(args.runs):
        mu_var, runs = zip(*(replicate(scenario, seed, timed) for seed in seeds))
        for layer in LAYERS:
            per_run[layer].append(1e3 * sum(r[layer] for r in runs) / len(seeds))
    totals = [sum(run) for run in zip(*per_run.values())]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peaks = [replicate(scenario, seed, traced)[1] for seed in seeds]

    result = {
        "revision": git_revision(src),
        "scenario": args.scenario,
        "n": args.n,
        "seeds": args.seeds,
        "runs": args.runs,
        "ms_per_replicate": {
            layer: statistics.median(values) for layer, values in per_run.items()
        },
        "total_ms_per_replicate": statistics.median(totals),
        "runs_ms_per_replicate": per_run,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "peak_alloc_mb": {
            layer: round(max(p[layer] for p in peaks), 2) for layer in LAYERS
        },
        "mu_y_variance": list(mu_var),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
    }
    out_path = Path(args.out)
    merged = json.loads(out_path.read_text()) if out_path.exists() else {}
    merged[args.label] = result
    out_path.write_text(json.dumps(merged, indent=2) + "\n")
    for layer in LAYERS:
        print(f"{layer:>18}: {result['ms_per_replicate'][layer]:8.1f} ms, "
              f"peak alloc {result['peak_alloc_mb'][layer]:8.2f} MB")
    print(f"{'total':>18}: {result['total_ms_per_replicate']:8.1f} ms, "
          f"peak RSS {result['peak_rss_mb']} MB -> {out_path} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
