"""Per-layer wall time and memory of Monte Carlo replicates, written to a BENCH json.

Each replicate is the one ``run_mc(scenario, b=1, seed=s)`` runs for a seed
``s`` of the list: after ``generate``, the complete-case interval
(``cc_mu_y``, which draws nothing from the generator), the respondent
fit, ``log C`` (``fiem._log_c_at`` at the donors' unique values, the
donor kernel's walk of the respondents), ``em_fit`` without it,
``variance_estimate`` and ``mu_y_variance`` are timed one by one with
``time.perf_counter``, and their minor page faults counted as
``ru_minflt`` deltas of ``resource.getrusage``; together they are every
call a replicate makes on its generated data.  ``log C`` is split out of
``em_fit`` by computing it first and handing it to ``em_fit``'s own call
of ``fiem._log_c_at``, so the fit is unchanged.  The memoised t quantiles
are dropped before each run, so that every run pays for them as a
``run_mc`` run does.  A run walks every seed once; the script reports,
per layer, the median over runs of the mean milliseconds and minor faults
per replicate, every run's value, and the process's peak RSS.  It also
reports ``import_s``, the median over runs of the time ``import
fimnar.cli`` takes in a fresh interpreter on the same tree.  After the
timed runs, one untimed pass over the seeds runs each layer under
``tracemalloc`` and reports its largest peak of traced allocations (NumPy
reports its buffers), since tracing slows code that allocates.  It also
reports the mean number of walks of the missing-unit x value grid per
replicate, counted at ``fiem._weight_blocks`` over every layer: those on
the full donor grid (the Newton solves, EM's M-steps and any walk of
the variances), in total and by layer, and those on the coarse grid
that starts a large one-component fit, told apart by their number of
values.  BLAS runs on one thread.

The results are merged into the output file under ``--label``, so two
checkouts can be compared in one file:

    python scripts/layer_split.py --label parent --src /path/to/parent/src
    python scripts/layer_split.py --label change

With ``--scenario election`` it splits ``fimnar fit`` on the bundled
six-group dataset instead, once per engine of ``ENGINES`` in turn each
run (the engines the perfbench fit-election workload alternates): the
CLI's own ``main`` runs, with its stages timed through the module names
it calls: ingest (config and CSV), identify, respondent fit, pool (the
parametric draws, or the donor engine's kernel: log C and the weight
factors), solve (``em_fit`` without its pool), the sandwich and E[Y]
variances (donor engine only) and the report files.  It reports the
same medians, minor faults and peak RSS, the latter over every engine.

Usage:
    python scripts/layer_split.py [--scenario s3] [--n 500]
        [--seeds 3000-3019] [--runs 3] [--label change] [--src SRC]
        [--out BENCH_mixture.json]
    python scripts/layer_split.py --scenario election [--runs 5]
        [--label change] [--src SRC] --out BENCH_parametric.json
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO = Path(__file__).resolve().parents[1]
LAYERS = (
    "cc_interval", "respondent_fit", "log_c", "em_fit", "variance_estimate", "mu_y_variance",
)
ENGINES = ("donor", "parametric:200")
# each stage of ``fimnar fit`` and the (module, name) pairs it is timed through
FIT_STAGES = {
    "ingest": (("fimnar.cli", "load_config"), ("fimnar.cli", "ingest")),
    "identify": (("fimnar.cli", "check_model"),),
    "respondent_fit": (("fimnar.cli", "select_aic"),),
    "pool": (("fimnar.fiem", "_parametric_pool"), ("fimnar.fiem", "_donor_kernel")),
    "solve": (("fimnar.cli", "em_fit"),),
    "sandwich_variance": (("fimnar.cli", "variance_estimate"),),
    "mu_y_variance": (("fimnar.cli", "mu_y_variance"),),
    "reports": (("fimnar.cli", "_write_fit_reports"),),
}


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


MACHINE = {
    "python": platform.python_version(),
    "platform": platform.platform(),
    "cpus": os.cpu_count(),
}


def merge_result(out_path: Path, label: str, result: dict) -> Path:
    """Store ``result`` under ``label`` in the json file ``out_path``."""
    merged = json.loads(out_path.read_text()) if out_path.exists() else {}
    merged[label] = result
    out_path.write_text(json.dumps(merged, indent=2) + "\n")
    return out_path


def timed(call):
    """``call()`` with its wall time in seconds and its minor page faults."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    out = call()
    seconds = time.perf_counter() - start
    return out, (seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)


def import_seconds(src: Path) -> float:
    """Wall time of ``import fimnar.cli`` in a fresh interpreter on ``src``."""
    code = "import time; t = time.perf_counter(); import fimnar.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def traced(call):
    """``call()`` and the peak of its traced allocations in MB."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def count_grid_walks() -> list:
    """Wrap ``fiem._weight_blocks``, which every walk of the missing-unit x
    value grid goes through (the solver's evaluations and any walk of the
    variance), so that each walk appends its grid's number of values to
    the list returned."""
    from fimnar import fiem

    weight_blocks, sizes = fiem._weight_blocks, []

    def counted(w, y, *args, **kwargs):
        sizes.append(y.shape[-1])
        return weight_blocks(w, y, *args, **kwargs)

    fiem._weight_blocks = counted
    return sizes


def grid_walks(sizes: dict) -> dict:
    """Per-layer walk ``sizes`` as full-grid and coarse-grid counts over the
    replicate: the full grid has the most values.  ``full_grid`` and
    ``coarse_grid`` count every layer; ``by_layer`` gives each layer's
    full-grid walks."""
    full = max((size for layer in sizes.values() for size in layer), default=0)
    by_layer = {layer: walks.count(full) for layer, walks in sizes.items()}
    every = sum(len(walks) for walks in sizes.values())
    return {
        "full_grid": sum(by_layer.values()),
        "coarse_grid": every - sum(by_layer.values()),
        "by_layer": by_layer,
    }


def split_log_c():
    """Replace ``fiem._log_c_at`` by a lookup of the ``log C`` stored in the
    dict returned, and return that dict with the original function."""
    from fimnar import fiem

    log_c_at, stored = fiem._log_c_at, {}
    fiem._log_c_at = lambda gamma, y, data: stored.pop("log_c")
    return log_c_at, stored


def replicate(scenario, seed, measure, sizes: list, log_c_at, stored: dict):
    """One ``run_mc`` replicate: its Var(mu), ``measure``'s value for each
    layer, and its ``grid_walks`` from the ``sizes`` that
    ``count_grid_walks`` returned.  ``log_c_at`` and ``stored`` are what
    ``split_log_c`` returned."""
    # imported here, after main has put the --src tree on the path
    import numpy as np

    from fimnar.fiem import FiControls
    from fimnar.sim import _fit_respondent, cc_mu_y, em_fit, generate
    from fimnar.variance import mu_y_variance, variance_estimate

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    data = generate(scenario, rng)
    out = {}
    calls = (
        ("cc_interval", lambda: cc_mu_y(data)),
        ("respondent_fit", lambda: _fit_respondent(scenario, data, rng, 10)),
        ("log_c", lambda: log_c_at(
            out["respondent_fit"].spec, np.unique(data.y_observed), data
        )),
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
    values, walks = {}, {}
    for layer, call in calls:
        sizes.clear()
        out[layer], values[layer] = measure(call)
        walks[layer] = list(sizes)
        if layer == "log_c":
            stored["log_c"] = out["log_c"]
    return float(out["mu_y_variance"]), values, grid_walks(walks)


def forget_t_quantiles() -> None:
    """Clear ``sim._t975``'s memo, where the tree has one."""
    from fimnar import sim

    getattr(getattr(sim, "_t975", None), "cache_clear", lambda: None)()


def stage_timers(totals: dict):
    """Wrap every ``FIT_STAGES`` name so that its calls add their
    ``(seconds, minor faults)`` to ``totals[stage]``."""
    import importlib

    def wrap(stage, call):
        def timed_call(*args, **kwargs):
            out, (seconds, faults) = timed(lambda: call(*args, **kwargs))
            totals[stage][0] += seconds
            totals[stage][1] += faults
            return out
        return timed_call

    for stage, names in FIT_STAGES.items():
        for module, name in names:
            mod = importlib.import_module(module)
            setattr(mod, name, wrap(stage, getattr(mod, name)))


def fit_stages(engine: str, out_dir: Path, totals: dict) -> dict:
    """One ``fimnar fit`` with ``engine``: each stage's ``(ms, minor faults)``."""
    from fimnar.cli import main as fimnar_main

    for stage in totals:
        totals[stage] = [0.0, 0]
    argv = ["fit", "--data", str(REPO / "data" / "election_like.csv"),
            "--config", str(REPO / "data" / "election_like.json"),
            "--out", str(out_dir), "--engine", engine]
    with contextlib.redirect_stdout(io.StringIO()):
        code, (seconds, faults) = timed(lambda: fimnar_main(argv))
    if code != 0:
        raise SystemExit(f"fimnar fit --engine {engine} exited {code}")
    # the pool is drawn inside em_fit
    totals["solve"] = [a - b for a, b in zip(totals["solve"], totals["pool"])]
    stages = {stage: (1e3 * t, f) for stage, (t, f) in totals.items()}
    stages["other"] = (1e3 * seconds - sum(t for t, _ in stages.values()),
                       faults - sum(f for _, f in stages.values()))
    stages["total"] = (1e3 * seconds, faults)
    return stages


def election_main(args, src: Path) -> int:
    totals = {stage: [0.0, 0] for stage in FIT_STAGES}
    stage_timers(totals)
    runs = {engine: [] for engine in ENGINES}
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ENGINES:  # warm-up
            fit_stages(engine, Path(tmp), totals)
        for _ in range(args.runs):
            for engine in ENGINES:
                runs[engine].append(fit_stages(engine, Path(tmp), totals))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_runs = [import_seconds(src) for _ in range(args.runs)]

    def medians(engine, which):
        return {stage: statistics.median(r[stage][which] for r in runs[engine])
                for stage in runs[engine][0]}

    result = {
        "revision": git_revision(src),
        "scenario": "election",
        "runs": args.runs,
        "ms_per_fit": {engine: medians(engine, 0) for engine in ENGINES},
        "runs_ms_per_fit": {
            engine: {stage: [r[stage][0] for r in runs[engine]] for stage in runs[engine][0]}
            for engine in ENGINES
        },
        "minflt_per_fit": {engine: medians(engine, 1) for engine in ENGINES},
        "import_s": statistics.median(import_runs),
        "runs_import_s": import_runs,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "machine": MACHINE,
    }
    out_path = merge_result(Path(args.out), args.label, result)
    for engine in ENGINES:
        print(engine)
        for stage, ms in result["ms_per_fit"][engine].items():
            print(f"{stage:>18}: {ms:8.2f} ms, "
                  f"{result['minflt_per_fit'][engine][stage]:7.0f} minor faults")
    print(f"peak RSS {result['peak_rss_mb']} MB, import {result['import_s']:.3f} s "
          f"-> {out_path} [{args.label}]")
    return 0


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
    if args.scenario == "election":
        return election_main(args, src)
    from fimnar.sim import built_in_scenario

    scenario = built_in_scenario(args.scenario, n=args.n)
    seeds = parse_seeds(args.seeds)
    sizes = count_grid_walks()
    log_c_at, stored = split_log_c()
    replicate(scenario, seeds[0], timed, sizes, log_c_at, stored)  # warm-up

    per_run = {layer: [] for layer in LAYERS}
    faults_per_run = {layer: [] for layer in LAYERS}
    mu_var = []
    for _ in range(args.runs):
        forget_t_quantiles()
        mu_var, runs, walks = zip(*(
            replicate(scenario, seed, timed, sizes, log_c_at, stored) for seed in seeds
        ))
        for layer in LAYERS:
            per_run[layer].append(1e3 * sum(r[layer][0] for r in runs) / len(seeds))
            faults_per_run[layer].append(sum(r[layer][1] for r in runs) / len(seeds))
    import_runs = [import_seconds(src) for _ in range(args.runs)]
    totals = [sum(run) for run in zip(*per_run.values())]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peaks = [replicate(scenario, seed, traced, sizes, log_c_at, stored)[1] for seed in seeds]

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
        "minflt_per_replicate": {
            layer: statistics.median(values) for layer, values in faults_per_run.items()
        },
        "runs_minflt_per_replicate": faults_per_run,
        "grid_walks_per_replicate": {
            "full_grid": sum(w["full_grid"] for w in walks) / len(seeds),
            "coarse_grid": sum(w["coarse_grid"] for w in walks) / len(seeds),
            "full_grid_by_layer": {
                layer: sum(w["by_layer"][layer] for w in walks) / len(seeds) for layer in LAYERS
            },
        },
        "import_s": statistics.median(import_runs),
        "runs_import_s": import_runs,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "peak_alloc_mb": {
            layer: round(max(p[layer] for p in peaks), 2) for layer in LAYERS
        },
        "mu_y_variance": list(mu_var),
        "machine": MACHINE,
    }
    out_path = merge_result(Path(args.out), args.label, result)
    for layer in LAYERS:
        print(f"{layer:>18}: {result['ms_per_replicate'][layer]:8.1f} ms, "
              f"{result['minflt_per_replicate'][layer]:9.0f} minor faults, "
              f"peak alloc {result['peak_alloc_mb'][layer]:8.2f} MB")
    counts = result["grid_walks_per_replicate"]
    layers = ", ".join(f"{layer} {k:g}" for layer, k in counts["full_grid_by_layer"].items() if k)
    print(f"{'grid walks':>18}: {counts['full_grid']:g} full grid ({layers}), "
          f"{counts['coarse_grid']:g} coarse grid per replicate")
    print(f"{'total':>18}: {result['total_ms_per_replicate']:8.1f} ms, "
          f"peak RSS {result['peak_rss_mb']} MB, import {result['import_s']:.3f} s "
          f"-> {out_path} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
