"""Check that this tree computes what another checkout computes, probe by probe.

A refactor is meant to leave every estimate as it was.  This script runs a
fixed set of probes twice, each time in a fresh interpreter on one tree's
``src/``: once on this tree and once on the checkout given by ``--parent``.
For each probe it prints the largest relative difference over its numbers
and whether the iteration counts and failures are the same, and it exits
1 when any difference is above ``--tol`` (default 1e-12) or any count or
failure differs.  BLAS runs on one thread in both interpreters.

The probes:

- ``fimnar fit`` on ``data/election_like.csv`` with the ``donor`` and the
  ``parametric:200`` engines: the fitted (alpha, beta), their covariance,
  the outcome mean and its variance, and the solver's iteration count;
- one-replicate ``run_mc`` on a few seeds each for s1 (n=2000 and
  n=6000), s2 (n=500) and s3 (n=500 and n=6000): the replicate's
  complete-case and FI estimates and intervals, and its iteration count
  and failure.  At n=6000 ``log C`` is interpolated in y (and for s1 the
  gradient of ``log C`` too) and the s1 donor fit starts from its coarse
  level; the others take the exact walks and the one-level solve;
- ``run_mc(scenario_s1(0.1, n=500), b=47, seed=20240800)``, on which some
  replicates need the EM fallback: every replicate and the summary rows.

Usage:
    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python scripts/same_outputs.py --parent /tmp/parent
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENGINES = ("donor", "parametric:200")
MC_SEEDS = (  # scenario, n, seeds
    ("s1", 2000, (7, 8, 9)),
    ("s1", 6000, (10, 11)),
    ("s2", 500, (21, 22, 23, 24)),
    ("s3", 500, (31, 32, 33, 34)),
    ("s3", 6000, (35,)),
)
EM_FALLBACK_RUN = (0.1, 500, 47, 20240800)  # kappa2, n, b, seed


# ---------------------------------------------------------------------------
# the probes, run in a child interpreter on one tree
# ---------------------------------------------------------------------------


def _fit_probe(tree: Path, engine: str) -> dict:
    """``fimnar fit`` through ``fimnar.cli.main``, recording what it computes."""
    import fimnar.cli as cli

    seen = {"values": [], "iterations": [], "failures": []}

    def recording(name, func):
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            if name == "em_fit":
                seen["values"] += list(out.phi)
                seen["iterations"].append(out.em_iterations)
            elif name == "variance_estimate":
                seen["values"] += [float(v) for v in out[0].ravel()]
            else:
                seen["values"].append(float(out))
            return out

        return wrapper

    names = ("em_fit", "estimate_mu_y", "variance_estimate", "mu_y_variance")
    originals = {name: getattr(cli, name) for name in names}
    for name, func in originals.items():
        setattr(cli, name, recording(name, func))
    try:
        with tempfile.TemporaryDirectory() as out:
            code = cli.main([
                "fit",
                "--data", str(tree / "data" / "election_like.csv"),
                "--config", str(tree / "data" / "election_like.json"),
                "--out", out,
                "--engine", engine,
            ])
    finally:
        for name, func in originals.items():
            setattr(cli, name, func)
    seen["failures"].append(None if code == 0 else f"exit {code}")
    return seen


def _replicate_numbers(rep) -> list:
    numbers = list(rep.cc_mu)
    for triple in (rep.fi_mu, rep.fi_beta):
        numbers += [math.nan] * 3 if triple is None else list(triple)
    return numbers


def _mc_probe(scenario, b: int, seed: int) -> dict:
    from fimnar.sim import McRunError, run_mc

    try:
        summary = run_mc(scenario, b=b, seed=seed)
    except McRunError as err:
        summary = err.summary
    seen = {"values": [], "iterations": [], "failures": []}
    for rep in summary.replicates:
        seen["values"] += _replicate_numbers(rep)
        seen["iterations"].append(rep.em_iterations)
        seen["failures"].append(rep.error)
    if b > 1:
        for row in summary.rows:
            seen["values"] += [row.bias, row.rmse, row.coverage]
    return seen


def run_probes(tree: Path) -> dict:
    from fimnar.sim import built_in_scenario, scenario_s1

    probes = {}
    for engine in ENGINES:
        probes[f"fit election {engine}"] = _fit_probe(tree, engine)
    for name, n, seeds in MC_SEEDS:
        scenario = built_in_scenario(name, n=n)
        for seed in seeds:
            probes[f"run_mc {name} n={n} seed={seed}"] = _mc_probe(scenario, 1, seed)
    kappa2, n, b, seed = EM_FALLBACK_RUN
    probes[f"run_mc s1 k2={kappa2} n={n} b={b} seed={seed}"] = _mc_probe(
        scenario_s1(kappa2, n=n), b, seed
    )
    return probes


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def probes_of(tree: Path) -> dict:
    """Run the probes in a fresh interpreter on ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def relative_difference(got: list, ref: list) -> float:
    """Largest ``|got - ref| / |ref|`` (absolute where ref is 0); NaN matches only NaN."""
    if len(got) != len(ref):
        return math.inf
    worst = 0.0
    for a, b in zip(got, ref):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            worst = max(worst, 0.0 if math.isnan(a) and math.isnan(b) else math.inf)
        else:
            worst = max(worst, abs(a - b) / (abs(b) or 1.0))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare this tree with")
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        # child mode: the probes of one tree, as one JSON line
        print(json.dumps(run_probes(args.emit.resolve()), default=float))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    here, there = probes_of(REPO), probes_of(args.parent.resolve())
    failed = False
    print(f"{'probe':<44} {'max rel diff':>12}  iterations  failures")
    for name, ref in there.items():
        got = here.get(name)
        if got is None:
            print(f"{name:<44} missing in this tree")
            failed = True
            continue
        diff = relative_difference(got["values"], ref["values"])
        same_iter = got["iterations"] == ref["iterations"]
        same_fail = got["failures"] == ref["failures"]
        bad = diff > args.tol or not (same_iter and same_fail)
        failed |= bad
        print(
            f"{name:<44} {diff:>12.3g}  {'same' if same_iter else 'DIFFER':>10}"
            f"  {'same' if same_fail else 'DIFFER':>8}{'  <-- FAIL' if bad else ''}"
        )
    print("all probes match" if not failed else f"some probe differs above {args.tol:g} or in its counts")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
