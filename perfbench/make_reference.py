"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, on the code the references should
describe:

    python3 perfbench/make_reference.py

It runs every operation of every workload's reference pool once (the
fit on the bundled CSV in its original row order, with each engine, and
one ``run_mc`` replicate per pool seed) and writes
``perfbench/reference.json``.  The full pools take a few minutes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the same thread setting as the benchmark's children, before NumPy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def record_fit() -> dict:
    work = workloads.FitElection(ROOT, 0, ROOT / ".perfbench_out" / "reference")
    work.prepare(check=False)
    work.data = ROOT / workloads.ELECTION_DATA  # the bundled row order
    rows = {}
    for k, _ in enumerate(workloads.ENGINES):
        outcome = work.run_op(k)
        if not outcome.ok:
            raise SystemExit(f"reference fit failed: {outcome.reason}")
        rows[outcome.kind] = work.record(outcome)
        print(f"fit-election {outcome.kind}: {outcome.seconds:.2f} s", flush=True)
    return rows


def record_mc(name: str, tiny: bool) -> dict:
    work = workloads.MonteCarlo(name, 0, tiny)
    work.prepare(check=False)
    work.order = list(work.pool)
    pool = {}
    for k, mc_seed in enumerate(work.order):
        outcome = work.run_op(k)
        if not outcome.ok:
            raise SystemExit(f"{name} run_mc seed {mc_seed} failed: {outcome.reason}")
        pool[str(mc_seed)] = work.record(outcome)
        print(f"{name}{' tiny' if tiny else ''} seed {mc_seed}: {outcome.seconds:.2f} s",
              flush=True)
    return pool


def main() -> int:
    fit = record_fit()
    payload = {
        "tolerance": {"atol": workloads.ATOL, "rtol": workloads.RTOL},
        "full": {"fit-election": fit},
        "tiny": {"fit-election": fit},
    }
    for tiny in (True, False):
        for name in workloads.MC_SIZES:
            payload["tiny" if tiny else "full"][name] = record_mc(name, tiny)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
