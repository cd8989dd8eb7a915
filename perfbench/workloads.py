"""The benchmark's workloads: inputs made from a seed, one timed operation, output checks.

Every operation goes through the package's public functions only:
``fimnar.cli.main`` for the real-data fit and ``fimnar.sim.run_mc`` for the
Monte Carlo workloads.  Functions are looked up on their module at call
time so that the traced run's wrappers see the calls.

Outputs are compared with reference outputs recorded from the code the
benchmark was defined on (``reference.json``, written by
``make_reference.py``).  The tolerance admits the differences a
reorganised solver or a closed-form variance is expected to make (about
1e-7 in the parameters, 1e-6 relative in a variance) and rejects a wrong
estimate.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ATOL = 1e-5
RTOL = 1e-5

REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")

ELECTION_DATA = "data/election_like.csv"
ELECTION_CONFIG = "data/election_like.json"
# the default donor engine alternates with the parametric engine, which
# draws a 200-value pool per missing unit
ENGINES = ("donor", "parametric:200")

# workload -> (scenario, n, first run_mc seed of the reference pool, pool size)
MC_SIZES = {
    "mc-s3": ("s3", 500, 3000, 120),
    "mc-s1-large": ("s1", 6000, 6000, 12),
}
TINY_MC_SIZES = {
    "mc-s3": ("s3", 300, 3000, 6),
    "mc-s1-large": ("s1", 300, 6000, 6),
}

# operations in the traced run; fixed so that its counts repeat exactly
TRACE_OPS = {"fit-election": 2, "mc-s3": 20, "mc-s1-large": 1}
TINY_TRACE_OPS = {"fit-election": 2, "mc-s3": 2, "mc-s1-large": 1}

WORKLOADS = ("fit-election", "mc-s3", "mc-s1-large")


@dataclass
class Outcome:
    """One timed operation: its kind, wall time, check result and raw output."""

    kind: str
    seconds: float
    ok: bool
    reason: Optional[str]
    output: object


def close(value: float, ref: float) -> bool:
    """The reference check for one number; NaN matches only NaN."""
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    return abs(value - ref) <= ATOL + RTOL * abs(ref)


def compare_rows(rows, ref_rows) -> Optional[str]:
    """First mismatch between labelled value rows, or None when all agree."""
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        return f"row labels {[r[0] for r in rows]} differ from the reference"
    for row, ref in zip(rows, ref_rows):
        for value, expected in zip(row[1:], ref[1:]):
            if not close(float(value), float(expected)):
                return f"{row[0]}: {value!r} vs reference {expected!r}"
    return None


def load_reference(workload: str, tiny: bool) -> dict:
    with open(REFERENCE_FILE) as fh:
        payload = json.load(fh)
    return payload["tiny" if tiny else "full"][workload]


class FitElection:
    """In-process ``fimnar fit`` on the bundled dataset, alternating engines.

    The seed shuffles the order of the respondent rows of the CSV; missing
    rows keep their places, so the parametric engine draws the same pool
    for each missing unit.  Estimates do not depend on row order, so one
    reference serves every seed.
    """

    name = "fit-election"

    def __init__(self, root: Path, seed: int, workdir: Path, tiny: bool = False):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.min_ops = len(ENGINES)
        self.trace_ops = (TINY_TRACE_OPS if tiny else TRACE_OPS)[self.name]

    def prepare(self, check: bool = True) -> None:
        import fimnar.cli  # noqa: F401  (the import is part of set-up)

        lines = (self.root / ELECTION_DATA).read_text().splitlines(keepends=True)
        header, rows = lines[0], lines[1:]
        delta_col = header.strip().split(",").index("delta")
        resp = [i for i, r in enumerate(rows) if r.strip().split(",")[delta_col] == "1"]
        order = np.random.default_rng(self.seed).permutation(len(resp))
        shuffled = list(rows)
        for slot, src in zip(resp, order):
            shuffled[slot] = rows[resp[src]]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.data = self.workdir / f"election-seed{self.seed}.csv"
        self.data.write_text(header + "".join(shuffled))
        self.reference = load_reference(self.name, self.tiny) if check else None

    def op_kind(self, k: int) -> str:
        return ENGINES[k % len(ENGINES)].split(":")[0]

    def run_op(self, k: int) -> Outcome:
        import fimnar.cli

        engine = ENGINES[k % len(ENGINES)]
        kind = self.op_kind(k)
        out = self.workdir / f"fit-{kind}"
        estimates = out / "fit_estimates.tsv"
        estimates.unlink(missing_ok=True)
        argv = [
            "fit",
            "--data", str(self.data),
            "--config", str(self.root / ELECTION_CONFIG),
            "--out", str(out),
            "--engine", engine,
        ]
        start = time.perf_counter()
        try:
            code = fimnar.cli.main(argv)
        except Exception as err:  # counted as a failed operation
            return Outcome(kind, time.perf_counter() - start, False,
                           f"{type(err).__name__}: {err}", None)
        seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(kind, seconds, False, f"fimnar fit exited {code}", None)
        text = estimates.read_text()
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        reason = None if self.reference is None else compare_rows(rows, self.reference[kind])
        return Outcome(kind, seconds, reason is None, reason, text)

    def record(self, outcome: Outcome):
        return [line.split("\t") for line in outcome.output.splitlines()[1:]]


class MonteCarlo:
    """``run_mc`` on a built-in scenario, one replicate per call, ``workers=1``.

    The seed permutes a fixed pool of ``run_mc`` seeds whose replicates were
    recorded as references; operations walk that order and wrap around.
    """

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.scenario_name, self.n, first, size = (TINY_MC_SIZES if tiny else MC_SIZES)[name]
        self.pool = [first + i for i in range(size)]
        self.min_ops = 1
        self.trace_ops = (TINY_TRACE_OPS if tiny else TRACE_OPS)[name]

    def prepare(self, check: bool = True) -> None:
        import fimnar.sim

        self.scenario = fimnar.sim.built_in_scenario(self.scenario_name, n=self.n)
        self.truth = fimnar.sim.true_mu_y(self.scenario)
        order = np.random.default_rng(self.seed).permutation(len(self.pool))
        self.order = [self.pool[i] for i in order]
        self.reference = load_reference(self.name, self.tiny) if check else None

    def op_kind(self, k: int) -> str:
        return "replicate"

    def run_op(self, k: int) -> Outcome:
        import fimnar.sim

        mc_seed = self.order[k % len(self.order)]
        start = time.perf_counter()
        try:
            summary = fimnar.sim.run_mc(
                self.scenario, b=1, seed=mc_seed, mu_truth=self.truth, workers=1
            )
        except fimnar.sim.McRunError as err:
            # the 5 % gate in run_mc raises after every replicate has run
            summary = err.summary
        except Exception as err:  # counted as a failed operation
            return Outcome("replicate", time.perf_counter() - start, False,
                           f"{type(err).__name__}: {err}", None)
        seconds = time.perf_counter() - start
        if summary is None:
            return Outcome("replicate", seconds, False, "run_mc raised without a summary", None)
        rec = summary.replicates[0]
        output = (mc_seed, rec.fi_mu, rec.fi_beta, rec.em_iterations, rec.error)
        if rec.error is not None:
            return Outcome("replicate", seconds, False, rec.error, output)
        if self.reference is None:
            return Outcome("replicate", seconds, True, None, output)
        ref = self.reference[str(mc_seed)]
        reason = compare_rows(
            [["fi_mu", *rec.fi_mu], ["fi_beta", *rec.fi_beta]],
            [["fi_mu", *ref["fi_mu"]], ["fi_beta", *ref["fi_beta"]]],
        )
        if reason is not None:
            reason = f"run_mc seed {mc_seed}: {reason}"
        return Outcome("replicate", seconds, reason is None, reason, output)

    def record(self, outcome: Outcome):
        _, fi_mu, fi_beta, iterations, _ = outcome.output
        return {"fi_mu": list(fi_mu), "fi_beta": list(fi_beta), "em_iterations": iterations}


def make(name: str, root: Path, seed: int, workdir: Path, tiny: bool = False):
    if name == "fit-election":
        return FitElection(root, seed, workdir, tiny)
    if name in MC_SIZES:
        return MonteCarlo(name, seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
