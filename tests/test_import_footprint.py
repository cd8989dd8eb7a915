"""The package's runtime imports: numpy alone, for a fit and for a simulation.

``import fimnar``, ``import fimnar.cli``, a donor ``fimnar fit``, a GLM fit
and a ``run_mc`` replicate (the truth and the complete-case t-interval
included) load no scipy module at all: ``scipy.special`` alone took
about half of the start-up, through the ``numpy.testing`` and
``numpy.f2py`` it imports, and about a third of a Monte Carlo run's peak
resident memory.  This guard runs the package in a fresh interpreter, so
that the test process's own imports do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PROGRAM = """
import json, sys
import numpy as np
import fimnar, fimnar.cli
from fimnar.basis import continuous, parse_formula
from fimnar.expfam import Family
from fimnar.respondent import fit_glm
from fimnar.sim import run_mc, scenario_s1

imported = sorted(sys.modules)
out = sys.argv[1]
code = fimnar.cli.main([
    "fit", "--data", sys.argv[2], "--config", sys.argv[3], "--out", out,
    "--engine", "donor",
])
x = np.random.default_rng(0).normal(size=200)
y = np.random.default_rng(1).gamma(2.0, np.exp(0.3 * x) / 2.0)
fit_glm(y, {"x": x}, Family.GAMMA, parse_formula("1 + x", {"x": continuous()}))
fitted = sorted(sys.modules)
run_mc(scenario_s1(1.0, n=200), b=1, seed=5)  # true_mu_y and the CC interval
print(json.dumps({
    "code": code, "at_import": imported, "after_fit": fitted, "after_run": sorted(sys.modules),
}))
"""


def under(modules, packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_fit_and_simulation_import_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [
            sys.executable, "-c", PROGRAM, str(tmp_path / "fit"),
            str(REPO / "data" / "election_like.csv"),
            str(REPO / "data" / "election_like.json"),
        ],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert under(result["at_import"], ("scipy",)) == []
    assert under(result["after_fit"], ("scipy",)) == []
    assert under(result["after_run"], ("scipy",)) == []
