"""The package's runtime imports: numpy and scipy.special, nothing heavier.

``scipy.stats``, ``scipy.integrate`` and ``scipy.optimize`` took most of
``import fimnar``'s time; this guard runs the package in a fresh
interpreter, so that the test process's own imports do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize")

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
run_mc(scenario_s1(1.0, n=200), b=1, seed=5)  # true_mu_y and the CC interval
x = np.random.default_rng(0).normal(size=200)
y = np.random.default_rng(1).gamma(2.0, np.exp(0.3 * x) / 2.0)
fit_glm(y, {"x": x}, Family.GAMMA, parse_formula("1 + x", {"x": continuous()}))
print(json.dumps({"code": code, "at_import": imported, "after_run": sorted(sys.modules)}))
"""


def heavy(modules):
    return [m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY)]


def test_fit_imports_only_numpy_and_scipy_special(tmp_path):
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
    assert heavy(result["at_import"]) == []
    assert heavy(result["after_run"]) == []
    assert "scipy.special" in result["at_import"]
