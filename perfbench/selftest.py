"""Self-test of the benchmark: ``python3 -m pytest perfbench/selftest.py`` from the checkout root.

It runs a tiny pass of every workload, traced and untraced, and checks
that every metric ``BENCHMARK.json`` names is emitted, that no operation
fails its reference check, that traced and untraced passes give identical
outputs, that the reference tolerance rejects a wrong estimate, and that
the benchmark refuses to run without the package source.

It is not named ``test_*.py``, so a plain ``pytest`` run of the package's
tests, with or without the configured test paths, does not pick it up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        # traced and untraced passes of the same operations agree exactly
        assert result["metrics"]["trace.mismatches"]["value"] == 0
    else:
        for m in listed:
            assert result["metrics"][m["name"]]["value"] > 0


def test_traced_counts_repeat_exactly():
    counts = ("fiem.iterations", "expfam.log_density_outer_calls", "expfam.outer_cells",
              "fiem.weight_cells", "respondent.calls")
    seen = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "mc-s3", "--seed", "9", "--seconds", "1",
                    "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append({c: metrics[c]["value"] for c in counts})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())


def test_tolerance_admits_solver_noise_and_rejects_wrong_estimates():
    ref = [["beta", 0.24, 0.1, 0.38]]
    assert workloads.compare_rows([["beta", 0.24 + 3e-7, 0.1 * (1 + 1e-6), 0.38]], ref) is None
    assert workloads.compare_rows([["beta", 0.2401, 0.1, 0.38]], ref) is not None
    assert workloads.compare_rows([["beta", 0.24, 0.1, 0.381]], ref) is not None
    assert workloads.compare_rows([["beta", float("nan"), 0.1, 0.38]], ref) is not None
    assert workloads.compare_rows([["alpha", 0.24, 0.1, 0.38]], ref) is not None


def test_failures_are_counted_past_the_run_mc_gate(monkeypatch):
    import fimnar.sim
    from fimnar.respondent import FitError

    work = workloads.MonteCarlo("mc-s1-large", 0, tiny=True)
    work.prepare()

    def broken(*args, **kwargs):
        raise FitError("injected failure")

    monkeypatch.setattr(fimnar.sim, "em_fit", broken)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # one failed replicate of one trips the 5 % gate, so run_mc raises
        outcome = work.run_op(0)
    finally:
        tracer.uninstall()
    assert not outcome.ok and "injected failure" in outcome.reason
    layers = tracer.layer_metrics()
    assert layers["fiem.failures"] == 1
    assert layers["variance.failures"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc-s3", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
