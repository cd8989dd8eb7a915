"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to watch
them stream).  The Monte Carlo blocks are deterministic: they run at
fixed master seeds, so a pass here is reproducible bit for bit.

This module is slow by design: the desk-scale table reproduction and
the sampling-variance agreement check together take on the order of
ten minutes on a single core.
"""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fimnar.basis import binary, continuous, parse_formula
from fimnar.dataio import Dataset
from fimnar.expfam import (
    Component,
    Family,
    OutcomeSpec,
    density,
    log_density,
    log_odds_normalizer,
    tilt,
)
from fimnar.fiem import (
    FiControls,
    FitResult,
    em_fit,
    fractional_weights,
    mean_score,
    score_jacobian,
    solve_mean_score,
)
from fimnar.identify import (
    Rule,
    Status,
    check_mixture,
    check_single,
    permutation_certificate,
)
from fimnar.respondent import fit_glm, fit_normal_mixture
from fimnar.response import ResponseSpec
from fimnar.sim import built_in_scenario, generate, run_mc, scenario_s1
from fimnar.variance import variance_estimate

MASTER_SEED = 20240800
CONT = {"x": continuous()}
BIN = {"x": binary()}
B1X = parse_formula("1 + x", CONT)
B1XX = parse_formula("1 + x + x^2", CONT)


def within(lo: float, value: float, hi: float, eps: float = 1e-9) -> bool:
    """Interval check with a tolerance guarding float boundary artifacts."""
    return lo - eps <= value <= hi + eps


def report(label: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# criterion 1: desk-scale table reproduction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1():
    runs = {}
    started = time.time()
    for key, name, kappa2 in [
        ("s1@1.0", "s1", 1.0),
        ("s1@0.5", "s1", 0.5),
        ("s1@0.1", "s1", 0.1),
        ("s2", "s2", 1.0),
        ("s3", "s3", 1.0),
    ]:
        scn = built_in_scenario(name, n=500, kappa2=kappa2)
        runs[key] = run_mc(scn, b=200, seed=MASTER_SEED)
    return runs, time.time() - started


def test_criterion_1_table_reproduction(table1):
    runs, elapsed = table1
    checks = []

    fi = runs["s1@1.0"].row("mu_y", "FI")
    cc = runs["s1@1.0"].row("mu_y", "CC")
    checks.append(report(
        "1/S1 k2=1.0 FI mu_y bias within 0.02 of 0.000",
        abs(fi.bias - 0.000) <= 0.02, f"bias={fi.bias:+.4f}"))
    checks.append(report(
        "1/S1 k2=1.0 FI mu_y RMSE in [0.06, 0.10]",
        within(0.06, fi.rmse, 0.10), f"rmse={fi.rmse:.4f}"))
    checks.append(report(
        "1/S1 k2=1.0 FI mu_y coverage in [91, 98]",
        within(91.0, 100 * fi.coverage, 98.0), f"cr={100*fi.coverage:.1f}"))
    checks.append(report(
        "1/S1 k2=1.0 CC mu_y bias within 0.03 of 0.167",
        abs(cc.bias - 0.167) <= 0.03, f"bias={cc.bias:+.4f}"))

    beta10 = runs["s1@1.0"].row("beta", "FI")
    beta05 = runs["s1@0.5"].row("beta", "FI")
    beta01 = runs["s1@0.1"].row("beta", "FI")
    checks.append(report(
        "1/S1 k2=1.0 FI beta bias within 0.05 of 0.015",
        abs(beta10.bias - 0.015) <= 0.05, f"bias={beta10.bias:+.4f}"))
    checks.append(report(
        "1/S1 beta RMSE strictly increasing as k2 decreases",
        beta10.rmse < beta05.rmse < beta01.rmse,
        f"{beta10.rmse:.3f} < {beta05.rmse:.3f} < {beta01.rmse:.3f}"))

    fi2 = runs["s2"].row("mu_y", "FI")
    cc2 = runs["s2"].row("mu_y", "CC")
    checks.append(report(
        "1/S2 FI mu_y bias within 0.01 of 0.002",
        abs(fi2.bias - 0.002) <= 0.01, f"bias={fi2.bias:+.4f}"))
    checks.append(report(
        "1/S2 FI mu_y coverage in [91, 98]",
        within(91.0, 100 * fi2.coverage, 98.0), f"cr={100*fi2.coverage:.1f}"))
    checks.append(report(
        "1/S2 CC mu_y bias within 0.02 of 0.073",
        abs(cc2.bias - 0.073) <= 0.02, f"bias={cc2.bias:+.4f}"))

    fi3 = runs["s3"].row("mu_y", "FI")
    checks.append(report(
        "1/S3 FI mu_y bias within 0.02 of -0.001",
        abs(fi3.bias - (-0.001)) <= 0.02, f"bias={fi3.bias:+.4f}"))
    checks.append(report(
        "1/S3 FI mu_y RMSE in [0.08, 0.13]",
        within(0.08, fi3.rmse, 0.13), f"rmse={fi3.rmse:.4f}"))
    checks.append(report(
        "1/S3 FI mu_y coverage in [91, 98]",
        within(91.0, 100 * fi3.coverage, 98.0), f"cr={100*fi3.coverage:.1f}"))

    rates = {k: runs[k].rows[0].mean_response_rate for k in ("s1@1.0", "s2", "s3")}
    checks.append(report(
        "1/mean response rate per scenario in [0.67, 0.73]",
        all(within(0.67, r, 0.73) for r in rates.values()),
        ", ".join(f"{k}={v:.3f}" for k, v in rates.items())))

    checks.append(report(
        "1/CC-vs-FI absolute mu_y bias ordering in every run",
        all(
            abs(runs[k].row("mu_y", "FI").bias) < abs(runs[k].row("mu_y", "CC").bias)
            for k in runs
        )))

    checks.append(report(
        "1/runtime within the ten-minute budget",
        elapsed <= 600.0, f"{elapsed:.0f}s"))
    assert all(checks)


# ---------------------------------------------------------------------------
# criterion 2: identifiability fixture suite
# ---------------------------------------------------------------------------


def test_criterion_2_identifiability_fixtures():
    started = time.time()
    checks = []

    quad = OutcomeSpec(Family.NORMAL, (Component(B1XX, (0.0, 0.4, 1.0), 0.5),))
    v = check_single(quad, B1X, CONT)
    checks.append(report(
        "2/quadratic mean, continuous x: provably identifiable",
        v.status is Status.PROVABLY_IDENTIFIABLE and v.rule is Rule.COR1))

    lin = OutcomeSpec(Family.NORMAL, (Component(B1X, (0.0, 0.4), 0.5),))
    checks.append(report(
        "2/linear mean (zero quadratic coefficient): not provable",
        check_single(lin, B1X, CONT).status is Status.NOT_PROVABLE))

    bq = parse_formula("1 + x + x^2", BIN)
    bh = parse_formula("1 + x", BIN)
    vb = check_single(
        OutcomeSpec(Family.NORMAL, (Component(bq, (0.0, 0.4, 1.0), 0.5),)), bh, BIN
    )
    checks.append(report(
        "2/binary covariate: not provable with a counting certificate",
        vb.status is Status.NOT_PROVABLE and "3 unknowns" in vb.certificate,
        vb.certificate))

    mirror = OutcomeSpec(
        Family.NORMAL,
        (
            Component(parse_formula("x^2", CONT), (1.0,), 1.0),
            Component(parse_formula("x^2", CONT), (-1.0,), 1.0),
        ),
        weights=(0.5, 0.5),
    )
    v5 = check_mixture(mirror, B1X, CONT)
    checks.append(report(
        "2/mirror mixture with matching variance-weight relation: provably unidentifiable",
        v5.status is Status.PROVABLY_UNIDENTIFIABLE and v5.rule is Rule.EXAMPLE5))

    linear2 = OutcomeSpec(
        Family.NORMAL,
        (Component(B1X, (0.0, 1.0), 1.0), Component(B1X, (0.0, 2.0), 1.0)),
        weights=(0.5, 0.5),
    )
    v6 = check_mixture(linear2, B1X, CONT)
    checks.append(report(
        "2/two-component linear mixture: the failed extra-term condition is named",
        "C2 fails" in v6.certificate,
        f"{v6.status.value}: {v6.certificate}"))

    cert = permutation_certificate([3.0, 2.0, 1.0])
    checks.append(report(
        "2/slopes (3,2,1): permutation certificate found with r=4",
        cert is not None and cert[1] == 4.0))
    checks.append(report(
        "2/slopes (5,2,1): no certificate",
        permutation_certificate([5.0, 2.0, 1.0]) is None))

    rng = np.random.default_rng(0)
    agree = True
    for k in range(2, 7):
        for _ in range(20):
            slopes = rng.choice(np.arange(-25, 26), size=k, replace=False).astype(float)
            got = permutation_certificate(slopes) is not None
            exact = [Fraction(s) for s in slopes]
            want = any(
                all(exact[p[i]] + exact[i] == exact[p[0]] + exact[0] for i in range(k))
                for p in itertools.permutations(range(k))
            )
            agree = agree and (got == want)
    checks.append(report("2/rational brute-force oracle agreement for K <= 6", agree))

    elapsed = time.time() - started
    checks.append(report("2/fixture suite under one second", elapsed < 1.0,
                         f"{elapsed:.2f}s"))
    assert all(checks)


# ---------------------------------------------------------------------------
# criterion 3: property suites
# ---------------------------------------------------------------------------


def _tilt_grid():
    grid = []
    for intercept in (-0.5, 0.0, 0.4):
        for slope in (0.0, 0.8):
            for var in (0.5, 1.5):
                grid.append(OutcomeSpec(
                    Family.NORMAL, (Component(B1X, (intercept, slope), var),)))
            grid.append(OutcomeSpec(
                Family.BERNOULLI, (Component(B1X, (intercept, slope)),)))
            grid.append(OutcomeSpec(
                Family.POISSON, (Component(B1X, (intercept, slope)),)))
            grid.append(OutcomeSpec(
                Family.GAMMA, (Component(B1X, (intercept, slope), 2.0),)))
    grid.append(OutcomeSpec(
        Family.NORMAL,
        (Component(B1X, (1.0, -1.4), 0.5), Component(B1XX, (-1.5, -0.5, 1.0), 0.5)),
        weights=(0.35, 0.65),
    ))
    return grid


def _oracle_log_normalizer(spec, beta, x):
    cols = {"x": np.array([x])}

    def dens(y):
        return float(density(spec, np.array([y]), cols)[0])

    if spec.family is Family.BERNOULLI:
        val = sum(dens(y) * math.exp(-beta * y) for y in (0.0, 1.0))
    elif spec.family is Family.POISSON:
        val = sum(
            math.exp(float(log_density(spec, np.array([float(y)]), cols)[0]) - beta * y)
            for y in range(300)
        )
    else:
        lo = 1e-12 if spec.family is Family.GAMMA else -np.inf
        val, _ = integrate.quad(
            lambda y: math.exp(
                float(log_density(spec, np.array([y]), cols)[0]) - beta * y
            ),
            lo,
            np.inf,
            limit=300,
        )
    return math.log(val)


def test_criterion_3_tilt_properties():
    betas = (-2.0, -0.8, 0.5, 1.3, 2.0)
    points = []
    for spec in _tilt_grid():
        for beta in betas:
            for x in (-0.6, 0.4):
                points.append((spec, beta, x))
    ok_norm, ok_prop, used = True, True, 0
    for spec, beta, x in points:
        cols = {"x": np.array([x])}
        if spec.family is Family.GAMMA:
            eta = float(np.dot(spec.components[0].coef, [1.0, x]))
            if beta <= -0.9 * 2.0 * math.exp(-eta):
                continue  # outside the divergence boundary
        used += 1
        lognorm = float(log_odds_normalizer(spec, beta, cols)[0])
        ok_norm = ok_norm and abs(
            lognorm - _oracle_log_normalizer(spec, beta, x)
        ) <= 1e-6
        tilted = tilt(spec, beta)
        ys = (
            (0.0, 1.0) if spec.family is Family.BERNOULLI
            else (0.0, 2.0) if spec.family is Family.POISSON
            else (0.4, 1.7) if spec.family is Family.GAMMA
            else (-0.9, 0.8)
        )
        for y in ys:
            lhs = float(log_density(tilted, np.array([y]), cols)[0])
            rhs = float(log_density(spec, np.array([y]), cols)[0]) - beta * y - lognorm
            ok_prop = ok_prop and abs(lhs - rhs) <= 1e-8
    checks = [
        report("3/tilt grid has at least 100 points", used >= 100, f"{used} points"),
        report("3/odds normalizer matches quadrature oracle within 1e-6", ok_norm),
        report("3/tilt proportionality within 1e-8", ok_prop),
    ]
    assert all(checks)


def test_criterion_3_weight_properties():
    rng = np.random.default_rng(1)
    scn = scenario_s1(1.0, n=800)
    data = generate(scn, rng)
    gamma = OutcomeSpec(Family.NORMAL, (Component(B1XX, (0.0, 0.4, 1.0), 0.5),))
    phi = scn.response
    w1 = fractional_weights(phi, gamma, data)
    w2 = fractional_weights(phi, gamma, data)
    checks = [
        report("3/fractional weight rows sum to one within 1e-12",
               float(np.max(np.abs(w1.w.sum(axis=1) - 1.0))) <= 1e-12),
        report("3/E-step idempotence within 1e-15",
               float(np.max(np.abs(w1.w - w2.w))) <= 1e-15),
    ]
    assert all(checks)


def test_criterion_3_score_and_gradient_checks():
    # response score against finite differences of the indicator likelihood
    phi = ResponseSpec(B1X, (0.68, 0.19), 0.24)
    x, y = 0.7, -1.3
    ok_score = True
    for delta in (0, 1):
        got = phi.score_vector({"x": np.array([x])}, [y], [delta])[0]
        vec = phi.phi
        for j in range(vec.size):
            step = 1e-5
            up, dn = vec.copy(), vec.copy()
            up[j] += step
            dn[j] -= step

            def ll(v):
                lp = v[0] + v[1] * x + v[2] * y
                p = 1.0 / (1.0 + math.exp(-lp))
                return delta * math.log(p) + (1 - delta) * math.log(1 - p)

            ok_score = ok_score and abs(got[j] - (ll(up) - ll(dn)) / (2 * step)) <= 1e-6

    scn = scenario_s1(1.0, n=500)
    data = generate(scn, 3)
    gamma = OutcomeSpec(Family.NORMAL, (Component(B1XX, (0.0, 0.4, 1.0), 0.5),))
    w = fractional_weights(scn.response, gamma, data)
    jac = score_jacobian(scn.response, w, data)
    vec = scn.response.phi
    fd = np.zeros_like(jac)
    for j in range(vec.size):
        step = 1e-6 * (1.0 + abs(vec[j]))
        up = scn.response.with_phi(vec + step * np.eye(3)[j])
        dn = scn.response.with_phi(vec - step * np.eye(3)[j])
        fd[:, j] = (mean_score(up, w, data) - mean_score(dn, w, data)) / (2 * step)
    rel = float(np.linalg.norm(fd - jac) / np.linalg.norm(jac))

    solved = solve_mean_score(scn.response, w, data)
    post_norm = float(np.max(np.abs(mean_score(solved, w, data))))

    checks = [
        report("3/response score matches finite differences within 1e-6", ok_score),
        report("3/Newton Jacobian matches finite differences within 1e-4 relative",
               rel <= 1e-4, f"rel={rel:.2e}"),
        report("3/post-M-step mean score norm at most 1e-8",
               post_norm <= 1e-8, f"norm={post_norm:.2e}"),
    ]
    assert all(checks)


def test_criterion_3_mixture_em_monotone():
    from fimnar.expfam import sample

    rng = np.random.default_rng(5)
    x = rng.normal(size=2000)
    truth = OutcomeSpec(
        Family.NORMAL,
        (Component(B1X, (1.0, -1.4), 0.5), Component(B1XX, (-1.5, -0.5, 1.0), 0.5)),
        weights=(0.35, 0.65),
    )
    y = sample(truth, {"x": x}, rng)
    fit = fit_normal_mixture(y, {"x": x}, [B1X, B1XX], rng=rng, restarts=4)
    diffs = np.diff(np.asarray(fit.trace))
    assert report(
        "3/mixture EM log-likelihood monotone within 1e-9 slack",
        bool(np.all(diffs >= -1e-9)),
        f"min step {diffs.min():.2e}",
    )


@pytest.fixture(scope="module")
def mc_variance_experiment():
    scn = scenario_s1(1.0, n=2000)
    seeds = np.random.SeedSequence(MASTER_SEED).spawn(500)
    phis, est_vars = [], []
    for s in seeds:
        rng = np.random.default_rng(s)
        data = generate(scn, rng)
        gf = fit_glm(
            data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX
        )
        fit = em_fit(data, gf, scn.response.h_basis)
        sigma, _ = variance_estimate(fit, gf, data)
        phis.append(fit.phi)
        est_vars.append(np.diag(sigma))
    return np.asarray(phis), np.asarray(est_vars)


def test_criterion_3_variance_estimator(mc_variance_experiment):
    # complete-data reduction against an independent textbook computation
    rng = np.random.default_rng(9)
    n = 400
    x = rng.normal(size=n)
    yv = 0.5 * x + rng.normal(size=n)
    data = Dataset(columns={"x": x}, y=yv, delta=np.ones(n, dtype=int), kinds=dict(CONT))
    gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1X)
    phi = ResponseSpec(B1X, (0.4, -0.2), 0.3)
    w = fractional_weights(phi, gf.spec, data)
    fit = FitResult(phi, w, 0.0)
    sigma, _ = variance_estimate(fit, gf, data)
    z = np.column_stack([np.ones(n), x, yv])
    p = 1.0 / (1.0 + np.exp(-(z @ phi.phi)))
    bread = z.T @ (z * (p * (1 - p))[:, None]) / n
    opg = (z * (1 - p)[:, None]).T @ (z * (1 - p)[:, None]) / n
    inv = np.linalg.inv(bread)
    textbook = inv @ opg @ inv.T / n
    reduction_ok = bool(np.allclose(sigma, textbook, rtol=1e-8))

    scn = scenario_s1(1.0, n=600)
    dmiss = generate(scn, 21)
    gf2 = fit_glm(dmiss.y_observed, dmiss.respondent_columns(), Family.NORMAL, B1XX)
    fit2 = em_fit(dmiss, gf2, scn.response.h_basis)
    sigma2, _ = variance_estimate(fit2, gf2, dmiss)
    psd_ok = bool(
        np.allclose(sigma2, sigma2.T, atol=1e-10)
        and np.all(np.linalg.eigvalsh(sigma2) >= 0)
    )

    phis, est_vars = mc_variance_experiment
    mc_var = phis.var(axis=0, ddof=1)
    rel = np.abs(est_vars.mean(axis=0) - mc_var) / mc_var
    checks = [
        report("3/complete-data reduction equals logistic sandwich within 1e-8",
               reduction_ok),
        report("3/covariance symmetric and positive semidefinite", psd_ok),
        report(
            "3/estimated variance matches Monte Carlo variance within 25% "
            "(n=2000, B=500)",
            bool(np.all(rel <= 0.25)),
            "rel err " + ", ".join(f"{r:.3f}" for r in rel)),
    ]
    assert all(checks)


def test_criterion_3_mar_null():
    base = scenario_s1(1.0, n=800)
    scn = replace(base, response=ResponseSpec(B1X, (0.68, 0.19), 0.0))
    betas = []
    for r in range(25):
        data = generate(scn, 9000 + r)
        gf = fit_glm(data.y_observed, data.respondent_columns(), Family.NORMAL, B1XX)
        fit = em_fit(data, gf, scn.response.h_basis, controls=FiControls(max_em_iter=2000))
        betas.append(fit.phi_hat.beta)
    betas = np.asarray(betas)
    se = betas.std(ddof=1) / math.sqrt(betas.size)
    spec = OutcomeSpec(Family.NORMAL, (Component(B1XX, (0.0, 0.4, 1.0), 0.5),))
    checks = [
        report("3/MAR null: mean beta estimate within 4 SE of zero",
               abs(float(betas.mean())) <= 4 * se,
               f"mean={betas.mean():+.4f}, se={se:.4f}"),
        report("3/tilt by zero returns the respondent density exactly",
               tilt(spec, 0.0) == spec),
    ]
    assert all(checks)


# ---------------------------------------------------------------------------
# criterion 4: determinism of the simulate command
# ---------------------------------------------------------------------------


def test_criterion_4_simulate_determinism(tmp_path):
    from fimnar.cli import main

    args = ["simulate", "--scenario", "s1", "--kappa2", "1.0",
            "--b", "4", "--n", "300", "--seed", str(MASTER_SEED)]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("results.tsv", "replicates.tsv")
    )
    assert report("4/identical flags and seed give byte-identical outputs", same)


# ---------------------------------------------------------------------------
# criterion 5: bundled gated dataset end to end
# ---------------------------------------------------------------------------


def test_criterion_5_gated_pipeline(tmp_path):
    from pathlib import Path

    from fimnar.cli import main

    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "gated"
    rc = main([
        "fit",
        "--data", str(repo / "data" / "election_like.csv"),
        "--config", str(repo / "data" / "election_like.json"),
        "--out", str(out),
    ])
    lines = (out / "fit_estimates.tsv").read_text().splitlines() if rc == 0 else []
    ok = rc == 0 and len(lines) == 15 and lines[-1].startswith("E[Y]")
    assert report(
        "5/six-level gated logistic pipeline runs end to end",
        ok,
        f"exit={rc}, rows={max(len(lines) - 1, 0)}",
    )
