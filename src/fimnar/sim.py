"""Built-in simulation scenarios and the Monte Carlo driver.

The three built-in scenarios share the same shape: a standard-normal
covariate, a logistic response mechanism with a nonzero coefficient on
the outcome, and a respondents' outcome model that is respectively a
quadratic-mean normal (with an adjustable quadratic coefficient that
controls identifiability strength), a steep-slope Bernoulli, and a
two-component normal mixture.

Because the model specifies the outcome law among respondents and the
response mechanism given everything, the joint law is reconstructed
exactly: the marginal response probability at covariates x is
``1 / (1 + exp(-h(x)) * E[exp(-beta*Y) | x, respondent])`` and the
nonrespondents' outcomes follow the tilted density.  Generation draws
from these pieces directly, with no rejection step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Optional, Sequence

import numpy as np

from .basis import continuous, parse_formula
from .dataio import Dataset
from .expfam import Component, Family, OutcomeSpec, log_odds_normalizer, mean, sample, tilt
from .fiem import FiControls, em_fit, estimate_mu_y
from .respondent import FitError, fit_glm, fit_normal_mixture
from .response import ResponseSpec, propensity_from_log_odds
from .variance import mu_y_variance, variance_estimate, wald_interval

__all__ = [
    "Scenario",
    "McRow",
    "McSummary",
    "McRunError",
    "scenario_s1",
    "scenario_s2",
    "scenario_s3",
    "built_in_scenario",
    "generate",
    "true_mu_y",
    "run_mc",
]

KINDS = {"x": continuous()}
_B1X = parse_formula("1 + x", KINDS)
_B1XX = parse_formula("1 + x + x^2", KINDS)
FAILURE_LIMIT = 0.05
TRUTH_STEP = 0.05  # trapezoid step of true_mu_y over x
TRUTH_LIMIT = 40.0  # true_mu_y integrates x over [-TRUTH_LIMIT, TRUTH_LIMIT]


@dataclass(frozen=True)
class Scenario:
    """A complete population law.

    The respondents' model fitted to its data has the family and the
    component bases of ``respondent``.
    """

    name: str
    n: int
    respondent: OutcomeSpec
    response: ResponseSpec
    knob: Optional[float] = None  # quadratic coefficient for the first scenario

    def validate(self) -> None:
        """Check that the odds normalizer is finite over a wide x grid."""
        grid = {"x": np.linspace(-8.0, 8.0, 81)}
        with np.errstate(all="ignore"):  # a non-finite value is the report
            values = log_odds_normalizer(self.respondent, self.response.beta, grid)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"scenario {self.name}: odds normalizer diverges")

    def response_probability(self, columns) -> np.ndarray:
        lognorm = log_odds_normalizer(self.respondent, self.response.beta, columns)
        log_odds = lognorm - self.response.h(columns)
        return propensity_from_log_odds(log_odds, out=log_odds)


def scenario_s1(kappa2: float = 1.0, n: int = 500) -> Scenario:
    respondent = OutcomeSpec(
        Family.NORMAL, (Component(_B1XX, (0.0, 0.4, kappa2), 0.5),)
    )
    response = ResponseSpec(_B1X, (0.68, 0.19), 0.24)
    return Scenario(
        name="s1",
        n=n,
        respondent=respondent,
        response=response,
        knob=kappa2,
    )


def scenario_s2(n: int = 500) -> Scenario:
    respondent = OutcomeSpec(Family.BERNOULLI, (Component(_B1X, (-0.21, 5.9)),))
    response = ResponseSpec(_B1X, (0.7, 0.39), 0.39)
    return Scenario(name="s2", n=n, respondent=respondent, response=response)


def scenario_s3(n: int = 500) -> Scenario:
    respondent = OutcomeSpec(
        Family.NORMAL,
        (
            Component(_B1X, (1.0, -1.4), 0.5),
            Component(_B1XX, (-1.5, -0.5, 1.0), 0.5),
        ),
        weights=(0.35, 0.65),
    )
    response = ResponseSpec(_B1X, (0.9, -0.26), 0.2)
    return Scenario(name="s3", n=n, respondent=respondent, response=response)


def built_in_scenario(name: str, n: int = 500, kappa2: float = 1.0) -> Scenario:
    name = name.lower()
    if name == "s1":
        return scenario_s1(kappa2, n)
    if name == "s2":
        return scenario_s2(n)
    if name == "s3":
        return scenario_s3(n)
    raise ValueError(f"unknown scenario {name!r}; choose s1, s2, or s3")


# ---------------------------------------------------------------------------
# generation and the truth
# ---------------------------------------------------------------------------


def generate(
    scenario: Scenario,
    rng: np.random.Generator | int,
    return_full_y: bool = False,
):
    """Draw one dataset from the scenario's joint law.

    Outcomes of nonresponding units are drawn from the tilted density
    and then masked; ``return_full_y`` also returns the unmasked vector
    for test oracles.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    scenario.validate()
    n = scenario.n
    x = rng.normal(size=n)
    columns = {"x": x}
    p1 = scenario.response_probability(columns)
    delta = (rng.random(n) < p1).astype(int)
    y_full = np.empty(n)
    resp_mask = delta == 1
    if resp_mask.any():
        y_full[resp_mask] = sample(
            scenario.respondent, {"x": x[resp_mask]}, rng
        )
    if (~resp_mask).any():
        tilted = tilt(scenario.respondent, scenario.response.beta)
        y_full[~resp_mask] = sample(tilted, {"x": x[~resp_mask]}, rng)
    y = y_full.copy()
    y[~resp_mask] = np.nan
    data = Dataset(columns={"x": x}, y=y, delta=delta, kinds=dict(KINDS))
    if return_full_y:
        return data, y_full
    return data


def true_mu_y(scenario: Scenario) -> float:
    """Population mean of the outcome: a trapezoid rule over x ~ N(0, 1).

    The integrand is smooth with Gaussian tails, so the rule on
    ``[-TRUTH_LIMIT, TRUTH_LIMIT]`` converges exponentially in the step
    (Trefethen & Weideman 2014); RuntimeError is raised when the sums at
    steps ``TRUTH_STEP`` and ``2 * TRUTH_STEP`` differ by more than 1e-9.
    """
    scenario.validate()
    tilted = tilt(scenario.respondent, scenario.response.beta)
    half = round(TRUTH_LIMIT / TRUTH_STEP)
    x = TRUTH_STEP * np.arange(-half, half + 1)  # symmetric nodes, each rounded once
    columns = {"x": x}
    p1 = scenario.response_probability(columns)
    m = p1 * mean(scenario.respondent, columns) + (1.0 - p1) * mean(tilted, columns)
    f = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * m
    # the density vanishes at both ends, so each sum is step times its points
    fine = TRUTH_STEP * float(np.sum(f))
    coarse = 2.0 * TRUTH_STEP * float(np.sum(f[::2]))
    if not abs(fine - coarse) <= 1e-9:
        raise RuntimeError(
            f"trapezoid rule for the outcome mean did not converge ({abs(fine - coarse):.2g})"
        )
    return fine


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _atan(x: Decimal) -> Decimal:
    """arctan(x) for x > 0, in the current decimal context."""
    for _ in range(3):  # halve the angle three times: x <= tan(pi/16)
        x = x / (1 + (1 + x * x).sqrt())
    total, power, k = x, x, 1
    while True:
        power *= -x * x
        nxt = total + power / (2 * k + 1)
        if nxt == total:
            return 8 * total
        total, k = nxt, k + 1


def _t_tail(t: Decimal, df: int) -> tuple[Decimal, Decimal]:
    """P(T > t) and the density at t, for integer ``df`` >= 1, in the current decimal context.

    Abramowitz & Stegun 26.7.3-4: with theta = atan(t / sqrt(df)),
    P(|T| <= t) is a finite sum in cos^2(theta), times sin(theta) for even
    df and plus theta for odd df.  The density is the sum's last term times
    (df - 1), a power of cos^2(theta) and a constant.
    """
    root = Decimal(df).sqrt()
    r2 = df + t * t
    cos2 = df / r2
    odd = df % 2
    term = total = Decimal(1)
    for k in range(1, df // 2):
        term = term * cos2 * (2 * k - 1 + odd) / (2 * k + odd)
        total += term
    if not odd:
        inside = t / r2.sqrt() * total
        density = (df - 1) * term * cos2 * cos2.sqrt() / (2 * root)
    elif df == 1:
        inside = 2 * _atan(t) / _PI
        density = cos2 / _PI
    else:
        inside = 2 * (_atan(t / root) + t * root / r2 * total) / _PI
        density = (df - 1) * term * cos2 * cos2 / (_PI * root)
    return (1 - inside) / 2, density


@functools.cache
def _t975(df: int) -> float:
    """The Student-t 0.975 quantile at integer ``df`` >= 1, correctly rounded; nan below.

    The start is exact at df 1 and 2 and Cornish-Fisher in 1/df above
    (Abramowitz & Stegun 26.7.5).  Newton steps on ``P(T > t) - 0.025``
    refine it in 50-digit decimal (``_t_tail``).  They converge
    quadratically, so once a step is below 1e-13 relative the error left
    is far below double precision's.
    """
    if df < 1:
        return math.nan
    if df == 1:
        start = math.tan(0.475 * math.pi)
    elif df == 2:
        start = 0.95 / math.sqrt(2 * 0.975 * 0.025)
    else:
        z = 1.959963984540054  # the normal 0.975 quantile
        z2 = z * z
        g = (
            (z2 + 1) / 4,
            ((5 * z2 + 16) * z2 + 3) / 96,
            (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384,
            ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160,
        )
        start = z * (1 + sum(gk / df ** (k + 1) for k, gk in enumerate(g)))
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(start)
        while True:
            tail, density = _t_tail(t, df)
            step = (tail - Decimal("0.025")) / density
            t += step
            if abs(step) < t * Decimal("1e-13"):
                return float(t)


def cc_mu_y(data: Dataset) -> tuple[float, float, float]:
    """Complete-case mean with its t-interval; with one respondent the bounds are nan.

    The t quantile is ``_t975``, memoised per degree of freedom, so the
    interval needs no scipy.
    """
    y = data.y_observed
    n1 = y.size
    est = float(np.mean(y))
    if n1 < 2:
        return est, math.nan, math.nan
    se = float(np.std(y, ddof=1)) / math.sqrt(n1)
    t = _t975(n1 - 1)
    return est, est - t * se, est + t * se


def _fit_respondent(scenario: Scenario, data: Dataset, rng, restarts: int):
    """Fit the scenario's respondents' family and bases; only normal specs are mixtures."""
    spec = scenario.respondent
    y = data.y_observed
    columns = data.respondent_columns()
    bases = [comp.basis for comp in spec.components]
    if spec.k > 1:
        return fit_normal_mixture(y, columns, bases, restarts=restarts, rng=rng)
    return fit_glm(y, columns, spec.family, bases[0])


@dataclass
class _Replicate:
    index: int
    response_rate: float
    cc_mu: tuple[float, float, float]
    fi_mu: Optional[tuple[float, float, float]] = None
    fi_beta: Optional[tuple[float, float, float]] = None
    em_iterations: int = 0
    error: Optional[str] = None


def _run_replicate(
    scenario: Scenario,
    index: int,
    seed: np.random.SeedSequence,
    controls: FiControls,
    restarts: int,
    estimators: Sequence[str],
) -> _Replicate:
    rng = np.random.default_rng(seed)
    data = generate(scenario, rng)
    rec = _Replicate(
        index=index,
        response_rate=float(np.mean(data.delta)),
        cc_mu=cc_mu_y(data),
    )
    if "FI" not in estimators:
        return rec
    try:
        gamma_fit = _fit_respondent(scenario, data, rng, restarts)
        fit = em_fit(data, gamma_fit, scenario.response.h_basis, controls=controls)
        sigma, parts = variance_estimate(fit, gamma_fit, data)
        mu_hat = estimate_mu_y(fit, data)
        mu_var = mu_y_variance(fit, gamma_fit, data, parts)
        lo, hi = wald_interval(mu_hat, mu_var)
        rec.fi_mu = (mu_hat, lo, hi)
        beta_hat = fit.phi_hat.beta
        blo, bhi = wald_interval(beta_hat, float(sigma[-1, -1]))
        rec.fi_beta = (beta_hat, blo, bhi)
        rec.em_iterations = fit.em_iterations
    except (FitError, np.linalg.LinAlgError) as err:
        rec.error = f"{type(err).__name__}: {err}"
    return rec


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McRow:
    scenario: str
    knob: Optional[float]
    parameter: str
    method: str
    bias: float
    rmse: float
    coverage: float
    n_replicates: int
    failures: int
    mean_response_rate: float
    truth: float


@dataclass
class McSummary:
    rows: list[McRow]
    replicates: list[_Replicate] = field(default_factory=list)

    def row(self, parameter: str, method: str) -> McRow:
        for r in self.rows:
            if r.parameter == parameter and r.method == method:
                return r
        raise KeyError((parameter, method))


class McRunError(RuntimeError):
    def __init__(self, message: str, summary: Optional[McSummary] = None):
        super().__init__(message)
        self.summary = summary


def _aggregate(values, truth: float) -> tuple[float, float, float]:
    est = np.asarray([v[0] for v in values])
    lo = np.asarray([v[1] for v in values])
    hi = np.asarray([v[2] for v in values])
    bias = float(np.mean(est) - truth)
    rmse = float(np.sqrt(np.mean((est - truth) ** 2)))
    coverage = float(np.mean((lo <= truth) & (truth <= hi)))
    return bias, rmse, coverage


def _replicate_job(args) -> _Replicate:
    return _run_replicate(*args)


def run_mc(
    scenario: Scenario,
    b: int,
    seed: int,
    estimators: Sequence[str] = ("CC", "FI"),
    controls: FiControls = FiControls(max_em_iter=2000),
    restarts: int = 10,
    mu_truth: Optional[float] = None,
    workers: int = 1,
) -> McSummary:
    """Run B independent replicates and aggregate bias, RMSE, coverage.

    Replicate-level estimation failures are recorded and excluded from
    the aggregates; a failure rate above 5 percent fails the whole run.
    Identical (scenario, seed, b) inputs give identical output for any
    worker count: every replicate owns a seed derived from (seed,
    replicate index) and aggregation is an ordered reduction.  The
    default controls allow more EM iterations than the fitting default
    because weakly identifiable settings converge very slowly.
    """
    if b < 1:
        raise ValueError("at least one replicate required")
    truth_mu = true_mu_y(scenario) if mu_truth is None else mu_truth
    truth_beta = scenario.response.beta
    seeds = np.random.SeedSequence(seed).spawn(b)
    jobs = [
        (scenario, i, s, controls, restarts, estimators)
        for i, s in enumerate(seeds)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            replicates = list(pool.map(_replicate_job, jobs, chunksize=8))
    else:
        replicates = [_replicate_job(job) for job in jobs]
    failures = sum(1 for r in replicates if r.error is not None)
    ok = [r for r in replicates if r.error is None]
    rows: list[McRow] = []
    rate = float(np.mean([r.response_rate for r in replicates]))

    def add(parameter, method, values, truth):
        bias, rmse, coverage = _aggregate(values, truth)
        rows.append(
            McRow(
                scenario.name,
                scenario.knob,
                parameter,
                method,
                bias,
                rmse,
                coverage,
                len(values),
                failures,
                rate,
                truth,
            )
        )

    if "CC" in estimators:
        add("mu_y", "CC", [r.cc_mu for r in replicates], truth_mu)
    if "FI" in estimators and ok:
        add("mu_y", "FI", [r.fi_mu for r in ok], truth_mu)
        add("beta", "FI", [r.fi_beta for r in ok], truth_beta)
    summary = McSummary(rows=rows, replicates=replicates)
    if failures > FAILURE_LIMIT * b:
        raise McRunError(
            f"{failures} of {b} replicates failed (limit {FAILURE_LIMIT:.0%})",
            summary,
        )
    return summary
