"""Command-line front end: identify, fit, and simulate subcommands.

Exit codes: 0 success, 1 usage/config/data error, 2 identifiability not
provable, 3 provably unidentifiable, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, OutcomeCandidate, RunConfig, check_control, load_config
from .dataio import Dataset, IngestError, ingest
from .expfam import SupportError, TiltDomainError, mean
from .fiem import em_fit, estimate_mu_y
from .identify import IdentifyVerdict, Status, check_model
from .respondent import Candidate, FitError, RespondentFit, select_aic
from .sim import McRunError, McSummary, built_in_scenario, run_mc
from .variance import mu_y_variance, variance_estimate, wald_interval

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_PROVABLE = 2
EXIT_UNIDENTIFIABLE = 3
EXIT_NUMERICAL = 4

WORKERS_ENV = "FIMNAR_THREADS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code ownership in main()
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="fimnar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="check model identifiability")
    p_id.add_argument("--config", required=True)
    p_id.add_argument("--candidate", type=int, default=0,
                      help="index of the candidate whose verdict sets the exit code")
    p_id.add_argument("--structure-only", action="store_true",
                      help="ignore declared coefficient values")

    p_fit = sub.add_parser("fit", help="fractional-imputation fit")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--force", action="store_true",
                       help="proceed despite a non-identifiable verdict")
    p_fit.add_argument("--tol", type=float, default=None)
    p_fit.add_argument("--max-iter", type=int, default=None)
    p_fit.add_argument("--engine", default=None,
                       help="donor or parametric:M (imputation engine)")
    p_fit.add_argument("--standardize", action="store_true",
                       help="z-score the config's standardize list of covariates")

    p_sim = sub.add_parser("simulate", help="Monte Carlo study")
    p_sim.add_argument("--scenario", required=True, choices=["s1", "s2", "s3"])
    p_sim.add_argument("--kappa2", type=float, default=1.0)
    p_sim.add_argument("--b", type=int, default=200)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--estimators", default="CC,FI")
    p_sim.add_argument("--workers", type=int, default=None,
                       help=f"worker processes (default: ${WORKERS_ENV}, else 1)")
    return parser


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------


def _candidate_verdict(
    cand: OutcomeCandidate, config: RunConfig, structure_only: bool
) -> IdentifyVerdict:
    return check_model(
        cand.spec,
        config.h_basis,
        config.schema.kinds,
        sign_beta_known=config.sign_beta_known,
        values_known=cand.has_values and not structure_only,
    )


def cmd_identify(args) -> int:
    config = load_config(args.config)
    if not (0 <= args.candidate < len(config.candidates)):
        raise _UsageError(f"candidate index {args.candidate} out of range")
    exit_code = EXIT_OK
    for idx, cand in enumerate(config.candidates):
        verdict = _candidate_verdict(cand, config, args.structure_only)
        print(f"candidate {idx}: {' | '.join(cand.formulas)}")
        print(verdict.describe())
        print()
        if idx == args.candidate:
            exit_code = verdict.exit_code
    return exit_code


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _parse_engine(raw: Optional[str], config: RunConfig) -> tuple[str, int]:
    """``--engine``: ``donor``, ``parametric`` or ``parametric:M`` with M >= 1."""
    if raw is None:
        return config.engine, config.m_draws
    name, sep, m = raw.partition(":")
    if not sep and name in ("donor", "parametric"):
        return name, config.m_draws
    if name == "parametric" and m.isdecimal() and int(m) >= 1:
        return name, int(m)
    raise _UsageError(f"unknown engine {raw!r}; use donor, parametric or parametric:M, M >= 1")


def _respondent_candidates(config: RunConfig) -> list[Candidate]:
    return [Candidate(cand.spec.family, cand.bases) for cand in config.candidates]


def _residual_rows(gamma_fit: RespondentFit, data: Dataset):
    """(level, fitted mean, residual) triples for respondents."""
    cols = data.respondent_columns()
    fitted = mean(gamma_fit.spec, cols)
    resid = data.y_observed - fitted
    gates = {
        gate
        for comp in gamma_fit.spec.components
        for gate in comp.basis.gate_levels()
    }
    if gates:
        gate_col = sorted(gates)[0][0]
        levels = np.asarray(cols[gate_col]).astype(str)
    else:
        levels = np.full(fitted.size, "all")
    return zip(levels, fitted, resid)


def cmd_fit(args) -> int:
    config = load_config(args.config)
    schema = config.schema if args.standardize else replace(config.schema, standardize=())
    data = ingest(args.data, schema)
    engine, m_draws = _parse_engine(args.engine, config)
    controls = config.controls
    if args.tol is not None:
        check_control("--tol", args.tol)
        controls = replace(controls, tol_phi=args.tol)
    if args.max_iter is not None:
        check_control("--max-iter", args.max_iter)
        controls = replace(controls, max_em_iter=args.max_iter)

    # structural verdicts are reported only: no structure-only verdict is
    # provably unidentifiable, so the gate is the fitted-values verdict below
    pre_verdicts = [
        _candidate_verdict(cand, config, structure_only=True)
        for cand in config.candidates
    ]
    for idx, verdict in enumerate(pre_verdicts):
        print(f"identifiability (structure, candidate {idx}): "
              f"{verdict.status.value} [{verdict.rule.value}] {verdict.certificate}")

    rng = np.random.default_rng(config.seed)
    candidates = _respondent_candidates(config)
    chosen, gamma_fit = select_aic(
        data.y_observed,
        data.respondent_columns(),
        candidates,
        rng=rng,
        restarts=config.restarts,
    )
    chosen_idx = candidates.index(chosen)

    post_verdict = check_model(
        gamma_fit.spec,
        config.h_basis,
        config.schema.kinds,
        sign_beta_known=config.sign_beta_known,
        values_known=True,
    )
    print(f"identifiability (fitted values): {post_verdict.status.value} "
          f"[{post_verdict.rule.value}] {post_verdict.certificate}")
    if post_verdict.status is Status.PROVABLY_UNIDENTIFIABLE and not args.force:
        print("refusing to fit: pass --force to override")
        return EXIT_UNIDENTIFIABLE
    if post_verdict.status is Status.NOT_PROVABLE and not args.force:
        print("identifiability is not provable; pass --force to proceed")
        return EXIT_NOT_PROVABLE

    fit = em_fit(
        data,
        gamma_fit,
        config.h_basis,
        controls=controls,
        engine=engine,
        m_draws=m_draws,
        rng=rng,
    )
    mu_hat = estimate_mu_y(fit, data)
    if engine == "donor":
        sigma, parts = variance_estimate(fit, gamma_fit, data)
        ses = np.sqrt(np.diag(sigma))
        mu_var = mu_y_variance(fit, gamma_fit, data, parts)
    else:
        ses, mu_var = None, None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_fit_reports(
        out, data, chosen_idx, gamma_fit, fit, mu_hat, ses, mu_var,
        pre_verdicts, post_verdict, engine,
    )
    print(f"wrote report files to {out}")
    return EXIT_OK


def _parameter_names(fit) -> list[str]:
    names = [f"alpha[{t.render()}]" for t in fit.phi_hat.h_basis.terms]
    names.append("beta")
    return names


def _write_fit_reports(
    out, data, chosen_idx, gamma_fit, fit, mu_hat, ses, mu_var,
    pre_verdicts, post_verdict, engine,
):
    names = _parameter_names(fit)
    estimates = list(fit.phi)
    rows = []
    for j, (name, est) in enumerate(zip(names, estimates)):
        if ses is None:
            rows.append((name, est, float("nan"), float("nan")))
        else:
            lo, hi = wald_interval(est, float(ses[j] ** 2))
            rows.append((name, est, lo, hi))
    if mu_var is None:
        rows.append(("E[Y]", mu_hat, float("nan"), float("nan")))
    else:
        lo, hi = wald_interval(mu_hat, mu_var)
        rows.append(("E[Y]", mu_hat, lo, hi))

    with open(out / "fit_estimates.tsv", "w") as fh:
        fh.write("parameter\testimate\tlower\tupper\n")
        for name, est, lo, hi in rows:
            fh.write(f"{name}\t{_fmt(est)}\t{_fmt(lo)}\t{_fmt(hi)}\n")

    with open(out / "fit_report.txt", "w") as fh:
        fh.write(f"fractional-imputation fit ({engine} engine)\n")
        fh.write(f"rows: {data.n} (respondents {data.n_respondents}, "
                 f"missing {data.n_missing})\n")
        for idx, v in enumerate(pre_verdicts):
            fh.write(f"identifiability (structure, candidate {idx}): "
                     f"{v.status.value} [{v.rule.value}]\n")
        fh.write(f"identifiability (fitted values): {post_verdict.status.value} "
                 f"[{post_verdict.rule.value}] {post_verdict.certificate}\n")
        for note in post_verdict.notes:
            fh.write(f"  note: {note}\n")
        fh.write(f"selected outcome candidate: {chosen_idx} "
                 f"(family {gamma_fit.spec.family.value}, K={gamma_fit.spec.k}, "
                 f"AIC {_fmt(gamma_fit.aic)})\n")
        fh.write(f"em iterations: {fit.em_iterations}, "
                 f"mean score norm: {_fmt(fit.mean_score_norm)}\n")
        if data.transforms:
            for name, (mean_, sd) in sorted(data.transforms.items()):
                fh.write(f"standardized {name}: mean {_fmt(mean_)}, sd {_fmt(sd)}\n")
        fh.write("\n")
        header = f"{'parameter':<22}{'estimate':>14}{'lower':>14}{'upper':>14}\n"
        fh.write(header)
        for name, est, lo, hi in rows:
            fh.write(f"{name:<22}{est:>14.6f}{lo:>14.6f}{hi:>14.6f}\n")

    with open(out / "residuals.tsv", "w") as fh:
        fh.write("level\tfitted_mean\tresidual\n")
        for level, fitted, resid in _residual_rows(gamma_fit, data):
            fh.write(f"{level}\t{_fmt(fitted)}\t{_fmt(resid)}\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _workers(args) -> int:
    """``--workers``, else ``FIMNAR_THREADS``, else 1; read by ``simulate`` only."""
    source = WORKERS_ENV if args.workers is None else "--workers"
    raw = os.environ.get(WORKERS_ENV, "1") if args.workers is None else args.workers
    try:
        workers = int(raw)
    except ValueError:
        raise _UsageError(f"{source} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise _UsageError(f"{source} must be at least 1, got {workers}")
    return workers


def cmd_simulate(args) -> int:
    if args.b < 1:
        raise _UsageError(f"--b must be at least 1, got {args.b}")
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    estimators = tuple(s.strip().upper() for s in args.estimators.split(",") if s.strip())
    if not estimators or not set(estimators) <= {"CC", "FI"}:
        raise _UsageError(f"--estimators takes CC and FI, got {args.estimators!r}")
    workers = _workers(args)
    scenario = built_in_scenario(args.scenario, n=args.n, kappa2=args.kappa2)
    try:
        scenario.validate()
    except ValueError as err:
        raise _UsageError(f"--kappa2 {args.kappa2:g}: {err}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        summary = run_mc(
            scenario, b=args.b, seed=args.seed, estimators=estimators, workers=workers,
        )
    except McRunError as err:
        if err.summary is not None:
            _write_sim_reports(out, err.summary)
        print(f"simulation failed: {err}")
        return EXIT_NUMERICAL
    _write_sim_reports(out, summary)
    print(f"wrote simulation results to {out}")
    return EXIT_OK


def _write_sim_reports(out: Path, summary: McSummary) -> None:
    with open(out / "results.tsv", "w") as fh:
        fh.write(
            "scenario\tkappa2\tparameter\tmethod\tbias\trmse\tcoverage_pct\t"
            "replicates\tfailures\tmean_response_rate\ttruth\n"
        )
        for r in summary.rows:
            knob = "" if r.knob is None else _fmt(r.knob)
            fh.write(
                f"{r.scenario}\t{knob}\t{r.parameter}\t{r.method}\t"
                f"{_fmt(r.bias)}\t{_fmt(r.rmse)}\t{_fmt(100.0 * r.coverage)}\t"
                f"{r.n_replicates}\t{r.failures}\t"
                f"{_fmt(r.mean_response_rate)}\t{_fmt(r.truth)}\n"
            )
    with open(out / "results.txt", "w") as fh:
        fh.write(
            f"{'scenario':<10}{'parameter':<11}{'kappa2':<8}{'method':<8}"
            f"{'bias':>9}{'rmse':>9}{'cr_pct':>8}\n"
        )
        for r in summary.rows:
            knob = "-" if r.knob is None else f"{r.knob:g}"
            fh.write(
                f"{r.scenario:<10}{r.parameter:<11}{knob:<8}{r.method:<8}"
                f"{r.bias:>9.3f}{r.rmse:>9.3f}{100.0 * r.coverage:>8.1f}\n"
            )
    with open(out / "replicates.tsv", "w") as fh:
        fh.write(
            "replicate\tresponse_rate\tcc_mu\tcc_lo\tcc_hi\tfi_mu\tfi_mu_lo\t"
            "fi_mu_hi\tfi_beta\tfi_beta_lo\tfi_beta_hi\tem_iterations\terror\n"
        )
        for rec in summary.replicates:
            fi_mu = rec.fi_mu or (float("nan"),) * 3
            fi_beta = rec.fi_beta or (float("nan"),) * 3
            fields = (
                [str(rec.index), _fmt(rec.response_rate)]
                + [_fmt(v) for v in rec.cc_mu]
                + [_fmt(v) for v in fi_mu]
                + [_fmt(v) for v in fi_beta]
                + [str(rec.em_iterations), rec.error or ""]
            )
            fh.write("\t".join(fields) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "identify":
            return cmd_identify(args)
        if args.command == "fit":
            return cmd_fit(args)
        return cmd_simulate(args)
    except (_UsageError, ConfigError, IngestError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (FitError, SupportError, TiltDomainError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
