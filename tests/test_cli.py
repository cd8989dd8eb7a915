import json
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fimnar.cli as cli
import fimnar.config
from fimnar.cli import main
from fimnar.config import ConfigError, load_config, parse_config
from fimnar.fiem import FiControls
from fimnar.respondent import RespondentFit

REPO = Path(__file__).resolve().parents[1]
GATED_DATA = REPO / "data" / "election_like.csv"
GATED_CONFIG = REPO / "data" / "election_like.json"
# two components with mirror-image means and equal sigma^2/2 + log pi (Example 5)
MIRROR_MIXTURE = {
    "components": [
        {"mean": "x^2", "coef": [1.0], "dispersion": 1.0},
        {"mean": "x^2", "coef": [-1.0], "dispersion": 1.0},
    ],
    "weights": [0.5, 0.5],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def base_config(**overrides):
    payload = {
        "covariates": {"x": "continuous"},
        "y": "y",
        "response": {"h": "1 + x"},
        "outcome": {
            "family": "normal",
            "candidates": [
                {"components": [{"mean": "1 + x + x^2", "coef": [0.0, 0.4, 1.0], "dispersion": 0.5}]}
            ],
        },
        "seed": 3,
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, base_config())
    config = load_config(path)
    assert config.schema.y == "y"
    assert config.candidates[0].spec.k == 1
    assert config.candidates[0].has_values
    assert config.h_basis.render() == "1 + x"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("response"),
        lambda c: c["outcome"].pop("family"),
        lambda c: c["outcome"]["candidates"][0]["components"].__setitem__(
            0, {"mean": "1 + q"}
        ),
        lambda c: c.__setitem__("covariates", {"z": {"kind": "categorical"}}),
        lambda c: c.__setitem__("controls", {"engine": "quantum"}),
    ],
)
def test_config_errors(tmp_path, mutate):
    payload = base_config()
    mutate(payload)
    with pytest.raises(ConfigError):
        parse_config(payload)


@pytest.mark.parametrize("m_draws", [0, -3])
def test_config_rejects_m_draws_below_one(m_draws):
    payload = base_config(controls={"engine": "parametric", "m_draws": m_draws})
    with pytest.raises(ConfigError, match="m_draws"):
        parse_config(payload)


def test_each_fi_control_is_set_by_its_config_key():
    # a stopping rule no config key sets would be an option with no caller
    keys = {"tol_phi": ("tol", 1e-5), "tol_score": ("score_tol", 1e-6), "max_em_iter": ("max_iter", 77)}
    assert set(keys) == {f.name for f in fields(FiControls)}
    for name, (key, value) in keys.items():
        controls = parse_config(base_config(controls={key: value})).controls
        assert getattr(controls, name) == value != getattr(FiControls(), name)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("tol", -1.0, "controls.tol must be positive and finite, got -1.0"),
        ("tol", 0, "controls.tol must be positive and finite, got 0.0"),
        ("score_tol", "nan", "controls.score_tol must be positive and finite, got nan"),
        ("score_tol", "inf", "controls.score_tol must be positive and finite, got inf"),
        ("max_iter", 0, "controls.max_iter must be at least 1, got 0"),
        ("max_iter", -3, "controls.max_iter must be at least 1, got -3"),
    ],
)
def test_controls_that_can_never_converge_are_config_errors(tmp_path, capsys, key, value, message):
    # a negative tolerance or no iteration at all ran every EM iteration
    # and then reported a numerical failure (exit 4)
    path = write_config(tmp_path, base_config(controls={key: value}))
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(GATED_DATA), "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "controls, key, value, message",
    [
        (False, "seed", -1, "seed must be at least 0, got -1"),
        (False, "seed", 1.5, "seed must be a whole number, got 1.5"),
        (False, "seed", "3", "seed must be a whole number, got '3'"),
        (True, "m_draws", 2.7, "controls.m_draws must be a whole number, got 2.7"),
        (True, "max_iter", 2.5, "controls.max_iter must be a whole number, got 2.5"),
        (True, "restarts", 0, "controls.restarts must be at least 1, got 0"),
        (True, "restarts", -3, "controls.restarts must be at least 1, got -3"),
        (True, "restarts", True, "controls.restarts must be a whole number, got True"),
    ],
)
def test_integer_config_keys_must_be_whole_numbers_in_range(
    tmp_path, capsys, controls, key, value, message
):
    # a negative seed died in a ValueError traceback, int() truncated 1.5,
    # 2.7 and 2.5 (max_iter 2.5 then ran out of iterations, exit 4), and
    # restarts below 1 ran one start
    payload = base_config(controls={key: value}) if controls else base_config(**{key: value})
    path = write_config(tmp_path, payload)
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(GATED_DATA), "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_integer_config_keys_take_whole_floats():
    config = parse_config(base_config(seed=4.0, controls={"restarts": 2.0, "max_iter": 30.0}))
    assert (config.seed, config.restarts, config.controls.max_em_iter) == (4, 2, 30)
    assert all(type(v) is int for v in (config.seed, config.restarts, config.controls.max_em_iter))


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "-1", "--tol must be positive and finite, got -1.0"),
        ("--tol", "0", "--tol must be positive and finite, got 0.0"),
        ("--tol", "nan", "--tol must be positive and finite, got nan"),
        ("--max-iter", "0", "--max-iter must be at least 1, got 0"),
        ("--max-iter", "-2", "--max-iter must be at least 1, got -2"),
    ],
)
def test_fit_flags_that_can_never_converge_are_usage_errors(tmp_path, capsys, flag, value, message):
    out = tmp_path / "fit"
    assert main([
        "fit", "--data", str(GATED_DATA), "--config", str(GATED_CONFIG), "--out", str(out),
        flag, value,
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_identify_rejects_standardizing_a_categorical_covariate(tmp_path, capsys):
    # the data layout is checked at load, so identify rejects it as fit does
    payload = base_config(standardize=["z"])
    payload["covariates"]["z"] = {"kind": "categorical", "levels": ["a", "b"]}
    path = write_config(tmp_path, payload)
    assert main(["identify", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: malformed configuration: only declared-continuous covariates "
        "can be standardized, not 'z'"
    ]


def test_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# identify subcommand
# ---------------------------------------------------------------------------


def test_identify_exit_zero_for_identifiable(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["identify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "provably-identifiable" in out and "Cor1" in out


def test_identify_exit_two_for_not_provable(tmp_path):
    payload = base_config()
    payload["outcome"]["candidates"] = [
        {"components": [{"mean": "1 + x", "coef": [0.0, 0.4], "dispersion": 0.5}]}
    ]
    path = write_config(tmp_path, payload)
    assert main(["identify", "--config", str(path)]) == 2


def test_identify_exit_three_for_unidentifiable(tmp_path):
    payload = base_config()
    payload["outcome"]["candidates"] = [MIRROR_MIXTURE]
    path = write_config(tmp_path, payload)
    assert main(["identify", "--config", str(path)]) == 3


def test_identify_rejects_a_zero_mixing_weight(tmp_path, capsys):
    # a usage error naming the candidate and the weight, not a traceback
    # from the log of the weight in the identifiability rules
    payload = base_config()
    payload["outcome"]["candidates"].append(
        {
            "components": [
                {"mean": "1 + x", "coef": [0.0, 0.4], "dispersion": 0.5},
                {"mean": "1 + x", "coef": [1.0, -0.4], "dispersion": 0.5},
            ],
            "weights": [0.0, 1.0],
        }
    )
    path = write_config(tmp_path, payload)
    assert main(["identify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "outcome candidate 1: mixing weight 0 is 0.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "candidate, reason",
    [
        ({"components": [{"mean": "1 + x", "coef": [0.0, 0.4], "dispersion": 0.5},
                         {"mean": "1 + x", "coef": [1.0, -0.4], "dispersion": 0.5}],
          "weights": [0.3, 0.3]},
         "mixing weights must sum to one"),
        ({"components": [{"mean": "1 + x", "coef": [0.0, 0.4], "dispersion": 0.5},
                         {"mean": "1 + x", "coef": [1.0, -0.4], "dispersion": 0.5}],
          "weights": [0.5, 0.25, 0.25]},
         "one mixing weight per component required"),
        ({"family": "bernoulli", "components": ["1 + x", "1 + x^2"]},
         "mixtures are supported for the normal family only"),
        ({"components": [{"mean": "1 + x + x^2", "coef": [0.0, 0.4], "dispersion": 0.5}]},
         "2 coefficients for 3 basis terms"),
        ({"components": [{"mean": "1 + x", "coef": [0.0, 0.4], "dispersion": -0.5}]},
         "normal components need nonnegative variance"),
        ({"components": [{"mean": "1 + x", "coef": 5, "dispersion": 0.5}]},
         "'int' object is not iterable"),
        ({"components": [{"coef": [0.0, 0.4], "dispersion": 0.5}]}, "'mean'"),
    ],
    ids=["weight-sum", "weight-count", "bernoulli-mixture", "short-coef", "negative-variance",
         "scalar-coef", "no-mean"],
)
@pytest.mark.parametrize("command", ["identify", "fit"])
def test_malformed_candidate_is_a_config_error(tmp_path, capsys, command, candidate, reason):
    # the candidate's spec is built at load, so both subcommands stop with
    # one error line naming the candidate instead of a traceback
    payload = base_config()
    payload["outcome"]["candidates"].append(candidate)
    cfg = write_config(tmp_path, payload)
    argv = [command, "--config", str(cfg)]
    if command == "fit":
        data_path = tmp_path / "d.csv"
        data_path.write_text("x,y\n0.1,0.2\n0.2,NA\n")
        argv += ["--data", str(data_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: malformed configuration: outcome candidate 1: {reason}"
    ]
    assert not (tmp_path / "out").exists()


def test_a_fit_parses_each_formula_once(tmp_path, monkeypatch):
    # the election config declares one response basis and one candidate
    # formula; the run reads the bases parsed at load
    calls, real_parse = [], fimnar.config.parse_formula

    def counting_parse(text, kinds):
        calls.append(text)
        return real_parse(text, kinds)

    monkeypatch.setattr(fimnar.config, "parse_formula", counting_parse)
    rc = main([
        "fit", "--data", str(GATED_DATA), "--config", str(GATED_CONFIG),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert len(calls) == 2


def test_identify_structure_only_flag(tmp_path):
    # with values the quadratic coefficient is zero, so the declared x^2
    # term is inert; structure-only mode trusts the declared shape
    payload = base_config()
    payload["outcome"]["candidates"] = [
        {"components": [{"mean": "1 + x + x^2", "coef": [0.0, 0.4, 0.0], "dispersion": 0.5}]}
    ]
    path = write_config(tmp_path, payload)
    assert main(["identify", "--config", str(path)]) == 2
    assert main(["identify", "--config", str(path), "--structure-only"]) == 0


def test_usage_error_exit_code(capsys):
    assert main(["identify"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["identify", "--config", "/nonexistent/cfg.json"]) == 1


# ---------------------------------------------------------------------------
# fit subcommand (gated bundled dataset end to end)
# ---------------------------------------------------------------------------


def test_fit_gated_dataset_end_to_end(tmp_path, capsys):
    out = tmp_path / "fitout"
    rc = main([
        "fit",
        "--data", str(GATED_DATA),
        "--config", str(GATED_CONFIG),
        "--out", str(out),
    ])
    assert rc == 0
    report = (out / "fit_report.txt").read_text()
    assert "provably-identifiable" in report
    lines = (out / "fit_estimates.tsv").read_text().splitlines()
    assert lines[0] == "parameter\testimate\tlower\tupper"
    names = [line.split("\t")[0] for line in lines[1:]]
    # 12 gated alphas + beta + the outcome mean
    assert len(names) == 14
    assert names[-2] == "beta" and names[-1] == "E[Y]"
    values = np.array(
        [[float(v) for v in line.split("\t")[1:]] for line in lines[1:]]
    )
    assert np.all(np.isfinite(values))
    assert np.all(values[:, 1] <= values[:, 0]) and np.all(values[:, 0] <= values[:, 2])
    # residual plot data covers all six levels
    res = (out / "residuals.tsv").read_text().splitlines()
    levels = {line.split("\t")[0] for line in res[1:]}
    assert levels == {"1", "2", "3", "4", "5", "6"}


@pytest.mark.parametrize(
    "raw, expected",
    [(None, ("donor", 500)), ("donor", ("donor", 500)),
     ("parametric", ("parametric", 500)), ("parametric:7", ("parametric", 7))],
)
def test_engine_option_forms(raw, expected):
    config = load_config(GATED_CONFIG)
    assert cli._parse_engine(raw, config) == expected


@pytest.mark.parametrize(
    "engine",
    ["parametric:abc", "parametric:0", "parametric:-2", "parametric:", "parametric:1.5",
     "parametricxyz:5", "donor:3", "quantum"],
)
def test_fit_rejects_malformed_engine(tmp_path, capsys, engine):
    rc = main([
        "fit", "--data", str(GATED_DATA), "--config", str(GATED_CONFIG),
        "--out", str(tmp_path / "out"), "--engine", engine,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(engine) in err


def test_fit_overrides_keep_the_config_controls(tmp_path, monkeypatch):
    payload = json.loads(GATED_CONFIG.read_text())
    payload["controls"]["score_tol"] = 1e-9
    cfg = write_config(tmp_path, payload)
    seen, real_em_fit = [], cli.em_fit

    def recording_em_fit(*args, **kwargs):
        seen.append(kwargs["controls"])
        return real_em_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "em_fit", recording_em_fit)
    rc = main([
        "fit", "--data", str(GATED_DATA), "--config", str(cfg),
        "--out", str(tmp_path / "out"), "--tol", "1e-7", "--max-iter", "321",
    ])
    assert rc == 0
    expected = replace(load_config(cfg).controls, tol_phi=1e-7, max_em_iter=321)
    assert seen == [expected]
    assert expected.tol_score == 1e-9


def test_fit_refuses_not_provable_without_force(tmp_path):
    # constant-only response basis: no sufficient condition applies, but
    # the model is still numerically fittable once forced
    rng = np.random.default_rng(0)
    n = 400
    x = rng.normal(size=n)
    p = 1 / (1 + np.exp(-(0.2 + 1.0 * x)))
    y = (rng.random(n) < p).astype(float)
    pi = 1 / (1 + np.exp(-(1.0 + 0.5 * y)))
    keep = rng.random(n) < pi
    rows = ["x,y"]
    rows += [
        f"{float(x[i])!r},{float(y[i])!r}" if keep[i] else f"{float(x[i])!r},NA"
        for i in range(n)
    ]
    data_path = tmp_path / "d.csv"
    data_path.write_text("\n".join(rows) + "\n")
    payload = base_config()
    payload["response"] = {"h": "1"}
    payload["outcome"] = {
        "family": "bernoulli",
        "candidates": [{"components": ["1 + x"]}],
    }
    payload["controls"] = {"max_iter": 3000}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(data_path), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc2 = main([
            "fit", "--data", str(data_path), "--config", str(cfg),
            "--out", str(out), "--force",
        ])
    assert rc2 == 0
    # the verdict was printed and gated on once; the forced fit is quiet
    assert [w for w in caught if issubclass(w.category, UserWarning)] == []


def test_fit_exit_three_for_unidentifiable(tmp_path, monkeypatch, capsys):
    # the mirror mixture's structure alone proves nothing, so the fit gates
    # on the respondents' fitted values; here the respondent fit returns the
    # declared mirror pattern, and the fit must stop there with exit 3 and
    # fit no response model
    payload = base_config()
    payload["outcome"]["candidates"] = [MIRROR_MIXTURE]
    cfg = write_config(tmp_path, payload)
    rows = ["x,y"] + [f"{0.1 * i},{0.2 * i}" for i in range(8)] + ["0.9,NA", "1.0,NA"]
    data_path = tmp_path / "d.csv"
    data_path.write_text("\n".join(rows) + "\n")
    config = load_config(cfg)
    mirror = RespondentFit(config.candidates[0].spec, 0.0, 1, True)

    def mirror_fit(y, columns, candidates, **kwargs):
        return candidates[0], mirror

    def no_fit(*args, **kwargs):
        raise AssertionError("em_fit called on a provably unidentifiable model")

    monkeypatch.setattr(cli, "select_aic", mirror_fit)
    monkeypatch.setattr(cli, "em_fit", no_fit)
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(data_path), "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    printed = capsys.readouterr().out
    assert "(fitted values): provably-unidentifiable [Example5]" in printed
    assert "refusing to fit" in printed
    assert not out.exists()


def test_fit_numerical_failure_exit_code(tmp_path):
    # a candidate with more parameters than respondents cannot be fitted
    rows = ["x,y"] + [f"{0.1 * i},{0.2 * i}" for i in range(3)] + ["0.9,NA"]
    data_path = tmp_path / "d.csv"
    data_path.write_text("\n".join(rows) + "\n")
    payload = base_config()
    payload["outcome"]["candidates"] = [
        {"components": [{"mean": "1 + x + x^2 + x^3", "coef": [0, 1, 1, 1], "dispersion": 1.0}]}
    ]
    cfg = write_config(tmp_path, payload)
    rc = main([
        "fit", "--data", str(data_path), "--config", str(cfg),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 4


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


def test_simulate_writes_deterministic_outputs(tmp_path):
    args = ["simulate", "--scenario", "s1", "--kappa2", "1.0",
            "--b", "3", "--n", "250", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("results.tsv", "replicates.tsv", "results.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "results.tsv").read_text().splitlines()[0]
    assert header.split("\t")[:7] == [
        "scenario", "kappa2", "parameter", "method", "bias", "rmse", "coverage_pct",
    ]


@pytest.mark.parametrize("b", ["0", "-2"])
def test_simulate_rejects_fewer_than_one_replicate(tmp_path, capsys, b):
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s1", "--b", b, "--seed", "5", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --b must be at least 1, got {b}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "0", "--n must be at least 1, got 0"),
        ("--n", "-5", "--n must be at least 1, got -5"),
        ("--estimators", "XX", "--estimators takes CC and FI, got 'XX'"),
        ("--estimators", "CC,FJ", "--estimators takes CC and FI, got 'CC,FJ'"),
        ("--seed", "-1", "--seed must be at least 0, got -1"),
    ],
)
def test_simulate_checks_its_arguments_first(tmp_path, capsys, flag, value, message):
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s1", "--b", "1", "--seed", "5", "--out", str(out),
        flag, value,
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_bad_thread_count_is_a_usage_error_of_simulate_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FIMNAR_THREADS", "two")
    assert main(["identify", "--config", str(GATED_CONFIG)]) == 0
    capsys.readouterr()
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s1", "--b", "1", "--seed", "5", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: FIMNAR_THREADS must be an integer, got 'two'"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (["--workers", "0"], None, "--workers must be at least 1, got 0"),
        (["--workers", "-4"], "3", "--workers must be at least 1, got -4"),
        ([], "0", "FIMNAR_THREADS must be at least 1, got 0"),
        ([], "-2", "FIMNAR_THREADS must be at least 1, got -2"),
    ],
)
def test_fewer_than_one_worker_is_a_usage_error(tmp_path, capsys, monkeypatch, flag, env, message):
    # it used to run silently in one process
    if env is None:
        monkeypatch.delenv("FIMNAR_THREADS", raising=False)
    else:
        monkeypatch.setenv("FIMNAR_THREADS", env)
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s1", "--b", "1", "--seed", "5", "--out", str(out), *flag,
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("kappa2", ["nan", "inf", "1e200"])
def test_simulate_refuses_a_kappa2_whose_odds_normalizer_diverges(tmp_path, capsys, kappa2):
    # it used to make --out and then fail with a traceback in run_mc
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s1", "--b", "1", "--seed", "5", "--out", str(out),
        "--kappa2", kappa2,
    ]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --kappa2 {float(kappa2):g}: scenario s1: odds normalizer diverges"]
    assert not out.exists()


def test_simulate_reports_a_zero_variance_respondents_model(tmp_path, capsys):
    # at n=3 a replicate's normal complete-case fit can interpolate its two
    # or three points; that replicate used to end the run in a traceback
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s1", "--n", "3", "--b", "2", "--seed", "1",
        "--out", str(out),
    ]) == 4
    captured = capsys.readouterr()
    assert captured.out.startswith("simulation failed: 2 of 2 replicates failed")
    assert "Traceback" not in captured.out + captured.err
    assert "zero variance" in (out / "replicates.tsv").read_text()


def test_simulate_replicate_log_has_one_row_per_replicate(tmp_path):
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "s2", "--b", "2", "--n", "300",
        "--seed", "5", "--out", str(out),
    ]) == 0
    lines = (out / "replicates.tsv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 replicates


def test_fit_standardize_records_transforms(tmp_path):
    rng = np.random.default_rng(2)
    n = 250
    age = rng.normal(40.0, 12.0, size=n)
    y = 0.05 * (age - 40.0) + rng.normal(scale=0.8, size=n)
    pi = 1 / (1 + np.exp(-(1.2 + 0.3 * y)))
    keep = rng.random(n) < pi
    rows = ["age,y"]
    rows += [
        f"{float(age[i])!r},{float(y[i])!r}" if keep[i] else f"{float(age[i])!r},NA"
        for i in range(n)
    ]
    data_path = tmp_path / "d.csv"
    data_path.write_text("\n".join(rows) + "\n")
    payload = {
        "covariates": {"age": "continuous"},
        "y": "y",
        "standardize": ["age"],
        "response": {"h": "1 + age"},
        "outcome": {
            "family": "normal",
            "candidates": [{"components": ["1 + age + age^2"]}],
        },
        "controls": {"max_iter": 3000},
        "seed": 1,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data_path), "--config", str(cfg),
        "--out", str(out), "--standardize", "--force",
    ])
    assert rc == 0
    report = (out / "fit_report.txt").read_text()
    assert "standardized age" in report
