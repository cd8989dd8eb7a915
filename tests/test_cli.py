import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fimnar.cli as cli
from fimnar.cli import main
from fimnar.config import ConfigError, load_config, parse_config

REPO = Path(__file__).resolve().parents[1]
GATED_DATA = REPO / "data" / "election_like.csv"
GATED_CONFIG = REPO / "data" / "election_like.json"


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
    assert config.y == "y"
    assert config.candidates[0].k == 1
    assert config.candidates[0].has_values()
    assert config.h_basis().render() == "1 + x"


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
    payload["outcome"]["candidates"] = [
        {
            "components": [
                {"mean": "x^2", "coef": [1.0], "dispersion": 1.0},
                {"mean": "x^2", "coef": [-1.0], "dispersion": 1.0},
            ],
            "weights": [0.5, 0.5],
        }
    ]
    path = write_config(tmp_path, payload)
    assert main(["identify", "--config", str(path)]) == 3


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
    rc2 = main([
        "fit", "--data", str(data_path), "--config", str(cfg),
        "--out", str(out), "--force",
    ])
    assert rc2 == 0


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
