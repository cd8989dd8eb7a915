"""The coarse level of a large one-component donor fit: its Gauss rule, and
roots that are still the full grid's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimnar import fiem
from fimnar.fiem import COARSE_BINS, _coarse_kernel, _coarse_starts, _donor_kernel, _gauss_pairs, em_fit
from fimnar.sim import _fit_respondent, built_in_scenario, generate, scenario_s1

from oracles import one_level_root


@st.composite
def binned_values(draw):
    """Sorted distinct values, their log weights, and the first index of each bin."""
    y = np.unique(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60)))
    e = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=y.size, max_size=y.size)))
    cuts = draw(st.sets(st.integers(1, max(1, y.size - 1)), max_size=y.size))
    starts = np.array(sorted({0} | {c for c in cuts if c < y.size}))
    return y, e, starts


@settings(max_examples=300, deadline=None)
@given(binned_values())
def test_each_bin_rule_matches_moments_zero_to_three_inside_the_bin(case):
    y, e, starts = case
    nodes, log_w = _gauss_pairs(y, e, starts)
    ends = np.append(starts[1:], y.size)
    for b, (lo, hi) in enumerate(zip(starts, ends)):
        kept = np.isfinite(log_w[b])
        x, w = nodes[b][kept], np.exp(log_w[b][kept])
        assert kept.sum() == (1 if hi - lo == 1 else 2)
        assert np.all(w > 0)
        assert np.all((y[lo] <= x) & (x <= y[hi - 1]))
        v, yb = np.exp(e[lo:hi]), y[lo:hi]
        # relative to the largest the moment can be: nodes carry rounding
        # of the bin's magnitude, also where the mass sits at zero
        size = np.max(np.abs(yb))
        for p in range(4):
            scale = np.sum(v) * size**p
            assert abs(np.sum(w * x**p) - np.sum(v * yb**p)) <= 1e-12 * scale, p


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=3000))
def test_coarse_bins_cover_the_values_once(raw):
    y = np.unique(raw)
    starts = _coarse_starts(y)
    assert starts[0] == 0 and starts[-1] < y.size
    assert np.all(np.diff(starts) > 0)
    assert starts.size <= 2 * COARSE_BINS - 1


def s1_case(kappa2, n, seed):
    scn = scenario_s1(kappa2, n=n)
    rng = np.random.default_rng(seed)
    data = generate(scn, rng)
    return data, _fit_respondent(scn, data, rng, 4), scn.response.h_basis


@pytest.mark.parametrize("kappa2", [0.5, 1.0])
@pytest.mark.parametrize("seed", [81, 82])
def test_coarse_start_keeps_the_one_level_root(kappa2, seed):
    data, gf, h_basis = s1_case(kappa2, 6000, seed)
    kernel = _donor_kernel(gf.spec, data)[0]
    coarse = _coarse_kernel(kernel)
    assert coarse is not None and 4 * coarse.donor_y.size <= kernel.donor_y.size
    ref, ref_steps = one_level_root(data, gf.spec, h_basis)
    fit = em_fit(data, gf, h_basis)
    assert np.max(np.abs(fit.phi - ref)) <= 1e-9
    # the trace counts full-grid steps only: the coarse root leaves one
    assert fit.em_iterations == 1 < ref_steps


def test_unconverged_coarse_solve_leaves_the_ignorable_start(monkeypatch):
    # a coarse solve that cannot meet its step test leaves the full solve
    # exactly as the one-level path runs it
    data, gf, h_basis = s1_case(1.0, 6000, 81)
    monkeypatch.setattr(fiem, "COARSE_STEP", 0.0)
    ref, ref_steps = one_level_root(data, gf.spec, h_basis)
    fit = em_fit(data, gf, h_basis)
    np.testing.assert_array_equal(fit.phi, ref)
    assert fit.em_iterations == ref_steps


def test_small_grid_takes_the_one_level_path_bitwise():
    data, gf, h_basis = s1_case(1.0, 2000, 83)
    assert _coarse_kernel(_donor_kernel(gf.spec, data)[0]) is None
    ref, ref_steps = one_level_root(data, gf.spec, h_basis)
    fit = em_fit(data, gf, h_basis)
    np.testing.assert_array_equal(fit.phi, ref)
    assert fit.em_iterations == ref_steps


@pytest.mark.parametrize("name", ["s2", "s3"])
def test_binary_outcomes_mixtures_and_pools_have_no_coarse_level(name):
    scn = built_in_scenario(name, n=500)
    rng = np.random.default_rng(84)
    data = generate(scn, rng)
    gf = _fit_respondent(scn, data, rng, 4)
    assert _coarse_kernel(_donor_kernel(gf.spec, data)[0]) is None
    assert _coarse_kernel(fiem._LogWeights(None, 0.0, np.ones((3, 5)))) is None
