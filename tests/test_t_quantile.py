"""The complete-case interval's t quantile, ``sim._t975``, against a 50-digit mpmath root.

The oracle solves ``I_x(df/2, 1/2) = 0.05`` with ``x = df / (df + t^2)``
(the regularized incomplete beta, so ``P(T > t) = 0.025``) by
``mpmath.findroot`` at 50 digits.  It is not ``scipy.special.stdtrit``,
which is itself 3.8e-15 relative off the root at df = 6.
"""

import math

import pytest

from fimnar.sim import _t975

mpmath = pytest.importorskip("mpmath")

# the s1 replicate at n = 50000 has about 35000 respondents
SPARSE = (401, 499, 500, 750, 1000, 1001, 2048, 4150, 4199, 6000, 10000, 20000, 35000)


def mpmath_root(df: int) -> float:
    with mpmath.workdps(50):
        nu = mpmath.mpf(df)
        half = mpmath.mpf(1) / 2

        target = mpmath.mpf("0.05")

        def excess(t):
            return mpmath.betainc(nu / 2, half, 0, nu / (nu + t * t), regularized=True) - target

        # start off the tested value, so that the root is the solver's own
        start = mpmath.mpf(_t975(df)) * (1 + mpmath.mpf("1e-6"))
        return float(mpmath.findroot(excess, start))


@pytest.mark.parametrize("dfs", [range(1, 401), SPARSE], ids=["1-400", "sparse-to-35000"])
def test_t975_is_within_one_ulp_of_the_mpmath_root(dfs):
    for df in dfs:
        ref = mpmath_root(df)
        assert abs(_t975(df) - ref) <= math.ulp(ref), df


@pytest.mark.parametrize("df", [0, -1, -40])
def test_t975_is_nan_below_one_degree_of_freedom(df):
    assert math.isnan(_t975(df))
