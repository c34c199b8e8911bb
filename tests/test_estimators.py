"""Parameter estimation: sample moments and assumption tables."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe import (
    DomainError,
    InsufficientDataError,
    ParameterTriple,
    RandomSource,
    ZSample,
    distributional_params,
    moments_estimate,
)


class TestZSample:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ZSample((1.0, float("nan")))
        with pytest.raises(DomainError):
            ZSample((float("inf"),))

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            ZSample((1.0,), alpha=0.0)
        with pytest.raises(DomainError):
            ZSample((1.0,), alpha=0.6)
        # alpha = 1/2 zeroes the critical value
        with pytest.raises(DomainError, match="alpha must lie in"):
            ZSample((1.0,), alpha=0.5)

    def test_k(self):
        assert ZSample((1.0, 2.0, 3.0)).k == 3


class TestParameterTriple:
    @pytest.mark.parametrize("field", ["mu", "sigma2", "lam"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_field(self, field, value):
        # inf was accepted in every field, nan in mu and sigma2
        fields = dict(mu=0.5, sigma2=1.0, lam=5.0) | {field: value}
        with pytest.raises(DomainError, match="not finite"):
            ParameterTriple(**fields)

    @pytest.mark.parametrize("fields", [(0.5, -1e-300, 5.0), (0.5, 1.0, 0.0)])
    def test_rejects_a_negative_variance_or_rate(self, fields):
        with pytest.raises(DomainError):
            ParameterTriple(*fields)


class TestMomentsEstimate:
    def test_simple_arithmetic(self):
        t = moments_estimate(ZSample((1.0, 2.0, 3.0)))
        assert t.mu == pytest.approx(2.0)
        assert t.sigma2 == pytest.approx(2.0 / 3.0)
        assert t.lam == 3.0

    def test_constant_sample_zero_variance(self):
        t = moments_estimate(ZSample((1.7,) * 8))
        assert t.sigma2 == 0.0

    def test_overflowing_variance_is_a_domain_error(self):
        # (v - mu) ** 2 passes the float range: the variance is inf, not an
        # OverflowError, and the triple rejects it
        with pytest.raises(DomainError, match="sigma2=inf"):
            moments_estimate(ZSample((1e200, -1e200, 1.0)))

    def test_needs_two_studies(self):
        with pytest.raises(InsufficientDataError):
            moments_estimate(ZSample((1.0,)))

    def test_half_normal_monte_carlo(self):
        g = RandomSource(2024, 11).generator()
        z = np.abs(g.standard_normal(10**5))
        t = moments_estimate(ZSample(tuple(z)))
        assert t.mu == pytest.approx(0.798, abs=0.005)
        assert t.sigma2 == pytest.approx(0.363, abs=0.005)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=40),
           st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_shift_moves_mean_only(self, zs, c):
        base = moments_estimate(ZSample(tuple(zs)))
        shifted = moments_estimate(ZSample(tuple(v + c for v in zs)))
        assert shifted.mu == pytest.approx(base.mu + c, abs=1e-9)
        assert shifted.sigma2 == pytest.approx(base.sigma2, abs=1e-9 * (1 + abs(c)))


class TestDistributionalParams:
    def test_half_normal_values(self):
        t = distributional_params("half-normal", 25)
        assert t.mu == pytest.approx(0.797885, abs=1e-6)
        assert t.sigma2 == pytest.approx(0.363380, abs=1e-6)
        assert t.lam == 25.0

    def test_std_normal_values(self):
        t = distributional_params("std-normal", 63)
        assert (t.mu, t.sigma2, t.lam) == (0.0, 1.0, 63.0)

    def test_skew_fixed_values(self):
        t = distributional_params("skew-normal(0.5)", 15)
        assert t.mu == pytest.approx(0.398942, abs=1e-6)
        assert t.sigma2 == pytest.approx(0.840845, abs=1e-6)
        assert t.lam == 15.0

    def test_pure_table(self):
        assert distributional_params("half-normal", 7) == \
            distributional_params("half-normal", 7)

    def test_validation(self):
        with pytest.raises(DomainError):
            distributional_params("gamma", 5)
        with pytest.raises(DomainError):
            distributional_params("skew-normal", 5)       # missing delta
        with pytest.raises(DomainError):
            distributional_params("skew-normal(1.0)", 5)
        with pytest.raises(DomainError):
            distributional_params("std-normal", 0)

