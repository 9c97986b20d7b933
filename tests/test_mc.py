import numpy as np
import pytest

from mmse_lab import (
    InsufficientSamples,
    InvalidDistribution,
    RegressionConfig,
    mc_mmse,
    mc_mmse_vs_exact,
    sampler_from_joint,
)
from test_exact import bsc_joint
from test_probcore import rademacher_sum_joint


def uniform_pair_sampler(copy_y: bool = True):
    """X uniform[0,1); Y = X, or Y independent of X."""
    def draw(rng, size):
        x = rng.random(size)[:, None]
        y = x.copy() if copy_y else rng.random(size)[:, None]
        return x, y

    return draw


def test_perfect_measurement_estimate_is_bin_limited():
    est = mc_mmse(uniform_pair_sampler(), RegressionConfig(n_samples=100_000, seed=1))
    assert est.value <= 0.01


def test_sampled_rademacher_sum_recovers_half():
    sampler = sampler_from_joint(rademacher_sum_joint())
    est = mc_mmse(sampler, RegressionConfig(n_samples=100_000, seed=2))
    assert abs(est.value - 0.5) <= 3.0 * est.std_error + 0.01


def test_independent_pair_recovers_prior_variance():
    est = mc_mmse(uniform_pair_sampler(copy_y=False),
                  RegressionConfig(n_samples=100_000, seed=3))
    assert abs(est.value - 1.0 / 12.0) <= 3.0 * est.std_error + 0.01


def test_degenerate_measurement_range_flagged():
    def constant_measurement(rng, size):
        return rng.random((size, 1)), np.full((size, 1), 7.0)

    est = mc_mmse(constant_measurement, RegressionConfig(n_samples=2_000, seed=4))
    assert est.degenerate_range is True
    # falls back to the prior variance of X ~ U[0,1)
    assert est.value == pytest.approx(1.0 / 12.0, abs=0.01)


def test_no_retained_bin_raises():
    def too_few(rng, size):
        return rng.random((size, 1)), rng.random((size, 1))

    with pytest.raises(InsufficientSamples):
        mc_mmse(too_few, RegressionConfig(n_samples=4, seed=5))


def test_bin_count_below_one_rejected():
    with pytest.raises(InvalidDistribution, match="bins"):
        RegressionConfig(n_samples=100, seed=0, bins=0)


def test_vector_measurement_rejected():
    def planar_measurement(rng, size):
        return rng.random((size, 1)), rng.random((size, 2))

    with pytest.raises(InvalidDistribution, match="scalar measurement"):
        mc_mmse(planar_measurement, RegressionConfig(n_samples=100, seed=0))


def test_estimate_is_reproducible_bitwise():
    sampler = sampler_from_joint(bsc_joint(0.1))
    cfg = RegressionConfig(n_samples=50_000, seed=6)
    a = mc_mmse(sampler, cfg)
    b = mc_mmse(sampler, cfg)
    assert a.value == b.value
    assert a.std_error == b.std_error
    assert a.n_effective == b.n_effective


def test_value_never_negative_on_small_samples():
    sampler = uniform_pair_sampler()
    for seed in range(8):
        est = mc_mmse(sampler, RegressionConfig(n_samples=60, seed=seed))
        assert est.value >= 0.0


def test_sparse_bins_are_excluded():
    # exactly three samples land in a far-away bin: below MIN_BIN_COUNT,
    # so the bin is dropped and the retained count falls short
    def outliers(rng, size):
        x = rng.random(size)[:, None]
        y = x.copy()
        y[:min(3, size)] = 1e6
        return x, y

    est = mc_mmse(outliers, RegressionConfig(n_samples=20_000, seed=7))
    assert est.n_effective < 20_000


# --------------------------------------------------------------------------
# mc_mmse_vs_exact
# --------------------------------------------------------------------------

def test_vs_exact_rademacher_sum_z_in_band():
    est, exact, z = mc_mmse_vs_exact(
        rademacher_sum_joint(), RegressionConfig(n_samples=100_000, seed=8))
    assert exact == pytest.approx(0.5, abs=1e-12)
    assert abs(z) <= 4.0


def test_vs_exact_bsc_z_in_band():
    est, exact, z = mc_mmse_vs_exact(
        bsc_joint(0.1), RegressionConfig(n_samples=100_000, seed=9))
    assert exact == pytest.approx(0.36, abs=1e-12)
    assert abs(z) <= 4.0


def test_vs_exact_single_atom():
    from mmse_lab import FiniteJoint

    j = FiniteJoint(x_support=np.array([[2.0]]), y_support=np.array([[3.0]]),
                    pmf=np.array([[1.0]]))
    est, exact, z = mc_mmse_vs_exact(j, RegressionConfig(n_samples=1_000, seed=10))
    assert est.value == 0.0
    assert exact == 0.0


def test_error_shrinks_with_sample_size():
    # |mc - exact| nonincreasing over a decade ladder, one inversion allowed
    gaps = []
    for n in (10**3, 10**4, 10**5):
        est, exact, _ = mc_mmse_vs_exact(
            rademacher_sum_joint(), RegressionConfig(n_samples=n, seed=11))
        gaps.append(abs(est.value - exact))
    inversions = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
    assert inversions <= 1
