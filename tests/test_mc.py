import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmse_lab import (
    FiniteJoint,
    InsufficientSamples,
    InvalidDistribution,
    RegressionConfig,
    builtin_scenarios,
    mc_mmse,
    mc_mmse_vs_exact,
)
from mmse_lab import mc
from mmse_lab.mc import MIN_BIN_COUNT, _binned_value
from mmse_lab.probcore import draw_atom_indices, rng_stream
from mc_reference import binned_value
from test_exact import bsc_joint
from test_probcore import rademacher_sum_joint


def sampler_from_joint(joint: FiniteJoint):
    """Categorical draw function over the atoms of an exact joint.

    It fills (n, k) and (n, m) arrays, k and m the dimensions of the joint.
    """
    def draw(rng, xs, ys):
        idx = draw_atom_indices(joint, xs.shape[0], rng)
        np.take(joint.x_support, joint.x_idx[idx], axis=0, out=xs)
        np.take(joint.y_support, joint.y_idx[idx], axis=0, out=ys)

    return draw


def test_sampler_from_joint_matches_pmf():
    xs, ys = np.empty((40_000, 1)), np.empty((40_000, 1))
    sampler_from_joint(rademacher_sum_joint())(rng_stream(3, "freq"), xs, ys)
    freq = np.mean((xs[:, 0] == 1.0) & (ys[:, 0] == 2.0))
    assert freq == pytest.approx(0.25, abs=4.0 / math.sqrt(40_000))


def uniform_pair_sampler(copy_y: bool = True):
    """X uniform[0,1); Y = X, or Y independent of X."""
    def draw(rng, xs, ys):
        rng.random(out=xs)
        if copy_y:
            ys[...] = xs
        else:
            rng.random(out=ys)

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
    def constant_measurement(rng, xs, ys):
        rng.random(out=xs)
        ys[...] = 7.0

    est = mc_mmse(constant_measurement, RegressionConfig(n_samples=2_000, seed=4))
    assert est.degenerate_range is True
    # falls back to the prior variance of X ~ U[0,1)
    assert est.value == pytest.approx(1.0 / 12.0, abs=0.01)


def test_no_retained_bin_raises():
    def too_few(rng, xs, ys):
        rng.random(out=xs)
        rng.random(out=ys)

    with pytest.raises(InsufficientSamples):
        mc_mmse(too_few, RegressionConfig(n_samples=4, seed=5))


def test_bin_count_below_one_rejected():
    with pytest.raises(InvalidDistribution, match="bins"):
        RegressionConfig(n_samples=100, seed=0, bins=0)


def test_vector_measurement_rejected():
    def planar_measurement(rng, xs, ys):
        rng.random(out=xs)
        rng.random(out=ys)

    with pytest.raises(InvalidDistribution, match="scalar measurement"):
        mc_mmse(planar_measurement, RegressionConfig(n_samples=100, seed=0),
                np.empty((100, 1)), np.empty((100, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_measurement_raises(bad):
    # one such sample among 10,000 would put every other sample in bin 0
    def draw(rng, xs, ys):
        rng.random(out=xs)
        ys[...] = xs
        ys[1234] = bad

    with pytest.raises(InvalidDistribution, match="not finite"):
        mc_mmse(draw, RegressionConfig(n_samples=10_000, seed=0))


@pytest.mark.parametrize("constant_y", [False, True],
                         ids=["binned", "degenerate_range"])
def test_non_finite_prior_sample_raises(constant_y):
    # a NaN of X reaches the bin means and the value, or with a constant
    # measurement the prior variance
    def draw(rng, xs, ys):
        rng.random(out=xs)
        ys[...] = 7.0 if constant_y else xs
        xs[1234] = np.nan

    with pytest.raises(InvalidDistribution, match="not finite"):
        mc_mmse(draw, RegressionConfig(n_samples=10_000, seed=0))


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
    # so the bin is dropped and the retained count falls short; every other
    # sample shares the first bin, so the estimate is their variance
    drawn = []

    def outliers(rng, xs, ys):
        rng.random(out=xs)
        ys[...] = xs
        ys[:3] = 1e6
        drawn.append(xs.copy())  # the estimator overwrites xs

    est = mc_mmse(outliers, RegressionConfig(n_samples=20_000, seed=7))
    assert est.n_effective == 20_000 - 3
    kept = drawn[0][3:, 0]
    assert est.value == pytest.approx(np.mean((kept - kept.mean()) ** 2),
                                      rel=1e-12)


def _estimate_or_error(reduce, xs, bin_idx, n_bins):
    try:
        est = reduce(xs, bin_idx, n_bins)
    except InsufficientSamples:
        return "InsufficientSamples"
    return est.value.hex(), est.std_error.hex(), est.n_effective


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from([1, 2, 3]),
       counts=st.lists(st.integers(0, 3 * MIN_BIN_COUNT), min_size=1,
                       max_size=12),
       all_retained=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 3e5]))
@example(k=1, counts=[MIN_BIN_COUNT - 1] * 3, all_retained=False, seed=0,
         scale=1.0)
@example(k=2, counts=[0, MIN_BIN_COUNT, 1], all_retained=False, seed=1,
         scale=1.0)
def test_binned_value_matches_the_allocating_reference(k, counts, all_retained,
                                                        seed, scale):
    # some bins hold fewer than MIN_BIN_COUNT samples unless every bin is
    # retained; samples come in shuffled bin order, as draws do
    if all_retained:
        counts = [c + MIN_BIN_COUNT for c in counts]
    rng = np.random.default_rng(seed)
    bin_idx = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    xs = rng.normal(size=(bin_idx.size, k)) * scale
    # _binned_value overwrites its xs; the reference reads the original
    got = _estimate_or_error(_binned_value, xs.copy(), bin_idx, len(counts))
    assert got == _estimate_or_error(binned_value, xs, bin_idx, len(counts))


def _sparse_tail(rng, xs, ys):
    rng.random(out=xs)
    ys[...] = xs
    ys[:3] = 1e6  # a bin under MIN_BIN_COUNT


def _constant_y(rng, xs, ys):
    rng.random(out=xs)
    ys[...] = 7.0


EXAMPLE2 = builtin_scenarios()["example2"]


@pytest.mark.parametrize("draw, bins, k", [
    (uniform_pair_sampler(), None, 1),
    (_sparse_tail, None, 1),
    (_constant_y, None, 2),
    (sampler_from_joint(bsc_joint(0.1)), None, 1),
    (EXAMPLE2.mc_sampler(64), EXAMPLE2.mc_bins(64), 1),
], ids=["identity", "sparse_bin", "constant_y", "bsc", "example2"])
def test_mc_mmse_ignores_what_its_buffers_held(draw, bins, k):
    # the estimate is the same in fresh buffers, in buffers full of NaN and
    # in buffers that an estimate at another index has just used
    size = 20_000
    config = RegressionConfig(n_samples=size, seed=12, bins=bins)
    want = mc_mmse(draw, config, np.zeros((size, k)), np.zeros((size, 1)))
    if k == 1:
        assert mc_mmse(draw, config) == want
    nan_buffers = np.full((size, k), np.nan), np.full((size, 1), np.nan)
    assert mc_mmse(draw, config, *nan_buffers) == want
    used = np.empty((size, k)), np.empty((size, 1))
    mc_mmse(draw, RegressionConfig(n_samples=size, seed=13, bins=bins), *used)
    assert mc_mmse(draw, config, *used) == want


def test_mc_mmse_refuses_buffers_of_another_size():
    with pytest.raises(InvalidDistribution, match="buffers"):
        mc_mmse(uniform_pair_sampler(), RegressionConfig(n_samples=100, seed=0),
                np.empty((99, 1)), np.empty((99, 1)))


@pytest.mark.parametrize("joint, dropped", [
    (bsc_joint(0.1), 0),
    # y = 1 has mass 1e-3: three of the 3000 samples, under MIN_BIN_COUNT
    (FiniteJoint(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]),
                 np.array([[0.5, 0.001], [0.499, 0.0]])), 3),
], ids=["bsc", "sparse_bin"])
def test_mc_mmse_vs_exact_reads_read_only_samples(monkeypatch, joint, dropped):
    # the reduction only reads the sampled bin index; the gathered X
    # samples are its own copy, which it overwrites with the residuals
    config = RegressionConfig(n_samples=3_000, seed=1)
    want = mc_mmse_vs_exact(joint, config)
    assert want[0].n_effective == config.n_samples - dropped

    def frozen(xs, bin_idx, n_bins):
        bin_idx.flags.writeable = False
        return _binned_value(xs, bin_idx, n_bins)

    monkeypatch.setattr(mc, "_binned_value", frozen)
    assert mc_mmse_vs_exact(joint, config) == want


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
