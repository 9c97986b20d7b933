import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmse_lab import (
    FiniteJoint,
    InsufficientSamples,
    InvalidDistribution,
    NonPositiveStep,
    discretize,
    floor_quantize,
    joint_from_atoms,
    moments_empirical,
    moments_exact,
    product_joint,
    quantize_joint,
    rng_stream,
    sample_pairs,
    sampler_from_joint,
)
from mmse_lab.probcore import MomentSummary


def rademacher_sum_joint() -> FiniteJoint:
    """X Rademacher, N Rademacher independent, Y = X + N."""
    return FiniteJoint(
        x_support=np.array([[-1.0], [1.0]]),
        y_support=np.array([[-2.0], [0.0], [2.0]]),
        pmf=np.array([[0.25, 0.25, 0.0],
                      [0.0, 0.25, 0.25]]),
    )


def diagonal_pm1_joint() -> FiniteJoint:
    return FiniteJoint(
        x_support=np.array([[-1.0], [1.0]]),
        y_support=np.array([[-1.0], [1.0]]),
        pmf=np.array([[0.5, 0.0], [0.0, 0.5]]),
    )


# --------------------------------------------------------------------------
# FiniteJoint validation
# --------------------------------------------------------------------------

def test_joint_rejects_negative_mass():
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[0.0], [1.0]]),
                    y_support=np.array([[0.0]]),
                    pmf=np.array([[1.5], [-0.5]]))


def test_joint_rejects_unnormalized_mass():
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[0.0], [1.0]]),
                    y_support=np.array([[0.0]]),
                    pmf=np.array([[0.5], [0.4]]))


def test_joint_rejects_duplicate_support_rows():
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[1.0], [1.0]]),
                    y_support=np.array([[0.0]]),
                    pmf=np.array([[0.5], [0.5]]))
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[0.0]]),
                    y_support=np.array([[2.0], [2.0]]),
                    pmf=np.array([[0.5, 0.5]]))
    # 0.0 == -0.0, so these rows name the same atom
    with pytest.raises(InvalidDistribution, match="pairwise distinct"):
        FiniteJoint(x_support=np.array([[0.0], [-0.0]]),
                    y_support=np.array([[1.0]]),
                    pmf=np.array([[0.5], [0.5]]))
    with pytest.raises(InvalidDistribution, match="pairwise distinct"):
        FiniteJoint(x_support=np.array([[1.0, 0.0], [2.0, 0.0], [1.0, -0.0]]),
                    y_support=np.array([[1.0]]),
                    pmf=np.array([[0.25], [0.25], [0.5]]))
    with pytest.raises(InvalidDistribution, match="pairwise distinct"):
        FiniteJoint(x_support=np.array([[0.0]]),
                    y_support=np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]]),
                    pmf=np.array([[0.25, 0.25, 0.5]]))
    # rows that share one coordinate are distinct atoms
    j = FiniteJoint(x_support=np.array([[0.0]]),
                    y_support=np.array([[1.0, 2.0], [2.0, 2.0], [1.0, 1.0]]),
                    pmf=np.array([[0.25, 0.25, 0.5]]))
    assert j.y_support.shape == (3, 2)


def test_joint_rejects_shape_mismatch():
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[0.0], [1.0]]),
                    y_support=np.array([[0.0], [1.0]]),
                    pmf=np.array([[0.5, 0.5]]))


def test_joint_normalization_tolerance_is_tight():
    # 1e-12 is the documented budget: drift just inside passes, just
    # outside does not.
    good = np.array([[0.5, 0.5 + 4e-13]])
    FiniteJoint(x_support=np.array([[0.0]]),
                y_support=np.array([[0.0], [1.0]]), pmf=good)
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[0.0]]),
                    y_support=np.array([[0.0], [1.0]]),
                    pmf=np.array([[0.5, 0.5 + 5e-12]]))


def test_joint_marginals():
    j = rademacher_sum_joint()
    np.testing.assert_allclose(j.x_marginal(), [0.5, 0.5])
    np.testing.assert_allclose(j.y_marginal(), [0.25, 0.5, 0.25])


def test_joint_arrays_are_read_only():
    j = diagonal_pm1_joint()
    with pytest.raises(ValueError):
        j.pmf[0, 0] = 0.9


# --------------------------------------------------------------------------
# moments_exact
# --------------------------------------------------------------------------

def test_moments_exact_diagonal_two_point():
    ms = moments_exact(diagonal_pm1_joint())
    assert ms.eta_x == pytest.approx(np.zeros(1), abs=1e-15)
    assert ms.c_x[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert ms.c_xy[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_moments_exact_rademacher_sum():
    # Var(Y) = Var(X) + Var(N) for the independent sum.
    ms = moments_exact(rademacher_sum_joint())
    assert ms.c_x[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert ms.c_y[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert ms.c_xy[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_moments_exact_point_mass():
    j = FiniteJoint(x_support=np.array([[3.0, -1.0]]),
                    y_support=np.array([[7.0]]),
                    pmf=np.array([[1.0]]))
    ms = moments_exact(j)
    np.testing.assert_allclose(ms.eta_x, [3.0, -1.0])
    np.testing.assert_allclose(ms.c_x, np.zeros((2, 2)), atol=1e-15)
    assert ms.second_moment_x == pytest.approx(10.0, abs=1e-12)


def test_independent_product_has_zero_cross_covariance():
    j = product_joint(np.array([[-1.0], [2.0]]), np.array([0.25, 0.75]),
                      np.array([[0.0], [1.0], [5.0]]),
                      np.array([0.5, 0.25, 0.25]))
    ms = moments_exact(j)
    np.testing.assert_allclose(ms.c_xy, np.zeros((1, 1)), atol=1e-10)


# --------------------------------------------------------------------------
# moments_empirical
# --------------------------------------------------------------------------

def test_empirical_two_symmetric_points():
    pts = np.array([[1.0], [-1.0]])
    ms = moments_empirical((pts, pts.copy()))
    assert ms.eta_x == pytest.approx(np.zeros(1), abs=1e-15)
    assert ms.c_x[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert ms.c_xy[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_empirical_requires_two_samples():
    with pytest.raises(InsufficientSamples):
        moments_empirical((np.array([[1.0]]), np.array([[1.0]])))


def test_empirical_constant_samples_zero_covariance():
    ms = moments_empirical((np.full((5, 1), 2.0), np.full((5, 1), -3.0)))
    np.testing.assert_allclose(ms.c_x, 0.0, atol=1e-15)
    np.testing.assert_allclose(ms.c_y, 0.0, atol=1e-15)
    np.testing.assert_allclose(ms.c_xy, 0.0, atol=1e-15)


def test_empirical_uses_population_denominator():
    # {0, 1, 2}: population variance 2/3, not the n-1 value 1.
    xs = np.array([[0.0], [1.0], [2.0]])
    ms = moments_empirical((xs, xs.copy()))
    assert ms.c_x[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_empirical_measurement_second_moment_additive_noise():
    # Y = X + N/2 with unit-variance uniform parts: Var(Y) = 1 + 1/4.
    from mmse_lab.scenarios import builtin_scenarios

    sampler = builtin_scenarios()["example4"].mc_sampler(2)
    xs, ys = sample_pairs(sampler, 1_000_000, rng_stream(123, "emp-cy"))
    ms = moments_empirical((xs, ys))
    y2 = (ys[:, 0] - ys[:, 0].mean()) ** 2
    se = y2.std() / math.sqrt(len(y2))
    assert abs(ms.c_y[0, 0] - 1.25) <= 3.0 * se


def test_empirical_approaches_exact_on_rademacher_sum():
    j = rademacher_sum_joint()
    exact = moments_exact(j)
    sampler = sampler_from_joint(j)
    for n in (10**3, 10**4, 10**5):
        xs, ys = sample_pairs(sampler, n, rng_stream(7, "emp-cvg", n))
        emp = moments_empirical((xs, ys))
        worst = max(
            np.max(np.abs(emp.eta_x - exact.eta_x)),
            np.max(np.abs(emp.c_x - exact.c_x)),
            np.max(np.abs(emp.c_y - exact.c_y)),
            np.max(np.abs(emp.c_xy - exact.c_xy)),
        )
        assert worst < 4.0 / math.sqrt(n)


# --------------------------------------------------------------------------
# floor_quantize
# --------------------------------------------------------------------------

def test_floor_quantize_reference_points():
    assert floor_quantize(np.array([2.7]), 1.0)[0] == 2.0
    assert floor_quantize(np.array([-0.3]), 0.25)[0] == -0.5
    assert floor_quantize(np.array([1.0]), 0.25)[0] == 1.0


def test_floor_quantize_rejects_bad_step():
    with pytest.raises(NonPositiveStep):
        floor_quantize(np.array([1.0]), 0.0)
    with pytest.raises(NonPositiveStep):
        floor_quantize(np.array([1.0]), -0.1)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False),
    a=st.sampled_from([0.07, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.5, 64.0]),
)
def test_floor_quantize_idempotent_and_in_cell(x, a):
    arr = np.array([x])
    q = floor_quantize(arr, a)
    q2 = floor_quantize(q, a)
    assert q2[0] == q[0]
    # output - input in (-a, 0] up to the ulp-snap allowance
    snap = 4.0 * np.finfo(float).eps * max(1.0, abs(x))
    assert q[0] - x <= snap
    assert q[0] - x > -a - snap


# --------------------------------------------------------------------------
# rng_stream / samplers / discretize
# --------------------------------------------------------------------------

def test_rng_stream_reproducible_and_tag_separated():
    a = rng_stream(5, "alpha").random(4)
    b = rng_stream(5, "alpha").random(4)
    c = rng_stream(5, "beta").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_from_joint_matches_pmf():
    j = rademacher_sum_joint()
    xs, ys = sample_pairs(sampler_from_joint(j), 40_000, rng_stream(3, "freq"))
    freq = np.mean((xs[:, 0] == 1.0) & (ys[:, 0] == 2.0))
    assert freq == pytest.approx(0.25, abs=4.0 / math.sqrt(40_000))


def test_discretize_point_mass():
    def point(rng, size):
        return np.full((size, 1), 0.5), np.full((size, 1), 1.5)

    j = discretize(point, 0.25, 100, seed=0)
    assert j.pmf.shape == (1, 1)
    assert j.pmf[0, 0] == 1.0
    assert j.x_support[0, 0] == 0.5
    assert j.y_support[0, 0] == 1.5


# E[(floor(U / h) * h)^2] for U ~ uniform[0,1), h = 1/64: the lattice values
# are j/64 with equal weight, so the exact mean is (1/64^3) * sum j^2
# = (63*64*127/6) / 64^3.  The continuous value 1/3 differs from this by
# ~7.8e-3, which is *not* inside three standard errors at 1e5 samples —
# the discretization bias is the point of quantifying it here.
LATTICE_SECOND_MOMENT_64 = (63 * 64 * 127 // 6) / 64**3


def test_discretize_uniform_second_moment():
    def uniform_twice(rng, size):
        u = rng.random(size)
        return u[:, None], u[:, None].copy()

    j = discretize(uniform_twice, 1.0 / 64.0, 100_000, seed=11)
    ms = moments_exact(j)
    # binomial fluctuation of the empirical second moment
    se = math.sqrt(4.0 / 45.0 / 100_000)
    assert abs(ms.second_moment_x - LATTICE_SECOND_MOMENT_64) <= 3.0 * se
    # against the continuous moment the quantization bias (~ step) dominates
    assert abs(ms.second_moment_x - 1.0 / 3.0) <= 1.0 / 64.0 + 3.0 * se


def test_discretize_deterministic():
    def pair(rng, size):
        u = rng.random((size, 2))
        return u[:, :1], u[:, 1:]

    j1 = discretize(pair, 0.125, 500, seed=21)
    j2 = discretize(pair, 0.125, 500, seed=21)
    np.testing.assert_array_equal(j1.pmf, j2.pmf)
    np.testing.assert_array_equal(j1.x_support, j2.x_support)
    np.testing.assert_array_equal(j1.y_support, j2.y_support)


def test_quantize_joint_merges_cells():
    j = joint_from_atoms([
        ((0.1,), (0.1,), 0.25),
        ((0.2,), (0.9,), 0.25),
        ((0.6,), (1.1,), 0.5),
    ])
    q = quantize_joint(j, 0.5, 1.0)
    # x cells: 0.0 <- {0.1, 0.2}, 0.5 <- {0.6}; y cells: 0.0 <- {0.1, 0.9}, 1.0 <- {1.1}
    np.testing.assert_allclose(q.x_support, [[0.0], [0.5]])
    np.testing.assert_allclose(q.y_support, [[0.0], [1.0]])
    np.testing.assert_allclose(q.pmf, [[0.5, 0.0], [0.0, 0.5]])


# --------------------------------------------------------------------------
# MomentSummary validation
# --------------------------------------------------------------------------

def test_moment_summary_rejects_asymmetric_covariance():
    with pytest.raises(InvalidDistribution):
        MomentSummary(eta_x=np.zeros(2), eta_y=np.zeros(1),
                      c_x=np.array([[1.0, 0.5], [-0.5, 1.0]]),
                      c_y=np.eye(1), c_xy=np.zeros((2, 1)),
                      second_moment_x=2.0, second_moment_y=1.0)


def test_moment_summary_rejects_trace_mismatch():
    with pytest.raises(InvalidDistribution):
        MomentSummary(eta_x=np.zeros(1), eta_y=np.zeros(1),
                      c_x=np.eye(1), c_y=np.eye(1), c_xy=np.zeros((1, 1)),
                      second_moment_x=5.0, second_moment_y=1.0)


def test_moment_summary_rejects_indefinite_covariance():
    with pytest.raises(InvalidDistribution):
        MomentSummary(eta_x=np.zeros(2), eta_y=np.zeros(1),
                      c_x=np.array([[1.0, 2.0], [2.0, 1.0]]),
                      c_y=np.eye(1), c_xy=np.zeros((2, 1)),
                      second_moment_x=2.0, second_moment_y=1.0)
