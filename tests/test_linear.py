import numpy as np
import pytest

from mmse_lab import (
    FiniteJoint,
    InvalidDistribution,
    SelfCheckError,
    lmmse,
    mmse_exact,
    moments_exact,
)
from mmse_lab.probcore import MomentSummary
from test_probcore import rademacher_sum_joint


def scalar_moments(c_x, c_y, c_xy, eta_x=0.0, eta_y=0.0) -> MomentSummary:
    return MomentSummary(
        eta_x=np.array([eta_x]), eta_y=np.array([eta_y]),
        c_x=np.array([[c_x]]), c_y=np.array([[c_y]]),
        c_xy=np.array([[c_xy]]),
        second_moment_x=c_x + eta_x**2,
        second_moment_y=c_y + eta_y**2,
    )


def mixture_value(n: int) -> float:
    return 1.0 - (1.0 - 1.0 / n) ** 2 / (2.0 - 1.0 / n)


def mixture_moments(n: int) -> MomentSummary:
    return scalar_moments(1.0, 2.0 - 1.0 / n, 1.0 - 1.0 / n)


def test_lmmse_overflowing_atoms_fail_loudly():
    # the moments of +-1e200 atoms overflow: they must be rejected rather
    # than reach lmmse, whose checks would read nan > tol as agreement
    j = FiniteJoint(x_support=np.array([[-1e200], [1e200]]),
                    y_support=np.array([[0.0], [1.0]]),
                    pmf=0.25 * np.ones((2, 2)))
    with np.errstate(over="ignore"), \
            pytest.raises(InvalidDistribution, match="non-finite"):
        lmmse(moments_exact(j))


def test_lmmse_overflowing_gain_fails_loudly():
    # finite moments whose gain C_XY / C_Y overflows: both forms turn
    # non-finite and must raise instead of comparing as equal
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SelfCheckError, match="non-finite"):
        lmmse(scalar_moments(1.0, 1e-300, 1e10))


def test_rademacher_sum_lmmse_equals_mmse():
    # the conditional mean is linear here, so the two coincide at 1/2
    ms = moments_exact(rademacher_sum_joint())
    r = lmmse(ms)
    assert r.value == pytest.approx(0.5, abs=1e-12)
    assert abs(r.value - mmse_exact(rademacher_sum_joint()).mmse) <= 1e-10


def test_uncorrelated_pair_keeps_prior_variance():
    r = lmmse(scalar_moments(2.5, 1.0, 0.0))
    assert r.value == pytest.approx(2.5, abs=1e-12)
    np.testing.assert_allclose(r.gain, 0.0, atol=1e-12)


def test_mixture_trajectory_formula():
    for n in (1, 2, 5, 10, 100):
        r = lmmse(mixture_moments(n))
        assert r.value == pytest.approx(mixture_value(n), abs=1e-12)


def test_offset_absorbs_translation():
    base = scalar_moments(1.0, 2.0, 1.0)
    shifted = scalar_moments(1.0, 2.0, 1.0, eta_x=5.0)
    a, b = lmmse(base), lmmse(shifted)
    assert abs(a.value - b.value) <= 1e-10
    assert b.offset[0] == pytest.approx(a.offset[0] + 5.0, abs=1e-12)


def test_tiny_negative_value_clamps_to_zero():
    # c_x one ulp below c_xy^2 / c_y makes the trace formula land at ~-1e-16
    r = lmmse(scalar_moments(1.0 - 2**-53, 1.0, 1.0))
    assert r.value == 0.0
    assert r.clamped is True


def test_singular_measurement_covariance_uses_spectral_projection():
    # duplicated measurement coordinate: rank-1 C_Y, same value as scalar case
    ms = MomentSummary(
        eta_x=np.zeros(1), eta_y=np.zeros(2),
        c_x=np.array([[1.0]]),
        c_y=np.array([[2.0, 2.0], [2.0, 2.0]]),
        c_xy=np.array([[1.0, 1.0]]),
        second_moment_x=1.0, second_moment_y=4.0,
    )
    r = lmmse(ms)
    assert r.c_y_rank == 1
    assert r.value == pytest.approx(0.5, abs=1e-10)


def test_value_bounded_by_prior_trace():
    r = lmmse(scalar_moments(1.0, 4.0, 1.5))
    assert -1e-10 <= r.value <= 1.0 + 1e-10
