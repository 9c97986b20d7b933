import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmse_lab import (
    FiniteJoint,
    InvalidDistribution,
    SelfCheckError,
    lmmse,
    mmse_exact,
    moments_exact,
)
from mmse_lab.probcore import MOMENT_TOL, MomentSummary, schur_split
from mmse_lab.scenarios import example1_scenario
from test_probcore import rademacher_sum_joint

import lmmse_reference


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


def with_c_xy(moments: MomentSummary, c_xy: float) -> MomentSummary:
    """``moments`` with c_xy replaced after construction, which
    MomentSummary would refuse, and the split it keeps for lmmse made again
    from the new fields."""
    object.__setattr__(moments, "c_xy", np.array([[c_xy]]))
    object.__setattr__(moments, "_split", schur_split(
        moments.eta_x, moments.eta_y, moments.c_x, moments.c_y, moments.c_xy))
    return moments


def test_lmmse_overflowing_gain_fails_loudly():
    # moments whose gain C_XY / C_Y overflows: both forms turn non-finite
    # and must raise instead of comparing as equal.  MomentSummary refuses
    # |c_xy| = 1e10 > sqrt(c_x c_y), so the field is replaced after
    # construction
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SelfCheckError, match="non-finite"):
        lmmse(with_c_xy(scalar_moments(1.0, 1e-300, 0.0), 1e10))


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


def test_negative_lmmse_beyond_the_clamp_raises():
    # MomentSummary refuses |c_xy| = 2 > sqrt(c_x c_y) = 1, so the field is
    # replaced after construction; both forms then read 1 - 4 = -3, far
    # below -MOMENT_TOL
    with pytest.raises(SelfCheckError, match="LMMSE -3.0 below -tolerance"):
        lmmse(with_c_xy(scalar_moments(1.0, 1.0, 0.5), 2.0))


def test_lmmse_results_compare_by_identity():
    moments = scalar_moments(1.0, 1.0, 0.5)
    a, b = lmmse(moments), lmmse(moments)
    assert a == a and a != b and len({a, b}) == 2


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


@pytest.mark.parametrize("n", [1, 4, 9])
def test_constant_measurement_keeps_the_prior_mean_and_variance(n):
    # example1 measures Y = 0: C_Y = 0 has no eigenvalue to keep, so the
    # gain is +0.0 and the estimate is E[X], with error Var X = 1
    ms = moments_exact(example1_scenario().realize(n))
    r = lmmse(ms)
    assert r.c_y_rank == 0
    assert r.gain.tolist() == [[0.0]] and not np.signbit(r.gain).any()
    assert r.offset.tolist() == ms.eta_x.tolist()
    assert r.value == 1.0 and r.clamped is False


def test_value_bounded_by_prior_trace():
    r = lmmse(scalar_moments(1.0, 4.0, 1.5))
    assert -1e-10 <= r.value <= 1.0 + 1e-10


def test_a_small_variance_is_kept_on_its_own_scale():
    # Y in {0, 1e-6} and X = 1e6 Y: c_y = 2.5e-13 is far below MOMENT_TOL,
    # but scaled to unit variance it is kept, and X is recovered exactly.
    # A rank cut at MOMENT_TOL on max(1, variance) would drop Y and read
    # Var X = 0.25
    ms = moments_exact(FiniteJoint(np.array([0.0, 1.0]), np.array([0.0, 1e-6]),
                                   np.diag([0.5, 0.5])))
    assert ms.c_y[0, 0] == 2.5e-13
    r = lmmse(ms)
    assert (r.value, r.c_y_rank, r.clamped) == (0.0, 1, False)
    assert r.gain.tolist() == [[1e6]]


def test_a_large_measurement_mean_does_not_round_the_check_away():
    # A eta_Y = 5e16 makes A eta_Y + b round E[X] = 1 away; the mean check
    # allows the offset that rounding, and the second-moment form does
    # not depend on it
    r = lmmse(scalar_moments(1.0, 1.0, 0.5, eta_x=1.0, eta_y=1e17))
    assert r.value == 0.75


def reference_value_gain_offset(moments):
    value, gain, offset = lmmse_reference.lmmse(
        moments.eta_x, moments.eta_y, moments.c_x, moments.c_y, moments.c_xy)
    return (float(value), np.array(gain.tolist(), dtype=float),
            np.array(offset.tolist(), dtype=float).ravel())


def test_vector_lmmse_matches_the_60_digit_reference():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k, m = (int(v) for v in rng.integers(1, 4, size=2))
        n = int(rng.integers(k + m + 1, 12))
        pmf = rng.exponential(1.0, (n, n))
        joint = FiniteJoint(rng.normal(size=(n, k)) * 10.0 ** rng.integers(-6, 7),
                            rng.normal(size=(n, m)) * 10.0 ** rng.integers(-6, 7),
                            pmf / pmf.sum())
        ms = moments_exact(joint)
        r = lmmse(ms)
        value, gain, offset = reference_value_gain_offset(ms)
        size = np.trace(ms.c_x)
        assert abs(r.value - max(value, 0.0)) <= 1e-12 * size
        np.testing.assert_allclose(r.gain, gain, rtol=1e-9,
                                   atol=1e-12 * np.abs(gain).max())
        np.testing.assert_allclose(r.offset, offset, rtol=0.0,
                                   atol=1e-9 * (np.abs(offset).max() + size))


def test_nearly_collinear_measurements_match_the_reference():
    # corr(Y1, Y2) = 1 - 3e-10: the small eigenvalue of the scaled C_Y,
    # 3e-10, is kept, and X = a Y1 + b Y2 + noise is recovered to 1e-12
    r12 = 1.0 - 3e-10
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=2)
        c_y = np.array([[1.0, r12], [r12, 1.0]])
        c_xy = np.array([[a + b * r12, a * r12 + b]])
        c_x = np.array([[float(np.array([a, b]) @ c_y @ np.array([a, b])) + 0.1]])
        ms = MomentSummary(eta_x=np.zeros(1), eta_y=np.zeros(2), c_x=c_x,
                           c_y=c_y, c_xy=c_xy, second_moment_x=c_x[0, 0],
                           second_moment_y=2.0)
        r = lmmse(ms)
        value, _, _ = reference_value_gain_offset(ms)
        assert r.c_y_rank == 2
        assert abs(r.value - value) <= 1e-12 * c_x[0, 0]


def test_a_joint_along_a_kept_small_eigenvalue_is_accepted():
    # Y = (U, U + 2e-5 V) and X = V for independent signs U and V: the
    # scaled C_Y has an eigenvalue of about 2e-10, just above the cut, and X
    # lies along it, so S = 0 is computed only to about eps ||G||^2 = 1e-6.
    # The slack holds that rounding, and X is recovered to it
    u, v = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    pmf = np.zeros((2, 4))
    pmf[(v < 0).astype(int), np.arange(4)] = 0.25
    ms = moments_exact(FiniteJoint(np.array([1.0, -1.0]),
                                   np.stack([u, u + 2e-5 * v], axis=1), pmf))
    r = lmmse(ms)
    assert r.c_y_rank == 2 and r.value <= 1e-5
    np.testing.assert_allclose(r.gain, [[-5e4, 5e4]], rtol=1e-5)


def test_exact_moments_near_the_rank_cut_are_accepted():
    # Finite joints whose Y has a nearly dependent coordinate, scaled
    # eigenvalues from about 1e-14 to 1e-2, and an X driven along it:
    # the moments of a real pair are never refused, and lmmse raises no
    # SelfCheckError
    rng = np.random.default_rng(1)
    sensitive = 0
    for _ in range(500):
        k, m, n = (int(v) for v in rng.integers((1, 2, 3), (3, 4, 9)))
        factors = rng.normal(size=(n, m))
        mix = rng.normal(size=(m, m))
        d = 10.0 ** rng.uniform(-7, -1)
        mix[:, -1] = mix[:, 0] + d * rng.normal(size=m)
        ys = factors @ mix.T * 10.0 ** rng.uniform(-3, 3, size=m)
        xs = (factors @ rng.normal(size=(m, k)) / d ** rng.uniform(0, 1)
              + 10.0 ** rng.uniform(-14, -2) * rng.normal(size=(n, k)))
        pmf = np.diag(rng.uniform(0.5, 1.5, size=n))
        ms = moments_exact(FiniteJoint(xs * 10.0 ** rng.uniform(-3, 3, size=k),
                                       ys, pmf / pmf.sum()))
        r = lmmse(ms)
        assert math.isfinite(r.value) and r.value >= 0.0
        sensitive += ms._split[-1] > 2 * MOMENT_TOL
    assert sensitive >= 100


# the law: 60-digit reference values, against a float computation in
# coordinates scaled to about unit variance, where each entry is of order
# one and its rounding of order 1e-16; LAW_REL is that, scaled back
LAW_REL = 1e-14
LAW_ABS = 4 * 2.0 ** -1074  # a few steps of the subnormal grid
SUBNORMAL = st.floats(min_value=2.0 ** -1074, max_value=2.0 ** -1022,
                      exclude_max=True)


@st.composite
def scalar_moment_cases(draw):
    """(c_x, c_y, c_xy, eta_x, eta_y): variances from 1e-300 to 1e300,
    subnormal or 0, correlations in [-1, 1] and within 2 MOMENT_TOL of +-1,
    means up to 10 standard deviations."""
    variance = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                         SUBNORMAL, st.just(0.0))
    near_one = st.floats(1.0 - 2 * MOMENT_TOL, 1.0 + 2 * MOMENT_TOL)
    corr = draw(st.one_of(st.floats(-1.0, 1.0), near_one,
                          near_one.map(lambda r: -r)))
    c_x, c_y = draw(variance), draw(variance)
    eta_x, eta_y = (draw(st.floats(-10.0, 10.0)) * math.sqrt(v) for v in (c_x, c_y))
    return c_x, c_y, corr * math.sqrt(c_x) * math.sqrt(c_y), eta_x, eta_y


@settings(max_examples=400, deadline=None)
@given(scalar_moment_cases())
# a gain C_XY / C_Y of about 1e310, beyond the float range
@example((1e300, 1e-320, 0.99e-10, 0.0, 0.0))
# correlations of 1 + 0.75e-10: 1 - r^2 = -1.5e-10, past the tolerance
@example((1.0, 1.0, 1.0 + 0.75e-10, 0.0, 0.0))
@example((1.0, 1e12, 1e6 * (1.0 + 0.75e-10), 0.0, 0.0))
def test_lmmse_is_refused_or_meets_the_60_digit_reference(case):
    c_x, c_y, c_xy, eta_x, eta_y = case
    value, gain, offset = lmmse_reference.lmmse(
        [eta_x], [eta_y], [[c_x]], [[c_y]], [[c_xy]])
    corr = lmmse_reference.correlation(c_x, c_y, c_xy)
    gain, offset = gain[0, 0], offset[0, 0]
    excess = 1 - corr * corr  # the scaled Schur complement, up to [0.5, 2)
    # the gain of a correlation of one, the unit of the scaled gain
    unit = mpmath.sqrt(mpmath.mpf(c_x) / c_y) if c_y else 0
    try:
        ms = MomentSummary(eta_x=[eta_x], eta_y=[eta_y], c_x=[[c_x]],
                           c_y=[[c_y]], c_xy=[[c_xy]],
                           second_moment_x=c_x + eta_x ** 2,
                           second_moment_y=c_y + eta_y ** 2)
    except InvalidDistribution as err:
        # refused only for a correlation beyond the tolerance, or for an
        # estimator beyond the float range
        beyond = max(abs(gain), abs(offset)) > sys.float_info.max
        assert excess < -MOMENT_TOL / 4 or beyond, str(err)
        return
    assert excess >= -4 * MOMENT_TOL
    r = lmmse(ms)  # raises no SelfCheckError
    assert abs(r.value - max(value, 0)) <= LAW_REL * c_x + LAW_ABS
    assert abs(r.gain[0, 0] - gain) <= LAW_REL * unit + LAW_ABS
    # the offset inherits the rounding of a gain on the subnormal grid
    assert (abs(r.offset[0] - offset)
            <= LAW_REL * (abs(eta_x) + unit * abs(eta_y))
            + LAW_ABS * (1 + abs(eta_y)))
