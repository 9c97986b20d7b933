import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmse_lab import (
    FiniteJoint,
    SelfCheckError,
    conditional_expectation,
    mmse_exact,
    moments_exact,
    orthogonality_check,
    product_joint,
    rng_stream,
)
from mmse_lab.selftest import random_joint
from test_probcore import diagonal_pm1_joint, rademacher_sum_joint


def bsc_joint(flip: float) -> FiniteJoint:
    """Uniform +-1 prior observed through a binary symmetric channel."""
    keep = 1.0 - flip
    return FiniteJoint(
        x_support=np.array([[-1.0], [1.0]]),
        y_support=np.array([[-1.0], [1.0]]),
        pmf=0.5 * np.array([[keep, flip], [flip, keep]]),
    )


# --------------------------------------------------------------------------
# conditional_expectation
# --------------------------------------------------------------------------

def test_estimator_halves_the_sum_measurement():
    ce = conditional_expectation(rademacher_sum_joint())
    for y, want in ((-2.0, -1.0), (0.0, 0.0), (2.0, 1.0)):
        got = ce.estimate(np.array([y]))
        assert got[0] == pytest.approx(want, abs=1e-14)


def test_estimator_is_identity_on_diagonal_joint():
    ce = conditional_expectation(diagonal_pm1_joint())
    assert ce.estimate(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert ce.estimate(np.array([-1.0]))[0] == pytest.approx(-1.0, abs=1e-15)


def test_estimator_collapses_to_prior_mean_under_independence():
    j = product_joint(np.array([[-1.0], [3.0]]), np.array([0.75, 0.25]),
                      np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    ce = conditional_expectation(j)
    for y in (0.0, 1.0):
        assert ce.estimate(np.array([y]))[0] == pytest.approx(0.0, abs=1e-14)


def test_posterior_mass_satisfies_total_expectation():
    ce = conditional_expectation(rademacher_sum_joint())
    assert sum(ce.posterior_mass) == pytest.approx(1.0, abs=1e-12)


def test_zero_mass_measurement_column_dropped_without_value_change():
    base = rademacher_sum_joint()
    padded = FiniteJoint(
        x_support=base.x_support,
        y_support=np.vstack([base.y_support, [[9.0]]]),
        pmf=np.hstack([base.pmf, np.zeros((2, 1))]),
    )
    ce = conditional_expectation(padded)
    assert ce.dropped_zero_mass is True
    assert mmse_exact(padded).mmse == mmse_exact(base).mmse


# --------------------------------------------------------------------------
# mmse_exact
# --------------------------------------------------------------------------

@pytest.mark.parametrize("y_pmf", [
    [[0.5, 0.0], [0.0, 0.5]],     # the measurement reveals X
    [[0.25, 0.25], [0.25, 0.25]],  # blind measurement
])
def test_mmse_overflowing_atoms_fail_loudly(y_pmf):
    # ||x||^2 overflows to inf: the two forms can no longer be compared,
    # which must raise instead of letting nan > tol read as agreement
    j = FiniteJoint(x_support=np.array([[-1e200], [1e200]]),
                    y_support=np.array([[0.0], [1.0]]),
                    pmf=np.array(y_pmf))
    with np.errstate(over="ignore"), \
            pytest.raises(SelfCheckError, match="non-finite"):
        mmse_exact(j)


def dense_direct_form(joint: FiniteJoint) -> float:
    """The residual form over the dense (nx, ny', k) table, as a reference."""
    py = joint.y_marginal()
    keep = py > 0.0
    pmf = joint.pmf[:, keep]
    est = (joint.x_support.T @ pmf / py[keep]).T
    diff = joint.x_support[:, None, :] - est[None, :, :]
    return float((pmf * (diff * diff).sum(axis=2)).sum())


def test_mmse_direct_form_matches_the_dense_reference():
    rng = rng_stream(5, "dense-direct")
    for _ in range(200):
        nx, ny = (int(v) for v in rng.integers(1, 12, size=2))
        pmf = rng.exponential(1.0, (nx, ny))
        pmf[rng.random((nx, ny)) < 0.4] = 0.0
        pmf[:, rng.random(ny) < 0.25] = 0.0   # zero-mass columns
        if pmf.sum() == 0.0:
            continue
        j = FiniteJoint(x_support=rng.normal(0.0, 3.0, (nx, 2)),
                        y_support=np.arange(ny, dtype=float),
                        pmf=pmf / pmf.sum())
        got = mmse_exact(j).mmse
        sm_x = float(j.x_marginal() @ (j.x_support ** 2).sum(axis=1))
        assert abs(got - dense_direct_form(j)) <= 1e-12 * max(1.0, sm_x)


def test_mmse_rademacher_sum_is_half():
    assert mmse_exact(rademacher_sum_joint()).mmse == pytest.approx(0.5, abs=1e-12)


def test_mmse_bsc_01():
    # brute force over the four outcomes: 1 - (1 - 2*0.1)^2
    assert mmse_exact(bsc_joint(0.1)).mmse == pytest.approx(0.36, abs=1e-12)


def test_mmse_perfect_measurement_is_zero():
    assert mmse_exact(diagonal_pm1_joint()).mmse == pytest.approx(0.0, abs=1e-15)


def test_mmse_result_forms_are_consistent():
    r = mmse_exact(rademacher_sum_joint())
    assert r.mmse == pytest.approx(
        r.second_moment_x - r.estimator_second_moment, abs=1e-10)
    assert 0.0 <= r.mmse


def test_mmse_never_exceeds_prior_variance_random_joints():
    rng = rng_stream(99, "forms-agreement")
    for _ in range(1000):
        j = random_joint(rng, max_x=20, max_y=20)
        r = mmse_exact(j)
        ms = moments_exact(j)
        assert r.mmse <= np.trace(ms.c_x) + 1e-10
        assert abs(r.mmse - (r.second_moment_x - r.estimator_second_moment)) <= 1e-10


# --------------------------------------------------------------------------
# orthogonality_check
# --------------------------------------------------------------------------

def test_orthogonality_linear_and_quadratic_test_functions():
    j = rademacher_sum_joint()
    worst = orthogonality_check(j, [lambda y: y, lambda y: y * y])
    assert worst <= 1e-10


def test_orthogonality_flags_perturbed_estimator():
    from mmse_lab.exact import ConditionalExpectation

    j = diagonal_pm1_joint()
    ce = conditional_expectation(j)
    shifted = ConditionalExpectation(
        y_support=ce.y_support,
        estimates=ce.estimates + 0.1,
        posterior_mass=ce.posterior_mass,
        dropped_zero_mass=ce.dropped_zero_mass,
    )
    # E[(X - Xhat) * 1] = -0.1 by hand
    worst = orthogonality_check(j, [lambda y: np.ones(1)], estimator=shifted)
    assert worst >= 0.09


@st.composite
def small_joints(draw):
    nx = draw(st.integers(min_value=1, max_value=5))
    ny = draw(st.integers(min_value=1, max_value=5))
    weights = draw(st.lists(st.integers(min_value=0, max_value=30),
                            min_size=nx * ny, max_size=nx * ny))
    if sum(weights) == 0:
        weights[0] = 1
    pmf = np.array(weights, dtype=float).reshape(nx, ny)
    pmf /= pmf.sum()
    xs = np.arange(nx, dtype=float)[:, None] * 0.5 - 1.0
    ys = np.arange(ny, dtype=float)[:, None] * 0.25 + 2.0
    return FiniteJoint(x_support=xs, y_support=ys, pmf=pmf)


@settings(max_examples=80, deadline=None)
@given(small_joints())
def test_mmse_invariants_hold_on_arbitrary_joints(j):
    r = mmse_exact(j)
    ms = moments_exact(j)
    assert r.mmse >= 0.0
    assert r.mmse <= np.trace(ms.c_x) + 1e-10
    assert orthogonality_check(j, [lambda y: y, lambda y: np.ones(1)]) <= 1e-10
