import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmse_lab import (
    FiniteJoint,
    InvalidDistribution,
    SelfCheckError,
    conditional_expectation,
    mmse_exact,
    moments_exact,
    orthogonality_check,
    rng_stream,
)
from mmse_lab import convergence, probcore
from mmse_lab.probcore import SufficientJoint
from mmse_lab.scenarios import builtin_scenarios
from mmse_lab.selftest import random_joint
from test_probcore import diagonal_pm1_joint, rademacher_sum_joint

import exact_reference


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
    assert ce.y_support.tolist() == [[-2.0], [0.0], [2.0]]
    assert ce.estimates.shape == (3, 1)
    for got, want in zip(ce.estimates, (-1.0, 0.0, 1.0)):
        assert got[0] == pytest.approx(want, abs=1e-14)


def test_estimator_is_identity_on_diagonal_joint():
    ce = conditional_expectation(diagonal_pm1_joint())
    assert ce.y_support.tolist() == [[-1.0], [1.0]]
    assert ce.estimates[0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert ce.estimates[1, 0] == pytest.approx(1.0, abs=1e-15)


def test_estimator_collapses_to_prior_mean_under_independence():
    j = FiniteJoint(np.array([[-1.0], [3.0]]), np.array([[0.0], [1.0]]),
                    np.outer([0.75, 0.25], [0.5, 0.5]))
    ce = conditional_expectation(j)
    assert ce.y_support.tolist() == [[0.0], [1.0]]
    assert ce.estimates.shape == (2, 1)
    for got in ce.estimates:
        assert got[0] == pytest.approx(0.0, abs=1e-14)


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


@st.composite
def centred_joints(draw):
    """The arrays of a joint whose X has mean 0 up to rounding, and a
    power of ten to scale X by."""
    k = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(min_value=2, max_value=5))
    ny = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pmf = rng.exponential(1.0, (nx, ny))
    pmf /= pmf.sum()
    xs = rng.normal(size=(nx, k))
    xs -= pmf.sum(axis=1) @ xs
    ys = np.arange(ny, dtype=float)
    return xs, ys, pmf, 10.0 ** draw(st.integers(min_value=-6, max_value=12))


@settings(max_examples=200, deadline=None)
@given(centred_joints())
def test_mmse_of_centred_x_scales_with_its_square(case):
    # the checks scale with the size of X, not with |E[X]|: a centred X
    # scaled up to 1e12 is checked and returned, with MMSE(sX) = s^2 MMSE(X)
    xs, ys, pmf, s = case
    base = mmse_exact(FiniteJoint(xs, ys, pmf))
    scaled = mmse_exact(FiniteJoint(s * xs, ys, pmf))
    assert (abs(scaled.mmse - s * s * base.mmse)
            <= 1e-12 * s * s * base.second_moment_x)


def tampered(joint, cache, values):
    """A new joint on the arrays of ``joint`` whose cached marginal
    ``cache`` holds ``values``: the engine then reads a wrong law."""
    copy = FiniteJoint(joint.x_support, joint.y_support, pmf=joint.pmf)
    copy.__dict__[cache] = np.asarray(values, dtype=float)
    return copy


def test_law_of_total_expectation_fires_at_scale():
    # x = +-1e9: the tolerance is CHECK_TOL * RMS(X) = 0.1, and an X
    # marginal off by 1e-6 moves E[X] by 2e3 from E[g(Y)] = 0
    joint = FiniteJoint(np.array([-1e9, 1e9]), np.array([0.0, 1.0]),
                        pmf=0.5 * np.array([[0.9, 0.1], [0.1, 0.9]]))
    with pytest.raises(SelfCheckError, match="law of total expectation"):
        mmse_exact(tampered(joint, "_x_marginal", [0.5 + 1e-6, 0.5 - 1e-6]))


def test_mmse_forms_that_disagree_raise():
    # the tampered X marginal keeps E[X] = 0 but moves E||X||^2 from 2.5
    # to 4, which only the difference form reads
    joint = FiniteJoint(np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0.0]),
                        pmf=np.full((4, 1), 0.25))
    with pytest.raises(SelfCheckError,
                       match=r"MMSE forms \(direct vs difference\) disagree"):
        mmse_exact(tampered(joint, "_x_marginal", [0.5, 0.0, 0.0, 0.5]))


def test_mmse_above_the_prior_variance_raises():
    # a Y marginal 1e11 times too large shrinks every estimate to ~0, so
    # the direct form reads E||X||^2 = 2; the two forms still agree to
    # 1e-11, but the prior variance is 1
    joint = bsc_joint(0.1)
    joint = FiniteJoint(joint.x_support + 1.0, joint.y_support, pmf=joint.pmf)
    with pytest.raises(SelfCheckError, match="exceeds prior variance 1.0"):
        mmse_exact(tampered(joint, "_y_marginal", [0.5e11, 0.5e11]))


def test_value_types_of_the_result_compare_by_identity():
    result = mmse_exact(bsc_joint(0.1))
    again = mmse_exact(bsc_joint(0.1))
    for a, b in ((result, again), (result.estimator, again.estimator)):
        assert a == a and a != b and len({a, b}) == 2


# --------------------------------------------------------------------------
# orthogonality_check
# --------------------------------------------------------------------------

def test_orthogonality_linear_and_quadratic_test_functions():
    j = rademacher_sum_joint()
    worst = orthogonality_check(j, [lambda y: y, lambda y: y * y])
    assert worst <= 1e-10


def test_orthogonality_flags_perturbed_estimator(monkeypatch):
    from mmse_lab import exact

    def shifted(joint):
        ce = conditional_expectation(joint)
        return dataclasses.replace(ce, estimates=ce.estimates + 0.1)

    monkeypatch.setattr(exact, "conditional_expectation", shifted)
    # E[(X - Xhat) * 1] = -0.1 by hand
    worst = orthogonality_check(diagonal_pm1_joint(), [lambda y: np.ones(1)])
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


# --------------------------------------------------------------------------
# the in-place engine against the allocating reference
# --------------------------------------------------------------------------

@st.composite
def reference_joints(draw):
    """A FiniteJoint with k = 1 or 2 and maybe measurement columns without
    mass, or a SufficientJoint over one."""
    k = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(min_value=1, max_value=6))
    ny = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pmf = rng.exponential(1.0, (nx, ny))
    pmf[rng.random((nx, ny)) < 0.3] = 0.0
    dead = rng.permutation(ny)[:draw(st.integers(0, ny - 1))]
    pmf[:, dead] = 0.0
    if not pmf.any():
        pmf[0, np.setdiff1d(np.arange(ny), dead)[0]] = 1.0
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    joint = FiniteJoint(x_support=rng.normal(0.0, scale, (nx, k)),
                        y_support=np.arange(ny, dtype=float),
                        pmf=pmf / pmf.sum())
    if not draw(st.booleans()):
        return joint
    # each letter of the core's measurement becomes one to three atoms
    y_stat = np.repeat(np.arange(ny), rng.integers(1, 4, ny))
    given = rng.random(y_stat.size) + 0.1
    given /= np.bincount(y_stat, weights=given)[y_stat]
    return SufficientJoint(joint, rng.normal(size=(y_stat.size, 1)),
                           y_stat, given)


def assert_same_bits(got, want):
    assert (got.mmse, got.second_moment_x, got.estimator_second_moment) == (
        want.mmse, want.second_moment_x, want.estimator_second_moment)
    assert got.estimator.dropped_zero_mass == want.estimator.dropped_zero_mass
    for field in ("y_support", "estimates", "posterior_mass"):
        a, b = getattr(got.estimator, field), getattr(want.estimator, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def assert_matches_reference(joint):
    assert_same_bits(mmse_exact(joint), exact_reference.mmse_exact(joint))
    assert (probcore._second_moments(joint)
            == exact_reference.second_moments(joint))
    for a in convergence.UI_GRID + (0.0,):
        assert (convergence.ui_functional(joint, a)
                == exact_reference.ui_functional(joint, a))


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_ui_functional_refuses_a_non_finite_threshold(threshold):
    # ||X||^2 > nan is False for every atom, so nan would read as 0.0
    with pytest.raises(InvalidDistribution, match="threshold must be finite"):
        convergence.ui_functional(diagonal_pm1_joint(), threshold)


@settings(max_examples=150, deadline=None)
@given(joint=reference_joints(), chunk=st.sampled_from([1, 3, None]))
def test_in_place_engine_matches_the_allocating_reference(joint, chunk):
    # a small SAMPLE_CHUNK puts chunk boundaries inside these joints
    default = probcore.SAMPLE_CHUNK
    probcore.SAMPLE_CHUNK = chunk or default
    try:
        assert_matches_reference(joint)
    finally:
        probcore.SAMPLE_CHUNK = default


@pytest.mark.parametrize("name, n", [
    ("example2", 1024),               # 65536 atoms: four chunks
    ("example4", 64),
    ("cor1_additive_fast_y", 256),
    ("cor1_additive_fast_x", 256),
])
def test_in_place_engine_matches_the_reference_on_realizations(name, n):
    assert_matches_reference(builtin_scenarios()[name].realize(n))


def test_mmse_exact_holds_one_atom_sized_array():
    # the memory contract of the module docstring, as a ratio to one (nnz, k)
    # array of floats; a second atom-sized array alive beside the residual
    # reads 2.  What the law keeps, its marginals and second moments, is made
    # first, as run_scenario does
    joint = builtin_scenarios()["example2"].realize(4096)
    core = joint.core
    core.x_marginal(), core.y_marginal(), probcore._second_moments(core)
    atom_array = core.prob.size * core.k * 8
    tracemalloc.start()
    try:
        mmse_exact(joint)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * atom_array
    # what stays with the core is sized by its 64 statistic letters
    assert kept <= 0.01 * atom_array


# --------------------------------------------------------------------------
# one result per joint
# --------------------------------------------------------------------------

def test_mmse_exact_computes_once_per_joint(monkeypatch):
    from mmse_lab import exact

    real, tables = exact._mmse_exact, []

    def counted(joint):
        tables.append(joint)
        return real(joint)

    monkeypatch.setattr(exact, "_mmse_exact", counted)
    joint = bsc_joint(0.1)
    first = mmse_exact(joint)
    assert mmse_exact(joint) is first
    assert tables == [joint]


def test_conditional_expectation_is_the_kept_table():
    joint = bsc_joint(0.1)
    assert conditional_expectation(joint) is mmse_exact(joint).estimator


def test_sufficient_joint_shares_the_result_of_its_core():
    joint = builtin_scenarios()["example2"].realize(16)
    assert mmse_exact(joint.core) is mmse_exact(joint)


def test_kept_result_refuses_writes():
    estimator = mmse_exact(bsc_joint(0.1)).estimator
    for field in ("y_support", "estimates", "posterior_mass"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(estimator, field)[0] = 0.0


def test_kept_result_dies_with_its_joint():
    joint = bsc_joint(0.1)
    result = weakref.ref(mmse_exact(joint))
    del joint
    assert result() is None


def rebuilt(joint):
    """A new joint object on the same arrays."""
    if isinstance(joint, SufficientJoint):
        return SufficientJoint(rebuilt(joint.core), joint.y_support,
                               joint.y_stat, joint.y_given_stat)
    return FiniteJoint(joint.x_support, joint.y_support, x_idx=joint.x_idx,
                       y_idx=joint.y_idx, prob=joint.prob)


@settings(max_examples=60, deadline=None)
@given(joint=reference_joints())
def test_kept_result_has_the_bits_of_a_fresh_joint(joint):
    first = mmse_exact(joint)
    assert mmse_exact(joint) is first
    assert_same_bits(first, mmse_exact(rebuilt(joint)))
