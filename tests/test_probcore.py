import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmse_lab import (
    FiniteJoint,
    InvalidDistribution,
    NonPositiveStep,
    SufficientJoint,
    floor_quantize,
    joint_from_atoms,
    mmse_exact,
    moments_exact,
    quantize_joint,
    rng_stream,
)
from mmse_lab.probcore import MomentSummary
from mmse_lab.scenarios import builtin_scenarios


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_joint_rejects_non_finite_dense_mass(bad):
    with pytest.raises(InvalidDistribution):
        FiniteJoint(x_support=np.array([[0.0], [1.0]]),
                    y_support=np.array([[0.0]]),
                    pmf=np.array([[1.0], [bad]]))


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


@pytest.mark.parametrize("name", ["x_support", "y_support"])
def test_joint_rejects_zero_column_supports(name):
    fields = dict(x_support=np.array([[0.0], [1.0]]), y_support=np.array([[0.0]]))
    fields[name] = np.zeros((fields[name].shape[0], 0))
    with pytest.raises(InvalidDistribution,
                       match=f"{name} must be a non-empty 1-D or 2-D array"):
        FiniteJoint(pmf=np.array([[0.5], [0.5]]), **fields)


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
# the atom representation
# --------------------------------------------------------------------------

def random_weight_table(rng):
    """Random (x_support, y_support, weights) with zero entries, zero-mass
    rows and columns, and two-column supports about a third of the time."""
    nx, ny = (int(v) for v in rng.integers(1, 9, size=2))
    k, m = (int(v) for v in rng.integers(1, 3, size=2) + (rng.random(2) < 0.3))
    xs = rng.permutation(np.arange(nx * k, dtype=float)).reshape(nx, k)
    ys = rng.permutation(np.arange(ny * m, dtype=float)).reshape(ny, m)
    w = rng.exponential(1.0, (nx, ny))
    w[rng.random((nx, ny)) < 0.4] = 0.0
    w[rng.random(nx) < 0.2, :] = 0.0
    w[:, rng.random(ny) < 0.2] = 0.0
    if not w.any():
        w[rng.integers(nx), rng.integers(ny)] = 1.0
    return xs, ys, w


def test_dense_and_key_constructors_store_the_same_atoms():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        xs, ys, w = random_weight_table(rng)
        nx, ny = w.shape
        # joint_from_atoms sorts its supports, so the dense joint must too
        xs, x_order = np.unique(xs, axis=0, return_index=True)
        ys, y_order = np.unique(ys, axis=0, return_index=True)
        w = w[x_order][:, y_order]
        # both normalize by the sum of the nonzero weights in row-major order
        dense = FiniteJoint(xs, ys, w / w[w != 0.0].sum())
        keyed = joint_from_atoms([(xs[i], ys[j], w[i, j])
                                  for i in range(nx) for j in range(ny)])
        for name in ("x_support", "y_support", "x_idx", "y_idx", "prob"):
            a, b = getattr(dense, name), getattr(keyed, name)
            assert a.tobytes() == b.tobytes() and a.shape == b.shape, name
            assert not a.flags.writeable and not b.flags.writeable, name
        i, j = np.nonzero(w)
        assert dense.x_idx.tolist() == i.tolist()
        assert dense.y_idx.tolist() == j.tolist()
        for joint in (dense, keyed):
            pmf = joint.pmf
            assert pmf is joint.pmf and not pmf.flags.writeable
            assert pmf.shape == (nx, ny)
            assert np.max(np.abs(joint.x_marginal() - pmf.sum(axis=1))) <= 1e-15
            assert np.max(np.abs(joint.y_marginal() - pmf.sum(axis=0))) <= 1e-15
            assert joint.x_marginal() is joint.x_marginal()
            assert not joint.x_marginal().flags.writeable


def test_dense_constructor_keeps_no_reference_to_its_input():
    pmf = np.array([[0.5, 0.0], [0.25, 0.25]])
    xs = np.array([[0.0], [1.0]])
    j = FiniteJoint(xs, np.array([[0.0], [1.0]]), pmf)
    pmf[0, 0], xs[0, 0] = 0.0, 7.0
    assert j.prob.tolist() == [0.5, 0.25, 0.25]
    assert j.x_support[0, 0] == 0.0


def atom_joint(x_idx, y_idx, prob):
    return FiniteJoint(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0], [2.0]]),
                       x_idx=np.array(x_idx), y_idx=np.array(y_idx),
                       prob=np.array(prob, dtype=float))


def test_atom_constructor_accepts_row_major_positive_atoms():
    j = atom_joint([0, 0, 1], [0, 2, 1], [0.25, 0.25, 0.5])
    np.testing.assert_array_equal(j.pmf, [[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]])
    np.testing.assert_array_equal(j.y_marginal(), [0.25, 0.5, 0.25])


@pytest.mark.parametrize("x_idx, y_idx, prob", [
    ([0, 2], [0, 1], [0.5, 0.5]),               # x index out of range
    ([0, 1], [0, 3], [0.5, 0.5]),               # y index out of range
    ([-1, 1], [0, 1], [0.5, 0.5]),              # negative index
    ([0, 0], [1, 1], [0.5, 0.5]),               # duplicate flat index
    ([1, 0], [0, 1], [0.5, 0.5]),               # flat indices not increasing
    ([0, 0], [2, 1], [0.5, 0.5]),               # same row, columns unsorted
    ([0, 1], [0, 1], [1.0, 0.0]),               # zero probability
    ([0, 0, 1], [0, 1, 1], [0.75, -0.25, 0.5]),  # negative probability
    ([0, 1], [0, 1], [np.nan, 1.0]),            # NaN probability
    ([0, 1], [0, 1], [np.inf, 1.0]),            # infinite probability
    ([0, 1], [0, 1], [0.5, 0.4]),               # sum off 1
    ([0, 1], [0, 1], [0.5, 0.5 + 5e-12]),       # sum just outside PMF_TOL
    ([], [], []),                               # no atom
    ([0.0, 1.0], [0, 1], [0.5, 0.5]),           # float indices
    ([0, 1], [0], [0.5, 0.5]),                  # lengths differ
    (np.zeros(0, int), np.zeros(0, int), []),   # no atom, integer indices
])
def test_atom_constructor_rejects_invalid_atoms(x_idx, y_idx, prob):
    with pytest.raises(InvalidDistribution):
        atom_joint(x_idx, y_idx, prob)


def wide_int32_joint(x_idx, y_idx):
    # 70,000 atoms a side: nx * ny is past 2**31, so the flat index
    # x_idx * ny + y_idx of an int32 atom overflows int32
    support = np.arange(70_000.0)
    return FiniteJoint(support, support,
                       x_idx=np.array(x_idx, dtype=np.int32),
                       y_idx=np.array(y_idx, dtype=np.int32),
                       prob=np.array([0.5, 0.5]))


def test_row_major_int32_atoms_on_wide_supports_are_accepted():
    j = wide_int32_joint([0, 40_000], [69_999, 0])
    assert j.x_idx.tolist() == [0, 40_000]


def test_out_of_order_int32_atoms_on_wide_supports_are_rejected():
    with pytest.raises(InvalidDistribution, match="row-major"):
        wide_int32_joint([40_000, 0], [0, 1])


def test_joint_from_atoms_needs_an_atom():
    with pytest.raises(InvalidDistribution, match="at least one atom"):
        joint_from_atoms([])


@pytest.mark.parametrize("atoms, message", [
    ([((0.0,), (0.0,), 0.5), ((1.0, 2.0), (1.0,), 0.5)], "one length"),
    ([((0.0,), (0.0,), 0.5), ((1.0,), (1.0, 2.0), 0.5)], "one length"),
    ([((0.0,), (0.0,), 0.5), ((1.0,), (1.0,), -0.5)], "sum to 0.0"),
    ([((0.0,), (0.0,), -1.0)], "sum to -1.0"),
    ([((0.0,), (0.0,), math.inf)], "sum to inf"),
])
def test_joint_from_atoms_refuses_bad_atoms(atoms, message):
    # refused before numpy sees them: no bare ValueError, no warning
    with pytest.raises(InvalidDistribution, match=message):
        joint_from_atoms(atoms)


def test_joints_compare_and_hash_by_identity():
    j, copy = diagonal_pm1_joint(), diagonal_pm1_joint()
    assert j == j and j != copy and len({j, copy}) == 2
    ms = moments_exact(j)
    assert ms == ms and ms != moments_exact(copy)


def test_joint_needs_exactly_one_representation():
    xs, ys = np.array([[0.0]]), np.array([[0.0]])
    with pytest.raises(InvalidDistribution):
        FiniteJoint(xs, ys)
    with pytest.raises(InvalidDistribution):
        FiniteJoint(xs, ys, np.array([[1.0]]), x_idx=np.array([0]),
                    y_idx=np.array([0]), prob=np.array([1.0]))


# --------------------------------------------------------------------------
# SufficientJoint: a law of (X, Y) given through a statistic T(Y)
# --------------------------------------------------------------------------

# the Rademacher sum T = X + N observed as Y, where a fair coin splits T = 0
# into Y = -0.5 and Y = 0.5; Y = -2 and Y = 2 are T itself
SPLIT_SUM = {"y_support": [-2.0, -0.5, 0.5, 2.0], "y_stat": [0, 1, 1, 2],
             "y_given_stat": [1.0, 0.5, 0.5, 1.0]}


def split_sum_joint(**changes) -> SufficientJoint:
    fields = {**SPLIT_SUM, **changes}
    return SufficientJoint(
        changes.get("core", rademacher_sum_joint()),
        np.array(fields["y_support"]), np.array(fields["y_stat"]),
        np.array(fields["y_given_stat"]))


def test_sufficient_joint_exposes_the_marginals_and_keeps_the_mmse():
    j = split_sum_joint()
    atoms = FiniteJoint(
        x_support=j.x_support, y_support=j.y_support,
        pmf=np.array([[0.25, 0.125, 0.125, 0.0], [0.0, 0.125, 0.125, 0.25]]))
    np.testing.assert_array_equal(j.x_marginal(), atoms.x_marginal())
    np.testing.assert_array_equal(j.y_marginal(), atoms.y_marginal())
    assert mmse_exact(j).mmse == mmse_exact(atoms).mmse == 0.5
    assert not hasattr(j, "pmf")
    for arr in (j.y_support, j.y_stat, j.y_given_stat, j.y_marginal()):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("changes", [
    {"y_stat": [0, 1, 1, 3]},                        # letter out of range
    {"y_stat": [-1, 1, 1, 2]},                       # negative letter
    {"y_stat": [0.0, 1.0, 1.0, 2.0]},                # float letters
    {"y_stat": [0, 1, 2]},                           # one letter short
    {"y_given_stat": [1.0, 0.5, 0.5]},               # one mass short
    {"y_given_stat": [1.0, 1.5, -0.5, 1.0]},         # negative mass
    {"y_given_stat": [1.0, np.nan, 0.5, 1.0]},       # NaN mass
    {"y_given_stat": [1.0, np.inf, 0.5, 1.0]},       # infinite mass
    {"y_given_stat": [1.0, 0.5, 0.4, 1.0]},          # letter sums off 1
    {"y_stat": [0, 0, 2, 2],
     "y_given_stat": [0.5, 0.5, 0.5, 0.5]},          # letter with no atom
    {"y_support": [-2.0, 0.5, 0.5, 2.0]},            # repeated y atom
    {"y_support": [-2.0, np.nan, 0.5, 2.0]},         # non-finite y atom
    {"core": np.array([[0.5, 0.5]])},                # core is not a joint
])
def test_sufficient_joint_rejects_invalid_fields(changes):
    with pytest.raises(InvalidDistribution):
        split_sum_joint(**changes)


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
    j = FiniteJoint(np.array([[-1.0], [2.0]]), np.array([[0.0], [1.0], [5.0]]),
                    np.outer([0.25, 0.75], [0.5, 0.25, 0.25]))
    ms = moments_exact(j)
    np.testing.assert_allclose(ms.c_xy, np.zeros((1, 1)), atol=1e-10)


def test_moments_exact_refuses_a_sufficient_joint():
    # a SufficientJoint has no (X, Y) atoms to take the cross moments over
    joint = builtin_scenarios()["example2"].realize(16)
    assert isinstance(joint, SufficientJoint)
    with pytest.raises(InvalidDistribution, match="got SufficientJoint"):
        moments_exact(joint)


# --------------------------------------------------------------------------
# draw functions
# --------------------------------------------------------------------------

def test_empirical_measurement_second_moment_additive_noise():
    # Y = X + N/2 with unit-variance uniform parts: Var(Y) = 1 + 1/4.
    from mmse_lab.scenarios import builtin_scenarios

    draw = builtin_scenarios()["example4"].mc_sampler(2)
    xs, ys = np.empty((1_000_000, 1)), np.empty((1_000_000, 1))
    draw(rng_stream(123, "emp-cy"), xs, ys)
    y2 = (ys[:, 0] - ys[:, 0].mean()) ** 2
    se = y2.std() / math.sqrt(len(y2))
    assert abs(ys.var() - 1.25) <= 3.0 * se


# --------------------------------------------------------------------------
# floor_quantize
# --------------------------------------------------------------------------

def test_floor_quantize_reference_points():
    assert floor_quantize(np.array([2.7]), 1.0)[0] == 2.0
    assert floor_quantize(np.array([-0.3]), 0.25)[0] == -0.5
    assert floor_quantize(np.array([1.0]), 0.25)[0] == 1.0
    # 49 * (1/49) is 0.9999999999999999, yet 1 is a lattice point
    assert floor_quantize(np.array([1.0]), 1.0 / 49)[0] == 1.0


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
# x within the snap radius below a lattice point counts as that point, and
# is its own image
@example(x=-2.1548387431351975e-15, a=2.5)
@example(x=-2.8898570457831466e-130, a=64.0)
def test_floor_quantize_idempotent_and_in_cell(x, a):
    arr = np.array([x])
    q = floor_quantize(arr, a)
    q2 = floor_quantize(q, a)
    assert q2[0] == q[0]
    # output - input in (-a, 0] up to the ulp snap, whose radius is
    # 4 eps max(1, |x / a|) in units of the step a
    snap = 4.0 * np.finfo(float).eps * max(a, abs(x))
    assert q[0] - x <= snap
    assert q[0] - x > -a - snap


# --------------------------------------------------------------------------
# rng_stream
# --------------------------------------------------------------------------

def test_rng_stream_reproducible_and_tag_separated():
    a = rng_stream(5, "alpha").random(4)
    b = rng_stream(5, "alpha").random(4)
    c = rng_stream(5, "beta").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


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


@pytest.mark.parametrize("shapes", [
    dict(eta_x=(2,), c_x=(1, 1), c_xy=(2, 1)),  # c_x not k x k
    dict(eta_y=(2,), c_y=(1, 1), c_xy=(1, 2)),  # c_y not m x m
    dict(c_xy=(1, 2)),                          # c_xy not k x m
    dict(eta_x=(0,), c_x=(0, 0), c_xy=(0, 1)),  # no X coordinate
    dict(eta_y=(0,), c_y=(0, 0), c_xy=(1, 0)),  # no Y coordinate
])
def test_moment_summary_rejects_inconsistent_shapes(shapes):
    blocks = dict(eta_x=(1,), eta_y=(1,), c_x=(1, 1), c_y=(1, 1), c_xy=(1, 1))
    blocks.update(shapes)
    with pytest.raises(InvalidDistribution, match="shapes"):
        MomentSummary(**{name: np.zeros(shape) for name, shape in blocks.items()},
                      second_moment_x=0.0, second_moment_y=0.0)


def test_moment_summary_rejects_trace_mismatch():
    with pytest.raises(InvalidDistribution):
        MomentSummary(eta_x=np.zeros(1), eta_y=np.zeros(1),
                      c_x=np.eye(1), c_y=np.eye(1), c_xy=np.zeros((1, 1)),
                      second_moment_x=5.0, second_moment_y=1.0)


def rank_deficient_joint(seed: int, scale: float) -> FiniteJoint:
    """X = (x1, 0.3 x1, 1.7 x1 + 0.1 s) of size ``scale``, s = +-scale: Cov X
    has rank 2 at most."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, scale, 6)
    s = scale * rng.choice([-1.0, 1.0], 6)
    pmf = rng.exponential(1.0, (6, 3))
    return FiniteJoint(np.stack([x1, 0.3 * x1, 1.7 * x1 + 0.1 * s], axis=1),
                       np.arange(3.0), pmf / pmf.sum())


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
def test_moments_of_a_rank_deficient_x_are_accepted_at_every_scale(scale):
    # the rounding of a rank-deficient covariance leaves eigenvalues of
    # about -eps times its size; they must not read as indefinite
    for seed in range(20):
        ms = moments_exact(rank_deficient_joint(seed, scale))
        assert ms.c_x[1, 1] == pytest.approx(0.09 * ms.c_x[0, 0], rel=1e-12)


@pytest.mark.parametrize("c_x, message", [
    ([[1.0, 0.5], [-0.5, 1.0]], "c_x is not symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "c_x is not positive semidefinite"),
])
@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_relative_covariance_tolerances_refuse_at_every_scale(c_x, message,
                                                              scale):
    with pytest.raises(InvalidDistribution, match=message):
        MomentSummary(eta_x=np.zeros(2), eta_y=np.zeros(1),
                      c_x=scale * np.array(c_x), c_y=np.eye(1),
                      c_xy=np.zeros((2, 1)), second_moment_x=2.0 * scale,
                      second_moment_y=1.0)


def test_moment_summary_rejects_indefinite_covariance():
    with pytest.raises(InvalidDistribution):
        MomentSummary(eta_x=np.zeros(2), eta_y=np.zeros(1),
                      c_x=np.array([[1.0, 2.0], [2.0, 1.0]]),
                      c_y=np.eye(1), c_xy=np.zeros((2, 1)),
                      second_moment_x=2.0, second_moment_y=1.0)


@pytest.mark.parametrize("c_x, c_y", [(1.0, 1.0), (1e9, 1e9), (1.0, 1e12)])
def test_moment_summary_rejects_an_indefinite_joint_covariance(c_x, c_y):
    # each block is PSD, but |c_xy| = 2 sqrt(c_x c_y) exceeds what they
    # allow.  At mixed scales, (1, 1e12, 2e6), the smallest eigenvalue of
    # the joint covariance (about -3) is far inside a tolerance taken from
    # the largest variance (1e-10 * 1e12)
    def summary(corr):
        return MomentSummary(eta_x=np.zeros(1), eta_y=np.zeros(1),
                             c_x=[[c_x]], c_y=[[c_y]],
                             c_xy=[[corr * np.sqrt(c_x * c_y)]],
                             second_moment_x=c_x, second_moment_y=c_y)

    with pytest.raises(InvalidDistribution,
                       match="joint covariance is not positive semidefinite"):
        summary(2.0)
    # Y a multiple of X, whose joint covariance is singular, stays valid
    assert summary(1.0).c_xy[0, 0] == np.sqrt(c_x * c_y)
