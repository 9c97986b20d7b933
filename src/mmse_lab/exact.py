"""Exact conditional expectation and MMSE on finite joints.

For a finite joint the conditional mean is a weighted column average,

    g(y_j) = sum_i x_i pmf[i, j] / P(Y = y_j),

and the minimum mean square error admits two algebraically equal forms,

    direct     = sum_ij pmf[i, j] ||x_i - g(y_j)||^2
    difference = E||X||^2 - E||g(Y)||^2.

Both are computed on the first call for a joint and must agree to
CHECK_TOL; the direct form is returned, and kept on the joint for every
later call.  The conditional means and the direct form are sums over
the joint's positive-mass atoms (``x_idx, y_idx, prob``), so their cost
follows the number of atoms rather than the dense (nx, ny) table; a
``SufficientJoint`` is reduced to its (X, T) core first.  The
difference form is the orthogonality principle in disguise, so the
agreement doubles as a structural self-check.  A self-check whose
compared values are not finite (overflowing atoms, say) raises
SelfCheckError instead of passing.

Memory: besides the joint and its cached marginals, ``mmse_exact`` holds
one atom-sized (nnz, k) array, the x value of each atom, which becomes its
residual in place.  The column weights and the gathered estimates are made
``probcore.SAMPLE_CHUNK`` atoms at a time, and the residual is squared,
weighted and summed in its own buffer (for k > 1 the row sums take one
more atom-sized array).  The rest is sized by the supports, and so is the
result that stays with the joint: the estimator table over the
measurement letters with mass, and three numbers.  It lives as long as the
joint does, and holds no atom-sized array.  The joint's read-only index
and mass arrays are read by slicing, fancy indexing and ``np.add.at``,
which use them in place (``np.bincount``, ``np.take`` copy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptySupport, SelfCheckError
from .probcore import FiniteJoint, SufficientJoint, _cached, _chunks

CHECK_TOL = 1e-10


@dataclass(frozen=True)
class ConditionalExpectation:
    """Tabulated conditional mean estimate of X given Y = y.

    Only measurement atoms with positive mass are tabulated;
    ``dropped_zero_mass`` records whether any zero-mass column was removed.
    ``posterior_mass[j]`` is P(Y = y_support[j]); entries sum to 1.
    """

    y_support: np.ndarray       # (ny', m)
    estimates: np.ndarray       # (ny', k)
    posterior_mass: np.ndarray  # (ny',)
    dropped_zero_mass: bool


def conditional_expectation(joint: FiniteJoint) -> ConditionalExpectation:
    """Exact conditional mean table for a finite joint."""
    return _conditional_expectation(joint)[0]


def _conditional_expectation(joint: FiniteJoint) -> tuple[
        ConditionalExpectation, np.ndarray, np.ndarray]:
    """The table, with what built it, so that a caller does not repeat
    those whole-atom passes: the estimates indexed by measurement letter
    (ny, k) and the x value of each atom (nnz, k).  A letter without mass
    keeps a zero row, which no atom reads."""
    py = joint.y_marginal()
    keep = py > 0.0
    if not np.any(keep):
        raise EmptySupport("every measurement atom has zero probability")
    xa = joint.x_support[joint.x_idx]  # (nnz, k)
    by_letter = np.zeros((py.size, joint.k))
    for yi, prob, x in zip(_chunks(joint.y_idx), _chunks(joint.prob),
                           _chunks(xa)):
        for c in range(joint.k):
            # adds in atom order, as np.bincount does, but reads the
            # read-only y_idx in place, where np.bincount would copy it
            np.add.at(by_letter[:, c], yi, prob * x[:, c])
    mass = py[keep]
    est = by_letter[keep]
    est /= mass[:, None]
    by_letter[keep] = est
    ce = ConditionalExpectation(
        y_support=joint.y_support[keep],
        estimates=est,
        posterior_mass=mass,
        dropped_zero_mass=bool(not np.all(keep)),
    )
    # law of total expectation: E[g(Y)] must equal E[X]
    ex = joint.x_marginal() @ joint.x_support
    eg = ce.posterior_mass @ ce.estimates
    _require_finite("law of total expectation", ex, eg)
    if np.max(np.abs(ex - eg)) > CHECK_TOL * max(1.0, float(np.max(np.abs(ex)))):
        raise SelfCheckError(
            f"law of total expectation violated: E[X]={ex!r} vs E[g(Y)]={eg!r}")
    return ce, by_letter, xa


@dataclass(frozen=True)
class MmseResult:
    """MMSE value together with the estimator that achieves it."""

    mmse: float
    estimator: ConditionalExpectation
    second_moment_x: float
    estimator_second_moment: float


def squared_norms(points: np.ndarray) -> np.ndarray:
    """||p||^2 of each row of a (n, d) array, as a new (n,) array.

    The squares of scalar rows are the result, so no second array is made.
    """
    sq = points * points
    return sq[:, 0] if sq.shape[1] == 1 else sq.sum(axis=1)


def _squared_norms_in_place(resid: np.ndarray) -> np.ndarray:
    """Squared row norms of the (n, k) residual, squared in its buffer."""
    resid *= resid
    return resid[:, 0] if resid.shape[1] == 1 else resid.sum(axis=1)


def _require_finite(check: str, *values) -> None:
    """Raise SelfCheckError unless every compared value is finite: a NaN
    or infinite operand would make ``gap > tol`` False and pass silently."""
    if not all(math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()
               for v in values):
        raise SelfCheckError(f"{check}: non-finite values {values!r}")


def mmse_exact(joint: FiniteJoint | SufficientJoint) -> MmseResult:
    """Exact MMSE of estimating X from Y under a finite joint.

    Cross-checks the residual form against the second-moment difference
    form to CHECK_TOL and returns the residual (direct) form, which is
    nonnegative by construction.  Vector X contributes the trace.  A
    SufficientJoint is evaluated on its (X, T) core, since E[X | Y] =
    E[X | T(Y)]; its estimator is then tabulated over the letters of T.

    A joint cannot change, so it has one result: the first call computes
    and checks it and keeps it on the joint (a SufficientJoint on its
    core), with its arrays read-only, and every later call returns that
    same object.
    """
    if isinstance(joint, SufficientJoint):
        joint = joint.core
    return _cached(joint, "_mmse", lambda: _mmse_exact(joint))


def _mmse_exact(joint: FiniteJoint) -> MmseResult:
    """``mmse_exact`` of a FiniteJoint, computed afresh; the result's
    arrays are read-only, since every later call shares them."""
    ce, by_letter, resid = _conditional_expectation(joint)
    # the x value of each atom is no longer needed: make it the residual
    for r, yi in zip(_chunks(resid), _chunks(joint.y_idx)):
        r -= by_letter[yi]
    sq = _squared_norms_in_place(resid)
    sq *= joint.prob
    direct = float(sq.sum())
    # r, the last chunk, is a view that would keep the residual alive
    del resid, sq, r
    xs = joint.x_support
    px = joint.x_marginal()
    sm_x = float(px @ squared_norms(xs))
    est_sm = float(ce.posterior_mass @ (ce.estimates * ce.estimates).sum(axis=1))
    difference = sm_x - est_sm
    _require_finite("MMSE forms", direct, difference)
    scale = max(1.0, abs(sm_x))
    if abs(direct - difference) > CHECK_TOL * scale:
        raise SelfCheckError(
            f"MMSE forms disagree: direct={direct!r} difference={difference!r}")
    eta_x = px @ xs
    trace_cx = sm_x - float(eta_x @ eta_x)
    _require_finite("prior variance bound", trace_cx)
    if direct > trace_cx + CHECK_TOL * scale:
        raise SelfCheckError(
            f"MMSE {direct!r} exceeds prior variance {trace_cx!r}")
    for arr in (ce.y_support, ce.estimates, ce.posterior_mass):
        arr.setflags(write=False)
    return MmseResult(mmse=direct, estimator=ce, second_moment_x=sm_x,
                      estimator_second_moment=est_sm)


def orthogonality_check(
    joint: FiniteJoint,
    test_functions: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> float:
    """Largest |E[(X - g(Y))^T h(Y)]| over the given test functions, where
    g is the joint's ``conditional_expectation`` table.

    This is zero up to rounding for every bounded h; the tests shift g off
    the conditional mean to show that the check can fail.  Each test
    function maps a measurement atom (1-D array of length m) to a vector
    of length k.
    """
    ce = conditional_expectation(joint)
    # the table row of each atom: the table lists the positive-mass
    # measurement columns in order, and every atom sits in one of them
    rows = (np.cumsum(joint.y_marginal() > 0.0) - 1)[joint.y_idx]
    weighted = joint.prob[:, None] * (joint.x_support[joint.x_idx]
                                      - ce.estimates[rows])  # (nnz, k)
    worst = 0.0
    for h in test_functions:
        hv = np.stack([np.atleast_1d(np.asarray(h(y), dtype=float))
                       for y in ce.y_support])  # (ny', k)
        worst = max(worst, abs(float((weighted * hv[rows]).sum())))
    return worst
