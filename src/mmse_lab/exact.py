"""Exact conditional expectation and MMSE on finite joints.

For a finite joint the conditional mean is a weighted column average,

    g(y_j) = sum_i x_i pmf[i, j] / P(Y = y_j),

and the minimum mean square error admits two algebraically equal forms,

    direct     = sum_ij pmf[i, j] ||x_i - g(y_j)||^2
    difference = E||X||^2 - E||g(Y)||^2.

One function, ``_mmse_exact``, builds the table of g and computes and
checks both forms on the first call for a joint.  It returns the direct
form, and the result, table included, is kept on the joint for every
later call and for ``conditional_expectation``.  The conditional means
and the direct form are sums over the joint's positive-mass atoms
(``x_idx, y_idx, prob``), so their cost follows the number of atoms, not
the dense (nx, ny) table; a ``SufficientJoint`` is reduced to its (X, T)
core first.  The difference form is the orthogonality principle in
disguise, so the agreement doubles as a structural self-check.

Its three checks share one scale s = max(1, E||X||^2): the two forms
agree to CHECK_TOL * s, the MMSE is at most trace(Cov X) + CHECK_TOL * s,
and E[g(Y)] equals E[X] to CHECK_TOL * sqrt(s), which bounds the rounding
of sums of size RMS(X).  A check whose compared values are not finite
(overflowing atoms, say) raises SelfCheckError instead of passing.

Memory: besides the joint and what it keeps, ``mmse_exact`` holds one
atom-sized (nnz, k) array, the x value of each atom, which becomes its
residual in place.  E||X||^2 is read from the law, which keeps it with its
marginals (``probcore._second_moments``), before that array exists.  The column
weights and the gathered estimates are made ``probcore.SAMPLE_CHUNK``
atoms at a time, and the residual is squared, weighted and summed in its
own buffer (for k > 1 the row sums take one more atom-sized array).
``x`` and ``r``, the last chunks of the two loops, are views of it and
are released with it.  The rest is sized by the supports, and so is the
result that stays with the joint: the estimator table over the
measurement letters with mass, and three numbers.  It lives as long as
the joint does, and holds no atom-sized array.  The joint's read-only
index and mass arrays are read by slicing, fancy indexing and
``np.add.at``, which use them in place (``np.bincount``, ``np.take`` copy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SelfCheckError
from .probcore import (FiniteJoint, SufficientJoint, _atoms, _cached, _chunks,
                       _core, _frozen, _second_moments, _squared_norms_in_place)

CHECK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
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


def conditional_expectation(joint: FiniteJoint | SufficientJoint
                            ) -> ConditionalExpectation:
    """Exact conditional mean table for a finite joint: the estimator of
    ``mmse_exact(joint)``, the same read-only object.  For a SufficientJoint
    the table is over the letters of T, not of Y."""
    return mmse_exact(joint).estimator


@dataclass(frozen=True, eq=False)
class MmseResult:
    """MMSE value together with the estimator that achieves it."""

    mmse: float
    estimator: ConditionalExpectation
    second_moment_x: float
    estimator_second_moment: float


def _require_finite(check: str, *values) -> None:
    """Raise SelfCheckError unless every compared value is finite: a NaN
    or infinite operand would make ``gap > tol`` False and pass silently."""
    if not all(math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()
               for v in values):
        raise SelfCheckError(f"{check}: non-finite values {values!r}")


def _require_close(check: str, a: float, b: float, tol: float) -> None:
    """Raise SelfCheckError unless the two forms ``a`` and ``b`` of one
    value are finite and within ``tol`` of each other."""
    _require_finite(check, a, b)
    if abs(a - b) > tol:
        raise SelfCheckError(f"{check} disagree: {a!r} vs {b!r}")


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
    joint = _core(joint)
    return _cached(joint, "_mmse", lambda: _mmse_exact(joint))


def _mmse_exact(joint: FiniteJoint) -> MmseResult:
    """``mmse_exact`` of a FiniteJoint, computed afresh; the result's
    arrays are read-only, since every later call shares them."""
    sm_x = _second_moments(joint)[0]
    eta_x = joint.x_marginal() @ joint.x_support
    scale = max(1.0, abs(sm_x))
    py = joint.y_marginal()
    keep = py > 0.0
    resid = joint.x_support[joint.x_idx]  # (nnz, k), each atom's x for now
    # the estimates by measurement letter; a letter without mass keeps a
    # zero row, which no atom reads
    by_letter = np.zeros((py.size, joint.k))
    for yi, prob, x in zip(_chunks(joint.y_idx), _chunks(joint.prob),
                           _chunks(resid)):
        for c in range(joint.k):
            # adds in atom order, as np.bincount does, but reads the
            # read-only y_idx in place, where np.bincount would copy it
            np.add.at(by_letter[:, c], yi, prob * x[:, c])
    by_letter /= np.where(keep, py, 1.0)[:, None]
    mass, est = py[keep], by_letter[keep]
    # law of total expectation: E[g(Y)] must equal E[X], up to the rounding
    # of sums of size RMS(X)
    eg = mass @ est
    _require_finite("law of total expectation", eta_x, eg)
    if np.max(np.abs(eta_x - eg)) > CHECK_TOL * math.sqrt(scale):
        raise SelfCheckError(
            f"law of total expectation violated: E[X]={eta_x!r} vs E[g(Y)]={eg!r}")
    for r, yi in zip(_chunks(resid), _chunks(joint.y_idx)):
        r -= by_letter[yi]
    sq = _squared_norms_in_place(resid)
    sq *= joint.prob
    direct = float(sq.sum())
    # x and r, the last chunks, are views that would keep the residual alive
    del resid, sq, x, r
    est_sm = float(mass @ (est * est).sum(axis=1))
    _require_close("MMSE forms (direct vs difference)", direct, sm_x - est_sm,
                   CHECK_TOL * scale)
    trace_cx = sm_x - float(eta_x @ eta_x)
    _require_finite("prior variance bound", trace_cx)
    if direct > trace_cx + CHECK_TOL * scale:
        raise SelfCheckError(
            f"MMSE {direct!r} exceeds prior variance {trace_cx!r}")
    ce = ConditionalExpectation(
        y_support=_frozen(joint.y_support[keep]), estimates=_frozen(est),
        posterior_mass=_frozen(mass), dropped_zero_mass=bool(not np.all(keep)))
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
    of length k.  A SufficientJoint, which has no (X, Y) atoms, is refused.
    """
    joint = _atoms(joint, "orthogonality_check")
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
