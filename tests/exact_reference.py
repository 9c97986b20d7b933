"""The exact engine as written before its temporaries were made in place.

``exact.mmse_exact`` builds the conditional means and the residuals in
the buffer of the atoms' x values, gathers and weights in chunks
of atoms and accumulates with ``np.add.at``, as the joints' marginals now
do; ``convergence._second_moments`` and ``convergence.ui_functional``
square and weight in one buffer.  The versions below allocate a new array
for each step and sum with ``np.bincount``, in the same IEEE operations and
order, and leave out the self-checks, which change no value.
They are the reference that the in-place versions must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from mmse_lab.exact import ConditionalExpectation, MmseResult
from mmse_lab.probcore import FiniteJoint, SufficientJoint


def _conditional_expectation(joint: FiniteJoint):
    """The table, with the per-atom table rows and x values that built it."""
    py = np.bincount(joint.y_idx, weights=joint.prob,
                     minlength=joint.y_support.shape[0])
    keep = py > 0.0
    rows = (np.cumsum(keep) - 1)[joint.y_idx]
    mass = py[keep]
    xa = joint.x_support[joint.x_idx]  # (nnz, k)
    est = np.stack([np.bincount(rows, weights=joint.prob * xa[:, c],
                                minlength=mass.size)
                    for c in range(joint.k)], axis=1) / mass[:, None]
    ce = ConditionalExpectation(
        y_support=joint.y_support[keep],
        estimates=est,
        posterior_mass=mass,
        dropped_zero_mass=bool(not np.all(keep)),
    )
    return ce, rows, xa


def mmse_exact(joint: FiniteJoint | SufficientJoint) -> MmseResult:
    if isinstance(joint, SufficientJoint):
        joint = joint.core
    ce, rows, resid = _conditional_expectation(joint)
    xs = joint.x_support
    px = np.bincount(joint.x_idx, weights=joint.prob, minlength=xs.shape[0])
    resid -= ce.estimates[rows]
    resid *= resid
    direct = float((joint.prob * resid.sum(axis=1)).sum())
    sm_x = float(px @ (xs * xs).sum(axis=1))
    est_sm = float(ce.posterior_mass @ (ce.estimates * ce.estimates).sum(axis=1))
    return MmseResult(mmse=direct, estimator=ce, second_moment_x=sm_x,
                      estimator_second_moment=est_sm)


def _y_marginal(joint: FiniteJoint | SufficientJoint) -> np.ndarray:
    if isinstance(joint, SufficientJoint):
        return _y_marginal(joint.core)[joint.y_stat] * joint.y_given_stat
    return np.bincount(joint.y_idx, weights=joint.prob,
                       minlength=joint.y_support.shape[0])


def _x_marginal(joint: FiniteJoint | SufficientJoint) -> np.ndarray:
    core = joint.core if isinstance(joint, SufficientJoint) else joint
    return np.bincount(core.x_idx, weights=core.prob,
                       minlength=core.x_support.shape[0])


def second_moments(joint: FiniteJoint | SufficientJoint
                   ) -> tuple[float, float]:
    smx = math.fsum(_x_marginal(joint) * (joint.x_support ** 2).sum(axis=1))
    smy = math.fsum(_y_marginal(joint) * (joint.y_support ** 2).sum(axis=1))
    return smx, smy


def ui_functional(joint: FiniteJoint | SufficientJoint,
                  threshold: float) -> float:
    sq = (joint.x_support * joint.x_support).sum(axis=1)
    px = _x_marginal(joint)
    return float((px * sq * (sq > threshold)).sum())
