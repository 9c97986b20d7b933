"""Best linear (affine) estimation from second-order statistics.

The optimal affine estimate of X from Y is A Y + b with

    A = C_XY C_Y^+        b = eta_X - A eta_Y

and achieves

    lmmse = trace( C_X - C_XY C_Y^+ C_XY^T ).

Singular measurement covariance is not an error: the pseudo-inverse is
taken on the eigenspace with eigenvalues above ``RANK_TOL_FACTOR`` times the
largest one, which amounts to discarding linearly dependent measurement
coordinates.  The trace form is cross-checked against the second-moment
difference  E||X||^2 - E||A Y + b||^2  on every call; forms that are not
finite raise SelfCheckError instead of passing the comparison.

The standard statement of continuity: if the means and covariances of
(X_n, Y_n) converge to those of (X, Y) and the limit C_Y is nonsingular,
the LMMSE of (X_n, Y_n) converges to that of (X, Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SelfCheckError
from .exact import _require_close
from .probcore import MomentSummary

RANK_TOL_FACTOR = 1e-9
FORM_TOL = 1e-8
CLAMP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LmmseResult:
    """Gain, offset, achieved value, and the measurement rank used."""

    gain: np.ndarray    # (k, m)
    offset: np.ndarray  # (k,)
    value: float
    c_y_rank: int
    clamped: bool = False


def lmmse(moments: MomentSummary) -> LmmseResult:
    """Best affine estimator and its mean square error.

    Never raises on singular C_Y; the computation projects onto the
    numerically nonzero eigenspace.  A value within CLAMP_TOL below zero is
    clamped to zero and flagged.
    """
    c_y = moments.c_y
    w, v = np.linalg.eigh((c_y + c_y.T) / 2.0)
    # a top eigenvalue <= 0 keeps none; the gain is then an empty product,
    # zeros of shape (k, m)
    kept = w > RANK_TOL_FACTOR * w[-1]
    vr = v[:, kept]
    gain = moments.c_xy @ vr @ (vr / w[kept]).T
    offset = moments.eta_x - gain @ moments.eta_y
    value = float(np.trace(moments.c_x - gain @ moments.c_xy.T))
    # cross-check: E||X||^2 - E||A Y + b||^2
    est_sm = float(np.trace(gain @ c_y @ gain.T)
                   + (gain @ moments.eta_y + offset) @ (gain @ moments.eta_y + offset))
    scale = max(1.0, abs(moments.second_moment_x))
    _require_close("LMMSE forms (trace vs second-moment)", value,
                   moments.second_moment_x - est_sm, FORM_TOL * scale)
    clamped = False
    if value < 0.0:
        if value < -CLAMP_TOL * scale:
            raise SelfCheckError(f"LMMSE {value!r} below -tolerance; moments invalid")
        value, clamped = 0.0, True
    return LmmseResult(gain=gain, offset=offset, value=value,
                       c_y_rank=int(kept.sum()), clamped=clamped)
