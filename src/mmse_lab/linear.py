"""Best linear (affine) estimation from second-order statistics.

The optimal affine estimate of X from Y is A Y + b with

    A = C_XY C_Y^+        b = eta_X - A eta_Y

and achieves

    lmmse = trace( C_X - C_XY C_Y^+ C_XY^T ).

All three come from the ``probcore.schur_split`` that ``MomentSummary``
accepted the moments on and kept: C_Y is inverted where, scaled to about unit
variances, its eigenvalues exceed ``MOMENT_TOL``, and the value is clamped
at the split's slack.  On every call the returned gain and offset must
reproduce the value as E||X||^2 - E||A Y + b||^2 and E[X] as A E[Y] + b;
forms that are not finite raise SelfCheckError.

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

FORM_TOL = 1e-8


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

    A value within the split's slack below zero is clamped to zero and
    flagged.  Nothing that ``MomentSummary`` accepted raises; SelfCheckError
    means a summary changed after construction, or an engine bug.
    """
    p, gain, offset, rank, remainder, slack = moments._split
    unscale = -2 * p[:gain.shape[0]]  # back to the units of X
    value = float(np.ldexp(remainder.diagonal()[:unscale.size], unscale).sum())
    # E||A Y + b||^2 = trace(A C_Y A^T) + ||eta_X||^2, through the returned
    # gain and the raw C_Y, whose rounding grows with the gain as S's does
    scale = max(1.0, abs(moments.second_moment_x))
    _require_close("LMMSE forms (trace vs second-moment)", value,
                   moments.second_moment_x - moments.eta_x @ moments.eta_x
                   - float(((gain @ moments.c_y) * gain).sum()),
                   (FORM_TOL + slack) * scale)
    # the error X - A Y - b has mean zero, to the rounding of the offset,
    # which a large A eta_Y can make far larger than Var X
    bias = moments.eta_x - gain @ moments.eta_y - offset
    size = np.abs(moments.eta_x) + np.abs(gain) @ np.abs(moments.eta_y)
    _require_close("LMMSE means (E[X] vs E[A Y + b])", float(np.abs(bias).sum()),
                   0.0, FORM_TOL * float(size.sum()))
    clamped = False
    if value < 0.0:
        if value < -float(np.ldexp(slack, unscale).sum()):
            raise SelfCheckError(f"LMMSE {value!r} below -tolerance; moments invalid")
        value, clamped = 0.0, True
    return LmmseResult(gain=gain, offset=offset, value=value,
                       c_y_rank=rank, clamped=clamped)
