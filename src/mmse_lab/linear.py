"""Best linear (affine) estimation from second-order statistics.

The optimal affine estimate of X from Y is A Y + b with

    A = C_XY C_Y^+        b = eta_X - A eta_Y

and achieves

    lmmse = trace( C_X - C_XY C_Y^+ C_XY^T ).

Singular measurement covariance is not an error: the pseudo-inverse is
taken on the eigenspace with eigenvalues above ``rank_tolerance`` times the
largest one, which amounts to discarding linearly dependent measurement
coordinates.  The trace form is cross-checked against the second-moment
difference  E||X||^2 - E||A Y + b||^2  on every call; forms that are not
finite raise SelfCheckError instead of passing the comparison.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SelfCheckError, SingularLimitCovariance
from .probcore import MomentSummary

RANK_TOL_FACTOR = 1e-9
FORM_TOL = 1e-8
CLAMP_TOL = 1e-10


@dataclass(frozen=True)
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
    w_max = float(w[-1]) if w.size else 0.0
    if w_max <= 0.0:
        kept = np.zeros(w.size, dtype=bool)
    else:
        kept = w > RANK_TOL_FACTOR * w_max
    rank = int(kept.sum())
    if rank == 0:
        gain = np.zeros((moments.eta_x.shape[0], moments.eta_y.shape[0]))
    else:
        vr = v[:, kept]
        inv = vr / w[kept]
        gain = moments.c_xy @ vr @ inv.T
    offset = moments.eta_x - gain @ moments.eta_y
    value = float(np.trace(moments.c_x - gain @ moments.c_xy.T))
    # cross-check: E||X||^2 - E||A Y + b||^2
    est_sm = float(np.trace(gain @ c_y @ gain.T)
                   + (gain @ moments.eta_y + offset) @ (gain @ moments.eta_y + offset))
    alt = moments.second_moment_x - est_sm
    if not (math.isfinite(value) and math.isfinite(alt)):
        raise SelfCheckError(
            f"LMMSE forms are non-finite: trace={value!r} second-moment={alt!r}")
    scale = max(1.0, abs(moments.second_moment_x))
    if abs(value - alt) > FORM_TOL * scale:
        raise SelfCheckError(
            f"LMMSE forms disagree: trace={value!r} second-moment={alt!r}")
    clamped = False
    if value < 0.0:
        if value < -CLAMP_TOL * scale:
            raise SelfCheckError(f"LMMSE {value!r} below -tolerance; moments invalid")
        value, clamped = 0.0, True
    return LmmseResult(gain=gain, offset=offset, value=value,
                       c_y_rank=rank, clamped=clamped)


class ConvergenceVerdict(enum.Enum):
    CONVERGES = "CONVERGES"
    DIVERGES_AS_PREDICTED = "DIVERGES_AS_PREDICTED"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class LmmseSequenceReport:
    """Per-index values, the limit value, and the tail verdict."""

    verdict: ConvergenceVerdict
    values: tuple[float, ...]
    limit_value: float
    tail_gap: float


def tail_window(length: int) -> int:
    """Number of trailing entries making up the audit window (last 25%)."""
    return max(1, math.ceil(length / 4))


def lmmse_sequence_limit(
    moments_seq: Sequence[MomentSummary],
    moments_limit: MomentSummary,
    tol: float,
    expected_gap: float | None = None,
) -> LmmseSequenceReport:
    """Audit an LMMSE trajectory against the value at the limit moments.

    The limit C_Y must be numerically invertible — convergence of second
    moments only controls the limit LMMSE when it is.  A singular limit
    raises SingularLimitCovariance with the per-index values attached so
    the trajectory can still be inspected.

    Verdict over the tail window (last 25% of the sequence, summarised by
    its mean): CONVERGES if the tail mean is within ``tol`` of the limit
    value; DIVERGES_AS_PREDICTED if an ``expected_gap`` was registered and
    the tail mean is within ``tol`` of limit + gap; VIOLATION otherwise.
    """
    if not moments_seq:
        raise SelfCheckError("moments_seq must be non-empty")
    values = tuple(lmmse(ms).value for ms in moments_seq)
    c_y = moments_limit.c_y
    w = np.linalg.eigvalsh((c_y + c_y.T) / 2.0)
    if float(w[0]) <= RANK_TOL_FACTOR * max(float(w[-1]), 0.0) or float(w[-1]) <= 0.0:
        raise SingularLimitCovariance(
            "limit measurement covariance is singular; sequence audit undefined",
            per_n_values=values)
    limit_value = lmmse(moments_limit).value
    tail = values[len(values) - tail_window(len(values)):]
    tail_gap = abs(math.fsum(tail) / len(tail) - limit_value)
    if tail_gap <= tol:
        verdict = ConvergenceVerdict.CONVERGES
    elif expected_gap is not None and abs(tail_gap - expected_gap) <= tol:
        verdict = ConvergenceVerdict.DIVERGES_AS_PREDICTED
    else:
        verdict = ConvergenceVerdict.VIOLATION
    return LmmseSequenceReport(verdict=verdict, values=values,
                               limit_value=limit_value, tail_gap=tail_gap)
