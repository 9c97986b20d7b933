"""The LMMSE at 60 significant digits, with mpmath, sharing no code with
``mmse_lab.linear`` or ``mmse_lab.probcore``.

Every float input is read exactly (``mpmath.mpf`` of a binary float is
exact), and the textbook formulas are evaluated at 60 digits:

    A = C_XY C_Y^-1,   b = eta_X - A eta_Y,   value = trace(C_X - A C_XY^T).

C_Y must be nonsingular, or zero: a zero C_Y tells nothing, so A = 0 and
the value is trace(C_X).  Nothing is clamped; a value below zero means the
moments are not those of any pair.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


def _matrix(rows) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in rows])


def lmmse(eta_x, eta_y, c_x, c_y, c_xy):
    """(value, gain, offset) as mpmath numbers; gain and offset are
    mpmath matrices of shape (k, m) and (k, 1)."""
    with mpmath.workdps(DIGITS):
        cx, cy, cxy = _matrix(c_x), _matrix(c_y), _matrix(c_xy)
        ex = _matrix([[v] for v in eta_x])
        ey = _matrix([[v] for v in eta_y])
        if all(v == 0 for v in cy):
            gain = mpmath.zeros(cxy.rows, cxy.cols)
        else:
            gain = cxy * mpmath.inverse(cy)
        explained = gain * cxy.T
        value = mpmath.fsum(cx[i, i] - explained[i, i] for i in range(cx.rows))
        return value, gain, ex - gain * ey


def correlation(c_x, c_y, c_xy) -> mpmath.mpf:
    """c_xy / sqrt(c_x c_y) of scalar moments, exactly rounded at 60 digits;
    0 where a variance is 0."""
    with mpmath.workdps(DIGITS):
        den = mpmath.sqrt(mpmath.mpf(c_x) * mpmath.mpf(c_y))
        return mpmath.mpf(c_xy) / den if den else mpmath.mpf(0)
