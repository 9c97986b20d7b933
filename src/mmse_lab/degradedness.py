"""Stochastic degradedness: channels, garbling feasibility, composition.

A channel W2 is a garbling (degraded version) of W1 over the same input
alphabet when W2 = W1 G for some row-stochastic G.  Deciding this is a
linear program; we solve the epigraph form

    minimize t   s.t.   |(W1 G - W2)_ij| <= t,   G >= 0,   G 1 = 1

with HiGHS and report the recomputed max-entry residual of the returned G
(never the solver's own objective value).  Feasibility means the residual
is strictly below the tolerance, so a tie at the boundary reads as "not
shown feasible".

Garbling a measurement can only destroy information, so the exact MMSE
after composing a channel onto Y never drops below the MMSE before —
``blackwell_verify`` checks exactly that on a finite joint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, InvalidDistribution, SelfCheckError
from .exact import mmse_exact
from .probcore import FiniteJoint, _as_support

ROW_SUM_TOL = 1e-12
FEASIBILITY_TOL = 1e-7
CERT_ROW_TOL = 1e-9


@dataclass(frozen=True)
class Channel:
    """Row-stochastic transition matrix between two finite alphabets."""

    input_support: np.ndarray   # (n_in, d)
    output_support: np.ndarray  # (n_out, d')
    matrix: np.ndarray          # (n_in, n_out)

    def __post_init__(self):
        ins = _as_support(self.input_support, "input_support")
        outs = _as_support(self.output_support, "output_support")
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (ins.shape[0], outs.shape[0]):
            raise InvalidDistribution(
                f"matrix shape {mat.shape} does not match alphabets "
                f"({ins.shape[0]}, {outs.shape[0]})")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0.0):
            raise InvalidDistribution("matrix entries must be finite and nonnegative")
        rows = mat.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
            raise InvalidDistribution(
                f"rows must sum to 1 within {ROW_SUM_TOL}; worst row sum {rows[np.argmax(np.abs(rows - 1.0))]!r}")
        for arr, fname in ((ins, "input_support"), (outs, "output_support"),
                           (mat, "matrix")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, fname, arr)


def binary_symmetric_channel(flip: float, support=(-1.0, 1.0)) -> Channel:
    """Symmetric binary channel on a two-letter alphabet."""
    if not 0.0 <= flip <= 1.0:
        raise InvalidDistribution(f"flip probability {flip!r} outside [0, 1]")
    alphabet = np.asarray(support, dtype=float)
    return Channel(input_support=alphabet, output_support=alphabet,
                   matrix=np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))


@dataclass(frozen=True)
class GarblingCertificate:
    """Outcome of the garbling feasibility program.

    ``garbling_matrix`` is the LP argmin (cleaned of sub-ulp negatives);
    when ``feasible`` it is row-stochastic within CERT_ROW_TOL and achieves
    ``residual`` = max-entry |W1 G - W2| below the tolerance used.
    """

    feasible: bool
    garbling_matrix: np.ndarray
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "garbling_matrix": [[float(v) for v in row]
                                for row in self.garbling_matrix],
            "residual": float(self.residual),
        }


def is_degraded(w1: Channel, w2: Channel,
                feasibility_tolerance: float = FEASIBILITY_TOL) -> GarblingCertificate:
    """Decide whether w2 = w1 G for some row-stochastic G.

    Both channels must share the input alphabet.  The residual reported is
    recomputed from the returned matrix, so the certificate stands on its
    own regardless of solver internals.
    """
    # scipy.optimize is slow to import and only this function needs it
    from scipy.optimize import linprog

    if not np.array_equal(w1.input_support, w2.input_support):
        raise AlphabetMismatch("channels do not share an input alphabet")
    m1 = w1.matrix
    m2 = w2.matrix
    n_in, n_mid = m1.shape
    n_out = m2.shape[1]
    n_g = n_mid * n_out
    cost = np.zeros(n_g + 1)
    cost[-1] = 1.0
    # |(W1 G - W2)_ij| <= t as the row pair (+dev, -dev) for each entry
    # (i, j): dev = kron(W1, I), whose row (i, j) picks sum_l W1_il G_lj.
    # It is written in place through a view, because a kron temporary
    # raises the peak memory of the solve at 32 letters by about 5 MiB.
    a_ub = np.empty((n_in, n_out, 2, n_g + 1))
    dev = a_ub[:, :, 0, :n_g].reshape(n_in, n_out, n_mid, n_out)
    np.multiply(m1[:, None, :, None], np.eye(n_out)[None, :, None, :], out=dev)
    np.negative(a_ub[:, :, 0, :n_g], out=a_ub[:, :, 1, :n_g])
    a_ub[..., -1] = -1.0
    a_ub = a_ub.reshape(2 * n_in * n_out, n_g + 1)
    b_ub = np.stack([m2.ravel(), -m2.ravel()], axis=1).ravel()
    # rows of G sum to one
    a_eq = np.hstack([np.kron(np.eye(n_mid), np.ones(n_out)),
                      np.zeros((n_mid, 1))])
    b_eq = np.ones(n_mid)
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=[(0.0, None)] * n_g + [(0.0, None)],
                     method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    if result.status != 0 or result.x is None:
        raise SelfCheckError(
            f"garbling LP did not solve cleanly (status {result.status}): "
            f"{result.message}")
    g = np.clip(result.x[:n_g].reshape(n_mid, n_out), 0.0, 1.0)
    residual = float(np.max(np.abs(m1 @ g - m2)))
    feasible = residual < feasibility_tolerance
    if feasible and np.max(np.abs(g.sum(axis=1) - 1.0)) > CERT_ROW_TOL:
        raise SelfCheckError("feasible garbling matrix is not row-stochastic")
    return GarblingCertificate(feasible=feasible, garbling_matrix=g,
                               residual=residual)


def compose(joint: FiniteJoint, channel: Channel) -> FiniteJoint:
    """Push the measurement of a joint through a channel.

    The channel input alphabet must equal the joint's measurement support
    atom-for-atom.  The prior (X marginal) is preserved exactly because
    channel rows sum to one.
    """
    if not np.array_equal(channel.input_support, joint.y_support):
        raise AlphabetMismatch(
            "channel input alphabet differs from the joint measurement support")
    return FiniteJoint(x_support=joint.x_support,
                       y_support=channel.output_support,
                       pmf=joint.pmf @ channel.matrix)


def blackwell_verify(joint: FiniteJoint, channel: Channel,
                     tol: float = 1e-10) -> tuple[float, float, bool]:
    """Exact MMSE before and after garbling the measurement.

    Returns (before, after, ordered) with ordered = after >= before - tol.
    Information processing makes `ordered` true for every valid input.
    """
    before = mmse_exact(joint).mmse
    after = mmse_exact(compose(joint, channel)).mmse
    return before, after, bool(after >= before - tol)
