"""Two references for the garbling decision, in copies that share no helper.

``decide`` is ``degradedness.is_degraded`` as written before its reductions
called the ndarray methods directly, before witness (c) was set up only
when needed and before one KKT witness replaced the witnesses (a) and (c):
every helper it uses, the epigraph LP included, is a copy below, with
numpy's ``np.max``, ``np.clip``, ``np.linalg.norm`` and friends and the
projection of G0 recomputed wherever it is used.  Where it settles a pair
by the same route as the package, it must produce a bitwise-equal
certificate through the same epigraph calls.

``is_degraded`` is the earlier least-squares front end, in which
``np.linalg.lstsq`` gave G0 and its rank and ``np.linalg.pinv`` gave W1^+,
each by its own SVD.  It shares the helpers below with ``decide`` and the
epigraph LP with the package (``degradedness._epigraph``), so it differs
from ``decide`` only in how G0 and W1^+ are computed, and it has no
alternating projections.  It must reach the package's verdicts.
"""

from __future__ import annotations

import math

import numpy as np

from mmse_lab import degradedness
from mmse_lab.degradedness import (
    BOUND_SLACK,
    CERT_ROW_TOL,
    FEASIBILITY_TOL,
    HIGHS_OPTIONS,
    Channel,
    GarblingCertificate,
)
from mmse_lab.errors import SelfCheckError

WITNESS_STEPS = 16            # projected gradient steps of witness (c)


def _garbling(x, m1, m2):
    n_mid, n_out = m1.shape[1], m2.shape[1]
    g = np.clip(x[:n_mid * n_out].reshape(n_mid, n_out), 0.0, 1.0)
    return g, float(np.max(np.abs(m1 @ g - m2)))


def _row_sum_error(g):
    return float(np.max(np.abs(g.sum(axis=1) - 1.0)))


def _shown_feasible(g, residual, route):
    if _row_sum_error(g) > CERT_ROW_TOL:
        raise SelfCheckError("feasible garbling matrix is not row-stochastic")
    return GarblingCertificate(feasible=True, garbling_matrix=g,
                               residual=residual, test_matrix=None,
                               lower_bound=0.0, route=route)


def _simplex_rows(g):
    desc = -np.sort(-g, axis=1)
    excess = np.cumsum(desc, axis=1) - 1.0
    kept = np.count_nonzero(desc * np.arange(1, g.shape[1] + 1) > excess, axis=1)
    shift = excess[np.arange(g.shape[0]), kept - 1] / kept
    return np.maximum(g - shift[:, None], 0.0)


def _blackwell_bound(lam, m1, m2):
    return float(np.sum(lam * m2) - np.max(m1.T @ lam, axis=1).sum())


def _pseudo_inverse(m1):
    n_in, n_mid = m1.shape
    eps = np.finfo(float).eps
    if n_in == n_mid:
        try:
            inv = np.linalg.inv(m1)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.linalg.norm(m1, 1) * np.linalg.norm(inv, 1) <= 1.0 / (n_in * eps):
                return inv, n_in
    u, s, vt = np.linalg.svd(m1, full_matrices=False)
    rank = int(np.count_nonzero(s > eps * max(n_in, n_mid) * s[0]))
    return (vt[:rank].T / s[:rank]) @ u[:, :rank].T, rank


def _closed_form_witness(m1, m2, g0, pinv, rank):
    best = None

    def consider(lam, route):
        nonlocal best
        mass = float(np.abs(lam).sum())
        if mass > 0.0:
            lam = lam / mass
            bound = _blackwell_bound(lam, m1, m2)
            if best is None or bound > best[1]:
                best = (lam, bound, route)

    full_rank = rank == m1.shape[1]
    consider(m2 - m1 @ g0, "witness_a")
    if full_rank and g0.min() < 0.0:
        pinv_t = pinv.T
        k, j = np.unravel_index(
            np.argmax(-g0 / np.abs(pinv_t).sum(axis=0)[:, None]), g0.shape)
        lam = np.zeros_like(m2)
        lam[:, j] = -pinv_t[:, k]
        consider(lam, "witness_b")
    if not full_rank:
        return best
    step = 1.0 / (m1.sum(axis=0).max() * m1.sum(axis=1).max())
    g = _simplex_rows(g0)
    resid = m2 - m1 @ g
    for _ in range(WITNESS_STEPS):
        if best is not None and best[1] >= FEASIBILITY_TOL:
            break
        g = _simplex_rows(g + step * (m1.T @ resid))
        resid = m2 - m1 @ g
        consider(resid, "witness_c")
    return best


def _shown_infeasible(m1, m2, g, lam, route):
    residual = float(np.max(np.abs(m1 @ g - m2)))
    lower_bound = _blackwell_bound(lam, m1, m2)
    if not math.isfinite(lower_bound) or lower_bound > residual + BOUND_SLACK:
        raise SelfCheckError(
            f"Blackwell lower bound {lower_bound!r} is not a bound on the "
            f"residual {residual!r}")
    return GarblingCertificate(feasible=False, garbling_matrix=g,
                               residual=residual, test_matrix=lam,
                               lower_bound=lower_bound, route=route)


def _epigraph(m1, m2):
    from scipy.optimize import linprog

    n_in, n_mid = m1.shape
    n_out = m2.shape[1]
    n_g = n_mid * n_out
    cost = np.zeros(n_g + 1)
    cost[-1] = 1.0
    a_ub = np.empty((n_in, n_out, 2, n_g + 1))
    dev = a_ub[:, :, 0, :n_g].reshape(n_in, n_out, n_mid, n_out)
    np.multiply(m1[:, None, :, None], np.eye(n_out)[None, :, None, :], out=dev)
    np.negative(a_ub[:, :, 0, :n_g], out=a_ub[:, :, 1, :n_g])
    a_ub[..., -1] = -1.0
    a_ub = a_ub.reshape(2 * n_in * n_out, n_g + 1)
    b_ub = np.stack([m2.ravel(), -m2.ravel()], axis=1).ravel()
    a_eq = np.hstack([np.kron(np.eye(n_mid), np.ones(n_out)),
                      np.zeros((n_mid, 1))])
    b_eq = np.ones(n_mid)
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=[(0.0, None)] * n_g + [(0.0, None)],
                     method="highs", options=HIGHS_OPTIONS)
    if result.status != 0 or result.x is None:
        raise SelfCheckError(
            f"garbling LP did not solve cleanly (status {result.status}): "
            f"{result.message}")
    g, residual = _garbling(result.x, m1, m2)
    if residual < FEASIBILITY_TOL:
        return _shown_feasible(g, residual, "lp")
    duals = result.ineqlin.marginals.reshape(n_in, n_out, 2)
    lam = duals[..., 0] - duals[..., 1]
    mass = float(np.abs(lam).sum())
    if not mass > 0.0:
        raise SelfCheckError("garbling LP returned no dual test matrix")
    return _shown_infeasible(m1, m2, g, lam / mass, "lp")


def decide(w1: Channel, w2: Channel) -> GarblingCertificate:
    """``degradedness.is_degraded`` before its reductions were rewritten."""
    m1, m2 = w1.matrix, w2.matrix
    pinv, rank = _pseudo_inverse(m1)
    g0 = pinv @ m2
    g, residual = _garbling(g0.ravel(), m1, m2)
    route = "candidate"
    if (rank == m1.shape[1] and residual < FEASIBILITY_TOL
            and _row_sum_error(g) > CERT_ROW_TOL):
        g, residual = _garbling(_simplex_rows(g0).ravel(), m1, m2)
        route = "simplex"
    if residual < FEASIBILITY_TOL and _row_sum_error(g) <= CERT_ROW_TOL:
        return _shown_feasible(g, residual, route)
    witness = _closed_form_witness(m1, m2, g0, pinv, rank)
    if witness is not None and witness[1] >= FEASIBILITY_TOL:
        lam, _, route = witness
        return _shown_infeasible(m1, m2, _simplex_rows(g0), lam, route)
    return _epigraph(m1, m2)


def is_degraded(w1: Channel, w2: Channel) -> GarblingCertificate:
    """``degradedness.is_degraded`` with the least-squares front end."""
    m1, m2 = w1.matrix, w2.matrix
    g0, _, rank, _ = np.linalg.lstsq(m1, m2, rcond=None)
    g, residual = _garbling(g0.ravel(), m1, m2)
    if residual < FEASIBILITY_TOL and _row_sum_error(g) <= CERT_ROW_TOL:
        return _shown_feasible(g, residual, "candidate")
    witness = _closed_form_witness(m1, m2, g0, np.linalg.pinv(m1), rank)
    if witness is not None and witness[1] >= FEASIBILITY_TOL:
        lam, _, route = witness
        return _shown_infeasible(m1, m2, _simplex_rows(g0), lam, route)
    return degradedness._epigraph(m1, m2)
