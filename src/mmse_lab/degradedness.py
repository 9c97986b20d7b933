"""Stochastic degradedness: channels, garbling feasibility, composition.

A channel W2 is a garbling (degraded version) of W1 over the same input
alphabet when W2 = W1 G for some row-stochastic G.  ``is_degraded``
decides this in up to four steps, each tried only when the ones before
it leave the pair open:

1. *The candidate* (route "candidate") G = W1^+ W2, clipped to [0, 1],
   answers "yes" when its residual is below the tolerance and its rows sum
   to one within CERT_ROW_TOL.  W1 is factorized once per decision: a
   square W1 by LU (its explicit inverse), unless the inverse fails, has a
   non-finite entry or ||W1||_1 ||W1^-1||_1 exceeds 1 / (n eps), the cutoff
   that least squares puts on singular values; every other W1 by one SVD,
   which gives the minimum-norm candidate and the rank at that cutoff.
2. *A closed-form "no"*: a refused candidate yields Blackwell's test
   matrix (below), when W1 has full column rank, from a row of W1^+ that
   exposes a negative entry of G0 (route "witness_b"), and otherwise, or
   when that proves too little, from the KKT multiplier of the fit that
   the alternating projections seek, at G0's rows projected onto the
   simplex ("witness_a"; see ``_closed_form_witness``).  When that bound
   reaches the tolerance, no row-stochastic G comes within it.  Witness
   (a) proves every "no" that (b) proves, yet (b) stays: it settles every
   "no" of the inputs that ``scripts/route_counts.py`` counts, and without
   it the ``garbling_lp`` benchmark runs about 12% fewer operations per
   second (2-vCPU Xeon VM, one OpenBLAS thread).
3. *Alternating projections* (route "projection"; von Neumann's method,
   Bauschke & Borwein 1996, *SIAM Review* 38): from the candidate's rows
   projected onto the simplex, each step maps G to its projection
   G - W1^+ (W1 G - W2) onto {G : W1 G = W2}, then projects each row onto
   the simplex.  Each iterate is checked as the candidate is, and the loop
   never answers "no".  A W1 of full column rank makes the candidate the
   one solution of W1 G = W2, whose rows miss their sum only by rounding
   that an ill-conditioned W1 magnifies, so it gets one check; any other
   W1 gets up to PROJECTION_STEPS, ending early at a non-finite iterate.
   When that one check leaves a W1 of full column rank open, witness (a)
   is formed once more, for W1 without its singular values at or below
   FEASIBILITY_TOL * s_max and at its own projected candidate: an
   ill-conditioned W1 can make W1^+ long enough to swamp the bounds of
   step 2.
4. *The epigraph LP* (route "lp"), solved with HiGHS, which alone
   decides every pair:

       minimize t   s.t.   |(W1 G - W2)_ij| <= t,   G >= 0,   G 1 = 1.

   Its constraints, the sparse Kronecker products kron(W1, I) and
   kron(I, 1^T), hold O(n_in n_mid n_out) nonzeros, and their build peaks
   at a few times the CSC arrays HiGHS gets.  Its G answers "yes" on the
   recomputed residual and row sums, whatever status HiGHS reports; a
   "no" needs a clean solve and finite duals.

Every certificate reports the recomputed max-entry residual of the
returned G (never the solver's own objective value).  Feasibility means
the residual is strictly below the tolerance, so a tie at the boundary
reads as "not shown feasible".  The candidate and the projections only
ever answer "yes" with such a residual, and the epigraph optimum is at
most that residual, so the epigraph form would have answered "yes" as
well.  Likewise a closed-form "no" is one the epigraph form would have
given.

A "no" carries Blackwell's dual witness (Blackwell 1953, *Equivalent
comparisons of experiments*): a test matrix Lambda with ||Lambda||_1 = 1
for which

    <Lambda, W2> - sum_l max_j (W1^T Lambda)_lj  <=  max_ij |(W1 G - W2)_ij|

for every row-stochastic G.  The left side is recomputed in closed form,
so the lower bound stands on its own as the residual does.  A closed-form
"no" reports the certified interval [lower_bound, residual], where the
residual belongs to the candidate with each row projected onto the
simplex; the two meet at the min-max optimum only when the witness comes
from the epigraph LP's duals, which is where every other "no" reads
Lambda.

Which factorization produced G and Lambda never decides soundness: every
residual and bound is recomputed from the returned matrices.  Their bits
can depend on the BLAS thread count, though.  The LU route's certificate
bits differ between one and two OpenBLAS threads on random square pairs
from 128 letters on (least squares first differed at 256); on the 128-
and 256-letter pairs the tests decide, the verdicts and LP calls do not.

Garbling a measurement can only destroy information, so the exact MMSE
after composing a channel onto Y never drops below the MMSE before —
``blackwell_verify`` checks exactly that on a finite joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, InvalidDistribution, SelfCheckError
from .exact import mmse_exact
from .probcore import (FiniteJoint, _as_array, _as_support, _atoms,
                       _check_masses, _check_sums, _freeze)

FEASIBILITY_TOL = 1e-7
ORDER_TOL = 1e-10             # garbling may lower the exact MMSE by this much
CERT_ROW_TOL = 1e-9
BOUND_SLACK = 1e-12           # a dual lower bound may exceed the residual by this
PROJECTION_STEPS = 500        # alternating projections without full column rank
EPS = np.finfo(float).eps
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition matrix between two finite alphabets.

    Each alphabet is a support as ``FiniteJoint`` takes one: a non-empty
    1-D or 2-D array of finite, pairwise distinct letters (0.0 and -0.0
    are the same letter).  The constructor raises InvalidDistribution for
    ragged or non-numeric input, for a support that is not, for a matrix
    whose shape is not (n_in, n_out), for a non-finite or negative entry,
    and for a row that does not sum to 1 within ``probcore.PMF_TOL``.  It
    stores read-only copies of all three arrays, so a caller that changes
    its own arrays later does not change the channel.
    """

    input_support: np.ndarray   # (n_in, d)
    output_support: np.ndarray  # (n_out, d')
    matrix: np.ndarray          # (n_in, n_out)

    def __post_init__(self):
        ins = _as_support(self.input_support, "input_support")
        outs = _as_support(self.output_support, "output_support")
        mat = _as_array(self.matrix, "matrix")
        if mat.shape != (ins.shape[0], outs.shape[0]):
            raise InvalidDistribution(
                f"matrix shape {mat.shape} does not match alphabets "
                f"({ins.shape[0]}, {outs.shape[0]})")
        _check_masses(mat, "matrix entries")
        _check_sums(mat.sum(axis=1), "row")
        _freeze(self, input_support=ins.copy(), output_support=outs.copy(),
                matrix=mat.copy())


def binary_symmetric_channel(flip: float) -> Channel:
    """Symmetric binary channel on the alphabet {-1, 1}."""
    if not 0.0 <= flip <= 1.0:
        raise InvalidDistribution(f"flip probability {flip!r} outside [0, 1]")
    alphabet = np.array([-1.0, 1.0])
    return Channel(input_support=alphabet, output_support=alphabet,
                   matrix=np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))


@dataclass(frozen=True, eq=False)
class GarblingCertificate:
    """Outcome of the garbling feasibility program.

    ``garbling_matrix`` is the candidate W1^+ W2, an iterate of the
    alternating projections or the LP argmin, clipped to [0, 1] (see the
    module docstring); when ``feasible`` it is row-stochastic within
    CERT_ROW_TOL and achieves ``residual`` = max-entry |W1 G - W2| below
    FEASIBILITY_TOL.  When not ``feasible``, ``test_matrix`` is
    Blackwell's witness Lambda (n_in, n_out) with ||Lambda||_1 = 1, and
    ``lower_bound`` its recomputed bound on max |W1 G - W2| over every
    row-stochastic G; a "yes" has no witness (None) and bound 0.0.

    A "no" reports the interval [lower_bound, residual] around the best
    achievable residual.  It is tight only when the epigraph LP decided
    the pair; a closed-form "no" pairs its witness with the candidate
    W1^+ W2 projected onto the simplex, whose residual may be far above.

    ``route`` names the step of the module docstring that settled the
    pair: "candidate" or "projection" (a "yes" from W1^+ W2 or from the
    alternating projections that start at its rows projected onto the
    simplex), "witness_b" or "witness_a" (a closed-form "no", see
    ``_closed_form_witness``) or "lp" (either answer, from the epigraph
    LP).
    """

    feasible: bool
    garbling_matrix: np.ndarray
    residual: float
    test_matrix: np.ndarray | None
    lower_bound: float
    route: str


def _garbling(x: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, float]:
    """G from the leading entries of a solution vector, and its residual."""
    n_mid, n_out = m1.shape[1], m2.shape[1]
    g = x[:n_mid * n_out].reshape(n_mid, n_out).clip(0.0, 1.0)
    return g, float(np.abs(m1 @ g - m2).max())


def _row_sum_error(g: np.ndarray) -> float:
    return float(np.abs(g.sum(axis=1) - 1.0).max())


def _shown_feasible(g: np.ndarray, residual: float,
                    route: str) -> GarblingCertificate:
    """A "yes" for g, whose rows sum to one within CERT_ROW_TOL."""
    return GarblingCertificate(feasible=True, garbling_matrix=g,
                               residual=residual, test_matrix=None,
                               lower_bound=0.0, route=route)


def _simplex_rows(g: np.ndarray) -> np.ndarray:
    """Each row of g projected onto the probability simplex (Euclidean)."""
    desc = -g
    desc.sort(axis=1)
    np.negative(desc, out=desc)
    excess = desc.cumsum(axis=1) - 1.0
    # the entries kept positive are the leading run of the sorted row
    kept = (desc * np.arange(1, g.shape[1] + 1) > excess).sum(axis=1)
    shift = excess[np.arange(g.shape[0]), kept - 1] / kept
    return np.maximum(g - shift[:, None], 0.0)


def _blackwell_bound(lam: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> float:
    """<Lambda, W2> - sum_l max_j (W1^T Lambda)_lj for ||Lambda||_1 = 1."""
    return float((lam * m2).sum() - (m1.T @ lam).max(axis=1).sum())


def _pseudo_inverse(m1: np.ndarray) -> tuple[np.ndarray, int]:
    """W1^+ and the rank of W1, from one factorization of W1.

    A square W1 is inverted by LU when it is full rank by the rule of the
    module docstring; a non-finite inverse fails that rule too, since it
    makes the condition number non-finite.  Every other W1 goes through
    one SVD, with singular values at or below eps * max(n_in, n_mid) * s_max
    counted as zero, as least squares with numpy's default cutoff
    counts them.
    """
    n_in, n_mid = m1.shape
    if n_in == n_mid:
        try:
            inv = np.linalg.inv(m1)
        except np.linalg.LinAlgError:
            pass
        else:
            # ||A||_1, the largest column sum of |A|, as np.linalg.norm(A, 1)
            if (np.abs(m1).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
                    <= 1.0 / (n_in * EPS)):
                return inv, n_in
    return _svd_pseudo_inverse(m1, EPS * max(n_in, n_mid))


def _svd_pseudo_inverse(m1: np.ndarray, cutoff: float) -> tuple[np.ndarray, int]:
    """W1^+ from one SVD, with singular values at or below cutoff * s_max
    counted as zero, and the rank that leaves."""
    u, s, vt = np.linalg.svd(m1, full_matrices=False)
    rank = int(np.count_nonzero(s > cutoff * s[0]))
    return (vt[:rank].T / s[:rank]) @ u[:, :rank].T, rank


def _closed_form_witness(m1: np.ndarray, m2: np.ndarray, g0: np.ndarray,
                         projected: np.ndarray, pinv: np.ndarray,
                         rank: int) -> tuple[np.ndarray, float, str] | None:
    """Blackwell's test matrix from a refused candidate G0 = W1^+ W2.

    ``projected`` is G0 with each row projected onto the simplex.  Two
    test matrices are tried in turn, each with ||Lambda||_1 = 1:

    (b) when W1 has full column rank and G0 a negative entry,
        Lambda ~ -W1^{+T} e_k e_j^T, so that W1^T Lambda picks -G0_kj
        alone and the bound is -G0_kj / ||W1^{+T} e_k||_1, largest at some
        negative entry of G0;
    (a) Lambda ~ (I - W1 W1^+) R + (W1 W1^T)^+ R for R = W2 - W1 G at
        G = ``projected``: the KKT multiplier of
        min ||W1^+ (W1 G - W2)||_F^2 over row-stochastic G, with
        W1^T Lambda = W1^+ R.  At that minimizer the bound is
        (||(I - W1 W1^+) R||_F^2 + ||W1^+ R||_F^2) / ||Lambda||_1, positive
        exactly when the pair is infeasible.  With full column rank the
        minimizer is ``projected`` itself; otherwise it is where the
        alternating projections head, and the bound at their start may
        fall short.

    Returns (Lambda, bound, route) for the first that proves
    FEASIBILITY_TOL, route naming it as ``GarblingCertificate.route``
    does; None when neither does.
    """
    if rank == m1.shape[1] and g0.min() < 0.0:
        pinv_t = pinv.T
        k, j = np.unravel_index(
            (-g0 / np.abs(pinv_t).sum(axis=0)[:, None]).argmax(), g0.shape)
        lam = np.zeros(m2.shape)
        lam[:, j] = -pinv_t[:, k]
        witness = _proof(lam, m1, m2, "witness_b")
        if witness is not None:
            return witness
    return _kkt_witness(m1, m2, projected, pinv)


def _kkt_witness(m1: np.ndarray, m2: np.ndarray, g: np.ndarray,
                 pinv: np.ndarray) -> tuple[np.ndarray, float, str] | None:
    """Witness (a) at g for the pseudo-inverse ``pinv`` of W1."""
    resid = m2 - m1 @ g
    back = pinv @ resid
    return _proof(resid - m1 @ back + pinv.T @ back, m1, m2, "witness_a")


def _proof(lam: np.ndarray, m1: np.ndarray, m2: np.ndarray,
           route: str) -> tuple[np.ndarray, float, str] | None:
    """(Lambda / ||Lambda||_1, its bound, route) if the bound proves
    FEASIBILITY_TOL; None otherwise, or for a zero or NaN lam."""
    mass = float(np.abs(lam).sum())
    if not mass > 0.0:
        return None
    lam = lam / mass
    bound = _blackwell_bound(lam, m1, m2)
    return (lam, bound, route) if bound >= FEASIBILITY_TOL else None


def _shown_infeasible(m1: np.ndarray, m2: np.ndarray, g: np.ndarray,
                      lam: np.ndarray, lower_bound: float,
                      route: str) -> GarblingCertificate:
    """A "no" for g, with ``lower_bound`` = _blackwell_bound(lam, m1, m2)."""
    residual = float(np.abs(m1 @ g - m2).max())
    if not math.isfinite(lower_bound) or lower_bound > residual + BOUND_SLACK:
        raise SelfCheckError(
            f"Blackwell lower bound {lower_bound!r} is not a bound on the "
            f"residual {residual!r}")
    return GarblingCertificate(feasible=False, garbling_matrix=g,
                               residual=residual, test_matrix=lam,
                               lower_bound=lower_bound, route=route)


def is_degraded(w1: Channel, w2: Channel) -> GarblingCertificate:
    """Decide whether w2 = w1 G for some row-stochastic G.

    Both channels must share the input alphabet.  The answer is "yes" when
    the recomputed max-entry residual of the returned G is below
    FEASIBILITY_TOL.  A "no" carries a test matrix whose lower bound is
    recomputed too, so the certificate stands on its own regardless of
    solver internals.
    """
    if not np.array_equal(w1.input_support, w2.input_support):
        raise AlphabetMismatch("channels do not share an input alphabet")
    m1 = w1.matrix
    m2 = w2.matrix
    pinv, rank = _pseudo_inverse(m1)
    g0 = pinv @ m2
    g, residual = _garbling(g0.ravel(), m1, m2)
    if residual < FEASIBILITY_TOL and _row_sum_error(g) <= CERT_ROW_TOL:
        return _shown_feasible(g, residual, "candidate")
    # the one projection of G0 a decision makes: the G of a closed-form
    # "no" and of witness (a), and the start of the alternating projections
    projected = _simplex_rows(g0)
    witness = _closed_form_witness(m1, m2, g0, projected, pinv, rank)
    if witness is not None:
        return _shown_infeasible(m1, m2, projected, *witness)
    # the alternating projections of the module docstring, from G0 projected
    g = projected
    for _ in range(1 if rank == m1.shape[1] else PROJECTION_STEPS):
        g = g.clip(0.0, 1.0)
        excess = m1 @ g - m2
        residual = float(np.abs(excess).max())
        if not math.isfinite(residual):
            break
        if residual < FEASIBILITY_TOL and _row_sum_error(g) <= CERT_ROW_TOL:
            return _shown_feasible(g, residual, "projection")
        g = _simplex_rows(g - pinv @ excess)
    if rank == m1.shape[1]:
        # an ill-conditioned W1 makes W1^+ long, which swamps the bounds of
        # (b) and (a): form (a) once more without the singular values at or
        # below FEASIBILITY_TOL * s_max, along which W1 moves a G by less
        # than the tolerance
        pinv, kept = _svd_pseudo_inverse(m1, FEASIBILITY_TOL)
        if kept < rank:
            witness = _kkt_witness(m1, m2, _simplex_rows(pinv @ m2), pinv)
            if witness is not None:
                return _shown_infeasible(m1, m2, projected, *witness)
    return _epigraph(m1, m2)


def _epigraph(m1: np.ndarray, m2: np.ndarray) -> GarblingCertificate:
    """Decide the pair with the epigraph LP, reading a "no" from its duals."""
    n_in, n_mid = m1.shape
    n_out = m2.shape[1]
    n_g = n_mid * n_out
    # scipy.optimize is slow to import, and only the epigraph LP needs it
    from scipy import sparse
    from scipy.optimize import linprog

    cost = np.zeros(n_g + 1)
    cost[-1] = 1.0
    # |(W1 G - W2)_ij| <= t as the row pair (+dev, -dev) for each entry
    # (i, j): dev = kron(W1, I), whose row (i, j) picks sum_l W1_il G_lj.
    # The inner product is COO: a BSR one would store explicit zeros.
    dev = sparse.kron(m1, sparse.identity(n_out, format="coo"), format="coo")
    a_ub = sparse.hstack([sparse.kron(dev, [[1.0], [-1.0]]),
                          np.full((2 * n_in * n_out, 1), -1.0)])
    b_ub = np.stack([m2.ravel(), -m2.ravel()], axis=1).ravel()
    # rows of G sum to one
    a_eq = sparse.hstack([sparse.kron(sparse.identity(n_mid, format="coo"),
                                      [np.ones(n_out)]),
                          np.zeros((n_mid, 1))])
    b_eq = np.ones(n_mid)
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=(0.0, None),
                     method="highs", options=HIGHS_OPTIONS)
    if result.x is not None:
        g, residual = _garbling(result.x, m1, m2)
        # a "yes" rests on the recomputed residual and row sums, never on
        # the status: HiGHS may call a feasible point's status unknown.
        # After a clean solve, rows that miss are a SelfCheckError.
        if residual < FEASIBILITY_TOL:
            if _row_sum_error(g) <= CERT_ROW_TOL:
                return _shown_feasible(g, residual, "lp")
            if result.status == 0:
                raise SelfCheckError(
                    "feasible garbling matrix is not row-stochastic")
    if result.status != 0 or result.x is None:
        raise SelfCheckError(
            f"garbling LP did not solve cleanly (status {result.status}): "
            f"{result.message}")
    # Lambda = (duals of the +dev rows) - (duals of the -dev rows): positive
    # where W2 exceeds W1 G at the optimum
    duals = result.ineqlin.marginals.reshape(n_in, n_out, 2)
    lam = duals[..., 0] - duals[..., 1]
    mass = float(np.abs(lam).sum())
    if not mass > 0.0:
        raise SelfCheckError("garbling LP returned no dual test matrix")
    lam = lam / mass
    return _shown_infeasible(m1, m2, g, lam, _blackwell_bound(lam, m1, m2),
                             "lp")


def compose(joint: FiniteJoint, channel: Channel) -> FiniteJoint:
    """Push the measurement of a joint through a channel.

    The channel input alphabet must equal the joint's measurement support
    atom-for-atom.  The prior (X marginal) is preserved exactly because
    channel rows sum to one.
    """
    joint = _atoms(joint, "compose")
    if not np.array_equal(channel.input_support, joint.y_support):
        raise AlphabetMismatch(
            "channel input alphabet differs from the joint measurement support")
    return FiniteJoint(x_support=joint.x_support,
                       y_support=channel.output_support,
                       pmf=joint.pmf @ channel.matrix)


def _channel_of(joint: FiniteJoint) -> Channel:
    """P(Y | X) of a joint, on the X letters with mass (the others put no
    constraint on a garbling of Y)."""
    joint = _atoms(joint, "_channel_of")
    px = joint.x_marginal()
    matrix = np.zeros((px.size, joint.y_support.shape[0]))
    matrix[joint.x_idx, joint.y_idx] = joint.prob / px[joint.x_idx]
    rows = px > 0.0
    return Channel(joint.x_support[rows], joint.y_support, matrix[rows])


def blackwell_verify(joint: FiniteJoint, channel: Channel) -> tuple[float, float, bool]:
    """Exact MMSE before and after garbling the measurement.

    Returns (before, after, ordered) with ordered = after >= before -
    ORDER_TOL.  Information processing makes `ordered` true for every valid
    input.
    """
    joint = _atoms(joint, "blackwell_verify")
    before = mmse_exact(joint).mmse
    after = mmse_exact(compose(joint, channel)).mmse
    return before, after, bool(after >= before - ORDER_TOL)
