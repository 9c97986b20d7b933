import dataclasses
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmse_lab
from mmse_lab import degradedness
from mmse_lab import (
    AlphabetMismatch,
    Channel,
    InvalidDistribution,
    SelfCheckError,
    SufficientJoint,
    binary_symmetric_channel,
    blackwell_verify,
    compose,
    is_degraded,
    mmse_exact,
    rng_stream,
)
from mmse_lab.scenarios import builtin_scenarios
from mmse_lab.selftest import random_channel, random_joint
import garbling_reference
from atom_realizations import atom_realization
from test_exact import bsc_joint
from test_probcore import rademacher_sum_joint


def identity_channel(support: np.ndarray) -> Channel:
    return Channel(input_support=support, output_support=support.copy(),
                   matrix=np.eye(support.shape[0]))


def collapse_channel(support: np.ndarray) -> Channel:
    n = support.shape[0]
    return Channel(input_support=support, output_support=np.array([[0.0]]),
                   matrix=np.ones((n, 1)))


def bsc_flip(channel_matrix: np.ndarray) -> float:
    return 0.5 * (channel_matrix[0, 1] + channel_matrix[1, 0])


# --------------------------------------------------------------------------
# is_degraded
# --------------------------------------------------------------------------

def test_identity_prechannel_recovers_target_matrix():
    support = np.array([[-1.0], [1.0]])
    w2 = binary_symmetric_channel(0.3)
    cert = is_degraded(identity_channel(support), w2)
    assert cert.feasible
    np.testing.assert_allclose(cert.garbling_matrix, w2.matrix, atol=1e-8)


def test_bsc_cascade_recovers_intermediate_flip():
    cert = is_degraded(binary_symmetric_channel(0.1),
                       binary_symmetric_channel(0.2))
    assert cert.feasible
    # p + q - 2pq = 0.2 at p = 0.1 solves to q = 0.125
    assert bsc_flip(cert.garbling_matrix) == pytest.approx(0.125, abs=1e-6)


def assert_certified_no(cert, w1: Channel, w2: Channel) -> None:
    """Check the "no" witness through garblings, not through its formula.

    With ||Lambda||_1 = 1, <Lambda, W2 - W1 G> <= max |W1 G - W2| for
    every G, and the G that puts each row's mass on its largest entry of
    W1^T Lambda attains the bound.
    """
    assert not cert.feasible
    lam = cert.test_matrix
    m1, m2 = w1.matrix, w2.matrix
    assert lam.shape == m2.shape
    assert np.abs(lam).sum() == pytest.approx(1.0, abs=1e-12)
    score = m1.T @ lam
    worst = np.zeros_like(score)
    worst[np.arange(score.shape[0]), np.argmax(score, axis=1)] = 1.0
    assert np.sum(lam * (m2 - m1 @ worst)) == pytest.approx(
        cert.lower_bound, abs=1e-12)
    rng = rng_stream(53, "blackwell-witness", *m1.shape, m2.shape[1])
    for g in [cert.garbling_matrix, *rng.dirichlet(np.ones(m2.shape[1]),
                                                   size=(20, m1.shape[1]))]:
        assert np.max(np.abs(m1 @ g - m2)) >= cert.lower_bound - 1e-12


def assert_checked_yes(cert, w1: Channel, w2: Channel) -> None:
    """A "yes" whose G is row-stochastic and fits W2, checked afresh."""
    assert cert.feasible
    assert cert.residual < 1e-7
    g = cert.garbling_matrix
    assert np.max(np.abs(w1.matrix @ g - w2.matrix)) < 1e-7
    assert g.min() >= 0.0
    assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-9


def test_noisier_bsc_cannot_reach_cleaner_one():
    w1 = binary_symmetric_channel(0.2)
    w2 = binary_symmetric_channel(0.1)
    cert = is_degraded(w1, w2)
    assert not cert.feasible
    assert cert.residual >= 1e-3
    assert_certified_no(cert, w1, w2)
    assert cert.lower_bound == pytest.approx(cert.residual, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_in=st.integers(min_value=1, max_value=6),
       extra=st.integers(min_value=0, max_value=6),
       column=st.sampled_from(["distinct", "repeated", "perturbed", "zero"]))
def test_every_channel_degrades_to_itself(seed, n_in, extra, column):
    # reflexivity, W = W I, on square, wide and rank-deficient W
    w = verdict_pairs(seed, n_in, n_in + extra, 1, column)[0][0]
    assert_checked_yes(is_degraded(w, w), w, w)


def test_input_alphabet_mismatch_rejected():
    w1 = binary_symmetric_channel(0.1)
    w2 = Channel(input_support=[-2.0, 2.0], output_support=[-2.0, 2.0],
                 matrix=binary_symmetric_channel(0.2).matrix)
    with pytest.raises(AlphabetMismatch):
        is_degraded(w1, w2)


def test_barely_infeasible_pair_reports_small_residual():
    # BSC(0.1 - 5e-7) sits just outside the garbling hull of BSC(0.1):
    # the optimal residual equals the overshoot and crosses the 1e-7 line
    w1 = binary_symmetric_channel(0.1)
    w2 = binary_symmetric_channel(0.1 - 5e-7)
    cert = is_degraded(w1, w2)
    assert not cert.feasible
    assert cert.residual == pytest.approx(5e-7, rel=0.1)
    # the dual witness certifies the "no" on its own
    assert_certified_no(cert, w1, w2)
    assert cert.lower_bound >= 1e-7


def test_certificate_fields_of_both_answers():
    cert = is_degraded(binary_symmetric_channel(0.1),
                       binary_symmetric_channel(0.2))
    assert cert.feasible is True
    assert cert.residual <= 1e-7
    assert cert.test_matrix is None
    assert cert.lower_bound == 0.0
    cert = is_degraded(binary_symmetric_channel(0.2),
                       binary_symmetric_channel(0.1))
    assert cert.feasible is False
    assert len(cert.test_matrix) == 2
    assert 0.0 < cert.lower_bound <= cert.residual + 1e-12


def test_channels_and_certificates_compare_and_hash_by_identity():
    w, copy = binary_symmetric_channel(0.1), binary_symmetric_channel(0.1)
    assert w == w and w != copy and len({w, copy}) == 2
    cert, again = is_degraded(w, w), is_degraded(w, copy)
    assert cert == cert and cert != again and len({cert, again}) == 2


def test_a_lower_bound_above_the_residual_raises():
    # G = I meets W2 = W1 exactly, so no witness can bound its residual
    # away from 0
    w = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(SelfCheckError, match="is not a bound on the residual"):
        degradedness._shown_infeasible(w, w, np.eye(2), np.eye(2) / 2.0, 0.5,
                                       "lp")


def _ref_garbling_lp(m1, m2):
    """The epigraph LP's constraint matrices, built row by row."""
    n_in, n_mid = m1.shape
    n_out = m2.shape[1]
    n_g = n_mid * n_out
    a_ub = np.zeros((2 * n_in * n_out, n_g + 1))
    b_ub = np.zeros(2 * n_in * n_out)
    row = 0
    for i in range(n_in):
        for j in range(n_out):
            coeffs = np.zeros(n_g)
            coeffs[j::n_out] = m1[i, :]
            a_ub[row, :n_g] = coeffs
            a_ub[row, -1] = -1.0
            b_ub[row] = m2[i, j]
            a_ub[row + 1, :n_g] = -coeffs
            a_ub[row + 1, -1] = -1.0
            b_ub[row + 1] = -m2[i, j]
            row += 2
    a_eq = np.zeros((n_mid, n_g + 1))
    for l in range(n_mid):
        a_eq[l, l * n_out:(l + 1) * n_out] = 1.0
    return a_ub, b_ub, a_eq


def spanned_pair(rng, n_in: int, n_mid: int, n_out: int) -> tuple[Channel, Channel]:
    """(W1, W2) with W2 in the column span of W1, which has rank < n_mid.

    Input letter i reads row i mod k of both, k = min(n_in, n_mid - 1),
    so least squares leaves no residual and W1 has no full column rank.
    """
    k = min(n_in, n_mid - 1)
    support = np.arange(n_in, dtype=float)[:, None]
    rows = np.arange(n_in) % k
    w1, w2 = (random_channel(rng, support[:k], n) for n in (n_mid, n_out))
    return (Channel(support, w1.output_support, w1.matrix[rows]),
            Channel(support, w2.output_support, w2.matrix[rows]))


@pytest.mark.parametrize("n_in, n_mid, n_out",
                         [(2, 2, 2), (3, 5, 4), (5, 3, 7), (8, 8, 8)])
def test_garbling_lp_matches_the_loop_reference(monkeypatch, n_in, n_mid, n_out):
    # HiGHS must get the same bytes: linprog hands it each matrix in CSC
    # form, so an explicit zero or a reordered entry would show here
    import scipy.optimize
    from scipy.sparse import csc_array

    seen = []
    solve = scipy.optimize.linprog

    def spy(c, A_ub, b_ub, A_eq, b_eq, **kwargs):
        seen.append((A_ub, b_ub, A_eq))
        return solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    # without the closed-form witness and the projection steps only the LP
    # can settle the spanned pair
    monkeypatch.setattr(degradedness, "_closed_form_witness", lambda *args: None)
    monkeypatch.setattr(degradedness, "PROJECTION_STEPS", 0)
    w1, w2 = spanned_pair(rng_stream(29, "lp-build", n_in, n_mid, n_out),
                          n_in, n_mid, n_out)
    is_degraded(w1, w2)
    assert len(seen) == 1
    a_ub, b_ub, a_eq = seen[0]
    ref_ub, ref_b_ub, ref_eq = _ref_garbling_lp(w1.matrix, w2.matrix)
    assert b_ub.tobytes() == ref_b_ub.tobytes()
    for got, want in ((a_ub, ref_ub), (a_eq, ref_eq)):
        got, want = csc_array(got), csc_array(want)
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert (getattr(got, part).tobytes()
                    == getattr(want, part).tobytes()), part


def test_garbling_lp_build_holds_memory_of_its_sparse_matrices(monkeypatch):
    # the memory contract of the module docstring, as a ratio to the CSC
    # arrays HiGHS gets; the LP is built at 64 letters and not solved.  A
    # dense A_ub (256 MiB here) puts the peak at 42 times their 6.2 MiB
    import scipy.optimize
    from scipy.sparse import csc_array

    class Built(Exception):
        pass

    seen = []

    def record(c, A_ub, b_ub, A_eq, b_eq, **kwargs):
        seen.append((A_ub, A_eq))
        raise Built

    monkeypatch.setattr(scipy.optimize, "linprog", record)
    w1, w2 = square_garbling_pair(64, 61)
    tracemalloc.start()
    try:
        with pytest.raises(Built):
            degradedness._epigraph(w1.matrix, w2.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csc = sum(part.nbytes for a in seen[0] for m in [csc_array(a)]
              for part in (m.data, m.indices, m.indptr))
    assert peak <= 5.0 * csc


def garbling_pair(rng, n_in: int, n_mid: int, n_out: int) -> tuple[Channel, Channel]:
    """(W1, W2 = W1 G) for random channels W1 (n_in x n_mid) and G."""
    support = np.arange(n_in, dtype=float)[:, None]
    w1 = random_channel(rng, support, n_mid)
    g = random_channel(rng, w1.output_support, n_out)
    w2 = Channel(input_support=support, output_support=g.output_support,
                 matrix=w1.matrix @ g.matrix)
    return w1, w2


def square_garbling_pair(k: int, seed: int) -> tuple[Channel, Channel]:
    """(W1, W2 = W1 G) with W1 and G full-rank k-letter channels.

    W2 is a garbling of W1, and W1 is not one of W2 unless G is a
    permutation.
    """
    return garbling_pair(rng_stream(seed, "garbling-pair", k), k, k, k)


def wide_garbling_pair(seed: int, n_in: int, n_mid: int,
                       n_out: int) -> tuple[Channel, Channel]:
    """A feasible pair whose W1 (n_in x n_mid, n_in < n_mid) has rank n_in.

    Least squares in general leaves such a pair open, and then the
    alternating projections or the epigraph LP say "yes".
    """
    return garbling_pair(rng_stream(seed, "wide-garbling-pair"),
                         n_in, n_mid, n_out)


@pytest.fixture
def lp_calls(monkeypatch):
    """The LP forms is_degraded solves, in call order."""
    import scipy.optimize

    calls = []
    solve = scipy.optimize.linprog

    def spy(*args, **kwargs):
        calls.append("epigraph")
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls


def refused_candidate(calls: list):
    """A ``_pseudo_inverse`` stand-in whose candidate can never be accepted.

    It returns an all-NaN W1^+ of rank 0 and appends W1 to ``calls``.
    """
    def pseudo_inverse(m1):
        calls.append(m1)
        return np.full(m1.shape[::-1], np.nan), 0

    return pseudo_inverse


@pytest.mark.parametrize("k", [12, 48])
def test_large_pairs_are_decided_both_ways(k):
    w1, w2 = square_garbling_pair(k, 41)
    forward = is_degraded(w1, w2)
    assert forward.feasible
    assert forward.residual < 1e-7
    assert np.max(np.abs(w1.matrix @ forward.garbling_matrix - w2.matrix)) < 1e-7
    backward = is_degraded(w2, w1)
    assert_certified_no(backward, w2, w1)
    assert backward.lower_bound >= 1e-7


def test_full_rank_yes_needs_no_lp(lp_calls):
    w1, w2 = square_garbling_pair(32, 41)
    cert = is_degraded(w1, w2)
    assert lp_calls == []
    assert cert.feasible
    assert cert.residual < 1e-7
    g = cert.garbling_matrix
    assert g.min() >= 0.0
    assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-9


def test_ill_conditioned_yes_needs_no_lp(lp_calls):
    # W1 has condition number about 3e7, and the rows of W1^-1 W2 miss
    # their sum by 7e-9 (least squares: 3e-9), outside CERT_ROW_TOL;
    # projected onto the simplex they fit W2 within FEASIBILITY_TOL
    rng = np.random.default_rng([733004, 24])
    m1, g = (_stochastic(rng, 24, 24) for _ in range(2))
    w1, w2 = _channel(m1), _channel(m1 @ g)
    cert = is_degraded(w1, w2)
    assert lp_calls == []
    assert cert.feasible
    g = cert.garbling_matrix
    assert np.max(np.abs(m1 @ g - w2.matrix)) < 1e-7
    assert g.min() >= 0.0
    assert np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-9


def test_full_rank_no_needs_no_lp(lp_calls):
    w1, w2 = square_garbling_pair(32, 41)
    cert = is_degraded(w2, w1)
    assert lp_calls == []
    assert_certified_no(cert, w2, w1)
    assert cert.lower_bound >= 1e-7


def test_ill_conditioned_no_needs_no_lp(monkeypatch, lp_calls):
    # two rows of W1 = A G differ by 1e-8, so its condition number is about
    # 4e10: the row of W1^-1 that witness (b) reads and the KKT multiplier
    # of witness (a), both long, prove less than 1e-7; witness (a) formed
    # again for W1 without its smallest singular value proves 5e-3, and the
    # epigraph's dual bound is 0.1
    rng = np.random.default_rng([0, 24])
    a, g = (_stochastic(rng, 24, 24) for _ in range(2))
    a[1] = (1.0 - 1e-8) * a[0] + 1e-8 * a[1]
    w1, w2 = _channel(a @ g), _channel(a)
    cert = is_degraded(w1, w2)
    assert lp_calls == []
    assert cert.route == "witness_a"
    assert_certified_no(cert, w1, w2)
    assert cert.lower_bound >= 1e-3
    monkeypatch.setattr(degradedness, "_kkt_witness", lambda *args: None)
    cert = is_degraded(w1, w2)
    assert lp_calls == ["epigraph"]
    assert cert.route == "lp"
    assert_certified_no(cert, w1, w2)
    assert cert.lower_bound >= 1e-3


def near_garbling_pair() -> tuple[Channel, Channel]:
    """(W2, a step of 5e-6 from W2 towards W1) for square_garbling_pair(32, 41).

    The step leaves the garblings of W2 by about 3e-7, while the
    closed-form witnesses only prove about 4e-8: a full-rank "no" that
    only the epigraph LP settles.
    """
    w1, w2 = square_garbling_pair(32, 41)
    t = 5e-6
    return w2, Channel(w1.input_support, w1.output_support,
                       (1.0 - t) * w2.matrix + t * w1.matrix)


def test_full_rank_no_goes_straight_to_the_epigraph(lp_calls):
    w2, near = near_garbling_pair()
    cert = is_degraded(w2, near)
    assert lp_calls == ["epigraph"]
    assert_certified_no(cert, w2, near)
    assert cert.lower_bound >= 1e-7


@pytest.mark.parametrize("n_in, n_mid, n_out", [(3, 12, 11), (16, 32, 32)])
def test_rank_deficient_yes_needs_no_lp(lp_calls, n_in, n_mid, n_out):
    w1, w2 = wide_garbling_pair(47, n_in, n_mid, n_out)
    cert = is_degraded(w1, w2)
    assert lp_calls == []
    assert cert.route == "projection"
    assert_checked_yes(cert, w1, w2)


@pytest.mark.parametrize("n_in, n_mid, n_out", [(3, 12, 11), (16, 32, 32)])
def test_rank_deficient_yes_goes_to_the_epigraph(monkeypatch, lp_calls, n_in,
                                                 n_mid, n_out):
    # without projection steps; the epigraph optimum t = 0 is highly
    # degenerate on these pairs
    monkeypatch.setattr(degradedness, "PROJECTION_STEPS", 0)
    w1, w2 = wide_garbling_pair(47, n_in, n_mid, n_out)
    cert = is_degraded(w1, w2)
    assert lp_calls == ["epigraph"]
    assert cert.route == "lp"
    assert_checked_yes(cert, w1, w2)


def test_every_limit_channel_degrades_to_itself_without_lp(lp_calls):
    # the 2 x 3 limit channels have no full column rank, so W^+ W is no
    # garbling matrix and the candidate is refused
    routes = set()
    for name, scenario in builtin_scenarios().items():
        w = degradedness._channel_of(scenario.limit)
        cert = is_degraded(w, w)
        assert_checked_yes(cert, w, w)
        routes.add(cert.route)
    assert lp_calls == []
    assert routes == {"candidate", "projection"}


def witnesses_formed(monkeypatch, a: Channel, b: Channel):
    """Decide (a, b); return the certificate and every Lambda bounded."""
    seen = []
    bound = degradedness._blackwell_bound

    def spy(lam, w1, w2):
        seen.append(lam)
        return bound(lam, w1, w2)

    with monkeypatch.context() as mp:
        mp.setattr(degradedness, "_blackwell_bound", spy)
        cert = is_degraded(a, b)
    return cert, seen


def kkt_terms(a: Channel, b: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of witness (a), (I - W1 W1^+) R and (W1 W1^T)^+ R.

    R = W2 - W1 G at the candidate's rows projected onto the simplex; the
    projector I - W1 W1^+ is formed explicitly and (W1 W1^T)^+ by numpy's
    pinv, not as the package applies them.
    """
    m1, m2 = a.matrix, b.matrix
    pinv = degradedness._pseudo_inverse(m1)[0]
    resid = m2 - m1 @ degradedness._simplex_rows(pinv @ m2)
    return ((np.eye(m1.shape[0]) - m1 @ pinv) @ resid,
            np.linalg.pinv(m1 @ m1.T) @ resid)


def test_full_row_rank_forms_no_residual_witness(monkeypatch, lp_calls):
    # W1 W1^+ = I, so witness (a) has no residual term: the square "no" is
    # settled by (b) before (a) is formed, and the wide "no" by (a) from
    # (W1 W1^T)^-1 R alone
    w1, w2 = square_garbling_pair(32, 41)
    cert, seen = witnesses_formed(monkeypatch, w2, w1)
    assert cert.route == "witness_b" and len(seen) == 1
    wide = _channel(np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1]]))
    target = _channel(binary_symmetric_channel(0.1).matrix)
    resid_term, dual_term = kkt_terms(wide, target)
    assert np.abs(resid_term).max() < 1e-15
    cert, seen = witnesses_formed(monkeypatch, wide, target)
    assert cert.route == "witness_a" and len(seen) == 1
    np.testing.assert_allclose(cert.test_matrix,
                               dual_term / np.abs(dual_term).sum(),
                               rtol=0.0, atol=1e-12)
    assert_certified_no(cert, wide, target)
    # the projected candidate is the best fit here: the interval is tight
    assert cert.lower_bound == pytest.approx(cert.residual, rel=1e-9)
    assert lp_calls == []


def test_rank_deficient_w1_forms_the_residual_witness(monkeypatch, lp_calls):
    # W1 repeats a column, so rank(W1) = 3 < n_in = 4 and both terms of
    # witness (a) count
    w1, unrelated = verdict_pairs(0, 4, 4, 4, "repeated")[2]
    resid_term, dual_term = kkt_terms(w1, unrelated)
    assert np.abs(resid_term).max() > 1e-3
    assert np.abs(dual_term).max() > 1e-3
    lam = resid_term + dual_term
    cert, seen = witnesses_formed(monkeypatch, w1, unrelated)
    assert cert.route == "witness_a" and len(seen) == 1
    np.testing.assert_allclose(cert.test_matrix, lam / np.abs(lam).sum(),
                               rtol=0.0, atol=1e-12)
    assert_certified_no(cert, w1, unrelated)
    assert lp_calls == []


def test_refused_candidate_leaves_the_two_phases(monkeypatch, lp_calls):
    # a refused candidate with rank 0 leaves even a full-rank "yes" to the LP
    calls = []
    monkeypatch.setattr(degradedness, "_pseudo_inverse", refused_candidate(calls))
    w1, w2 = square_garbling_pair(12, 43)
    cert = is_degraded(w1, w2)
    assert len(calls) == 1
    assert lp_calls == ["epigraph"]
    assert cert.feasible
    assert cert.residual < 1e-7


@pytest.mark.parametrize("corrupt", [0.0, np.nan])
def test_unusable_duals_raise(monkeypatch, corrupt):
    # a "no" without a finite dual witness must not pass as certified
    import scipy.optimize

    solve = scipy.optimize.linprog

    def spy(*args, **kwargs):
        result = solve(*args, **kwargs)
        if result.ineqlin is not None:
            result.ineqlin.marginals[:] = corrupt
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    # W1 spans every target; with witness (a), which settles this pair,
    # stubbed out only the epigraph's duals can say "no"
    monkeypatch.setattr(degradedness, "_closed_form_witness", lambda *args: None)
    w1 = _channel(np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1]]))
    with pytest.raises(SelfCheckError):
        is_degraded(w1, _channel(binary_symmetric_channel(0.1).matrix))


def _channel(matrix: np.ndarray) -> Channel:
    n_in, n_out = matrix.shape
    return Channel(input_support=np.arange(n_in, dtype=float)[:, None],
                   output_support=np.arange(n_out, dtype=float)[:, None],
                   matrix=matrix)


def _stochastic(rng, n_rows: int, n_cols: int) -> np.ndarray:
    mat = rng.exponential(1.0, (n_rows, n_cols))
    return mat / mat.sum(axis=1, keepdims=True)


def verdict_pairs(seed: int, n_in: int, n_mid: int, n_out: int,
                  column: str) -> list[tuple[Channel, Channel]]:
    """Forward, reversed and unrelated pairs around one random W1.

    ``column`` makes W1 repeat a column, repeat one up to a relative
    perturbation of 1e-14 or leave one empty, so that W1 has no full
    column rank at least by the least-squares cutoff; the first pair is
    always a garbling.
    """
    rng = rng_stream(seed, "candidate-verdicts", n_in, n_mid, n_out, column)
    m1 = _stochastic(rng, n_in, n_mid)
    if n_mid >= 2 and column in ("repeated", "perturbed"):
        m1[:, -1] = m1[:, 0] = 0.5 * (m1[:, 0] + m1[:, -1])
        if column == "perturbed":
            m1[:, -1] *= 1.0 + 1e-14
    elif n_mid >= 2 and column == "zero":
        m1[:, 0] += m1[:, -1]
        m1[:, -1] = 0.0
    w1 = _channel(m1)
    w2 = _channel(m1 @ _stochastic(rng, n_mid, n_out))
    unrelated = _channel(_stochastic(rng, n_in, n_out))
    return [(w1, w2), (w2, w1), (w1, unrelated), (unrelated, w1)]


def over_pair_shapes(test):
    """Hypothesis over alphabets of 1 to 6 letters and W1 column patterns."""
    for shape in [dict(seed=5, n_in=6, n_mid=2, n_out=3, column="distinct"),  # tall W1
                  dict(seed=6, n_in=2, n_mid=5, n_out=4, column="distinct"),  # wide W1
                  dict(seed=7, n_in=4, n_mid=4, n_out=4, column="repeated"),
                  dict(seed=8, n_in=5, n_mid=3, n_out=2, column="zero"),
                  # the reversed pair's W1 has rank 2 and spans W2
                  dict(seed=3, n_in=4, n_mid=3, n_out=3, column="repeated")]:
        test = example(**shape)(test)
    letters = st.integers(min_value=1, max_value=6)
    return settings(max_examples=60, deadline=None)(given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_in=letters, n_mid=letters, n_out=letters,
        column=st.sampled_from(["distinct", "repeated", "zero"]))(test))


@over_pair_shapes
def test_least_squares_candidate_never_changes_a_verdict(seed, n_in, n_mid,
                                                         n_out, column):
    pairs = verdict_pairs(seed, n_in, n_mid, n_out, column)
    for a, b in pairs:
        verdict = is_degraded(a, b).feasible
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(degradedness, "_pseudo_inverse", refused_candidate(calls))
            assert is_degraded(a, b).feasible == verdict
        assert len(calls) == 1
    assert is_degraded(*pairs[0]).feasible


@over_pair_shapes
def test_closed_form_no_never_changes_a_verdict(seed, n_in, n_mid, n_out,
                                                column):
    import scipy.optimize

    solve = scipy.optimize.linprog
    for a, b in verdict_pairs(seed, n_in, n_mid, n_out, column):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.optimize, "linprog",
                       lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
            cert = is_degraded(a, b)
        if not cert.feasible and not calls:
            # settled in closed form: the witness alone proves the "no"
            assert_certified_no(cert, a, b)
            assert cert.lower_bound >= 1e-7
        with pytest.MonkeyPatch.context() as mp:
            # and witness (a) where it is formed again after the projections
            mp.setattr(degradedness, "_closed_form_witness",
                       lambda *args: None)
            mp.setattr(degradedness, "_kkt_witness", lambda *args: None)
            assert is_degraded(a, b).feasible == cert.feasible


def agrees_with_the_reference(a: Channel, b: Channel, solve: bool = True):
    """Decide (a, b) with the least-squares front end and the package's.

    Both must reach the same verdict, and make the same epigraph calls
    except where the package's alternating projections settle a "yes" or
    one side settles a "no" in closed form that the other leaves to the
    LP: the reference keeps the witnesses (a), (b) and (c) of an earlier
    package, whose (a) and (c) the package's KKT witness (a) replaced.
    Such a certificate must hold when checked anew.  With
    ``solve`` False an epigraph call is recorded and answers None: it is
    one LP on the same two matrices whichever front end makes it.
    Returns both certificates and the factorizations the package applied
    to W1 for its candidate, by name.
    """
    lp = degradedness._epigraph
    m1 = a.matrix
    found = []
    for decide in (garbling_reference.is_degraded, is_degraded):
        calls, factorized = [], []

        def epigraph(x, y):
            calls.append((x.shape, y.shape))
            return lp(x, y) if solve else None

        def spy(name, factorize):
            def wrapped(arr, *args, **kwargs):
                if arr is m1:
                    factorized.append(name)
                return factorize(arr, *args, **kwargs)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(degradedness, "_epigraph", epigraph)
            if decide is is_degraded:
                mp.setattr(np.linalg, "inv", spy("lu", np.linalg.inv))
                mp.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
                mp.setattr(degradedness, "_closed_form_witness",
                           spy("witness", degradedness._closed_form_witness))
            found.append((decide(a, b), calls, factorized))
    (ref, ref_calls, _), (cert, calls, factorized) = found
    if calls != ref_calls:
        # only one side made the LP call; its certificate is None when the
        # LP is not solved
        closed, lp_side = (cert, ref) if ref_calls else (ref, cert)
        if closed.feasible:
            # the reference has no alternating projections; the LP optimum
            # is at most the fit of the iterate they accept
            assert closed is cert
            assert cert.route == "projection"
        else:
            assert_certified_no(closed, a, b)
            assert closed.lower_bound >= 1e-7
        assert lp_side is None or lp_side.feasible == closed.feasible
    else:
        assert (cert is None) == (ref is None)
        if ref is not None:
            assert cert.feasible == ref.feasible
    # one factorization, or a refused LU followed by the SVD, for the
    # candidate; then at most the SVD of witness (a) formed again
    candidate = (factorized[:factorized.index("witness")]
                 if "witness" in factorized else factorized)
    assert candidate in (["lu"], ["svd"], ["lu", "svd"])
    assert candidate[0] == ("lu" if m1.shape[0] == m1.shape[1] else "svd")
    assert factorized[len(candidate):] in ([], ["witness"], ["witness", "svd"])
    return ref, cert, candidate


@over_pair_shapes
def test_front_end_matches_the_least_squares_reference(seed, n_in, n_mid,
                                                       n_out, column):
    for a, b in verdict_pairs(seed, n_in, n_mid, n_out, column):
        agrees_with_the_reference(a, b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       k=st.integers(min_value=8, max_value=64))
def test_square_front_end_matches_the_reference_certificates(seed, k):
    # full rank: the LU route alone, and each closed-form "no" within 1e-9
    # of the least-squares one, its bound where both take the same witness
    # (a "yes" residual is rounding error)
    for a, b in verdict_pairs(seed, k, k, k, "distinct"):
        ref, cert, factorized = agrees_with_the_reference(a, b, solve=False)
        assert factorized == ["lu"]
        if ref is not None and cert is not None and not ref.feasible:
            assert cert.residual == pytest.approx(ref.residual, rel=1e-9)
            if cert.route == ref.route:
                assert cert.lower_bound == pytest.approx(ref.lower_bound,
                                                         rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       k=st.integers(min_value=8, max_value=64),
       column=st.sampled_from(["zero", "repeated", "perturbed"]))
def test_singular_square_w1_takes_the_svd(seed, k, column):
    for a, b in verdict_pairs(seed, k, k, k, column)[::2]:
        # W1 is the singular one in the first and third pairs
        _, _, factorized = agrees_with_the_reference(a, b, solve=False)
        assert factorized[-1] == "svd"


def ill_conditioned_pairs() -> list[tuple[Channel, Channel]]:
    """A "yes" that needs the projected candidate and a "no" that needs
    witness (a) for W1 without its smallest singular value.

    The pairs of ``test_ill_conditioned_yes_needs_no_lp`` and
    ``test_ill_conditioned_no_needs_no_lp``.
    """
    rng = np.random.default_rng([733004, 24])
    m1, g = (_stochastic(rng, 24, 24) for _ in range(2))
    rng = np.random.default_rng([0, 24])
    a, h = (_stochastic(rng, 24, 24) for _ in range(2))
    a[1] = (1.0 - 1e-8) * a[0] + 1e-8 * a[1]
    return [(_channel(m1), _channel(m1 @ g)), (_channel(a @ h), _channel(a))]


def reference_pairs() -> list[tuple[Channel, Channel]]:
    """Seeded pairs of 2 to 32 letters, in both directions, over every route.

    Square, tall and wide W1 with distinct, repeated, nearly repeated and
    empty columns (``verdict_pairs``; on the large square W1 only distinct
    ones, as the others take the LP there), the two ill-conditioned pairs,
    a rank-deficient "yes" that only the epigraph LP decides and a
    full-rank "no" that only it settles.
    """
    pairs = []
    shapes = [(2, 2, 2), (3, 3, 2), (4, 4, 4), (6, 3, 4), (3, 6, 5),
              (8, 8, 8), (12, 12, 12), (16, 16, 16), (32, 16, 24),
              (24, 24, 24), (32, 32, 32)]
    for seed, (n_in, n_mid, n_out) in enumerate(shapes):
        for column in ("distinct", "repeated", "perturbed", "zero"):
            if column == "distinct" or n_mid < 24 or n_in != n_mid:
                pairs += verdict_pairs(seed, n_in, n_mid, n_out, column)
    return pairs + ill_conditioned_pairs() + [wide_garbling_pair(47, 3, 12, 11),
                                              near_garbling_pair()]


def garbling_lp_pairs() -> list[tuple[Channel, Channel]]:
    """Pairs as perfbench's garbling_lp builds them, in both directions.

    W2 = W1 G with dense random row-stochastic W1 and G of 8, 16, 24 and
    32 letters, rows renormalized: the forward pair is a garbling, the
    reversed one is not.
    """
    pairs = []
    for seed in range(3):
        rng = np.random.default_rng([seed, 23])
        for k in (8, 16, 24, 32):
            m1 = _stochastic(rng, k, k)
            m2 = m1 @ _stochastic(rng, k, k)
            w1, w2 = _channel(m1), _channel(m2 / m2.sum(axis=1, keepdims=True))
            pairs += [(w1, w2), (w2, w1)]
    return pairs


def assert_same_certificate(got, want) -> None:
    assert got.feasible is want.feasible
    assert got.route == want.route
    assert got.residual.hex() == want.residual.hex()
    assert got.lower_bound.hex() == want.lower_bound.hex()
    for a, b in ((got.garbling_matrix, want.garbling_matrix),
                 (got.test_matrix, want.test_matrix)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_decision_matches_its_unrewritten_copy_bit_for_bit(monkeypatch):
    # the copy shares no helper with the package, the epigraph LP included
    calls = {}

    def counted(module):
        solve = module._epigraph

        def epigraph(m1, m2):
            calls[module] = calls.get(module, 0) + 1
            return solve(m1, m2)

        monkeypatch.setattr(module, "_epigraph", epigraph)

    counted(degradedness)
    counted(garbling_reference)
    routes = set()
    for a, b in reference_pairs() + garbling_lp_pairs():
        before = dict(calls)
        want = garbling_reference.decide(a, b)
        got = is_degraded(a, b)
        lp = calls.get(degradedness, 0) - before.get(degradedness, 0)
        ref_lp = (calls.get(garbling_reference, 0)
                  - before.get(garbling_reference, 0))
        assert (got.route == "lp") == (lp == 1)
        routes.add((got.route, got.feasible))
        if want.route == "simplex":
            want = dataclasses.replace(want, route="projection")
        if got.route != want.route or got.route == "witness_a":
            # where W1 lacks full column rank, the copy leaves to the LP a
            # "yes" that the alternating projections settle (with full rank
            # their one check is the copy's route "simplex"); the copy's
            # witness (a), the residual at G0, and its witness (c) are not
            # the package's KKT witness (a), and settle other "no"s
            assert got.feasible == want.feasible
            if got.feasible:
                assert_checked_yes(got, a, b)
            else:
                assert_certified_no(got, a, b)
                assert got.lower_bound >= 1e-7
            continue
        assert_same_certificate(got, want)
        assert lp == ref_lp
    assert routes == {("candidate", True), ("projection", True), ("lp", True),
                      ("witness_a", False), ("witness_b", False),
                      ("lp", False)}


def projections(monkeypatch, a: Channel, b: Channel) -> tuple[int, int]:
    """(projections of G0, all projections) that deciding (a, b) makes."""
    g0 = degradedness._pseudo_inverse(a.matrix)[0] @ b.matrix
    seen = []
    project = degradedness._simplex_rows

    def spy(g):
        seen.append(np.array_equal(g, g0))
        return project(g)

    with monkeypatch.context() as mp:
        mp.setattr(degradedness, "_simplex_rows", spy)
        is_degraded(a, b)
    return sum(seen), len(seen)


def test_a_decision_projects_its_candidate_at_most_once(monkeypatch):
    w1, w2 = square_garbling_pair(32, 41)
    # a candidate that fits needs no projection
    assert projections(monkeypatch, w1, w2) == (0, 0)
    # (b) settles the reverse at the projected G0
    assert projections(monkeypatch, w2, w1) == (1, 1)
    ill_yes, ill_no = ill_conditioned_pairs()
    # the one check of the alternating projections accepts the projected G0
    assert projections(monkeypatch, *ill_yes) == (1, 1)
    # the check fails, and its step projects once more; then witness (a),
    # formed again for W1 without its smallest singular value, projects
    # its own candidate and settles the "no"
    assert projections(monkeypatch, *ill_no) == (1, 3)


def report_lp_status(monkeypatch, status: int, scale: float = 1.0) -> None:
    """linprog as solved, but reporting ``status``, with x times ``scale``.

    Status 4 is what HiGHS reports for a model whose status is unknown.
    """
    import scipy.optimize

    solve = scipy.optimize.linprog

    def spy(*args, **kwargs):
        result = solve(*args, **kwargs)
        result.status = status
        result.message = f"status set to {status}"
        result.x = result.x * scale
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", spy)


@pytest.mark.parametrize("n_in, n_mid, n_out", [(3, 12, 11), (16, 32, 32)])
def test_unknown_lp_status_keeps_a_checked_yes(monkeypatch, lp_calls, n_in,
                                               n_mid, n_out):
    # the pairs of test_rank_deficient_yes_goes_to_the_epigraph, which only
    # the LP settles without projection steps
    monkeypatch.setattr(degradedness, "PROJECTION_STEPS", 0)
    report_lp_status(monkeypatch, 4)
    w1, w2 = wide_garbling_pair(47, n_in, n_mid, n_out)
    cert = is_degraded(w1, w2)
    assert lp_calls == ["epigraph"]
    assert_checked_yes(cert, w1, w2)


@pytest.mark.parametrize("status, message", [
    (4, "did not solve cleanly (status 4)"),
    (0, "feasible garbling matrix is not row-stochastic"),
])
def test_lp_rows_off_their_sum_are_no_yes(monkeypatch, lp_calls, status,
                                         message):
    # scaled by 1 + 1e-8, G still fits W2 within FEASIBILITY_TOL, but its
    # rows miss CERT_ROW_TOL: an unclean solve says so, a clean one fails
    # its self-check
    monkeypatch.setattr(degradedness, "PROJECTION_STEPS", 0)
    report_lp_status(monkeypatch, status, scale=1.0 + 1e-8)
    w1, w2 = wide_garbling_pair(47, 3, 12, 11)
    with pytest.raises(SelfCheckError, match=re.escape(message)):
        is_degraded(w1, w2)
    assert lp_calls == ["epigraph"]


def test_unknown_lp_status_never_passes_a_no(monkeypatch):
    # the pair of test_unusable_duals_raise, which only the LP decides
    # without the closed-form witness: its duals are fine, its status is not
    monkeypatch.setattr(degradedness, "_closed_form_witness", lambda *args: None)
    report_lp_status(monkeypatch, 4)
    w1 = _channel(np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1]]))
    with pytest.raises(SelfCheckError, match=re.escape("status 4")):
        is_degraded(w1, _channel(binary_symmetric_channel(0.1).matrix))


def markov_pair(name: str, n: int) -> tuple[Channel, Channel]:
    """P(Y | X) of a built-in scenario's limit and of its joint at n.

    Y_n is a garbling of Y exactly when the second channel is one of the
    first, provided both joints share the X law.
    """
    scenario = builtin_scenarios()[name]
    limit, joint = scenario.limit, scenario.realize(n)
    if isinstance(joint, SufficientJoint):
        # P(Y_n | X) needs every (X_n, Y_n) atom
        joint = atom_realization(name, n)
    assert np.array_equal(limit.x_support, joint.x_support)
    np.testing.assert_allclose(joint.x_marginal(), limit.x_marginal(),
                               rtol=0.0, atol=1e-15)
    return degradedness._channel_of(limit), degradedness._channel_of(joint)


def test_example2_is_not_markovian(lp_calls):
    # 1024 x 2 against 1024 x 128: the limit bit carries nothing about X,
    # so no garbling of it recovers the coarse cell Y_16 reveals
    w, w_n = markov_pair("example2", 16)
    cert = is_degraded(w, w_n)
    assert lp_calls == []
    assert_certified_no(cert, w, w_n)
    assert cert.lower_bound >= 1e-7
    # W1 has rank 2 of 1024 rows, and witness (a), the residual, decides
    m1, m2 = w.matrix, w_n.matrix
    resid = m2 - m1 @ (degradedness._pseudo_inverse(m1)[0] @ m2)
    np.testing.assert_array_equal(cert.test_matrix, resid / np.abs(resid).sum())


def test_example4_is_markovian():
    cert = is_degraded(*markov_pair("example4", 4))
    assert cert.feasible
    assert cert.residual < 1e-7


def test_transitivity_through_explicit_cascades():
    rng = rng_stream(23, "transitive")
    support = np.arange(3, dtype=float)[:, None]
    for _ in range(10):
        w1 = random_channel(rng, support, 4)
        g12 = random_channel(rng, w1.output_support, 3)
        w2 = compose_channels(w1, g12)
        g23 = random_channel(rng, w2.output_support, 3)
        w3 = compose_channels(w2, g23)
        assert is_degraded(w1, w2).feasible
        assert is_degraded(w2, w3).feasible
        assert is_degraded(w1, w3).feasible


def compose_channels(w: Channel, g: Channel) -> Channel:
    assert np.array_equal(w.output_support, g.input_support)
    return Channel(input_support=w.input_support,
                   output_support=g.output_support,
                   matrix=w.matrix @ g.matrix)


def test_garbling_sweep_prints_the_promised_triangle(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "garbling_sweep.py"
    assert runpy.run_path(str(script))["main"]([]) == 0
    lines = capsys.readouterr().out.splitlines()
    flips = [float(q) for q in lines[0].split()[3:]]
    assert flips == [0.05, 0.1, 0.2, 0.3, 0.4]
    rows = lines[1:1 + len(flips)]
    for p, line in zip(flips, rows):
        assert float(line[:8]) == p
        cells = re.findall(r"g=(\S+)|r=(\S+) lb=(\S+)", line[8:])
        assert len(cells) == len(flips)
        for q, (g, r, lb) in zip(flips, cells):
            if p <= q:
                # the garbling flip solves p + g - 2 p g = q
                assert float(g) == pytest.approx((q - p) / (1 - 2 * p), abs=1e-6)
            else:
                assert not g
                assert float(r) >= float(lb) > 0.0


def test_route_counts_sort_every_decision(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "route_counts.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["sweep", "garbling_lp", "--passes", "1"]) == 0
    header, _, *rows = capsys.readouterr().out.splitlines()
    assert [c.strip() for c in header.strip("|").split("|")] == [
        "input", "decisions", 'candidate "yes"', 'projection "yes"',
        'witness (a) "no"', 'witness (b) "no"', 'LP "yes"', 'LP "no"',
        "no certificate"]
    counts = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
    assert counts == [["sweep", "25", "15", "0", "0", "10", "0", "0", "0"],
                      ["garbling_lp", "8", "4", "0", "0", "4", "0", "0", "0"]]


def test_route_counts_exit_one_on_an_answer_the_route_cannot_give(
        monkeypatch, capsys):
    real = degradedness.is_degraded

    def all_candidate(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), route="candidate")

    monkeypatch.setattr(degradedness, "is_degraded", all_candidate)
    monkeypatch.setattr(mmse_lab, "is_degraded", all_candidate)
    script = Path(__file__).resolve().parent.parent / "scripts" / "route_counts.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["garbling_lp", "--passes", "1"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == (
        "| garbling_lp | 8 | 4 | 0 | 0 | 0 | 0 | 0 | 0 |")
    assert "garbling_lp: 4 decision(s) fit no route" in err


# --------------------------------------------------------------------------
# compose on joints
# --------------------------------------------------------------------------

def test_compose_identity_keeps_joint():
    j = rademacher_sum_joint()
    out = compose(j, identity_channel(j.y_support))
    np.testing.assert_array_equal(out.pmf, j.pmf)
    np.testing.assert_array_equal(out.y_support, j.y_support)


def test_compose_total_collapse_destroys_information():
    j = rademacher_sum_joint()
    out = compose(j, collapse_channel(j.y_support))
    assert mmse_exact(out).mmse == pytest.approx(1.0, abs=1e-12)


def test_compose_matches_cascade_formula_entrywise():
    degraded = compose(bsc_joint(0.1), binary_symmetric_channel(0.125))
    np.testing.assert_allclose(degraded.pmf, bsc_joint(0.2).pmf, atol=1e-12)


def test_compose_requires_matching_alphabet():
    j = rademacher_sum_joint()
    with pytest.raises(AlphabetMismatch):
        compose(j, binary_symmetric_channel(0.1))


def test_compose_preserves_parameter_marginal():
    rng = rng_stream(31, "marginal")
    for _ in range(25):
        j = random_joint(rng, max_x=6, max_y=6)
        d = random_channel(rng, j.y_support, int(rng.integers(1, 7)))
        out = compose(j, d)
        assert np.max(np.abs(out.x_marginal() - j.x_marginal())) <= 1e-14


# --------------------------------------------------------------------------
# blackwell_verify
# --------------------------------------------------------------------------

def test_blackwell_bsc_degradation_values():
    before, after, ordered = blackwell_verify(
        bsc_joint(0.1), binary_symmetric_channel(0.125))
    assert before == pytest.approx(0.36, abs=1e-12)
    assert after == pytest.approx(0.64, abs=1e-12)
    assert ordered


def test_blackwell_identity_is_neutral():
    j = rademacher_sum_joint()
    before, after, ordered = blackwell_verify(j, identity_channel(j.y_support))
    assert before == after
    assert ordered


def test_blackwell_total_collapse_on_rademacher_sum():
    j = rademacher_sum_joint()
    before, after, ordered = blackwell_verify(j, collapse_channel(j.y_support))
    assert before == pytest.approx(0.5, abs=1e-12)
    assert after == pytest.approx(1.0, abs=1e-12)
    assert ordered


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_out=st.integers(min_value=1, max_value=6))
def test_blackwell_ordering_never_reversed(seed, n_out):
    rng = rng_stream(seed, "hypothesis-blackwell")
    j = random_joint(rng, max_x=6, max_y=6)
    d = random_channel(rng, j.y_support, n_out)
    _, _, ordered = blackwell_verify(j, d)
    assert ordered


def test_channel_rejects_non_stochastic_matrix():
    from mmse_lab import InvalidDistribution

    with pytest.raises(InvalidDistribution):
        Channel(input_support=np.array([[0.0], [1.0]]),
                output_support=np.array([[0.0], [1.0]]),
                matrix=np.array([[0.7, 0.7], [0.5, 0.5]]))
    for flip in (-0.1, 1.1, np.nan):
        with pytest.raises(InvalidDistribution, match=r"outside \[0, 1\]"):
            binary_symmetric_channel(flip)


def binary_channel_fields(**changes) -> dict:
    """The fields of a valid two-letter channel, with ``changes`` applied."""
    fields = dict(input_support=np.array([0.0, 1.0]),
                  output_support=np.array([0.0, 1.0]),
                  matrix=np.array([[0.9, 0.1], [0.2, 0.8]]))
    fields.update(changes)
    return fields


ENTRIES = "matrix entries must be finite and nonnegative"


@pytest.mark.parametrize("changes, message", [
    (dict(matrix=[[np.nan, 0.1], [0.2, 0.8]]), ENTRIES),
    (dict(matrix=[[np.inf, 0.1], [0.2, 0.8]]), ENTRIES),
    (dict(matrix=[[1.1, -0.1], [0.2, 0.8]]), ENTRIES),
    (dict(matrix=[[0.9, 0.1], [0.2, 0.8 + 1e-9]]),
     "rows must sum to 1 within 1e-12; worst row sum 1.000000001"),
    (dict(matrix=[[0.9, 0.1, 0.0], [0.2, 0.8, 0.0]]),
     "matrix shape (2, 3) does not match alphabets (2, 2)"),
    (dict(matrix=[0.9, 0.1]), "matrix shape (2,) does not match alphabets (2, 2)"),
    (dict(input_support=[1.0, 1.0]), "input_support atoms must be pairwise distinct"),
    (dict(output_support=[0.0, -0.0]),
     "output_support atoms must be pairwise distinct"),
    (dict(input_support=[[0.0, 1.0], [0.0, 1.0]]),
     "input_support atoms must be pairwise distinct"),
    (dict(input_support=[0.0, np.nan]), "input_support contains non-finite values"),
    (dict(output_support=np.empty(0)),
     "output_support must be a non-empty 1-D or 2-D array"),
    (dict(input_support=np.zeros((2, 1, 1))),
     "input_support must be a non-empty 1-D or 2-D array"),
    (dict(output_support=np.zeros((2, 0))),
     "output_support must be a non-empty 1-D or 2-D array"),
    (dict(matrix=[[0.9, 0.1], [-np.inf, 0.8]]), ENTRIES),
    (dict(matrix=[[0.9, 0.1], [0.2, np.nan]]), ENTRIES),
])
def test_channel_refusals_name_their_cause(changes, message):
    with pytest.raises(InvalidDistribution, match=re.escape(message)):
        Channel(**binary_channel_fields(**changes))


def test_channel_accepts_rows_within_the_row_sum_tolerance():
    # a row 1e-13 off its sum is rounding, 1e-9 off is refused (above)
    channel = Channel(**binary_channel_fields(matrix=[[0.9, 0.1], [0.2, 0.8 + 1e-13]]))
    assert channel.matrix[1, 1] == 0.8 + 1e-13


def test_channel_stores_read_only_copies():
    fields = binary_channel_fields()
    channel = Channel(**fields)
    # a 1-D support is stored as a column, a view of the caller's array
    # until the channel copies it
    for value in fields.values():
        value += 5.0
    np.testing.assert_array_equal(channel.input_support, [[0.0], [1.0]])
    np.testing.assert_array_equal(channel.output_support, [[0.0], [1.0]])
    np.testing.assert_array_equal(channel.matrix, [[0.9, 0.1], [0.2, 0.8]])
    for stored in (channel.input_support, channel.output_support, channel.matrix):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 1.0


def run_after_import(code: str, **environ: str) -> str:
    """Run ``code`` in a fresh interpreter that has the package on its path.

    ``environ`` adds environment variables; returns what the code printed.
    """
    src = str(Path(mmse_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_decisions_do_not_depend_on_the_blas_thread_count():
    # from 128 letters on, the LU route's certificate bits differ between
    # one and two OpenBLAS threads; the verdicts and the LP calls may not.
    # The LP is recorded, not solved: at 256 letters HiGHS would take far
    # too long (a 128-letter solve did not finish in 9 minutes).
    code = (
        "import numpy as np\n"
        "from mmse_lab import Channel, degradedness, is_degraded, rng_stream\n"
        "calls = []\n"
        "degradedness._epigraph = lambda m1, m2: calls.append(m1.shape)\n"
        "for k in (128, 256):\n"
        "    rng = rng_stream(59, 'thread-pair', k)\n"
        "    m1, g = (rng.exponential(1.0, (k, k)) for _ in range(2))\n"
        "    m1 /= m1.sum(axis=1, keepdims=True)\n"
        "    g /= g.sum(axis=1, keepdims=True)\n"
        "    support = np.arange(k, dtype=float)[:, None]\n"
        "    w1, w2 = (Channel(support, support, m) for m in (m1, m1 @ g))\n"
        "    for a, b in ((w1, w2), (w2, w1)):\n"
        "        cert = is_degraded(a, b)\n"
        "        print(k, cert and cert.feasible, calls)\n")
    runs = [run_after_import(code, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")]
    assert runs[0] == runs[1]
    assert runs[0].splitlines() == ["128 True []", "128 False []",
                                    "256 True []", "256 False []"]


def test_import_does_not_load_the_lp_solver():
    # scipy.optimize loads inside is_degraded, not at package import
    run_after_import(
        "import mmse_lab, sys; assert 'scipy.optimize' not in sys.modules")


def test_closed_form_decisions_do_not_load_the_lp_solver():
    # the candidate W1^-1 W2 settles the "yes", the closed form the "no" and
    # the alternating projections W >= W for the catalog's 2 x 3 limit W;
    # witness (a) settles a "no" for a wide W1, and the garbling decisions
    # of cor2_quantization, claimed Markovian, on the grid 1, 2, 4, ..., 1024
    run_after_import(
        "import dataclasses, sys\n"
        "from mmse_lab import Channel, binary_symmetric_channel as bsc, is_degraded\n"
        "from mmse_lab import builtin_scenarios, run_scenario\n"
        "assert is_degraded(bsc(0.1), bsc(0.2)).feasible\n"
        "assert not is_degraded(bsc(0.2), bsc(0.1)).feasible\n"
        "w = Channel([-1.0, 1.0], [-2.0, 0.0, 2.0], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])\n"
        "assert is_degraded(w, w).route == 'projection'\n"
        "wide = Channel([-1.0, 1.0], [0.0, 1.0, 2.0], [[0.7, 0.2, 0.1], [0.2, 0.7, 0.1]])\n"
        "cert = is_degraded(wide, bsc(0.1))\n"
        "assert not cert.feasible and cert.route == 'witness_a'\n"
        "cor2 = dataclasses.replace(builtin_scenarios()['cor2_quantization'],\n"
        "                           markovian=True)\n"
        "report = run_scenario(cor2, [2 ** k for k in range(11)])\n"
        "assert report.diagnostics.markov_verified is True\n"
        "assert 'scipy.optimize' not in sys.modules")


def test_import_does_not_load_numpy_random():
    # numpy 2 loads numpy.random on first use; importing the package (the
    # Draw alias, say) must not be that use
    run_after_import(
        "import sys, numpy; eager = 'numpy.random' in sys.modules; "
        "import mmse_lab; assert eager or 'numpy.random' not in sys.modules")
