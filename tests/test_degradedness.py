import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmse_lab
from mmse_lab import (
    AlphabetMismatch,
    Channel,
    binary_symmetric_channel,
    blackwell_verify,
    compose,
    is_degraded,
    mmse_exact,
    rng_stream,
)
from mmse_lab.selftest import random_channel, random_joint
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


def test_noisier_bsc_cannot_reach_cleaner_one():
    cert = is_degraded(binary_symmetric_channel(0.2),
                       binary_symmetric_channel(0.1))
    assert not cert.feasible
    assert cert.residual >= 1e-3


def test_every_channel_degrades_to_itself():
    rng = rng_stream(17, "self-degraded")
    for _ in range(10):
        w = random_channel(rng, np.arange(4, dtype=float)[:, None], 4)
        cert = is_degraded(w, w)
        assert cert.feasible
        assert cert.residual <= 1e-7


def test_input_alphabet_mismatch_rejected():
    w1 = binary_symmetric_channel(0.1)
    w2 = binary_symmetric_channel(0.2, support=(-2.0, 2.0))
    with pytest.raises(AlphabetMismatch):
        is_degraded(w1, w2)


def test_barely_infeasible_pair_reports_small_residual():
    # BSC(0.1 - 5e-7) sits just outside the garbling hull of BSC(0.1):
    # the optimal residual equals the overshoot and crosses the 1e-7 line
    cert = is_degraded(binary_symmetric_channel(0.1),
                       binary_symmetric_channel(0.1 - 5e-7))
    assert not cert.feasible
    assert cert.residual == pytest.approx(5e-7, rel=0.1)


def test_certificate_serializes():
    cert = is_degraded(binary_symmetric_channel(0.1),
                       binary_symmetric_channel(0.2))
    d = cert.to_json_dict()
    assert d["feasible"] is True
    assert isinstance(d["garbling_matrix"], list)
    assert d["residual"] <= 1e-7


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


@pytest.mark.parametrize("n_in, n_mid, n_out",
                         [(2, 2, 2), (3, 5, 4), (5, 3, 7), (8, 8, 8)])
def test_garbling_lp_matches_the_loop_reference(monkeypatch, n_in, n_mid, n_out):
    # the solver must get the same bytes, -0.0 sign bits included
    import scipy.optimize

    seen = []
    solve = scipy.optimize.linprog

    def spy(c, A_ub, b_ub, A_eq, b_eq, **kwargs):
        seen.append((A_ub, b_ub, A_eq))
        return solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    rng = rng_stream(29, "lp-build", n_in, n_mid, n_out)
    support = np.arange(n_in, dtype=float)[:, None]
    w1 = random_channel(rng, support, n_mid)
    w2 = random_channel(rng, support, n_out)
    is_degraded(w1, w2)
    for got, want in zip(seen[0], _ref_garbling_lp(w1.matrix, w2.matrix)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
    _, _, ordered = blackwell_verify(j, d, tol=1e-10)
    assert ordered


def test_channel_rejects_non_stochastic_matrix():
    from mmse_lab import InvalidDistribution

    with pytest.raises(InvalidDistribution):
        Channel(input_support=np.array([[0.0], [1.0]]),
                output_support=np.array([[0.0], [1.0]]),
                matrix=np.array([[0.7, 0.7], [0.5, 0.5]]))


def run_after_import(code: str) -> None:
    """Run ``code`` in a fresh interpreter that has the package on its path."""
    src = str(Path(mmse_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_does_not_load_the_lp_solver():
    # scipy.optimize loads inside is_degraded, not at package import
    run_after_import(
        "import mmse_lab, sys; assert 'scipy.optimize' not in sys.modules")


def test_import_does_not_load_numpy_random():
    # numpy 2 loads numpy.random on first use; importing the package (the
    # Draw alias, say) must not be that use
    run_after_import(
        "import sys, numpy; eager = 'numpy.random' in sys.modules; "
        "import mmse_lab; assert eager or 'numpy.random' not in sys.modules")
