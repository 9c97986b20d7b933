"""End-to-end acceptance checks for the whole laboratory.

Every test here drives the public API only, pins the headline number of one
catalog scenario or property suite at its stated tolerance, and enforces a
wall-clock budget.  The conftest hook prints one PASS/FAIL line per
criterion after the run.
"""

import io
import math
import time

import numpy as np
import pytest

from mmse_lab import (
    FiniteJoint,
    RegressionConfig,
    binary_symmetric_channel,
    blackwell_verify,
    bsc_prior_joint,
    builtin_scenarios,
    example3_limit_joint,
    is_degraded,
    lmmse,
    make_random_degraded_scenario,
    mc_mmse_vs_exact,
    mmse_exact,
    moments_exact,
    quantize_joint,
    rng_stream,
    run_scenario,
    usc_check,
)
from mmse_lab.cli import EXIT_OK, RunConfig, cmd_run
from mmse_lab.convergence import tail_window
from mmse_lab.selftest import random_channel, random_joint

DOUBLING = [1, 2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def catalog():
    return builtin_scenarios()


@pytest.mark.criterion(1, "escaping-mass family: exact unit gap")
def test_criterion_01_escaping_mass_unit_gap(catalog):
    t0 = time.perf_counter()
    rep = run_scenario(catalog["example1"], range(1, 101))
    for row in rep.rows:
        # sqrt(n) and 1/(2n) are dyadic floats only for n = 4**k, so only
        # those indices are forced to come out bit-exact; elsewhere the
        # value sits within one ulp of 1.
        assert abs(row.mmse - 1.0) <= 1e-12
        if row.n in (1, 4, 16, 64):
            assert row.mmse == 1.0
    assert rep.limit_value == 0.0
    assert abs(rep.diagnostics.second_moment_gap - 1.0) <= 1e-12
    assert rep.verdict_matches is True
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "fractional-recovery family: floor and limit")
def test_criterion_02_fractional_recovery(catalog):
    t0 = time.perf_counter()
    rep = run_scenario(catalog["example2"], range(1, 17))
    for row in rep.rows:
        assert row.mmse <= 1e-3
    assert abs(rep.limit_value - 1.0 / 12.0) <= 2e-3
    assert rep.verdict_matches is True
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(3, "sign-erasure family: exact zero-vs-half jump")
def test_criterion_03_sign_erasure_exact(catalog):
    t0 = time.perf_counter()
    rep = run_scenario(catalog["example3"], range(1, 65))
    for row in rep.rows:
        assert row.mmse == 0.0
    assert rep.limit_value == 0.5
    assert rep.verdict_matches is True
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(4, "vanishing-noise family: both engines decrease to 0")
def test_criterion_04_vanishing_noise_two_engines(catalog):
    t0 = time.perf_counter()
    rep = run_scenario(catalog["example4"], DOUBLING, seed=0)
    exact = [row.mmse for row in rep.rows]
    sampled = [row.mmse for row in rep.mc_rows]
    assert len(sampled) == len(DOUBLING)
    assert all(a > b for a, b in zip(exact, exact[1:]))
    assert all(a > b for a, b in zip(sampled, sampled[1:]))
    assert exact[-1] <= 0.02
    assert sampled[-1] <= 0.02
    assert rep.limit_value == 0.0
    assert rep.verdict_matches is True
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(5, "perturbed-pair paths all reach the base value")
def test_criterion_05_perturbed_pair_paths(catalog):
    t0 = time.perf_counter()
    for name in ("cor1_additive", "cor1_additive_fast_x", "cor1_additive_fast_y"):
        rep = run_scenario(catalog[name], DOUBLING)
        assert abs(rep.rows[-1].mmse - 0.5) <= 0.02, name
        assert rep.verdict_matches is True, name
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(6, "quantized-pair convergence and cell variance")
def test_criterion_06_quantization(catalog):
    t0 = time.perf_counter()
    rep = run_scenario(catalog["cor2_quantization"], range(1, 65))
    assert abs(rep.rows[-1].mmse - 0.5) <= 0.02
    assert rep.verdict_matches is True

    # Perfectly correlated pair on a fine lattice: quantizing the
    # measurement with step lam leaves exactly the within-cell variance
    # (lam^2 - gamma^2) / 12, which approaches lam^2 / 12 as gamma -> 0.
    deviations = {}
    for g_exp in (8, 10):
        gamma = 2.0 ** -g_exp
        m = 2 ** g_exp
        cells = ((np.arange(m) + 0.5) * gamma)[:, None]
        lattice = FiniteJoint(x_support=cells, y_support=cells,
                              pmf=np.eye(m) / m)
        for lam in (1 / 8, 1 / 16, 1 / 32):
            value = mmse_exact(quantize_joint(lattice, gamma, lam)).mmse
            cell_var = lam * lam / 12.0
            assert abs(value - (lam * lam - gamma * gamma) / 12.0) <= 1e-15
            assert abs(value - cell_var) <= 0.10 * cell_var
            deviations[(g_exp, lam)] = abs(value - cell_var)
    for lam in (1 / 8, 1 / 16, 1 / 32):
        assert deviations[(10, lam)] < deviations[(8, lam)]
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(7, "one-sided tail check across catalog and random families")
def test_criterion_07_upper_tail_suite(catalog):
    t0 = time.perf_counter()
    grids = {"example2": range(1, 17), "example3": range(1, 65),
             "example4": DOUBLING}
    for name, grid in grids.items():
        rep = run_scenario(catalog[name], grid)
        assert usc_check(rep) is True, name
    for seed in range(50):
        scenario = make_random_degraded_scenario(seed)
        rep = run_scenario(scenario, [1, 2, 4, 8])
        assert usc_check(rep) is True, scenario.name
    rep1 = run_scenario(catalog["example1"], range(1, 101))
    assert usc_check(rep1) is False
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(8, "garbled measurements never beat the original")
def test_criterion_08_garbling_never_helps():
    t0 = time.perf_counter()
    rng = rng_stream(2024, "acceptance-ordering")
    for _ in range(500):
        joint = random_joint(rng, max_x=8, max_y=8)
        channel = random_channel(rng, joint.y_support)
        before, after, ordered = blackwell_verify(joint, channel)
        assert ordered is True
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(9, "symmetric-channel degradedness decision")
def test_criterion_09_symmetric_channel_decision():
    t0 = time.perf_counter()
    forward = is_degraded(binary_symmetric_channel(0.1),
                          binary_symmetric_channel(0.2))
    assert forward.feasible is True
    # cascading flips p then g gives p + g - 2pg; solving for 0.2 from
    # p = 0.1 pins the recovered garbling flip at 0.125
    assert abs(forward.garbling_matrix[0, 1] - 0.125) <= 1e-6
    assert abs(forward.garbling_matrix[1, 0] - 0.125) <= 1e-6
    reverse = is_degraded(binary_symmetric_channel(0.2),
                          binary_symmetric_channel(0.1))
    assert reverse.feasible is False
    assert reverse.residual >= 1e-3
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(10, "linear-estimation suite: mixture gap and dominance")
def test_criterion_10_linear_suite(catalog):
    t0 = time.perf_counter()
    mixture = catalog["lmmse_mixture"]
    grid = range(1, 201)
    rep = run_scenario(mixture, grid)
    for row in rep.rows:
        n = row.n
        predicted = 1.0 - (1.0 - 1.0 / n) ** 2 / (2.0 - 1.0 / n)
        assert abs(row.mmse - predicted) <= 1e-10

    assert rep.verdict_matches is True
    tail = rep.rows[len(rep.rows) - tail_window(len(rep.rows)):]
    tail_gap = abs(math.fsum(r.mmse for r in tail) / len(tail) - rep.limit_value)
    assert abs(tail_gap - 0.5) <= 0.02

    rng = rng_stream(99, "acceptance-dominance")
    for _ in range(200):
        joint = random_joint(rng)
        assert lmmse(moments_exact(joint)).value >= mmse_exact(joint).mmse - 1e-8

    vanishing = catalog["example4"]
    tail4 = [lmmse(moments_exact(vanishing.realize(n))).value
             for n in range(49, 65)]
    limit4 = lmmse(moments_exact(vanishing.limit)).value
    assert abs(math.fsum(tail4) / len(tail4) - limit4) <= 0.02
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(11, "regressogram agrees with the exact engine")
def test_criterion_11_sampled_vs_exact():
    t0 = time.perf_counter()
    scores = []
    for joint in (example3_limit_joint(), bsc_prior_joint(0.1)):
        for seed in (11, 12, 13):
            config = RegressionConfig(n_samples=100_000, seed=seed)
            _, _, z = mc_mmse_vs_exact(joint, config)
            scores.append(abs(z))
    assert max(scores) <= 5.0
    assert sum(1 for s in scores if s > 4.0) <= 1
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(12, "identical configs produce byte-identical reports")
def test_criterion_12_report_determinism(tmp_path):
    config = RunConfig(
        scenario_names=("example2", "example4", "markov_degraded_family"),
        seed=5, output_dir=str(tmp_path))
    names = [f"{s}.csv" for s in config.scenario_names]

    assert cmd_run(config, stream=io.StringIO(),
                   err_stream=io.StringIO()) == EXIT_OK
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert cmd_run(config, stream=io.StringIO(),
                   err_stream=io.StringIO()) == EXIT_OK
    for name in names:
        assert (tmp_path / name).read_bytes() == first[name]
