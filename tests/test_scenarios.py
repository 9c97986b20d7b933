import math

import numpy as np
import pytest

from mmse_lab import (
    ExpectedOutcome,
    InvalidDistribution,
    MissingWitness,
    OutcomeKind,
    ScenarioRunError,
    builtin_scenarios,
    compose,
    estimator_convergence_check,
    mmse_exact,
    run_scenario,
    usc_check,
)
from mmse_lab.probcore import FiniteJoint, moments_exact
from mmse_lab.scenarios import (
    EXAMPLE4_STEP,
    bsc_prior_joint,
    make_markov_degraded_scenario,
    make_random_degraded_scenario,
)

GRID = [1, 2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def catalog():
    return builtin_scenarios()


# --------------------------------------------------------------------------
# catalog contents
# --------------------------------------------------------------------------

def test_catalog_contains_the_documented_families(catalog):
    required = {"example1", "example2", "example3", "example4",
                "cor1_additive", "cor2_quantization",
                "markov_degraded_family", "lmmse_mixture"}
    assert required <= set(catalog)
    assert len(catalog) >= 8


def test_expected_outcomes_carry_the_target_values(catalog):
    e1 = catalog["example1"].expected
    assert e1.kind is OutcomeKind.DISCONTINUOUS_LSC
    assert (e1.sequence_limit_mmse, e1.limit_mmse) == (1.0, 0.0)

    e2 = catalog["example2"].expected
    assert e2.kind is OutcomeKind.DISCONTINUOUS_USC
    assert e2.sequence_limit_mmse == 0.0
    assert e2.limit_mmse == pytest.approx(1.0 / 12.0, abs=1e-6)

    e3 = catalog["example3"].expected
    assert e3.kind is OutcomeKind.DISCONTINUOUS_USC
    assert (e3.sequence_limit_mmse, e3.limit_mmse) == (0.0, 0.5)

    e4 = catalog["example4"].expected
    assert e4.kind is OutcomeKind.CONTINUOUS
    assert (e4.sequence_limit_mmse, e4.limit_mmse) == (0.0, 0.0)

    em = catalog["markov_degraded_family"].expected
    assert em.kind is OutcomeKind.CONTINUOUS
    assert em.limit_mmse == pytest.approx(0.36, abs=1e-12)

    ex = catalog["lmmse_mixture"].expected
    assert ex.kind is OutcomeKind.DISCONTINUOUS_LSC
    assert (ex.sequence_limit_mmse, ex.limit_mmse) == (0.5, 0.0)


def test_expected_outcome_rejects_inconsistent_continuity():
    with pytest.raises(InvalidDistribution):
        ExpectedOutcome(kind=OutcomeKind.CONTINUOUS, limit_mmse=0.0,
                        sequence_limit_mmse=0.5, source="broken on purpose")


def test_every_builtin_verdict_matches_expected(catalog):
    for name, scenario in catalog.items():
        rep = run_scenario(scenario, GRID, tol_abs=0.02, seed=0)
        assert rep.verdict_matches, name


# --------------------------------------------------------------------------
# the four counterexample/continuity families
# --------------------------------------------------------------------------

def test_escaping_mass_family_pins_mmse_at_one(catalog):
    rep = run_scenario(catalog["example1"], list(range(1, 101)), seed=0)
    assert max(abs(r.mmse - 1.0) for r in rep.rows) <= 1e-12
    assert rep.limit_value == 0.0
    assert rep.diagnostics.second_moment_gap == pytest.approx(1.0, abs=1e-15)
    # closed form: E[1{||X||^2 > a}||X||^2] = 1 while a < n
    assert rep.diagnostics.ui_proxy[4.0] == 1.0
    assert rep.verdict_matches


def test_fractional_recovery_family_values(catalog):
    sc = catalog["example2"]
    for n in (1, 2, 4, 8, 16):
        h = 1.0 / (64 * n)
        value = mmse_exact(sc.realize(n)).mmse
        # within each coarse cell the unresolved index is uniform on n
        # lattice points: variance h^2 (n^2 - 1) / 12
        assert value == pytest.approx(h * h * (n * n - 1) / 12.0, rel=1e-9)
        assert value <= 1e-3
    limit_value = mmse_exact(sc.limit).mmse
    assert limit_value == pytest.approx(1.0 / 12.0, abs=2e-3)


def test_shrinking_prior_family_is_exact(catalog):
    rep = run_scenario(catalog["example3"], GRID, seed=0)
    assert all(r.mmse == 0.0 for r in rep.rows)
    assert rep.limit_value == 0.5
    assert rep.verdict_matches


def test_vanishing_noise_family_decreases_to_zero(catalog):
    rep = run_scenario(catalog["example4"], GRID, seed=0)
    values = [r.mmse for r in rep.rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] <= 0.02
    assert rep.limit_value == pytest.approx(0.0, abs=1e-12)
    mc_values = [r.mmse for r in rep.mc_rows]
    assert all(a > b for a, b in zip(mc_values, mc_values[1:]))
    assert rep.verdict_matches


def test_vanishing_noise_second_moment_gaps(catalog):
    # the parameter marginal is shared across the family: gap exactly 0;
    # the measurement gap is 1/n^2 up to twice the quantization bias
    sc = catalog["example4"]
    rep = run_scenario(sc, GRID, seed=0)
    assert rep.diagnostics.second_moment_gap == 0.0
    lim_smy = moments_exact(sc.limit).second_moment_y
    for n in GRID:
        smy = moments_exact(sc.realize(n)).second_moment_y
        bias_bound = 2.0 * (EXAMPLE4_STEP**2 + EXAMPLE4_STEP / n)
        assert abs(abs(smy - lim_smy) - 1.0 / n**2) <= bias_bound


def test_quantization_family_hits_half_exactly(catalog):
    values = [mmse_exact(catalog["cor2_quantization"].realize(n)).mmse
              for n in range(1, 65)]
    assert max(abs(v - 0.5) for v in values) <= 1e-12


def test_additive_noise_paths_share_the_limit(catalog):
    for name in ("cor1_additive", "cor1_additive_fast_x", "cor1_additive_fast_y"):
        rep = run_scenario(catalog[name], GRID, seed=0)
        assert abs(rep.rows[-1].mmse - 0.5) <= 0.02, name
        assert rep.verdict_matches, name


# --------------------------------------------------------------------------
# run_scenario mechanics
# --------------------------------------------------------------------------

def test_grid_must_increase():
    sc = builtin_scenarios()["example3"]
    with pytest.raises(ScenarioRunError):
        run_scenario(sc, [4, 2, 8], seed=0)
    with pytest.raises(ScenarioRunError):
        run_scenario(sc, [], seed=0)
    with pytest.raises(ScenarioRunError):
        run_scenario(sc, [1, 2], tol_abs=0.0, seed=0)


def test_engine_errors_carry_scenario_context(catalog):
    import dataclasses

    def broken_realize(n):
        raise InvalidDistribution("synthetic failure")

    broken = dataclasses.replace(catalog["example3"], name="broken-clone",
                                 realize=broken_realize)
    with pytest.raises(ScenarioRunError, match="broken-clone"):
        run_scenario(broken, [1, 2], seed=0)


def test_realize_must_return_a_finite_joint(catalog):
    import dataclasses

    sampled = dataclasses.replace(catalog["example4"], name="sampled-clone",
                                  realize=catalog["example4"].mc_sampler)
    with pytest.raises(ScenarioRunError, match=r"sampled-clone.*realize\(1\)"):
        run_scenario(sampled, [1, 2], seed=0)


def test_limit_must_be_a_finite_joint(catalog):
    import dataclasses

    with pytest.raises(InvalidDistribution, match="limit must be a FiniteJoint"):
        dataclasses.replace(catalog["example4"],
                            limit=catalog["example4"].mc_sampler(1))


def test_markov_witness_reconstructs_each_index(catalog):
    sc = catalog["markov_degraded_family"]
    for n in (1, 4, 64):
        witnessed = compose(sc.limit, sc.markov_witness(n))
        direct = sc.realize(n)
        assert np.max(np.abs(witnessed.pmf - direct.pmf)) <= 1e-9
    rep = run_scenario(sc, GRID, seed=0)
    assert rep.diagnostics.markov_verified is True
    # garbling can only lose information, index by index
    for r in rep.rows:
        assert r.mmse >= rep.limit_value - 1e-9


def test_probability_proxy_reports_the_tail(catalog):
    rep = run_scenario(catalog["example1"], GRID, seed=0)
    assert rep.diagnostics.prob_convergence_proxy == pytest.approx(1.0 / 64.0)
    rep3 = run_scenario(catalog["example3"], GRID, seed=0)
    assert rep3.diagnostics.prob_convergence_proxy == 0.0


# --------------------------------------------------------------------------
# usc_check / estimator convergence
# --------------------------------------------------------------------------

def test_usc_check_on_the_example_families(catalog):
    for name in ("example2", "example3", "example4"):
        rep = run_scenario(catalog[name], GRID, seed=0)
        assert usc_check(rep, catalog[name].expected, slack=0.5), name
    rep1 = run_scenario(catalog["example1"], GRID, seed=0)
    assert not usc_check(rep1, catalog["example1"].expected, slack=0.5)


def test_random_degraded_scenarios_are_sound():
    for seed in range(5):
        sc = make_random_degraded_scenario(seed)
        rep = run_scenario(sc, GRID, seed=seed)
        assert rep.verdict_matches
        assert rep.diagnostics.markov_verified is True
        assert usc_check(rep, sc.expected, slack=0.05)


IDENTITY_BASE = FiniteJoint(
    x_support=np.array([[-1.0], [1.0]]),
    y_support=np.array([[-1.0], [1.0]]),
    pmf=np.array([[0.5, 0.0], [0.0, 0.5]]),
)

# Exact coupled mean-square estimator gap for a symmetric flip q on a
# +-1-uniform identity base: branch Z = Y has squared gap (2q)^2, branch
# Z = -Y has (2 - 2q)^2, so the value is 4 q (1 - q).  At q = 0.1/64:
ESTIMATOR_GAP_IDENTITY_64 = 0.0062402343750000006
# On a BSC(p) base both estimators shrink by (1 - 2p): 4 (1-2p)^2 q (1-q).
ESTIMATOR_GAP_BSC01_64 = 0.0039937500000000005


def test_estimator_convergence_identity_base():
    sc = make_markov_degraded_scenario("ident-base", IDENTITY_BASE,
                                       lambda n: 0.1 / n)
    value = estimator_convergence_check(sc, GRID, seed=0)
    q = 0.1 / 64
    assert value == pytest.approx(4 * q * (1 - q), abs=1e-15)
    assert value == pytest.approx(ESTIMATOR_GAP_IDENTITY_64, abs=1e-15)
    assert value <= 1e-2


def test_estimator_convergence_bsc_base(catalog):
    value = estimator_convergence_check(
        catalog["markov_degraded_family"], GRID, seed=0)
    assert value == pytest.approx(ESTIMATOR_GAP_BSC01_64, abs=1e-15)


def test_estimator_convergence_identity_witness_is_exact_zero():
    sc = make_markov_degraded_scenario("frozen", bsc_prior_joint(0.1),
                                       lambda n: 0.0)
    assert estimator_convergence_check(sc, GRID, seed=0) == 0.0


def test_estimator_convergence_detects_non_converging_witness():
    sc = make_markov_degraded_scenario("collapse", bsc_prior_joint(0.1),
                                       lambda n: 0.5)
    value = estimator_convergence_check(sc, GRID, seed=0)
    assert value >= 0.1


def test_estimator_convergence_requires_witness(catalog):
    with pytest.raises(MissingWitness):
        estimator_convergence_check(catalog["example1"], GRID, seed=0)


# --------------------------------------------------------------------------
# mixture scenario details
# --------------------------------------------------------------------------

def test_mixture_scenario_audits_the_linear_functional(catalog):
    sc = catalog["lmmse_mixture"]
    assert sc.audit == "lmmse"
    rep = run_scenario(sc, GRID, seed=0)
    for r in rep.rows:
        want = 1.0 - (1.0 - 1.0 / r.n) ** 2 / (2.0 - 1.0 / r.n)
        assert r.mmse == pytest.approx(want, abs=1e-10)
    assert rep.limit_value == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict_matches
