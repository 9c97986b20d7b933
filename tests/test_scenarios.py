import dataclasses
import math
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from mmse_lab import (
    Channel,
    ExpectedOutcome,
    InvalidDistribution,
    OutcomeKind,
    RegressionConfig,
    ScenarioRunError,
    ScenarioSequence,
    binary_symmetric_channel,
    builtin_scenarios,
    compose,
    conditional_expectation,
    is_degraded,
    lmmse,
    mc_mmse,
    mmse_exact,
    rng_stream,
    run_scenario,
    usc_check,
)
from mmse_lab import convergence, probcore
from mmse_lab.degradedness import _channel_of
from mmse_lab.mc import cube_root_bins
from mmse_lab.probcore import (
    SAMPLE_CHUNK,
    FiniteJoint,
    SufficientJoint,
    floor_index,
    floor_quantize,
    joint_from_atoms,
    moments_exact,
    quantize_joint,
)
from mmse_lab.scenarios import (
    EXAMPLE2_CELLS_PER_INDEX,
    EXAMPLE4_STEP,
    bsc_prior_joint,
    example3_limit_joint,
    uniform_lattice_cells,
)
from atom_realizations import (
    COR1_PATHS,
    atom_realization,
    cor1_atoms,
    cor1_sufficient,
    example2_atoms,
)
from mc_reference import reference_draw

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


@pytest.mark.parametrize("limit, sequence, kind", [
    (0.5, 0.5, OutcomeKind.CONTINUOUS),
    (0.0, -0.0, OutcomeKind.CONTINUOUS),
    (-0.0, 0.0, OutcomeKind.CONTINUOUS),
    (0.0, 1.0, OutcomeKind.DISCONTINUOUS_LSC),
    (0.0, 5e-324, OutcomeKind.DISCONTINUOUS_LSC),
    (0.5, 0.0, OutcomeKind.DISCONTINUOUS_USC),
    (-0.0, -5e-324, OutcomeKind.DISCONTINUOUS_USC),
])
def test_expected_outcome_kind_follows_the_two_values(limit, sequence, kind):
    # equal values are continuous (-0.0 == 0.0); otherwise the sequence
    # limit above the limit value is LSC and below it USC
    outcome = ExpectedOutcome(limit_mmse=limit, sequence_limit_mmse=sequence,
                              source="derivation under test")
    assert outcome.kind is kind
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.kind = OutcomeKind.CONTINUOUS


@pytest.mark.parametrize("kind, limit, sequence", [
    (OutcomeKind.DISCONTINUOUS_LSC, -math.inf, 1.0),
    (OutcomeKind.DISCONTINUOUS_USC, 0.5, -math.inf),
    (OutcomeKind.DISCONTINUOUS_LSC, 0.5, math.inf),
    (OutcomeKind.CONTINUOUS, math.inf, math.inf),
])
def test_expected_outcome_rejects_non_finite_values(kind, limit, sequence):
    with pytest.raises(InvalidDistribution, match="finite"):
        ExpectedOutcome(limit_mmse=limit, sequence_limit_mmse=sequence,
                        source="broken on purpose")
    # the largest finite values in the same order are accepted
    largest = [v if math.isfinite(v) else math.copysign(sys.float_info.max, v)
               for v in (limit, sequence)]
    outcome = ExpectedOutcome(limit_mmse=largest[0],
                              sequence_limit_mmse=largest[1],
                              source="largest finite values")
    assert outcome.kind is kind


@pytest.mark.parametrize("limit, sequence", [
    (math.nan, 0.5),
    (0.5, math.nan),
    (math.nan, math.nan),
])
def test_expected_outcome_rejects_nan(limit, sequence):
    with pytest.raises(InvalidDistribution, match="finite"):
        ExpectedOutcome(limit_mmse=limit, sequence_limit_mmse=sequence,
                        source="broken on purpose")


def test_declared_limit_values_match_the_engine(catalog):
    # every scenario's declared limit value is the engine's value at its
    # limit pair (the grid does not enter the limit value)
    assert len(catalog) == 10
    for name, scenario in catalog.items():
        got = run_scenario(scenario, [1], seed=0).limit_value
        assert got == pytest.approx(scenario.expected.limit_mmse,
                                    rel=1e-12, abs=0.0), name


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


def test_quantization_keeps_the_limit_letters_on_the_linear_grid(catalog):
    # k * (1/n) need not give a lattice point back: 49 * (1/49) is
    # 0.9999999999999999, which would move the letters +-1 off the limit's
    sc = catalog["cor2_quantization"]
    for n in range(1, 1025):
        joint = sc.realize(n)
        assert np.array_equal(joint.x_support, sc.limit.x_support), n
        assert np.array_equal(joint.y_support, sc.limit.y_support), n
    clone = dataclasses.replace(sc, name="markov-clone", markovian=True)
    rep = run_scenario(clone, [49, 98, 103, 107], seed=0)
    assert rep.diagnostics.markov_verified is True


def test_quantization_gives_each_cell_one_letter():
    # 0.1 + 0.2 is 0.30000000000000004; both it and 0.3 snap to cell 3 of
    # the 0.1 lattice, and the cell's letter is the lattice point 0.3
    joint = joint_from_atoms([((0.0,), (0.1 + 0.2,), 0.25),
                              ((1.0,), (0.3,), 0.25),
                              ((1.0,), (0.35,), 0.5)])
    q = quantize_joint(joint, 1.0, 0.1)
    assert q.y_support.tolist() == [[0.3]]
    assert q.x_support.tolist() == [[0.0], [1.0]]
    assert q.pmf.tolist() == [[0.25], [0.75]]


def test_additive_noise_paths_share_the_limit(catalog):
    for name in ("cor1_additive", "cor1_additive_fast_x", "cor1_additive_fast_y"):
        rep = run_scenario(catalog[name], GRID, seed=0)
        assert abs(rep.rows[-1].mmse - 0.5) <= 0.02, name
        assert rep.verdict_matches, name


# --------------------------------------------------------------------------
# closed forms on the deep grid
# --------------------------------------------------------------------------

DEEP_GRID = [2**k for k in range(11)]


@pytest.mark.parametrize("n", DEEP_GRID)
def test_closed_form_values_on_the_deep_grid(catalog, n):
    mixture = moments_exact(catalog["lmmse_mixture"].realize(n))
    want = 1.0 - (1.0 - 1.0 / n) ** 2 / (2.0 - 1.0 / n)
    assert abs(lmmse(mixture).value - want) <= 1e-12
    assert abs(mmse_exact(catalog["example1"].realize(n)).mmse - 1.0) <= 1e-12
    assert mmse_exact(catalog["example3"].realize(n)).mmse == 0.0


@pytest.mark.parametrize("name", list(builtin_scenarios()))
def test_every_engine_reads_the_law_s_second_moments(catalog, name):
    # a law has one E||X||^2 and one E||Y||^2: the report's, which the
    # engines must give bit for bit on fresh realizations of the same laws
    sc = catalog[name]
    rep = run_scenario(sc, DEEP_GRID, seed=0)
    last, diag = rep.rows[-1], rep.diagnostics
    for row in rep.rows:
        law = sc.realize(row.n)
        assert mmse_exact(law).second_moment_x == row.second_moment_x, row.n
        if isinstance(law, FiniteJoint):
            ms = moments_exact(law)
            assert (ms.second_moment_x, ms.second_moment_y) == (
                row.second_moment_x, row.second_moment_y), row.n
    # the limit's moments reach the report through the gaps
    limit = FiniteJoint(sc.limit.x_support, sc.limit.y_support,
                        sc.limit.pmf)
    ms = moments_exact(limit)
    assert mmse_exact(limit).second_moment_x == ms.second_moment_x
    assert diag.second_moment_gap == abs(last.second_moment_x
                                         - ms.second_moment_x)
    assert diag.second_moment_gap_y == abs(last.second_moment_y
                                           - ms.second_moment_y)


POWERS_OF_TWO = [2**k for k in range(15)]  # 1 .. 16384
CLOSED_FORM_ULPS = 4


def _cor1_closed_form(gamma: Fraction, lam: Fraction) -> Fraction:
    # the base pair's 1/2 plus the variance of the perturbation of X, a
    # uniform law of width gamma on the lattice of step h: (gamma^2 - h^2)/12
    h = min(gamma, lam) / 8
    return Fraction(1, 2) + (gamma**2 - h**2) / 12


def _example2_closed_form(n: int) -> Fraction:
    # the coarse cell leaves X uniform on n lattice points of step h
    cells = EXAMPLE2_CELLS_PER_INDEX * n
    return Fraction(n * n - 1, 12 * cells * cells)


def _assert_within_ulps(got: float, want: Fraction, what: str):
    want = float(want)
    assert abs(got - want) <= CLOSED_FORM_ULPS * math.ulp(want), (what, got, want)


@pytest.mark.parametrize("n", POWERS_OF_TWO)
def test_lattice_scenarios_meet_their_rational_closed_forms(catalog, n):
    for name, (gamma, lam) in COR1_PATHS.items():
        _assert_within_ulps(mmse_exact(catalog[name].realize(n)).mmse,
                            _cor1_closed_form(gamma(Fraction(n)),
                                              lam(Fraction(n))), name)
    _assert_within_ulps(mmse_exact(catalog["example2"].realize(n)).mmse,
                        _example2_closed_form(n), "example2")
    _assert_within_ulps(mmse_exact(catalog["cor2_quantization"].realize(n)).mmse,
                        Fraction(1, 2), "cor2_quantization")


def test_reduced_additive_paths_meet_the_closed_form_at_every_index(catalog):
    # the x runs sit on the lattice at every integer n, so the closed form
    # holds off the powers of two too; reduced to T(Y_n), the engine meets
    # it there as well (the atom form is up to 8.4e-13 off on this grid)
    for n in range(1, 129):
        for name, (gamma, lam) in COR1_PATHS.items():
            _assert_within_ulps(mmse_exact(catalog[name].realize(n)).mmse,
                                _cor1_closed_form(gamma(Fraction(n)),
                                                  lam(Fraction(n))), (name, n))


def test_closed_form_values_at_single_indices(catalog):
    # the additive paths all start from unit noise scales at n = 1
    for name in ("cor1_additive", "cor1_additive_fast_x", "cor1_additive_fast_y"):
        assert mmse_exact(catalog[name].realize(1)).mmse == 149 / 256, name
    # h^2 (n^2 - 1) / 12 with h = 1/128 and n = 2
    assert mmse_exact(catalog["example2"].realize(2)).mmse == 1 / 65536


# --------------------------------------------------------------------------
# run_scenario mechanics
# --------------------------------------------------------------------------

def test_grid_entries_must_be_integers(catalog):
    sc = catalog["example3"]
    # np.geomspace(1, 1024, 11) holds 7.999999999999999 where 8 was meant,
    # which int() would have run as n = 7
    with pytest.raises(ScenarioRunError, match=r"entry 7\.999999999999999 "):
        run_scenario(sc, np.geomspace(1, 1024, 11), seed=0)
    want = run_scenario(sc, [1, 2, 4], seed=0)
    for grid in (np.array([1.0, 2.0, 4.0]), np.array([1, 2, 4]), (1.0, 2, 4)):
        assert run_scenario(sc, grid, seed=0) == want


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_non_finite_grid_entries_are_refused(catalog, entry):
    # int() would raise ValueError on NaN and OverflowError on +-inf
    with pytest.raises(ScenarioRunError, match=rf"entry {entry!r} is not"):
        run_scenario(catalog["example3"], [1, entry], seed=0)


def test_grid_must_increase():
    sc = builtin_scenarios()["example3"]
    with pytest.raises(ScenarioRunError):
        run_scenario(sc, [4, 2, 8], seed=0)
    with pytest.raises(ScenarioRunError):
        run_scenario(sc, [], seed=0)
    with pytest.raises(ScenarioRunError):
        run_scenario(sc, [1, 2], tol_abs=0.0, seed=0)
    with pytest.raises(ScenarioRunError, match="finite"):
        run_scenario(sc, [1, 2], tol_abs=math.inf, seed=0)


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


def test_reduced_realization_is_refused_where_every_atom_is_read(catalog):
    import dataclasses

    clone = dataclasses.replace(catalog["cor1_additive"], name="reduced-clone",
                                audit="lmmse", mc_sampler=None)
    with pytest.raises(ScenarioRunError,
                       match=r"reduced-clone.*moments_exact needs a FiniteJoint"):
        run_scenario(clone, [1, 2], seed=0)


def test_markovian_claim_on_a_reduced_realization_is_decided(catalog):
    # example2's X lattice matches its limit's at n = 16; the (X, T) core
    # reveals the coarse cell of X, which no garbling of the limit's bit does
    import dataclasses

    clone = dataclasses.replace(catalog["example2"], name="markov-clone",
                                markovian=True)
    rep = run_scenario(clone, [16], seed=0)
    assert rep.diagnostics.markov_verified is False
    # at n = 8 the X lattices differ, which no garbling can mend
    assert run_scenario(clone, [8], seed=0).diagnostics.markov_verified is False


def test_markovian_claim_needs_the_limit_x_law(catalog):
    # the limit's channel P(Y | X), a BSC(0.1), under a prior of (0.6, 0.4)
    import dataclasses

    sc = catalog["markov_degraded_family"]
    tilted = FiniteJoint(x_support=sc.limit.x_support,
                         y_support=sc.limit.y_support,
                         pmf=np.array([[0.54, 0.06], [0.04, 0.36]]))
    clone = dataclasses.replace(sc, name="tilted", realize=lambda n: tilted)
    assert run_scenario(clone, [1], seed=0).diagnostics.markov_verified is False


@pytest.mark.parametrize("side", ["limit", "realization"])
def test_markovian_claim_needs_the_limit_x_letters_with_mass(catalog, side):
    # markov_degraded_family on the X letters {-1, 0, 1}: one side puts 1e-13,
    # within PMF_TOL, on X = 0, taken from a cell of X = -1, and the other
    # puts none.  Each channel keeps only the letters with mass, so their
    # input alphabets differ; that is another X law, not a failed run.
    import dataclasses

    def joint(pmf, moved):
        pmf = np.insert(pmf, 1, 0.0, axis=0)
        pmf[0, 0] -= moved
        pmf[1, 0] += moved
        return FiniteJoint(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0]), pmf)

    sc = catalog["markov_degraded_family"]
    on_limit = 1e-13 if side == "limit" else 0.0
    clone = dataclasses.replace(
        sc, name="near-empty-letter", limit=joint(sc.limit.pmf, on_limit),
        realize=lambda n: joint(sc.realize(n).pmf, 1e-13 - on_limit))
    assert run_scenario(clone, [1, 2], seed=0).diagnostics.markov_verified is False


def test_lmmse_audit_takes_no_monte_carlo_sampler(catalog):
    # the sampler's estimate is of the MMSE, not of the audited LMMSE
    import dataclasses

    with pytest.raises(InvalidDistribution, match="mc_sampler"):
        dataclasses.replace(catalog["example4"], audit="lmmse")


def test_unknown_audit_is_refused(catalog):
    with pytest.raises(InvalidDistribution, match="unknown audit 'mse'"):
        dataclasses.replace(catalog["example1"], audit="mse")


def test_limit_must_be_a_finite_joint(catalog):
    import dataclasses

    with pytest.raises(InvalidDistribution, match="limit needs a FiniteJoint"):
        dataclasses.replace(catalog["example4"],
                            limit=catalog["example4"].mc_sampler(1))


# (n, mmse, std_err) of run_scenario(s, MC_PIN_GRID, seed=7).mc_rows over the
# benchmark's grid 1, 2, 4, ..., 1024.  A change to a draw function's body or
# RNG call order, to the derived seeds or to the binning moves these values,
# and the report comparisons leave mc_rows out.  The grid reaches example2's
# large bin counts: 64 (n + 1) bins, 65,600 at n = 1024, of which at most 128
# hold a sample.  No row here drops a sparse bin; tests/test_mc.py covers that.
MC_PIN_GRID = [2 ** k for k in range(11)]
PINNED_MC_ROWS = {
    "example2": [
        (1, 2.0427849704543003e-05, 5.7584495595289425e-08),
        (2, 2.0383350603941737e-05, 5.7582039637368174e-08),
        (4, 2.0252292349833407e-05, 5.736031058393924e-08),
        (8, 2.036208069906479e-05, 5.7652969794886866e-08),
        (16, 2.0332443801140275e-05, 5.772254714039317e-08),
        (32, 2.0233889735663344e-05, 5.732122589889365e-08),
        (64, 2.035273978532663e-05, 5.7594096311922216e-08),
        (128, 2.038973236504611e-05, 5.7627147561752774e-08),
        (256, 2.0322481309616175e-05, 5.7587224225783934e-08),
        (512, 2.030856191697142e-05, 5.7579513343020005e-08),
        (1024, 2.0341179183304242e-05, 5.757789047147449e-08)],
    "example4": [
        (1, 0.5005523570428898, 0.001868983986247914),
        (2, 0.18870567989962692, 0.0006371139541704553),
        (4, 0.05544238866992731, 0.00017401136822455744),
        (8, 0.015093319434029117, 4.693920120383071e-05),
        (16, 0.00426854012598415, 1.4084711756176191e-05),
        (32, 0.0014225046204191785, 5.237372593925766e-06),
        (64, 0.000702718545345545, 2.587518988415946e-06),
        (128, 0.0005129714166111435, 1.6697108473791528e-06),
        (256, 0.00046682887284218543, 1.383258604919665e-06),
        (512, 0.0004583015875307143, 1.3094095777107875e-06),
        (1024, 0.0004529342669249209, 1.2880894878183356e-06)],
    "cor1_additive": [
        (1, 0.5833295013502463, 0.0020511192661536587),
        (2, 0.5223461850425375, 0.0017111234730229562),
        (4, 0.5037972828923435, 0.0016157297066450413),
        (8, 0.49811702655948276, 0.0015897104082934215),
        (16, 0.49874411910864236, 0.0015833313290384964),
        (32, 0.5001180918006065, 0.0015826006759274093),
        (64, 0.5015427947018846, 0.0015812382136860506),
        (128, 0.5019237270371557, 0.0015812350935834887),
        (256, 0.5007947654369547, 0.0015811396620738927),
        (512, 0.49894842524302074, 0.0015811379302289681),
        (1024, 0.5015287419955082, 0.0015811277792407217)],
    "cor1_additive_fast_x": [
        (1, 0.5884763560455825, 0.002063737326876696),
        (2, 0.5066272735977393, 0.001615354325073953),
        (4, 0.4991764640563493, 0.0015838579885980473),
        (8, 0.4966311213280417, 0.001581435351506736),
        (16, 0.5014576581529404, 0.0015812598095131356),
        (32, 0.5004409417033039, 0.0015812244890990252),
        (64, 0.4987690024167648, 0.0015814336557738364),
        (128, 0.5009434974350976, 0.0015811981735446427),
        (256, 0.4994399929794669, 0.0015812321328609923),
        (512, 0.4986557224993267, 0.001581173658814152),
        (1024, 0.49907257201029587, 0.0015813962971288104)],
    "cor1_additive_fast_y": [
        (1, 0.5834340508722824, 0.002053371420565347),
        (2, 0.5196484754841864, 0.00170967174703897),
        (4, 0.5036364007841353, 0.0016150746987267939),
        (8, 0.5015024146385371, 0.0015895354276590351),
        (16, 0.5001837212248805, 0.0015831484554944383),
        (32, 0.5024811895777724, 0.001581388895496052),
        (64, 0.500928986152628, 0.0015812672454122744),
        (128, 0.500355448795758, 0.0015812660538358002),
        (256, 0.4998443170252033, 0.0015812032267135132),
        (512, 0.4992401227941418, 0.0015813611592504135),
        (1024, 0.49948404842685384, 0.0015812005565450777)],
}


@pytest.mark.parametrize("name", sorted(PINNED_MC_ROWS))
def test_mc_rows_are_pinned(catalog, name):
    rows = run_scenario(catalog[name], MC_PIN_GRID, seed=7).mc_rows
    assert [(r.n, r.mmse, r.std_err) for r in rows] == PINNED_MC_ROWS[name]


@pytest.mark.parametrize("name", sorted(PINNED_MC_ROWS))
def test_draws_match_the_allocating_reference(catalog, name):
    # the draws fill NaN buffers, so a value they leave unwritten shows; the
    # sizes straddle the chunk boundaries of the chunked draws
    sizes = (1, 7, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1,
             3 * SAMPLE_CHUNK + 1, 100_000)
    for n in (1, 3, 64, 1024):
        draw, want_draw = catalog[name].mc_sampler(n), reference_draw(name, n)
        for seed in (0, 7, 2 ** 40 + 1):
            for size in sizes:
                rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = np.full((size, 1), np.nan), np.full((size, 1), np.nan)
                draw(rng, *got)
                want = want_draw(want_rng, size)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (n, seed, size)
                assert rng.bit_generator.state == want_rng.bit_generator.state


def second_moment_terms():
    """Term arrays for the chunked exact sum, with what a plain sum loses."""
    rng = np.random.default_rng(61)
    tiny = np.finfo(float).smallest_subnormal
    yield np.array([1e300, 1.0, -1e300, 1e-300])  # a naive sum gives 1e-300
    yield np.array([1e300, -1e300])
    yield np.array([tiny, 3.0 * tiny, -tiny, 2.5e-320])
    for size in (1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1,
                 2 * SAMPLE_CHUNK, 3 * SAMPLE_CHUNK + 1):
        terms = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)
        # cancelling pairs that straddle each chunk boundary
        terms[SAMPLE_CHUNK - 1::SAMPLE_CHUNK] = 1e300
        terms[SAMPLE_CHUNK::SAMPLE_CHUNK] = -1e300
        yield terms


@pytest.mark.parametrize("terms", list(second_moment_terms()))
def test_second_moment_is_the_exactly_rounded_sum(terms):
    # unit points leave the weights as the terms of the sum
    got = probcore._second_moment(np.ones((terms.size, 1)), terms)
    assert got.hex() == math.fsum(terms).hex()


def test_example2_mc_allocates_per_bin_and_per_sample(catalog):
    # at n = 16384 the regressogram has 64 (n + 1) = 1,048,640 bins, ten per
    # sample; each bin holds a count (8 B), a retained flag (1 B) and a mean
    # (8 B, divided in the buffer of its sum), and the only sample-sized
    # arrays are the two buffers of 8 B per sample that mc_mmse allocates
    # when it is given none
    sc = catalog["example2"]
    n = 16384
    config = RegressionConfig(n_samples=100_000, seed=3, bins=sc.mc_bins(n))
    draw = sc.mc_sampler(n)
    mc_mmse(draw, RegressionConfig(n_samples=1_000, seed=3))  # lazy imports
    tracemalloc.start()
    try:
        mc_mmse(draw, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * config.bins + 16 * config.n_samples + 2 ** 18


@pytest.mark.parametrize("name, n", [
    ("example4", 1024),              # 47 bins
    ("cor1_additive", 1024),         # 47 bins; the draw takes two chunks
    ("example2", 1024),              # 65,600 bins
])
def test_mc_in_caller_buffers_allocates_only_bins_and_chunks(catalog, name, n):
    # the memory contract of the mc module docstring: with the sample
    # buffers given, each bin holds a count (8 B), a retained flag (1 B) and
    # a mean (8 B), and the rest is chunks of SAMPLE_CHUNK samples
    sc = catalog[name]
    config = RegressionConfig(
        n_samples=convergence.MC_SAMPLES, seed=3,
        bins=None if sc.mc_bins is None else sc.mc_bins(n))
    bins = config.bins or cube_root_bins(config.n_samples)
    xs, ys = np.empty((config.n_samples, 1)), np.empty((config.n_samples, 1))
    draw = sc.mc_sampler(n)
    mc_mmse(draw, config, xs, ys)  # lazy imports
    tracemalloc.start()
    try:
        mc_mmse(draw, config, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * bins + 3 * 8 * SAMPLE_CHUNK


@pytest.mark.parametrize("name", ["example2", "example4"])
def test_no_realized_law_is_alive_during_the_draw(catalog, monkeypatch, name):
    laws = []

    def realize(n):
        joint = catalog[name].realize(n)
        laws.append(weakref.ref(joint))
        return joint

    def mc_mmse_without_laws(draw, config, *buffers):
        assert all(law() is None for law in laws), "a realized law is alive"
        return mc_mmse(draw, config, *buffers)

    monkeypatch.setattr(convergence, "mc_mmse", mc_mmse_without_laws)
    clone = dataclasses.replace(catalog[name], realize=realize)
    rep = run_scenario(clone, [1, 2, 4], seed=0)
    assert len(laws) == len(rep.mc_rows) == 3
    # the ui proxy still reads the last index's law
    last = catalog[name].realize(4)
    assert rep.diagnostics.ui_proxy == {
        a: convergence.ui_functional(last, a) for a in convergence.UI_GRID}


def test_example2_peak_is_one_law_and_its_stage(catalog):
    # realize(1024) has 64 * 1024 atoms and one x support row per atom: the
    # law is five atom-sized arrays of 8 B (the x support, x_idx, y_idx,
    # prob and the cached x marginal), and mmse_exact adds one more and its
    # chunks.  The Monte Carlo loop's peak (two 0.8 MB sample buffers and
    # 1.1 MB for 65 600 bins) is under that bound too, but not with the
    # law's 2.5 MiB on top, as when the law was kept through the draw.
    sc = catalog["example2"]
    atoms = EXAMPLE2_CELLS_PER_INDEX * 1024
    run_scenario(sc, [1, 2], seed=0)  # lazy imports
    tracemalloc.start()
    try:
        run_scenario(sc, [1024], seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 8 * atoms + 2 ** 18


@pytest.mark.parametrize("name", sorted(PINNED_MC_ROWS))
def test_monte_carlo_indices_reuse_the_sample_buffers(catalog, monkeypatch,
                                                      name):
    # after the first Monte Carlo index, an index allocates bin-sized arrays
    # and chunks, and no sample-sized array: not even half of one
    peaks = []

    def traced(draw, config, *buffers):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        est = mc_mmse(draw, config, *buffers)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return est

    monkeypatch.setattr(convergence, "mc_mmse", traced)
    tracemalloc.start()
    try:
        run_scenario(catalog[name], GRID, seed=0)
    finally:
        tracemalloc.stop()
    assert len(peaks) == len(GRID)
    assert max(peaks[1:]) < 4 * convergence.MC_SAMPLES, peaks


def test_markov_witness_reconstructs_each_index(catalog):
    sc = catalog["markov_degraded_family"]
    for n in (1, 4, 64):
        witnessed = compose(sc.limit, binary_symmetric_channel(0.1 / n))
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
        assert usc_check(rep, slack=0.5), name
    rep1 = run_scenario(catalog["example1"], GRID, seed=0)
    assert not usc_check(rep1, slack=0.5)


def make_random_degraded_scenario(seed: int) -> ScenarioSequence:
    """Random base joint of 2 to 6 letters per coordinate, garbled by a
    shrinking random stochastic kernel.

    The garbling is D_n = (1 - 2^-n) I + 2^-n R with R a fixed random
    row-stochastic matrix, so realize(n) -> base geometrically and every
    realization is degraded with respect to the base by construction.
    """
    rng = rng_stream(seed, "random_degraded")
    nx = int(rng.integers(2, 7))
    ny = int(rng.integers(2, 7))
    grid = np.linspace(-2.0, 2.0, 33)
    x_vals = np.sort(rng.choice(grid, size=nx, replace=False))[:, None]
    y_vals = np.sort(rng.choice(grid, size=ny, replace=False))[:, None]
    pmf = rng.exponential(1.0, (nx, ny))
    pmf /= pmf.sum()
    base = FiniteJoint(x_support=x_vals, y_support=y_vals, pmf=pmf)
    mixer = rng.exponential(1.0, (ny, ny))
    mixer /= mixer.sum(axis=1, keepdims=True)

    def garbling(n: int) -> Channel:
        eps = 2.0 ** (-n)
        mat = (1.0 - eps) * np.eye(ny) + eps * mixer
        return Channel(input_support=y_vals, output_support=y_vals, matrix=mat)

    value = mmse_exact(base).mmse
    return ScenarioSequence(
        name=f"random_degraded_{seed}",
        realize=lambda n: compose(base, garbling(n)),
        limit=base,
        expected=ExpectedOutcome(
            limit_mmse=value, sequence_limit_mmse=value,
            source="geometrically vanishing random garbling of a random base"),
        markovian=True,
        x_deviation_prob=lambda n, eps: 0.0,
        notes="randomized degraded family used by the property suite",
    )


def test_random_degraded_scenarios_are_sound():
    for seed in range(5):
        sc = make_random_degraded_scenario(seed)
        rep = run_scenario(sc, GRID, seed=seed)
        assert rep.verdict_matches
        assert rep.diagnostics.markov_verified is True
        assert usc_check(rep, slack=0.05)


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


def estimator_convergence_check(limit: FiniteJoint, channel: Channel) -> float:
    """Exact mean-square distance between the garbled and limit estimators.

    Y_n is the limit's Y sent through ``channel`` D_n, which couples
    (Y, Y_n) exactly:

        E || g_n(Y_n) - g(Y) ||^2
          = sum_{y, z} P(Y = y) D_n(z | y) || g_n(z) - g(y) ||^2 .

    With an identity channel the value is exactly 0; a channel that
    destroys the measurement entirely keeps it pinned at the limit
    estimator's second moment.
    """
    g = conditional_expectation(limit)
    composed = compose(limit, channel)
    gn = conditional_expectation(composed)
    # (y, z) table over the positive-mass atoms that index g.estimates and
    # gn.estimates; every z with P(Y = y) D_n(z | y) > 0 has positive mass
    py = limit.y_marginal()
    keep_y = py > 0.0
    keep_z = composed.y_marginal() > 0.0
    mass = py[keep_y, None] * channel.matrix[np.ix_(keep_y, keep_z)]
    d = gn.estimates[None, :, :] - g.estimates[:, None, :]
    return float((mass * (d * d).sum(axis=2)).sum())


def test_estimator_convergence_identity_base():
    q = 0.1 / 64
    value = estimator_convergence_check(IDENTITY_BASE,
                                        binary_symmetric_channel(q))
    assert value == pytest.approx(4 * q * (1 - q), abs=1e-15)
    assert value == pytest.approx(ESTIMATOR_GAP_IDENTITY_64, abs=1e-15)
    assert value <= 1e-2


def test_estimator_convergence_bsc_base(catalog):
    sc = catalog["markov_degraded_family"]
    channel = binary_symmetric_channel(0.1 / GRID[-1])
    value = estimator_convergence_check(sc.limit, channel)
    assert value == pytest.approx(ESTIMATOR_GAP_BSC01_64, abs=1e-15)
    # the BSC base has full rank, so the decision's G is that channel
    cert = is_degraded(_channel_of(sc.limit),
                       _channel_of(sc.realize(GRID[-1])))
    assert cert.feasible
    np.testing.assert_allclose(cert.garbling_matrix, channel.matrix,
                               rtol=0.0, atol=1e-12)


def test_estimator_convergence_identity_witness_is_exact_zero():
    assert estimator_convergence_check(
        bsc_prior_joint(0.1), binary_symmetric_channel(0.0)) == 0.0


def test_estimator_convergence_detects_non_converging_witness():
    value = estimator_convergence_check(bsc_prior_joint(0.1),
                                        binary_symmetric_channel(0.5))
    assert value >= 0.1


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


def test_mixture_audit_rejects_an_undeclared_gap(catalog):
    # declared continuous at 0, the linear values stalling at 1/2 must read
    # as a mismatch (the test above checks that the declared gap matches)
    sc = catalog["lmmse_mixture"]
    wrong = dataclasses.replace(sc, expected=ExpectedOutcome(
        limit_mmse=0.0, sequence_limit_mmse=0.0,
        source="gap left undeclared on purpose"))
    assert run_scenario(wrong, GRID, seed=0).verdict_matches is False


# --------------------------------------------------------------------------
# array-built joints against the per-triple loop construction
# --------------------------------------------------------------------------
# The references below are the loop form of the lattice realizations and of
# the probcore constructors: (x_key, y_key, prob) triples accumulated one at
# a time in a dict, in the same triple order as the array code.  The array
# code must reproduce their supports and pmf bit for bit.  A joint keeps only
# its positive atoms and normalizes by their sum, so the references divide
# by the sum of the nonzero entries in row-major order, not of the dense
# table (the two sums group the additions differently).

def _ref_lattice_floor(value, step):
    r = value / step
    nearest = round(r)
    if abs(r - nearest) <= 4.0 * np.finfo(float).eps * max(1.0, abs(r)):
        return int(nearest)
    return int(math.floor(r))


def _ref_lattice_cells(lo, hi, step):
    total = hi - lo
    cells = []
    j = _ref_lattice_floor(lo, step)
    while j * step < hi:
        left = max(lo, j * step)
        right = min(hi, (j + 1) * step)
        if right > left:
            cells.append((j, (right - left) / total))
        j += 1
    return cells


def _ref_joint_from_cell_triples(triples, x_value, y_value):
    mass = {}
    for xk, yk, p in triples:
        mass[(xk, yk)] = mass.get((xk, yk), 0.0) + p
    x_keys = sorted({k[0] for k in mass})
    y_keys = sorted({k[1] for k in mass})
    xi = {k: i for i, k in enumerate(x_keys)}
    yi = {k: j for j, k in enumerate(y_keys)}
    pmf = np.zeros((len(x_keys), len(y_keys)))
    for (xk, yk), p in mass.items():
        pmf[xi[xk], yi[yk]] += p
    pmf /= pmf[pmf != 0.0].sum()
    return FiniteJoint(
        x_support=np.array([[x_value(k)] for k in x_keys]),
        y_support=np.array([[y_value(k)] for k in y_keys]),
        pmf=pmf,
    )


def _ref_example2(n):
    cells = 64 * n
    h = 1.0 / cells
    triples = [(j, (b, j // n), 0.5 / cells)
               for j in range(cells) for b in (0, 1)]
    return _ref_joint_from_cell_triples(
        triples, x_value=lambda j: j * h, y_value=lambda key: key[0] + key[1] * h)


def _ref_example4(n):
    h = EXAMPLE4_STEP
    root3 = math.sqrt(3.0)
    triples = [(i, i + j, pi * pj)
               for i, pi in _ref_lattice_cells(-root3, root3, h)
               for j, pj in _ref_lattice_cells(-root3 / n, root3 / n, h)]
    return _ref_joint_from_cell_triples(
        triples, x_value=lambda i: i * h, y_value=lambda s: s * h)


def _ref_example4_limit():
    h = EXAMPLE4_STEP
    root3 = math.sqrt(3.0)
    triples = [(i, i, p) for i, p in _ref_lattice_cells(-root3, root3, h)]
    return _ref_joint_from_cell_triples(
        triples, x_value=lambda i: i * h, y_value=lambda i: i * h)


def _ref_cor1(gamma, lam):
    base = example3_limit_joint()
    h = min(gamma, lam) / 8.0
    triples = []
    for i_atom in range(base.x_support.shape[0]):
        for j_atom in range(base.y_support.shape[0]):
            p = base.pmf[i_atom, j_atom]
            if p == 0.0:
                continue
            x0 = float(base.x_support[i_atom, 0])
            y0 = float(base.y_support[j_atom, 0])
            for i, pi in _ref_lattice_cells(x0 - gamma / 2.0, x0 + gamma / 2.0, h):
                for j, pj in _ref_lattice_cells(y0 - lam / 2.0, y0 + lam / 2.0, h):
                    triples.append((i, j, p * pi * pj))
    return _ref_joint_from_cell_triples(
        triples, x_value=lambda i: i * h, y_value=lambda j: j * h)


def _ref_joint_from_atoms(atoms):
    mass = {}
    for x, y, p in atoms:
        xt = tuple(float(v) for v in np.atleast_1d(x))
        yt = tuple(float(v) for v in np.atleast_1d(y))
        mass.setdefault(xt, {})
        mass[xt][yt] = mass[xt].get(yt, 0.0) + float(p)
    x_atoms = sorted(mass.keys())
    y_atoms = sorted({yt for row in mass.values() for yt in row})
    y_index = {yt: j for j, yt in enumerate(y_atoms)}
    pmf = np.zeros((len(x_atoms), len(y_atoms)))
    for i, xt in enumerate(x_atoms):
        for yt, p in mass[xt].items():
            pmf[i, y_index[yt]] += p
    return FiniteJoint(x_support=np.array(x_atoms), y_support=np.array(y_atoms),
                       pmf=pmf / pmf[pmf != 0.0].sum())


def _ref_quantize_support(support, step):
    # per coordinate, one image per floor_index cell: that of its lowest value
    index = floor_index(support, step)
    lowest = {}
    for row, cells in zip(support, index):
        for c, (v, k) in enumerate(zip(row, cells)):
            lowest[c, k] = min(lowest.get((c, k), v), v)
    images = [tuple(float(floor_quantize(lowest[c, k], step))
                    for c, k in enumerate(cells)) for cells in index]
    letters = sorted(set(images))
    return np.array(letters), [letters.index(im) for im in images]


def _ref_quantize_joint(joint, x_step, y_step):
    ux, xi = _ref_quantize_support(joint.x_support, x_step)
    uy, yi = _ref_quantize_support(joint.y_support, y_step)
    pmf = np.zeros((ux.shape[0], uy.shape[0]))
    np.add.at(pmf, (np.array(xi)[:, None], np.array(yi)[None, :]), joint.pmf)
    return FiniteJoint(x_support=ux, y_support=uy, pmf=pmf)


def assert_bit_identical(got: FiniteJoint, want: FiniteJoint):
    for name in ("x_support", "y_support", "pmf"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n", [1, 3, 7, 16, 64])
def test_lattice_realizations_match_the_loop_reference(catalog, n):
    assert_bit_identical(example2_atoms(n), _ref_example2(n))
    assert_bit_identical(catalog["example4"].realize(n), _ref_example4(n))
    for gamma, lam in COR1_PATHS.values():
        assert_bit_identical(cor1_atoms(gamma(n), lam(n)),
                             _ref_cor1(gamma(n), lam(n)))


REDUCED = ["example2", *COR1_PATHS]
SUPPORT_BYTES_BOUND = 16


@pytest.mark.parametrize("name", REDUCED)
def test_reduced_realizations_match_the_atom_reference(catalog, name):
    # X_n - T(Y_n) - Y_n: the reduced realization keeps the supports and
    # both marginals of the atom form bit for bit, and its MMSE, computed
    # on the (X_n, T) core, matches the one over every (X_n, Y_n) atom
    for n in POWERS_OF_TWO:
        got, want = catalog[name].realize(n), atom_realization(name, n)
        assert isinstance(got, SufficientJoint)
        for field in ("x_support", "y_support", "x_marginal", "y_marginal"):
            a, b = getattr(got, field), getattr(want, field)
            a, b = (a(), b()) if callable(a) else (a, b)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (n, field)
        assert abs(mmse_exact(got).mmse - mmse_exact(want).mmse) <= 1e-12, n


@pytest.mark.parametrize("name", sorted(COR1_PATHS))
def test_cor1_core_matches_the_fill_in_place_reference(catalog, name):
    gamma, lam = COR1_PATHS[name]
    for n in (1, 2, 3, 7, 64, 1024):
        got, want = catalog[name].realize(n), cor1_sufficient(gamma(n), lam(n))
        for field in ("x_support", "y_support", "x_idx", "y_idx", "prob"):
            a, b = getattr(got.core, field), getattr(want.core, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (n, field)
            assert a.tobytes() == b.tobytes(), (n, field)
        for field in ("y_support", "y_stat", "y_given_stat"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (n, field)
            assert a.tobytes() == b.tobytes(), (n, field)


def test_example2_allocation_follows_the_atoms(catalog):
    # at n=1024 the dense table is 65536 x 128 (64 MiB) with 131072 atoms
    # (2 MiB of masses); any nx * ny temporary would exceed the budget
    tracemalloc.start()
    try:
        mmse_exact(catalog["example2"].realize(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("name", ["example2", "cor1_additive_fast_x",
                                  "cor1_additive_fast_y"])
def test_lattice_realize_allocates_near_its_supports(catalog, name):
    # the (X_n, T) core of these scenarios holds at most 2 atoms per x cell,
    # so realize allocates in proportion to the supports: at n = 1024 it
    # peaks at 6x, 7x and 11x of their bytes, the atom form at 11x, 48x and
    # 69x (example2, fast_x, fast_y)
    tracemalloc.start()
    try:
        joint = catalog[name].realize(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SUPPORT_BYTES_BOUND * (joint.x_support.nbytes
                                         + joint.y_support.nbytes)


def test_example4_limit_matches_the_loop_reference(catalog):
    assert_bit_identical(catalog["example4"].limit, _ref_example4_limit())


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.5)])
def test_uniform_lattice_cells_need_a_positive_length(lo, hi):
    with pytest.raises(InvalidDistribution, match="positive length"):
        uniform_lattice_cells(lo, hi, 0.25)


def test_uniform_lattice_cells_match_the_loop_reference():
    for lo, hi, step in ((-math.sqrt(3.0), math.sqrt(3.0), EXAMPLE4_STEP),
                         (-1.0 / 3.0, 1.0 / 3.0, 1.0 / 24.0),
                         (0.95, 1.05, 1.0 / 80.0), (0.0, 1.0, 0.25)):
        cells, probs = uniform_lattice_cells(lo, hi, step)
        want = _ref_lattice_cells(lo, hi, step)
        assert cells.tolist() == [c for c, _ in want]
        assert probs.tolist() == [p for _, p in want]


MIXED_ATOMS = [((0.1,), (0.1,), 0.25), ((0.2,), (0.9,), 0.25),
               ((0.6,), (1.1,), 0.5)]


def test_joint_from_atoms_matches_the_loop_reference():
    two_column = [((1.0, 0.5), (0.0,), 0.2), ((-1.0, 0.5), (1.0,), 0.3),
                  ((1.0, 0.5), (0.0,), 0.1), ((1.0, -0.5), (1.0,), 0.4)]
    cases = [MIXED_ATOMS, two_column]
    for n in (1, 3, 7, 16, 64):
        root, mix, spike = math.sqrt(n), (1.0 - 1.0 / n) / 2.0, 1.0 / (4.0 * n)
        cases.append([atom for x in (-1.0, 1.0) for atom in (
            ((x,), (x,), mix), ((x,), (-root,), spike), ((x,), (root,), spike))])
    for atoms in cases:
        assert_bit_identical(joint_from_atoms(atoms), _ref_joint_from_atoms(atoms))


def test_quantize_joint_matches_the_loop_reference():
    cases = [(joint_from_atoms(MIXED_ATOMS), 0.5, 1.0)]
    cases += [(example3_limit_joint(), 1.0 / n, 1.0 / n) for n in (1, 3, 7, 16, 64)]
    cells = ((np.arange(256) + 0.5) / 256)[:, None]
    lattice = FiniteJoint(x_support=cells, y_support=cells, pmf=np.eye(256) / 256)
    cases += [(lattice, 1.0 / 256, lam) for lam in (1 / 8, 1 / 16, 1 / 32)]
    # lattice points within an ulp of each other, and a cell past one
    near = [0.1 + 0.2, 0.3, 0.35, 0.9999999999999999, 1.0, 1.05]
    masses = [0.125, 0.125, 0.25, 0.125, 0.125, 0.25]
    cases += [(joint_from_atoms([((x, -x), (x,), p) for x, p in zip(near, masses)]),
               step, step) for step in (0.1, 1.0 / 49)]
    for joint, x_step, y_step in cases:
        assert_bit_identical(quantize_joint(joint, x_step, y_step),
                             _ref_quantize_joint(joint, x_step, y_step))


# --------------------------------------------------------------------------
# the Markov claim is decided at every index as the grid streams
# --------------------------------------------------------------------------

def test_witness_wrong_at_one_middle_index_fails_the_check(catalog,
                                                           monkeypatch):
    import dataclasses

    sc = catalog["markov_degraded_family"]

    def realize(n):
        # a flip of 0.05 is cleaner than the limit's 0.1: no garbling of it
        return bsc_prior_joint(0.05) if n == 8 else sc.realize(n)

    calls = {"_channel_of": 0, "is_degraded": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(convergence, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(convergence, name, counted)
    broken = dataclasses.replace(sc, name="wrong-at-8", realize=realize)
    rep = run_scenario(broken, GRID, seed=0)
    assert rep.diagnostics.markov_verified is False
    # decided at n = 1, 2, 4, 8 and no further, on one limit channel
    assert calls == {"_channel_of": 1 + 4, "is_degraded": 4}
    assert run_scenario(sc, GRID, seed=0).diagnostics.markov_verified is True
