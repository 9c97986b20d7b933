import math
import tracemalloc

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
    lmmse,
    mmse_exact,
    run_scenario,
    usc_check,
)
from mmse_lab.probcore import (
    FiniteJoint,
    floor_quantize,
    joint_from_atoms,
    moments_exact,
    quantize_joint,
)
from mmse_lab.scenarios import (
    EXAMPLE4_STEP,
    bsc_prior_joint,
    example3_limit_joint,
    make_markov_degraded_scenario,
    make_random_degraded_scenario,
    uniform_lattice_cells,
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


def test_closed_form_values_at_single_indices(catalog):
    # the additive paths all start from unit noise scales at n = 1
    for name in ("cor1_additive", "cor1_additive_fast_x", "cor1_additive_fast_y"):
        assert mmse_exact(catalog[name].realize(1)).mmse == 149 / 256, name
    # h^2 (n^2 - 1) / 12 with h = 1/128 and n = 2
    assert mmse_exact(catalog["example2"].realize(2)).mmse == 1 / 65536


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


# (n, mmse, std_err) of run_scenario(s, [1, 2, 4], seed=7).mc_rows.  A change
# to a draw function's body or RNG call order, to the derived seeds or to the
# binning moves these values, and the report comparisons leave mc_rows out.
PINNED_MC_ROWS = {
    "example2": [
        (1, 2.0427849704543003e-05, 5.7584495595289425e-08),
        (2, 2.0383350603941737e-05, 5.7582039637368174e-08),
        (4, 2.0252292349833407e-05, 5.736031058393924e-08)],
    "example4": [
        (1, 0.5005523570428898, 0.001868983986247914),
        (2, 0.18870567989962692, 0.0006371139541704553),
        (4, 0.05544238866992731, 0.00017401136822455744)],
    "cor1_additive": [
        (1, 0.5833295013502463, 0.0020511192661536587),
        (2, 0.5223461850425375, 0.0017111234730229562),
        (4, 0.5037972828923435, 0.0016157297066450413)],
    "cor1_additive_fast_x": [
        (1, 0.5884763560455825, 0.002063737326876696),
        (2, 0.5066272735977393, 0.001615354325073953),
        (4, 0.4991764640563493, 0.0015838579885980473)],
    "cor1_additive_fast_y": [
        (1, 0.5834340508722824, 0.002053371420565347),
        (2, 0.5196484754841864, 0.00170967174703897),
        (4, 0.5036364007841353, 0.0016150746987267939)],
}


@pytest.mark.parametrize("name", sorted(PINNED_MC_ROWS))
def test_mc_rows_are_pinned(catalog, name):
    rows = run_scenario(catalog[name], [1, 2, 4], seed=7).mc_rows
    assert [(r.n, r.mmse, r.std_err) for r in rows] == PINNED_MC_ROWS[name]


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
    value = estimator_convergence_check(sc, GRID[-1])
    q = 0.1 / 64
    assert value == pytest.approx(4 * q * (1 - q), abs=1e-15)
    assert value == pytest.approx(ESTIMATOR_GAP_IDENTITY_64, abs=1e-15)
    assert value <= 1e-2


def test_estimator_convergence_bsc_base(catalog):
    value = estimator_convergence_check(
        catalog["markov_degraded_family"], GRID[-1])
    assert value == pytest.approx(ESTIMATOR_GAP_BSC01_64, abs=1e-15)


def test_estimator_convergence_identity_witness_is_exact_zero():
    sc = make_markov_degraded_scenario("frozen", bsc_prior_joint(0.1),
                                       lambda n: 0.0)
    assert estimator_convergence_check(sc, GRID[-1]) == 0.0


def test_estimator_convergence_detects_non_converging_witness():
    sc = make_markov_degraded_scenario("collapse", bsc_prior_joint(0.1),
                                       lambda n: 0.5)
    value = estimator_convergence_check(sc, GRID[-1])
    assert value >= 0.1


def test_estimator_convergence_requires_witness(catalog):
    with pytest.raises(MissingWitness):
        estimator_convergence_check(catalog["example1"], GRID[-1])


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


def _ref_quantize_joint(joint, x_step, y_step):
    ux, xi = np.unique(floor_quantize(joint.x_support, x_step), axis=0,
                       return_inverse=True)
    uy, yi = np.unique(floor_quantize(joint.y_support, y_step), axis=0,
                       return_inverse=True)
    pmf = np.zeros((ux.shape[0], uy.shape[0]))
    np.add.at(pmf, (xi.ravel()[:, None], yi.ravel()[None, :]), joint.pmf)
    return FiniteJoint(x_support=ux, y_support=uy, pmf=pmf)


def assert_bit_identical(got: FiniteJoint, want: FiniteJoint):
    for name in ("x_support", "y_support", "pmf"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


COR1_PATHS = {
    "cor1_additive": (lambda n: 1.0 / n, lambda n: 1.0 / n),
    "cor1_additive_fast_x": (lambda n: 1.0 / (n * n), lambda n: 1.0 / n),
    "cor1_additive_fast_y": (lambda n: 1.0 / n, lambda n: 1.0 / (n * n)),
}


@pytest.mark.parametrize("n", [1, 3, 7, 16, 64])
def test_lattice_realizations_match_the_loop_reference(catalog, n):
    assert_bit_identical(catalog["example2"].realize(n), _ref_example2(n))
    assert_bit_identical(catalog["example4"].realize(n), _ref_example4(n))
    for name, (gamma, lam) in COR1_PATHS.items():
        assert_bit_identical(catalog[name].realize(n), _ref_cor1(gamma(n), lam(n)))


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
def test_lattice_realize_allocates_near_its_atoms(catalog, name):
    # a lattice builder emits its atoms in row-major order, so realize holds
    # little beyond the joint's own atom arrays; sorting and merging the
    # (x, y, weight) triples instead peaks near 5x of them
    tracemalloc.start()
    try:
        joint = catalog[name].realize(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    atoms = joint.x_idx.nbytes + joint.y_idx.nbytes + joint.prob.nbytes
    assert peak < 3.5 * atoms


def test_example4_limit_matches_the_loop_reference(catalog):
    assert_bit_identical(catalog["example4"].limit, _ref_example4_limit())


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
    for joint, x_step, y_step in cases:
        assert_bit_identical(quantize_joint(joint, x_step, y_step),
                             _ref_quantize_joint(joint, x_step, y_step))


# --------------------------------------------------------------------------
# the Markov witness is checked at every index as the grid streams
# --------------------------------------------------------------------------

def test_witness_wrong_at_one_middle_index_fails_the_check(catalog):
    import dataclasses

    sc = catalog["markov_degraded_family"]

    def witness(n):
        return sc.markov_witness(1 if n == 8 else n)

    broken = dataclasses.replace(sc, name="wrong-at-8", markov_witness=witness)
    rep = run_scenario(broken, GRID, seed=0)
    assert rep.diagnostics.markov_verified is False
    assert run_scenario(sc, GRID, seed=0).diagnostics.markov_verified is True
