"""Run scenarios over an index grid and audit their convergence behavior.

``run_scenario`` evaluates the audited functional (exact MMSE, or LMMSE
where the scenario says so) at every index of the grid plus the limit pair,
then compares the tail window — the last quarter of the grid — against the
scenario's declared sequence limit.  Scenarios carrying a Monte Carlo
draw function are evaluated a second time through the regressogram path
(100 000 draws per index, ``mc_bins(n)`` bins where the scenario sets it),
and the verdict requires both paths to agree with the declaration (the
Monte Carlo path gets an extra bin-bias allowance on top of its 3-sigma
band).

The diagnostics bundle records the quantities that the continuity theory
says to watch:

* ``second_moment_gap``   — |E||X_n||^2 - E||X||^2| at the largest index;
* ``second_moment_gap_y`` — same for the measurement coordinate;
* ``prob_convergence_proxy`` — exact P(||X_n - X|| > 0.05) at the
  largest index, under the coupling every scenario registers
  (``x_deviation_prob``);
* ``ui_proxy`` — the uniform-integrability functional of the squared
  prior, a -> E[1{||X_n||^2 > a} ||X_n||^2], on a fixed grid of a.  A
  healthy (u.i.) squared family drives this to zero along the grid; the
  escaping-mass scenario keeps it pinned at 1.
* ``markov_verified`` — for a scenario that claims ``markovian``, whether
  ``is_degraded`` finds P(Y_n | X) a garbling of the limit's P(Y | X),
  X — Y — Y_n, on the same X law (the same letters carry mass, within
  PMF_TOL) at every index (None for the rest), on a SufficientJoint's core.

The second moments in the rows and gaps are the ones each law keeps
(``probcore._second_moments``), which ``mmse_exact`` and ``moments_exact``
read too: one exactly rounded sum per side and law, whatever the BLAS
thread count.

Memory: one index holds one realized law at a time.  The law is realized,
checked, reduced to its second moments and its audited value (and, at the
last index only, to the ``ui_proxy``), and dropped before the next index.
So the working set of an exact stage is one law plus the temporaries of the
stage that is running: one atom-sized array in ``mmse_exact`` (see
``exact``) and one support-sized array in the moment and ``ui_proxy``
passes.  The Monte Carlo indices run after the exact ones, in a second
loop with no law alive.  That loop allocates one pair of sample buffers,
every index draws into them and ``mc_mmse`` reduces inside them (see
``mc``), and they are dropped when the loop ends: an index allocates only
bin-sized arrays and chunks, and no page of the buffers is faulted twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degradedness import Channel, _channel_of, is_degraded
from .errors import InvalidDistribution, MmseLabError, ScenarioRunError
from .exact import mmse_exact
from .linear import lmmse
from .mc import RegressionConfig, mc_mmse
from .probcore import (
    PMF_TOL,
    FiniteJoint,
    SufficientJoint,
    _core,
    _second_moments,
    _squared_norms_in_place,
    moments_exact,
    rng_stream,
)
from .scenarios import ExpectedOutcome, ScenarioSequence

UI_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)
PROB_EPS = 0.05
MC_BIN_SLACK = 1e-2
MC_SAMPLES = 100_000


@dataclass(frozen=True)
class ReportRow:
    n: int
    mmse: float
    std_err: float
    second_moment_x: float
    second_moment_y: float


@dataclass(frozen=True)
class McRow:
    n: int
    mmse: float
    std_err: float


@dataclass(frozen=True)
class DiagnosticsBundle:
    second_moment_gap: float
    second_moment_gap_y: float
    prob_convergence_proxy: float
    ui_proxy: dict[float, float]
    markov_verified: bool | None


@dataclass(frozen=True)
class ConvergenceReport:
    scenario: str
    rows: tuple[ReportRow, ...]
    limit_value: float
    verdict_matches: bool
    expected: ExpectedOutcome
    diagnostics: DiagnosticsBundle
    tol_abs: float
    mc_rows: tuple[McRow, ...] = ()


def ui_functional(joint: FiniteJoint | SufficientJoint,
                  threshold: float) -> float:
    """E[ 1{||X||^2 > a} ||X||^2 ] for the prior marginal of a joint; the
    threshold a must be finite, since every comparison with nan is False."""
    if not math.isfinite(threshold):
        raise InvalidDistribution(f"threshold must be finite, got {threshold!r}")
    sq = _squared_norms_in_place(joint.x_support.copy())
    above = sq > threshold
    sq *= joint.x_marginal()
    sq *= above
    return float(sq.sum())


def _audit_value(scenario: ScenarioSequence,
                 joint: FiniteJoint | SufficientJoint) -> float:
    """Exact value of the audited functional on one pair law."""
    if scenario.audit == "lmmse":
        return lmmse(moments_exact(joint)).value
    return mmse_exact(joint).mmse


def tail_window(length: int) -> int:
    """Number of trailing entries making up the audit window (last 25%)."""
    return max(1, math.ceil(length / 4))


def _tail_mean_within(tail: list[ReportRow] | list[McRow], target: float,
                      band: float) -> bool:
    mean = math.fsum(r.mmse for r in tail) / len(tail)
    sem = math.sqrt(math.fsum(r.std_err ** 2 for r in tail)) / len(tail)
    return abs(mean - target) <= band + 3.0 * sem


def run_scenario(scenario: ScenarioSequence, n_grid, tol_abs: float = 0.02,
                 seed: int = 0) -> ConvergenceReport:
    """Evaluate a scenario on an increasing index grid and audit the tail."""
    grid = []
    for entry in n_grid:
        try:
            n = int(entry)
        except (ValueError, OverflowError):  # NaN, +-inf
            n = None
        if n != entry:
            raise ScenarioRunError(f"n_grid entry {entry} is not an integer")
        grid.append(n)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ScenarioRunError(f"n_grid must be strictly increasing and >= 1, got {grid}")
    if not (tol_abs > 0.0 and math.isfinite(tol_abs)):
        raise ScenarioRunError(
            f"tol_abs must be positive and finite, got {tol_abs!r}")

    rows: list[ReportRow] = []
    mc_rows: list[McRow] = []
    markov_verified = True if scenario.markovian else None
    try:
        w = _channel_of(scenario.limit) if markov_verified else None
        for n in grid:
            joint = scenario.realize(n)
            _check_realized(scenario, n, joint)
            if markov_verified:
                markov_verified = _is_garbling(scenario.limit, w, joint)
            smx, smy = _second_moments(joint)
            rows.append(ReportRow(n=n, mmse=_audit_value(scenario, joint),
                                  std_err=0.0, second_moment_x=smx,
                                  second_moment_y=smy))
            if n == grid[-1]:
                ui_proxy = {a: ui_functional(joint, a) for a in UI_GRID}
            # drop the law before the next realize and before the Monte
            # Carlo loop: no two laws, and no law and the sample buffers,
            # are alive at once
            del joint
        limit_value = _audit_value(scenario, scenario.limit)
        smx_lim, smy_lim = _second_moments(scenario.limit)
        if scenario.mc_sampler is not None:
            mc_rows = _mc_rows(scenario, grid, seed)
    except MmseLabError as err:
        if isinstance(err, ScenarioRunError):
            raise
        raise ScenarioRunError(
            f"scenario {scenario.name!r}: {err}") from err

    window = tail_window(len(grid))
    target = scenario.expected.sequence_limit_mmse
    # The tail is summarised by its mean: a single-point read is too noisy
    # under MC, and averaging keeps the band honest for slowly decaying
    # exact sequences as well.
    matches = _tail_mean_within(rows[len(rows) - window:], target, tol_abs)
    if mc_rows:
        matches = matches and _tail_mean_within(
            mc_rows[len(mc_rows) - window:], target, tol_abs + MC_BIN_SLACK)

    last = rows[-1]
    diag = DiagnosticsBundle(
        second_moment_gap=abs(last.second_moment_x - smx_lim),
        second_moment_gap_y=abs(last.second_moment_y - smy_lim),
        prob_convergence_proxy=scenario.x_deviation_prob(grid[-1], PROB_EPS),
        ui_proxy=ui_proxy,
        markov_verified=markov_verified,
    )
    return ConvergenceReport(
        scenario=scenario.name,
        rows=tuple(rows),
        limit_value=limit_value,
        verdict_matches=bool(matches),
        expected=scenario.expected,
        diagnostics=diag,
        tol_abs=tol_abs,
        mc_rows=tuple(mc_rows),
    )


def _mc_rows(scenario: ScenarioSequence, grid: list[int],
             seed: int) -> list[McRow]:
    """The Monte Carlo estimate at every grid index.

    Every index draws into the same two sample buffers, which live only
    for this loop.
    """
    xs, ys = np.empty((MC_SAMPLES, 1)), np.empty((MC_SAMPLES, 1))
    rows = []
    for n in grid:
        config = RegressionConfig(
            n_samples=MC_SAMPLES,
            seed=_derived_seed(seed, scenario.name + "/mc", n),
            bins=None if scenario.mc_bins is None else scenario.mc_bins(n))
        est = mc_mmse(scenario.mc_sampler(n), config, xs, ys)
        rows.append(McRow(n=n, mmse=est.value, std_err=est.std_error))
    return rows


def _check_realized(scenario: ScenarioSequence, n: int, joint) -> None:
    """Raise ScenarioRunError unless ``joint`` is a law at all."""
    if not isinstance(joint, (FiniteJoint, SufficientJoint)):
        raise ScenarioRunError(
            f"scenario {scenario.name!r}: realize({n}) returned "
            f"{type(joint).__name__}, not a FiniteJoint or SufficientJoint")


def _derived_seed(seed: int, tag: str, n: int) -> int:
    return int(rng_stream(seed, tag, n).integers(0, 2 ** 63))


def _is_garbling(limit: FiniteJoint, w: Channel, joint) -> bool:
    """X — Y — Y_n for the limit's channel ``w`` (see the module docstring)?"""
    joint = _core(joint)
    px, px_n = limit.x_marginal(), joint.x_marginal()
    return bool(np.array_equal(joint.x_support, limit.x_support)
                and np.array_equal(px_n > 0.0, px > 0.0)
                and np.abs(px_n - px).max() <= PMF_TOL
                and is_degraded(w, _channel_of(joint)).feasible)


def usc_check(report: ConvergenceReport, slack: float = 0.05) -> bool:
    """Does the tail stay below the limit value (up to slack and noise)?

    True iff max tail mmse <= report.expected.limit_mmse + slack + 3 * max
    tail std_err.  This is the one-sided check that a family continuous from
    above (e.g. any degraded family) must satisfy, and that the
    escaping-mass scenario must fail.
    """
    window = tail_window(len(report.rows))
    tail = report.rows[len(report.rows) - window:]
    worst = max(r.mmse for r in tail)
    noise = max(r.std_err for r in tail)
    return bool(worst <= report.expected.limit_mmse + slack + 3.0 * noise)

