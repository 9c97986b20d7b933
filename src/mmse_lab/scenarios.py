"""Catalog of convergence scenarios for the estimation-stability lab.

A scenario is a sequence of pair laws (X_n, Y_n) together with a limit pair
(X, Y) and a declared expected outcome for the audited functional (MMSE by
default, LMMSE where registered).  The built-in catalog covers the
canonical stress cases:

* ``example1`` — mass 1/(2n) escaping to +-sqrt(n): every MMSE_n = 1 while
  the limit pair is deterministic (MMSE 0).  The sequence limit sits ABOVE
  the limit value; second moments do not converge and the squared sequence
  is not uniformly integrable.
* ``example2`` — a uniform prior recoverable from the fractional part of
  the measurement at every n, but independent of it in the limit: MMSE_n = 0
  vs limit variance 1/12.  Realized exactly on a floor-quantization grid of
  step 1/(64 n), fine enough to keep per-n recovery below 1e-3, through the
  statistic T(Y_n) = fractional part of Y_n (the coarse cell of X).
* ``example3`` — Rademacher prior and noise, X_n = n/(n+1) X observed
  through Y_n = X_n + N: the measurement reveals X_n exactly at every n
  (MMSE_n = 0) yet the limit pair has MMSE 1/2.
* ``example4`` — uniform prior, additive uniform noise shrinking as 1/n:
  genuinely continuous, MMSE_n -> 0 = limit MMSE.
* ``cor1_additive`` (+ two off-diagonal paths) — vanishing additive
  perturbations on both coordinates of the example3 limit pair; continuous
  with MMSE -> 1/2.  Realized through the statistic T(Y_n) = the base
  measurement atom that Y_n perturbs.
* ``cor2_quantization`` — vanishing floor quantization of both coordinates
  of the same pair; continuous with MMSE -> 1/2 (the supports sit on every
  1/n lattice, so each quantized value is exactly 1/2).
* ``markov_degraded_family`` — a fixed base pair garbled by a binary
  symmetric channel with flip probability 1/(10 n): degraded measurements
  converging back to the base; continuous.
* ``lmmse_mixture`` — the LMMSE stress case: Y_n equals X with probability
  1 - 1/n and an independent +-sqrt(n) spike otherwise.  Only the prior's
  moments converge (X_n = X): the measurement's do not, E[Y_n^2] = 2 - 1/n
  while E[Y^2] = 1, and the LMMSE trajectory 1 - (1-1/n)^2/(2-1/n) stalls
  at 1/2 while the limit LMMSE is 0.  (The MMSE itself is continuous here —
  the gap is a purely linear-estimation effect.)

Every realization and every limit is an exact finite law: continuous laws
enter as lattice joints whose cell probabilities are interval overlaps
computed in closed form, so the downstream engine sees finite joints and no
sampling noise.  Limits and most realizations are ``FiniteJoint``s.  Where
the measurement Y_n refines a small statistic T(Y_n) with X_n — T(Y_n) —
Y_n (``example2``, ``cor1_*``), ``realize`` returns a ``SufficientJoint``
instead: the (X_n, T) joint plus P(Y_n | T), whose MMSE is that of
(X_n, Y_n) because E[X_n | Y_n] = E[X_n | T(Y_n)].  Its cost follows the
supports, not the product of the X and Y cells.  Scenarios with continuous
laws additionally carry a draw function of the un-quantized law
(``mc_sampler``), and optionally the regressogram bin count to use at each
index (``mc_bins``), so the Monte Carlo path can cross-check the exact one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .degradedness import Channel, binary_symmetric_channel, compose
from .errors import InvalidDistribution
from .exact import mmse_exact
from .probcore import (
    SAMPLE_CHUNK,
    Draw,
    FiniteJoint,
    SufficientJoint,
    _chunks,
    floor_index,
    joint_from_atoms,
    product_joint,
    quantize_joint,
    rng_stream,
)

SQRT3 = math.sqrt(3.0)


class OutcomeKind(enum.Enum):
    CONTINUOUS = "CONTINUOUS"
    DISCONTINUOUS_USC = "DISCONTINUOUS_USC"
    DISCONTINUOUS_LSC = "DISCONTINUOUS_LSC"


@dataclass(frozen=True)
class ExpectedOutcome:
    """Declared target of a scenario.

    ``limit_mmse`` is the audited value at the limit pair;
    ``sequence_limit_mmse`` is the limit of the per-n values.  CONTINUOUS
    requires the two to be equal; the DISCONTINUOUS kinds record which
    side the sequence limit falls on (LSC: above the limit value, USC:
    below).  ``source`` says how the numbers were derived.
    """

    kind: OutcomeKind
    limit_mmse: float
    sequence_limit_mmse: float
    source: str

    def __post_init__(self):
        # checked first: every comparison below reads False on nan
        if not (math.isfinite(self.limit_mmse)
                and math.isfinite(self.sequence_limit_mmse)):
            raise InvalidDistribution(
                "expected values must be finite, got limit "
                f"{self.limit_mmse!r} and sequence {self.sequence_limit_mmse!r}")
        equal = self.limit_mmse == self.sequence_limit_mmse
        if (self.kind is OutcomeKind.CONTINUOUS) != equal:
            raise InvalidDistribution(
                f"kind {self.kind.value} inconsistent with limit "
                f"{self.limit_mmse!r} vs sequence {self.sequence_limit_mmse!r}")
        if self.kind is OutcomeKind.DISCONTINUOUS_LSC \
                and self.sequence_limit_mmse < self.limit_mmse:
            raise InvalidDistribution("LSC kind needs sequence limit above limit value")
        if self.kind is OutcomeKind.DISCONTINUOUS_USC \
                and self.sequence_limit_mmse > self.limit_mmse:
            raise InvalidDistribution("USC kind needs sequence limit below limit value")


@dataclass(frozen=True)
class ScenarioSequence:
    """A named sequence of pair laws with a limit pair and expectations.

    ``realize(n)`` produces the exact law of (X_n, Y_n) and ``limit`` is the
    exact law of (X, Y), a FiniteJoint.  ``realize(n)`` returns a
    FiniteJoint, or a SufficientJoint when a statistic T of Y_n with
    X_n — T(Y_n) — Y_n carries all that Y_n says about X_n; the witness
    check and the LMMSE audit read every (X_n, Y_n) atom, so a scenario
    with either must return a FiniteJoint.  ``markov_witness(n)``,
    when present, is a channel D_n with realize(n) = compose(limit, D_n),
    i.e. an explicit degradedness coupling of the sequence to its limit.
    ``mc_sampler(n)`` is a draw function (``probcore.Draw``) of the
    un-quantized continuous law for the Monte Carlo cross-path: it fills
    the caller's (size, 1) sample arrays of X_n and Y_n, with no array of
    its own larger than a ``probcore.SAMPLE_CHUNK`` chunk.  The estimate is
    of the MMSE, so a sampler is refused with ``audit="lmmse"``; and
    ``mc_bins(n)``, when present, the regressogram bin count at index n
    (default ``mc.cube_root_bins`` of the sample count).
    Every scenario gives ``x_deviation_prob(n, eps)``, the exact
    P(||X_n - X|| > eps) under its natural coupling.
    """

    name: str
    realize: Callable[[int], FiniteJoint | SufficientJoint]
    limit: FiniteJoint
    expected: ExpectedOutcome
    x_deviation_prob: Callable[[int, float], float]
    markov_witness: Callable[[int], Channel] | None = None
    audit: str = "mmse"
    mc_sampler: Callable[[int], Draw] | None = None
    mc_bins: Callable[[int], int] | None = None
    notes: str = ""

    def __post_init__(self):
        if self.audit not in ("mmse", "lmmse"):
            raise InvalidDistribution(f"unknown audit {self.audit!r}")
        if self.audit == "lmmse" and self.mc_sampler is not None:
            raise InvalidDistribution(
                f"scenario {self.name!r}: the Monte Carlo path estimates the "
                "MMSE, so an LMMSE audit takes no mc_sampler")
        if not isinstance(self.limit, FiniteJoint):
            raise InvalidDistribution(
                f"scenario {self.name!r}: limit must be a FiniteJoint, "
                f"got {type(self.limit).__name__}")


# ---------------------------------------------------------------------------
# lattice-cell machinery for exact quantized realizations.  A builder knows
# the order of its cells, so it emits the joint's atoms (x_idx, y_idx, prob)
# itself, in row-major order, on supports that are sorted runs of cells
# (cell index * h), and hands them to the atom form of FiniteJoint; nothing
# is sorted or merged.  The constructor still checks distinct supports, a
# strictly increasing flat index and positive masses summing to 1, so a
# layout mistake raises InvalidDistribution instead of giving a wrong joint.
# ---------------------------------------------------------------------------

def uniform_lattice_cells(lo: float, hi: float,
                          step: float) -> tuple[np.ndarray, np.ndarray]:
    """Floor-lattice cells of a uniform(lo, hi) law.

    Returns increasing cell indices and their probabilities: the exact
    overlap of [index*step, (index+1)*step) with [lo, hi), normalized by
    hi - lo.  Zero-overlap cells are skipped; only an end cell can have
    none, so the indices are consecutive.
    """
    if not hi > lo:
        raise InvalidDistribution("uniform interval must have positive length")
    start, stop = floor_index([lo, hi], step).astype(int)
    j = np.arange(start, stop + 2)  # one cell past hi, trimmed below
    j = j[j * step < hi]
    left = np.maximum(lo, j * step)
    right = np.minimum(hi, (j + 1) * step)
    keep = right > left
    return j[keep], (right - left)[keep] / (hi - lo)


def _lattice_joint(x_support, y_support, x_idx, y_idx,
                   weights) -> FiniteJoint:
    """Joint of row-major atoms; the weights are divided by their total."""
    weights /= weights.sum()
    return FiniteJoint(x_support, y_support, x_idx=x_idx, y_idx=y_idx,
                       prob=weights)


# ---------------------------------------------------------------------------
# example1: escaping mass, second moment does not follow
# ---------------------------------------------------------------------------

def _example1_realize(n: int) -> FiniteJoint:
    root = math.sqrt(n)
    half = 1.0 / (2.0 * n)
    return FiniteJoint(
        x_support=np.array([[-root], [0.0], [root]]),
        y_support=np.array([[0.0]]),
        pmf=np.array([[half], [1.0 - 1.0 / n], [half]]),
    )


def example1_scenario() -> ScenarioSequence:
    limit = FiniteJoint(x_support=np.array([[0.0]]),
                        y_support=np.array([[0.0]]),
                        pmf=np.array([[1.0]]))
    expected = ExpectedOutcome(
        kind=OutcomeKind.DISCONTINUOUS_LSC,
        limit_mmse=0.0,
        sequence_limit_mmse=1.0,
        source="E[X_n^2] = n * (1/n) = 1 at every n with a blind measurement; "
               "the limit prior is the constant 0",
    )
    return ScenarioSequence(
        name="example1",
        realize=_example1_realize,
        limit=limit,
        expected=expected,
        x_deviation_prob=lambda n, eps: 1.0 / n if math.sqrt(n) > eps else 0.0,
        notes="X_n = +-sqrt(n) w.p. 1/(2n) each, else 0; Y_n = Y = 0. "
              "Mass escapes, E[X_n^2] stays 1, squared family not u.i.",
    )


# ---------------------------------------------------------------------------
# example2: perfect recovery from the fractional part, lost in the limit
# ---------------------------------------------------------------------------

EXAMPLE2_CELLS_PER_INDEX = 64
EXAMPLE2_LIMIT_STEP = 1.0 / 1024.0


def _example2_realize(n: int) -> SufficientJoint:
    # X uniform on [0, 1) quantized at step h = 1/(64 n); the measurement
    # Y_n = B + X/n quantized at the same step is B + q h, where q = j // n
    # is the coarse cell of the x cell j (one of 64).  The fractional part
    # T(Y_n) = q h is a statistic with X — T — Y_n: given T, the bit B is a
    # fair coin independent of X.  So the core holds one atom (j, q) per x
    # cell.  The y key b * 64 + q sorts like the pair (b, q), and all 128
    # y keys occur, so each y key is its own support index.
    cells = EXAMPLE2_CELLS_PER_INDEX * n
    h = 1.0 / cells
    j = np.arange(cells)
    coarse = np.arange(EXAMPLE2_CELLS_PER_INDEX)
    y_keys = np.arange(2 * EXAMPLE2_CELLS_PER_INDEX)
    return SufficientJoint(
        _lattice_joint(j * h, coarse * h, j, j // n, np.full(cells, 1.0 / cells)),
        y_keys // EXAMPLE2_CELLS_PER_INDEX + y_keys % EXAMPLE2_CELLS_PER_INDEX * h,
        y_keys % EXAMPLE2_CELLS_PER_INDEX, np.full(y_keys.size, 0.5))


def _example2_limit() -> FiniteJoint:
    steps = int(round(1.0 / EXAMPLE2_LIMIT_STEP))
    values = np.arange(steps)[:, None] * EXAMPLE2_LIMIT_STEP
    return product_joint(values, np.full(steps, 1.0 / steps),
                         np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))


def _example2_sampler(n: int) -> Draw:
    def draw(rng: np.random.Generator, xs: np.ndarray, ys: np.ndarray):
        x, y = xs[:, 0], ys[:, 0]
        rng.random(out=x)
        # B + X / n, with the bit B added in place.  integers() has no out=;
        # calls on consecutive chunks draw the same integers as one call and
        # leave the generator in the same state
        np.divide(x, n, out=y)
        for part in _chunks(y):
            part += rng.integers(0, 2, part.size)

    return draw


def example2_scenario() -> ScenarioSequence:
    limit = _example2_limit()
    limit_value = mmse_exact(limit).mmse  # quantized uniform variance
    expected = ExpectedOutcome(
        kind=OutcomeKind.DISCONTINUOUS_USC,
        limit_mmse=limit_value,
        sequence_limit_mmse=0.0,
        source="the fractional part of B + X/n determines X at every n; "
               "in the limit the bit B is independent of X, so the value is "
               "the (grid) variance of a uniform prior, 1/12 up to O(2^-20)",
    )
    return ScenarioSequence(
        name="example2",
        realize=_example2_realize,
        limit=limit,
        expected=expected,
        mc_sampler=_example2_sampler,
        mc_bins=lambda n: EXAMPLE2_CELLS_PER_INDEX * (n + 1),
        x_deviation_prob=lambda n, eps: 0.0,  # X_n = X in the coupling
        notes="grid step 1/(64 n) keeps per-n recovery error below 1e-3; "
              "the Monte Carlo path bins at the matching resolution; exact "
              "values use T(Y_n) = frac(Y_n), the coarse cell of X (64 "
              "letters): T is a function of Y_n and, given T, the bit B is "
              "independent of X, so X - T(Y_n) - Y_n and E[X | Y_n] = "
              "E[X | T]",
    )


# ---------------------------------------------------------------------------
# example3: shrinking prior observed exactly, limit keeps residual noise
# ---------------------------------------------------------------------------

def _example3_realize(n: int) -> FiniteJoint:
    c = n / (n + 1.0)
    return FiniteJoint(
        x_support=np.array([[-c], [c]]),
        y_support=np.array([[-c - 1.0], [1.0 - c], [c - 1.0], [c + 1.0]]),
        pmf=np.array([[0.25, 0.25, 0.0, 0.0],
                      [0.0, 0.0, 0.25, 0.25]]),
    )


def example3_limit_joint() -> FiniteJoint:
    """Rademacher prior X observed through Y = X + N, N Rademacher."""
    return FiniteJoint(
        x_support=np.array([[-1.0], [1.0]]),
        y_support=np.array([[-2.0], [0.0], [2.0]]),
        pmf=np.array([[0.25, 0.25, 0.0],
                      [0.0, 0.25, 0.25]]),
    )


def example3_scenario() -> ScenarioSequence:
    expected = ExpectedOutcome(
        kind=OutcomeKind.DISCONTINUOUS_USC,
        limit_mmse=0.5,
        sequence_limit_mmse=0.0,
        source="Y_n = X_n + N with X_n = n/(n+1) X determines X_n (the four "
               "measurement atoms are distinct), so MMSE_n = 0; the limit "
               "pair loses the sign at Y = 0 and pays E[X^2 | Y=0]/2 = 1/2",
    )
    return ScenarioSequence(
        name="example3",
        realize=_example3_realize,
        limit=example3_limit_joint(),
        expected=expected,
        x_deviation_prob=lambda n, eps: 1.0 if 1.0 / (n + 1.0) > eps else 0.0,
        notes="exact finite scenario; conditional mean of the limit is y/2",
    )


# ---------------------------------------------------------------------------
# example4: additive uniform noise shrinking as 1/n — continuous
# ---------------------------------------------------------------------------

EXAMPLE4_STEP = 2.0 * SQRT3 / 256.0


def _example4_realize(n: int) -> FiniteJoint:
    x_cells, px = uniform_lattice_cells(-SQRT3, SQRT3, EXAMPLE4_STEP)
    w_cells, pw = uniform_lattice_cells(-SQRT3 / n, SQRT3 / n, EXAMPLE4_STEP)
    # the sums x + w of two runs of consecutive cells are again such a run,
    # so the support index of the y key x + w is its offset from the first
    lo = x_cells[0] + w_cells[0]
    y_cells = np.arange(lo, x_cells[-1] + w_cells[-1] + 1)
    return _lattice_joint(
        x_cells * EXAMPLE4_STEP, y_cells * EXAMPLE4_STEP,
        np.repeat(np.arange(x_cells.size), w_cells.size),
        (x_cells[:, None] + w_cells[None, :]).ravel() - lo,
        (px[:, None] * pw[None, :]).ravel())


def _example4_limit() -> FiniteJoint:
    cells, p = uniform_lattice_cells(-SQRT3, SQRT3, EXAMPLE4_STEP)
    return _lattice_joint(cells * EXAMPLE4_STEP, cells * EXAMPLE4_STEP,
                          np.arange(cells.size), np.arange(cells.size), p)


def _uniform_fill(rng: np.random.Generator, out: np.ndarray) -> None:
    """``rng.uniform(-SQRT3, SQRT3, out.size)``, written into ``out``.

    numpy's uniform is low + (high - low) * u, and high - low is 2 SQRT3
    exactly.
    """
    rng.random(out=out)
    out *= 2.0 * SQRT3
    out += -SQRT3


def _example4_sampler(n: int) -> Draw:
    def draw(rng: np.random.Generator, xs: np.ndarray, ys: np.ndarray):
        x, y = xs[:, 0], ys[:, 0]
        _uniform_fill(rng, x)
        # X + W / n, built in the buffer of W
        _uniform_fill(rng, y)
        y /= n
        y += x

    return draw


def example4_scenario() -> ScenarioSequence:
    expected = ExpectedOutcome(
        kind=OutcomeKind.CONTINUOUS,
        limit_mmse=0.0,
        sequence_limit_mmse=0.0,
        source="unit-variance uniform prior plus independent uniform noise "
               "scaled by 1/n: the posterior interval shrinks as 1/n, so "
               "MMSE_n ~ 1/n^2 -> 0 and the limit measurement is exact",
    )

    return ScenarioSequence(
        name="example4",
        realize=_example4_realize,
        limit=_example4_limit(),
        expected=expected,
        mc_sampler=_example4_sampler,
        x_deviation_prob=lambda n, eps: 0.0,  # X_n = X in the coupling
        notes=f"lattice step {EXAMPLE4_STEP:.6f} fixed across n; the exact "
              "path therefore floors at O(step^2) instead of reaching 0",
    )


# ---------------------------------------------------------------------------
# perturbed and quantized variants of the example3 limit pair
# ---------------------------------------------------------------------------

_SIGNS = np.array([-1.0, 1.0])


def _cor1_scenario(name: str, gamma_of_n, lambda_of_n, path_note: str) -> ScenarioSequence:
    base = example3_limit_joint()

    def realize(n: int) -> SufficientJoint:
        gamma = gamma_of_n(n)
        lam = lambda_of_n(n)
        h = min(gamma, lam) / 8.0
        # Base atom (x0, y0) spreads over a run of x cells times a run of y
        # cells.  The base support atoms are 2 apart and gamma, lam < 2, so
        # the runs of distinct support atoms are disjoint and ordered, and
        # each support is their concatenation.  The statistic T(Y_n) is the
        # base y atom whose run holds Y_n; given T the measurement noise is
        # independent of X, so X — T — Y_n.  The core joint of (X_n, T)
        # lists each x row of base row i times the letters of its base
        # atoms, in row-major order.
        x_runs = [uniform_lattice_cells(x0 - gamma / 2.0, x0 + gamma / 2.0, h)
                  for x0 in base.x_support[:, 0]]
        y_runs = [uniform_lattice_cells(y0 - lam / 2.0, y0 + lam / 2.0, h)
                  for y0 in base.y_support[:, 0]]
        rows = [np.flatnonzero(base.x_idx == i) for i in range(len(x_runs))]
        sizes = [cells.size for cells, _ in x_runs]
        x_idx = np.repeat(np.arange(sum(sizes)),
                          np.repeat([atoms.size for atoms in rows], sizes))
        t_idx = np.concatenate([np.tile(base.y_idx[atoms], size)
                                for atoms, size in zip(rows, sizes)])
        weights = np.concatenate([np.outer(px, base.prob[atoms]).ravel()
                                  for atoms, (_, px) in zip(rows, x_runs)])
        core = _lattice_joint(
            np.concatenate([cells for cells, _ in x_runs]) * h,
            base.y_support, x_idx, t_idx, weights)
        return SufficientJoint(
            core, np.concatenate([cells for cells, _ in y_runs]) * h,
            np.repeat(np.arange(len(y_runs)),
                      [cells.size for cells, _ in y_runs]),
            # a run's cell masses sum to 1 only up to rounding in hi - lo
            np.concatenate([py / py.sum() for _, py in y_runs]))

    def sampler(n: int) -> Draw:
        gamma = gamma_of_n(n)
        lam = lambda_of_n(n)

        def draw(rng: np.random.Generator, xs: np.ndarray, ys: np.ndarray):
            x, y = xs[:, 0], ys[:, 0]
            # the signs X and N, chunk by chunk; rng.choice([-1.0, 1.0],
            # size) draws these same integers and leaves the generator in
            # the same state
            for signs in (x, y):
                for part in _chunks(signs):
                    _SIGNS.take(rng.integers(0, 2, part.size), out=part)
            y += x
            # the perturbation of X, then the noise on Y, each drawn chunk by
            # chunk into one scratch chunk: X_n = X + perturbation,
            # Y_n = (X + N) + noise
            scratch = np.empty(SAMPLE_CHUNK)
            for out, width in ((x, gamma), (y, lam)):
                for part in _chunks(out):
                    noise = scratch[:part.size]
                    rng.random(out=noise)
                    noise -= 0.5
                    noise *= width
                    part += noise

        return draw

    expected = ExpectedOutcome(
        kind=OutcomeKind.CONTINUOUS,
        limit_mmse=0.5,
        sequence_limit_mmse=0.5,
        source="independent centered uniform perturbations vanish in mean "
               "square, so the value returns to the base pair's 1/2; per-n "
               "value is 1/2 + gamma^2/12 up to grid error",
    )

    def x_dev(n: int, eps: float) -> float:
        gamma = gamma_of_n(n)
        return max(0.0, 1.0 - 2.0 * eps / gamma) if eps < gamma / 2.0 else 0.0

    return ScenarioSequence(
        name=name,
        realize=realize,
        limit=base,
        expected=expected,
        mc_sampler=sampler,
        x_deviation_prob=x_dev,
        notes="both noises are centered uniform of width gamma (on X) and "
              "lambda (on Y), independent of everything; " + path_note
              + "; exact values use T(Y_n) = the base y atom whose noise run "
              "holds Y_n (3 letters): T is a function of Y_n and, given T, "
              "the noise on Y is independent of X, so X_n - T(Y_n) - Y_n "
              "and E[X_n | Y_n] = E[X_n | T]",
    )


def cor1_scenarios() -> list[ScenarioSequence]:
    return [
        _cor1_scenario("cor1_additive",
                       lambda n: 1.0 / n, lambda n: 1.0 / n,
                       "diagonal path gamma = lambda = 1/n"),
        _cor1_scenario("cor1_additive_fast_x",
                       lambda n: 1.0 / (n * n), lambda n: 1.0 / n,
                       "off-diagonal path gamma = 1/n^2, lambda = 1/n"),
        _cor1_scenario("cor1_additive_fast_y",
                       lambda n: 1.0 / n, lambda n: 1.0 / (n * n),
                       "off-diagonal path gamma = 1/n, lambda = 1/n^2"),
    ]


def cor2_scenario() -> ScenarioSequence:
    base = example3_limit_joint()

    def realize(n: int) -> FiniteJoint:
        step = 1.0 / n
        return quantize_joint(base, step, step)

    expected = ExpectedOutcome(
        kind=OutcomeKind.CONTINUOUS,
        limit_mmse=0.5,
        sequence_limit_mmse=0.5,
        source="the base supports {-1,1} and {-2,0,2} sit on every 1/n "
               "lattice, so floor quantization is lossless and each "
               "quantized value equals 1/2 exactly",
    )
    return ScenarioSequence(
        name="cor2_quantization",
        realize=realize,
        limit=base,
        expected=expected,
        x_deviation_prob=lambda n, eps: 0.0,  # lattice atoms are fixed points
        notes="floor quantization of both coordinates at step 1/n",
    )


# ---------------------------------------------------------------------------
# degraded family: base pair garbled by a shrinking symmetric flip
# ---------------------------------------------------------------------------

def bsc_prior_joint(flip: float) -> FiniteJoint:
    """Uniform +-1 prior observed through a symmetric flip."""
    return FiniteJoint(
        x_support=np.array([[-1.0], [1.0]]),
        y_support=np.array([[-1.0], [1.0]]),
        pmf=np.array([[0.5 * (1.0 - flip), 0.5 * flip],
                      [0.5 * flip, 0.5 * (1.0 - flip)]]),
    )


def _garbled_scenario(name: str, base: FiniteJoint,
                      witness: Callable[[int], Channel], source: str,
                      notes: str) -> ScenarioSequence:
    """Continuous scenario whose n-th law is compose(base, witness(n))."""
    def realize(n: int) -> FiniteJoint:
        return compose(base, witness(n))

    value = mmse_exact(base).mmse
    return ScenarioSequence(
        name=name,
        realize=realize,
        limit=base,
        expected=ExpectedOutcome(kind=OutcomeKind.CONTINUOUS,
                                 limit_mmse=value, sequence_limit_mmse=value,
                                 source=source),
        markov_witness=witness,
        x_deviation_prob=lambda n, eps: 0.0,
        notes=notes,
    )


def make_markov_degraded_scenario(name: str, base: FiniteJoint,
                                  flip_of_n: Callable[[int], float],
                                  notes: str = "") -> ScenarioSequence:
    """Garble ``base`` by a symmetric binary flip of size flip_of_n(n).

    The witness channel is the garbling itself, so the degradedness
    coupling is exact by construction.  Requires a two-letter measurement
    alphabet.
    """
    if base.y_support.shape[0] != 2:
        raise InvalidDistribution("symmetric flip needs a binary measurement")
    support = base.y_support

    def witness(n: int) -> Channel:
        return binary_symmetric_channel(flip_of_n(n), support=support.ravel())

    return _garbled_scenario(
        name, base, witness,
        source="the garbling flip vanishes, so the degraded value falls "
               "back to the base pair's exact MMSE",
        notes=notes or "binary symmetric garbling with vanishing flip")


def markov_degraded_scenario() -> ScenarioSequence:
    return make_markov_degraded_scenario(
        "markov_degraded_family",
        bsc_prior_joint(0.1),
        lambda n: 0.1 / n,
        notes="base: uniform +-1 prior through a 0.1 symmetric flip "
              "(MMSE 0.36); garbling flip 0.1/n",
    )


def make_random_degraded_scenario(seed: int) -> ScenarioSequence:
    """Random base joint of 2 to 6 letters per coordinate, garbled by a
    shrinking random stochastic kernel.

    The witness is D_n = (1 - 2^-n) I + 2^-n R with R a fixed random
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

    def witness(n: int) -> Channel:
        eps = 2.0 ** (-n)
        mat = (1.0 - eps) * np.eye(ny) + eps * mixer
        return Channel(input_support=y_vals, output_support=y_vals, matrix=mat)

    return _garbled_scenario(
        f"random_degraded_{seed}", base, witness,
        source="geometrically vanishing random garbling of a random base",
        notes="randomized degraded family used by the property suite")


# ---------------------------------------------------------------------------
# LMMSE mixture: X's moments converge, Y's do not, and linear estimation breaks
# ---------------------------------------------------------------------------

def _lmmse_mixture_realize(n: int) -> FiniteJoint:
    root = math.sqrt(n)
    mix = (1.0 - 1.0 / n) / 2.0   # per sign: Y_n = X
    spike = 1.0 / (4.0 * n)       # per (sign of X, sign of spike)
    atoms = []
    for x in (-1.0, 1.0):
        atoms.append(((x,), (x,), mix))
        atoms.append(((x,), (-root,), spike))
        atoms.append(((x,), (root,), spike))
    return joint_from_atoms(atoms)


def lmmse_mixture_scenario() -> ScenarioSequence:
    limit = FiniteJoint(
        x_support=np.array([[-1.0], [1.0]]),
        y_support=np.array([[-1.0], [1.0]]),
        pmf=np.array([[0.5, 0.0], [0.0, 0.5]]),
    )
    expected = ExpectedOutcome(
        kind=OutcomeKind.DISCONTINUOUS_LSC,
        limit_mmse=0.0,
        sequence_limit_mmse=0.5,
        source="linear audit: with C_Y = 2 - 1/n and C_XY = 1 - 1/n the "
               "best linear value is 1 - (1-1/n)^2/(2-1/n) -> 1/2, while "
               "the limit pair Y = X has linear value 0",
    )
    return ScenarioSequence(
        name="lmmse_mixture",
        realize=_lmmse_mixture_realize,
        limit=limit,
        expected=expected,
        audit="lmmse",
        x_deviation_prob=lambda n, eps: 0.0,  # X_n = X throughout
        notes="Y_n = X w.p. 1 - 1/n, else an independent +-sqrt(n) spike "
              "(the spike carries no information about X); the plain MMSE "
              "is continuous here, only the linear value jumps",
    )


def builtin_scenarios() -> dict[str, ScenarioSequence]:
    """Name-addressable catalog of the built-in scenarios."""
    catalog = [
        example1_scenario(),
        example2_scenario(),
        example3_scenario(),
        example4_scenario(),
        *cor1_scenarios(),
        cor2_scenario(),
        markov_degraded_scenario(),
        lmmse_mixture_scenario(),
    ]
    return {s.name: s for s in catalog}
