"""Exact finite probability objects, samplers, and moment primitives.

The whole lab runs on three value types:

* ``FiniteJoint`` — an exact joint law of a pair (X, Y) on finite supports,
  held as a dense probability matrix.  Everything "exact" downstream
  (conditional means, MMSE, LMMSE, garbling) is linear algebra on it.
* ``Sampler`` — a seeded batch-draw procedure for laws that are not
  finite (uniform priors, additive noise families).  Only the Monte Carlo
  cross-path and the quantization bridge ``discretize`` consume these; every
  exact result is computed on a ``FiniteJoint``.
* ``MomentSummary`` — first and second moments of a pair, with the
  second-moment identity  E||Z||^2 = trace(Cov Z) + ||E Z||^2  enforced at
  construction.

Conventions (load-bearing, relied on by tests):

* covariances use the population convention (denominator n);
* all randomness flows through explicitly seeded generators derived via
  ``rng_stream`` — same seed, same stream, independent substreams per tag;
* ``floor_quantize`` is the grid operator  x -> floor(x / a) * a  with an
  ulp-level snap so that lattice points survive the round trip and the
  operator is idempotent in floating point.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InsufficientSamples,
    InvalidDistribution,
    NonPositiveStep,
)

PMF_TOL = 1e-12
MOMENT_TOL = 1e-10

_U64 = (1 << 64) - 1


def rng_stream(seed: int, *tags: int | str) -> np.random.Generator:
    """Deterministic generator for (seed, tags).

    Distinct tag tuples give statistically independent substreams; strings
    are hashed with crc32 so the derivation is stable across runs and
    platforms.
    """
    words = [int(seed) & _U64]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag) & _U64)
    return np.random.default_rng(np.random.SeedSequence(words))


def _as_support(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InvalidDistribution(f"{name} must be a non-empty 1-D or 2-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution(f"{name} contains non-finite values")
    # equal rows sort next to each other; == also merges 0.0 with -0.0
    rows = arr[np.lexsort(arr.T)]
    if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
        raise InvalidDistribution(f"{name} atoms must be pairwise distinct")
    return arr


@dataclass(frozen=True)
class FiniteJoint:
    """Exact joint law of (X, Y) on finite supports.

    ``pmf[i, j]`` is P(X = x_support[i], Y = y_support[j]).  Entries are
    nonnegative and sum to 1 within ``PMF_TOL``.  Support atoms are rows and
    must be pairwise distinct; zero-probability atoms are allowed.
    """

    x_support: np.ndarray  # (nx, k)
    y_support: np.ndarray  # (ny, m)
    pmf: np.ndarray        # (nx, ny)

    def __post_init__(self):
        xs = _as_support(self.x_support, "x_support")
        ys = _as_support(self.y_support, "y_support")
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (xs.shape[0], ys.shape[0]):
            raise InvalidDistribution(
                f"pmf shape {pmf.shape} does not match supports "
                f"({xs.shape[0]}, {ys.shape[0]})"
            )
        if not np.all(np.isfinite(pmf)):
            raise InvalidDistribution("pmf contains non-finite entries")
        if np.any(pmf < 0.0):
            raise InvalidDistribution("pmf entries must be nonnegative")
        total = float(pmf.sum())
        if abs(total - 1.0) > PMF_TOL:
            raise InvalidDistribution(f"pmf sums to {total!r}, not 1")
        for arr, fname in ((xs, "x_support"), (ys, "y_support"), (pmf, "pmf")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, fname, arr)

    @property
    def k(self) -> int:
        return self.x_support.shape[1]

    @property
    def m(self) -> int:
        return self.y_support.shape[1]

    def x_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def y_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


@dataclass(frozen=True)
class Sampler:
    """Seed-deterministic batch-draw procedure for a pair law.

    ``draw_batch(rng, size)`` returns arrays of shape (size, k) and
    (size, m) holding ``size`` independent draws of (X, Y).
    """

    draw_batch: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    descriptor: str


def sample_pairs(sampler: Sampler, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs as (n, k) and (n, m) arrays."""
    if n < 1:
        raise InsufficientSamples("need at least one sample")
    xs, ys = sampler.draw_batch(rng, n)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != n:
        xs = xs.reshape(n, -1)
    if ys.shape[0] != n:
        ys = ys.reshape(n, -1)
    return xs, ys


def draw_atom_indices(joint: FiniteJoint, size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """``size`` flat indices into ``joint.pmf`` drawn with its probabilities.

    Index ``i * ny + j`` stands for the atom (x_support[i], y_support[j]).
    """
    flat = joint.pmf.ravel()
    return rng.choice(flat.size, size=size, p=flat / flat.sum())


def sampler_from_joint(joint: FiniteJoint) -> Sampler:
    """Categorical sampler over the atoms of an exact joint."""
    ny = joint.y_support.shape[0]

    def draw_batch(rng: np.random.Generator, size: int):
        idx = draw_atom_indices(joint, size, rng)
        return joint.x_support[idx // ny], joint.y_support[idx % ny]

    return Sampler(draw_batch=draw_batch,
                   descriptor="categorical over finite joint atoms")


@dataclass(frozen=True)
class MomentSummary:
    """First/second moments of a pair, population convention.

    Validates symmetry of the covariance blocks, positive semidefiniteness
    down to -MOMENT_TOL, and the identity
    second_moment = trace(cov) + ||mean||^2 on both coordinates.
    """

    eta_x: np.ndarray        # (k,)
    eta_y: np.ndarray        # (m,)
    c_x: np.ndarray          # (k, k)
    c_y: np.ndarray          # (m, m)
    c_xy: np.ndarray         # (k, m)
    second_moment_x: float
    second_moment_y: float

    def __post_init__(self):
        eta_x = np.atleast_1d(np.asarray(self.eta_x, dtype=float))
        eta_y = np.atleast_1d(np.asarray(self.eta_y, dtype=float))
        c_x = np.atleast_2d(np.asarray(self.c_x, dtype=float))
        c_y = np.atleast_2d(np.asarray(self.c_y, dtype=float))
        c_xy = np.atleast_2d(np.asarray(self.c_xy, dtype=float))
        k, m = eta_x.shape[0], eta_y.shape[0]
        if c_x.shape != (k, k) or c_y.shape != (m, m) or c_xy.shape != (k, m):
            raise InvalidDistribution("moment block shapes are inconsistent")
        for mat, name in ((c_x, "c_x"), (c_y, "c_y")):
            if np.max(np.abs(mat - mat.T)) > MOMENT_TOL:
                raise InvalidDistribution(f"{name} is not symmetric")
            if np.min(np.linalg.eigvalsh((mat + mat.T) / 2.0)) < -MOMENT_TOL:
                raise InvalidDistribution(f"{name} is not positive semidefinite")
        for tr, eta, sm, name in (
            (np.trace(c_x), eta_x, self.second_moment_x, "x"),
            (np.trace(c_y), eta_y, self.second_moment_y, "y"),
        ):
            expect = float(tr + eta @ eta)
            if abs(expect - float(sm)) > MOMENT_TOL * max(1.0, abs(expect)):
                raise InvalidDistribution(
                    f"second_moment_{name}={sm!r} violates trace identity "
                    f"(expected {expect!r})"
                )
        for arr, fname in ((eta_x, "eta_x"), (eta_y, "eta_y"), (c_x, "c_x"),
                           (c_y, "c_y"), (c_xy, "c_xy")):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, fname, arr)
        object.__setattr__(self, "second_moment_x", float(self.second_moment_x))
        object.__setattr__(self, "second_moment_y", float(self.second_moment_y))


def _summary_from_arrays(xs: np.ndarray, ys: np.ndarray, weights: np.ndarray) -> MomentSummary:
    w = weights / weights.sum()
    eta_x = w @ xs
    eta_y = w @ ys
    dx = xs - eta_x
    dy = ys - eta_y
    c_x = (dx * w[:, None]).T @ dx
    c_y = (dy * w[:, None]).T @ dy
    c_xy = (dx * w[:, None]).T @ dy
    sm_x = float(w @ (xs * xs).sum(axis=1))
    sm_y = float(w @ (ys * ys).sum(axis=1))
    # symmetrize away the last-ulp asymmetry from the matrix products
    c_x = (c_x + c_x.T) / 2.0
    c_y = (c_y + c_y.T) / 2.0
    return MomentSummary(eta_x=eta_x, eta_y=eta_y, c_x=c_x, c_y=c_y, c_xy=c_xy,
                         second_moment_x=sm_x, second_moment_y=sm_y)


def moments_exact(joint: FiniteJoint) -> MomentSummary:
    """Exact moments of a finite joint (weighted sums over atoms)."""
    nx, ny = joint.pmf.shape
    xs = np.repeat(joint.x_support, ny, axis=0)
    ys = np.tile(joint.y_support, (nx, 1))
    return _summary_from_arrays(xs, ys, joint.pmf.ravel())


def moments_empirical(samples: tuple[np.ndarray, np.ndarray]) -> MomentSummary:
    """Population-convention moments of a sample of pairs.

    ``samples`` is a tuple of two arrays of shape (n, k) and (n, m), as
    returned by ``sample_pairs``.  Raises InsufficientSamples below two
    samples.
    """
    xs = np.atleast_2d(np.asarray(samples[0], dtype=float))
    ys = np.atleast_2d(np.asarray(samples[1], dtype=float))
    if xs.shape[0] < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {xs.shape[0]}")
    if xs.shape[0] != ys.shape[0]:
        raise InvalidDistribution("x and y sample counts differ")
    weights = np.full(xs.shape[0], 1.0 / xs.shape[0])
    return _summary_from_arrays(xs, ys, weights)


def floor_index(x, a: float) -> np.ndarray:
    """Lattice cell index floor(x / a), entrywise, as floats.

    An ulp-level snap treats ratios within a few machine epsilons of an
    integer as that integer, which makes floor_quantize idempotent and keeps
    exact lattice points fixed; without it, values like -1/(1/3) land just
    above -3 and would floor to the wrong cell.
    """
    if not np.isfinite(a) or a <= 0.0:
        raise NonPositiveStep(f"step must be positive, got {a!r}")
    r = np.asarray(x, dtype=float) / a
    nearest = np.rint(r)
    snap = np.abs(r - nearest) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(r))
    return np.where(snap, nearest, np.floor(r))


def floor_quantize(x, a: float) -> np.ndarray:
    """Grid operator x -> floor(x / a) * a, entrywise (see floor_index)."""
    return floor_index(x, a) * a


def discretize(sampler: Sampler, grid_step: float, n_samples: int, seed: int) -> FiniteJoint:
    """Empirical finite joint of the floor-quantized pair.

    Draws ``n_samples`` pairs from ``sampler`` with a stream derived from
    ``seed``, floor-quantizes both coordinates at ``grid_step``, and counts.
    The pmf is counts / n_samples, exact up to float division.
    """
    if n_samples < 1:
        raise InsufficientSamples("n_samples must be >= 1")
    xs, ys = sample_pairs(sampler, n_samples, rng_stream(seed, "discretize"))
    return joint_from_keys(floor_quantize(xs, grid_step),
                           floor_quantize(ys, grid_step), np.ones(n_samples))


def product_joint(x_values, x_probs, y_values, y_probs) -> FiniteJoint:
    """Independent product of two finite marginals."""
    px = np.asarray(x_probs, dtype=float)
    py = np.asarray(y_probs, dtype=float)
    return FiniteJoint(x_support=_as_support(x_values, "x_support"),
                       y_support=_as_support(y_values, "y_support"),
                       pmf=np.outer(px / px.sum(), py / py.sum()))


def joint_from_keys(x_keys, y_keys, weights, x_value=None,
                    y_value=None) -> FiniteJoint:
    """Accumulate (x_key, y_key, weight) triples into a FiniteJoint.

    The keys are 1-D integer arrays (lattice cell indices) or 2-D float
    arrays of atom rows, one entry per weight.  Equal keys merge and their
    weights add in input order (``np.bincount``), so the pmf does not depend
    on how the caller batched its triples.  Supports come out sorted;
    ``x_value``/``y_value`` map the sorted unique keys to support atoms
    (default: the keys themselves).  The pmf is divided by its total.
    """
    x_keys, y_keys = np.asarray(x_keys), np.asarray(y_keys)
    ux, xi = np.unique(x_keys, axis=0 if x_keys.ndim == 2 else None,
                       return_inverse=True)
    uy, yi = np.unique(y_keys, axis=0 if y_keys.ndim == 2 else None,
                       return_inverse=True)
    nx, ny = ux.shape[0], uy.shape[0]
    pmf = np.bincount(xi.ravel() * ny + yi.ravel(),
                      weights=np.asarray(weights, dtype=float),
                      minlength=nx * ny).reshape(nx, ny)
    pmf /= pmf.sum()
    return FiniteJoint(x_support=ux if x_value is None else x_value(ux),
                       y_support=uy if y_value is None else y_value(uy),
                       pmf=pmf)


def joint_from_atoms(atoms: Sequence[tuple[tuple, tuple, float]]) -> FiniteJoint:
    """Build a FiniteJoint from (x_atom, y_atom, prob) triples.

    Atoms are tuples of floats; repeated (x, y) pairs accumulate.  Supports
    come out in sorted order so construction is order-independent.
    """
    if not atoms:
        raise InvalidDistribution("joint_from_atoms needs at least one atom")
    xs, ys, probs = zip(*atoms)
    return joint_from_keys(np.array([np.atleast_1d(x) for x in xs], dtype=float),
                           np.array([np.atleast_1d(y) for y in ys], dtype=float),
                           probs)


def quantize_joint(joint: FiniteJoint, x_step: float, y_step: float) -> FiniteJoint:
    """Push a finite joint through floor quantization of both coordinates.

    Atoms that land in the same cell merge; probabilities add exactly.
    The supports are merged first, so the cell keys are integer indices.
    """
    nx, ny = joint.pmf.shape
    ux, xi = np.unique(floor_quantize(joint.x_support, x_step), axis=0,
                       return_inverse=True)
    uy, yi = np.unique(floor_quantize(joint.y_support, y_step), axis=0,
                       return_inverse=True)
    return joint_from_keys(np.repeat(xi.ravel(), ny), np.tile(yi.ravel(), nx),
                           joint.pmf.ravel(), x_value=lambda k: ux[k],
                           y_value=lambda k: uy[k])
