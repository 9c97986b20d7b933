"""Monte Carlo MMSE estimation by regressogram (binned conditional means).

The estimator draws n pairs, partitions the measurement space into
equal-width bins per dimension over the empirical range, replaces the
conditional mean by the within-bin sample mean of X, and averages squared
residuals over samples that fall in sufficiently populated bins.  This is
the crudest consistent regression estimator there is, which is exactly why
it serves as an independent check on the exact engine: it shares no code
path and no modeling assumption with it.

Determinism: the sample stream is derived from ``config.seed`` only, and
all reductions run in sample-index order, so identical inputs give
bit-identical estimates on the same platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InsufficientSamples, InvalidDistribution
from .exact import mmse_exact
from .probcore import FiniteJoint, Sampler, draw_atom_indices, rng_stream, sample_pairs

MAX_MEASUREMENT_DIM = 3


def cube_root_bins(n: int) -> int:
    """Default binning rule: ceil(n^(1/3)) bins per measurement dimension."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


@dataclass(frozen=True)
class RegressionConfig:
    """Knobs for the regressogram estimator.

    ``binning`` maps the sample count to the per-dimension bin count.
    ``min_bin_count`` is the smallest bin population that still contributes
    to the estimate; emptier bins are discarded.
    """

    n_samples: int
    seed: int
    binning: Callable[[int], int] = cube_root_bins
    min_bin_count: int = 5

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidDistribution("n_samples must be >= 1")
        if self.min_bin_count < 1:
            raise InvalidDistribution("min_bin_count must be >= 1")
        if self.binning(self.n_samples) < 1:
            raise InvalidDistribution("binning rule returned a count below 1")


@dataclass(frozen=True)
class McMmseEstimate:
    """Regressogram MMSE estimate with a plug-in standard error."""

    value: float
    std_error: float
    n_effective: int
    config_echo: RegressionConfig
    degenerate_range: bool = False


def _binned_value(xs: np.ndarray, bin_idx: np.ndarray, n_bins: int,
                  min_bin_count: int, config: RegressionConfig) -> McMmseEstimate:
    """Shared reduction: within-bin means, residuals in sample order."""
    counts = np.bincount(bin_idx, minlength=n_bins)
    k = xs.shape[1]
    sums = np.zeros((n_bins, k))
    np.add.at(sums, bin_idx, xs)
    retained_bins = counts >= min_bin_count
    if not np.any(retained_bins):
        raise InsufficientSamples(
            f"no bin reached min_bin_count={min_bin_count}")
    means = np.zeros((n_bins, k))
    means[retained_bins] = sums[retained_bins] / counts[retained_bins, None]
    keep = retained_bins[bin_idx]
    resid = xs[keep] - means[bin_idx[keep]]
    sq = (resid * resid).sum(axis=1)
    n_eff = int(keep.sum())
    value = float(sq.mean())
    std_error = float(sq.std(ddof=0) / math.sqrt(n_eff))
    return McMmseEstimate(value=value, std_error=std_error, n_effective=n_eff,
                          config_echo=config)


def mc_mmse(sampler: Sampler, config: RegressionConfig) -> McMmseEstimate:
    """Regressogram MMSE estimate from fresh draws of ``sampler``.

    If every measurement sample coincides there is no range to bin; the
    estimate then degrades to the prior variance of X and is flagged
    ``degenerate_range`` (the MMSE of a constant measurement).
    """
    rng = rng_stream(config.seed, "mc_mmse")
    xs, ys = sample_pairs(sampler, config.n_samples, rng)
    if ys.shape[1] > MAX_MEASUREMENT_DIM:
        raise InvalidDistribution(
            f"measurement dimension {ys.shape[1]} exceeds {MAX_MEASUREMENT_DIM}")
    lo = ys.min(axis=0)
    hi = ys.max(axis=0)
    if np.all(hi == lo):
        mean = xs.mean(axis=0)
        resid = xs - mean
        sq = (resid * resid).sum(axis=1)
        return McMmseEstimate(
            value=float(sq.mean()),
            std_error=float(sq.std(ddof=0) / math.sqrt(xs.shape[0])),
            n_effective=xs.shape[0],
            config_echo=config,
            degenerate_range=True,
        )
    bins = config.binning(config.n_samples)
    per_dim = []
    for d in range(ys.shape[1]):
        if hi[d] == lo[d]:
            per_dim.append(np.zeros(ys.shape[0], dtype=np.int64))
            continue
        width = (hi[d] - lo[d]) / bins
        idx = np.floor((ys[:, d] - lo[d]) / width).astype(np.int64)
        per_dim.append(np.clip(idx, 0, bins - 1))
    flat = per_dim[0]
    for idx in per_dim[1:]:
        flat = flat * bins + idx
    return _binned_value(xs, flat, bins ** ys.shape[1],
                         config.min_bin_count, config)


def mc_mmse_vs_exact(joint: FiniteJoint, config: RegressionConfig
                     ) -> tuple[McMmseEstimate, float, float]:
    """Monte Carlo estimate on a finite joint with atom-aligned bins.

    Samples the joint itself, bins by measurement atom (one bin per atom,
    no range splitting), and reports (estimate, exact value, z-score) with
    z = (mc - exact) / std_error.  A zero standard error with matching
    values reports z = 0.
    """
    exact = mmse_exact(joint).mmse
    ny = joint.y_support.shape[0]
    atom = draw_atom_indices(joint, config.n_samples,
                             rng_stream(config.seed, "mc_vs_exact"))
    xs = joint.x_support[atom // ny]
    y_idx = atom % ny
    est = _binned_value(xs, y_idx, ny, config.min_bin_count, config)
    if est.std_error > 0.0:
        z = (est.value - exact) / est.std_error
    else:
        z = 0.0 if est.value == exact else math.inf
    return est, float(exact), float(z)
