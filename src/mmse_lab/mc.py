"""Monte Carlo MMSE estimation by regressogram (binned conditional means).

The estimator draws n pairs, partitions the range of the scalar
measurement into equal-width bins, replaces the conditional mean by the
within-bin sample mean of X, and averages squared residuals over samples
that fall in bins holding at least ``MIN_BIN_COUNT`` samples.  This is the
crudest consistent regression estimator there is, which is exactly why it
serves as an independent check on the exact engine: it shares no code path
and no modeling assumption with it.

Determinism: the sample stream is derived from ``config.seed`` only, and
all reductions run in sample-index order, so identical inputs give
bit-identical estimates on the same platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidDistribution
from .exact import mmse_exact
from .probcore import Draw, FiniteJoint, draw_atom_indices, rng_stream, sample_pairs

MIN_BIN_COUNT = 5


def cube_root_bins(n: int) -> int:
    """Default binning rule: ceil(n^(1/3)) measurement bins for n samples."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


@dataclass(frozen=True)
class RegressionConfig:
    """Settings of the regressogram estimator.

    ``n_samples`` pairs are drawn from the stream of ``seed``.  ``bins`` is
    the number of equal-width measurement bins; None means
    ``cube_root_bins(n_samples)``.
    """

    n_samples: int
    seed: int
    bins: int | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidDistribution("n_samples must be >= 1")
        if self.bins is not None and self.bins < 1:
            raise InvalidDistribution(f"bins must be >= 1, got {self.bins!r}")


@dataclass(frozen=True)
class McMmseEstimate:
    """Regressogram MMSE estimate with a plug-in standard error."""

    value: float
    std_error: float
    n_effective: int
    degenerate_range: bool = False


def _binned_value(xs: np.ndarray, bin_idx: np.ndarray,
                  n_bins: int) -> McMmseEstimate:
    """Shared reduction: within-bin means, residuals in sample order."""
    counts = np.bincount(bin_idx, minlength=n_bins)
    sums = np.stack([np.bincount(bin_idx, weights=xs[:, c], minlength=n_bins)
                     for c in range(xs.shape[1])], axis=1)
    retained_bins = counts >= MIN_BIN_COUNT
    if not np.any(retained_bins):
        raise InsufficientSamples(
            f"no bin reached MIN_BIN_COUNT={MIN_BIN_COUNT}")
    means = np.zeros_like(sums)
    means[retained_bins] = sums[retained_bins] / counts[retained_bins, None]
    # the gathered means become the residual and then its square
    resid = means[bin_idx]
    np.subtract(xs, resid, out=resid)
    resid *= resid
    sq = resid.sum(axis=1)
    n_eff = int(counts[retained_bins].sum())
    if n_eff < sq.size:
        sq = sq[retained_bins[bin_idx]]
    value = float(sq.mean())
    std_error = float(sq.std(ddof=0) / math.sqrt(n_eff))
    return McMmseEstimate(value=value, std_error=std_error, n_effective=n_eff)


def mc_mmse(draw: Draw, config: RegressionConfig) -> McMmseEstimate:
    """Regressogram MMSE estimate from fresh draws of ``draw``.

    The measurement must be scalar.  If every measurement sample coincides
    there is no range to bin; the estimate then degrades to the prior
    variance of X and is flagged ``degenerate_range`` (the MMSE of a
    constant measurement).
    """
    rng = rng_stream(config.seed, "mc_mmse")
    xs, ys = sample_pairs(draw, config.n_samples, rng)
    if ys.shape[1] != 1:
        raise InvalidDistribution(
            f"the regressogram bins a scalar measurement, got dimension "
            f"{ys.shape[1]}")
    y = ys[:, 0]
    lo = y.min()
    hi = y.max()
    if hi == lo:
        mean = xs.mean(axis=0)
        resid = xs - mean
        sq = (resid * resid).sum(axis=1)
        return McMmseEstimate(
            value=float(sq.mean()),
            std_error=float(sq.std(ddof=0) / math.sqrt(xs.shape[0])),
            n_effective=xs.shape[0],
            degenerate_range=True,
        )
    bins = (cube_root_bins(config.n_samples) if config.bins is None
            else config.bins)
    width = (hi - lo) / bins
    # the bin index in one float buffer: (y - lo) / width, floored
    t = y - lo
    t /= width
    np.floor(t, out=t)
    idx = t.astype(np.int64)
    del t
    return _binned_value(xs, np.clip(idx, 0, bins - 1, out=idx), bins)


def mc_mmse_vs_exact(joint: FiniteJoint, config: RegressionConfig
                     ) -> tuple[McMmseEstimate, float, float]:
    """Monte Carlo estimate on a finite joint with atom-aligned bins.

    Samples the joint itself, bins by measurement atom (one bin per atom,
    no range splitting, so ``config.bins`` does not apply), and reports (estimate, exact value, z-score) with
    z = (mc - exact) / std_error.  A zero standard error with matching
    values reports z = 0.
    """
    exact = mmse_exact(joint).mmse
    atom = draw_atom_indices(joint, config.n_samples,
                             rng_stream(config.seed, "mc_vs_exact"))
    est = _binned_value(joint.x_support[joint.x_idx[atom]],
                        joint.y_idx[atom], joint.y_support.shape[0])
    if est.std_error > 0.0:
        z = (est.value - exact) / est.std_error
    else:
        z = 0.0 if est.value == exact else math.inf
    return est, float(exact), float(z)
