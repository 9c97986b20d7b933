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

Memory: one ``mc_mmse`` call holds the draw's two sample arrays, the bin
index, one residual buffer and three bin-sized arrays (the counts, the
retained-bin mask and the means, divided in the buffer of the sums).  The
measurement is released once the bin index exists, and the residual, its
square and the standard error are computed in place, in buffers the
estimator allocated: it never writes into an array a draw returned.
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
    """Shared reduction: within-bin means, residuals in sample order.

    Reads ``xs`` and ``bin_idx`` and writes only into arrays it allocates.
    """
    counts = np.bincount(bin_idx, minlength=n_bins)
    retained_bins = counts >= MIN_BIN_COUNT
    if not np.any(retained_bins):
        raise InsufficientSamples(
            f"no bin reached MIN_BIN_COUNT={MIN_BIN_COUNT}")
    k = xs.shape[1]
    if k == 1:
        means = np.bincount(bin_idx, weights=xs[:, 0],
                            minlength=n_bins)[:, None]
    else:
        means = np.stack([np.bincount(bin_idx, weights=xs[:, c],
                                      minlength=n_bins) for c in range(k)],
                         axis=1)
    # the sums become the means of the retained bins; a dropped bin keeps
    # its sum, and every sample in it is filtered out below
    np.divide(means, counts[:, None], out=means, where=retained_bins[:, None])
    # the gathered means become the residual and then its square
    resid = means[bin_idx]
    np.subtract(xs, resid, out=resid)
    resid *= resid
    sq = resid[:, 0] if k == 1 else resid.sum(axis=1)
    n_eff = int(counts.sum(where=retained_bins))
    if n_eff < sq.size:
        sq = sq[retained_bins[bin_idx]]
    value = sq.mean()
    # sq.std(ddof=0) step by step in sq's own buffer: mean, subtract, square,
    # sum, divide by the count, square root
    sq -= value
    sq *= sq
    std = math.sqrt(sq.sum() / sq.size)
    return McMmseEstimate(value=float(value),
                          std_error=float(std / math.sqrt(n_eff)),
                          n_effective=n_eff)


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
    del ys, y  # the measurement is not needed past its bin index
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
