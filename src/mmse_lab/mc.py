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

Memory: ``mc_mmse`` works inside its two sample buffers, which the caller
may pass in and reuse from call to call.  The draw fills them; the bin
index replaces the measurement in its own buffer (an int64 view of it), and
the residual, its square and the standard error are computed in the buffer
of X.  For a scalar X every other array is bin-sized (the counts, the
retained-bin mask and the means, divided in the buffer of the sums) or a
chunk of ``probcore.SAMPLE_CHUNK`` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidDistribution
from .exact import _squared_norms_in_place, mmse_exact
from .probcore import Draw, FiniteJoint, _chunks, draw_atom_indices, rng_stream

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

    Reads ``bin_idx`` and overwrites ``xs`` with the squared residuals.
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
    # the residual, in the buffer of X, gathering the means chunk by chunk
    for part, idx in zip(_chunks(xs), _chunks(bin_idx)):
        part -= means[idx]
    sq = _squared_norms_in_place(xs)
    n_eff = int(counts.sum(where=retained_bins))
    if n_eff < sq.size:
        # keep the samples of retained bins, moved forward in sq's buffer
        kept = 0
        for part, idx in zip(_chunks(sq), _chunks(bin_idx)):
            keep = part[retained_bins[idx]]
            sq[kept:kept + keep.size] = keep
            kept += keep.size
        sq = sq[:kept]
    return _estimate(sq)


def _estimate(sq: np.ndarray, degenerate_range: bool = False
              ) -> McMmseEstimate:
    """Mean of the squared residuals with its plug-in standard error.

    sq.std(ddof=0) step by step in sq's own buffer: mean, subtract, square,
    sum, divide by the count, square root.  A non-finite result (a NaN or an
    infinity among the samples of X) raises.
    """
    value = sq.mean()
    sq -= value
    sq *= sq
    std_error = math.sqrt(sq.sum() / sq.size) / math.sqrt(sq.size)
    if not (math.isfinite(value) and math.isfinite(std_error)):
        raise InvalidDistribution(
            f"the regressogram estimate is not finite: value {float(value)!r}, "
            f"standard error {std_error!r}")
    return McMmseEstimate(value=float(value), std_error=float(std_error),
                          n_effective=sq.size,
                          degenerate_range=degenerate_range)


def mc_mmse(draw: Draw, config: RegressionConfig, xs: np.ndarray | None = None,
            ys: np.ndarray | None = None) -> McMmseEstimate:
    """Regressogram MMSE estimate from fresh draws of ``draw``.

    The measurement must be scalar.  If every measurement sample coincides
    there is no range to bin; the estimate then degrades to the prior
    variance of X and is flagged ``degenerate_range`` (the MMSE of a
    constant measurement).  A non-finite sample raises InvalidDistribution.

    ``xs`` and ``ys`` are the sample buffers, float64 arrays of shape
    (n_samples, k) and (n_samples, 1) that the draw fills; the estimate
    overwrites both.  None allocates an (n_samples, 1) array.
    """
    n = config.n_samples
    xs = np.empty((n, 1)) if xs is None else xs
    ys = np.empty((n, 1)) if ys is None else ys
    if ys.shape[1] != 1:
        raise InvalidDistribution(
            f"the regressogram bins a scalar measurement, got dimension "
            f"{ys.shape[1]}")
    if not (xs.shape[0] == ys.shape[0] == n
            and xs.dtype == ys.dtype == np.float64):
        raise InvalidDistribution(
            f"sample buffers must be float64 with {n} rows, got "
            f"{xs.dtype} {xs.shape} and {ys.dtype} {ys.shape}")
    draw(rng_stream(config.seed, "mc_mmse"), xs, ys)
    y = ys[:, 0]
    lo = y.min()
    hi = y.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidDistribution(
            f"measurement samples are not finite: range "
            f"[{float(lo)!r}, {float(hi)!r}]")
    if hi == lo:
        xs -= xs.mean(axis=0)
        return _estimate(_squared_norms_in_place(xs), degenerate_range=True)
    bins = cube_root_bins(n) if config.bins is None else config.bins
    width = (hi - lo) / bins
    # the bin index in the measurement's buffer: (y - lo) / width, floored,
    # then cast to int64 in place (a 1-D assignment between arrays that
    # overlap exactly casts element by element, with no copy)
    y -= lo
    y /= width
    np.floor(y, out=y)
    idx = y.view(np.int64)
    idx[...] = y
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
