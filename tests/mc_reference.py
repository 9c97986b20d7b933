"""The Monte Carlo path as written before its temporaries were made in place.

``mc._binned_value`` computes its bin means, residuals and standard error
in the buffer of its samples, and the scenarios' draw functions fill
caller-owned sample buffers, chunk by chunk where numpy has no ``out=``.
The versions below allocate a new array for each step, in the same IEEE
operations and order.  They are the reference that the in-place versions must
match bit for bit, and leave the generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from mmse_lab.errors import InsufficientSamples
from mmse_lab.mc import MIN_BIN_COUNT, McMmseEstimate
from mmse_lab.scenarios import SQRT3

from atom_realizations import COR1_PATHS


def binned_value(xs: np.ndarray, bin_idx: np.ndarray,
                 n_bins: int) -> McMmseEstimate:
    """Within-bin means, residuals in sample order, a new array per step."""
    counts = np.bincount(bin_idx, minlength=n_bins)
    sums = np.stack([np.bincount(bin_idx, weights=xs[:, c], minlength=n_bins)
                     for c in range(xs.shape[1])], axis=1)
    retained_bins = counts >= MIN_BIN_COUNT
    if not np.any(retained_bins):
        raise InsufficientSamples(
            f"no bin reached MIN_BIN_COUNT={MIN_BIN_COUNT}")
    means = np.zeros_like(sums)
    means[retained_bins] = sums[retained_bins] / counts[retained_bins, None]
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


def example2_draw(n: int):
    def draw(rng: np.random.Generator, size: int):
        x = rng.random(size)
        b = rng.integers(0, 2, size).astype(float)
        return x[:, None], (b + x / n)[:, None]

    return draw


def example4_draw(n: int):
    def draw(rng: np.random.Generator, size: int):
        x = rng.uniform(-SQRT3, SQRT3, size)
        w = rng.uniform(-SQRT3, SQRT3, size) / n
        return x[:, None], (x + w)[:, None]

    return draw


def cor1_draw(name: str, n: int):
    gamma_of_n, lambda_of_n = COR1_PATHS[name]
    gamma = gamma_of_n(n)
    lam = lambda_of_n(n)

    def draw(rng: np.random.Generator, size: int):
        x = rng.choice([-1.0, 1.0], size)
        nr = rng.choice([-1.0, 1.0], size)
        pert = (rng.random(size) - 0.5) * gamma
        meas = (rng.random(size) - 0.5) * lam
        return (x + pert)[:, None], (x + nr + meas)[:, None]

    return draw


def reference_draw(name: str, n: int):
    """The allocating form of ``builtin_scenarios()[name].mc_sampler(n)``."""
    if name == "example2":
        return example2_draw(n)
    if name == "example4":
        return example4_draw(n)
    return cor1_draw(name, n)
