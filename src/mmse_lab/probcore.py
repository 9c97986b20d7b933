"""Exact finite probability objects, draw functions, and moment primitives.

The whole lab runs on four value types:

* ``FiniteJoint`` — an exact joint law of a pair (X, Y) on finite supports,
  stored as its positive-mass atoms ``(x_idx, y_idx, prob)``.  Everything
  "exact" downstream (marginals, conditional means, MMSE, moments) is a
  reduction over those atoms, so its cost and memory follow the number of
  atoms, not the size of the dense (nx, ny) table.  The dense matrix
  ``pmf`` is built on first read; in the lab only channel composition
  (``degradedness.compose``) reads it.
* ``SufficientJoint`` — the same law given through a statistic T = T(Y)
  with X — T(Y) — Y: a ``FiniteJoint`` of (X, T) plus, per measurement
  atom, its letter of T and P(Y = y | T).  Since E[X | Y] = E[X | T(Y)],
  the MMSE is computed on the (X, T) joint; the marginals of X and Y are
  exposed, the (X, Y) atoms are never built.  The lattice scenarios whose
  measurement refines a small statistic (``cor1_*``, ``example2``) use it.
* ``Draw`` — a seeded fill function ``draw(rng, xs, ys)`` for laws that
  are not finite (uniform priors, additive noise families); it writes
  ``len(xs)`` independent draws of X and of Y into float64 arrays of shape
  (n, k) and (n, m) that the caller owns, so one pair of buffers serves
  many draws.  Only the Monte Carlo cross-path consumes these; every exact
  result is computed on a ``FiniteJoint``.
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

import itertools
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidDistribution, NonPositiveStep

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


def _as_array(values, name: str, dtype=float) -> np.ndarray:
    """``np.asarray(values, dtype)``; input that numpy cannot make into an
    array, ragged or not numeric, raises InvalidDistribution naming it."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as err:
        raise InvalidDistribution(f"{name} is not a numeric array: {err}") from None


def _as_support(values, name: str) -> np.ndarray:
    arr = _as_array(values, name)
    if arr.ndim == 1:
        arr = arr[:, None]
    # size 0 also refuses a support of rows with no coordinates
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidDistribution(f"{name} must be a non-empty 1-D or 2-D array")
    if not np.isfinite(arr).all():
        raise InvalidDistribution(f"{name} contains non-finite values")
    # equal rows sort next to each other; == also merges 0.0 with -0.0
    if arr.shape[1] == 1:
        rows = np.sort(arr, axis=0)
        repeated = (rows[1:] == rows[:-1]).any()
    else:
        rows = arr[np.lexsort(arr.T)]
        repeated = (rows[1:] == rows[:-1]).all(axis=1).any()
    if repeated:
        raise InvalidDistribution(f"{name} atoms must be pairwise distinct")
    return arr


@dataclass(frozen=True, init=False, eq=False)
class FiniteJoint:
    """Exact joint law of (X, Y) on finite supports, stored as its atoms.

    Atom ``a`` says P(X = x_support[x_idx[a]], Y = y_support[y_idx[a]]) =
    prob[a].  Atom masses are finite, strictly positive and sum to 1 within
    ``PMF_TOL``; atoms are stored in row-major order, so the pairs
    ``(x_idx, y_idx)`` strictly increase in lexicographic order.  Support
    atoms are rows and must be pairwise distinct; a support atom may carry
    no mass.  Every array is read-only.

    ``FiniteJoint(x_support, y_support, pmf)`` takes a dense (nx, ny)
    matrix and keeps its nonzero entries.  ``FiniteJoint(x_support,
    y_support, x_idx=..., y_idx=..., prob=...)`` takes the atoms themselves
    and marks all five arrays read-only in place instead of copying them,
    so it is for arrays the caller has just built and hands over.
    ``pmf`` is the dense matrix, built on first read and cached.
    """

    x_support: np.ndarray  # (nx, k)
    y_support: np.ndarray  # (ny, m)
    x_idx: np.ndarray      # (nnz,) support row of each atom
    y_idx: np.ndarray      # (nnz,) support row of each atom's measurement
    prob: np.ndarray       # (nnz,) atom masses

    def __init__(self, x_support, y_support, pmf=None, *, x_idx=None,
                 y_idx=None, prob=None):
        for name, value in (("x_support", x_support), ("y_support", y_support),
                            ("x_idx", x_idx), ("y_idx", y_idx), ("prob", prob)):
            object.__setattr__(self, name, value)
        # __post_init__, as in the other value types, is the one place that
        # validates, whichever form the joint was given in
        self.__post_init__(pmf)

    def __post_init__(self, pmf=None):
        xs = _as_support(self.x_support, "x_support")
        ys = _as_support(self.y_support, "y_support")
        nx, ny = xs.shape[0], ys.shape[0]
        atoms = (self.x_idx, self.y_idx, self.prob)
        if (pmf is None) == all(a is None for a in atoms):
            raise InvalidDistribution(
                "give either a dense pmf or the atoms x_idx, y_idx, prob")
        if pmf is not None:
            pmf = _as_array(pmf, "pmf")
            if pmf.shape != (nx, ny):
                raise InvalidDistribution(
                    f"pmf shape {pmf.shape} does not match supports "
                    f"({nx}, {ny})")
            _check_masses(pmf, "pmf entries")
            # the nonzero entries of a finite nonnegative matrix are
            # positive atoms in row-major order by construction
            x_idx, y_idx = np.nonzero(pmf)
            prob = pmf[x_idx, y_idx]
            xs, ys = xs.copy(), ys.copy()
        else:
            x_idx = _as_array(self.x_idx, "x_idx", None)
            y_idx = _as_array(self.y_idx, "y_idx", None)
            prob = _as_array(self.prob, "prob")
            if not (prob.ndim == 1 and x_idx.shape == y_idx.shape == prob.shape
                    and x_idx.dtype.kind in "iu" and y_idx.dtype.kind in "iu"):
                raise InvalidDistribution(
                    "x_idx, y_idx and prob must be 1-D arrays of one length, "
                    "with integer indices")
            if prob.size == 0:
                raise InvalidDistribution("a joint needs at least one atom")
            _check_masses(prob, "atom probabilities")
            if not prob.min() > 0.0:
                raise InvalidDistribution("atom probabilities must be positive")
            if (x_idx.min() < 0 or x_idx.max() >= nx
                    or y_idx.min() < 0 or y_idx.max() >= ny):
                raise InvalidDistribution(
                    f"atom indices out of range for supports ({nx}, {ny})")
            # row-major: each atom's x row is greater, or equal with a
            # greater y row.  Pairwise, so no flat index can overflow.
            ordered = x_idx[1:] > x_idx[:-1]
            same_row = x_idx[1:] == x_idx[:-1]
            same_row &= y_idx[1:] > y_idx[:-1]
            ordered |= same_row
            if not ordered.all():
                raise InvalidDistribution(
                    "atoms must be distinct and in row-major order")
        total = float(prob.sum())
        if abs(total - 1.0) > PMF_TOL:
            raise InvalidDistribution(f"pmf sums to {total!r}, not 1")
        _freeze(self, x_support=xs, y_support=ys, x_idx=x_idx, y_idx=y_idx,
                prob=prob)

    @property
    def k(self) -> int:
        return self.x_support.shape[1]

    @property
    def pmf(self) -> np.ndarray:
        """Dense (nx, ny) probability matrix, built on first read."""
        def dense():
            out = np.zeros((self.x_support.shape[0], self.y_support.shape[0]))
            out[self.x_idx, self.y_idx] = self.prob
            return _frozen(out)

        return _cached(self, "_pmf", dense)

    def x_marginal(self) -> np.ndarray:
        return _cached(self, "_x_marginal", lambda: _mass_by_row(
            self.x_idx, self.prob, self.x_support.shape[0]))

    def y_marginal(self) -> np.ndarray:
        return _cached(self, "_y_marginal", lambda: _mass_by_row(
            self.y_idx, self.prob, self.y_support.shape[0]))


def _mass_by_row(idx: np.ndarray, prob: np.ndarray, rows: int) -> np.ndarray:
    """``np.bincount(idx, weights=prob, minlength=rows)``, adding in the
    same order, read-only; np.add.at reads the read-only atom arrays in
    place, where np.bincount would copy both."""
    out = np.zeros(rows)
    np.add.at(out, idx, prob)
    return _frozen(out)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


def _freeze(owner, **arrays: np.ndarray) -> None:
    """Set each named field of the frozen dataclass ``owner`` to its
    array, made read-only."""
    for name, arr in arrays.items():
        object.__setattr__(owner, name, _frozen(arr))


def _check_masses(masses: np.ndarray, what: str) -> None:
    """Refuse a non-empty array of masses unless every entry is finite and
    nonnegative: NaN fails both comparisons, -inf the first and +inf the
    second."""
    if not (masses.min() >= 0.0 and masses.max() < np.inf):
        raise InvalidDistribution(f"{what} must be finite and nonnegative")


def _check_sums(sums: np.ndarray, what: str) -> None:
    """Refuse unless every entry of ``sums``, one per ``what``, is 1 within
    PMF_TOL; the message names the worst one."""
    off = np.abs(sums - 1.0)
    if off.max() > PMF_TOL:
        raise InvalidDistribution(
            f"{what}s must sum to 1 within {PMF_TOL}; worst {what} sum "
            f"{float(sums[off.argmax()])!r}")


def _cached(owner, name: str, build):
    """``build()`` on first use, kept on the frozen ``owner`` and shared by
    every later call; ``build`` returns any array in it read-only."""
    value = owner.__dict__.get(name)
    if value is None:
        value = build()
        owner.__dict__[name] = value
    return value


@dataclass(frozen=True, eq=False)  # == on array fields would be ambiguous
class SufficientJoint:
    """Exact law of (X, Y) given through a sufficient statistic T = T(Y).

    ``core`` is the FiniteJoint of (X, T).  Measurement atom ``y_support[j]``
    has the statistic ``core.y_support[y_stat[j]]`` and the conditional
    mass ``y_given_stat[j]`` = P(Y = y_j | T = T(y_j)), so that

        P(X = x, Y = y_j) = P(X = x, T = T(y_j)) * y_given_stat[j].

    The factorization says X — T(Y) — Y; since T is a function of Y, each
    measurement is a garbling of the other, E[X | Y] = E[X | T(Y)] and the
    two have the same MMSE.  So the exact engine works on ``core`` alone,
    and the (X, Y) atoms are never built: there is no ``pmf`` and no atom
    arrays.  ``y_stat`` is a 1-D integer array and ``y_given_stat`` a 1-D
    array of finite nonnegative masses, one entry per measurement atom;
    the masses of the atoms of each statistic letter sum to 1 within
    ``PMF_TOL``.  Like the atom form of FiniteJoint, the constructor marks
    the arrays it is handed read-only in place.
    """

    core: FiniteJoint
    y_support: np.ndarray     # (ny, m)
    y_stat: np.ndarray        # (ny,) statistic letter of each measurement atom
    y_given_stat: np.ndarray  # (ny,) P(Y = y | T = T(y))

    def __post_init__(self):
        _atoms(self.core, "a SufficientJoint's core")
        ys = _as_support(self.y_support, "y_support")
        stat = _as_array(self.y_stat, "y_stat", None)
        mass = _as_array(self.y_given_stat, "y_given_stat")
        ny, letters = ys.shape[0], self.core.y_support.shape[0]
        if not (stat.shape == mass.shape == (ny,) and stat.dtype.kind in "iu"):
            raise InvalidDistribution(
                "y_stat and y_given_stat need one entry per measurement atom, "
                "with integer letters")
        if stat.min() < 0 or stat.max() >= letters:
            raise InvalidDistribution(
                f"y_stat out of range for {letters} statistic letters")
        _check_masses(mass, "y_given_stat")
        _check_sums(np.bincount(stat, weights=mass, minlength=letters),
                    "y_given_stat letter")
        _freeze(self, y_support=ys, y_stat=stat, y_given_stat=mass)

    @property
    def x_support(self) -> np.ndarray:
        return self.core.x_support

    def x_marginal(self) -> np.ndarray:
        return self.core.x_marginal()

    def y_marginal(self) -> np.ndarray:
        return _cached(self, "_y_marginal", lambda: _frozen(
            self.core.y_marginal()[self.y_stat] * self.y_given_stat))


def _atoms(joint, caller: str) -> FiniteJoint:
    """Law-form rule where (X, Y) atoms are read: a FiniteJoint, or refused."""
    if not isinstance(joint, FiniteJoint):
        raise InvalidDistribution(
            f"{caller} needs a FiniteJoint, got {type(joint).__name__}")
    return joint


def _core(joint: FiniteJoint | SufficientJoint) -> FiniteJoint:
    """Law-form rule for the MMSE: a SufficientJoint's (X, T) core, or joint."""
    return joint.core if isinstance(joint, SufficientJoint) else joint


# a string, because evaluating np.random here would import numpy.random,
# which numpy otherwise loads only when a generator is first made.  A draw
# fills the caller's two float64 arrays and returns nothing; what it writes
# must not depend on what they held, so a caller may reuse them from one
# draw to the next and the estimators may use them as scratch afterwards.
Draw = Callable[["np.random.Generator", np.ndarray, np.ndarray], None]

# Rows per chunk of a chunked pass over sample or atom arrays.  8192 float64
# or int64 values are 64 KiB, half of glibc's default mmap threshold: a
# chunk's temporaries come from the heap, which keeps freed pages, so a loop
# of them faults no fresh pages.  At 128 KiB they are mapped and unmapped
# each time.
SAMPLE_CHUNK = 8192


def _chunks(a: np.ndarray):
    """Views of consecutive ``SAMPLE_CHUNK``-row slices of ``a``, in order."""
    for start in range(0, a.shape[0], SAMPLE_CHUNK):
        yield a[start:start + SAMPLE_CHUNK]


def _squared_norms_in_place(rows: np.ndarray) -> np.ndarray:
    """||r||^2 of each row of a (n, k) array, squared in its buffer; for
    k = 1 the result is a view of it, so no second array is made."""
    rows *= rows
    return rows[:, 0] if rows.shape[1] == 1 else rows.sum(axis=1)


def _second_moment(points: np.ndarray, weights: np.ndarray) -> float:
    """sum_i weights[i] ||points[i]||^2, exactly rounded: math.fsum, not a
    BLAS dot, whose threads split long sums, so its last bits would depend
    on the BLAS thread count.  Fed Python floats chunk by chunk, fsum gives
    the bits of fsum(sq) without walking numpy scalars."""
    sq = _squared_norms_in_place(points.copy())
    sq *= weights
    return math.fsum(itertools.chain.from_iterable(
        chunk.tolist() for chunk in _chunks(sq)))


def _second_moments(joint: FiniteJoint | SufficientJoint) -> tuple[float, float]:
    """The law's E||X||^2 and E||Y||^2, reduced on first use and kept on it
    like its marginals; a SufficientJoint keeps E||X||^2 on its core."""
    core = _core(joint)
    return (_cached(core, "_second_moment_x", lambda: _second_moment(
                core.x_support, core.x_marginal())),
            _cached(joint, "_second_moment_y", lambda: _second_moment(
                joint.y_support, joint.y_marginal())))


def draw_atom_indices(joint: FiniteJoint, size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """``size`` atom indices of ``joint`` drawn with the atom probabilities.

    Index ``a`` stands for the pair (x_support[x_idx[a]],
    y_support[y_idx[a]]).

    The draw is the inverse CDF of ``rng.choice(prob.size, size,
    p=prob / prob.sum())``: the same cdf (the cumulative sum of p divided
    by its last value), the same uniforms, and so the same indices and
    generator state.  The index of a uniform u is the number of cdf values
    <= u.  A table of m buckets (the guide table of Chen & Asau 1974)
    replaces most of the binary searches.  As m is a power of two, u * m
    and c * m are exact in floating point, so u lies in bucket
    b = floor(u * m) exactly when b <= u * m < b + 1.  Unless the bucket is
    split, that is, some cdf value c has b < c * m < b + 1, the cdf values
    <= u are those with c * m < b + 1, and the table holds their count.
    Only the uniforms in split buckets are searched.  A SufficientJoint,
    which has no (X, Y) atoms, is refused.
    """
    joint = _atoms(joint, "draw_atom_indices")
    cdf = np.cumsum(joint.prob / joint.prob.sum())
    cdf /= cdf[-1]
    u = rng.random(size)
    # about 8 buckets per atom, so on average at most 1/8 of the uniforms
    # fall in a split bucket; at most about 2 buckets per sample, so the
    # table costs no more than the draw when the atoms outnumber the samples
    m = 1 << max(4, (min(8 * cdf.size, 2 * size) - 1).bit_length())
    scaled = cdf * m
    whole = np.floor(scaled)
    # a cdf value of 1.0 lands at m, past the last bucket
    table = np.bincount(whole.astype(np.intp), minlength=m + 1)[:m].cumsum()
    split = np.zeros(m, dtype=bool)
    split[whole[whole != scaled].astype(np.intp)] = True
    bucket = (u * m).astype(np.intp)
    idx = table.take(bucket)
    unsure = np.flatnonzero(split.take(bucket))
    idx[unsure] = cdf.searchsorted(u[unsure], "right")
    return idx


def schur_split(eta_x, eta_y, c_x, c_y, c_xy):
    """The covariance [[c_x, c_xy], [c_xy^T, c_y]] split at the measured
    directions, in coordinates scaled to about unit variance.

    Coordinate i is scaled by 2**p_i, p_i = -(binary exponent of its
    variance // 2), or by 1 for a variance <= 0, which in the normal range
    rounds nothing.  Eigenvalues w of the scaled C_Y above MOMENT_TOL are
    kept (+), the rest dropped (0), G = C_XY V_+ W_+^-1 V_+^T, and the
    remainder [[S, B_0], [B_0^T, W_0]], S = C_X - G C_YX, B_0 = C_XY V_0,
    is PSD exactly when the covariance is.  Returns the p_i, the gain G and
    offset eta_x - G eta_y in the units of the moments, both read-only, the
    rank, the remainder, and its slack: MOMENT_TOL plus the rounding of S.
    eigh and the sums behind the moments move C_Y by some eps ||C_Y||,
    which moves S by that times ||G||^2; 16 eps covers sums over thousands
    of atoms.  Nothing raises; an entry that overflows comes out inf or nan.
    """
    k = c_x.shape[0]
    cov = np.concatenate([np.concatenate([c_x, c_xy], axis=1),
                          np.concatenate([c_xy.T, c_y], axis=1)])
    p = -(np.frexp(np.maximum(cov.diagonal(), 0.0))[1] // 2)  # 0.0 has 0
    cov = np.ldexp(cov, p[:, None] + p)
    cxy, cy = cov[:k, k:], cov[k:, k:]
    w, v = np.linalg.eigh((cy + cy.T) / 2.0)
    d = int(np.count_nonzero(w <= MOMENT_TOL))  # w ascends: these d are dropped
    vr = v[:, d:]
    # with no eigenvalue kept, the gain is an empty product: zeros
    gain = cxy @ vr @ (vr / w[d:]).T
    b0 = cxy @ v[:, :d]
    remainder = np.concatenate([
        np.concatenate([cov[:k, :k] - gain @ cxy.T, b0], axis=1),
        np.concatenate([b0.T, np.diag(w[:d])], axis=1)])
    slack = MOMENT_TOL + 16 * np.finfo(float).eps * w.sum() * (gain * gain).sum()
    gain = _frozen(np.ldexp(gain, p[k:] - p[:k, None]))
    return p, gain, _frozen(eta_x - gain @ eta_y), w.size - d, remainder, float(slack)


def _psd(mat: np.ndarray, tol: float) -> bool:
    # eigvalsh may make up an answer for a matrix that is not finite
    return np.isfinite(mat).all() and np.linalg.eigvalsh(mat)[0] >= -tol


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """First/second moments of a pair, population convention.

    Validates non-empty blocks of consistent shapes, finite entries, and
    second_moment = trace(cov) + ||mean||^2 to MOMENT_TOL times
    max(1, |trace(cov) + ||mean||^2|).  In the scaled coordinates of
    ``schur_split`` c_x and c_y are symmetric to MOMENT_TOL, the remainder
    has no eigenvalue below -slack, so the joint covariance is PSD, and the
    gain and offset are finite.  The split is kept for ``linear.lmmse``.
    """

    eta_x: np.ndarray        # (k,)
    eta_y: np.ndarray        # (m,)
    c_x: np.ndarray          # (k, k)
    c_y: np.ndarray          # (m, m)
    c_xy: np.ndarray         # (k, m)
    second_moment_x: float
    second_moment_y: float

    def __post_init__(self):
        eta_x = np.atleast_1d(_as_array(self.eta_x, "eta_x"))
        eta_y = np.atleast_1d(_as_array(self.eta_y, "eta_y"))
        c_x = np.atleast_2d(_as_array(self.c_x, "c_x"))
        c_y = np.atleast_2d(_as_array(self.c_y, "c_y"))
        c_xy = np.atleast_2d(_as_array(self.c_xy, "c_xy"))
        sm_x = _as_array(self.second_moment_x, "second_moment_x")
        sm_y = _as_array(self.second_moment_y, "second_moment_y")
        k, m = eta_x.shape[0], eta_y.shape[0]
        if (min(k, m) == 0 or c_x.shape != (k, k) or c_y.shape != (m, m)
                or c_xy.shape != (k, m) or sm_x.ndim or sm_y.ndim):
            raise InvalidDistribution(
                "moment block shapes are empty or inconsistent")
        sm_x, sm_y = float(sm_x), float(sm_y)
        # an overflowed moment would turn the checks below into nan > tol
        if not np.isfinite(np.concatenate(
                [eta_x, eta_y, c_x.ravel(), c_y.ravel(), c_xy.ravel(),
                 [sm_x, sm_y]])).all():
            raise InvalidDistribution("moments contain non-finite values")
        # a scaled entry far outside what a covariance allows may overflow;
        # _psd then refuses it, and no nan passes a comparison
        with np.errstate(over="ignore", invalid="ignore"):
            split = schur_split(eta_x, eta_y, c_x, c_y, c_xy)
            p, _, offset, _, remainder, slack = split
            blocks = (("c_x", np.ldexp(c_x, p[:k, None] + p[:k])),
                      ("c_y", np.ldexp(c_y, p[k:, None] + p[k:])))
            for name, mat in blocks:
                if (np.abs(mat - mat.T) > MOMENT_TOL).any():
                    raise InvalidDistribution(f"{name} is not symmetric")
            # a PSD remainder implies PSD blocks: these pick the message
            if not _psd(remainder, slack):
                name = next((name for name, mat in blocks
                             if not _psd((mat + mat.T) / 2.0, MOMENT_TOL)),
                            "joint covariance")
                raise InvalidDistribution(f"{name} is not positive semidefinite")
        # an infinite gain entry times any finite eta_y is not finite
        if not np.isfinite(offset).all():
            raise InvalidDistribution("the LMMSE gain or offset overflows")
        for tr, eta, sm, name in (
            (np.trace(c_x), eta_x, sm_x, "x"),
            (np.trace(c_y), eta_y, sm_y, "y"),
        ):
            expect = float(tr + eta @ eta)
            if abs(expect - sm) > MOMENT_TOL * max(1.0, abs(expect)):
                raise InvalidDistribution(
                    f"second_moment_{name}={sm!r} violates trace identity "
                    f"(expected {expect!r})"
                )
        _freeze(self, eta_x=eta_x.copy(), eta_y=eta_y.copy(), c_x=c_x.copy(),
                c_y=c_y.copy(), c_xy=c_xy.copy())
        object.__setattr__(self, "second_moment_x", sm_x)
        object.__setattr__(self, "second_moment_y", sm_y)
        # a summary cannot change, so lmmse reads the split made here
        object.__setattr__(self, "_split", split)


def moments_exact(joint: FiniteJoint) -> MomentSummary:
    """Exact moments of a finite joint (weighted sums over atoms), with the
    second moments the joint keeps (``_second_moments``).  A
    SufficientJoint, which has no (X, Y) atoms, is refused."""
    joint = _atoms(joint, "moments_exact")
    xs = joint.x_support[joint.x_idx]
    ys = joint.y_support[joint.y_idx]
    w = joint.prob / joint.prob.sum()
    eta_x = w @ xs
    eta_y = w @ ys
    dx = xs - eta_x
    dy = ys - eta_y
    c_x = (dx * w[:, None]).T @ dx
    c_y = (dy * w[:, None]).T @ dy
    c_xy = (dx * w[:, None]).T @ dy
    sm_x, sm_y = _second_moments(joint)
    # symmetrize away the last-ulp asymmetry from the matrix products
    c_x = (c_x + c_x.T) / 2.0
    c_y = (c_y + c_y.T) / 2.0
    return MomentSummary(eta_x=eta_x, eta_y=eta_y, c_x=c_x, c_y=c_y, c_xy=c_xy,
                         second_moment_x=sm_x, second_moment_y=sm_y)


def floor_index(x, a: float) -> np.ndarray:
    """Lattice cell index floor(x / a), entrywise, as floats.

    An ulp-level snap treats ratios within a few machine epsilons of an
    integer as that integer, which makes floor_quantize idempotent and keeps
    exact lattice points fixed; without it, values like -1/(1/3) land just
    above -3 and would floor to the wrong cell.
    """
    return _snapped_floor(np.asarray(x, dtype=float), a)[0]


def _snapped_floor(x: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """``floor_index(x, a)`` and where its ratio snapped to an integer."""
    if not np.isfinite(a) or a <= 0.0:
        raise NonPositiveStep(f"step must be positive, got {a!r}")
    r = x / a
    nearest = np.rint(r)
    snap = np.abs(r - nearest) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(r))
    return np.where(snap, nearest, np.floor(r)), snap


def floor_quantize(x, a: float) -> np.ndarray:
    """Grid operator x -> floor(x / a) * a, entrywise (see floor_index).

    Lattice points are fixed exactly: a value whose ratio x / a snaps to an
    integer is a lattice point up to rounding and is its own image.  The
    product k * a need not give it back; 49 * (1/49) is 0.9999999999999999.
    """
    x = np.asarray(x, dtype=float)
    index, snapped = _snapped_floor(x, a)
    return np.where(snapped, x, index * a)


def _accumulate(x_support, y_support, xi, yi, weights) -> FiniteJoint:
    """Joint of (support row, support row, weight) triples.

    Weights of equal index pairs add in input order; pairs whose weights
    sum to zero carry no atom.  Nothing of size nx * ny is allocated.
    """
    ny = y_support.shape[0]
    flat, inverse = np.unique(xi * ny + yi, return_inverse=True)
    prob = np.bincount(inverse, weights=_as_array(weights, "atom masses"))
    nonzero = prob != 0.0
    if not nonzero.all():
        flat, prob = flat[nonzero], prob[nonzero]
    total = float(prob.sum())
    if not 0.0 < total < np.inf:
        raise InvalidDistribution(
            f"atom masses sum to {total!r}, not to a positive finite total")
    prob /= total
    return FiniteJoint(x_support, y_support, x_idx=flat // ny,
                       y_idx=flat % ny, prob=prob)


def joint_from_atoms(atoms: Sequence[tuple[tuple, tuple, float]]) -> FiniteJoint:
    """Build a FiniteJoint from (x_atom, y_atom, prob) triples.

    Atoms are tuples of floats.  Repeated (x, y) pairs merge and their
    masses add in input order (``np.bincount``), so the joint does not
    depend on how the caller batched its triples.  Supports come out in
    sorted order, so construction is order-independent.  The masses are
    divided by their total.
    """
    if not atoms:
        raise InvalidDistribution("joint_from_atoms needs at least one atom")
    xs, ys, probs = zip(*atoms)
    xs, ys = ([np.atleast_1d(a) for a in side] for side in (xs, ys))
    if len({x.shape for x in xs}) > 1 or len({y.shape for y in ys}) > 1:
        raise InvalidDistribution("x atoms, and y atoms, must each have one length")
    ux, xi = np.unique(_as_array(xs, "x atoms"), axis=0, return_inverse=True)
    uy, yi = np.unique(_as_array(ys, "y atoms"), axis=0, return_inverse=True)
    return _accumulate(ux, uy, xi.ravel(), yi.ravel(), probs)


def quantize_joint(joint: FiniteJoint, x_step: float, y_step: float) -> FiniteJoint:
    """Push a finite joint through floor quantization of both coordinates.

    Atoms that land in the same cell (of ``floor_index``) merge;
    probabilities add exactly.  The supports are merged first, and the
    quantized supports keep one letter for the cell of every support atom,
    zero-mass ones included.
    """
    joint = _atoms(joint, "quantize_joint")
    ux, xi = _quantize_support(joint.x_support, x_step)
    uy, yi = _quantize_support(joint.y_support, y_step)
    return _accumulate(ux, uy, xi[joint.x_idx], yi[joint.y_idx], joint.prob)


def _quantize_support(support: np.ndarray, step: float):
    """The sorted quantized letters of the support rows, and the letter of
    each row.

    Each coordinate quantizes on its own: the values of one coordinate
    that share a cell of ``floor_index`` share one image, ``floor_quantize``
    of the lowest of them.  That is the lowest lattice point among them if
    one snapped, else k * step, so values in one cell merge even where one
    of them is a lattice point that the product k * step does not give back.
    """
    index = floor_index(support, step)
    image = np.empty_like(support)
    for c in range(support.shape[1]):
        cells, cell = np.unique(index[:, c], return_inverse=True)
        lowest = np.full(cells.shape, np.inf)
        np.minimum.at(lowest, cell, support[:, c])
        image[:, c] = floor_quantize(lowest, step)[cell]
    letters, letter = np.unique(image, axis=0, return_inverse=True)
    return letters, letter.ravel()
