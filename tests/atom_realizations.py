"""The (X_n, Y_n) atom form of the lattice realizations.

The catalog realizes ``example2`` and the three ``cor1_*`` paths as a
``SufficientJoint``: the joint of X_n and a statistic T(Y_n), plus
P(Y_n | T).  The builders below emit every (X_n, Y_n) atom instead, in
row-major order, as ``FiniteJoint``s.  They are the reference that the
reduced realizations are checked against, and they give the tests that need
P(Y_n | X_n) itself (the garbling decisions) a joint to read it from.

``cor1_sufficient`` keeps the ``cor1_*`` core builder as it was written
when the reduction landed, filling preallocated arrays through reshaped
views.  It is the reference that the catalog's builder must match bit for
bit.
"""

from __future__ import annotations

import numpy as np

from mmse_lab.probcore import FiniteJoint, SufficientJoint
from mmse_lab.scenarios import (
    EXAMPLE2_CELLS_PER_INDEX,
    _lattice_joint,
    example3_limit_joint,
    uniform_lattice_cells,
)

# gamma(n), lambda(n) of each additive path; ``1 / n`` stays exact when n is
# a Fraction and gives the float 1.0 / n when n is an int
COR1_PATHS = {
    "cor1_additive": (lambda n: 1 / n, lambda n: 1 / n),
    "cor1_additive_fast_x": (lambda n: 1 / (n * n), lambda n: 1 / n),
    "cor1_additive_fast_y": (lambda n: 1 / n, lambda n: 1 / (n * n)),
}


def example2_atoms(n: int) -> FiniteJoint:
    """Every (x cell, y cell) atom of example2 at index n.

    Atoms run over (j, b) with b fastest; the y key b * 64 + j // n sorts
    like the pair (b, j // n), and all 128 y keys occur, so each y key is
    its own support index.
    """
    cells = EXAMPLE2_CELLS_PER_INDEX * n
    h = 1.0 / cells
    j = np.arange(cells)
    q = j // n
    y_keys = np.arange(2 * EXAMPLE2_CELLS_PER_INDEX)
    return _lattice_joint(
        j * h,
        y_keys // EXAMPLE2_CELLS_PER_INDEX + y_keys % EXAMPLE2_CELLS_PER_INDEX * h,
        np.repeat(j, 2), np.stack([q, q + EXAMPLE2_CELLS_PER_INDEX], axis=1).ravel(),
        np.full(2 * cells, 0.5 / cells))


def cor1_atoms(gamma: float, lam: float) -> FiniteJoint:
    """Every (x cell, y cell) atom of the additive perturbation of the
    example3 limit pair by uniform noises of widths gamma and lam.

    Base atom (x0, y0) spreads over a run of x cells times a run of y cells.
    The base support atoms are 2 apart and gamma, lam < 2, so the runs of
    distinct support atoms are disjoint and ordered, and each support is
    their concatenation.  Every x row of base row i repeats one run of y
    ranks: the y runs of its base atoms, in order.
    """
    base = example3_limit_joint()
    h = min(gamma, lam) / 8.0
    x_runs = [uniform_lattice_cells(x0 - gamma / 2.0, x0 + gamma / 2.0, h)
              for x0 in base.x_support[:, 0]]
    y_runs = [uniform_lattice_cells(y0 - lam / 2.0, y0 + lam / 2.0, h)
              for y0 in base.y_support[:, 0]]
    x_first = np.cumsum([0] + [cells.size for cells, _ in x_runs])
    y_first = np.cumsum([0] + [cells.size for cells, _ in y_runs])
    nnz = sum(x_runs[i][0].size * y_runs[j][0].size
              for i, j in zip(base.x_idx, base.y_idx))
    x_idx = np.empty(nnz, dtype=np.intp)
    y_idx = np.empty(nnz, dtype=np.intp)
    weights = np.empty(nnz)
    end = 0
    for i, (cells, px) in enumerate(x_runs):
        atoms = np.flatnonzero(base.x_idx == i)
        ranks = np.concatenate([np.arange(y_first[j], y_first[j + 1])
                                for j in base.y_idx[atoms]])
        start, end = end, end + cells.size * ranks.size
        shape = (cells.size, ranks.size)
        x_idx[start:end].reshape(shape)[:] = \
            np.arange(x_first[i], x_first[i + 1])[:, None]
        y_idx[start:end].reshape(shape)[:] = ranks
        rows = weights[start:end].reshape(shape)
        col = 0
        for a in atoms:
            py = y_runs[base.y_idx[a]][1]
            np.multiply(base.prob[a] * px[:, None], py,
                        out=rows[:, col:col + py.size])
            col += py.size
    return _lattice_joint(
        np.concatenate([cells for cells, _ in x_runs]) * h,
        np.concatenate([cells for cells, _ in y_runs]) * h,
        x_idx, y_idx, weights)


def cor1_sufficient(gamma: float, lam: float) -> SufficientJoint:
    """The (X_n, T) core and P(Y_n | T) of ``cor1_atoms(gamma, lam)``, where
    T(Y_n) is the base y atom whose noise run holds Y_n.

    The core lists each x row of base row i times the letters of its base
    atoms, in row-major order, written through (cells, atoms) views of
    preallocated arrays.
    """
    base = example3_limit_joint()
    h = min(gamma, lam) / 8.0
    x_runs = [uniform_lattice_cells(x0 - gamma / 2.0, x0 + gamma / 2.0, h)
              for x0 in base.x_support[:, 0]]
    y_runs = [uniform_lattice_cells(y0 - lam / 2.0, y0 + lam / 2.0, h)
              for y0 in base.y_support[:, 0]]
    x_first = np.cumsum([0] + [cells.size for cells, _ in x_runs])
    nnz = int(np.diff(x_first)
              @ np.bincount(base.x_idx, minlength=len(x_runs)))
    x_idx = np.empty(nnz, dtype=np.intp)
    t_idx = np.empty(nnz, dtype=np.intp)
    weights = np.empty(nnz)
    end = 0
    for i, (cells, px) in enumerate(x_runs):
        atoms = np.flatnonzero(base.x_idx == i)
        start, end = end, end + cells.size * atoms.size
        shape = (cells.size, atoms.size)
        x_idx[start:end].reshape(shape)[:] = \
            np.arange(x_first[i], x_first[i + 1])[:, None]
        t_idx[start:end].reshape(shape)[:] = base.y_idx[atoms]
        np.multiply(base.prob[atoms], px[:, None],
                    out=weights[start:end].reshape(shape))
    core = _lattice_joint(
        np.concatenate([cells for cells, _ in x_runs]) * h,
        base.y_support, x_idx, t_idx, weights)
    return SufficientJoint(
        core, np.concatenate([cells for cells, _ in y_runs]) * h,
        np.repeat(np.arange(len(y_runs)),
                  [cells.size for cells, _ in y_runs]),
        np.concatenate([py / py.sum() for _, py in y_runs]))


def atom_realization(name: str, n: int) -> FiniteJoint:
    """The atom form of ``builtin_scenarios()[name].realize(n)``."""
    if name == "example2":
        return example2_atoms(n)
    gamma, lam = COR1_PATHS[name]
    return cor1_atoms(gamma(n), lam(n))
