"""Randomized property suites, re-runnable from the CLI.

Each suite draws its own deterministic stream from the given seed, so the
whole report is reproducible byte-for-byte.  That a suite can fail at all
is shown in the tests, not here: shifting every conditional mean by a
constant must break the orthogonality suite.
"""

from __future__ import annotations

import numpy as np

from .degradedness import Channel, blackwell_verify, is_degraded
from .exact import mmse_exact, orthogonality_check
from .linear import lmmse
from .mc import RegressionConfig, mc_mmse_vs_exact
from .probcore import (
    FiniteJoint,
    floor_quantize,
    moments_exact,
    rng_stream,
)

ORTHOGONALITY_TOL = 1e-10
FORM_TOL = 1e-10


def random_joint(rng: np.random.Generator, max_x: int = 8,
                 max_y: int = 8) -> FiniteJoint:
    """Random scalar-pair joint on 2..max_x by 2..max_y lattice-valued atoms."""
    nx = int(rng.integers(2, max_x + 1))
    ny = int(rng.integers(2, max_y + 1))
    grid = np.linspace(-2.0, 2.0, 81)
    xs = np.sort(rng.choice(grid, size=nx, replace=False))[:, None]
    ys = np.sort(rng.choice(grid, size=ny, replace=False))[:, None]
    pmf = rng.exponential(1.0, (nx, ny))
    pmf /= pmf.sum()
    return FiniteJoint(x_support=xs, y_support=ys, pmf=pmf)


def random_channel(rng: np.random.Generator, input_support: np.ndarray,
                   n_out: int | None = None) -> Channel:
    """Random row-stochastic channel from a given input alphabet."""
    n_in = input_support.shape[0]
    if n_out is None:
        n_out = int(rng.integers(2, n_in + 2))
    grid = np.linspace(-3.0, 3.0, 121)
    outs = np.sort(rng.choice(grid, size=n_out, replace=False))[:, None]
    mat = rng.exponential(1.0, (n_in, n_out))
    mat /= mat.sum(axis=1, keepdims=True)
    return Channel(input_support=input_support, output_support=outs, matrix=mat)


def _suite_mmse_forms(seed: int, trials: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "forms")
    worst = 0.0
    for _ in range(trials):
        joint = random_joint(rng, max_x=12, max_y=12)
        res = mmse_exact(joint)
        gap = abs(res.mmse - (res.second_moment_x - res.estimator_second_moment))
        worst = max(worst, gap)
    ok = worst <= FORM_TOL
    return ok, f"mmse residual vs second-moment form, worst gap {worst:.3e}"


def _suite_orthogonality(seed: int, trials: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "orthogonality")
    fns = [lambda y: np.ones(1), lambda y: y, lambda y: y * y]
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, orthogonality_check(random_joint(rng), fns))
    ok = worst <= ORTHOGONALITY_TOL
    return ok, f"residual-vs-measurement correlation, worst {worst:.3e}"


def _suite_lmmse_dominates(seed: int, trials: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "lmmse-dominates")
    worst = -np.inf
    for _ in range(trials):
        joint = random_joint(rng)
        gap = mmse_exact(joint).mmse - lmmse(moments_exact(joint)).value
        worst = max(worst, gap)
    ok = worst <= 1e-8
    return ok, f"mmse minus lmmse, worst excess {worst:.3e}"


def _suite_blackwell(seed: int, trials: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "blackwell")
    all_ordered = True
    worst = 0.0
    for _ in range(trials):
        joint = random_joint(rng)
        channel = random_channel(rng, joint.y_support)
        before, after, ordered = blackwell_verify(joint, channel)
        all_ordered = all_ordered and ordered
        worst = max(worst, before - after)
    return all_ordered, f"garbling never reduced mmse, worst drop {worst:.3e}"


def _suite_garbling_transitivity(seed: int, trials: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "transitivity")
    ok = True
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        support = np.linspace(-1.0, 1.0, n)[:, None]
        w1 = random_channel(rng, support, n_out=n)
        g1 = rng.exponential(1.0, (n, n))
        g1 /= g1.sum(axis=1, keepdims=True)
        g2 = rng.exponential(1.0, (n, n))
        g2 /= g2.sum(axis=1, keepdims=True)
        w2 = Channel(input_support=support, output_support=w1.output_support,
                     matrix=w1.matrix @ g1)
        w3 = Channel(input_support=support, output_support=w1.output_support,
                     matrix=w2.matrix @ g2)
        ok = ok and is_degraded(w1, w2).feasible
        ok = ok and is_degraded(w2, w3).feasible
        ok = ok and is_degraded(w1, w3).feasible
    return ok, "degradedness closed under cascading on random triples"


def _suite_quantize_idempotent(seed: int, trials: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "quantize")
    values = rng.uniform(-100.0, 100.0, trials)
    steps = rng.uniform(1e-3, 10.0, trials)
    ok = True
    for x, a in zip(values, steps):
        q = floor_quantize(x, a)
        ok = ok and bool(floor_quantize(q, a) == q)
        ok = ok and bool(-a < q - x <= 4e-16 * max(1.0, abs(x)))
    return ok, "floor quantization idempotent with in-cell output"


def _suite_mc_agreement(seed: int) -> tuple[bool, str]:
    rng = rng_stream(seed, "mc")
    joint = random_joint(rng, max_x=4, max_y=4)
    config = RegressionConfig(n_samples=40_000, seed=int(rng.integers(2 ** 32)))
    est1, exact, z1 = mc_mmse_vs_exact(joint, config)
    est2, _, z2 = mc_mmse_vs_exact(joint, config)
    ok = est1.value == est2.value and abs(z1) <= 5.0
    return ok, f"regressogram reproducible and within 5 sigma (z = {z1:.2f})"


def run_selftest(seed: int) -> tuple[bool, list[str]]:
    """Run all property suites; returns (all_passed, report_lines)."""
    suites = [
        ("mmse_forms", lambda: _suite_mmse_forms(seed, 200)),
        ("orthogonality", lambda: _suite_orthogonality(seed, 50)),
        ("lmmse_dominates_mmse", lambda: _suite_lmmse_dominates(seed, 100)),
        ("blackwell_ordering", lambda: _suite_blackwell(seed, 100)),
        ("garbling_transitivity", lambda: _suite_garbling_transitivity(seed, 20)),
        ("floor_quantize", lambda: _suite_quantize_idempotent(seed, 1000)),
        ("mc_regressogram", lambda: _suite_mc_agreement(seed)),
    ]
    lines = []
    all_ok = True
    for name, suite in suites:
        ok, detail = suite()
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok, lines
