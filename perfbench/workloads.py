"""In-process workloads: seeded inputs, one op per case, correctness gates.

``garbling_lp`` decides degradedness on random channel pairs whose answer
is known by construction; ``small_joints`` pushes many small random joints
through every exact engine.  Both run in a closed loop: one caller, and the
next op starts only after the previous one returned.  A pass is a fixed
list of cases; passes repeat until the time is up.

The gates recompute what they check from the benchmark's own arithmetic,
never from a value the library reports about itself.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Layer functions are looked up on the package at call time, so that a
# traced run sees the wrappers tracing.Tracer swaps in.
import mmse_lab as lab
from stats import median
from tracing import LP_ALPHABETS

TINY_LP_ALPHABETS = (4, 8)
GARBLING_TOL = 1e-7      # max |W1 G - W2| of a feasible answer
ROW_TOL = 1e-9           # row sums of a returned garbling matrix
LMMSE_SLACK = 1e-8       # LMMSE may not fall further below the MMSE
ORDER_TOL = 1e-10        # Blackwell: garbling may not lower the MMSE
Z_LIMIT = 5.0            # Monte Carlo vs exact
SMALL_JOINTS = 1000
TINY_SMALL_JOINTS = 40
MC_SAMPLES = 3000
LATTICE = np.linspace(-2.0, 2.0, 81)
OUT_LATTICE = np.linspace(-3.0, 3.0, 121)


def _stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    mat = rng.exponential(1.0, (rows, cols))
    return mat / mat.sum(axis=1, keepdims=True)


def garbling_pair(rng: np.random.Generator, k: int):
    """(W1, W2) with W2 = W1 G for a random dense row-stochastic G.

    W1 and G are square and full rank, so W1 is not a garbling of W2
    unless G is a permutation: the reversed pair is infeasible.
    """
    w1 = _stochastic(rng, k, k)
    w2 = w1 @ _stochastic(rng, k, k)
    return w1, w2 / w2.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class LpCase:
    w1: np.ndarray
    w2: np.ndarray
    feasible: bool


def lp_cases(rng: np.random.Generator, k: int) -> list[LpCase]:
    w1, w2 = garbling_pair(rng, k)
    return [LpCase(w1, w2, True), LpCase(w2, w1, False)]


def check_lp(case: LpCase) -> str | None:
    """Decide one pair and check the answer against its construction."""
    support = np.arange(case.w1.shape[0], dtype=float)
    c1 = lab.Channel(support, np.arange(case.w1.shape[1], dtype=float), case.w1)
    c2 = lab.Channel(support, np.arange(case.w2.shape[1], dtype=float), case.w2)
    cert = lab.is_degraded(c1, c2)
    if cert.feasible != case.feasible:
        return f"k={case.w1.shape[0]}: verdict {cert.feasible}, built {case.feasible}"
    if cert.feasible:
        g = np.asarray(cert.garbling_matrix, dtype=float)
        residual = float(np.max(np.abs(case.w1 @ g - case.w2)))
        if not residual < GARBLING_TOL:
            return f"k={case.w1.shape[0]}: residual {residual!r}"
        if np.min(g) < 0.0 or np.max(np.abs(g.sum(axis=1) - 1.0)) > ROW_TOL:
            return f"k={case.w1.shape[0]}: garbling matrix not row-stochastic"
    return None


@dataclass(frozen=True)
class JointCase:
    x_support: np.ndarray
    y_support: np.ndarray
    pmf: np.ndarray
    out_support: np.ndarray
    channel: np.ndarray
    mc_seed: int
    lp: LpCase | None


def joint_case(rng: np.random.Generator, index: int) -> JointCase:
    nx, ny, n_out = (int(v) for v in rng.integers(2, 13, size=3))
    pmf = rng.exponential(1.0, (nx, ny))
    lp = None
    if index % 4 == 0:
        lp = lp_cases(rng, int(rng.integers(2, 5)))[index // 4 % 2]
    return JointCase(
        x_support=np.sort(rng.choice(LATTICE, nx, replace=False))[:, None],
        y_support=np.sort(rng.choice(LATTICE, ny, replace=False))[:, None],
        pmf=pmf / pmf.sum(),
        out_support=np.sort(rng.choice(OUT_LATTICE, n_out, replace=False))[:, None],
        channel=_stochastic(rng, ny, n_out),
        mc_seed=int(rng.integers(0, 2 ** 63)),
        lp=lp,
    )


def check_joint(case: JointCase) -> str | None:
    """Every exact engine on one joint, each answer checked."""
    joint = lab.FiniteJoint(case.x_support, case.y_support, case.pmf)
    mmse = lab.mmse_exact(joint).mmse
    linear = lab.lmmse(lab.moments_exact(joint)).value
    if linear < mmse - LMMSE_SLACK:
        return f"lmmse {linear!r} below mmse {mmse!r}"
    channel = lab.Channel(case.y_support, case.out_support, case.channel)
    garbled = lab.compose(joint, channel)
    if np.max(np.abs(garbled.pmf.sum(axis=1) - case.pmf.sum(axis=1))) > 1e-12:
        return "compose changed the prior"
    before, after, ordered = lab.blackwell_verify(joint, channel)
    if not ordered or after < before - ORDER_TOL or before != mmse:
        return f"blackwell order: before {before!r} after {after!r}"
    _, _, z = lab.mc_mmse_vs_exact(
        joint, lab.RegressionConfig(n_samples=MC_SAMPLES, seed=case.mc_seed))
    if not abs(z) <= Z_LIMIT:
        return f"monte carlo z = {z!r}"
    if case.lp is not None:
        return check_lp(case.lp)
    return None


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)
    pass_ops: list[int] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Ops per second of the median pass."""
        return median(n / w for n, w in zip(self.pass_ops, self.pass_walls))


def run_pass(cases, check, result: LoopResult) -> None:
    """One pass over ``cases``; an op fails when ``check`` returns a
    message or raises."""
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        try:
            problem = check(case)
        except Exception:
            problem = traceback.format_exc(limit=3)
        result.latencies.append(time.perf_counter() - t0)
        if problem is not None:
            result.failed += 1
            if len(result.problems) < 5:
                result.problems.append(problem)
    result.pass_walls.append(time.perf_counter() - start)
    result.pass_ops.append(len(cases))


def closed_loop(make_pass, check, seconds: float, tracer=None):
    """Run whole passes until ``seconds`` have gone by: (untraced, traced).

    ``make_pass(i)`` gives the cases of pass i; building them is not timed.
    With a tracer, passes alternate between untraced and traced on the
    same cases, so that both halves see the same inputs and the same
    machine; without one, the traced result is None.
    """
    plain = LoopResult()
    traced = LoopResult() if tracer is not None else None
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (1 if tracer is None else 2) or time.perf_counter() < deadline:
        if tracer is None:
            run_pass(make_pass(index), check, plain)
        elif index % 2 == 0:
            run_pass(make_pass(index // 2), check, plain)
        else:
            cases = make_pass(index // 2)
            tracer.install()
            try:
                run_pass(cases, check, traced)
            finally:
                tracer.uninstall()
        index += 1
    return plain, traced


def workload(name: str, seed: int, tiny: bool):
    """(make_pass, check) for a named in-process workload."""
    if name == "garbling_lp":
        alphabets = TINY_LP_ALPHABETS if tiny else LP_ALPHABETS

        def make_pass(i):
            rng = np.random.default_rng([seed, 1, i])
            return [case for k in alphabets for case in lp_cases(rng, k)]

        return make_pass, check_lp
    if name == "small_joints":
        rng = np.random.default_rng([seed, 2])
        cases = [joint_case(rng, i)
                 for i in range(TINY_SMALL_JOINTS if tiny else SMALL_JOINTS)]
        return (lambda i: cases), check_joint
    raise ValueError(f"unknown in-process workload {name!r}")
