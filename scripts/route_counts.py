#!/usr/bin/env python3
"""Count which route of the garbling decision settles each pair.

``mmse_lab.degradedness.is_degraded`` settles a pair by its candidate
W1^+ W2, by that candidate's rows projected onto the simplex, by one of the
closed-form witnesses (a), (b) and (c), or by the epigraph LP (see the
module docstring).  This script wraps the decision's private steps from
outside the package, as ``perfbench/tracing.py`` wraps its public calls,
runs each named input and prints one markdown row of the route table per
input:

    python scripts/route_counts.py garbling_lp --seeds 0 1 --passes 100
    python scripts/route_counts.py small_joints selftest sweep --seeds 0
    python scripts/route_counts.py catalog --n-stop 1024
    python scripts/route_counts.py tests

``garbling_lp`` decides the pairs of that benchmark workload, passes 0 to
``--passes`` - 1 of each seed, and ``small_joints`` the pairs of its joints
that carry one; both check each answer against its construction.
``selftest`` runs ``mmse-lab selftest`` for each seed, ``sweep`` runs
``scripts/garbling_sweep.py``, ``catalog`` runs the whole catalog, and
``tests`` runs the tier-1 suite in this process (where some tests force a
route by monkeypatching, and "no certificate" counts the decisions that
raised or whose step a test stubbed away).  The last two columns count the decisions that
formed witness (a) and the "no"s that (a) settled on a W1 of full row rank.
The exit status is 1 when a checked answer is wrong, a decision fits no
route or the chosen input fails, 0 otherwise.
"""

import argparse
import collections
import contextlib
import functools
import importlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

from mmse_lab import degradedness

ROOT = Path(__file__).resolve().parent.parent
ROUTES = ('candidate "yes"', 'simplex fallback "yes"', 'witness (a) "no"',
          'witness (b) "no"', 'witness (c) "no"', 'LP "yes"', 'LP "no"',
          "no certificate")
COLUMNS = ("decisions",) + ROUTES + ("(a) formed",
                                     '(a) "no" at full row rank')


class Decision:
    """What the private steps of one ``is_degraded`` call did."""

    def __init__(self):
        self.full_row_rank = None
        self.projections = 0
        self.expected_a = None        # W2 - W1 G0 normalized, as (a) forms it
        self.formed_a = False
        self.in_witness = False
        self.witness_steps = False
        self.tagged = []              # (test matrix, witness) per bound
        self.lp = False

    def route(self, cert) -> str:
        if not isinstance(cert, degradedness.GarblingCertificate):
            return "no certificate"  # a test stubbed a step away
        if self.lp:
            return 'LP "yes"' if cert.feasible else 'LP "no"'
        if cert.feasible:
            return ('simplex fallback "yes"' if self.projections
                    else 'candidate "yes"')
        for lam, witness in self.tagged:
            if lam is cert.test_matrix:
                return f'witness ({witness}) "no"'
        return "unclassified"


class RouteCounter:
    """Wraps ``is_degraded`` and its private steps; counts routes."""

    def __init__(self):
        self.counts = collections.Counter()
        self.current = None
        self._restore = []

    def _swap(self, owner, name, wrapper):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        original = degradedness.is_degraded
        wrapped = self._wrap_decision(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "mmse_lab" or mod_name.startswith("mmse_lab."):
                for name, obj in list(vars(module).items()):
                    if obj is original:
                        self._swap(module, name, wrapped)
        for name in ("_pseudo_inverse", "_simplex_rows", "_closed_form_witness",
                     "_blackwell_bound", "_epigraph"):
            step = getattr(degradedness, name)
            self._swap(degradedness, name, getattr(self, name)(step))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap_decision(self, fn):
        @functools.wraps(fn)
        def is_degraded(*args, **kwargs):
            outer, self.current = self.current, Decision()
            try:
                cert = fn(*args, **kwargs)
            except Exception:
                self.counts["no certificate"] += 1
                raise
            else:
                decision = self.current
                route = decision.route(cert)
                self.counts[route] += 1
                if decision.formed_a:
                    self.counts["(a) formed"] += 1
                    if decision.full_row_rank and route == 'witness (a) "no"':
                        self.counts['(a) "no" at full row rank'] += 1
                return cert
            finally:
                self.counts["decisions"] += 1
                self.current = outer

        return is_degraded

    # each step wrapper records into the current decision, if any: tests
    # also call the steps on their own

    def _pseudo_inverse(self, fn):
        def step(m1):
            pinv, rank = fn(m1)
            if self.current is not None:
                self.current.full_row_rank = rank == m1.shape[0]
            return pinv, rank
        return step

    def _simplex_rows(self, fn):
        def step(g):
            decision = self.current
            if decision is not None:
                if decision.in_witness:
                    decision.witness_steps = True
                else:
                    decision.projections += 1
            return fn(g)
        return step

    def _closed_form_witness(self, fn):
        def step(m1, m2, g0, *args):
            decision = self.current
            if decision is None:
                return fn(m1, m2, g0, *args)
            decision.in_witness = True
            resid = m2 - m1 @ g0
            mass = float(np.abs(resid).sum())
            decision.expected_a = resid / mass if mass > 0.0 else None
            try:
                return fn(m1, m2, g0, *args)
            finally:
                decision.in_witness = False
        return step

    def _blackwell_bound(self, fn):
        def step(lam, m1, m2):
            decision = self.current
            if decision is not None and decision.in_witness:
                if decision.witness_steps:
                    witness = "c"
                elif (decision.expected_a is not None
                      and np.array_equal(lam, decision.expected_a)):
                    witness = "a"
                    decision.formed_a = True
                else:
                    witness = "b"
                decision.tagged.append((lam, witness))
            return fn(lam, m1, m2)
        return step

    def _epigraph(self, fn):
        def step(m1, m2):
            if self.current is not None:
                self.current.lp = True
            return fn(m1, m2)
        return step


def _workloads():
    """perfbench's in-process workloads module."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def run_garbling_lp(args) -> list[str]:
    problems = []
    for seed in args.seeds:
        make_pass, check = _workloads().workload("garbling_lp", seed, tiny=False)
        for i in range(args.passes):
            problems += filter(None, map(check, make_pass(i)))
    return problems


def run_small_joints(args) -> list[str]:
    workloads = _workloads()
    problems = []
    for seed in args.seeds:
        make_pass, _ = workloads.workload("small_joints", seed, tiny=False)
        problems += filter(None, (workloads.check_lp(case.lp)
                                  for case in make_pass(0)
                                  if case.lp is not None))
    return problems


def run_selftest(args) -> list[str]:
    from mmse_lab.selftest import run_selftest as selftest

    return [f"selftest --seed {seed} failed" for seed in args.seeds
            if not selftest(seed=seed)[0]]


def run_sweep(args) -> list[str]:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "scripts" / "garbling_sweep.py"),
                       run_name="garbling_sweep")["main"]([])
    return []


def run_catalog(args) -> list[str]:
    from mmse_lab import builtin_scenarios
    from mmse_lab.cli import EXIT_OK, main

    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenarios", *builtin_scenarios(),
                     "--n-stop", str(args.n_stop), "--format", "json",
                     "--out", out])
    return [] if code == EXIT_OK else [f"catalog run exited {code}"]


def run_tests(args) -> list[str]:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    return [] if code == 0 else [f"tier-1 tests exited {int(code)}"]


INPUTS = {"garbling_lp": run_garbling_lp, "small_joints": run_small_joints,
          "selftest": run_selftest, "sweep": run_sweep,
          "catalog": run_catalog, "tests": run_tests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", choices=sorted(INPUTS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--passes", type=int, default=100,
                        help="garbling_lp passes per seed (default 100)")
    parser.add_argument("--n-stop", type=int, default=1024,
                        help="catalog grid end (default 1024)")
    args = parser.parse_args(argv)

    print("| input | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    failed = False
    for name in args.inputs:
        counter = RouteCounter()
        counter.install()
        try:
            problems = INPUTS[name](args)
        finally:
            counter.uninstall()
        counts = counter.counts
        unclassified = counts.pop("unclassified", 0)
        print(f"| {name} | " + " | ".join(str(counts[c]) for c in COLUMNS) + " |")
        for problem in problems[:5]:
            print(f"{name}: {problem}", file=sys.stderr)
        if unclassified:
            print(f"{name}: {unclassified} decision(s) fit no route",
                  file=sys.stderr)
        failed = failed or bool(problems) or bool(unclassified)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
