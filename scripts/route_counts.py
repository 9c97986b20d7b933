#!/usr/bin/env python3
"""Count which route of the garbling decision settles each pair.

``mmse_lab.degradedness.is_degraded`` names the step that settled a pair
in ``GarblingCertificate.route``: its candidate W1^+ W2, the alternating
projections that start from it, one of the closed-form witnesses (b) and
(a), or the epigraph LP (see the module docstring).  This script wraps
``is_degraded`` in each ``mmse_lab`` module that imported it, runs each
named input and prints one markdown row of the route table per input:

    python scripts/route_counts.py garbling_lp --seeds 0 1 --passes 100
    python scripts/route_counts.py small_joints selftest sweep --seeds 0
    python scripts/route_counts.py catalog --n-stop 1024
    python scripts/route_counts.py tests

``garbling_lp`` decides the pairs of that benchmark workload, passes 0 to
``--passes`` - 1 of each seed, and ``small_joints`` the pairs of its joints
that carry one; both check each answer against its construction.
``selftest`` runs ``mmse-lab selftest`` for each seed, ``sweep`` runs
``scripts/garbling_sweep.py``, ``catalog`` runs the whole catalog, and
``tests`` runs ``tests/`` in this process (where some tests force a route
by monkeypatching, and "no certificate" counts the decisions that raised
or returned something else).  The exit status is 1 when a checked
answer is wrong, a certificate names no known route or the chosen input
fails, 0 otherwise.
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

from mmse_lab import degradedness

ROOT = Path(__file__).resolve().parent.parent
# the column of each (GarblingCertificate.route, feasible); each label names
# its answer, so a route that gives the other one fits no column and exits 1
ROUTES = {("candidate", True): 'candidate "yes"',
          ("projection", True): 'projection "yes"',
          ("witness_a", False): 'witness (a) "no"',
          ("witness_b", False): 'witness (b) "no"',
          ("lp", True): 'LP "yes"', ("lp", False): 'LP "no"'}
COLUMNS = ("decisions", *ROUTES.values(), "no certificate")


class RouteCounter:
    """Wraps ``is_degraded`` where ``mmse_lab`` imported it; counts routes."""

    def __init__(self):
        self.counts = collections.Counter()
        self._restore = []

    def install(self) -> None:
        original = degradedness.is_degraded

        @functools.wraps(original)
        def is_degraded(*args, **kwargs):
            self.counts["decisions"] += 1
            try:
                cert = original(*args, **kwargs)
            except Exception:
                self.counts["no certificate"] += 1
                raise
            if isinstance(cert, degradedness.GarblingCertificate):
                self.counts[ROUTES.get((cert.route, cert.feasible),
                                       "unclassified")] += 1
            else:
                self.counts["no certificate"] += 1  # a test stubbed a step
            return cert

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "mmse_lab" or mod_name.startswith("mmse_lab."):
                for name, obj in list(vars(module).items()):
                    if obj is original:
                        self._restore.append((module, name, obj))
                        setattr(module, name, is_degraded)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()


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
