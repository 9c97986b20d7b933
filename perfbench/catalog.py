"""The ``catalog_deep`` workload: whole-catalog `mmse-lab run` reports.

A report row is one op.  The exact-path fields of every JSON report must
match the reference written by ``make_reference.py`` to REL_TOL; the Monte
Carlo rows (``diagnostics.mc_rows``) depend on the seed and are checked
through the verdict only.  Pure Python, so run.py need not import
numpy.
"""

from __future__ import annotations

import json
import os

SCENARIOS = ("example1", "example2", "example3", "example4", "cor1_additive",
             "cor1_additive_fast_x", "cor1_additive_fast_y",
             "cor2_quantization", "markov_degraded_family", "lmmse_mixture")
N_STOP = 1024
TINY_N_STOP = 64
REL_TOL = 1e-12
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "catalog_deep.json")


def run_args(n_stop: int, seed: int, out_dir: str) -> list[str]:
    """`mmse-lab run` arguments: all scenarios, JSON, otherwise defaults."""
    return ["run", "--scenarios", *SCENARIOS, "--n-stop", str(n_stop),
            "--format", "json", "--seed", str(seed), "--out", out_dir]


def exact_fields(report: dict) -> dict:
    """The seed-independent part of one JSON report."""
    diagnostics = {k: v for k, v in report["diagnostics"].items()
                   if k != "mc_rows"}
    return {**report, "diagnostics": diagnostics}


def read_reports(out_dir: str) -> dict[str, dict]:
    """Parsed reports by scenario; a missing or unreadable one is left out
    and so fails every row it should hold."""
    reports = {}
    for name in SCENARIOS:
        try:
            with open(os.path.join(out_dir, f"{name}.json")) as fh:
                reports[name] = json.load(fh)
        except (OSError, ValueError):
            continue
    return reports


def load_reference(n_stop: int) -> dict[str, dict]:
    with open(REFERENCE) as fh:
        return json.load(fh)[str(n_stop)]


def _same(got, want) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want and type(got) is type(want)
    if isinstance(want, (int, float)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= REL_TOL * max(1.0, abs(want)))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return (isinstance(got, dict) and got.keys() == want.keys()
            and all(_same(got[k], want[k]) for k in want))


def check_reports(reports: dict[str, dict], reference: dict[str, dict],
                  exit_code: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the reference's report rows.

    A row fails when its own fields deviate, and every row of a scenario
    fails when its report is missing, its verdict does not match or any
    scenario-level field deviates.  A non-zero exit code fails every row.
    """
    attempted = failed = 0
    problems = []
    for name, want in reference.items():
        rows = want["rows"]
        attempted += len(rows)
        got = reports.get(name)
        if exit_code != 0 or got is None:
            failed += len(rows)
            problems.append(f"{name}: exit code {exit_code}, report "
                            f"{'present' if got else 'missing'}")
            continue
        got = exact_fields(got) if isinstance(got.get("diagnostics"), dict) else {}
        scenario_ok = (
            got.get("verdict", {}).get("matches") is True
            and len(got.get("rows", ())) == len(rows)
            and all(_same(got.get(k), want[k]) for k in want if k != "rows"))
        if not scenario_ok:
            failed += len(rows)
            problems.append(f"{name}: verdict or scenario fields deviate")
            continue
        for got_row, row in zip(got["rows"], rows):
            if not _same(got_row, row):
                failed += 1
                problems.append(f"{name}: row n={row['n']} deviates")
    return attempted, failed, problems
