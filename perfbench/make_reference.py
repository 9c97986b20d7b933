"""Write the catalog_deep reference: the exact-path fields of every report.

    python3 perfbench/make_reference.py

Run from the root of a checkout at the commit whose values the benchmark
should hold later commits to.  The fields must not depend on the seed, so
each grid is run with two seeds and the script refuses to write a
reference if the exact parts differ.
"""

import json
import os
import subprocess
import sys
import tempfile

from catalog import N_STOP, REFERENCE, TINY_N_STOP, exact_fields, \
    read_reports, run_args, SCENARIOS
from run import child_env, spawn


def exact_reports(env, n_stop: int, seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as out_dir:
        _, code, _, _ = spawn(["cli", "-", *run_args(n_stop, seed, out_dir)],
                              env, stdout=subprocess.DEVNULL)
        reports = read_reports(out_dir)
    if code != 0 or reports.keys() != set(SCENARIOS):
        sys.exit(f"mmse-lab run exited {code} at n_stop={n_stop}")
    return {name: exact_fields(report) for name, report in reports.items()}


def main() -> int:
    env = child_env(os.getcwd())
    reference = {}
    for n_stop in (N_STOP, TINY_N_STOP):
        first = exact_reports(env, n_stop, seed=0)
        if exact_reports(env, n_stop, seed=1) != first:
            sys.exit(f"exact fields depend on the seed at n_stop={n_stop}")
        reference[str(n_stop)] = first
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
