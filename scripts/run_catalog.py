#!/usr/bin/env python3
"""Run every builtin scenario through ``mmse-lab run``.

Extra arguments go to ``run`` unchanged, so the exit status is nonzero when
any verdict disagrees with the registered expectation and the script
doubles as a quick regression probe:

    python scripts/run_catalog.py --n-stop 64 --seed 0 --out reports
"""

import sys

from mmse_lab import builtin_scenarios
from mmse_lab.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["run", "--scenarios", *builtin_scenarios(), *sys.argv[1:]]))
