"""Command line front end: list scenarios, run them, self-test the build.

Exit codes: 0 success; 1 a verdict or suite failed; 2 bad usage or
configuration; 3 an engine error while running; 141 (128 + SIGPIPE, as a
shell reports a program that a closed pipe ended) when standard output
closes before the program has written all of it, as under ``| head``.  The
program then stops quietly, so whatever it had not yet done (for ``run``,
the remaining reports too) is left undone.

Reports are deterministic byte-for-byte for a fixed RunConfig: every float
is printed with its shortest round-trip representation and no timestamps or
environment data are written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .convergence import ConvergenceReport, run_scenario
from .errors import MmseLabError
from .scenarios import builtin_scenarios
from .selftest import run_selftest

SEED_ENV_VAR = "MMSE_LAB_SEED"
CSV_HEADER = "scenario,n,mmse,std_err,second_moment_x,second_moment_y,limit_mmse,verdict"

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3
EXIT_BROKEN_PIPE = 141


@dataclass(frozen=True)
class RunConfig:
    """Everything a `run` invocation depends on (and nothing else)."""

    scenario_names: tuple[str, ...]
    n_start: int = 1
    n_stop: int = 64
    n_spacing: str = "geometric"
    seed: int = 0
    tol_abs: float = 0.02
    output_dir: str = "reports"
    format: str = "csv"

    def n_grid(self) -> list[int]:
        if self.n_start < 1 or self.n_stop < self.n_start:
            raise ValueError(
                f"bad grid: start={self.n_start} stop={self.n_stop}")
        if self.n_spacing == "linear":
            return list(range(self.n_start, self.n_stop + 1))
        if self.n_spacing == "geometric":
            grid, n = [], self.n_start
            while n <= self.n_stop:
                grid.append(n)
                n *= 2
            return grid
        raise ValueError(f"unknown spacing {self.n_spacing!r}")


def _fmt(value: float) -> str:
    return repr(float(value))


def report_to_csv(report: ConvergenceReport) -> str:
    verdict = "match" if report.verdict_matches else "mismatch"
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(",".join([
            report.scenario,
            str(row.n),
            _fmt(row.mmse),
            _fmt(row.std_err),
            _fmt(row.second_moment_x),
            _fmt(row.second_moment_y),
            _fmt(report.limit_value),
            verdict,
        ]))
    return "\n".join(lines) + "\n"


def report_to_json(report: ConvergenceReport) -> str:
    diag = report.diagnostics
    diagnostics = {
        "second_moment_gap": diag.second_moment_gap,
        "second_moment_gap_y": diag.second_moment_gap_y,
        "prob_convergence_proxy": diag.prob_convergence_proxy,
        "ui_proxy": {repr(a): v for a, v in sorted(diag.ui_proxy.items())},
        "markov_verified": diag.markov_verified,
    }
    if report.mc_rows:
        diagnostics["mc_rows"] = [
            {"n": r.n, "mmse": r.mmse, "std_err": r.std_err} for r in report.mc_rows
        ]
    payload = {
        "scenario": report.scenario,
        "rows": [
            {
                "n": row.n,
                "mmse": row.mmse,
                "std_err": row.std_err,
                "second_moment_x": row.second_moment_x,
                "second_moment_y": row.second_moment_y,
                "limit_mmse": report.limit_value,
            }
            for row in report.rows
        ],
        "diagnostics": diagnostics,
        "verdict": {
            "matches": report.verdict_matches,
            "expected_kind": report.expected.kind.value,
            "limit_mmse": report.expected.limit_mmse,
            "sequence_limit_mmse": report.expected.sequence_limit_mmse,
            "tol_abs": report.tol_abs,
        },
    }
    # allow_nan=False: JSON (RFC 8259) has no NaN or Infinity, so a report
    # holding one raises ValueError instead of being written
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


RENDERERS = {"csv": report_to_csv, "json": report_to_json}


def cmd_list(name_filter: str | None = None, stream=None) -> int:
    """Print the scenario table, optionally filtered by substring."""
    out = stream if stream is not None else sys.stdout
    catalog = builtin_scenarios()
    names = [n for n in catalog
             if name_filter is None or name_filter in n]
    header = f"{'name':<24} {'audit':<6} {'kind':<18} {'limit':>12} {'seq_limit':>12}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for name in names:
        s = catalog[name]
        e = s.expected
        print(f"{name:<24} {s.audit:<6} {e.kind.value:<18} "
              f"{e.limit_mmse:>12.6g} {e.sequence_limit_mmse:>12.6g}", file=out)
        print(f"{'':<24} {s.notes}", file=out)
    print(f"{len(names)} scenario(s)", file=out)
    return EXIT_OK


def cmd_run(config: RunConfig, stream=None, err_stream=None) -> int:
    """Run scenarios, write one report per scenario, 0 iff all match."""
    out = stream if stream is not None else sys.stdout
    err = err_stream if err_stream is not None else sys.stderr
    catalog = builtin_scenarios()
    if not config.scenario_names:
        print("no scenarios requested; use `list` to see the catalog", file=err)
        return EXIT_USAGE
    unknown = [n for n in config.scenario_names if n not in catalog]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=err)
        return EXIT_USAGE
    repeated = [n for i, n in enumerate(config.scenario_names)
                if n in config.scenario_names[:i]]
    if repeated:
        print("scenario(s) named more than once: "
              f"{', '.join(dict.fromkeys(repeated))}", file=err)
        return EXIT_USAGE
    out_dir = Path(config.output_dir)
    try:
        grid = config.n_grid()
        if config.format not in RENDERERS:
            raise ValueError(f"unknown format {config.format!r}")
        if not (config.tol_abs > 0.0 and math.isfinite(config.tol_abs)):
            raise ValueError(f"bad tolerance: tol={config.tol_abs!r} is not "
                             "positive and finite")
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # OSError: --out is no directory
        print(str(exc), file=err)
        return EXIT_USAGE
    try:
        reports = {name: run_scenario(catalog[name], grid,
                                      tol_abs=config.tol_abs, seed=config.seed)
                   for name in config.scenario_names}
    except MmseLabError as exc:
        print(f"engine error: {exc}", file=err)
        return EXIT_ENGINE
    render = RENDERERS[config.format]
    try:
        texts = {name: render(report) for name, report in reports.items()}
    except ValueError as exc:  # a non-finite value has no JSON form
        print(f"engine error: {exc}", file=err)
        return EXIT_ENGINE
    all_match = True
    for name in config.scenario_names:
        report = reports[name]
        path = out_dir / f"{name}.{config.format}"
        try:
            path.write_text(texts[name])
        except OSError as exc:  # e.g. the report path is a directory
            print(str(exc), file=err)
            return EXIT_USAGE
        tail = report.rows[-1]
        status = "match" if report.verdict_matches else "MISMATCH"
        print(f"{name}: {status} (n={tail.n} value={tail.mmse:.6g} "
              f"limit={report.limit_value:.6g}) -> {path}", file=out)
        if not report.verdict_matches:
            all_match = False
            print(f"verdict mismatch: {name} expected "
                  f"{report.expected.kind.value} with sequence limit "
                  f"{report.expected.sequence_limit_mmse!r}", file=err)
    return EXIT_OK if all_match else EXIT_VERDICT


def cmd_selftest(seed: int, stream=None) -> int:
    """Run the randomized property suites; 0 iff all pass."""
    out = stream if stream is not None else sys.stdout
    ok, lines = run_selftest(seed)
    for line in lines:
        print(line, file=out)
    print("selftest: " + ("all suites passed" if ok else "FAILURES above"),
          file=out)
    return EXIT_OK if ok else EXIT_VERDICT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmse-lab",
        description="estimation-stability laboratory: exact MMSE engines "
                    "and convergence scenario audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.add_argument("filter", nargs="?", default=None,
                        help="substring filter on scenario names")

    p_run = sub.add_parser("run", help="run scenarios and write reports")
    p_run.add_argument("--scenarios", nargs="+", default=[],
                       metavar="NAME", help="scenario names (see `list`)")
    p_run.add_argument("--n-start", type=int, default=RunConfig.n_start)
    p_run.add_argument("--n-stop", type=int, default=RunConfig.n_stop)
    p_run.add_argument("--n-spacing", choices=("linear", "geometric"),
                       default=RunConfig.n_spacing)
    p_run.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV_VAR}, "
                            f"then {RunConfig.seed})")
    p_run.add_argument("--tol", type=float, default=RunConfig.tol_abs,
                       help="absolute tolerance for the tail audit")
    p_run.add_argument("--out", default=RunConfig.output_dir,
                       help="report directory")
    p_run.add_argument("--format", choices=tuple(RENDERERS),
                       default=RunConfig.format)

    p_self = sub.add_parser("selftest", help="run randomized property suites")
    p_self.add_argument("--seed", type=int, default=None)
    return parser


def _resolve_seed(cli_seed: int | None, default: int) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"${SEED_ENV_VAR}={env!r} is not an integer") from exc
    return default


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "list":
            return cmd_list(args.filter)
        if args.command == "run":
            names = tuple(
                part for raw in args.scenarios
                for part in raw.split(",") if part)
            config = RunConfig(
                scenario_names=names,
                n_start=args.n_start,
                n_stop=args.n_stop,
                n_spacing=args.n_spacing,
                seed=_resolve_seed(args.seed, RunConfig.seed),
                tol_abs=args.tol,
                output_dir=args.out,
                format=args.format,
            )
            return cmd_run(config)
        if args.command == "selftest":
            return cmd_selftest(_resolve_seed(args.seed, 0))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except MmseLabError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        # a closed pipe shows at the latest when the buffered output goes
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush nowhere so
        # that it cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
