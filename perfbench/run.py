"""Layered benchmark for mmse-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see BENCHMARK.json for why each was chosen):

* ``catalog_deep``  fresh-process `mmse-lab run` of all 10 built-in
                     scenarios on the geometric grid 1..1024, JSON reports;
                     one op is one report row;
* ``garbling_lp``   ``is_degraded`` on seeded channel pairs at alphabets
                     8, 16, 24 and 32, half feasible and half infeasible by
                     construction; one op is one decision;
* ``small_joints``  1000 seeded joints with 2-12 atoms per side through
                     every exact engine; one op is one joint.

Every workload is a closed loop with one caller, run in processes started
one at a time.  With ``--trace 0`` the last line of output carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and the last line carries the per-layer metrics, including the
tracing overhead.  ``--tiny`` shrinks every workload for
the smoke test.  Scratch output goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import threading
import time

from catalog import N_STOP, TINY_N_STOP, check_reports, load_reference, \
    read_reports, run_args
from stats import median, nearest_rank
from tracing import layer_metrics, read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("catalog_deep", "garbling_lp", "small_joints")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
SHOWN_PROBLEMS = 5

UNIT_SUFFIXES = ((".calls", "count"), ("us_per_call", "us"), ("_mb", "MiB"),
                 ("_ms", "ms"), ("per_s", "1/s"), ("_s", "s"))


def unit(name: str) -> str:
    """A metric's unit, read off its name as BENCHMARK.json declares it."""
    for suffix, label in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return label
    return "ratio"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict, stdout=subprocess.PIPE):
    """Run a child to the end: (wall seconds, exit code, peak RSS MiB, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], env=env,
                            stdout=stdout)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if stdout == subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        if proc.stdout is not None:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out.decode()


def last_json(text: str, what: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def setup_probe(env: dict) -> tuple[float, float, float]:
    """(wall, import, catalog) seconds of one fresh `import mmse_lab` +
    `builtin_scenarios()` process."""
    wall, code, _, out = spawn(["setup"], env)
    if code != 0:
        raise BenchError(f"setup probe exited {code}")
    probe = last_json(out, "setup probe")
    return wall, probe["import_s"], probe["catalog_s"]


def run_catalog(env, out_dir, seed, seconds, trace, tiny):
    """Fresh `mmse-lab run` processes until ``seconds`` have gone by.

    With tracing, invocations alternate between untraced and traced.
    """
    n_stop = TINY_N_STOP if tiny else N_STOP
    reference = load_reference(n_stop)
    rows = sum(len(r["rows"]) for r in reference.values())
    reports_dir = os.path.join(out_dir, "reports")
    args = run_args(n_stop, seed, reports_dir)
    walls = {False: [], True: []}
    rss, spans, problems = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        spans_path = "-"
        if traced:
            spans_path = os.path.join(out_dir, f"trace-catalog_deep-{index}.jsonl")
        shutil.rmtree(reports_dir, ignore_errors=True)
        wall, code, peak, _ = spawn(["cli", spans_path, *args], env,
                                    stdout=subprocess.DEVNULL)
        walls[traced].append(wall)
        got = check_reports(read_reports(reports_dir), reference, code)
        attempted += got[0]
        failed += got[1]
        problems += got[2]
        if traced:
            spans.append(read_spans(spans_path))
        else:
            rss.append(peak)
        index += 1
    result = {
        "ops_per_s": rows / median(walls[False]),
        "peak_rss_mb": median(rss),
        "op_p50_ms": 1e3 * median(walls[False]),
        "op_p99_ms": 1e3 * nearest_rank(walls[False], 0.99),
        "ops": len(walls[False]),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace:
        result["layers"] = layer_metrics(spans, len(spans))
        result["traced_ops_per_s"] = rows / median(walls[True])
    return result


def run_loop(env, out_dir, workload, seed, seconds, trace, tiny):
    spans_path = os.path.join(out_dir, f"trace-{workload}.jsonl")
    _, code, peak, out = spawn(
        ["loop", workload, str(seed), repr(float(seconds)),
         "1" if trace else "0", "1" if tiny else "0", spans_path], env)
    if code != 0:
        raise BenchError(f"{workload} worker exited {code}")
    result = last_json(out, f"{workload} worker")
    result["peak_rss_mb"] = peak
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mmse_lab", "__init__.py")):
        print("run from the root of an mmse-lab checkout: src/mmse_lab is "
              "missing", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    for old in glob.glob(os.path.join(out_dir, "trace-*.jsonl")):
        os.remove(old)
    env = child_env(root)
    try:
        _, code, _, out = spawn(["env"], env)  # also warms the bytecode cache
        if code != 0:
            raise BenchError(f"environment probe exited {code}")
        environment = last_json(out, "environment probe")
        if not environment["mmse_lab"].startswith(os.path.join(root, "src")):
            raise BenchError(f"mmse_lab imported from {environment['mmse_lab']}")
        environment.update(workload=args.workload, seed=args.seed,
                           cli_jobs=environment["nproc"])
        # Half the set-up probes run before the workload and half after,
        # so that one slow or fast spell of the machine does not set them all.
        probes = 1 if args.tiny else SETUP_PROBES // 2
        setup = [setup_probe(env) for _ in range(probes)]
        if args.workload == "catalog_deep":
            result = run_catalog(env, out_dir, args.seed, args.seconds,
                                 args.trace, args.tiny)
        else:
            result = run_loop(env, out_dir, args.workload, args.seed,
                              args.seconds, args.trace, args.tiny)
        setup += [setup_probe(env) for _ in range(probes)]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    end_to_end = {
        "setup_s": median(probe[0] for probe in setup),
        "ops_per_s": result["ops_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p99_ms": result["op_p99_ms"],
    }
    attempted, failed = result["attempted"], result["failed"]
    print("environment " + json.dumps(environment, sort_keys=True))
    for problem in result["problems"][:SHOWN_PROBLEMS]:
        print(f"FAILED {problem.strip()}")
    for name, value in end_to_end.items():
        print(f"{name:<48} {value:>14.6g} {unit(name)}")
    print(f"{'error_rate':<48} {failed / attempted:>14.6g} failed/attempted "
          f"({failed}/{attempted}; latency samples {result['ops']})")
    if args.trace:
        metrics = dict(result["layers"])
        metrics["setup.import_s"] = median(probe[1] for probe in setup)
        metrics["setup.catalog_s"] = median(probe[2] for probe in setup)
        metrics["trace.overhead_ops_per_s"] = (
            result["ops_per_s"] - result["traced_ops_per_s"])
        for name, value in metrics.items():
            print(f"{name:<48} {value:>14.6g} {unit(name)}")
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
