"""Child process of run.py; one fresh process per job.

    worker.py setup                     import mmse_lab, build the catalog
    worker.py env                       the same, then print the environment
    worker.py cli SPANS ARGS...         `mmse-lab ARGS...`; SPANS is a span
                                        file to write, or - for no tracing
    worker.py loop WORKLOAD SEED SECONDS TRACE TINY SPANS
                                        closed loop of an in-process workload

``setup``, ``env`` and ``loop`` print one JSON line; ``cli`` prints what
`mmse-lab` prints.  run.py puts ``src`` on PYTHONPATH and pins the BLAS
pool to one thread.
"""

import sys
import time

if sys.argv[1:2] in (["setup"], ["env"]):
    t0 = time.perf_counter()
    import mmse_lab
    t1 = time.perf_counter()
    mmse_lab.builtin_scenarios()
    t2 = time.perf_counter()

import json
import os


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it says."""
    import ctypes
    import glob

    import numpy
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mmse_lab": os.path.dirname(mmse_lab.__file__),
    }


def cli(spans_path: str, args: list[str]) -> int:
    from mmse_lab import cli as lab_cli
    if spans_path == "-":
        return lab_cli.main(args)
    from tracing import Tracer
    tracer = Tracer("catalog_deep")
    tracer.install()
    try:
        return lab_cli.main(args)
    finally:
        tracer.write(spans_path)


def loop(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
         spans_path: str) -> dict:
    import tracing
    import workloads
    from stats import median, nearest_rank

    make_pass, check = workloads.workload(workload, seed, tiny)
    tracer = tracing.Tracer(workload) if trace else None
    plain, traced = workloads.closed_loop(make_pass, check, seconds, tracer)
    out = {
        "ops_per_s": plain.ops_per_s(),
        "op_p50_ms": 1e3 * median(plain.latencies),
        "op_p99_ms": 1e3 * nearest_rank(plain.latencies, 0.99),
        "ops": plain.attempted,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "problems": plain.problems,
    }
    if trace:
        tracer.write(spans_path)
        out["layers"] = tracing.layer_metrics([tracer.records()],
                                              len(traced.pass_walls))
        out["traced_ops_per_s"] = traced.ops_per_s()
        out["attempted"] += traced.attempted
        out["failed"] += traced.failed
        out["problems"] += traced.problems
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1}))
    elif mode == "env":
        print(json.dumps(environment()))
    elif mode == "cli":
        return cli(argv[1], argv[2:])
    elif mode == "loop":
        workload, seed, seconds, trace, tiny, spans_path = argv[1:7]
        print(json.dumps(loop(workload, int(seed), float(seconds),
                              trace == "1", tiny == "1", spans_path)))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
