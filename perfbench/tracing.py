"""Span recording around the public calls of each mmse_lab layer.

Tracing is installed from outside the package: ``Tracer.install`` replaces
every public function of each layer module with a timing wrapper, in every
``mmse_lab`` module that imported it by name, and wraps
``FiniteJoint.__post_init__`` and each catalog scenario's ``realize``.
Nothing inside ``src/`` changes.  Spans stay in memory and are written as
JSON lines by ``Tracer.write`` when the run ends.

``layer_metrics`` turns spans into the per-layer figures.  It is pure
Python so run.py can aggregate span files without importing numpy.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("probcore", "scenarios", "exact", "linear", "mc",
          "degradedness", "convergence", "cli")

# Scenarios whose run_scenario time is reported on its own.
SPLIT_SCENARIOS = ("example2", "example4", "cor1_additive_fast_x",
                   "cor1_additive_fast_y")
LP_ALPHABETS = (8, 16, 24, 32)  # garbling_lp sizes, one metric each

SPAN_FIELDS = ("id", "parent", "layer", "function", "workload", "scenario",
               "n", "shape", "nnz", "tag", "start", "end")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self._joint_cls = None

    # -- per-thread context ------------------------------------------------

    def _ctx(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.scenario = None
            local.joint_n = {}    # id(joint) -> (joint, n) for realized joints
            local.joint_nnz = {}  # id(joint) -> nnz
        return local

    def _joint_info(self, ctx, joint):
        """(n, shape, nnz) of a FiniteJoint argument, as far as known."""
        if not isinstance(joint, self._joint_cls):
            return None, None, None
        entry = ctx.joint_n.get(id(joint))
        n = entry[1] if entry is not None and entry[0] is joint else None
        nnz = ctx.joint_nnz.get(id(joint)) if n is not None else None
        return n, list(joint.pmf.shape), nnz

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, function: str, fn, annotate=None,
              joint_arg=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = tracer._ctx()
            span_id = next(tracer._ids)
            parent = ctx.stack[-1] if ctx.stack else None
            n = shape = nnz = None
            if joint_arg and args:
                n, shape, nnz = tracer._joint_info(ctx, args[0])
            ctx.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                ctx.stack.pop()
            tag = None
            if annotate is not None:
                n, shape, nnz, tag = annotate(ctx, args, result, n, shape, nnz)
            tracer.spans.append((span_id, parent, layer, function,
                                 tracer.workload, ctx.scenario, n, shape, nnz,
                                 tag, start, end))
            return result

        return wrapper

    def _wrap_run_scenario(self, fn):
        inner = self._wrap("convergence", "run_scenario", fn)

        @functools.wraps(fn)
        def run_scenario(scenario, *args, **kwargs):
            ctx = self._ctx()
            ctx.scenario = scenario.name
            try:
                return inner(scenario, *args, **kwargs)
            finally:
                ctx.scenario = None
                ctx.joint_n.clear()
                ctx.joint_nnz.clear()

        return run_scenario

    def _wrap_realize(self, name: str, fn):
        import numpy as np

        def annotate(ctx, args, joint, n, shape, nnz):
            n = int(args[0])
            if hasattr(joint, "pmf"):
                nnz = int(np.count_nonzero(joint.pmf))
                ctx.joint_n[id(joint)] = (joint, n)
                ctx.joint_nnz[id(joint)] = nnz
                shape = list(joint.pmf.shape)
            return n, shape, nnz, name

        return self._wrap("scenarios", "realize", fn, annotate)

    def _wrap_catalog(self, fn):
        tracer = self

        @functools.wraps(fn)
        def builtin_scenarios(*args, **kwargs):
            catalog = fn(*args, **kwargs)
            return {name: dataclasses.replace(
                        s, realize=tracer._wrap_realize(name, s.realize))
                    for name, s in catalog.items()}

        return builtin_scenarios

    @staticmethod
    def _annotate_is_degraded(ctx, args, cert, n, shape, nnz):
        k = int(args[0].matrix.shape[0])
        verdict = "feasible" if cert.feasible else "infeasible"
        return None, [k, int(args[1].matrix.shape[1])], None, f"{verdict}/k{k}"

    @staticmethod
    def _annotate_mc_mmse(ctx, args, est, n, shape, nnz):
        return n, shape, nnz, f"samples={int(args[1].n_samples)}"

    def install(self) -> None:
        """Swap timing wrappers into every mmse_lab module."""
        from mmse_lab.probcore import FiniteJoint
        self._joint_cls = FiniteJoint
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mmse_lab.{layer}")
            for name, obj in vars(module).items():
                if (not inspect.isfunction(obj) or name.startswith("_")
                        or obj.__module__ != module.__name__):
                    continue
                if (layer, name) == ("convergence", "run_scenario"):
                    wrapped = self._wrap_run_scenario(obj)
                elif (layer, name) == ("scenarios", "builtin_scenarios"):
                    wrapped = self._wrap_catalog(obj)
                elif (layer, name) == ("degradedness", "is_degraded"):
                    wrapped = self._wrap(layer, name, obj,
                                         self._annotate_is_degraded)
                elif (layer, name) == ("mc", "mc_mmse"):
                    wrapped = self._wrap(layer, name, obj,
                                         self._annotate_mc_mmse)
                else:
                    wrapped = self._wrap(layer, name, obj)
                replacements[obj] = wrapped
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mmse_lab" and not mod_name.startswith("mmse_lab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._restore.append((module, name, obj))
                    setattr(module, name, replacements[obj])

        def annotate_joint(ctx, args, result, n, shape, nnz):
            return None, list(args[0].pmf.shape), None, None

        post_init = FiniteJoint.__post_init__
        self._restore.append((FiniteJoint, "__post_init__", post_init))
        FiniteJoint.__post_init__ = self._wrap(
            "probcore", "FiniteJoint", post_init, annotate_joint,
            joint_arg=False)

    def uninstall(self) -> None:
        """Put every replaced function back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def records(self) -> list[dict]:
        """The spans recorded so far, one dict each."""
        return [dict(zip(SPAN_FIELDS, span)) for span in self.spans]

    def write(self, path: str) -> None:
        """Write the spans recorded so far as JSON lines."""
        with open(path, "w") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(processes: list[list[dict]], passes: int) -> dict[str, float]:
    """Per-layer figures from the spans of whole passes.

    ``processes`` holds one span list per traced process (span ids are
    unique within a process only).  Busy times are inclusive seconds per
    pass.  A ratio whose base did not run on this workload reads 0.
    """
    busy = collections.Counter()
    calls = collections.Counter()
    by_n = collections.defaultdict(collections.Counter)
    lp_calls = collections.Counter()
    dense_entries = nnz_total = samples = 0
    unattributed = 0.0
    for spans in processes:
        children = collections.Counter()
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            key = f"{s['layer']}.{s['function']}"
            dur = s["end"] - s["start"]
            busy[key] += dur
            calls[key] += 1
            if s["n"] is not None:
                by_n[key][s["n"]] += dur
            if key == "scenarios.realize" and s["shape"] is not None:
                dense_entries += s["shape"][0] * s["shape"][1]
                nnz_total += s["nnz"]
            elif key == "mc.mc_mmse":
                samples += int(s["tag"].split("=")[1])
            elif key == "convergence.run_scenario":
                busy[f"{key}.{s['scenario']}"] += dur
                unattributed += dur - children[s["id"]]
            elif key == "degradedness.is_degraded":
                verdict, k = s["tag"].split("/")
                busy[f"{key}.{verdict}"] += dur
                busy[f"{key}.{k}"] += dur
                lp_calls[k] += 1

    def growth(key):
        if not by_n[key]:
            return 0.0
        top = max(by_n[key])
        half = by_n[key].get(top // 2, 0.0)
        return by_n[key][top] / half if half > 0 else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def per_call_us(key):
        return 1e6 * ratio(busy[key], calls[key])

    lp = "degradedness.is_degraded"
    out = {
        "scenarios.realize.busy_s": busy["scenarios.realize"] / passes,
        "scenarios.realize.calls": calls["scenarios.realize"] / passes,
        "scenarios.realize.growth_per_doubling": growth("scenarios.realize"),
        "probcore.pmf_dense_mb": 8.0 * dense_entries / 2 ** 20 / passes,
        "probcore.pmf_fill_ratio": ratio(nnz_total, dense_entries),
        "probcore.FiniteJoint.us_per_call": per_call_us("probcore.FiniteJoint"),
        "probcore.moments_exact.busy_s": busy["probcore.moments_exact"] / passes,
        "exact.mmse_exact.busy_s": busy["exact.mmse_exact"] / passes,
        "exact.mmse_exact.us_per_call": per_call_us("exact.mmse_exact"),
        "exact.mmse_exact.growth_per_doubling": growth("exact.mmse_exact"),
        "linear.lmmse.busy_s": busy["linear.lmmse"] / passes,
        "mc.mc_mmse.busy_s": busy["mc.mc_mmse"] / passes,
        "mc.mc_mmse.samples_per_s": ratio(samples, busy["mc.mc_mmse"]),
        "mc.mc_mmse_vs_exact.busy_s": busy["mc.mc_mmse_vs_exact"] / passes,
        f"{lp}.feasible.busy_s": busy[f"{lp}.feasible"] / passes,
        f"{lp}.infeasible.busy_s": busy[f"{lp}.infeasible"] / passes,
    }
    for k in LP_ALPHABETS:
        out[f"{lp}.k{k}.busy_s"] = busy[f"{lp}.k{k}"] / passes
    out[f"{lp}.growth_per_doubling"] = ratio(
        ratio(busy[f"{lp}.k32"], lp_calls["k32"]),
        ratio(busy[f"{lp}.k16"], lp_calls["k16"]))
    out["degradedness.compose.busy_s"] = busy["degradedness.compose"] / passes
    out["degradedness.blackwell_verify.busy_s"] = (
        busy["degradedness.blackwell_verify"] / passes)
    out["convergence.run_scenario.busy_s"] = (
        busy["convergence.run_scenario"] / passes)
    for name in SPLIT_SCENARIOS:
        out[f"convergence.run_scenario.{name}.busy_s"] = (
            busy[f"convergence.run_scenario.{name}"] / passes)
    out["convergence.unattributed_s"] = unattributed / passes
    out["cli.report_to_json.busy_s"] = busy["cli.report_to_json"] / passes
    return out
