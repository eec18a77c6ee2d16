#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (under a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload shrunk to toy sizes and checks that

1. every metric BENCHMARK.json names is emitted with its declared unit,
   untraced and traced, and every traced function still exists;
2. each layer wrapper returns a result identical to the function it wraps,
   called with the arguments the toy run passed to it;
3. every wrapped name is restored afterwards, also when the traced code
   raises.

Toy artifacts go to .bench_out/selftest/. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import sys

import numpy as np

import run as bench

spans = bench.spans
workloads = bench.workloads


def toy(raw):
    """The same config at a size that runs in about a second."""

    raw = copy.deepcopy(raw)
    raw["system"]["n_sites"] = 6 if "sweep" in raw else 3
    if "grid" in raw:
        raw["grid"]["n_points"] = 301
        raw["grid"]["pairs"] = raw["grid"]["pairs"][:1] if "sweep" in raw else [[0, 0], [0, 1]]
    if "qme" in raw and "tau_max" in raw["qme"]:
        raw["qme"].update(tau_max=30.0, d_tau=0.25)
    if "time" in raw:
        raw["time"]["t_max"] = 2.0
        raw["initial"]["excited_site"] = 0
    return raw


def same(a, b):
    """Deep equality: same types, bit-identical arrays, NaN equal to NaN."""

    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
        )
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return bool(a == b)


def bindings():
    """Every attribute of every noisychain module and wrapped class, by identity."""

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "noisychain" or name.startswith("noisychain."):
            out.update({(name, k): id(v) for k, v in vars(mod).items()})
    for module, attr, _, _ in spans.TARGETS:
        if "." in attr:
            owner = spans.resolve(module, attr)[0]
            out.update({(owner.__qualname__, k): id(v) for k, v in vars(owner).items()})
    return out


def toy_configs(workload):
    from noisychain import harness

    return [harness.config_from_dict(toy(raw)) for raw in workloads.configs(workload, 1)]


def check_metrics(failures):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    real_configs = workloads.configs
    workloads.configs = lambda w, s: [toy(raw) for raw in real_configs(w, s)]
    try:
        for workload in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                record = bench.run_workload(workload, 1, 0.0, trace)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    bench.report(record, bench.declared_units(trace))
                emitted = json.loads(out.getvalue().splitlines()[-1])["metrics"]
                declared = {m["name"]: m["unit"] for m in spec[section]}
                got = {name: m["unit"] for name, m in emitted.items()}
                if got != declared:
                    failures.append(f"{workload} trace {trace}: emitted {got}, declared {declared}")
                if record["missing_trace_targets"]:
                    failures.append(f"{workload}: no such function {record['missing_trace_targets']}")
    finally:
        workloads.configs = real_configs


def record_calls(cfgs, out_root):
    """First (args, kwargs) each traced function got in one toy iteration."""

    calls = {}
    undo = []
    for module, attr, _, _ in spans.TARGETS:
        owner, name, fn = spans.resolve(module, attr)

        def spy(*args, _fn=fn, _key=(module, attr), **kwargs):
            calls.setdefault(_key, (args, kwargs))
            return _fn(*args, **kwargs)

        undo += spans.patch_everywhere(owner, name, fn, spy)
    try:
        bench.run_iteration(cfgs, out_root, False, bench.Checks())
    finally:
        spans.restore(undo)
    return calls


def check_wrappers(failures):
    before = bindings()
    seen = {}
    for workload in workloads.WORKLOADS:
        calls = record_calls(toy_configs(workload), bench.OUT / "wrappers" / workload)
        for key, (args, kwargs) in calls.items():
            if key in seen:
                continue
            original = spans.resolve(*key)[2]
            with spans.Tracer() as tracer:
                wrapped = spans.resolve(*key)[2]
                got = wrapped(*args, **kwargs)
            want = original(*args, **kwargs)
            seen[key] = wrapped is not original and same(got, want) and bool(tracer.spans)
    for module, attr, _, _ in spans.TARGETS:
        if not seen.get((module, attr)):
            failures.append(f"{module}.{attr}: wrapper result differs or was never called")
    if bindings() != before:
        failures.append("module attributes not restored after tracing")

    with contextlib.suppress(RuntimeError), spans.Tracer():
        raise RuntimeError("raised inside the tracer")
    if bindings() != before:
        failures.append("module attributes not restored after an exception")


def main():
    bench.OUT = bench.ROOT / ".bench_out" / "selftest"
    bench.SETUP_REPEATS = 1
    bench.import_program()
    failures = []
    check_metrics(failures)
    check_wrappers(failures)
    for what in failures:
        print(f"FAIL {what}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
