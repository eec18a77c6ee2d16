#!/usr/bin/env python3
"""noisychain benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload dephasing-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from the `src/` directory next
to this one, never from an installed copy. A run

1. starts SETUP_REPEATS fresh interpreters (probe.py) that import
   noisychain and validate the workload's configs, and takes the median
   wall time from process start to ready as setup_s;
2. builds the workload's configs from --seed (workloads.py) and calls
   run_experiment on each, one engine job at a time, repeating the whole
   workload while another repetition still fits in --seconds (at least
   once). run_s is the median over these iterations. With --trace 1 every
   repetition is a pair of iterations: one untraced, one with the layer
   wrappers of spans.py installed;
3. checks the outputs (engine errors, toleranced comparisons, sweep peak
   counts, occupation range, byte-identical artifacts for one seed) and
   counts every check as an operation attempted.

Artifacts, traces and per-run records (machine included) go to .bench_out/
at the repository root. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `--workload all` runs every
workload in its own process and prints each one's lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60

import spans
import workloads

AGREEMENT = {
    "peak-position:": "harness.agree.position_max",
    "fwhm-ratio:": "harness.agree.fwhm_ratio_max",
    "trajectory-deviation": "harness.agree.trajectory_max",
}


class Checks:
    """Output checks as operations: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def source_digest():
    """sha256 over the program's source files, the build's identity."""

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD commit read from .git without running git; None outside a clone."""

    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_info():
    """BLAS vendor, version and thread count as numpy sees them."""

    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def machine():
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure_setup(workload, seed, repeats):
    """Wall time from interpreter start until the first engine could start."""

    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            if not ready:
                raise RuntimeError(f"set-up probe printed nothing in {PROBE_TIMEOUT_S} s")
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        sample = json.loads(line)
        sample["wall_s"] = wall
        samples.append(sample)
    return samples


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import noisychain

    where = Path(noisychain.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"noisychain imported from {where}, not from {SRC}")


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(cfgs, results, checks):
    """Check one iteration's outputs; return {artifact: sha256}."""

    from noisychain import harness

    hashes = {}
    for cfg, res in zip(cfgs, results):
        for engine in cfg.engines:
            errs = [msg for label, msg in res.engine_errors.items() if label.split("-")[0] == engine]
            checks.check(not errs, f"{cfg.name}: engine {engine} failed: {errs}")
        for rep in res.reports:
            for m in rep.metrics:
                if m.tolerance is not None:
                    checks.check(
                        m.passed is True,
                        f"{cfg.name}: {m.name} = {m.value} exceeds tolerance {m.tolerance}",
                    )
        for name in res.artifacts:
            path = res.run_dir / name
            hashes[f"{cfg.name}/{name}"] = file_sha256(path)
            if name.endswith("_trajectory.csv"):
                occ = harness.read_artifact(path)["columns"]["occupation"]
                checks.check(
                    bool(occ.min() >= 0.0 and occ.max() <= 1.0),
                    f"{cfg.name}/{name}: occupations span [{occ.min()}, {occ.max()}]",
                )
            if name == "peak_counts.csv":
                rows = path.read_text().split()[1:]
                pairs = sorted((float(g), int(n)) for g, n in (r.split(",") for r in rows))
                counts = [n for _, n in pairs]
                checks.check(
                    len(pairs) == len(cfg.sweep_gamma2)
                    and all(b <= a for a, b in zip(counts, counts[1:])),
                    f"{cfg.name}: peak counts {pairs} rise with width",
                )
    return hashes


def agreement(results):
    """Largest toleranced cross-engine deviation per family, from report.json."""

    out = dict.fromkeys(AGREEMENT.values(), 0.0)
    for res in results:
        report = res.run_dir / "report.json"
        if not report.is_file():
            continue
        for rep in json.loads(report.read_text()):
            for m in rep["metrics"]:
                value = m["value"]
                if m["tolerance"] is None or value is None or not math.isfinite(value):
                    continue
                for prefix, key in AGREEMENT.items():
                    if m["name"].startswith(prefix):
                        out[key] = max(out[key], value)
    return out


def bytes_written(results):
    total = 0
    for res in results:
        names = list(res.artifacts) + ["manifest.json", "report.json"]
        total += sum((res.run_dir / n).stat().st_size for n in names if (res.run_dir / n).is_file())
    return total


def run_iteration(cfgs, out_root, traced, checks):
    """Run every config once; return the iteration's record."""

    from noisychain import harness

    with spans.Tracer() if traced else contextlib.nullcontext() as tracer:
        t0 = time.perf_counter()
        results = [harness.run_experiment(cfg, out_root=out_root) for cfg in cfgs]
        run_s = time.perf_counter() - t0
    record = {"traced": traced, "run_s": run_s, "hashes": check_outputs(cfgs, results, checks)}
    if tracer is not None:
        layers = {}
        for name, value in tracer.self_times().items():
            layers["harness.self_s" if name == "harness.run" else name + "_s"] = value
        layers["trace.accounted_share"] = sum(layers.values()) / run_s
        layers.update({name: tracer.counts[name] for name in spans.COUNTERS})
        layers["harness.bytes_written"] = bytes_written(results)
        layers.update(agreement(results))
        record["layers"] = layers
        record["spans"] = tracer.spans
        record["missing"] = tracer.missing
    return record


def check_determinism(workload, seed, iterations, checks):
    """Artifact bodies must hash alike across iterations and runs of a seed."""

    first = iterations[0]["hashes"]
    for k, it in enumerate(iterations[1:], start=1):
        checks.check(it["hashes"] == first, f"iteration {k} artifacts differ from iteration 0")
    ledger_path = OUT / "hashes.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = f"{workload}/{seed}/{source_digest()}"
    if key in ledger:
        checks.check(ledger[key] == first, "artifacts differ from an earlier run of this seed")
    else:
        ledger[key] = first
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(ledger_path)


def write_spans(path, iterations):
    with open(path, "w") as fh:
        fh.write("iteration,name,start_s,end_s,parent\n")
        for k, it in enumerate(iterations):
            recorded = it.get("spans") or []
            t0 = recorded[0][1] if recorded else 0.0
            for name, start, end, parent in recorded:
                fh.write(f"{k},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def run_workload(workload, seed, seconds, trace):
    setup = measure_setup(workload, seed, SETUP_REPEATS)
    import_program()
    from noisychain import harness

    cfgs = [harness.config_from_dict(raw) for raw in workloads.configs(workload, seed)]
    out_root = OUT / "runs" / workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    checks = Checks()
    iterations = []
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    loops = 0
    elapsed = 0.0
    # stop before a further loop would overrun --seconds; always run one
    while loops == 0 or elapsed + elapsed / loops <= seconds:
        for traced in modes:
            iterations.append(run_iteration(cfgs, out_root, traced, checks))
        loops += 1
        elapsed = time.perf_counter() - start
    check_determinism(workload, seed, iterations, checks)

    plain = [it for it in iterations if not it["traced"]]
    if trace:
        traced = [it for it in iterations if it["traced"]]
        metrics = {
            name: statistics.median(it["layers"][name] for it in traced)
            for name in traced[0]["layers"]
        }
        metrics["setup.import_s"] = median_of(setup, "import_s")
        metrics["setup.config_s"] = median_of(setup, "config_s")
        metrics["trace.run_s"] = median_of(traced, "run_s")
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median_of(plain, "run_s")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        write_spans(OUT / "traces" / f"{workload}-seed{seed}.csv", traced)
        missing = sorted({m for it in traced for m in it["missing"]})
    else:
        metrics = {
            "run_s": median_of(plain, "run_s"),
            "setup_s": median_of(setup, "wall_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_ratio": (checks.attempted - len(checks.failures)) / checks.attempted,
        }
        missing = []

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "setup": setup,
        "iterations": [{"traced": it["traced"], "run_s": it["run_s"]} for it in iterations],
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "missing_trace_targets": missing,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def report(record, units):
    """Print the human-readable lines, then the result JSON as the last line."""

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    runs = ", ".join(f"{it['run_s']:.3f}{'T' if it['traced'] else ''}" for it in record["iterations"])
    print(f"workload {record['workload']} seed {record['seed']}: iterations run_s [{runs}]")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for what in record["checks"]["failures"]:
        print(f"  FAILED CHECK: {what}")
    for target in record["missing_trace_targets"]:
        print(f"  not traced (no such function): {target}")
    attempted = record["checks"]["attempted"]
    failed = len(record["checks"]["failures"])
    print(f"  checks: {attempted - failed} of {attempted} passed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)


def declared_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "noisychain" / "__init__.py").is_file():
        print(f"error: no noisychain sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        worst = 0
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd).returncode)
        return worst
    units = declared_units(args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(record, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
