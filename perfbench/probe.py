"""Set-up probe: import noisychain and validate one workload's configs.

run.py starts this in a fresh interpreter and times it from process start
until the JSON line arrives, which is when the first engine could start:

    python3 perfbench/probe.py <src dir> <workload> <seed>

Prints {"import_s": ..., "config_s": ...} measured inside the process.
"""

import json
import sys
import time

if __name__ == "__main__":
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import noisychain  # noqa: F401  (the import is what is timed)
    from noisychain import harness

    t1 = time.perf_counter()
    import workloads

    for raw in workloads.configs(workload, seed):
        # _Plan builds every module object a run needs; it is the validation
        # run_experiment does before writing anything
        harness._Plan(harness.config_from_dict(raw))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}), flush=True)
