"""Per-layer tracing by wrapping noisychain's public functions.

A Tracer, while entered, replaces each function in TARGETS by a wrapper
that records a span (name, start, end, parent) and updates the layer's
counters. The wrapper is bound under every name that any noisychain module
gave the function (`from .baths import noise_power` makes a second name in
keldysh, qme and harness), and every original is restored on exit. Spans
stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _pv_calls(counts, args, kwargs, result):
    counts["baths.pv_transform_calls"] += 1


def _noise_power(counts, args, kwargs, result):
    counts["baths.noise_power_calls"] += 1
    counts["baths.noise_power_points"] += np.size(args[1] if len(args) > 1 else kwargs["omega"])


def _greens_bytes(counts, args, kwargs, result):
    size = result.retarded.nbytes + result.advanced.nbytes + result.keldysh.nbytes
    counts["lattice.greens_bytes"] = max(counts["lattice.greens_bytes"], size)


def _dyson_solves(counts, args, kwargs, result):
    counts["keldysh.solves"] += result.retarded.shape[0]


def _superop_dim(counts, args, kwargs, result):
    counts["qme.superop_dim"] = max(counts["qme.superop_dim"], result.shape[0])


def _two_time(counts, args, kwargs, result):
    counts["kbe.steps"] += result.t_grid.size - 1
    size = result.retarded.nbytes + result.keldysh.nbytes
    counts["kbe.two_time_bytes"] = max(counts["kbe.two_time_bytes"], size)


# (defining module, attribute, span name, counter). A "Class.method"
# attribute is wrapped on the class. Every span's self time is reported
# under its span name; run_experiment's self time is the harness remainder.
TARGETS = (
    ("noisychain.harness", "run_experiment", "harness.run", None),
    ("noisychain.harness", "compare_artifacts", "harness.compare", None),
    ("noisychain.harness", "find_spectral_peaks", "harness.peaks", None),
    ("noisychain.baths", "principal_value_transform", "baths.pv_transform", _pv_calls),
    ("noisychain.baths", "noise_power", "baths.noise_power", _noise_power),
    ("noisychain.lattice", "ideal_greens", "lattice.ideal_greens", _greens_bytes),
    ("noisychain.keldysh", "steady_state_greens", "keldysh.other", None),
    ("noisychain.keldysh", "spectral_weight", "keldysh.other", None),
    ("noisychain.keldysh", "extract_rates", "keldysh.other", None),
    ("noisychain.keldysh", "dephasing_self_energy", "keldysh.self_energy", None),
    ("noisychain.keldysh", "dyson_solve", "keldysh.dyson", _dyson_solves),
    ("noisychain.qme", "bloch_redfield_generator", "qme.generator", None),
    ("noisychain.qme", "LindbladGenerator.superoperator", "qme.generator", _superop_dim),
    ("noisychain.qme", "BlochRedfieldGenerator.superoperator", "qme.generator", _superop_dim),
    ("noisychain.qme", "steady_state", "qme.steady_state", None),
    ("noisychain.qme", "qme_greens", "qme.greens", None),
    ("noisychain.qme", "lindblad_evolve", "qme.evolve", None),
    ("noisychain.qme", "exact_tls_evolve", "qme.exact_tls", None),
    ("noisychain.kbe", "kbe_integrate", "kbe.integrate", _two_time),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTERS = (
    "baths.pv_transform_calls",
    "baths.noise_power_calls",
    "baths.noise_power_points",
    "lattice.greens_bytes",
    "keldysh.solves",
    "qme.superop_dim",
    "kbe.steps",
    "kbe.two_time_bytes",
)


def resolve(module, attr):
    """(owner, name, object) for a TARGETS entry, or None if it is gone."""

    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


def patch_everywhere(owner, name, target, replacement):
    """Bind `replacement` wherever `target` is bound; return the undo list.

    A function is rebound in every loaded noisychain module that holds it;
    a method only on its class.
    """

    if isinstance(owner, type):
        places = [(owner, name)]
    else:
        places = [
            (mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "noisychain" or mod_name.startswith("noisychain.")
            for key, value in list(vars(mod).items())
            if value is target
        ]
    for obj, key in places:
        setattr(obj, key, replacement)
    return [(obj, key, target) for obj, key in places]


def restore(undo):
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)


class Tracer:
    """Spans and counters of the calls made while the tracer is entered."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._undo = []

    def _wrap(self, span, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        try:
            for module, attr, span, counter in TARGETS:
                found = resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, name, fn = found
                self._undo += patch_everywhere(owner, name, fn, self._wrap(span, fn, counter))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        self._undo = []
        return False

    def self_times(self):
        """Span name -> summed duration minus the time its child spans cover."""

        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out
