"""In-memory span tracer that wraps nfsg's public functions from outside.

Each function is replaced in the namespace its callers look it up in.
`analysis` binds `mlap_levels`, `beam_depth` and the geometry laws by name,
and `montecarlo` binds `sample_user_arrays`, so patching `nfsg.pattern` or
`nfsg.geometry` would miss those calls. `kernels.*` and the `analysis`,
`montecarlo` and `cli` entry points are looked up through their module, so
they are wrapped there. `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import gzip
import math
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import TAU_GRID_DB

# span fields
NAME, START, END, PARENT, THREAD, TAG, ERROR = range(7)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    thread, an optional tag and the exception type it raised, if any."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()
        self._patched: list[tuple] = []
        self.t0 = time.perf_counter()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, namespace, attr: str, name, work=None, tag=None):
        """Replace namespace.attr by a recording wrapper.

        name: span name, or a callable of the call's arguments giving it.
        work: callable(result, *args, **kwargs) -> {counter suffix: amount};
              counters are kept as '<span name>.<suffix>'.
        tag: callable of the call's arguments giving a per-span label.
        """
        original = getattr(namespace, attr)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = self._stack()
            # A pool worker starts with an empty stack; the span that waits
            # for it is the innermost open span of the thread that traces.
            parent = stack[-1] if stack else (self._root[-1] if self._root else None)
            span = [label, 0.0, 0.0, parent, threading.get_ident(),
                    tag(*args, **kwargs) if tag else None, None]
            self.spans.append(span)  # atomic under the interpreter lock
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                counts = {f"{label}.{k}": v for k, v in work(result, *args, **kwargs).items()}
                with self._lock:
                    self.work.update(counts)
            return result

        functools.update_wrapper(traced, original)
        setattr(namespace, attr, traced)
        self._patched.append((namespace, attr, original))

    def restore(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def write(self, path: str):
        """Write the spans as gzipped CSV, times in seconds from tracer start."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent", "thread",
                          "tag", "error"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s[NAME], f"{s[START] - self.t0:.9f}",
                              f"{s[END] - self.t0:.9f}",
                              "" if s[PARENT] is None else ids[id(s[PARENT])],
                              s[THREAD], s[TAG] or "", s[ERROR] or ""))

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[id(s[PARENT])].append((s[START], s[END]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s[START]
            for lo, hi in sorted(children.get(id(s), ())):
                lo, hi = max(lo, reach), min(hi, s[END])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s[END] - s[START] - covered)
        return out


def _tau_db(tau, *args, **kwargs) -> str:
    return f"{round(10.0 * math.log10(tau), 6):g}"


def _broadcast_size(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


def _gain_pairs_work(result, theta_a, r_a, theta_b, r_b, n_antennas, wavelength):
    pairs = _broadcast_size(theta_a, r_a, theta_b, r_b)
    return {"pairs": pairs, "antenna_terms": pairs * math.ceil(int(n_antennas) / 2)}


def _cf_reduce_work(result, gains, weights, t):
    return {"evals": _broadcast_size(gains) * _broadcast_size(t)}


def _interference_work(result, theta, r, n_antennas, wavelength):
    sets, k = result.shape
    return {"user_sets": sets, "pairs": sets * k * (k - 1) // 2}


def _network_work(result, plan, tau_grid):
    return {"trials": plan.n_trials,
            "blocks": math.ceil(plan.n_trials / plan.block_size)}


def _emit_work(result, table, path, fmt="csv"):
    return {"bytes": os.path.getsize(result)}


def _se_and_ase_name(tau, scenario, mode="mlap", *args, **kwargs) -> str:
    return f"analysis.se_and_ase.{mode}"


def install(tracer: Tracer):
    """Wrap the layer boundaries of nfsg that the benchmark reports on."""
    from nfsg import analysis, cli, kernels, montecarlo

    tracer.wrap(kernels, "gain_pairs", "kernels.gain_pairs", _gain_pairs_work)
    tracer.wrap(kernels, "cf_reduce", "kernels.cf_reduce", _cf_reduce_work)
    tracer.wrap(kernels, "interference_sums", "kernels.interference_sums",
                _interference_work)
    tracer.wrap(analysis, "se_and_ase", _se_and_ase_name, tag=_tau_db)
    tracer.wrap(analysis, "conditional_cp", "analysis.conditional_cp")
    for attr in ("mlap_levels", "beam_depth"):
        tracer.wrap(analysis, attr, f"pattern.{attr}")
    for attr in ("spatial_angle_cdf_extended", "conditional_cdf_extended",
                 "ordered_distance_dist"):
        tracer.wrap(analysis, attr, f"geometry.{attr}")
    tracer.wrap(montecarlo, "sample_user_arrays", "geometry.sample_user_arrays")
    tracer.wrap(montecarlo, "estimate_network", "montecarlo.estimate_network",
                _network_work)
    tracer.wrap(cli, "parse_config", "config.parse_config")
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap(cli, "emit_results", "cli.emit_results", _emit_work)


_TIMED = ("kernels.gain_pairs", "kernels.cf_reduce", "kernels.interference_sums",
          "analysis.se_and_ase.mlap", "analysis.se_and_ase.upper",
          "analysis.conditional_cp", "pattern.mlap_levels", "pattern.beam_depth",
          "geometry.spatial_angle_cdf_extended", "geometry.conditional_cdf_extended",
          "geometry.ordered_distance_dist", "geometry.sample_user_arrays",
          "montecarlo.estimate_network", "config.parse_config",
          "cli.run_experiment", "cli.emit_results")
_SELF_TIMED = ("analysis.se_and_ase.mlap", "analysis.se_and_ase.upper",
               "analysis.conditional_cp", "montecarlo.estimate_network")
_WORK = ("kernels.gain_pairs.pairs", "kernels.gain_pairs.antenna_terms",
         "kernels.cf_reduce.evals", "kernels.interference_sums.user_sets",
         "kernels.interference_sums.pairs", "montecarlo.estimate_network.trials",
         "cli.emit_results.bytes")


def layer_metrics(tracer: Tracer, side_grid_info, wall_s: float) -> dict:
    """Per-layer counts, busy time (summed over threads) and self time.

    side_grid_info is analysis._side_grid.cache_info() read after the run;
    wall_s is the traced experiment's wall time.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    m: dict[str, float] = {}
    for name in _TIMED:
        m[f"{name}.calls"] = 0
        m[f"{name}.busy_s"] = 0.0
    for name in _SELF_TIMED:
        m[f"{name}.self_s"] = 0.0
    for tau in TAU_GRID_DB:
        m[f"analysis.se_and_ase.mlap.busy_s.{tau:g}"] = 0.0
    for key in _WORK:
        m[key] = tracer.work.get(key, 0)

    failures = 0
    kernel_threads = set()
    for s, self_s in zip(spans, selfs):
        name, dur = s[NAME], s[END] - s[START]
        m[f"{name}.calls"] += 1
        m[f"{name}.busy_s"] += dur
        if name in _SELF_TIMED:
            m[f"{name}.self_s"] += self_s
        if name == "analysis.se_and_ase.mlap":
            key = f"{name}.busy_s.{s[TAG]}"
            m[key] = m.get(key, 0.0) + dur
        if name == "kernels.interference_sums":
            kernel_threads.add(s[THREAD])
        # count a failure once, where it leaves the analysis layer
        if (s[ERROR] == "NumericFailureError" and name.startswith("analysis.")
                and (s[PARENT] is None
                     or not s[PARENT][NAME].startswith("analysis."))):
            failures += 1

    hits, misses = side_grid_info.hits, side_grid_info.misses
    m["analysis.side_grid.hits"] = hits
    m["analysis.side_grid.misses"] = misses
    m["analysis.side_grid.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["analysis.numeric_failures"] = failures
    m["montecarlo.blocks"] = tracer.work.get("montecarlo.estimate_network.blocks", 0)
    threads = len(kernel_threads)
    m["montecarlo.threads"] = threads
    m["montecarlo.parallel_efficiency"] = (
        m["kernels.interference_sums.busy_s"] / (wall_s * threads) if threads else 0.0)
    # each of these runs once per experiment, so only its busy time is kept
    for name in ("config.parse_config", "cli.run_experiment", "cli.emit_results"):
        del m[f"{name}.calls"]
    return m
