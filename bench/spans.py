"""Per-layer tracing from outside the program.

A Tracer replaces the module-level names each layer is reached through with
timing wrappers, on every infodesign module that imported them (so both
``infodesign.splitting.split_masks`` and ``infodesign.persuasion.split_masks``
are traced), and puts the originals back on exit. Spans stay in memory as
(id, name, start, end, parent, call, peak_bytes, info) tuples and are written
out when the run ends. Memory peaks come from tracemalloc, which runs only
inside the spans that report one, so the rest of the program (the CSV writer
above all) is timed without allocation tracing. Untraced runs never import
this module.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np

# Traced functions by defining module, with the layer each belongs to.
TRACED = {
    "infodesign.cli": ("cli", ["main"]),
    "infodesign.splitting": ("splitting", ["split_masks", "region_scan"]),
    "infodesign.persuasion": ("persuasion", ["solve_equilibrium",
                                             "grid_best_replies"]),
    "infodesign.mac": ("mac", ["scenario_surface"]),
    "infodesign.channel": ("channel", ["capacity"]),
    "infodesign.coding": ("coding", ["generate_codebook", "trial_streams",
                                     "encode", "decode", "transmit",
                                     "generate_actions", "run_trial"]),
    "infodesign.prob": ("prob", ["marginal", "conditional"]),
}
MEMORY_SPANS = {"split_masks", "solve_equilibrium", "scenario_surface"}
MIB = float(1 << 20)


def _cells(resolution) -> int:
    return (round(1.0 / resolution) + 1) ** 2


def _grid_size(a, b) -> int:
    return math.prod(np.broadcast_shapes(np.shape(a), np.shape(b)))


def _codeword_symbols(a, result, exc):
    cb = a["cb"]
    return cb.size * cb.n


# Work counts read from a span's bound arguments, result or exception.
INFO = {
    "split_masks": lambda a, r, e: _grid_size(a["p1_grid"], a["p2_grid"]),
    "solve_equilibrium": lambda a, r, e: _cells(a["resolution"]),
    "scenario_surface": lambda a, r, e: _cells(a["resolution"]),
    "grid_best_replies": lambda a, r, e: len(a["q_grid"]),
    "capacity": lambda a, r, e: ([a["max_iter"], 1] if e is not None
                                 else [r.iterations, 0]),
    "generate_codebook": lambda a, r, e: r.size,
    "encode": _codeword_symbols,
    "decode": _codeword_symbols,
    "run_trial": lambda a, r, e: [int(not r.error_event), int(r.chosen_m is None),
                                  int(r.decoded_m is None)],
}


class Tracer:
    """Context manager that traces every function in TRACED.

    The caller sets ``call`` to the index of the CLI call in progress; each
    span records it, so spans can be grouped by call and round.
    """

    def __init__(self):
        self.spans = []
        self.call = -1
        self._stack = []
        self._mem = []
        self._next = 0
        self._patched = []

    def __enter__(self):
        modules = _program_modules()
        for modname, (_, names) in TRACED.items():
            for name in names:
                original = getattr(sys.modules[modname], name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        info = INFO.get(name)
        sig = inspect.signature(fn) if info else None
        track = name in MEMORY_SPANS
        stack, mem, spans = self._stack, self._mem, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if track:
                if not mem:
                    tracemalloc.start()
                current, peak = tracemalloc.get_traced_memory()
                if mem:
                    mem[-1][1] = max(mem[-1][1], peak)
                tracemalloc.reset_peak()
                mem.append([current, 0])
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                peak_bytes = None
                if track:
                    _, peak = tracemalloc.get_traced_memory()
                    base, seen = mem.pop()
                    top = max(peak, seen)
                    if mem:
                        mem[-1][1] = max(mem[-1][1], top)
                    else:
                        tracemalloc.stop()
                    peak_bytes = top - base
                detail = None
                if info:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    detail = info(bound.arguments, result, error)
                spans.append((sid, name, start, end, parent, self.call,
                              peak_bytes, detail))

        wrapper.__traced__ = True
        return wrapper


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "infodesign" or n.startswith("infodesign."))]


def leftovers() -> list:
    """Names in infodesign modules still bound to a tracing wrapper."""
    return [f"{m.__name__}.{attr}" for m in _program_modules()
            for attr, value in vars(m).items() if getattr(value, "__traced__", False)]


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child = {}
    for sid, _, start, end, parent, *_ in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    return {s[0]: (s[3] - s[2]) - child.get(s[0], 0.0) for s in spans}


# name, unit, the spans it reads, what it takes from each span (its self
# time, 1, its peak in MiB, its work count, or item k of a list-valued work
# count as "info<k>") and how a round's values fold into one.
PER_LAYER = [
    ("cli.self_s", "s", ["main"], "self", sum),
    ("cli.calls", "count", ["main"], "one", sum),
    ("cli.bytes_out", "B", [], None, None),
    ("cli.write_mib_per_s", "MiB/s", [], None, None),
    ("splitting.split_masks_s", "s", ["split_masks"], "self", sum),
    ("splitting.split_masks_cells", "count", ["split_masks"], "info", sum),
    ("splitting.split_masks_peak_mib", "MiB", ["split_masks"], "peak", max),
    ("splitting.region_scan_s", "s", ["region_scan"], "self", sum),
    ("persuasion.solve_s", "s", ["solve_equilibrium"], "self", sum),
    ("persuasion.solve_cells", "count", ["solve_equilibrium"], "info", sum),
    ("persuasion.solve_peak_mib", "MiB", ["solve_equilibrium"], "peak", max),
    ("persuasion.grid_best_replies_s", "s", ["grid_best_replies"], "self", sum),
    ("persuasion.grid_best_replies_points", "count", ["grid_best_replies"], "info", sum),
    ("mac.surface_s", "s", ["scenario_surface"], "self", sum),
    ("mac.surface_cells", "count", ["scenario_surface"], "info", sum),
    ("mac.surface_peak_mib", "MiB", ["scenario_surface"], "peak", max),
    ("channel.capacity_s", "s", ["capacity"], "self", sum),
    ("channel.capacity_calls", "count", ["capacity"], "one", sum),
    ("channel.sweeps", "count", ["capacity"], "info0", sum),
    ("channel.no_convergence", "count", ["capacity"], "info1", sum),
    ("coding.codebook_s", "s", ["generate_codebook"], "self", sum),
    ("coding.codebook_words", "count", ["generate_codebook"], "info", sum),
    ("coding.streams_s", "s", ["trial_streams"], "self", sum),
    ("coding.encode_s", "s", ["encode"], "self", sum),
    ("coding.decode_s", "s", ["decode"], "self", sum),
    ("coding.transmit_s", "s", ["transmit"], "self", sum),
    ("coding.actions_s", "s", ["generate_actions"], "self", sum),
    ("coding.trial_self_s", "s", ["run_trial"], "self", sum),
    ("coding.trials", "count", ["run_trial"], "one", sum),
    ("coding.ok_ratio", "ratio", ["run_trial"], None, None),
    ("coding.nocover", "count", ["run_trial"], "info1", sum),
    ("coding.decodefail", "count", ["run_trial"], "info2", sum),
    ("coding.type_scan_symbols", "count", ["encode", "decode"], "info", sum),
    ("prob.marginal_calls", "count", ["marginal"], "one", sum),
    ("prob.conditional_calls", "count", ["conditional"], "one", sum),
    ("prob.derive_s", "s", ["marginal", "conditional"], "self", sum),
    ("trace.overhead_s", "s", [], None, None),
]
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def _take(kind, span, self_s):
    if kind == "self":
        return self_s
    if kind == "one":
        return 1
    if kind == "peak":
        return span[6] / MIB
    info = span[7]
    return info if kind == "info" else info[int(kind[-1])]


def layer_metrics(spans, call_round: list, bytes_out: list) -> tuple:
    """Per-layer metrics and, per metric, how many spans fed it.

    call_round[c] is the round of call c and bytes_out[c] the bytes it
    wrote. Times and counts are medians over rounds of the round's total;
    peaks are medians of the round's largest span; ratios pool all rounds.
    """
    rounds = sorted(set(call_round))
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    values, samples = {}, {}
    for name, _, names, kind, fold in PER_LAYER:
        chosen = [s for n in names for s in by_name.get(n, [])]
        samples[name] = len(chosen)
        if kind is None:
            continue
        per_round = {r: [] for r in rounds}
        for s in chosen:
            per_round[call_round[s[5]]].append(_take(kind, s, selfs[s[0]]))
        values[name] = statistics.median(fold(v) if v else 0 for v in per_round.values())
    per_round_bytes = {r: 0 for r in rounds}
    for c, b in enumerate(bytes_out):
        per_round_bytes[call_round[c]] += b
    values["cli.bytes_out"] = statistics.median(per_round_bytes.values())
    samples["cli.bytes_out"] = samples["cli.write_mib_per_s"] = len(bytes_out)
    cli_self = sum(selfs[s[0]] for s in by_name.get("main", []))
    values["cli.write_mib_per_s"] = sum(bytes_out) / MIB / cli_self if cli_self else 0.0
    trials = by_name.get("run_trial", [])
    values["coding.ok_ratio"] = (sum(s[7][0] for s in trials) / len(trials)
                                 if trials else 0.0)
    return values, samples


def write_spans(path: str, spans) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
