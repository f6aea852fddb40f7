"""Benchmark of the infodesign CLI: end-to-end metrics and per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, both modes
    python3 bench/run.py --workload all --tiny --seconds 1   # smoke run

Run from anywhere; the checkout root is the parent of this directory, and
the program is imported from its src/. Every measurement runs in a fresh
interpreter (worker.py). With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, plus trace.overhead_s against an untraced run of the same rounds.
End-to-end times are rescaled by the clock probe timed after each call to
the core speed at which the probe takes PROBE_REF_S (README.md, Noise).
Lines before it give units, sample counts, the unscaled figures and the
versions measured. Full results, and the spans of traced runs, are written
under .bench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import decks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 4       # timed interpreter starts before and again after the workload
TAIL_ABOVE = 10        # call_tail_s keeps at least this many calls above it
# Times are reported at the core speed at which worker.clock_probe() takes
# this long: about its time under steady host load on the 2.1 GHz VM this
# was written on.
PROBE_REF_S = 0.002
MIN_CALLS = 24         # 4 grid_export rounds: its 16 surface calls alone fill the tail
CHILD_TIMEOUT = 150.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s",
              "call_tail_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed call)."""


def _env(workdir: Path) -> dict:
    # PYTHONPATH could shadow src/. Bytecode caching is left on, so set-up is
    # timed against warm caches, as an installed package would run.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(dict.fromkeys(THREAD_CAPS, "1"))
    env.update(PYTHONHASHSEED="0", TMPDIR=str(workdir))
    return env


def _worker(workdir: Path, *args: str) -> tuple:
    """Run worker.py to completion; return the seconds from spawn to
    ``ready`` and the clock probe time the worker printed after it."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--src", str(SRC), *args],
                            cwd=workdir, env=_env(workdir), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        probe = proc.stdout.readline()
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    try:
        return ready, float(probe)
    except ValueError:
        raise BenchError(f"worker printed {probe!r} after ready") from None


def _measure(workdir: Path, deck_path: Path, seconds: float, **opts) -> tuple:
    result_path = workdir / "result.json"
    args = ["--deck", str(deck_path), "--result", str(result_path),
            "--seconds", repr(seconds)]
    for key, value in opts.items():
        if value is True:
            args.append("--" + key.replace("_", "-"))
        elif value not in (None, False):
            args += ["--" + key.replace("_", "-"), str(value)]
    setup = _worker(workdir, *args)
    with open(result_path) as f:
        return setup, json.load(f)


def tail(latencies) -> tuple:
    """(latency, percentile) of the slowest call with TAIL_ABOVE calls above
    it, or None when there are too few calls."""
    n = len(latencies)
    if n <= TAIL_ABOVE:
        return None
    return sorted(latencies)[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def at_reference_clock(seconds: float, probe: float) -> float:
    """Seconds taken while the clock probe took ``probe``, rescaled to the
    core speed at which it takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe


def scaled_rounds(result) -> list:
    """Each round's call time, every call rescaled by the probes around it."""
    rounds = [0.0] * len(result["round_walls"])
    for c in result["calls"]:
        rounds[c["round"]] += at_reference_clock(c["latency"], c["clock"])
    return rounds


def end_to_end(setups, result) -> tuple:
    """End-to-end metrics at the reference clock, their sample notes, and
    the same figures as measured, unscaled."""
    latencies = [at_reference_clock(c["latency"], c["clock"]) for c in result["calls"]]
    rounds = scaled_rounds(result)
    values = {"setup_s": statistics.median(at_reference_clock(*s) for s in setups),
              "wall_s": statistics.fmean(rounds),
              "call_p50_s": statistics.median(latencies),
              "peak_rss_mib": result["rss_kib"] / 1024.0}
    samples = {"setup_s": f"median of {len(setups)} interpreter starts",
               "wall_s": f"mean of {len(rounds)} rounds",
               "call_p50_s": f"median of {len(latencies)} calls",
               "peak_rss_mib": "ru_maxrss of the workload process"}
    raw_latencies = [c["latency"] for c in result["calls"]]
    raw = {"setup_s": statistics.median(s[0] for s in setups),
           "wall_s": statistics.fmean(result["round_walls"]),
           "call_p50_s": statistics.median(raw_latencies),
           "clock_probe_s": statistics.median(c["clock"] for c in result["calls"])}
    got = tail(latencies)
    if got is not None:
        values["call_tail_s"] = got[0]
        samples["call_tail_s"] = (f"p{got[1]:.1f} of {len(latencies)} calls, "
                                  f"{TAIL_ABOVE} above")
        raw["call_tail_s"] = tail(raw_latencies)[0]
    return values, samples, raw


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def meta() -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "click": metadata.version("click"),
            "nproc": os.cpu_count()}


def _require_program() -> None:
    if not (SRC / "infodesign" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'infodesign'} is missing")


@contextlib.contextmanager
def _deck(workload: str, seed: int, tag: str, tiny: bool):
    """A fresh work directory holding the workload's seeded inputs and deck."""
    workdir = WORK / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        rounds = decks.build(workload, seed, str(workdir), tiny)
        deck_path = workdir / "deck.json"
        deck_path.write_text(json.dumps({"workload": workload, "rounds": rounds}))
        yield workdir, deck_path
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """One benchmark run; returns the driver line plus what backs it."""
    _require_program()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    golden = seed == checks.GOLDEN_SEED and not tiny
    doc = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(trace), "tiny": tiny, "meta": meta()}
    with _deck(workload, seed, f"trace{int(trace)}", tiny) as (workdir, deck_path):
        if not trace:
            _worker(workdir, "--probe")  # fills bytecode caches; not timed
            setups = [_worker(workdir, "--probe") for _ in range(SETUP_PROBES)]
            setup, result = _measure(workdir, deck_path, seconds,
                                     min_calls=MIN_CALLS, golden=golden)
            setups += [setup] + [_worker(workdir, "--probe") for _ in range(SETUP_PROBES)]
            values, samples, doc["measured"] = end_to_end(setups, result)
            units, phases = END_TO_END, [result]
        else:
            _, plain = _measure(workdir, deck_path, seconds / 2, golden=golden)
            _, traced = _measure(workdir, deck_path, float("inf"), golden=golden,
                                 rounds=len(plain["round_walls"]),
                                 trace=f"{stem}.spans.jsonl")
            values, samples = (dict(traced["layers"][k]) for k in ("values", "samples"))
            values["trace.overhead_s"] = (statistics.fmean(scaled_rounds(traced))
                                          - statistics.fmean(scaled_rounds(plain)))
            samples["trace.overhead_s"] = (f"mean of {len(plain['round_walls'])} "
                                           f"traced minus untraced rounds")
            units, phases = spans.UNITS, [plain, traced]
    calls = [c for phase in phases for c in phase["calls"]]
    doc["driver"] = {
        "correct": all(c["outcome"] != "wrong" for c in calls),
        "attempted": len(calls),
        "failed": sum(c["outcome"] != "passed" for c in calls),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values}}
    doc["samples"] = samples
    doc["goldens_compared"] = all(p["goldens_compared"] for p in phases)
    doc["outcomes"] = _outcomes(calls)
    doc["phases"] = phases
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1))
    return doc


def _outcomes(calls) -> dict:
    tally = {}
    for c in calls:
        label = c["outcome"] if c["outcome"] == "passed" else f"{c['outcome']}: {c['detail']}"
        tally[label] = tally.get(label, 0) + 1
    return tally


def report(doc: dict) -> list:
    """Human-readable lines: every metric with unit and sample count."""
    d, m = doc["driver"], doc["meta"]
    lines = [f"# {doc['workload']} seed={doc['seed']} seconds={doc['seconds']} "
             f"trace={doc['trace']}{' tiny' if doc['tiny'] else ''} | "
             f"sha={m['git_sha']} python={m['python']} numpy={m['numpy']} "
             f"click={m['click']} nproc={m['nproc']}"]
    for name, entry in d["metrics"].items():
        note = doc["samples"].get(name, "")
        if doc["trace"] and isinstance(note, int):
            note = f"{note} spans" if note else "absent: no spans of this layer here"
        lines.append(f"  {name:38s} {entry['value']:>14.6g} {entry['unit']:6s} {note}")
    if not doc["trace"]:
        measured = doc["measured"]
        lines.append("  times above are at the reference clock; as measured: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in measured.items() if k != "clock_probe_s"))
        lines.append(f"  clock probe: median {measured['clock_probe_s']:.6g} s, "
                     f"reference {PROBE_REF_S:g} s")
        if "call_tail_s" not in d["metrics"]:
            lines.append(f"  {'call_tail_s':38s} {'omitted':>14s} {'s':6s} "
                         f"fewer than {TAIL_ABOVE + 1} calls")
        ratio = d["failed"] / d["attempted"]
        lines.append(f"  {'fail_ratio':38s} {ratio:>14.6g} {'ratio':6s} "
                     f"{d['failed']} of {d['attempted']} calls failed")
    for label, count in doc["outcomes"].items():
        lines.append(f"  outcome x{count}: {label}")
    checked = ["invariants"]
    if doc["goldens_compared"]:
        checked.append("golden bytes")
    if doc["workload"] == "channel_capacity":
        checked.append("capacity certificate")
    lines.append(f"  output checks: {', '.join(checked)}; correct={d['correct']}")
    return lines


def write_goldens() -> None:
    """Record the data-output digests of one pass over every full-size deck
    at GOLDEN_SEED. Capacity reports are checked by certificate instead,
    since their iterations and residual may legitimately change."""
    _require_program()
    digests = {}
    for workload in decks.WORKLOADS:
        if workload == "channel_capacity":
            continue
        with _deck(workload, checks.GOLDEN_SEED, "goldens", False) as (workdir, deck_path):
            _, result = _measure(workdir, deck_path, float("inf"),
                                 rounds=decks.DECK_ROUNDS[workload])
        bad = _outcomes(c for c in result["calls"] if c["outcome"] == "wrong")
        if bad:
            raise BenchError(f"{workload}: outputs fail their checks: {bad}")
        digests[workload] = result["digests"]
    Path(checks.GOLDENS).write_text(json.dumps(
        {"seed": checks.GOLDEN_SEED, "machine": checks.machine_key(),
         "digests": digests}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*decks.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; goldens are not compared")
    ap.add_argument("--write-goldens", action="store_true",
                    help="record output digests at the golden seed and exit")
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the running worker is killed
    # and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.write_goldens:
            write_goldens()
            return 0
        if args.workload == "all":
            for workload in decks.WORKLOADS:
                for trace in (False, True):
                    doc = measure(workload, args.seed, args.seconds, trace, args.tiny)
                    print("\n".join(report(doc)), flush=True)
            return 0
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.tiny)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print("\n".join(report(doc)))
    print(json.dumps(doc["driver"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
