"""One workload process: a closed loop of in-process CLI calls.

Started fresh by run.py for every measurement. It puts the checkout's own
src/ first on the path, imports infodesign.cli and prints ``ready`` (the end
of set-up) and the time of one clock probe, then issues one
``infodesign.cli.main(argv)`` call after the previous one returned, cycling
through the deck's rounds until the time budget is spent. A clock probe
follows every call, and the call's output is checked after that, outside
its timer. Results go to a JSON file; stdout carries only the two lines.

    python3 worker.py --src SRC --probe
    python3 worker.py --src SRC --deck DECK --result OUT --seconds S
                      [--min-calls N] [--rounds K] [--golden] [--trace SPANS]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_program(src: str):
    sys.path.insert(0, src)
    import infodesign.cli as cli
    here = os.path.realpath(os.path.dirname(cli.__file__))
    if os.path.dirname(here) != os.path.realpath(src):
        raise SystemExit(f"imported infodesign from {here}, not from {src}")
    return cli


def clock_probe() -> float:
    """Seconds one fixed piece of pure-Python work takes: dict updates, int
    to str conversions and float formatting, the kind of work the program's
    interpreter-bound paths do. It stays in the CPU's caches and calls
    nothing of the program, so its time follows only the speed the core
    runs at, which the host's other load changes."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + len(str(i))
    ",".join([f"{i * 0.37:.6g}" for i in range(1200)])
    return time.perf_counter() - t0


def _remove(paths) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def run(cli, deck, args) -> dict:
    import checks

    goldens = checks.load_goldens(deck["workload"]) if args.golden else None
    rounds = deck["rounds"]
    calls, round_walls, digests = [], [], {}
    tracing = contextlib.nullcontext()
    if args.trace:
        import spans
        tracing = spans.Tracer()
    started = time.perf_counter()
    clock = clock_probe()
    with tracing as tracer:
        r = 0
        while r < args.rounds and (time.perf_counter() - started < args.seconds
                                   or len(calls) < args.min_calls):
            wall = 0.0
            for i, call in enumerate(rounds[r % len(rounds)]):
                key = f"{r % len(rounds)}/{i}"
                written = call["outputs"] + [call["outputs"][0] + ".manifest.json"]
                _remove(written)
                out, err = io.StringIO(), io.StringIO()
                if tracer:
                    tracer.call = len(calls)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = time.perf_counter()
                    try:
                        rc = cli.main(call["argv"])
                    except Exception:  # a crash is an outcome to record, not to stop on
                        rc = None
                        err.write(traceback.format_exc())
                    latency = time.perf_counter() - t0
                # the core's speed during the call: probes just before and after
                before, clock = clock, clock_probe()
                wall += latency
                if rc is None:
                    outcome, detail, got = "wrong", err.getvalue()[-500:], {}
                else:
                    golden = goldens.get(key) if goldens is not None else None
                    outcome, detail, got = checks.check_call(
                        call, ".", rc, err.getvalue(), golden)
                if got:
                    digests[key] = got
                size = sum(os.path.getsize(p) for p in written if os.path.exists(p))
                _remove(written)
                calls.append({"round": r, "key": key, "latency": latency,
                              "clock": (before + clock) / 2,
                              "outcome": outcome, "detail": detail, "bytes": size})
            round_walls.append(wall)
            r += 1
    result = {"calls": calls, "round_walls": round_walls, "digests": digests,
              "goldens_compared": goldens is not None,
              "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        leftover = spans.leftovers()
        if leftover:
            raise RuntimeError(f"wrappers still installed: {leftover}")
        spans.write_spans(args.trace, tracer.spans)
        values, samples = spans.layer_metrics(
            tracer.spans, [c["round"] for c in calls], [c["bytes"] for c in calls])
        result["layers"] = {"values": values, "samples": samples}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", required=True)
    ap.add_argument("--probe", action="store_true",
                    help="exit right after set-up")
    ap.add_argument("--deck")
    ap.add_argument("--result")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-calls", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=sys.maxsize)
    ap.add_argument("--golden", action="store_true",
                    help="compare data outputs with the recorded digests")
    ap.add_argument("--trace", metavar="SPANS",
                    help="trace layers and write spans to this file")
    args = ap.parse_args()
    cli = _import_program(args.src)
    print("ready", flush=True)
    print(repr(clock_probe()), flush=True)
    if args.probe:
        return 0
    with open(args.deck) as f:
        deck = json.load(f)
    result = run(cli, deck, args)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
