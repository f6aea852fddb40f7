"""Command-line front end: capacity reports, region grids, best-reply curves,
utility surfaces, equilibrium solves, and coordination simulations.

Grids and curves go to CSV (header row, 9 significant digits); reports go to
JSON. The posterior-square CSVs (region, surface) are joined from one text
fragment per (label, column) behind each row's p1 text, so only the values of
labelled cells are float-formatted. Every subcommand runs in one frame, _Run,
which digests each input from the bytes it parses and each output as it is
written, and writes a side-car manifest <out>.manifest.json recording the
resolved parameters, input digests, seed, version, output digests, and wall
clock. Data outputs are byte-identical across reruns; the manifest is the one
file that is not (it carries the duration). Every file of a run goes to a temp
file beside its target, and all are moved into place together when the run
completes, so a failed run leaves no output at all.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from .channel import CapacityError, bsc, capacity
from .coding import (coding_config_from_dict, run_experiment,
                     single_letter_utilities)
from .mac import build_scenario, default_config, scenario_surface
from .persuasion import (Block, OneShot, Unconstrained, csv_cell,
                         grid_best_replies, scenario_from_dict, solve_equilibrium)
from .prob import (StochasticMatrix, binary_entropy, checked_fields, marginal,
                   mutual_information)
from .splitting import RegionLabel, check_eps, grid_intervals, region_scan

CSV_BLOCK_ROWS = 4096


class UsageError(Exception):
    """A command line that cannot run: reported as a usage error, exit 2."""


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return x


class _HashingWriter:
    """Text sink over a binary file: each write goes out as UTF-8 and into
    sha, a SHA-256 of every byte written, so the digest needs no re-read."""

    def __init__(self, f):
        self.f, self.sha = f, hashlib.sha256()

    def write(self, text: str) -> None:
        data = text.encode()
        self.sha.update(data)
        self.f.write(data)


def _write_json(f, doc: dict) -> None:
    """Write doc to the text sink f as indented, key-sorted JSON."""
    f.write(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def _text(values) -> np.ndarray:
    """Cells formatted one by one with csv_cell, as an array to index."""
    return np.array([csv_cell(v) for v in values], dtype=object)


def _write_csv(f, header, columns) -> int:
    """Write equal-length columns under header to the text sink f; return
    the row count.

    Float columns are formatted with %.9g, which prints exactly what
    csv_cell does; every other column must already be text (see _text). Rows
    go out CSV_BLOCK_ROWS at a time, one % operation on a repeated row
    template each.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind not in "fO":
            raise TypeError(f"_write_csv: {c.dtype} column is not text")
    row = ",".join("%.9g" if c.dtype.kind == "f" else "%s"
                   for c in columns) + "\n"
    count = len(columns[0])
    width = len(columns)
    f.write(",".join(header) + "\n")
    for start in range(0, count, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, count)
        cells = [None] * ((stop - start) * width)
        for k, c in enumerate(columns):
            cells[k::width] = c[start:stop].tolist()
        f.write(row * (stop - start) % tuple(cells))
    return count


def _write_square(f, header, grid) -> int:
    """Write a posterior-square grid row-major to the text sink f, one line
    a cell (p1, p2, the cell of each of grid.values, the label name); return
    the cell count.

    A line's text after p1 depends only on its column and label, so one
    fragment per (label, column) is built first: ",<p2>", a %.9g slot per
    value (",nan" per value for INVALID_SPLIT) and ",<label>\n". Each block
    of about CSV_BLOCK_ROWS lines joins its rows' fragments behind each row's
    p1 text, and one % operation fills in the values of its labelled cells.
    Raises ValueError, writing nothing, if an INVALID_SPLIT cell holds a
    value that is not nan.
    """
    labels, values = grid.labels, grid.values
    n1, n2 = labels.shape
    invalid = labels == RegionLabel.INVALID_SPLIT
    if any(np.any(invalid & ~np.isnan(v)) for v in values):
        raise ValueError("_write_square: an INVALID_SPLIT cell holds a value")
    p2 = _text(grid.p2_axis)
    frags = np.empty((len(RegionLabel), n2), dtype=object)
    for label in RegionLabel:
        slot = ",nan" if label == RegionLabel.INVALID_SPLIT else ",%.9g"
        frags[label] = [f",{q}{slot * len(values)},{label.name}\n" for q in p2]
    p1 = _text(grid.p1_axis)
    cols = np.arange(n2)
    step = max(1, CSV_BLOCK_ROWS // n2)
    f.write(",".join(header) + "\n")
    for start in range(0, n1, step):
        rows = slice(start, min(start + step, n1))
        text = "".join(P + P.join(line) for P, line in
                       zip(p1[rows], frags[labels[rows], cols].tolist()))
        if values:
            kept = ~invalid[rows]
            text %= tuple(np.stack([v[rows][kept] for v in values],
                                   axis=-1).ravel().tolist())
        f.write(text)
    return n1 * n2


def _label_counts(grid) -> dict:
    """Cells per RegionLabel name of a posterior-square grid."""
    counts = np.bincount(grid.labels.ravel(), minlength=len(RegionLabel))
    return {label.name: int(counts[label]) for label in RegionLabel}


class _Run:
    """The frame of one subcommand run, as a context manager.

    Making one takes the start time and raises UsageError for an output, or
    the manifest beside the first, that is a directory or that resolves
    (symlinks followed) to an input or to another output. read(path) reads an
    input once and returns the JSON parsed from the bytes it digests.
    write(path, writer, *args) streams writer(sink, *args) through a
    _HashingWriter into a temp file beside path's target (symlinks resolved)
    and returns what writer does; a target that exists and is not a regular
    file (a FIFO, a device) is written in place. The body may set seed and
    counters and add to parameters. A clean exit writes the manifest beside
    the first output, then moves every temp file onto its target with the old
    file's permission bits, the manifest last; an exception removes them all.
    """

    def __init__(self, subcommand: str, inputs, outputs, parameters: dict):
        self.started = time.perf_counter()
        self.manifest = outputs[0] + ".manifest.json"
        claimed = {os.path.realpath(p): f"input {p}" for p in inputs}
        for role, path in [*(("output", p) for p in outputs),
                           ("manifest", self.manifest)]:
            real = os.path.realpath(path)
            if os.path.isdir(real):
                raise UsageError(f"{role} {path} is a directory")
            if real in claimed:
                raise UsageError(f"{role} {path} would overwrite {claimed[real]}")
            claimed[real] = f"{role} {path}"
        self.subcommand, self.parameters = subcommand, parameters
        self.seed = self.counters = None
        self.inputs, self.outputs, self._moves = {}, {}, []

    def __enter__(self):
        return self

    def read(self, path: str):
        with open(path, "rb") as f:
            data = f.read()
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return json.loads(data)

    def write(self, path: str, writer, *args):
        dest = target = os.path.realpath(path)
        old = os.stat(target) if os.path.exists(target) else None
        if old is None or stat.S_ISREG(old.st_mode):
            head, tail = os.path.split(target)
            dest = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            self._moves.append((dest, target, old))
        with open(dest, "wb") as f:
            sink = _HashingWriter(f)
            result = writer(sink, *args)
        self.outputs[path] = sink.sha.hexdigest()
        return result

    def __exit__(self, kind, value, tb):
        try:
            if kind is None:
                doc = {"subcommand": self.subcommand,
                       "parameters": self.parameters, "inputs": self.inputs,
                       "seed": self.seed, "version": __version__,
                       "duration_s": time.perf_counter() - self.started,
                       "outputs": dict(self.outputs)}
                if self.counters is not None:
                    doc["counters"] = self.counters
                self.write(self.manifest, _write_json, doc)
                for tmp, target, old in self._moves:
                    if old is not None:
                        os.chmod(tmp, stat.S_IMODE(old.st_mode))
                    os.replace(tmp, target)
        finally:
            for tmp, _, _ in self._moves:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)


def _scenario_files(spec: str) -> list:
    """The input files of a --scenario value: none for the literal 'mac'."""
    return [] if spec == "mac" else [spec]


def _scenario(run: _Run, spec: str):
    """The scenario of a --scenario value: the bundled case study for the
    literal 'mac', else the file read through run."""
    if spec == "mac":
        return build_scenario(default_config())
    return scenario_from_dict(run.read(spec))


def cmd_capacity(bsc_eps, matrix_file, tol, max_iter, out):
    """Channel capacity with the optimal input distribution."""
    inputs = [] if matrix_file is None else [matrix_file]
    spec = {"matrix_file": matrix_file} if inputs else {"bsc": bsc_eps}
    with _Run("capacity", inputs, [out], {"channel": spec, "tol": tol,
                                          "max_iter": max_iter, "out": out}) as run:
        if matrix_file is None:
            ch = bsc(bsc_eps)
        else:
            rows = run.read(matrix_file)
            if isinstance(rows, dict):
                checked_fields(rows, "channel matrix", ["matrix"])
                rows = rows["matrix"]
            try:
                ch = StochasticMatrix(rows)
            except (ValueError, TypeError) as e:
                raise ValueError(f"channel matrix: {e}") from None
        res = capacity(ch, tol=tol, max_iter=max_iter)
        report = {"capacity": res.capacity,
                  "optimal_input": res.optimal_input.probs,
                  "iterations": res.iterations,
                  "residual": res.residual,
                  "channel": spec,
                  "manifest": run.manifest}
        run.write(out, _write_json, report)
    print(json.dumps(_jsonable(report), sort_keys=True))


def cmd_region(p, eps, resolution, out):
    """Feasibility labels over the posterior square."""
    with _Run("region", [], [out], {"p": p, "eps": eps, "resolution": resolution,
                                    "out": out}) as run:
        grid = region_scan(p, eps, resolution)
        run.parameters["capacity"] = grid.capacity
        run.counters = _label_counts(grid)
        count = run.write(out, _write_square, ("p1", "p2", "label"), grid)
    print(f"wrote {out}: {count} cells")


def cmd_bestreply(scenario, step, out):
    """Receiver best reply and value swept over the prior."""
    with _Run("bestreply", _scenario_files(scenario), [out],
              {"scenario": scenario, "step": step, "out": out}) as run:
        sc = _scenario(run, scenario)
        grid = np.linspace(0.0, 1.0, grid_intervals(step, "bestreply", 1) + 1)
        sel, _, v2 = grid_best_replies(sc, grid)
        count = run.write(out, _write_csv, ("p", "v_star", "receiver_value"),
                          [grid, _text(sc.actions)[sel], v2])
    print(f"wrote {out}: {count} grid points")


def cmd_surface(scenario, mode, eps, resolution, out):
    """Split values over the posterior square, labeled by feasibility."""
    if mode != "unconstrained" and eps is None:
        raise UsageError(f"--mode {mode} requires --eps")
    if eps is not None:
        check_eps(eps, "surface")
    with _Run("surface", _scenario_files(scenario), [out],
              {"scenario": scenario, "mode": mode, "eps": eps,
               "resolution": resolution, "out": out}) as run:
        sc = _scenario(run, scenario)
        surf = scenario_surface(sc, resolution,
                                eps if mode != "unconstrained" else None)
        run.counters = _label_counts(surf)
        count = run.write(out, _write_square,
                          ("p1", "p2", "phi1", "phi2", "label"), surf)
    print(f"wrote {out}: {count} cells")


def _parse_mode(mode: str, eps, cap):
    if mode == "unconstrained":
        return Unconstrained()
    if mode == "one_shot":
        if eps is None:
            raise UsageError("--mode one_shot requires --eps")
        return OneShot(eps)
    if cap is None:
        if eps is None:
            raise UsageError("--mode block requires --eps or --cap")
        cap = 1.0 - binary_entropy(eps)
    return Block(cap)


def cmd_solve(scenario, mode, eps, cap, resolution, out):
    """Sender-optimal split under the chosen feasibility mode."""
    if eps is not None:
        check_eps(eps, "solve")
    mode_obj = _parse_mode(mode, eps, cap)
    cap = getattr(mode_obj, "capacity", None)
    with _Run("solve", _scenario_files(scenario), [out],
              {"scenario": scenario, "mode": mode, "eps": eps, "cap": cap,
               "resolution": resolution, "out": out}) as run:
        res = solve_equilibrium(_scenario(run, scenario), mode_obj, resolution)
        run.counters = {"cells_scanned": res.cells_scanned,
                        "cells_feasible": res.cells_feasible}
        report = {
            "mode": mode,
            "parameters": {"eps": eps, "cap": cap, "resolution": resolution},
            "phi1_star": res.phi1_star,
            "phi2_star": res.phi2_star,
            "posteriors": {"p1": res.posteriors.p1, "p2": res.posteriors.p2},
            "signal": {"alpha": res.signal.alpha, "beta": res.signal.beta},
            "message_weights": res.message_weights.probs,
            "receiver_actions": list(res.receiver_actions),
            "no_info": res.no_info,
            "feasibility": {"feasible": res.feasibility.feasible,
                            "slack": res.feasibility.slack,
                            "mode": res.feasibility.mode},
            "manifest": run.manifest,
        }
        run.write(out, _write_json, report)
    print(json.dumps(_jsonable(report), sort_keys=True))


def cmd_simulate(experiment, trials, seed, out, trials_csv):
    """Monte Carlo coordination run over the configured channel."""
    if trials_csv is None:
        stem = out[:-5] if out.endswith(".json") else out
        trials_csv = stem + "_trials.csv"
    with _Run("simulate", [experiment], [out, trials_csv],
              {"experiment": experiment, "trials": trials, "out": out,
               "trials_csv": trials_csv}) as run:
        cfg = coding_config_from_dict(run.read(experiment))
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        run.seed = cfg.seed

        rate_needed = mutual_information(marginal(cfg.target, ("u", "w")))
        cap = capacity(cfg.channel).capacity
        if cfg.rate <= rate_needed:
            raise ValueError(
                f"experiment.rate: covering requirement violated; rate {cfg.rate} "
                f"must exceed the signal's information rate {rate_needed:.6f} bits")
        if cfg.rate >= cap:
            raise ValueError(
                f"experiment.rate: packing requirement violated; rate {cfg.rate} "
                f"must stay below the channel capacity {cap:.6f} bits")

        summary = run_experiment(cfg, trials)
        phi1_sl, phi2_sl = single_letter_utilities(cfg)
        report = {
            "experiment": experiment,
            "rate": cfg.rate,
            "eps_typ": cfg.eps_typ,
            "seed": cfg.seed,
            "codebook_size": cfg.codebook_size,
            "typicality_radius": cfg.typicality_radius,
            "signal_information_rate": rate_needed,
            "channel_capacity": cap,
            **{f.name: getattr(summary, f.name)
               for f in dataclasses.fields(summary) if f.name != "results"},
            "single_letter": {"phi1": phi1_sl, "phi2": phi2_sl},
            "trials_csv": trials_csv,
            "manifest": run.manifest,
        }
        run.write(out, _write_json, report)
        results = summary.results
        run.write(trials_csv, _write_csv,
                  ("trial", "error", "chosen_m", "decoded_m",
                   "l1_to_target", "util1", "util2"),
                  [_text(range(len(results))),
                   _text(r.error_event for r in results),
                   _text(r.chosen_m for r in results),
                   _text(r.decoded_m for r in results),
                   np.array([r.l1_to_target for r in results], dtype=float),
                   np.array([r.util1_n for r in results], dtype=float),
                   np.array([r.util2_n for r in results], dtype=float)])
    print(json.dumps(_jsonable({k: report[k] for k in
                                ("error_rate", "mean_l1", "mean_util1",
                                 "mean_util2", "trials")}), sort_keys=True))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError for a command line it refuses
    and reads the token after an option not in FLAGS as its one value, even
    one that starts with '-' ('--cap', '-1e-3' as '--cap=-1e-3')."""

    FLAGS = ("--", "--help", "--version")

    def parse_known_args(self, args=None, namespace=None):
        joined, rest = [], iter(sys.argv[1:] if args is None else args)
        for arg in rest:
            if arg.startswith("--") and "=" not in arg and arg not in self.FLAGS:
                value = next(rest, None)
                if value is not None:
                    arg = f"{arg}={value}"
            joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        raise UsageError(message)


def _input_file(path: str) -> str:
    """argparse type of --matrix and --experiment: a readable non-directory."""
    if os.path.isdir(path) or not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not a readable file")
    return path


def _parser() -> _Parser:
    """The command line: one subparser per subcommand, which calls its cmd_*
    function with the parsed options as keyword arguments."""
    parser = _Parser(prog="infodesign", allow_abbrev=False, description=(
        "Equilibrium signaling and coordination-coding toolkit."))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    scenario = "Scenario JSON path, or 'mac' for the bundled case study."
    modes = ("unconstrained", "one_shot", "block")
    defaults = argparse.ArgumentDefaultsHelpFormatter

    def command(fn, out):
        sub = commands.add_parser(fn.__name__[4:], allow_abbrev=False, help=fn.__doc__,
                                  description=fn.__doc__, formatter_class=defaults)
        sub.set_defaults(command=fn)
        sub.add_argument("--out", default=out, help="Output file.")
        return sub

    sub = command(cmd_capacity, "capacity.json")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--bsc", dest="bsc_eps", type=float,
                        help="Binary symmetric channel with this flip probability.")
    source.add_argument("--matrix", dest="matrix_file", type=_input_file,
                        help="JSON file with a row-stochastic matrix.")
    sub.add_argument("--tol", type=float, default=1e-9, help="Capacity bracket width.")
    sub.add_argument("--max-iter", type=int, default=100_000, help="Sweep limit.")

    sub = command(cmd_region, "region.csv")
    sub.add_argument("--p", type=float, required=True,
                     help="Prior probability of state 1.")
    sub.add_argument("--eps", type=float, required=True,
                     help="Channel flip probability.")
    sub.add_argument("--resolution", type=float, default=1 / 500, help="Grid step.")

    sub = command(cmd_bestreply, "bestreply.csv")
    sub.add_argument("--scenario", required=True, help=scenario)
    sub.add_argument("--step", type=float, default=1e-3, help="Prior grid step.")

    sub = command(cmd_surface, "surface.csv")
    sub.add_argument("--scenario", required=True, help=scenario)
    sub.add_argument("--mode", choices=modes, default="unconstrained",
                     help="unconstrained labels splits VALID; one_shot and block "
                          "both write the channel regions at --eps.")
    sub.add_argument("--eps", type=float,
                     help="Channel flip probability (required for one_shot/block).")
    sub.add_argument("--resolution", type=float, default=1 / 500, help="Grid step.")

    sub = command(cmd_solve, "solve.json")
    sub.add_argument("--scenario", required=True, help=scenario)
    sub.add_argument("--mode", choices=modes, required=True)
    sub.add_argument("--eps", type=float,
                     help="Channel flip probability for one_shot/block feasibility.")
    sub.add_argument("--cap", type=float,
                     help="Capacity in bits for block mode (overrides --eps).")
    sub.add_argument("--resolution", type=float, default=1e-3, help="Grid step.")

    sub = command(cmd_simulate, "simulate.json")
    sub.add_argument("--experiment", required=True, type=_input_file,
                     help="Experiment JSON (block-coding config).")
    sub.add_argument("--trials", type=int, default=200, help="Trial count.")
    sub.add_argument("--seed", type=int, help="Override the config seed.")
    sub.add_argument("--trials-csv",
                     help="Per-trial CSV path; None means <out stem>_trials.csv.")
    return parser


_PARSER = _parser()


def _failed(kind: str, e: Exception, code: int = 1) -> int:
    """Report e on stderr as one JSON line; return the exit code."""
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": str(e)}},
                                sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    """Entry point with machine-readable error reporting."""
    try:
        args = vars(_PARSER.parse_args(argv))
        args.pop("command")(**args)
        return 0
    except SystemExit as e:  # --help or --version, printed
        return e.code
    except UsageError as e:
        return _failed("usage", e, 2)
    except CapacityError as e:
        return _failed("no_convergence", e)
    except (ValueError, TypeError, KeyError) as e:
        return _failed("invalid_input", e)
    except OSError as e:
        return _failed("io", e)


if __name__ == "__main__":
    sys.exit(main())
