"""Command-line front end: capacity reports, region grids, best-reply curves,
utility surfaces, equilibrium solves, and coordination simulations.

Grids and curves go to CSV (header row, 9 significant digits); reports go to
JSON. The posterior-square CSVs (region, surface) are joined from one text
fragment per (label, column) behind each row's p1 text, so only the values of
labelled cells are float-formatted. Every run writes a side-car manifest
<out>.manifest.json recording the resolved parameters, input digests, seed,
version, output digests, and wall clock. Data outputs are byte-identical
across reruns; the manifest is the one file that is not (it carries the
duration). Each file is written to a temp file beside it and moved into
place, so a failed run leaves no partial output.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
import time

import click
import numpy as np

from . import __version__
from .channel import CapacityError, bsc, capacity
from .coding import (load_experiment, run_experiment, single_letter_utilities)
from .mac import build_scenario, default_config, scenario_surface
from .persuasion import (Block, OneShot, Unconstrained, csv_cell,
                         grid_best_replies, load_scenario, solve_equilibrium)
from .prob import StochasticMatrix, binary_entropy, marginal, mutual_information
from .splitting import RegionLabel, grid_intervals, region_scan

CSV_BLOCK_ROWS = 4096
DIGEST_BLOCK_BYTES = 1 << 20


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


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(DIGEST_BLOCK_BYTES):
            h.update(block)
    return h.hexdigest()


class _HashingWriter:
    """Text sink over a binary file: each write goes out as UTF-8 and into a
    SHA-256 of every byte written, so the digest needs no re-read."""

    def __init__(self, f):
        self._f = f
        self._sha = hashlib.sha256()

    def write(self, text: str) -> None:
        data = text.encode()
        self._sha.update(data)
        self._f.write(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@contextlib.contextmanager
def _replacing(path: str):
    """_HashingWriter to write in place of path: into a temp file in the
    directory of the file path names (symlinks resolved), moved onto it with
    the old file's permission bits when the block completes and removed if
    it raises. An existing target that is not a regular file (a FIFO, a
    device) is written in place, and never read back."""
    real = os.path.realpath(path)
    try:
        old = os.stat(real)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as f:
            yield _HashingWriter(f)
        return
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield _HashingWriter(f)
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path: str, doc: dict) -> str:
    """Write doc as indented JSON and return the file's SHA-256."""
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"
    with _replacing(path) as f:
        f.write(text)
    return f.hexdigest()


def _text(values) -> np.ndarray:
    """Cells formatted one by one with csv_cell, as an array to index."""
    return np.array([csv_cell(v) for v in values], dtype=object)


def _write_csv(path: str, header, columns) -> tuple:
    """Write equal-length columns under header; return the row count and
    the file's SHA-256.

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
    with _replacing(path) as f:
        f.write(",".join(header) + "\n")
        for start in range(0, count, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, count)
            cells = [None] * ((stop - start) * width)
            for k, c in enumerate(columns):
                cells[k::width] = c[start:stop].tolist()
            f.write(row * (stop - start) % tuple(cells))
    return count, f.hexdigest()


def _write_square(path: str, header, grid) -> tuple:
    """Write a posterior-square grid row-major, one line a cell (p1, p2, the
    cell of each of grid.values, the label name); return the cell count and
    the file's SHA-256.

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
    with _replacing(path) as f:
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
    return n1 * n2, f.hexdigest()


def _label_counts(grid) -> dict:
    """Cells per RegionLabel name of a posterior-square grid."""
    counts = np.bincount(grid.labels.ravel(), minlength=len(RegionLabel))
    return {label.name: int(counts[label]) for label in RegionLabel}


def _write_manifest(subcommand: str, parameters: dict, inputs: dict,
                    outputs: dict, seed, started: float, counters=None) -> str:
    """Write the manifest beside the first of outputs, a dict of each output
    path to the digest its writer returned; inputs are read to digest them."""
    manifest_path = next(iter(outputs)) + ".manifest.json"
    doc = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": {p: _digest(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "duration_s": time.perf_counter() - started,
        "outputs": outputs,
    }
    if counters is not None:
        doc["counters"] = counters
    _write_json(manifest_path, doc)
    return manifest_path


def _refuse_overwrites(inputs, outputs) -> None:
    """Usage error, raised before anything is computed or written, when an
    output, or the manifest written beside the first, resolves (symlinks
    followed) to an input file or to another output."""
    claimed = {os.path.realpath(p): f"input {p}" for p in inputs}
    for role, path in [*(("output", p) for p in outputs),
                       ("manifest", outputs[0] + ".manifest.json")]:
        real = os.path.realpath(path)
        if real in claimed:
            raise click.UsageError(f"{role} {path} would overwrite {claimed[real]}")
        claimed[real] = f"{role} {path}"


def _load_scenario_arg(spec: str):
    """Scenario path, or the literal 'mac' for the bundled case study."""
    if spec == "mac":
        return build_scenario(default_config()), []
    return load_scenario(spec), [spec]


def _print_and_exit(text):
    """Callback of an eager flag: print text(ctx) on sys.stdout and exit.

    click prints its own --help and --version through a wrapper it caches
    per stream, which keeps a redirected sys.stdout alive for the life of
    the process; these flags name the stream they print on instead.
    """
    def callback(ctx, param, value):
        if value and not ctx.resilient_parsing:
            click.echo(text(ctx), file=sys.stdout, color=ctx.color)
            ctx.exit()
    return callback


class _Command(click.Command):
    """A command whose --help is printed by _print_and_exit."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _print_and_exit(click.Context.get_help)
        return option


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              help="Show the version and exit.",
              callback=_print_and_exit(lambda ctx: f"{ctx.find_root().info_name}, "
                                                   f"version {__version__}"))
def cli():
    """Equilibrium signaling and coordination-coding toolkit."""


@cli.command("capacity")
@click.option("--bsc", "bsc_eps", type=float, default=None,
              help="Binary symmetric channel with this flip probability.")
@click.option("--matrix", "matrix_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with a row-stochastic matrix.")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--max-iter", type=int, default=100_000, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="capacity.json",
              show_default=True)
def cmd_capacity(bsc_eps, matrix_file, tol, max_iter, out):
    """Channel capacity with the optimal input distribution."""
    started = time.perf_counter()
    if (bsc_eps is None) == (matrix_file is None):
        raise click.UsageError("pass exactly one of --bsc or --matrix")
    inputs = [] if matrix_file is None else [matrix_file]
    _refuse_overwrites(inputs, [out])
    if bsc_eps is not None:
        ch = bsc(bsc_eps)
        spec = {"bsc": bsc_eps}
    else:
        with open(matrix_file) as f:
            doc = json.load(f)
        rows = doc["matrix"] if isinstance(doc, dict) and "matrix" in doc else doc
        try:
            ch = StochasticMatrix(rows)
        except (ValueError, TypeError) as e:
            raise ValueError(f"channel matrix: {e}") from None
        spec = {"matrix_file": matrix_file}
    res = capacity(ch, tol=tol, max_iter=max_iter)
    report = {"capacity": res.capacity,
              "optimal_input": res.optimal_input.probs,
              "iterations": res.iterations,
              "residual": res.residual,
              "channel": spec,
              "manifest": out + ".manifest.json"}
    digest = _write_json(out, report)
    _write_manifest("capacity", {"channel": spec, "tol": tol,
                                 "max_iter": max_iter, "out": out},
                    inputs, {out: digest}, None, started)
    click.echo(json.dumps(_jsonable(report), sort_keys=True), file=sys.stdout)


@cli.command("region")
@click.option("--p", type=float, required=True, help="Prior probability of state 1.")
@click.option("--eps", type=float, required=True, help="Channel flip probability.")
@click.option("--resolution", type=float, default=1.0 / 500, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="region.csv",
              show_default=True)
def cmd_region(p, eps, resolution, out):
    """Feasibility labels over the posterior square."""
    started = time.perf_counter()
    grid = region_scan(p, eps, resolution)
    count, digest = _write_square(out, ("p1", "p2", "label"), grid)
    _write_manifest("region", {"p": p, "eps": eps, "resolution": resolution,
                               "out": out, "capacity": grid.capacity},
                    [], {out: digest}, None, started, counters=_label_counts(grid))
    click.echo(f"wrote {out}: {count} cells", file=sys.stdout)


@cli.command("bestreply")
@click.option("--scenario", required=True,
              help="Scenario JSON path, or 'mac' for the bundled case study.")
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="bestreply.csv",
              show_default=True)
def cmd_bestreply(scenario, step, out):
    """Receiver best reply and value swept over the prior."""
    started = time.perf_counter()
    sc, inputs = _load_scenario_arg(scenario)
    _refuse_overwrites(inputs, [out])
    grid = np.linspace(0.0, 1.0, grid_intervals(step, "bestreply", 1) + 1)
    sel, _, v2 = grid_best_replies(sc, grid)
    count, digest = _write_csv(out, ("p", "v_star", "receiver_value"),
                               [grid, _text(sc.actions)[sel], v2])
    _write_manifest("bestreply", {"scenario": scenario, "step": step, "out": out},
                    inputs, {out: digest}, None, started)
    click.echo(f"wrote {out}: {count} grid points", file=sys.stdout)


@cli.command("surface")
@click.option("--scenario", required=True,
              help="Scenario JSON path, or 'mac' for the bundled case study.")
@click.option("--mode", type=click.Choice(["unconstrained", "one_shot", "block"]),
              default="unconstrained", show_default=True,
              help="unconstrained labels splits VALID; one_shot and block both "
                   "write the channel regions at --eps.")
@click.option("--eps", type=float, default=None,
              help="Channel flip probability (required for one_shot/block).")
@click.option("--resolution", type=float, default=1.0 / 500, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="surface.csv",
              show_default=True)
def cmd_surface(scenario, mode, eps, resolution, out):
    """Split values over the posterior square, labeled by feasibility."""
    started = time.perf_counter()
    sc, inputs = _load_scenario_arg(scenario)
    _refuse_overwrites(inputs, [out])
    if mode != "unconstrained" and eps is None:
        raise click.UsageError(f"--mode {mode} requires --eps")
    surf = scenario_surface(sc, resolution, eps if mode != "unconstrained" else None)
    count, digest = _write_square(out, ("p1", "p2", "phi1", "phi2", "label"), surf)
    _write_manifest("surface", {"scenario": scenario, "mode": mode, "eps": eps,
                                "resolution": resolution, "out": out},
                    inputs, {out: digest}, None, started,
                    counters=_label_counts(surf))
    click.echo(f"wrote {out}: {count} cells", file=sys.stdout)


def _parse_mode(mode: str, eps, cap):
    if mode == "unconstrained":
        return Unconstrained()
    if mode == "one_shot":
        if eps is None:
            raise click.UsageError("--mode one_shot requires --eps")
        return OneShot(eps)
    if cap is None:
        if eps is None:
            raise click.UsageError("--mode block requires --eps or --cap")
        cap = 1.0 - binary_entropy(eps)
    return Block(cap)


@cli.command("solve")
@click.option("--scenario", required=True,
              help="Scenario JSON path, or 'mac' for the bundled case study.")
@click.option("--mode", type=click.Choice(["unconstrained", "one_shot", "block"]),
              required=True)
@click.option("--eps", type=float, default=None,
              help="Channel flip probability for one_shot/block feasibility.")
@click.option("--cap", type=float, default=None,
              help="Capacity in bits for block mode (overrides --eps).")
@click.option("--resolution", type=float, default=1e-3, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="solve.json",
              show_default=True)
def cmd_solve(scenario, mode, eps, cap, resolution, out):
    """Sender-optimal split under the chosen feasibility mode."""
    started = time.perf_counter()
    sc, inputs = _load_scenario_arg(scenario)
    _refuse_overwrites(inputs, [out])
    mode_obj = _parse_mode(mode, eps, cap)
    res = solve_equilibrium(sc, mode_obj, resolution)
    report = {
        "mode": mode,
        "parameters": {"eps": eps, "cap": getattr(mode_obj, "capacity", None),
                       "resolution": resolution},
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
        "manifest": out + ".manifest.json",
    }
    digest = _write_json(out, report)
    _write_manifest("solve", {"scenario": scenario, "mode": mode, "eps": eps,
                              "cap": getattr(mode_obj, "capacity", None),
                              "resolution": resolution, "out": out},
                    inputs, {out: digest}, None, started,
                    counters={"cells_scanned": res.cells_scanned,
                              "cells_feasible": res.cells_feasible})
    click.echo(json.dumps(_jsonable(report), sort_keys=True), file=sys.stdout)


@cli.command("simulate")
@click.option("--experiment", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Experiment JSON (block-coding config).")
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=None,
              help="Override the config seed.")
@click.option("--out", type=click.Path(dir_okay=False), default="simulate.json",
              show_default=True)
@click.option("--trials-csv", type=click.Path(dir_okay=False), default=None,
              help="Per-trial CSV path [default: <out stem>_trials.csv].")
def cmd_simulate(experiment, trials, seed, out, trials_csv):
    """Monte Carlo coordination run over the configured channel."""
    started = time.perf_counter()
    if trials_csv is None:
        stem = out[:-5] if out.endswith(".json") else out
        trials_csv = stem + "_trials.csv"
    _refuse_overwrites([experiment], [out, trials_csv])
    cfg = load_experiment(experiment)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)

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
        **{f.name: getattr(summary, f.name) for f in dataclasses.fields(summary)
           if f.name != "results"},
        "single_letter": {"phi1": phi1_sl, "phi2": phi2_sl},
        "trials_csv": trials_csv,
        "manifest": out + ".manifest.json",
    }
    digest = _write_json(out, report)
    results = summary.results
    _, trials_digest = _write_csv(trials_csv,
               ("trial", "error", "chosen_m", "decoded_m",
                "l1_to_target", "util1", "util2"),
               [_text(range(len(results))),
                _text(r.error_event for r in results),
                _text(r.chosen_m for r in results),
                _text(r.decoded_m for r in results),
                np.array([r.l1_to_target for r in results], dtype=float),
                np.array([r.util1_n for r in results], dtype=float),
                np.array([r.util2_n for r in results], dtype=float)])
    _write_manifest("simulate", {"experiment": experiment, "trials": trials,
                                 "out": out, "trials_csv": trials_csv},
                    [experiment], {out: digest, trials_csv: trials_digest},
                    cfg.seed, started)
    click.echo(json.dumps(_jsonable({k: report[k] for k in
                                     ("error_rate", "mean_l1", "mean_util1",
                                      "mean_util2", "trials")}), sort_keys=True),
               file=sys.stdout)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}},
                                sort_keys=True) + "\n")


def main(argv=None) -> int:
    """Entry point with machine-readable error reporting."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        _emit_error("usage", str(e))
        return 2
    except CapacityError as e:
        _emit_error("no_convergence", str(e))
        return 1
    except (ValueError, TypeError, KeyError) as e:
        _emit_error("invalid_input", str(e))
        return 1
    except OSError as e:
        _emit_error("io", str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
