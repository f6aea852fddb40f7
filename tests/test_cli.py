import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodesign import __version__, coding
from infodesign.cli import (_PARSER, CSV_BLOCK_ROWS, _Run, _text, _write_csv,
                            _write_json, _write_square, main)
from infodesign.coding import (ExperimentSummary, coding_config_from_dict,
                               run_experiment, single_letter_utilities)
from infodesign.mac import build_scenario, default_config, scenario_surface
from infodesign.persuasion import (Block, OneShot, Scenario, Unconstrained,
                                   csv_cell, grid_best_replies, sender_value,
                                   solve_equilibrium)
from infodesign.prob import Distribution, binary_entropy
from infodesign.splitting import PosteriorPair, RegionLabel, region_scan
from test_scan import square

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def stderr_error(err):
    return json.loads(err)["error"]


def scenario_doc(sc) -> dict:
    """The scenario JSON document of sc."""
    return {"prior": sc.prior.probs.tolist(), "actions": list(sc.actions),
            "phi1": sc.phi1.tolist(), "phi2": sc.phi2.tolist()}


def cli_process(args, cwd, timeout):
    """The CLI run as its own process (python -m infodesign.cli args)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "infodesign.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def write_one(path, writer, *args):
    """writer(sink, *args) into path through a run frame of its own."""
    with _Run("test", [], [str(path)], {}) as run:
        return run.write(str(path), writer, *args)


def reference_csv(header, rows) -> str:
    """The per-cell writer the block writer replaced, kept as its oracle."""
    return ",".join(header) + "\n" + "".join(
        ",".join(csv_cell(c) for c in row) + "\n" for row in rows)


EXPERIMENT_DOC = {
    "n": 20, "rate": 0.15, "eps_typ": 0.5, "seed": 0,
    "prior": [0.5, 0.5],
    "signal": [[0.65, 0.35], [0.35, 0.65]],
    "response": [[1.0, 0.0], [0.0, 1.0]],
    "channel": {"bsc": 0.05},
    "input_dist": [0.5, 0.5],
    "phi1": [[1.0, 0.0], [0.0, 1.0]],
    "phi2": [[1.0, 0.0], [0.0, 1.0]],
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def experiment_file(workdir):
    path = workdir / "exp.json"
    path.write_text(json.dumps(EXPERIMENT_DOC))
    return str(path)


class TestCapacity:
    def test_bsc_report(self, workdir, capsys):
        code, out, _ = run_cli(["capacity", "--bsc", "0.25"], capsys)
        assert code == 0
        report = json.loads((workdir / "capacity.json").read_text())
        assert report["capacity"] == pytest.approx(1.0 - binary_entropy(0.25),
                                                   abs=1e-6)
        assert report["optimal_input"] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert report["residual"] <= 1e-9
        assert json.loads(out)["capacity"] == report["capacity"]

    def test_matrix_file_with_wrapper(self, workdir, capsys):
        (workdir / "ch.json").write_text(
            json.dumps({"matrix": [[0.75, 0.25], [0.25, 0.75]]}))
        code, _, _ = run_cli(["capacity", "--matrix", "ch.json",
                              "--out", "m.json"], capsys)
        assert code == 0
        report = json.loads((workdir / "m.json").read_text())
        assert report["capacity"] == pytest.approx(1.0 - binary_entropy(0.25),
                                                   abs=1e-6)

    def test_matrix_file_bare_rows(self, workdir, capsys):
        (workdir / "ch.json").write_text(
            json.dumps([[0.9, 0.1], [0.1, 0.9]]))
        code, _, _ = run_cli(["capacity", "--matrix", "ch.json"], capsys)
        assert code == 0
        report = json.loads((workdir / "capacity.json").read_text())
        assert report["capacity"] == pytest.approx(1.0 - binary_entropy(0.1),
                                                   abs=1e-6)

    def test_exactly_one_source_required(self, workdir, capsys):
        code, _, err = run_cli(["capacity"], capsys)
        assert code == 2
        assert stderr_error(err)["type"] == "usage"
        (workdir / "ch.json").write_text("[[1.0, 0.0], [0.0, 1.0]]")
        code, _, err = run_cli(["capacity", "--bsc", "0.1",
                                "--matrix", "ch.json"], capsys)
        assert code == 2

    def test_nonconvergence_reported(self, workdir, capsys):
        (workdir / "ch.json").write_text(
            json.dumps([[0.9, 0.1], [0.3, 0.7]]))
        code, _, err = run_cli(["capacity", "--matrix", "ch.json",
                                "--tol", "1e-15", "--max-iter", "2"], capsys)
        assert code == 1
        assert stderr_error(err)["type"] == "no_convergence"
        assert os.listdir(workdir) == ["ch.json"]

    def test_manifest_counts_sweeps_and_residual(self, workdir, capsys):
        (workdir / "ch.json").write_text(
            json.dumps([[0.9, 0.1], [0.3, 0.7]]))
        assert run_cli(["capacity", "--matrix", "ch.json"], capsys)[0] == 0
        report = json.loads((workdir / "capacity.json").read_text())
        manifest = json.loads(
            (workdir / "capacity.json.manifest.json").read_text())
        assert report["iterations"] > 1
        assert manifest["counters"] == {"sweeps": report["iterations"],
                                        "residual": report["residual"]}

    @pytest.mark.parametrize("flags,name", [
        (["--tol", "-1", "--max-iter", "200000"], "tol"), (["--tol", "nan"], "tol"),
        (["--max-iter", "0"], "max_iter"), (["--max-iter", "-3"], "max_iter")])
    def test_hopeless_arguments_are_invalid_input(self, workdir, capsys, flags,
                                                  name):
        code, _, err = run_cli(["capacity", "--bsc", "0.1", *flags], capsys)
        assert code == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"].startswith(f"capacity: {name} ")
        assert os.listdir(workdir) == []

    def test_bad_matrix_rejected(self, workdir, capsys):
        # a row that does not sum to 1, a 1-d list, and a wrapper object
        # with a field beside "matrix"
        for rows in ([[0.5, 0.4], [0.3, 0.7]], [0.5, 0.5],
                     {"matrix": [[0.9, 0.1], [0.2, 0.8]], "junk": 1}):
            (workdir / "ch.json").write_text(json.dumps(rows))
            code, _, err = run_cli(["capacity", "--matrix", "ch.json"], capsys)
            assert code == 1
            e = stderr_error(err)
            assert e["type"] == "invalid_input"
            assert e["message"].startswith("channel matrix: ")
            assert os.listdir(workdir) == ["ch.json"]


class TestRegion:
    def test_grid_shape_and_labels(self, workdir, capsys):
        code, out, _ = run_cli(["region", "--p", "0.5", "--eps", "0.25",
                                "--resolution", "0.05"], capsys)
        assert code == 0
        assert "441 cells" in out
        header, rows = read_csv(workdir / "region.csv")
        assert header == ["p1", "p2", "label"]
        assert len(rows) == 441
        labels = {r[2] for r in rows}
        assert labels <= {"INVALID_SPLIT", "ONE_SHOT", "BLOCK_ONLY",
                          "INFEASIBLE"}
        assert {"ONE_SHOT", "BLOCK_ONLY", "INFEASIBLE"} <= labels

    def test_noiseless_channel_never_infeasible(self, workdir, capsys):
        run_cli(["region", "--p", "0.5", "--eps", "0.0",
                 "--resolution", "0.05"], capsys)
        _, rows = read_csv(workdir / "region.csv")
        valid = {r[2] for r in rows if r[2] != "INVALID_SPLIT"}
        assert "INFEASIBLE" not in valid and valid

    def test_useless_channel_only_infeasible(self, workdir, capsys):
        run_cli(["region", "--p", "0.5", "--eps", "0.5",
                 "--resolution", "0.05"], capsys)
        _, rows = read_csv(workdir / "region.csv")
        valid = {r[2] for r in rows if r[2] != "INVALID_SPLIT"}
        assert valid == {"INFEASIBLE"}

    def test_bad_prior_rejected(self, workdir, capsys):
        code, _, err = run_cli(["region", "--p", "1.5", "--eps", "0.25"],
                               capsys)
        assert code == 1
        assert stderr_error(err)["type"] == "invalid_input"


class TestBestReply:
    def test_sweep(self, workdir, capsys):
        code, out, _ = run_cli(["bestreply", "--scenario", "mac",
                                "--step", "0.05"], capsys)
        assert code == 0
        assert "21 grid points" in out
        header, rows = read_csv(workdir / "bestreply.csv")
        assert header == ["p", "v_star", "receiver_value"]
        actions = [float(r[1]) for r in rows]
        assert actions[0] == 0.0 and actions[-1] == 1.0
        assert all(b >= a for a, b in zip(actions, actions[1:]))

    @pytest.mark.parametrize("command", ["bestreply", "solve"])
    @pytest.mark.parametrize("actions,why", [
        (["stay, quiet", "go"], "is neither"),
        (["go\nnow", "stay"], "is neither"),
        ([[1, 2], {"a": 1}], "is neither"),
        (["go", "go"], "duplicate action label"),
        ([1, "1"], "both print as '1'"),
        ([0.1234567891, 0.1234567892], "both print as '0.123456789'")],
        ids=["comma", "newline", "non_scalar", "duplicate", "int_and_string",
             "nine_digits"])
    def test_bad_action_labels_refused(self, workdir, capsys, actions, why,
                                       command):
        """A label that would not print as one CSV cell, a repeated one, or
        one that prints as another does, is refused before anything is
        written."""
        (workdir / "sc.json").write_text(json.dumps(
            {"prior": [0.5, 0.5], "actions": actions,
             "phi1": [[1, 0], [0, 1]], "phi2": [[0, 1], [1, 0]]}))
        extra = {"bestreply": ["--step", "0.25"],
                 "solve": ["--mode", "unconstrained"]}[command]
        code, out, err = run_cli([command, "--scenario", "sc.json", *extra],
                                 capsys)
        assert code == 1 and out == ""
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"].startswith("scenario: Scenario: ")
        assert why in e["message"]
        assert os.listdir(workdir) == ["sc.json"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["bestreply", "solve"])
    def test_overflowing_phi2_spread_refused(self, workdir, capsys, command):
        """A finite phi2 whose max - min overflows would give the tie band
        of every best reply a nan scale: refused, with one JSON line and no
        warning on stderr, before anything is written."""
        (workdir / "sc.json").write_text(json.dumps(
            {"prior": [0.5, 0.5], "actions": ["a", "b"],
             "phi1": [[0, 0], [0, 0]], "phi2": [[-1e308, 1e308], [1, 0]]}))
        extra = {"bestreply": ["--step", "0.25"],
                 "solve": ["--mode", "unconstrained", "--resolution", "0.25"]}
        code, out, err = run_cli([command, "--scenario", "sc.json",
                                  *extra[command]], capsys)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"] == "scenario: Scenario: phi2 spread max - min overflows"
        assert os.listdir(workdir) == ["sc.json"]

    def test_non_ascii_labels_written_as_utf8(self, workdir, capsys):
        """Action labels outside ASCII go out as the UTF-8 bytes of their
        cells, and the manifest digests the bytes in the file."""
        actions = ["größer", "小"]
        (workdir / "sc.json").write_text(json.dumps(
            {"prior": [0.5, 0.5], "actions": actions,
             "phi1": [[1, 0], [0, 1]], "phi2": [[1, 0], [0, 1]]}))
        code, _, _ = run_cli(["bestreply", "--scenario", "sc.json",
                              "--step", "0.25"], capsys)
        assert code == 0
        data = (workdir / "bestreply.csv").read_bytes()
        cells = [line.split(b",")[1] for line in data.splitlines()[1:]]
        assert set(cells) == {csv_cell(a).encode("utf-8") for a in actions}
        manifest = json.loads(
            (workdir / "bestreply.csv.manifest.json").read_text())
        assert (manifest["outputs"]["bestreply.csv"]
                == hashlib.sha256(data).hexdigest())

    def test_bad_step_rejected(self, workdir, capsys):
        code, _, err = run_cli(["bestreply", "--scenario", "mac",
                                "--step", "0"], capsys)
        assert code == 1
        assert stderr_error(err)["type"] == "invalid_input"


class TestSurface:
    def test_unconstrained_grid(self, workdir, capsys):
        code, out, _ = run_cli(["surface", "--scenario", "mac",
                                "--resolution", "0.05"], capsys)
        assert code == 0
        header, rows = read_csv(workdir / "surface.csv")
        assert header == ["p1", "p2", "phi1", "phi2", "label"]
        assert len(rows) == 441
        labels = {r[4] for r in rows}
        assert labels == {"INVALID_SPLIT", "VALID"}
        # invalid cells carry no values
        assert all((r[4] == "VALID") == (r[2] != "nan") for r in rows)

    def test_constrained_mode_needs_eps(self, workdir, capsys):
        code, _, err = run_cli(["surface", "--scenario", "mac",
                                "--mode", "block"], capsys)
        assert code == 2
        assert stderr_error(err)["type"] == "usage"

    def test_block_mode_labels(self, workdir, capsys):
        code, _, _ = run_cli(["surface", "--scenario", "mac", "--mode", "block",
                              "--eps", "0.25", "--resolution", "0.05"], capsys)
        assert code == 0
        _, rows = read_csv(workdir / "surface.csv")
        labels = {r[4] for r in rows}
        assert "VALID" not in labels and "INFEASIBLE" in labels

    def test_manifest_digest_of_multiblock_output(self, workdir, capsys):
        code, _, _ = run_cli(["surface", "--scenario", "mac",
                              "--resolution", "0.004"], capsys)
        assert code == 0
        data = (workdir / "surface.csv").read_bytes()
        assert len(data) > 1 << 20
        manifest = json.loads(
            (workdir / "surface.csv.manifest.json").read_text())
        assert (manifest["outputs"]["surface.csv"]
                == hashlib.sha256(data).hexdigest())

    def test_csv_reduction_matches_solver(self, workdir, capsys):
        # the published grid is a faithful reduction target: re-running the
        # argmax over the CSV lands on the solver's cell at CSV precision
        run_cli(["surface", "--scenario", "mac", "--resolution", "0.01"],
                capsys)
        _, rows = read_csv(workdir / "surface.csv")
        best = max((r for r in rows if r[2] != "nan"),
                   key=lambda r: float(r[2]))
        res = solve_equilibrium(build_scenario(default_config()),
                                Unconstrained(), 0.01)
        assert best[2] == format(res.phi1_star, ".9g")
        assert {best[0], best[1]} == {format(res.posteriors.p1, ".9g"),
                                      format(res.posteriors.p2, ".9g")}


class TestSolve:
    def test_unconstrained_report(self, workdir, capsys):
        code, out, _ = run_cli(["solve", "--scenario", "mac",
                                "--mode", "unconstrained"], capsys)
        assert code == 0
        report = json.loads((workdir / "solve.json").read_text())
        assert report["phi1_star"] == pytest.approx(0.7331932814533344,
                                                    abs=1e-12)
        ps = sorted([report["posteriors"]["p1"], report["posteriors"]["p2"]])
        assert ps[0] == pytest.approx(0.0, abs=1e-12)
        assert ps[1] == pytest.approx(0.642, abs=1e-12)
        assert report["no_info"] is False
        assert report["feasibility"]["feasible"] is True
        assert report["feasibility"]["slack"] == "inf"
        assert json.loads(out)["phi1_star"] == report["phi1_star"]

    def test_block_cap_defaults_to_eps(self, workdir, capsys):
        run_cli(["solve", "--scenario", "mac", "--mode", "block",
                 "--eps", "0.25", "--out", "a.json"], capsys)
        run_cli(["solve", "--scenario", "mac", "--mode", "block",
                 "--cap", repr(1.0 - binary_entropy(0.25)),
                 "--out", "b.json"], capsys)
        a = json.loads((workdir / "a.json").read_text())
        b = json.loads((workdir / "b.json").read_text())
        assert a["parameters"]["cap"] == pytest.approx(
            1.0 - binary_entropy(0.25), abs=1e-15)
        assert a["phi1_star"] == b["phi1_star"]
        assert a["feasibility"]["slack"] == pytest.approx(
            b["feasibility"]["slack"], abs=1e-12)

    def test_manifest_counts_scanned_and_feasible_cells(self, workdir, capsys):
        # a zero capacity passes no split: the counters say why no_info won
        code, _, _ = run_cli(["solve", "--scenario", "mac", "--mode", "block",
                              "--cap", "0", "--resolution", "0.01"], capsys)
        assert code == 0
        report = json.loads((workdir / "solve.json").read_text())
        manifest = json.loads((workdir / "solve.json.manifest.json").read_text())
        assert report["no_info"] is True and "counters" not in report
        # prior 1/2 on the 101-point grid: two 50 x 50 rectangles of valid splits
        assert manifest["counters"] == {"cells_scanned": 5000,
                                        "cells_feasible": 0}

    def test_one_shot_needs_eps(self, workdir, capsys):
        code, _, err = run_cli(["solve", "--scenario", "mac",
                                "--mode", "one_shot"], capsys)
        assert code == 2
        assert stderr_error(err)["type"] == "usage"

    @pytest.mark.parametrize("mode", ["one_shot", "unconstrained"])
    def test_cap_outside_block_mode_refused(self, workdir, capsys, mode):
        """--cap sets the block mode's capacity alone; with another mode it
        would be dropped and reported as null."""
        code, out, err = run_cli(["solve", "--scenario", "mac", "--mode", mode,
                                  "--eps", "0.25", "--cap=-5"], capsys)
        assert code == 2 and out == ""
        e = stderr_error(err)
        assert e["type"] == "usage" and "--cap" in e["message"]
        assert os.listdir(workdir) == []

    def test_scenario_file_roundtrip(self, workdir, capsys):
        # a hand-written scenario: aligned interests, full revelation wins
        doc = {"prior": [0.4, 0.6], "actions": [0, 1],
               "phi1": [[1.0, 0.0], [0.0, 1.0]],
               "phi2": [[1.0, 0.0], [0.0, 1.0]]}
        (workdir / "sc.json").write_text(json.dumps(doc))
        code, _, _ = run_cli(["solve", "--scenario", "sc.json",
                              "--mode", "unconstrained",
                              "--resolution", "0.01"], capsys)
        assert code == 0
        report = json.loads((workdir / "solve.json").read_text())
        assert report["phi1_star"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_scenario_file(self, workdir, capsys):
        code, _, err = run_cli(["solve", "--scenario", "nope.json",
                                "--mode", "unconstrained"], capsys)
        assert code == 1
        assert stderr_error(err)["type"] in ("invalid_input", "io")


class TestSimulate:
    def test_report_and_trials_csv(self, workdir, experiment_file, capsys):
        code, out, _ = run_cli(["simulate", "--experiment", experiment_file,
                                "--trials", "50"], capsys)
        assert code == 0
        report = json.loads((workdir / "simulate.json").read_text())
        assert report["trials"] == 50 and report["n"] == 20
        assert report["codebook_size"] == 8
        assert report["typicality_radius"] == pytest.approx(0.5)
        assert 0.0 < report["signal_information_rate"] < report["rate"]
        assert report["rate"] < report["channel_capacity"]
        assert 0.0 <= report["error_rate"] <= 1.0
        assert report["single_letter"]["phi1"] == pytest.approx(0.65)
        header, rows = read_csv(workdir / "simulate_trials.csv")
        assert header == ["trial", "error", "chosen_m", "decoded_m",
                          "l1_to_target", "util1", "util2"]
        assert len(rows) == 50
        assert {r[1] for r in rows} <= {"0", "1"}
        assert json.loads(out)["error_rate"] == report["error_rate"]

    def test_seed_override(self, workdir, experiment_file, capsys):
        run_cli(["simulate", "--experiment", experiment_file,
                 "--trials", "40", "--out", "a.json"], capsys)
        run_cli(["simulate", "--experiment", experiment_file,
                 "--trials", "40", "--seed", "7", "--out", "b.json"], capsys)
        a = json.loads((workdir / "a.json").read_text())
        b = json.loads((workdir / "b.json").read_text())
        assert a["seed"] == 0 and b["seed"] == 7
        assert a["mean_l1"] != b["mean_l1"]

    def test_covering_gate(self, workdir, capsys):
        doc = dict(EXPERIMENT_DOC, rate=0.05)
        (workdir / "low.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", "--experiment", "low.json"],
                               capsys)
        assert code == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert "covering requirement" in e["message"]

    def test_packing_gate(self, workdir, capsys):
        doc = dict(EXPERIMENT_DOC, rate=0.72)
        (workdir / "high.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", "--experiment", "high.json"],
                               capsys)
        assert code == 1
        assert "packing requirement" in stderr_error(err)["message"]

    @pytest.mark.parametrize("input_dist, rate", [([1.0, 0.0], 0.2),
                                                  ([0.9, 0.1], 0.3)])
    def test_packing_gate_takes_the_input_law(self, workdir, capsys,
                                              input_dist, rate):
        """Codewords are drawn from input_dist, so a rate below the channel
        capacity (0.7136 bits) is refused when it reaches I(X;Y) under that
        law: 0 and 0.297 bits here."""
        doc = dict(EXPERIMENT_DOC, input_dist=input_dist, rate=rate)
        (workdir / "skew.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", "--experiment", "skew.json"], capsys)
        assert code == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"].startswith("experiment.rate: packing requirement violated")
        assert os.listdir(workdir) == ["skew.json"]

    def test_packing_gate_passes_below_the_input_laws_rate(self, workdir, capsys):
        doc = dict(EXPERIMENT_DOC, input_dist=[0.9, 0.1], rate=0.25)
        (workdir / "skew.json").write_text(json.dumps(doc))
        code, _, _ = run_cli(["simulate", "--experiment", "skew.json",
                              "--trials", "20"], capsys)
        assert code == 0
        report = json.loads((workdir / "simulate.json").read_text())
        assert report["rate"] < report["channel_capacity"]

    def test_codebook_bytes_refused_before_allocation(self, workdir, capsys):
        # 2^24 words of 160 symbols: within the word cap, 32 GiB with tables
        doc = dict(EXPERIMENT_DOC, n=160)
        (workdir / "long.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", "--experiment", "long.json"],
                               capsys)
        assert code == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert "bytes" in e["message"]
        assert sorted(p.name for p in workdir.iterdir()) == ["long.json"]

    def test_trial_count_refused_before_any_draw(self, workdir, experiment_file,
                                                 capsys, monkeypatch):
        def no_draw(cfg):
            raise AssertionError("drew a codebook")

        monkeypatch.setattr(coding, "generate_codebook", no_draw)
        code, out, err = run_cli(["simulate", "--experiment", experiment_file,
                                  "--trials", "1000000000000"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert "bytes" in e["message"]
        assert sorted(p.name for p in workdir.iterdir()) == ["exp.json"]

    def test_manifest_counts_the_failures(self, workdir, experiment_file,
                                          capsys):
        assert run_cli(["simulate", "--experiment", experiment_file,
                        "--trials", "200"], capsys)[0] == 0
        report = json.loads((workdir / "simulate.json").read_text())
        counters = json.loads(
            (workdir / "simulate.json.manifest.json").read_text())["counters"]
        assert set(counters) == {"trials", "errors", "nocover",
                                 "decode_no_typical", "decode_several_typical",
                                 "ok_mean_util1", "ok_mean_util2", "cover_min",
                                 "cover_median", "cover_p90", "cover_max"}
        trials = counters["trials"]
        assert trials == 200
        _, rows = read_csv(workdir / "simulate_trials.csv")
        ok = [r for r in rows if r[1] == "0"]
        assert len(ok) == trials - counters["errors"] > 0
        for k in (1, 2):
            mean = sum(float(r[4 + k]) for r in ok) / len(ok)
            assert counters[f"ok_mean_util{k}"] == pytest.approx(mean, rel=1e-8)
        assert counters["errors"] / trials == report["error_rate"]
        assert counters["nocover"] / trials == report["nocover_rate"]
        assert ((counters["decode_no_typical"]
                 + counters["decode_several_typical"]) / trials
                == report["decodefail_rate"])

    @pytest.mark.parametrize("field,value", [("n", True), ("seed", False)])
    def test_bool_is_not_an_integer(self, workdir, capsys, field, value):
        (workdir / "bool.json").write_text(
            json.dumps(dict(EXPERIMENT_DOC, **{field: value})))
        code, out, err = run_cli(["simulate", "--experiment", "bool.json"],
                                 capsys)
        assert code == 1 and out == ""
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"].startswith(f"experiment: CodingConfig: {field} = {value}")
        assert os.listdir(workdir) == ["bool.json"]

    @pytest.mark.parametrize("fields,message", [
        ({"rate": True, "channel": {"matrix": np.eye(4).tolist()},
          "input_dist": [0.25] * 4, "n": 4},
         "experiment: CodingConfig: rate = True is not a number in [0, inf)"),
        ({"channel": {"bsc": "0.05"}},
         "experiment.channel: bsc: flip probability '0.05' is not a number "
         "in [0, 1/2]"),
        ({"channel": {"bsc": False}},
         "experiment.channel: bsc: flip probability False is not a number "
         "in [0, 1/2]"),
        ({"channel": {"bsc": None}},
         "experiment.channel: bsc: flip probability None is not a number "
         "in [0, 1/2]"),
        ({"channel": {"bsc": [0.05]}},
         "experiment.channel: bsc: flip probability [0.05] is not a number "
         "in [0, 1/2]"),
        ({"rate": None},
         "experiment: CodingConfig: rate = None is not a number in [0, inf)")],
        ids=["bool_rate", "string_bsc", "bool_bsc", "null_bsc", "list_bsc",
             "null_rate"])
    def test_scalars_are_json_numbers(self, workdir, capsys, fields, message):
        """The rate and a bsc flip probability are JSON numbers: each bool or
        string config would run as written (rate 1 fits under the identity
        channel's 2 bits) if the value were read as a number, and every other
        JSON type gets the same message."""
        (workdir / "num.json").write_text(
            json.dumps(dict(EXPERIMENT_DOC, **fields)))
        code, out, err = run_cli(["simulate", "--experiment", "num.json",
                                  "--trials", "5"], capsys)
        assert code == 1 and out == ""
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"] == message
        assert os.listdir(workdir) == ["num.json"]

    def test_bad_channel_matrix(self, workdir, capsys):
        doc = dict(EXPERIMENT_DOC, channel={"matrix": [[0.5, 0.4], [0.05, 0.95]]})
        (workdir / "bad.json").write_text(json.dumps(doc))
        code, _, err = run_cli(["simulate", "--experiment", "bad.json"], capsys)
        assert code == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"].startswith("experiment.channel: ")
        assert os.listdir(workdir) == ["bad.json"]

    @pytest.mark.parametrize("out,trials_csv", [
        ("a.json", "a.json"), ("a.json", "./a.json"),
        ("b.json", "b.json.manifest.json")])
    def test_colliding_outputs_refused(self, workdir, experiment_file, capsys,
                                       out, trials_csv):
        code, _, err = run_cli(["simulate", "--experiment", experiment_file,
                                "--out", out, "--trials-csv", trials_csv], capsys)
        assert code == 2
        assert stderr_error(err)["type"] == "usage"
        assert os.listdir(workdir) == ["exp.json"]

    def test_failed_second_output_leaves_nothing(self, workdir, experiment_file,
                                                 capsys):
        """The trials CSV cannot be opened after the report is written: the
        run leaves neither report, manifest nor temp file."""
        code, out, err = run_cli(["simulate", "--experiment", experiment_file,
                                  "--trials", "5", "--out", "sim.json",
                                  "--trials-csv", "nodir/t.csv"], capsys)
        assert code == 1 and out == ""
        assert stderr_error(err)["type"] == "io"
        assert os.listdir(workdir) == ["exp.json"]

    def test_missing_experiment_file(self, workdir, capsys):
        code, _, err = run_cli(["simulate", "--experiment", "nope.json"],
                               capsys)
        assert code == 2
        assert stderr_error(err)["type"] == "usage"

    def test_zero_trials_rejected(self, workdir, experiment_file, capsys):
        code, _, err = run_cli(["simulate", "--experiment", experiment_file,
                                "--trials", "0"], capsys)
        assert code == 1
        assert stderr_error(err)["type"] == "invalid_input"

    def test_manifest_covers_both_outputs(self, workdir, experiment_file,
                                          capsys):
        run_cli(["simulate", "--experiment", experiment_file,
                 "--trials", "20"], capsys)
        manifest = json.loads(
            (workdir / "simulate.json.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert set(manifest["outputs"]) == {"simulate.json",
                                            "simulate_trials.csv"}
        assert experiment_file in manifest["inputs"]


class TestOutputNamesInput:
    """An output, or the manifest beside it, that resolves to the input file
    is refused with a usage error before anything is computed or written."""

    DOCS = {"capacity": {"matrix": [[0.9, 0.1], [0.2, 0.8]]},
            "solve": None, "surface": None, "bestreply": None,
            "simulate": EXPERIMENT_DOC}

    @pytest.mark.parametrize("name,argv", [
        ("in.json", ["capacity", "--matrix", "in.json", "--out", "in.json"]),
        ("in.json", ["capacity", "--matrix", "in.json", "--out", "link.json"]),
        ("in.json", ["solve", "--scenario", "in.json", "--mode",
                     "unconstrained", "--out", "./in.json"]),
        ("in.json", ["surface", "--scenario", "in.json", "--out", "in.json"]),
        ("in.json", ["bestreply", "--scenario", "in.json", "--out", "link.json"]),
        ("in.json", ["simulate", "--experiment", "in.json", "--out", "in.json"]),
        ("in.json", ["simulate", "--experiment", "in.json",
                     "--trials-csv", "in.json"]),
        ("in.manifest.json", ["simulate", "--experiment", "in.manifest.json",
                              "--out", "in"])],
        ids=["capacity", "capacity_symlink", "solve", "surface",
             "bestreply_symlink", "simulate_out", "simulate_trials_csv",
             "simulate_manifest"])
    def test_refused(self, workdir, capsys, name, argv):
        doc = self.DOCS[argv[0]] or scenario_doc(build_scenario(default_config()))
        (workdir / name).write_text(json.dumps(doc))
        (workdir / "link.json").symlink_to(name)
        before = (workdir / name).read_bytes()
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        e = stderr_error(err)
        assert e["type"] == "usage"
        assert e["message"].endswith(f"would overwrite input {name}")
        assert sorted(os.listdir(workdir)) == sorted(["link.json", name])
        assert (workdir / name).read_bytes() == before

    def test_region_manifest_names_its_output(self, workdir, capsys):
        (workdir / "r.csv").write_text("old\n")
        (workdir / "r.csv.manifest.json").symlink_to("r.csv")
        code, out, err = run_cli(["region", "--p", "0.5", "--eps", "0.1",
                                  "--resolution", "0.25", "--out", "r.csv"],
                                 capsys)
        assert code == 2 and out == ""
        e = stderr_error(err)
        assert e["type"] == "usage"
        assert e["message"].endswith("would overwrite output r.csv")
        assert (workdir / "r.csv").read_text() == "old\n"
        assert sorted(os.listdir(workdir)) == ["r.csv", "r.csv.manifest.json"]

    def test_distinct_paths_accepted(self, workdir, capsys):
        (workdir / "in.json").write_text(json.dumps(self.DOCS["capacity"]))
        code, _, _ = run_cli(["capacity", "--matrix", "in.json", "--out",
                              "in.json.out"], capsys)
        assert code == 0
        manifest = json.loads((workdir / "in.json.out.manifest.json").read_text())
        assert manifest["inputs"] == {
            "in.json": hashlib.sha256((workdir / "in.json").read_bytes()).hexdigest()}


class TestPathChecks:
    """A command line whose input file is missing or a directory, or that
    would write where a directory is, is refused with a usage error before
    anything is computed or written; a missing --scenario file is an io
    error instead (TestSolve.test_missing_scenario_file)."""

    @pytest.mark.parametrize("argv", [
        ["capacity", "--matrix", "nope.json"],
        ["capacity", "--matrix", "d"],
        ["simulate", "--experiment", "nope.json"],
        ["simulate", "--experiment", "d"],
        ["capacity", "--bsc", "0.1", "--out", "d"],
        ["region", "--p", "0.5", "--eps", "0.1", "--out", "d"],
        ["simulate", "--experiment", "exp.json", "--trials-csv", "d"],
        ["capacity", "--bsc", "0.1", "--out", "m"]], ids=" ".join)
    def test_refused(self, workdir, experiment_file, capsys, argv):
        (workdir / "d").mkdir()
        (workdir / "m.manifest.json").mkdir()
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert stderr_error(err)["type"] == "usage"
        assert sorted(os.listdir(workdir)) == ["d", "exp.json", "m.manifest.json"]
        assert os.listdir(workdir / "d") == []


MANIFEST_RUNS = {
    "capacity_bsc": (["capacity", "--bsc", "0.1"], []),
    "capacity_matrix": (["capacity", "--matrix", "ch.json"], ["ch.json"]),
    "region": (["region", "--p", "0.5", "--eps", "0.25", "--resolution", "0.1"],
               []),
    # the default 1/500 grid goes out in about 70 writer chunks
    "region_default": (["region", "--p", "0.5", "--eps", "0.25"], []),
    "bestreply": (["bestreply", "--scenario", "sc.json", "--step", "0.1"],
                  ["sc.json"]),
    "surface": (["surface", "--scenario", "sc.json", "--resolution", "0.1"],
                ["sc.json"]),
    "solve": (["solve", "--scenario", "sc.json", "--mode", "unconstrained",
               "--resolution", "0.1"], ["sc.json"]),
    "simulate": (["simulate", "--experiment", "exp.json", "--trials", "5"],
                 ["exp.json"]),
}


class TestManifest:
    KEYS = {"subcommand", "parameters", "inputs", "seed", "version",
            "duration_s", "outputs"}
    COUNTED = {"capacity", "region", "surface", "solve", "simulate"}

    @pytest.mark.parametrize("run", MANIFEST_RUNS)
    def test_keys_and_digests(self, workdir, experiment_file, capsys, run):
        """One manifest beside the outputs, with the same keys for every
        subcommand (counters where a run counts cells), and digests that are
        those of every file the run read or wrote."""
        args, inputs = MANIFEST_RUNS[run]
        (workdir / "ch.json").write_text(json.dumps([[0.75, 0.25], [0.25, 0.75]]))
        (workdir / "sc.json").write_text(
            json.dumps(scenario_doc(build_scenario(default_config()))))
        assert run_cli(args, capsys)[0] == 0
        manifests = list(workdir.glob("*.manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert set(manifest) == self.KEYS | (
            {"counters"} if args[0] in self.COUNTED else set())
        assert manifest["subcommand"] == args[0]
        assert manifest["version"] == __version__
        assert manifest["duration_s"] >= 0.0

        def sha(name):
            return hashlib.sha256((workdir / name).read_bytes()).hexdigest()

        written = {p.name for p in workdir.iterdir()} - {
            "ch.json", "sc.json", "exp.json", manifests[0].name}
        assert manifest["outputs"] == {name: sha(name) for name in written}
        assert manifest["inputs"] == {name: sha(name) for name in inputs}


class TestCaseStudy:
    """The power-allocation case study: one solve per feasibility mode."""

    def test_modes_match_library_and_beat_revelation(self, workdir, capsys):
        cfg = default_config()
        sc = build_scenario(cfg)
        modes = {"unconstrained": Unconstrained(),
                 "block": Block(1.0 - binary_entropy(0.25)),
                 "one_shot": OneShot(0.25)}
        phi1 = {}
        for name, mode in modes.items():
            out = f"case_{name}.json"
            code, _, _ = run_cli(["solve", "--scenario", "mac", "--eps", "0.25",
                                  "--mode", name, "--out", out], capsys)
            assert code == 0
            report = json.loads((workdir / out).read_text())
            res = solve_equilibrium(sc, mode, 1e-3)
            assert report["phi1_star"] == res.phi1_star
            assert report["phi2_star"] == res.phi2_star
            assert report["posteriors"] == {"p1": res.posteriors.p1,
                                            "p2": res.posteriors.p2}
            phi1[name] = report["phi1_star"]
        revealing, _ = sender_value(PosteriorPair(0.0, 1.0), cfg.prior_p, sc)
        assert (phi1["unconstrained"] >= phi1["block"] >= phi1["one_shot"]
                > revealing)


class TestLadder:
    """The block-length ladder: the packaged experiment rewritten per n."""

    FIELDS = tuple(f.name for f in fields(ExperimentSummary)
                   if f.name not in ("results", "counters"))

    @pytest.mark.parametrize("n", [20, 40])
    def test_rung_matches_run_experiment(self, workdir, capsys, n):
        doc = json.loads(resources.files("infodesign").joinpath(
            "data/coding_default.json").read_text())
        cfg = coding_config_from_dict(doc)
        (workdir / "rung.json").write_text(json.dumps(dict(doc, n=n)))
        code, _, _ = run_cli(["simulate", "--experiment", "rung.json",
                              "--trials", "20", "--out", f"ladder_n{n}.json"],
                             capsys)
        assert code == 0
        report = json.loads((workdir / f"ladder_n{n}.json").read_text())
        rung = replace(cfg, n=n)
        summary = run_experiment(rung, 20)
        assert {k: report[k] for k in self.FIELDS} == {
            k: getattr(summary, k) for k in self.FIELDS}
        assert report["codebook_size"] == rung.codebook_size
        phi1, phi2 = single_letter_utilities(rung)
        assert report["single_letter"] == {"phi1": phi1, "phi2": phi2}


def readme_commands():
    """Every `infodesign ...` line of README's sh blocks, as argv."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = (line.strip() for block in blocks for line in block.splitlines())
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("infodesign ")]


class TestReadme:
    # README is the one home of these recipes: a stale flag or choice value
    # fails to parse. Parsing converts every value (input files are written
    # first, for the existence checks) and runs no command.
    @pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
    def test_command_parses(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        for arg in args:
            if arg.endswith(".json"):
                Path(arg).write_text("{}")
        assert _PARSER.parse_args(args).command.__name__ == "cmd_" + args[0]

    def test_recipes_found(self):
        assert {args[0] for args in readme_commands()} == {
            "capacity", "region", "bestreply", "surface", "solve", "simulate"}


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                  5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                  1e-300, -1e-300, 0.1, 1.0 / 3.0, 123456789.5]


class TestBlockWriter:
    @settings(max_examples=40, deadline=None)
    @given(count=st.sampled_from([0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1]),
           data=st.data())
    def test_matches_per_cell_writer(self, count, data):
        def column(values):
            drawn = data.draw(st.lists(values, min_size=1, max_size=9))
            return [drawn[i % len(drawn)] for i in range(count)]

        floats = np.array(column(st.sampled_from(SPECIAL_FLOATS) | st.floats()),
                          dtype=float)
        bools = column(st.booleans())
        ints = column(st.integers(-2 ** 70, 2 ** 70))
        optional = column(st.none() | st.integers(0, 10 ** 6))
        printable = st.text(st.characters(min_codepoint=32, max_codepoint=126))
        labels = column(st.sampled_from(["a%s,b", "100%", "%.9g", ",",
                                         "größer", "小"]) | printable)
        signed = np.array(column(st.integers(-2 ** 63, 2 ** 63 - 1)), dtype=np.int64)
        unsigned = np.array(column(st.integers(0, 2 ** 64 - 1)), dtype=np.uint64)
        flags = np.array(column(st.booleans()), dtype=np.int8)
        header = ("f", "b", "i", "m", "s", "i64", "u64", "i8")
        cols = [floats, _text(bools), _text(ints), _text(optional),
                _text(labels), signed, unsigned, flags]
        edges = [0, *sorted(data.draw(st.lists(st.integers(0, count),
                                               max_size=3))), count]
        blocks = [[c[a:b] for c in cols] for a, b in zip(edges, edges[1:])]
        sink = io.BytesIO()
        assert _write_csv(sink, header, blocks) == count
        assert sink.getvalue() == reference_csv(
            header, zip(floats, bools, ints, optional, labels,
                        signed, unsigned, flags.astype(bool))).encode()

    def test_rejects_unformatted_columns(self):
        sink = io.BytesIO()
        with pytest.raises(TypeError):
            _write_csv(sink, ("b",), [[np.array([True, False])]])
        assert sink.getvalue() == b""

    def test_rejects_str_cells(self):
        """An object column must hold bytes: a block whose cells are str
        raises TypeError, and nothing of it is written."""
        first = [np.array([0.5]), _text(["a"])]
        second = [np.array([1.5]), np.array(["b"], dtype=object)]
        sink = io.BytesIO()
        with pytest.raises(TypeError):
            _write_csv(sink, ("p", "s"), [first, second])
        assert sink.getvalue() == b"p,s\n0.5,a\n"


def row_blocks(grid, labels, values, edges):
    """A square on grid's axes whose blocks() cuts the whole arrays labels
    and values into the row blocks between consecutive edges."""
    cuts = list(zip(edges, edges[1:]))
    return SimpleNamespace(p1_axis=grid.p1_axis, p2_axis=grid.p2_axis, blocks=lambda: (
        (slice(a, b), labels[a:b], tuple(v[a:b] for v in values))
        for a, b in cuts))


class TestSquareWriter:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_cell_writer(self, data):
        """Every prior, channel and value count, fed in row blocks of drawn
        heights (one row, blocks across the prior row, the whole grid) and
        written in CSV blocks that end inside them: labelled cells print
        their values through %.9g (nan and inf too), INVALID_SPLIT cells
        print nan, and the label counts are a bincount of the whole grid."""
        resolution = data.draw(st.sampled_from([0.5, 1 / 7, 0.05, 1 / 37, 1 / 64]))
        n = round(1.0 / resolution)
        p = data.draw(st.sampled_from([0.0, 1.0, 0.5])
                      | st.integers(0, n).map(lambda i: i / n) | st.floats(0.0, 1.0))
        eps = data.draw(st.none() | st.sampled_from([0.0, 0.25, 0.5])
                        | st.floats(0.0, 0.5))
        grid = region_scan(p, eps, resolution)
        labels = square(grid)[0]
        labelled = labels != RegionLabel.INVALID_SPLIT
        values = []
        for _ in range(data.draw(st.integers(0, 2))):
            drawn = data.draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                                       min_size=1, max_size=9))
            v = np.full(labels.shape, np.nan)
            v[labelled] = [drawn[i % len(drawn)]
                           for i in range(np.count_nonzero(labelled))]
            values.append(v)
        # blocks of height rows from first on, after one block above first:
        # from the row before the prior's, a block of 3 rows or more is
        # across the prior row
        height = data.draw(st.sampled_from([1, n + 1]) | st.integers(1, n + 1))
        before = max(int(np.searchsorted(grid.p1_axis, p)) - 1, 0)
        first = data.draw(st.sampled_from([0, before]) | st.integers(0, n + 1))
        edges = sorted({0, n + 1, *range(first, n + 1, height)})
        header = ("p1", "p2", *(f"v{k}" for k in range(len(values))), "label")
        sink = io.BytesIO()
        block = data.draw(st.sampled_from([CSV_BLOCK_ROWS, 1, 24, 100]))
        with mock.patch("infodesign.cli.CSV_BLOCK_ROWS", block):
            counts = _write_square(sink, header,
                                   row_blocks(grid, labels, values, edges))
        whole = np.bincount(labels.ravel(), minlength=len(RegionLabel))
        assert counts == {label.name: int(whole[label]) for label in RegionLabel}
        assert sum(counts.values()) == (n + 1) ** 2
        rows = ((p1, p2, *(v[i, j] for v in values),
                 RegionLabel(int(labels[i, j])).name)
                for i, p1 in enumerate(grid.p1_axis)
                for j, p2 in enumerate(grid.p2_axis))
        assert sink.getvalue() == reference_csv(header, rows).encode()

    def test_value_in_invalid_split_raises(self, tmp_path):
        """The writer raises before it writes the block in which an
        INVALID_SPLIT cell holds a value, and a run frame leaves no file."""
        grid = region_scan(0.5, 0.25, 0.25)  # row 2, p1 = p, is all invalid
        labels = square(grid)[0]
        values = np.where(labels == RegionLabel.INVALID_SPLIT, np.nan, 1.0)
        values[2, 0] = 0.0
        blocks = row_blocks(grid, labels, [values], [0, 2, 4, 5])
        header = ("p1", "p2", "v", "label")
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="INVALID_SPLIT"):
            _write_square(sink, header, blocks)
        written = ((p1, p2, values[i, j], RegionLabel(int(labels[i, j])).name)
                   for i, p1 in enumerate(grid.p1_axis[:2])
                   for j, p2 in enumerate(grid.p2_axis))
        assert sink.getvalue() == reference_csv(header, written).encode()
        with pytest.raises(ValueError, match="INVALID_SPLIT"):
            write_one(tmp_path / "square.csv", _write_square, header, blocks)
        assert os.listdir(tmp_path) == []

    def test_surface_write_peak(self, tmp_path):
        # the writer that formatted whole columns peaked near 10 MiB here
        surf = scenario_surface(build_scenario(default_config()), 1 / 500, 0.25)
        tracemalloc.start()
        try:
            with open(tmp_path / "surface.csv", "wb") as sink:
                _write_square(sink, ("p1", "p2", "phi1", "phi2", "label"), surf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestStreamedPeaks:
    """Each grid subcommand holds O(n) arrays and one row block. Peaks
    through main under tracemalloc at the default sizes were 1.8 MiB for
    bestreply, 2.0 MiB for surface in each mode and 0.6 MiB for region,
    against 15.0, 6.0 and 2.2 MiB when bestreply built (N, K) tables over
    its whole sweep and surface and region filled whole squares: one more
    array of the sweep, or of the square's values, breaks the bound."""

    @pytest.mark.parametrize("args,mib", [
        (["bestreply", "--scenario", "mac", "--step", "1e-5"], 2.5),
        (["bestreply", "--scenario", "mac", "--step", "1e-6"], 2.5),
        (["surface", "--scenario", "mac"], 3),
        (["surface", "--scenario", "mac", "--mode", "one_shot", "--eps", "0.1"], 3),
        (["surface", "--scenario", "mac", "--mode", "block", "--eps", "0.1"], 3),
        (["region", "--p", "0.5", "--eps", "0.1"], 1)],
        ids=["bestreply", "bestreply 1e-6", "surface", "surface one_shot",
             "surface block", "region"])
    def test_peak(self, workdir, capsys, args, mib):
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0 and peak < mib * 2 ** 20

    @pytest.mark.parametrize("rows", [1000, 4096, 32768])
    def test_blocked_best_replies_are_one_sweep(self, rows):
        """bestreply's blocks of the prior sweep give the bits of one call
        over the whole sweep, on the case study and on random scenarios."""
        rng = np.random.default_rng(5)
        scenarios = [build_scenario(default_config())] + [
            Scenario(Distribution([0.3, 0.7]), tuple(range(k)),
                     rng.normal(size=(2, k)).round(d), rng.normal(size=(2, k)).round(d))
            for k, d in ((1, 3), (2, 1), (5, 0), (8, 6))]
        grid = np.linspace(0.0, 1.0, 100_001)
        for sc in scenarios:
            whole = grid_best_replies(sc, grid)
            parts = [grid_best_replies(sc, grid[a:a + rows])
                     for a in range(0, grid.size, rows)]
            for w, part in zip(whole, zip(*parts)):
                assert np.concatenate(part).tobytes() == w.tobytes()


class TestHostileNumbers:
    """Numbers past what a float, the grid cap or the memory caps hold, in
    every subcommand: exit 1 or 2, one JSON error line of a documented type
    on stderr, at most 160 characters long (an integer of more than 20
    digits is echoed in scientific form), and no file left beside the
    inputs."""

    @pytest.mark.parametrize("args,experiment", [
        (["capacity", "--bsc", "1e400"], None),
        (["capacity", "--bsc", "0.1", "--tol", "1e400"], None),
        (["capacity", "--bsc", "0.1", "--max-iter", str(-10 ** 30)], None),
        (["region", "--p", "1e400", "--eps", "0.1"], None),
        (["region", "--p", "0.5", "--eps", "-1e400"], None),
        (["region", "--p", "0.5", "--eps", "0.1", "--resolution", "1e-400"], None),
        (["region", "--p", "0.5", "--eps", "0.1", "--resolution", "1e-320"], None),
        (["bestreply", "--scenario", "mac", "--step", "1e-320"], None),
        (["bestreply", "--scenario", "mac", "--step", "1e400"], None),
        (["surface", "--scenario", "mac", "--resolution", "1e-320"], None),
        (["surface", "--scenario", "mac", "--mode", "block", "--eps", "1e400"], None),
        (["solve", "--scenario", "mac", "--mode", "block", "--cap", "1e400"], None),
        (["solve", "--scenario", "mac", "--mode", "unconstrained",
          "--resolution", "1e-320"], None),
        (["simulate", "--trials", str(10 ** 30)], {}),
        (["simulate"], {"n": "10000"}),
        (["simulate"], {"n": str(10 ** 400)}),
        (["simulate"], {"n": "1e400"}),
        (["simulate"], {"rate": "1e308"}),
        (["simulate"], {"rate": "1e400"}),
        (["capacity", "--bsc", "0.1", "--max-iter", str(-10 ** 400)], None),
        (["simulate", "--trials", str(-10 ** 400)], {}),
        (["simulate", "--seed", str(-10 ** 400)], {}),
        (["simulate"], {"seed": str(-10 ** 400)}),
        (["simulate"], {"n": "5000"})])
    def test_refused(self, workdir, capsys, args, experiment):
        if experiment is not None:
            doc = {k: v for k, v in EXPERIMENT_DOC.items() if k not in experiment}
            (workdir / "exp.json").write_text(json.dumps(doc)[:-1] + "".join(
                f', "{k}": {v}' for k, v in experiment.items()) + "}")
            args = [*args, "--experiment", "exp.json"]
        code, _, err = run_cli(args, capsys)
        assert code in (1, 2)
        assert len(err.splitlines()) == 1
        assert len(err) <= 160
        assert stderr_error(err)["type"] in ("usage", "invalid_input",
                                             "no_convergence", "io")
        assert os.listdir(workdir) == ([] if experiment is None else ["exp.json"])


class TestOutputsMatchPerCellOracle:
    def test_region(self, workdir, capsys):
        run_cli(["region", "--p", "0.5", "--eps", "0.25",
                 "--resolution", "0.05"], capsys)
        g = region_scan(0.5, 0.25, 0.05)
        labels = square(g)[0]
        rows = ((p1, p2, RegionLabel(int(labels[i, j])).name)
                for i, p1 in enumerate(g.p1_axis)
                for j, p2 in enumerate(g.p2_axis))
        assert (workdir / "region.csv").read_text() == reference_csv(
            ("p1", "p2", "label"), rows)

    @pytest.mark.parametrize("mode,eps", [("unconstrained", None),
                                          ("one_shot", 0.25),
                                          ("block", 0.25)])
    def test_surface(self, workdir, capsys, mode, eps):
        args = ["surface", "--scenario", "mac", "--mode", mode,
                "--resolution", "0.05"]
        run_cli(args + ([] if eps is None else ["--eps", str(eps)]), capsys)
        s = scenario_surface(build_scenario(default_config()), 0.05, eps)
        labels, values = square(s)
        rows = ((p1, p2, *(v[i, j] for v in values),
                 RegionLabel(int(labels[i, j])).name)
                for i, p1 in enumerate(s.p1_axis)
                for j, p2 in enumerate(s.p2_axis))
        assert (workdir / "surface.csv").read_text() == reference_csv(
            ("p1", "p2", "phi1", "phi2", "label"), rows)

    def test_bestreply(self, workdir, capsys):
        run_cli(["bestreply", "--scenario", "mac", "--step", "0.05"], capsys)
        sc = build_scenario(default_config())
        grid = np.linspace(0.0, 1.0, 21)
        sel, _, v2 = grid_best_replies(sc, grid)
        rows = zip(grid, (sc.actions[int(k)] for k in sel), v2)
        assert (workdir / "bestreply.csv").read_text() == reference_csv(
            ("p", "v_star", "receiver_value"), rows)


class _Unprintable:
    def __bytes__(self):
        raise RuntimeError("cell cannot be formatted")


class TestAtomicOutputs:
    def test_csv_failing_mid_stream_leaves_nothing(self, tmp_path):
        # the first block is written before the failing cell is reached
        cells = [b"x" * 40] * (CSV_BLOCK_ROWS + 3) + [_Unprintable()]
        with pytest.raises(RuntimeError):
            write_one(tmp_path / "out.csv", _write_csv, ("s",),
                      [[np.array(cells, dtype=object)]])
        assert os.listdir(tmp_path) == []

    def test_json_failing_mid_stream_keeps_old_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            write_one(target, _write_json, {"a": 1.0, "z": object()})
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_symlinked_output_is_written_through(self, workdir, capsys,
                                                 existing):
        (workdir / "data").mkdir()
        target = workdir / "data" / "region.csv"
        if existing:
            target.write_text("old\n")
        os.symlink(target, workdir / "link.csv")
        code, _, _ = run_cli(["region", "--p", "0.5", "--eps", "0.25",
                              "--resolution", "0.25", "--out", "link.csv"],
                             capsys)
        assert code == 0
        assert os.path.islink(workdir / "link.csv")
        header, rows = read_csv(target)
        assert header == ["p1", "p2", "label"] and len(rows) == 25
        assert os.listdir(workdir / "data") == ["region.csv"]

    def test_existing_target_keeps_its_permission_bits(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        os.chmod(target, 0o640)
        write_one(target, _write_json, {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640

    def test_fifo_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.json"
        os.mkfifo(fifo)
        # a non-blocking reader lets the writer open the FIFO without a thread
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_one(fifo, _write_json, {"a": 1})
            sent = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert json.loads(sent) == {"a": 1}
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["out.json", "out.json.manifest.json"]

    def test_fifo_output_is_digested_as_written(self, workdir):
        """A run whose --out is a FIFO writes the data once and exits: the
        manifest's digest is that of the bytes the reader got, with no
        re-read of the FIFO (which would wait for a writer for ever)."""
        fifo = workdir / "region.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            proc = cli_process(["region", "--p", "0.5", "--eps", "0.25",
                                "--resolution", "0.25", "--out", "region.csv"],
                               workdir, timeout=60)
        finally:
            if reader.is_alive():  # no writer came: let the reader see EOF
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert proc.returncode == 0, proc.stderr
        assert got[0].count(b"\n") == 26
        manifest = json.loads((workdir / "region.csv.manifest.json").read_text())
        assert manifest["outputs"]["region.csv"] == hashlib.sha256(got[0]).hexdigest()

    @pytest.mark.parametrize("args,doc", [
        (["solve", "--mode", "unconstrained", "--resolution", "0.1", "--scenario"],
         {"prior": [0.4, 0.6], "actions": [0, 1], "phi1": [[1, 0], [0, 1]],
          "phi2": [[1, 0], [0, 1]]}),
        (["capacity", "--matrix"], {"matrix": [[0.9, 0.1], [0.2, 0.8]]})],
        ids=["solve", "capacity"])
    def test_fifo_input_is_digested_as_read(self, workdir, args, doc):
        """A run whose input is a FIFO reads it once and exits: the
        manifest's digest is that of the bytes the writer sent, with no
        second open of the FIFO (which would wait for a writer for ever)."""
        fifo = workdir / "in.json"
        os.mkfifo(fifo)
        sent = json.dumps(doc).encode()
        writer = threading.Thread(target=fifo.write_bytes, args=(sent,))
        writer.start()
        try:
            proc = cli_process([*args, "in.json", "--out", "out.json"], workdir,
                               timeout=30)
        finally:
            if writer.is_alive():  # no reader came: take the bytes here
                drain = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
                writer.join(timeout=10)
                os.close(drain)
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((workdir / "out.json.manifest.json").read_text())
        assert manifest["inputs"] == {"in.json": hashlib.sha256(sent).hexdigest()}


class TestGridCap:
    @pytest.mark.parametrize("args", [
        ["region", "--p", "0.5", "--eps", "0.25", "--resolution", "1e-6"],
        ["surface", "--scenario", "mac", "--resolution", "1e-6"],
        ["solve", "--scenario", "mac", "--mode", "unconstrained",
         "--resolution", "1e-6"],
        ["bestreply", "--scenario", "mac", "--step", "1e-9"],
    ])
    def test_oversized_grid_refused_before_allocation(self, workdir, capsys,
                                                      args):
        code, _, err = run_cli(args, capsys)
        assert code == 1
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert "cap" in e["message"]
        assert os.listdir(workdir) == []

    def test_zero_resolution_is_invalid_input(self, workdir, capsys):
        code, _, err = run_cli(["region", "--p", "0.5", "--eps", "0.25",
                                "--resolution", "0"], capsys)
        assert code == 1
        assert stderr_error(err)["type"] == "invalid_input"


PRIOR_03 = Scenario(Distribution([0.3, 0.7]), (0, 1), np.eye(2), np.eye(2))


def scan_points(cells):
    """Points per axis of a two- or three-point grid from the cells a solve
    at prior 0.3 scans: one point lies below the prior, so 2 (points - 1)."""
    return cells // 2 + 1


def cli_grid(args, capsys, points):
    """points(stdout) of a CLI run; a run that fails with invalid_input
    raises ValueError with its message, as the library would."""
    code, out, err = run_cli(args, capsys)
    if code:
        e = stderr_error(err)
        assert code == 1 and e["type"] == "invalid_input"
        raise ValueError(e["message"])
    return points(out)


def solve_points(out):
    manifest = json.loads(Path("solve.json.manifest.json").read_text())
    return scan_points(manifest["counters"]["cells_scanned"])


GRID_SITES = {
    "region_scan": lambda s, _: region_scan(0.3, 0.25, s).p1_axis.size,
    "scenario_surface": lambda s, _: scenario_surface(PRIOR_03, s).p1_axis.size,
    "solve_equilibrium": lambda s, _: scan_points(
        solve_equilibrium(PRIOR_03, Unconstrained(), s).cells_scanned),
    "cli region": lambda s, c: cli_grid(
        ["region", "--p", "0.3", "--eps", "0.25", "--resolution", str(s)], c,
        lambda out: math.isqrt(int(out.split()[2]))),
    "cli surface": lambda s, c: cli_grid(
        ["surface", "--scenario", "mac", "--resolution", str(s)], c,
        lambda out: math.isqrt(int(out.split()[2]))),
    "cli solve": lambda s, c: cli_grid(
        ["solve", "--scenario", "prior03.json", "--mode", "unconstrained",
         "--resolution", str(s)], c, solve_points),
    "cli bestreply": lambda s, c: cli_grid(
        ["bestreply", "--scenario", "mac", "--step", str(s)], c,
        lambda out: int(out.split()[2])),
}


class TestGridRule:
    """Every posterior grid and prior sweep has round(1/spacing) intervals,
    at least one (splitting.grid_intervals)."""

    @pytest.mark.parametrize("site", GRID_SITES)
    @pytest.mark.parametrize("spacing,points", [
        (1.5, 2), (0.6, 3), (2.5, None), (1e300, None), (math.inf, None)])
    def test_one_rule(self, workdir, capsys, site, spacing, points):
        (workdir / "prior03.json").write_text(json.dumps(scenario_doc(PRIOR_03)))
        if points is None:
            with pytest.raises(ValueError, match="leaves one point"):
                GRID_SITES[site](spacing, capsys)
        else:
            assert GRID_SITES[site](spacing, capsys) == points


class TestEpsRule:
    """Every --eps of solve and surface is a flip probability in [0, 1/2],
    whatever the mode and whether or not --cap is given."""

    @pytest.mark.parametrize("args", [
        ["solve", "--mode", "block", "--eps", "0.9"],
        ["solve", "--mode", "block", "--eps", "0.9", "--cap", "0.3"],
        ["solve", "--mode", "unconstrained", "--eps", "0.9"],
        ["surface", "--mode", "unconstrained", "--eps", "0.9"],
        ["solve", "--mode", "block", "--eps", "1.5"]], ids=" ".join)
    def test_outside_refused(self, workdir, capsys, args):
        code, out, err = run_cli([args[0], "--scenario", "mac", *args[1:]],
                                 capsys)
        assert code == 1 and out == ""
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        eps = args[args.index("--eps") + 1]
        assert e["message"] == f"{args[0]}: eps {eps} outside [0, 1/2]"
        assert os.listdir(workdir) == []

    @pytest.mark.parametrize("args", [["--cap", "-1e-3"], ["--eps", "-inf"],
                                      ["--cap=-1e-3"]], ids=" ".join)
    def test_value_starting_with_a_dash(self, workdir, capsys, args):
        """A value that starts with '-' is the option's value, so the
        command's own check refuses it, not the parser."""
        code, out, err = run_cli(["solve", "--scenario", "mac", "--mode",
                                  "block", *args], capsys)
        assert code == 1 and out == ""
        assert stderr_error(err)["type"] == "invalid_input"
        assert os.listdir(workdir) == []


    @pytest.mark.parametrize("cap", ["nan", "inf", "-1"])
    def test_cap_not_finite_and_nonnegative_refused(self, workdir, capsys, cap):
        code, out, err = run_cli(["solve", "--scenario", "mac", "--mode",
                                  "block", "--cap", cap], capsys)
        assert code == 1 and out == ""
        e = stderr_error(err)
        assert e["type"] == "invalid_input"
        assert e["message"] == f"Block: capacity {float(cap)!r} must be finite and >= 0"
        assert os.listdir(workdir) == []


class TestDeterminism:
    def test_simulate_reruns_byte_identical(self, workdir, experiment_file,
                                            capsys):
        args = ["simulate", "--experiment", experiment_file, "--trials", "40"]
        run_cli(args, capsys)
        first = ((workdir / "simulate.json").read_bytes(),
                 (workdir / "simulate_trials.csv").read_bytes())
        run_cli(args, capsys)
        second = ((workdir / "simulate.json").read_bytes(),
                  (workdir / "simulate_trials.csv").read_bytes())
        assert first == second

    def test_solve_reruns_byte_identical(self, workdir, capsys):
        args = ["solve", "--scenario", "mac", "--mode", "one_shot",
                "--eps", "0.25", "--resolution", "0.01"]
        run_cli(args, capsys)
        first = (workdir / "solve.json").read_bytes()
        run_cli(args, capsys)
        assert (workdir / "solve.json").read_bytes() == first


class TestEntryPoint:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.endswith(f", version {__version__}\n")

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(["bogus"], capsys)
        assert code == 2
        assert stderr_error(err)["type"] == "usage"

    def test_help_exits_clean(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert out.startswith("usage: ") and "--version" in out
        assert all(name in out for name in ("capacity", "region", "bestreply",
                                            "surface", "solve", "simulate"))

    def test_main_builds_no_parser(self, workdir, capsys):
        # the parser is built once, at import: a call only parses with it
        with mock.patch("argparse.ArgumentParser.__init__",
                        side_effect=AssertionError("parser built in main")):
            assert run_cli(["capacity", "--bsc", "0.25"], capsys)[0] == 0
            assert run_cli(["region", "--help"], capsys)[0] == 0
            assert run_cli(["region", "--p", "0.5"], capsys)[0] == 2

    # one call per stdout line of the CLI, and the help and version flags: a
    # stream the CLI kept a reference to (a wrapper cached per stream, say)
    # would stay alive for the life of the process
    @pytest.mark.parametrize("args", [
        pytest.param(["--version"], id="--version"),
        pytest.param(["--help"], id="--help"),
        pytest.param(["region", "--help"], id="region --help"),
        ["capacity", "--bsc", "0.25"],
        ["region", "--p", "0.5", "--eps", "0.25", "--resolution", "0.1"],
        ["bestreply", "--scenario", "mac", "--step", "0.1"],
        ["surface", "--scenario", "mac", "--resolution", "0.1"],
        ["solve", "--scenario", "mac", "--mode", "unconstrained",
         "--resolution", "0.1"],
        ["simulate", "--experiment", "exp.json", "--trials", "2"]],
        ids=lambda a: a[0])
    def test_redirected_stdout_is_released(self, experiment_file, args):
        refs = []
        for _ in range(3):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(args) == 0
            assert buf.getvalue()
            refs.append(weakref.ref(buf))
            del buf
        gc.collect()
        assert [r() for r in refs] == [None] * 3


# sha256 of the square outputs at resolution 0.05, recorded before the three
# posterior-square scans became one; the oracle tests above compare the CLI
# with the library, so only these catch a change in both
OUTPUT_PINS = [
    (["region", "--p", "0.5", "--eps", "0.25"], "region.csv",
     "ae23d85100d3964c6587b456505556017dbd39907859b426c190dcde58372e62"),
    (["surface", "--scenario", "mac", "--mode", "unconstrained"], "surface.csv",
     "0e4ad5341cbd604918f407f6638dac210dff2ef9801c94b1af401eb9e0ef6528"),
    (["surface", "--scenario", "mac", "--mode", "one_shot", "--eps", "0.25"],
     "surface.csv",
     "60d8eba95696abe7cba1614f9a9cbfaf517ff784dbb6de39a640ebbc43ed2296"),
    (["surface", "--scenario", "mac", "--mode", "block", "--eps", "0.25"],
     "surface.csv",
     "60d8eba95696abe7cba1614f9a9cbfaf517ff784dbb6de39a640ebbc43ed2296"),
    (["solve", "--scenario", "mac", "--mode", "unconstrained"], "solve.json",
     "0932f3d6f888a49df0be26eb730f9351d4493d3bf34c931fcb319ddf0a28618d"),
    (["solve", "--scenario", "mac", "--mode", "one_shot", "--eps", "0.25"],
     "solve.json",
     "69ba64e07be354158f6fcf0cd37302d9d6b3491555f9a7ce74d6bf18f1bd4587"),
    (["solve", "--scenario", "mac", "--mode", "block", "--eps", "0.25"],
     "solve.json",
     "fef96f06d40936907cdd2c86e972c64ccce1e91c946eae2355aa61d2c03b3e2f"),
]


class TestOutputPins:
    @pytest.mark.parametrize("args,out,digest", OUTPUT_PINS,
                             ids=[" ".join(a[:4]) for a, _, _ in OUTPUT_PINS])
    def test_bytes_pinned(self, workdir, capsys, args, out, digest):
        assert run_cli(args + ["--resolution", "0.05"], capsys)[0] == 0
        assert hashlib.sha256((workdir / out).read_bytes()).hexdigest() == digest


class TestLabelCounters:
    @pytest.mark.parametrize("args,out", [
        (["region", "--p", "0.3", "--eps", "0.1"], "region.csv"),
        (["surface", "--scenario", "mac"], "surface.csv"),
        (["surface", "--scenario", "mac", "--mode", "block", "--eps", "0.25"],
         "surface.csv")])
    def test_counters_count_csv_labels(self, workdir, capsys, args, out):
        code, stdout, _ = run_cli(args + ["--resolution", "0.05"], capsys)
        assert code == 0 and stdout == f"wrote {out}: 441 cells\n"
        _, rows = read_csv(workdir / out)
        manifest = json.loads((workdir / (out + ".manifest.json")).read_text())
        counters = manifest["counters"]
        assert list(counters) == sorted(label.name for label in RegionLabel)
        assert counters == {label.name: sum(r[-1] == label.name for r in rows)
                            for label in RegionLabel}
        assert sum(counters.values()) == 441
