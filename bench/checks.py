"""Output checks for every benchmark call, kept outside the timed region.

Each call ends in one of three outcomes:

- ``passed``: exit 0 and every output check holds;
- ``error``: a non-zero exit with one documented JSON error line on stderr
  and no data output left behind (the call failed, the program behaved as
  documented);
- ``wrong``: anything else, such as a failed output check, a golden digest
  mismatch or an undocumented exit. A wrong outcome makes the run incorrect.

CSV files are scanned in blocks, so a check never holds a whole grid in
memory and does not move the worker's peak resident memory.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

ERROR_TYPES = {"usage", "invalid_input", "no_convergence", "io"}
REGION_LABELS = ("INVALID_SPLIT", "ONE_SHOT", "BLOCK_ONLY", "INFEASIBLE")
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
GOLDEN_SEED = 0
BLOCK = 1 << 20


class CheckFailed(Exception):
    """An output violates the call's contract."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _fmt(x) -> str:
    return format(float(x), ".9g")


def scan_csv(path: str, header: str, patterns) -> dict:
    """Stream a CSV: sha256, data row and comma counts, pattern counts, and
    the first and last data rows."""
    digest = hashlib.sha256()
    counts = dict.fromkeys(patterns, 0)
    rows = commas = 0
    first = last = b""
    with open(path, "rb") as f:
        head = f.readline()
        digest.update(head)
        _require(head == header.encode() + b"\n", f"{path}: header {head[:80]!r}")
        carry = b""
        while block := f.read(BLOCK):
            digest.update(block)
            block = carry + block
            cut = block.rfind(b"\n") + 1
            body, carry = block[:cut], block[cut:]
            if not body:
                continue
            if not first:
                first = body[:body.find(b"\n")]
            last = body[body.rfind(b"\n", 0, len(body) - 1) + 1:-1]
            rows += body.count(b"\n")
            commas += body.count(b",")
            for p in patterns:
                counts[p] += body.count(p)
    _require(not carry, f"{path}: last row has no newline")
    return {"sha256": digest.hexdigest(), "rows": rows, "commas": commas,
            "counts": counts, "first": first, "last": last}


def _check_grid(scan: dict, path: str, rows: int, fields: int, labels) -> None:
    _require(scan["rows"] == rows, f"{path}: {scan['rows']} rows, expected {rows}")
    _require(scan["commas"] == (fields - 1) * rows, f"{path}: ragged rows")
    _require(scan["first"].startswith(b"0,0,") and scan["last"].startswith(b"1,1,"),
             f"{path}: grid does not run from (0, 0) to (1, 1)")
    seen = sum(scan["counts"][f",{name}\n".encode()] for name in labels)
    _require(seen == rows, f"{path}: {rows - seen} rows carry an unknown label")


def check_region(path: str, expect: dict) -> str:
    scan = scan_csv(path, "p1,p2,label",
                    [f",{name}\n".encode() for name in REGION_LABELS])
    _check_grid(scan, path, expect["rows"], 3, REGION_LABELS)
    return scan["sha256"]


def check_surface(path: str, expect: dict) -> str:
    labels = (("VALID", "INVALID_SPLIT") if expect["mode"] == "unconstrained"
              else REGION_LABELS)
    invalid = b",nan,nan,INVALID_SPLIT\n"
    patterns = [f",{name}\n".encode() for name in labels] + [invalid, b"nan"]
    scan = scan_csv(path, "p1,p2,phi1,phi2,label", patterns)
    _check_grid(scan, path, expect["rows"], 5, labels)
    counts = scan["counts"]
    n_invalid = counts[b",INVALID_SPLIT\n"]
    _require(0 < n_invalid < expect["rows"], f"{path}: no valid or no invalid cell")
    _require(counts[invalid] == n_invalid and counts[b"nan"] == 2 * n_invalid,
             f"{path}: nan values outside the INVALID_SPLIT cells")
    return scan["sha256"]


def check_bestreply(path: str, expect: dict) -> str:
    patterns = [f",{_fmt(a)},".encode() for a in expect["actions"]]
    scan = scan_csv(path, "p,v_star,receiver_value", patterns)
    rows = expect["rows"]
    _require(scan["rows"] == rows, f"{path}: {scan['rows']} rows, expected {rows}")
    _require(scan["commas"] == 2 * rows, f"{path}: ragged rows")
    _require(sum(scan["counts"].values()) == rows,
             f"{path}: best reply outside the action set")
    _require(scan["first"].startswith(b"0,") and scan["last"].startswith(b"1,"),
             f"{path}: prior axis does not run from 0 to 1")
    return scan["sha256"]


def _read(path: str):
    with open(path, "rb") as f:
        data = f.read()
    return data, hashlib.sha256(data).hexdigest()


def _unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def check_solve(path: str, expect: dict) -> str:
    data, digest = _read(path)
    doc = json.loads(data)
    _require(doc["mode"] == expect["mode"], f"{path}: mode {doc['mode']!r}")
    post = doc["posteriors"]
    _require(_unit(post["p1"]) and _unit(post["p2"]), f"{path}: posterior outside [0, 1]")
    w = doc["message_weights"]
    _require(len(w) == 2 and all(map(_unit, w)) and abs(sum(w) - 1.0) <= 1e-9,
             f"{path}: message weights {w!r}")
    _require(len(doc["receiver_actions"]) == 2
             and all(a in expect["actions"] for a in doc["receiver_actions"]),
             f"{path}: receiver action outside the scenario")
    _require(doc["feasibility"]["feasible"] is True, f"{path}: infeasible optimum")
    _require(all(isinstance(doc[k], float) and math.isfinite(doc[k])
                 for k in ("phi1_star", "phi2_star")), f"{path}: non-finite value")
    _require(isinstance(doc["no_info"], bool), f"{path}: no_info flag")
    return digest


TRIALS_HEADER = "trial,error,chosen_m,decoded_m,l1_to_target,util1,util2"


def check_simulate(paths, expect: dict) -> list:
    report_path, trials_path = paths
    data, report_digest = _read(report_path)
    doc = json.loads(data)
    n, trials = expect["n"], expect["trials"]
    _require(doc["n"] == n and doc["trials"] == trials,
             f"{report_path}: n={doc['n']} trials={doc['trials']}")
    words = math.ceil(2.0 ** (n * expect["rate"]) * (1.0 - 1e-12))
    _require(doc["codebook_size"] == words, f"{report_path}: codebook size")
    for key in ("error_rate", "nocover_rate", "decodefail_rate"):
        _require(_unit(doc[key]), f"{report_path}: {key} = {doc[key]!r}")
    _require(doc["mean_l1"] >= 0.0, f"{report_path}: negative mean_l1")
    data, trials_digest = _read(trials_path)
    lines = data.decode().split("\n")
    _require(lines[0] == TRIALS_HEADER and lines[-1] == "",
             f"{trials_path}: header or trailing newline")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(len(rows) == trials and all(len(r) == 7 for r in rows),
             f"{trials_path}: {len(rows)} rows")
    _require([int(r[0]) for r in rows] == list(range(trials)),
             f"{trials_path}: trial column")
    errors = [int(r[1]) for r in rows]
    _require(set(errors) <= {0, 1}, f"{trials_path}: error flags")
    _require(abs(sum(errors) / trials - doc["error_rate"]) <= 1e-12,
             f"{trials_path}: error flags disagree with error_rate")
    return [report_digest, trials_digest]


def capacity_certificate(rows, doc: dict, atol: float = 1e-12) -> None:
    """max_x D(T_x || q) at the returned input law q = r T bounds capacity
    from above; the reported residual closes the bracket from below."""
    T = np.asarray(rows, dtype=float)
    r = np.asarray(doc["optimal_input"], dtype=float)
    _require(r.shape == (T.shape[0],) and r.min() >= 0.0
             and abs(r.sum() - 1.0) <= 1e-9, "capacity: optimal_input is not a law")
    q = r @ T
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(T > 0, T * np.log2(T / q), 0.0)
    upper = float(terms.sum(axis=1).max())
    cap, residual = doc["capacity"], doc["residual"]
    _require(isinstance(residual, float) and residual >= 0.0,
             f"capacity: residual {residual!r}")
    _require(cap <= upper + atol,
             f"capacity: {cap!r} above the certificate bound {upper!r}")
    _require(cap >= upper - residual - atol,
             f"capacity: {cap!r} below the bound {upper!r} minus residual {residual!r}")


def check_capacity(path: str, matrix_path: str) -> str:
    data, digest = _read(path)
    doc = json.loads(data)
    with open(matrix_path) as f:
        rows = json.load(f)["matrix"]
    _require(isinstance(doc["iterations"], int) and doc["iterations"] >= 1,
             f"{path}: iterations {doc['iterations']!r}")
    capacity_certificate(rows, doc)
    return digest


def _error_type(stderr: str):
    lines = stderr.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        kind = json.loads(lines[0])["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return None
    return kind if kind in ERROR_TYPES else None


def check_call(call: dict, workdir: str, rc: int, stderr: str,
               golden=None) -> tuple:
    """Outcome of one call: (outcome, detail, digests of its data outputs).

    golden, when given, maps each data output to its recorded sha256.
    """
    outputs = [os.path.join(workdir, name) for name in call["outputs"]]
    if rc != 0:
        kind = _error_type(stderr)
        if kind is None:
            return "wrong", f"exit {rc} without a documented error: {stderr[-300:]!r}", {}
        if any(os.path.exists(p) for p in outputs):
            return "wrong", f"{kind} error left an output behind", {}
        return "error", kind, {}
    kind, expect = call["kind"], call["expect"]
    try:
        if kind == "simulate":
            digests = check_simulate(outputs, expect)
        elif kind == "capacity":
            digests = [check_capacity(outputs[0],
                                      os.path.join(workdir, call["argv"][2]))]
        else:
            checker = {"region": check_region, "surface": check_surface,
                       "bestreply": check_bestreply, "solve": check_solve}[kind]
            digests = [checker(outputs[0], expect)]
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as e:
        return "wrong", f"{kind}: {e}", {}
    digests = dict(zip(call["outputs"], digests))
    if golden is not None and kind != "capacity":
        bad = [name for name in call["outputs"] if golden.get(name) != digests[name]]
        if bad:
            return "wrong", f"{kind}: {', '.join(bad)} differs from the golden bytes", digests
    return "passed", "", digests


def machine_key() -> dict:
    """What decides floating-point bytes: the numpy build and the CPU paths
    it dispatches to. Goldens recorded under another key are not compared."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = sorted(f for f in umath.__cpu_dispatch__
                      if umath.__cpu_features__.get(f))
    return {"numpy": np.__version__, "cpu_dispatch": features}


def load_goldens(workload: str):
    """Recorded digests for the workload's full-size deck at GOLDEN_SEED, or
    None when none exist or they were recorded under another machine key."""
    try:
        with open(GOLDENS) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return None
    if doc["machine"] != machine_key():
        return None
    return doc["digests"].get(workload)
