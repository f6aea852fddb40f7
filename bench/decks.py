"""Seeded workload decks for the benchmark.

A deck is a list of rounds; a round is the list of CLI calls that make up one
unit of a workload. Every input file a call reads is generated here from the
benchmark seed into the run's work directory; no repository test data is
used. Each call carries the facts its output check needs (``expect``).

The worker cycles through the rounds until its time budget is spent, so the
deck length only sets how many distinct inputs one run sees.
"""
from __future__ import annotations

import json
import os

import numpy as np

MAC_ACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]

# Bundled simulate experiment, restated so the benchmark never reads the
# package's data directory (the per-n config seed is filled in per call).
EXPERIMENT = {
    "n": 20, "rate": 0.15, "eps_typ": 0.5, "seed": 0,
    "prior": [0.5, 0.5],
    "signal": [[0.65, 0.35], [0.35, 0.65]],
    "response": [[1.0, 0.0], [0.0, 1.0]],
    "channel": {"bsc": 0.05},
    "input_dist": [0.5, 0.5],
    "phi1": [[1.0, 0.0], [0.0, 1.0]],
    "phi2": [[1.0, 0.0], [0.0, 1.0]],
}

# Near-useless channel ladder: four inputs on a segment of chi-square radius
# delta around a common row, so the number of capacity sweeps is set by delta
# alone (about 1e5+, 3e4, 3.5e3 and 440 at this commit) and every seed gets
# the same mix of convergence difficulty. Calls pass --max-iter
# CAPACITY_SWEEPS, so the first two rungs end in no_convergence until
# capacity iteration is fixed, and each such call is the same, repeatable
# amount of work. Three separated channels below the four rungs make the
# median call the delta = 0.3 rung, whose work does not change with the seed.
NEAR_USELESS_DELTAS = (0.004, 0.03, 0.1, 0.3)
SEPARATED_PER_ROUND = 3
CAPACITY_SWEEPS = 20_000

WORKLOADS = {
    "grid_export": "region, surface in all three modes and a fine bestreply: "
                   "the CSV writer in cli does most of the work",
    "solve_sweep": "solve in three modes on mac and random 2-8 action "
                   "scenarios: the O(n^2) split grid works, the writer idles",
    "simulate_ladder": "simulate at n = 20..80: per-trial overhead at short "
                       "n, codeword scans in encode/decode at long n",
    "channel_capacity": "capacity on random DMCs, 4 in 7 near-useless: "
                        "the only workload where capacity iteration works",
}

# Rounds per deck at full size; the worker cycles through them.
DECK_ROUNDS = {"grid_export": 4, "solve_sweep": 4, "simulate_ladder": 8,
               "channel_capacity": 8}


def _rng(seed: int, workload: str, *key: int) -> np.random.Generator:
    tag = sorted(WORKLOADS).index(workload)
    return np.random.default_rng([seed, tag, *key])


def _write_json(workdir: str, name: str, doc) -> str:
    with open(os.path.join(workdir, name), "w") as f:
        json.dump(doc, f)
    return name


def _grid_export(seed, workdir, tiny):
    res = ["--resolution", "0.025"] if tiny else []  # default is 1/500
    side = 41 if tiny else 501
    step = "1e-3" if tiny else "1e-5"
    rounds = []
    for r in range(DECK_ROUNDS["grid_export"]):
        rng = _rng(seed, "grid_export", r)
        p = f"{rng.uniform(0.2, 0.8):.4f}"
        eps = f"{rng.uniform(0.02, 0.3):.4f}"
        eps2 = f"{rng.uniform(0.02, 0.3):.4f}"
        calls = [{"argv": ["region", "--p", p, "--eps", eps] + res, "kind": "region",
                  "outputs": ["region.csv"], "expect": {"rows": side * side}}]
        # Every round runs all three modes (block at two eps), so rounds cost
        # the same, and four surface calls against two quicker ones put the
        # median and tail calls inside the cluster of surface calls.
        for mode, e in (("unconstrained", None), ("one_shot", eps),
                        ("block", eps), ("block", eps2)):
            surface = ["surface", "--scenario", "mac", "--mode", mode]
            if e is not None:
                surface += ["--eps", e]
            calls.append({"argv": surface + res, "kind": "surface",
                          "outputs": ["surface.csv"],
                          "expect": {"rows": side * side, "mode": mode}})
        calls.append({"argv": ["bestreply", "--scenario", "mac", "--step", step],
                      "kind": "bestreply", "outputs": ["bestreply.csv"],
                      "expect": {"rows": round(1 / float(step)) + 1,
                                 "actions": MAC_ACTIONS}})
        rounds.append(calls)
    return rounds


def _random_scenario(rng) -> dict:
    k = int(rng.integers(2, 9))
    p = round(float(rng.uniform(0.2, 0.8)), 4)
    return {"prior": [p, 1.0 - p],
            "actions": [f"a{i}" for i in range(k)],
            "phi1": rng.normal(size=(2, k)).round(6).tolist(),
            "phi2": rng.normal(size=(2, k)).round(6).tolist()}


def _solve_sweep(seed, workdir, tiny):
    fine, coarse = ("0.0125", "0.02") if tiny else ("5e-4", "1e-3")
    rounds = []
    for r in range(DECK_ROUNDS["solve_sweep"]):
        rng = _rng(seed, "solve_sweep", r)
        scenarios = [("mac", MAC_ACTIONS)]
        for s in range(2):
            doc = _random_scenario(rng)
            scenarios.append((_write_json(workdir, f"scenario_r{r}_{s}.json", doc),
                              doc["actions"]))
        plan = [(sc, coarse) for sc in scenarios]
        plan.append((scenarios[int(rng.integers(3))], fine))
        calls = []
        for (spec, actions), res in plan:
            for mode in ("unconstrained", "one_shot", "block"):
                argv = ["solve", "--scenario", spec, "--mode", mode,
                        "--resolution", res]
                if mode != "unconstrained":
                    argv += ["--eps", f"{rng.uniform(0.02, 0.4):.4f}"]
                calls.append({"argv": argv, "kind": "solve",
                              "outputs": ["solve.json"],
                              "expect": {"mode": mode, "actions": actions}})
        rounds.append(calls)
    return rounds


def _simulate_ladder(seed, workdir, tiny):
    # Five rungs, so the median call is the middle rung's, not an average
    # of the slowest n=40 and the fastest n=60 call.
    ladder = (20, 40) if tiny else (20, 40, 50, 60, 80)
    trials = "20" if tiny else "200"
    rounds = []
    for r in range(DECK_ROUNDS["simulate_ladder"]):
        rng = _rng(seed, "simulate_ladder", r)
        calls = []
        for n in ladder:
            doc = dict(EXPERIMENT, n=n, seed=int(rng.integers(2 ** 31)))
            name = _write_json(workdir, f"exp_r{r}_n{n}.json", doc)
            calls.append({"argv": ["simulate", "--experiment", name,
                                   "--trials", trials],
                          "kind": "simulate",
                          "outputs": ["simulate.json", "simulate_trials.csv"],
                          "expect": {"n": n, "trials": int(trials),
                                     "rate": EXPERIMENT["rate"]}})
        rounds.append(calls)
    return rounds


def separated_channel(rng) -> np.ndarray:
    """Each input leans on its own output: every input is used, so the
    capacity iteration converges in tens of sweeps."""
    k = int(rng.integers(2, 7))
    m = int(rng.integers(2, k + 1))
    eta = rng.uniform(0.05, 0.35)
    rows = eta * rng.dirichlet(np.ones(k), size=m)
    rows[np.arange(m), rng.permutation(k)[:m]] += 1.0 - eta
    return rows


def near_useless_channel(rng, delta: float) -> np.ndarray:
    """Rows q + delta t_x d on one chi-square-normalized direction d.

    q keeps every entry at or above 0.1, so rows stay positive for
    delta <= 0.3; t spans [-1, 1] evenly, so the extreme inputs carry the
    optimal law and the interior ones must decay to zero mass.
    """
    k = int(rng.integers(2, 7))
    m = 4  # the sweep count depends on the number of inputs too
    q = 0.6 / k + 0.4 * rng.dirichlet(np.ones(k))
    g = rng.standard_normal(k)
    d = g - q * g.sum()
    d /= np.sqrt((d * d / q).sum())
    t = rng.permutation(np.linspace(-1.0, 1.0, m))
    return q[None, :] + delta * t[:, None] * d[None, :]


def _channel_capacity(seed, workdir, tiny):
    rounds = []
    for r in range(DECK_ROUNDS["channel_capacity"]):
        rng = _rng(seed, "channel_capacity", r)
        mats = [separated_channel(rng) for _ in range(SEPARATED_PER_ROUND)]
        mats += [near_useless_channel(rng, delta) for delta in NEAR_USELESS_DELTAS]
        order = rng.permutation(len(mats))
        calls = []
        for i in order:
            name = _write_json(workdir, f"channel_r{r}_{i}.json",
                               {"matrix": mats[i].tolist()})
            sweeps = CAPACITY_SWEEPS // 10 if tiny else CAPACITY_SWEEPS
            argv = ["capacity", "--matrix", name, "--max-iter", str(sweeps)]
            calls.append({"argv": argv, "kind": "capacity",
                          "outputs": ["capacity.json"], "expect": {}})
        rounds.append(calls)
    return rounds


_BUILDERS = {"grid_export": _grid_export, "solve_sweep": _solve_sweep,
             "simulate_ladder": _simulate_ladder,
             "channel_capacity": _channel_capacity}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list:
    """Write the workload's inputs into workdir and return its rounds."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](seed, workdir, tiny)
