"""Self-tests of the benchmark: smoke runs at tiny sizes, tracer hygiene,
span arithmetic, and the output checks themselves.

    python3 -m pytest bench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import decks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from infodesign import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(decks.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric(workload, trace):
    doc = run.measure(workload, seed=5, seconds=0.2, trace=trace, tiny=True)
    driver = doc["driver"]
    assert driver["correct"], doc["outcomes"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(driver["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        value = driver["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    failures = {k for k in doc["outcomes"] if k != "passed"}
    if workload == "channel_capacity":
        assert failures == {"error: no_convergence"} and driver["failed"] > 0
    else:
        assert not failures and driver["failed"] == 0
    assert "\n".join(run.report(doc))


def test_wrappers_are_removed_after_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    modules = spans._program_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with spans.Tracer() as tracer:
        from infodesign import persuasion, splitting
        assert persuasion.split_masks is splitting.split_masks
        assert getattr(persuasion.split_masks, "__traced__", False)
        assert cli.main(["solve", "--scenario", "mac", "--mode", "block",
                         "--eps", "0.2", "--resolution", "0.05"]) == 0
    assert spans.leftovers() == []
    assert not tracemalloc.is_tracing()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {names[s[0]]: names.get(s[4]) for s in tracer.spans}
    assert parents["split_masks"] == "solve_equilibrium"
    assert parents["solve_equilibrium"] == "main"


def test_no_self_time_exceeds_its_span(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rounds = decks.build("simulate_ladder", 2, str(tmp_path), tiny=True)
    rounds += decks.build("grid_export", 2, str(tmp_path), tiny=True)
    with spans.Tracer() as tracer:
        for c, call in enumerate(rounds[0] + rounds[-1]):
            tracer.call = c
            assert cli.main(call["argv"]) == 0
    selfs = spans.self_times(tracer.spans)
    layer_of = {name: layer for layer, names in spans.TRACED.values() for name in names}
    span_total, self_total = {}, {}
    for s in tracer.spans:
        duration = s[3] - s[2]
        assert -1e-9 <= selfs[s[0]] <= duration
        layer = layer_of[s[1]]
        span_total[layer] = span_total.get(layer, 0.0) + duration
        self_total[layer] = self_total.get(layer, 0.0) + selfs[s[0]]
    assert {"cli", "splitting", "persuasion", "mac", "channel", "coding",
            "prob"} <= set(span_total)
    assert all(self_total[k] <= span_total[k] for k in span_total)
    roots = sum(s[3] - s[2] for s in tracer.spans if s[4] == -1)
    assert sum(selfs.values()) == pytest.approx(roots, rel=1e-9)


def test_tail_keeps_ten_calls_above():
    assert run.tail(list(range(10))) is None
    value, pct = run.tail(list(range(21, 0, -1)))
    assert value == 11 and pct == pytest.approx(100 * 11 / 21)


def test_times_are_rescaled_by_the_clock_probes():
    ref = run.PROBE_REF_S
    result = {"round_walls": [3.0, 1.5], "rss_kib": 1024,
              "calls": [{"round": 0, "latency": 1.0, "clock": ref},
                        {"round": 0, "latency": 2.0, "clock": 2 * ref},
                        {"round": 1, "latency": 1.5, "clock": ref / 2}]}
    values, _, measured = run.end_to_end([(0.2, 2 * ref), (0.3, ref)], result)
    assert values["wall_s"] == pytest.approx(2.5) and measured["wall_s"] == 2.25
    assert values["call_p50_s"] == pytest.approx(1.0) and measured["call_p50_s"] == 1.5
    assert values["setup_s"] == pytest.approx(0.2) and measured["setup_s"] == 0.25
    assert "call_tail_s" not in values


def _built(workload, seed, workdir):
    workdir.mkdir()
    rounds = decks.build(workload, seed, str(workdir))
    return rounds, {f.name: f.read_bytes() for f in workdir.iterdir()}


def test_decks_follow_the_seed(tmp_path):
    for workload in decks.WORKLOADS:
        a, b, c = (_built(workload, seed, tmp_path / f"{workload}-{k}")
                   for k, seed in enumerate((7, 7, 8)))
        assert a == b and a != c


def _capacity_call(tmp_path, rows):
    (tmp_path / "ch.json").write_text(json.dumps({"matrix": rows}))
    call = {"argv": ["capacity", "--matrix", "ch.json"], "kind": "capacity",
            "outputs": ["capacity.json"], "expect": {}}
    assert cli.main(call["argv"]) == 0
    return call, json.loads((tmp_path / "capacity.json").read_text())


def test_capacity_certificate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = decks.separated_channel(np.random.default_rng(4)).tolist()
    call, doc = _capacity_call(tmp_path, rows)
    assert checks.check_call(call, ".", 0, "")[0] == "passed"
    checks.capacity_certificate(rows, doc)
    for wrong in (doc["capacity"] + 1e-6, doc["capacity"] - doc["residual"] - 1e-6):
        with pytest.raises(checks.CheckFailed):
            checks.capacity_certificate(rows, dict(doc, capacity=wrong))


def test_outcomes_of_failed_and_wrong_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rows = decks.near_useless_channel(np.random.default_rng(1), 0.004).tolist()
    (tmp_path / "ch.json").write_text(json.dumps({"matrix": rows}))
    call = {"argv": ["capacity", "--matrix", "ch.json", "--max-iter", "50"],
            "kind": "capacity", "outputs": ["capacity.json"], "expect": {}}
    rc = cli.main(call["argv"])
    err = capsys.readouterr().err
    assert checks.check_call(call, ".", rc, err)[:2] == ("error", "no_convergence")
    assert checks.check_call(call, ".", 1, "Traceback ...")[0] == "wrong"

    region = decks.build("grid_export", 3, str(tmp_path), tiny=True)[0][0]
    assert cli.main(region["argv"]) == 0
    outcome, _, digests = checks.check_call(region, ".", 0, "")
    assert outcome == "passed"
    assert checks.check_call(region, ".", 0, "", golden=digests)[0] == "passed"
    assert checks.check_call(region, ".", 0, "", golden={"region.csv": "0" * 64})[0] == "wrong"
    text = (tmp_path / "region.csv").read_text().replace("ONE_SHOT", "TWO_SHOT", 1)
    (tmp_path / "region.csv").write_text(text)
    assert checks.check_call(region, ".", 0, "")[0] == "wrong"


def test_goldens_cover_every_round_of_the_golden_decks():
    doc = json.loads(Path(checks.GOLDENS).read_text())
    assert doc["seed"] == checks.GOLDEN_SEED
    for workload, digests in doc["digests"].items():
        rounds = decks.DECK_ROUNDS[workload]
        assert {k.split("/")[0] for k in digests} == {str(r) for r in range(rounds)}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "grid_export", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
