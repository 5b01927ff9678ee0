"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke runs use ``--smoke`` designs (decoder-2, 10 random gates,
five paper arcs), so the whole file takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import CMOSP35, TableModelLibrary  # noqa: E402
from repro.analysis.sta import ArrivalTime  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(*args, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        ["python3", os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def library():
    lib = TableModelLibrary(CMOSP35)
    lib.get("n")
    lib.get("p")
    return lib


# ----------------------------------------------------------------------
# Contract: names, units, and the shape of the last line.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_prints_end_to_end_metrics(workload):
    code, lines = run_bench("--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", "0", "--smoke")
    assert code == 0
    result = last_json(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sta-decoder4-pool", "paper-arcs"])
def test_traced_run_prints_per_layer_metrics(workload):
    code, lines = run_bench("--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", "1", "--smoke")
    assert code == 0
    result = last_json(lines)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "paper-arcs":
        assert metrics["qwm.solves"] == 5
        assert metrics["transient.runs"] == 5
    else:
        # Spans recorded inside the pool workers come home.
        assert metrics["sta.arcs"] > 0
        assert metrics["parallel.cache_misses"] > 0
    assert metrics["trace.coverage_pct"] > 95.0


def test_benchmark_json_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["sta-decoder4-pool", "paper-arcs"]
    assert set(names) <= set(bench.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", "paper-arcs", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# ----------------------------------------------------------------------
# The random-logic generator.
# ----------------------------------------------------------------------
def _shape(netlist):
    return ([(t.name, t.gate, t.src, t.snk, t.w) for t in
             netlist.transistors], sorted(netlist.primary_outputs))


def test_generator_is_deterministic_per_seed():
    assert _shape(gen.random_logic(CMOSP35, 7)) == \
        _shape(gen.random_logic(CMOSP35, 7))


def test_generator_seeds_differ():
    assert _shape(gen.random_logic(CMOSP35, 7)) != \
        _shape(gen.random_logic(CMOSP35, 8))


def test_generated_arcs_are_all_distinct():
    from repro import extract_stages

    graph = extract_stages(gen.random_logic(CMOSP35, 7), tech=CMOSP35)
    distinct, total = workloads.sharing(workloads.sta_arcs(graph))
    assert distinct == total > 150


def test_paper_cases_seed_orders_fixed_cases():
    def cases(seed):
        return [(c.name, [t.w for t in c.stage.transistors])
                for c in workloads.paper_cases(CMOSP35, seed)]

    assert cases(7) == cases(7)
    assert cases(7) != cases(8)
    assert sorted(cases(7)) == sorted(cases(8))


# ----------------------------------------------------------------------
# Failure accounting.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def decoder2(library):
    workload = workloads.make("sta-decoder4", seed=1, smoke=True)
    workload.build(CMOSP35, library)
    return workload, workload.answer()


def _corrupt(result, event, **change):
    arrivals = dict(result.arrivals)
    old = arrivals[event]
    fields = {"net": old.net, "direction": old.direction,
              "time": old.time, "cause": old.cause, "slew": old.slew,
              "quality": old.quality}
    fields.update(change)
    arrivals[event] = ArrivalTime(**fields)
    return type(result)(arrivals=arrivals, worst=result.worst)


def test_clean_answer_has_no_failed_arcs(decoder2):
    workload, result = decoder2
    assert workload.check(result) == 0


def test_corrupted_arrival_is_counted_failed(decoder2):
    workload, result = decoder2
    reference = {event: a.time for event, a in result.arrivals.items()}
    bad = _corrupt(result, ("w1", "rise"),
                   time=result.arrivals[("w1", "rise")].time + 1e-13)
    failures = workloads.check_arrivals(workload.graph, bad, reference,
                                        exact=True)
    assert set(failures) == {("w1", "rise")}
    # w1 is driven by a one-input inverter: one failed arc.
    assert workloads.failed_arcs(workload.graph, failures) == 1


def test_repeat_answer_that_differs_is_counted_failed(decoder2):
    workload, result = decoder2
    fresh = workloads.make("sta-decoder4", seed=1, smoke=True)
    fresh.graph, fresh.bits, fresh.reference = (workload.graph, 2, None)
    assert fresh.check(result) == 0
    bad = _corrupt(result, ("n0", "fall"),
                   time=result.arrivals[("n0", "fall")].time * 1.5)
    assert fresh.check(bad) == 2  # n0 is a 2-input NAND output


def test_serial_reference_is_kept_per_source_digest(decoder2, tmp_path,
                                                    monkeypatch):
    workload, result = decoder2
    monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
    want = workloads.serial_arrivals(workload)
    assert want == {event: a.time for event, a in result.arrivals.items()}
    (path,) = tmp_path.iterdir()
    assert workloads.source_digest() in path.name
    # A second call reads the file: a stale entry there is what the
    # pooled answers are then held to.
    payload = json.loads(path.read_text())
    payload["w1|rise"] = (want[("w1", "rise")] + 1e-13).hex()
    path.write_text(json.dumps(payload))
    stale = workloads.serial_arrivals(workload)
    failures = workloads.check_arrivals(workload.graph, result, stale,
                                        exact=True)
    assert set(failures) == {("w1", "rise")}


def test_escalated_arrival_is_counted_failed(decoder2):
    workload, result = decoder2
    bad = _corrupt(result, ("w0", "fall"), quality="spice")
    failures = workloads.check_arrivals(workload.graph, bad)
    assert failures == {("w0", "fall"): "quality spice"}


def test_out_of_band_arc_is_counted_failed(library):
    workload = workloads.make("paper-arcs", seed=1, smoke=True)
    workload.build(CMOSP35, library)
    delays = workload.answer()
    assert workload.check(delays) == 0
    assert workload.check(list(delays)) == 0
    # A reference 20% away puts every arc outside the 10% band, on
    # every pass.
    workload.reference = lambda: [d * 1.2 for d in delays]
    assert workload.finish() == 2 * len(delays)
    # A missing QWM delay was counted by check(), not again here.
    assert workloads.out_of_band([1.0, 1.2, None], [1.0, 1.0, 1.0]) == [1]


def test_hung_answer_is_killed_and_counted_failed(monkeypatch, capsys):
    monkeypatch.setattr(run, "ANSWER_LIMIT", 0.01)
    code = run.main(["--workload", "sta-decoder4", "--seed", "1",
                     "--seconds", "1", "--trace", "0", "--smoke"])
    assert code == 0
    result = last_json(capsys.readouterr().out.strip().splitlines())
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_root_span_self_time_is_not_coverage():
    def span(name, start, end, self_s, parent):
        return {"name": name, "run": "a", "worker": False, "start": start,
                "end": end, "self": self_s, "parent": parent,
                "counts": None}

    # analyze() spends 9 of its 10 s outside every layer span.
    records = [span("sta.analyze", 0.0, 10.0, 9.0, -1),
               span("sta.arc", 0.0, 1.0, 1.0, 0)]
    metrics = bench.answer_layers(records, "a", 10.0)
    assert metrics["trace.coverage_pct"] == pytest.approx(10.0)
    table = bench.format_layer_table(records, "a", 10.0)
    assert "(unattributed)" in table and "9.000" in table


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(v) for v in range(1, 41)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
