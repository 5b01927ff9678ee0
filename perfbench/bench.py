"""One benchmark process: set-up, timed answers, checks, tracing.

``perfbench/run.py`` starts this file, times its set-up from outside,
watches each answer against the wall-clock limit, samples its memory
and prints the result.  Messages to the parent are stdout lines that
start with ``@pb`` followed by one JSON object.

Roles:
    probe    set up (import, characterize, build the design), report
             ready, exit: one more set-up sample.
    measure  set up, then answer for ``--seconds`` (and at least the
             workload's minimum number of answers), checking each
             answer; with ``--trace 1`` every other answer is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from tracing import Tracer, count_sum, layer_rows

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def emit(**message) -> None:
    print("@pb " + json.dumps(message), flush=True)


def import_repro() -> float:
    """Import the checkout's own ``repro``; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    start = time.perf_counter()
    import repro
    elapsed = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {repro.__file__}, "
                         f"not the checkout's")
    return elapsed


def set_up(name: str, seed: int, smoke: bool = False):
    """Characterize both device tables and build the workload's design."""
    import workloads
    from repro import TableModelLibrary

    start = time.perf_counter()
    library = TableModelLibrary(workloads.TECH)
    library.get("n")
    library.get("p")
    built = time.perf_counter()
    workload = workloads.make(name, seed, smoke)
    workload.build(workloads.TECH, library)
    return workload, built - start, time.perf_counter() - built


# ----------------------------------------------------------------------
# Tracing: which entry point is which layer.
# ----------------------------------------------------------------------
def install_tracer():
    """Wrap each layer's entry point; returns the tracer."""
    import repro.analysis.parallel as parallel
    import repro.core.engine as engine
    import repro.devices.table_model as table_model
    import repro.resilience.ladder as ladder
    import repro.spice.dc as dc
    import repro.spice.transient as transient
    from repro.analysis.parallel import canonical_stage_form
    from repro.analysis.sta import StaticTimingAnalyzer
    from repro.core.qwm import QWMSolver

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer(OUT_DIR)
    forms = {}

    def resolve(counts):
        """DC call -> (canonical stage, canonical input levels) key."""
        stage = counts.pop("stage", None)
        if stage is None:
            return counts
        # Worker stages arrive as per-task copies; names are unique
        # within one design, objects only within this process.
        ident = stage.name if tracer.in_worker else id(stage)
        form = forms.get(ident)
        if form is None:
            form = forms[ident] = canonical_stage_form(stage)
        levels = sorted((form.input_ids.get(name, name), repr(level))
                        for name, level in counts.pop("levels").items())
        counts["key"] = f"{form.fingerprint}|{levels}"
        return counts

    tracer.resolve = resolve

    def dc_counts(result, args, kwargs):
        levels = args[1] if len(args) > 1 else kwargs["input_levels"]
        return {"stage": args[0].stage, "levels": dict(levels)}

    def stats_counts(result, args, kwargs):
        stats = result.stats
        return {"steps": stats.steps,
                "newton_iterations": stats.newton_iterations,
                "table_queries": stats.device_evaluations}

    tracer.wrap(table_model, "characterize_device", "devices.characterize")
    tracer.wrap(StaticTimingAnalyzer, "analyze", "sta.analyze")
    tracer.wrap(StaticTimingAnalyzer, "stage_arc", "sta.arc")
    tracer.wrap(parallel.ParallelStaEngine, "run", "parallel.run")
    tracer.wrap(parallel, "canonical_form_for", "parallel.canonical")
    tracer.wrap(ladder, "adaptive_spice_arc", "ladder.spice")
    tracer.wrap(engine.WaveformEvaluator, "evaluate", "engine.evaluate")
    tracer.wrap(engine, "extract_path", "path.extract")
    tracer.wrap(dc, "solve_dc", "dc.solve", dc_counts)
    tracer.wrap(transient, "solve_dc", "dc.solve", dc_counts)
    tracer.wrap(QWMSolver, "solve", "qwm.solve", stats_counts)
    tracer.wrap(transient.TransientSimulator, "run", "transient.run",
                stats_counts)
    return tracer


#: Spans that enclose a whole answer.  Their self time is the answer's
#: own glue, covered by no layer, so coverage leaves it out.
ROOT_SPANS = ("sta.analyze",)

#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` lists the ones
#: the benchmark gates on (``sta-decoder4-pool``, ``paper-arcs``); the
#: other two stay runnable by name.
WORKLOADS = ("sta-decoder4", "sta-decoder4-pool", "sta-random-logic",
             "paper-arcs")

#: Per-layer metrics: name -> (unit, better).  Order is print order.
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "devices.characterize_s": ("s", "lower"),
    "circuit.extract_s": ("s", "lower"),
    "sta.arcs": ("count", "lower"),
    "sta.self_s": ("s", "lower"),
    "sta.evaluations_per_arc": ("count/arc", "lower"),
    "dc.calls": ("count", "lower"),
    "dc.s": ("s", "lower"),
    "dc.distinct": ("count", "lower"),
    "dc.useful_ratio": ("ratio", "higher"),
    "dc.failures": ("count", "lower"),
    "engine.calls": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "path.calls": ("count", "lower"),
    "path.s": ("s", "lower"),
    "qwm.solves": ("count", "lower"),
    "qwm.s": ("s", "lower"),
    "qwm.regions": ("count", "lower"),
    "qwm.newton_iterations": ("count", "lower"),
    "qwm.table_queries": ("count", "lower"),
    "parallel.run_s": ("s", "lower"),
    "parallel.canonical_s": ("s", "lower"),
    "parallel.cache_hits": ("count", "higher"),
    "parallel.cache_misses": ("count", "lower"),
    "parallel.distinct_arcs": ("count", "lower"),
    "parallel.useful_ratio": ("ratio", "higher"),
    "transient.runs": ("count", "lower"),
    "transient.s": ("s", "lower"),
    "transient.steps": ("count", "lower"),
    "transient.newton_iterations": ("count", "lower"),
    "ladder.escalated_arcs": ("count", "lower"),
    "spice_1ps_s": ("s", "lower"),
    "delay_err_mean_pct": ("%", "lower"),
    "delay_err_max_pct": ("%", "lower"),
    "optimism_max_pct": ("%", "lower"),
    "workload.sharing_ratio": ("ratio", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def answer_layers(records, run: str, wall: float) -> dict:
    """Per-layer metrics of one traced answer (parent and workers)."""
    spans = [r for r in records if r["run"] == run]

    def calls(name):
        return sum(1 for r in spans if r["name"] == name)

    def total(name):
        return sum(r["end"] - r["start"] for r in spans if r["name"] == name)

    def self_s(name):
        return sum(r["self"] for r in spans if r["name"] == name)

    dc_keys = {r["counts"]["key"] for r in spans
               if r["name"] == "dc.solve" and r["counts"]
               and "key" in r["counts"]}
    dc_calls = calls("dc.solve")
    arcs = calls("sta.arc")
    covered = sum(r["self"] for r in spans
                  if not r["worker"] and r["name"] not in ROOT_SPANS)
    return {
        "sta.arcs": arcs,
        "sta.self_s": self_s("sta.arc"),
        "sta.evaluations_per_arc": (calls("engine.evaluate") / arcs
                                    if arcs else 0.0),
        "dc.calls": dc_calls,
        "dc.s": total("dc.solve"),
        "dc.distinct": len(dc_keys),
        "dc.useful_ratio": len(dc_keys) / dc_calls if dc_calls else 0.0,
        "dc.failures": count_sum(spans, run, "dc.solve", "raised"),
        "engine.calls": calls("engine.evaluate"),
        "engine.self_s": self_s("engine.evaluate"),
        "path.calls": calls("path.extract"),
        "path.s": total("path.extract"),
        "qwm.solves": calls("qwm.solve"),
        "qwm.s": total("qwm.solve"),
        # A QWM solution's steps are its solved regions.
        "qwm.regions": count_sum(spans, run, "qwm.solve", "steps"),
        "qwm.newton_iterations": count_sum(spans, run, "qwm.solve",
                                           "newton_iterations"),
        "qwm.table_queries": count_sum(spans, run, "qwm.solve",
                                       "table_queries"),
        "parallel.run_s": total("parallel.run"),
        "parallel.canonical_s": total("parallel.canonical"),
        "trace.coverage_pct": 100.0 * covered / wall,
    }


def format_layer_table(records, run: str, wall: float) -> str:
    """Calls, total and self time per layer for one traced answer."""
    lines = [f"  {'layer':22s} {'calls':>7s} {'total_s':>9s} "
             f"{'self_s':>9s} {'self%':>6s}"]
    parent = layer_rows(records, run, worker=False)
    covered = 0.0
    for name, row in sorted(parent.items(), key=lambda kv: -kv[1]["self"]):
        if name in ROOT_SPANS:
            # Self time counted below as unattributed.
            lines.append(f"  {name:22s} {row['calls']:7d} "
                         f"{row['total']:9.3f} {'-':>9s} {'-':>6s}")
            continue
        covered += row["self"]
        lines.append(f"  {name:22s} {row['calls']:7d} {row['total']:9.3f} "
                     f"{row['self']:9.3f} {100 * row['self'] / wall:6.1f}")
    lines.append(f"  {'(unattributed)':22s} {'':7s} {'':9s} "
                 f"{wall - covered:9.3f} "
                 f"{100 * (wall - covered) / wall:6.1f}")
    workers = layer_rows(records, run, worker=True)
    if workers:
        lines.append("  pool workers (busy time summed over workers; "
                     "not part of the wall-time split above):")
        for name, row in sorted(workers.items(),
                                key=lambda kv: -kv[1]["self"]):
            lines.append(f"  {name:22s} {row['calls']:7d} "
                         f"{row['total']:9.3f} {row['self']:9.3f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def measure(args) -> None:
    import_s = import_repro()
    workload, characterize_s, build_s = set_up(args.workload, args.seed,
                                               args.smoke)
    tracer = install_tracer() if args.trace else None
    emit(event="ready", arcs=workload.arcs_per_answer)

    answers = []
    attempted = failed = 0
    samples = []
    start = time.perf_counter()
    while True:
        index = len(answers)
        traced = tracer is not None and index % 2 == 1
        run = f"answer{index}"
        emit(event="start", index=index, traced=traced)
        if traced:
            tracer.begin(run)
        t0 = time.perf_counter()
        result = workload.answer()
        wall = time.perf_counter() - t0
        if traced:
            tracer.end()
        emit(event="end", index=index, wall=wall, traced=traced)
        attempted += workload.arcs_per_answer
        failed += workload.check(result)
        answers.append({"wall": wall, "traced": traced})
        if traced:
            sample = answer_layers(tracer.records(), run, wall)
            hits, misses, distinct = workload.cache_counts()
            sample.update({
                "parallel.cache_hits": hits,
                "parallel.cache_misses": misses,
                "parallel.distinct_arcs": distinct,
                "parallel.useful_ratio": distinct / misses if misses
                else 0.0,
                "ladder.escalated_arcs": workload.escalated(result)})
            samples.append((wall, run, sample))
        # Stop before an answer that would end past ``--seconds``, so a
        # run's length does not jump by a whole answer with CPU speed.
        elapsed = time.perf_counter() - start
        expected = statistics.median(a["wall"] for a in answers)
        enough = (elapsed + expected > args.seconds
                  and len(answers) >= workload.min_answers)
        if enough and (tracer is None or samples):
            break

    if tracer is not None:
        tracer.begin("reference")
    failed += workload.finish()
    if tracer is not None:
        tracer.end()

    message = {"event": "result", "attempted": attempted,
               "failed": failed, "answers": answers,
               "properties": workload.properties(),
               "accuracy": workload.accuracy,
               "notes": workload.notes[:20]}
    if tracer is not None:
        tracer.unwrap_all()
        records = tracer.records()
        message["per_layer"] = per_layer_metrics(
            records, workload, answers, samples,
            {"setup.import_s": import_s,
             "devices.characterize_s": characterize_s,
             "circuit.extract_s": build_s})
        # The table shows the traced answer with the median wall time.
        wall, run, _ = sorted(samples)[(len(samples) - 1) // 2]
        table = format_layer_table(records, run, wall)
        if tracer.missing:
            table += ("\n  entry points not found: "
                      + ", ".join(tracer.missing))
        message["layer_table"] = f"traced {run}, {wall:.3f} s:\n{table}"
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    emit(**message)


def per_layer_metrics(records, workload, answers, samples, setup) -> dict:
    """Every per-layer metric: medians over the traced answers, set-up
    times, the reference pass's transient counts and accuracy."""
    metrics = {name: statistics.median(s[name] for _, _, s in samples)
               for name in samples[0][2]}
    untraced = statistics.median(a["wall"] for a in answers
                                 if not a["traced"])
    traced = statistics.median(a["wall"] for a in answers if a["traced"])
    transient = layer_rows(records, "reference", worker=False).get(
        "transient.run", {"calls": 0, "total": 0.0})
    metrics.update(setup)
    metrics.update(workload.accuracy)
    metrics.update({
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        "transient.runs": transient["calls"],
        "transient.s": transient["total"],
        "transient.steps": count_sum(records, "reference",
                                     "transient.run", "steps"),
        "transient.newton_iterations": count_sum(
            records, "reference", "transient.run", "newton_iterations"),
        "workload.sharing_ratio": workload.properties()["sharing_ratio"],
    })
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def probe(args) -> None:
    import_repro()
    set_up(args.workload, args.seed, args.smoke)
    emit(event="ready")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("measure", "probe"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.role == "probe":
        probe(args)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
