"""Incremental STA speedup (the practical payoff of fast stage evaluation).

Timing closure loops edit one device at a time and re-time the design.
With the stage-result cache, only the edited stage and its
loading-affected driver need fresh QWM evaluations, and isomorphic
stages share solved arcs even within the first pass.  This bench times
a full analysis of an inverter/NAND chain versus the incremental
re-analysis after a single transistor resize and reports the arc
counts (solved vs served from the cache).
"""

from benchmarks.harness import format_table, run_once, save_result
from repro.analysis import IncrementalTimer, StaticTimingAnalyzer
from repro.circuit import extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.circuit.stage import FlatNetlist

CHAIN_LENGTH = 8


def _chain(tech):
    """An 8-stage chain alternating inverters and NAND2s."""
    net = FlatNetlist("chain8", vdd=tech.vdd)
    prev = "a"
    for i in range(CHAIN_LENGTH):
        out = f"n{i}" if i < CHAIN_LENGTH - 1 else "y"
        if i % 2 == 0:
            net.add_pmos(f"p{i}", gate=prev, src=VDD_NODE, snk=out,
                         w=2e-6, l=tech.lmin)
            net.add_nmos(f"m{i}", gate=prev, src=out, snk=GND_NODE,
                         w=1e-6, l=tech.lmin)
        else:
            net.add_pmos(f"p{i}", gate=prev, src=VDD_NODE, snk=out,
                         w=2e-6, l=tech.lmin)
            net.add_pmos(f"p{i}e", gate="en", src=VDD_NODE, snk=out,
                         w=2e-6, l=tech.lmin)
            net.add_nmos(f"m{i}", gate=prev, src=out, snk=f"x{i}",
                         w=1e-6, l=tech.lmin)
            net.add_nmos(f"m{i}e", gate="en", src=f"x{i}",
                         snk=GND_NODE, w=1e-6, l=tech.lmin)
        prev = out
    net.mark_input("a")
    net.mark_input("en")
    net.mark_output("y")
    net.set_load("y", 5e-15)
    return extract_stages(net, tech=tech)


def test_full_analysis_cost(benchmark, tech, library):
    graph = _chain(tech)
    timer = IncrementalTimer(tech, graph, library=library)
    benchmark.pedantic(timer.analyze, rounds=1, iterations=1)
    assert timer.last_stats.arcs_evaluated > 0


def test_incremental_resize_speedup(benchmark, tech, library):
    import time

    graph = _chain(tech)
    timer = IncrementalTimer(tech, graph, library=library)

    def experiment():
        t0 = time.perf_counter()
        first = timer.analyze()
        t_full = time.perf_counter() - t0
        full_stats = timer.last_stats

        # Resize one NMOS in the last stage and re-time.
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 2e-6)
        t0 = time.perf_counter()
        second = timer.analyze()
        t_inc = time.perf_counter() - t0
        inc_stats = timer.last_stats

        # Ground truth and the re-time the incremental pass replaces:
        # an uncached full analysis of the edited design.
        t0 = time.perf_counter()
        cold = StaticTimingAnalyzer(tech, library=library).analyze(graph)
        t_cold = time.perf_counter() - t0
        return (first, second, cold, t_full, t_inc, t_cold, full_stats,
                inc_stats)

    (first, second, cold, t_full, t_inc, t_cold, full_stats,
     inc_stats) = run_once(benchmark, experiment)

    # Cache sharing is exact: bit-identical to the uncached arithmetic.
    assert second.arrivals == cold.arrivals
    assert inc_stats.arcs_evaluated < full_stats.arcs_evaluated
    speedup = t_cold / t_inc
    save_result("incremental_sta.txt", format_table(
        "Incremental STA after one transistor resize (8-stage chain)",
        ["quantity", "value"],
        [
            ["stages", str(len(graph.stages))],
            ["full analysis arcs", str(full_stats.total)],
            ["full analysis arcs solved",
             str(full_stats.arcs_evaluated)],
            ["incremental arcs re-evaluated",
             str(inc_stats.arcs_evaluated)],
            ["arcs served from cache", str(inc_stats.arcs_cached)],
            ["full analysis time (cached)", f"{t_full * 1e3:.1f} ms"],
            ["full re-time (uncached)", f"{t_cold * 1e3:.1f} ms"],
            ["incremental time", f"{t_inc * 1e3:.1f} ms"],
            ["speedup vs uncached re-time", f"{speedup:.1f}x"],
            ["worst arrival (before)",
             f"{first.worst.time * 1e12:.1f} ps"],
            ["worst arrival (after)",
             f"{second.worst.time * 1e12:.1f} ps"],
        ]))
    assert speedup > 1.5
