"""Seeded random gate-level logic, built from ``FlatNetlist`` primitives.

The program only ever sees the finished netlist; the seed stays with the
benchmark.  Gates are inverters, NAND2, NAND3 and NOR2 with widths drawn
at random, so no two stages are isomorphic and every arc is distinct:
the workload on which stage sharing (caches, dedupe, DC memo) cannot
help.  Each gate draws its inputs from the most recent nets, which keeps
the logic deep rather than a flat fan-out of the primary inputs.

The gates themselves (kind and widths) come from a fixed draw, equal
for every seed; the seed shuffles their order and draws the wiring.
Per-gate cost varies a lot with width (the DC precharge solve above
all), so drawing widths per seed would change the work of an answer by
a third from seed to seed; with fixed gates, a seed changes the loads,
depth and parallelism but not the amount of work.
"""

from __future__ import annotations

import random

from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.circuit.stage import FlatNetlist

#: Gate kinds and their input counts.
KINDS = (("inv", 1), ("nand2", 2), ("nand3", 3), ("nor2", 2))
#: Lumped load on every primary output [F].
OUTPUT_LOAD = 5e-15
#: Seed of the gate draw (kinds and widths), shared by every netlist,
#: and of the ``paper-arcs`` stack widths.
GATE_SEED = 2003
#: Primary inputs ``i0..``.
INPUTS = 8
#: A gate's inputs come from the last ``WINDOW`` nets.
WINDOW = 12


def _gates(tech, count: int):
    """(kind, fan_in, wn, wp) for ``count`` gates, an equal share of
    each kind; widths in [1, 4] x minimum, PMOS about twice the NMOS."""
    rng = random.Random(GATE_SEED)
    return [KINDS[g % len(KINDS)] + (tech.wmin * rng.uniform(1.0, 4.0),
                                     tech.wmin * rng.uniform(2.0, 8.0))
            for g in range(count)]


def random_logic(tech, seed: int, gates: int = 48) -> FlatNetlist:
    """A ``gates``-gate random netlist over :data:`INPUTS` primary inputs.

    Args:
        tech: technology (supply, minimum width and length).
        seed: generator seed; equal seeds give equal netlists.
        gates: number of gates.
    """
    rng = random.Random(seed)
    cells = _gates(tech, gates)
    rng.shuffle(cells)
    net = FlatNetlist(f"random{gates}_s{seed}", vdd=tech.vdd)
    nets = [f"i{k}" for k in range(INPUTS)]
    for name in nets:
        net.mark_input(name)
    used = set()
    l = tech.lmin
    for g, (kind, fan_in, wn, wp) in enumerate(cells):
        pool = nets[-WINDOW:]
        ins = rng.sample(pool, min(fan_in, len(pool)))
        used.update(ins)
        out = f"g{g}"
        series_n = kind.startswith("nand") or kind == "inv"
        if series_n:
            # NMOS stack from the output down to ground, PMOS parallel.
            upper = out
            for k, sig in enumerate(ins):
                lower = GND_NODE if k == len(ins) - 1 else f"{out}_n{k}"
                net.add_nmos(f"MN{g}_{k}", gate=sig, src=upper,
                             snk=lower, w=wn, l=l)
                upper = lower
            for k, sig in enumerate(ins):
                net.add_pmos(f"MP{g}_{k}", gate=sig, src=VDD_NODE,
                             snk=out, w=wp, l=l)
        else:
            # NOR: PMOS stack from the supply down to the output.
            upper = VDD_NODE
            for k, sig in enumerate(ins):
                lower = out if k == len(ins) - 1 else f"{out}_p{k}"
                net.add_pmos(f"MP{g}_{k}", gate=sig, src=upper,
                             snk=lower, w=wp, l=l)
                upper = lower
            for k, sig in enumerate(ins):
                net.add_nmos(f"MN{g}_{k}", gate=sig, src=out,
                             snk=GND_NODE, w=wn, l=l)
        nets.append(out)
    for name in nets[INPUTS:]:
        if name not in used:
            net.mark_output(name)
            net.set_load(name, OUTPUT_LOAD)
    return net
