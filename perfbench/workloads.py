"""The benchmark's workloads: design, one answer, and its checks.

Each workload builds its design once (set-up), then produces answers:
one ``analyze(graph)`` for the STA workloads, one QWM pass over every
arc for ``paper-arcs``.  After each answer the benchmark checks it and
counts the arcs that failed; after the timed loop :meth:`finish` runs
the reference comparisons that are too slow to repeat.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import (CMOSP35, ConstantSource, StaticTimingAnalyzer,
                   StepSource, TableModelLibrary, TransientOptions,
                   TransientSimulator, WaveformEvaluator, builders,
                   extract_stages)
from repro.analysis.golden import (DELAY_TOLERANCE_PCT, SPICE_DT, T_STOP,
                                   T_SWITCH, golden_cases)
from repro.analysis.parallel import (ExecutionConfig, StageResultCache,
                                     canonical_stage_form)

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run outputs of the benchmark (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Committed serial arrivals of decoder-4 (float.hex per event).
DECODER4_REFERENCE = os.path.join(HERE, "decoder4_arrivals.json")
#: Allowed drift from the committed reference [s] (0.01 ps).
ARRIVAL_TOL = 1e-14
#: Stages of random logic re-timed serially after the pooled answers.
SPOT_CHECK_STAGES = 6
#: Stack lengths of the paper's Table II.
STACK_LENGTHS = range(5, 11)

#: ``repro sta --cache --backend process --workers 2``.
POOL = ExecutionConfig(backend="process", workers=2, cache=True)

Event = Tuple[str, str]


# ----------------------------------------------------------------------
# STA helpers
# ----------------------------------------------------------------------
def sta_arcs(graph) -> List[tuple]:
    """Every (stage, output, direction, input) arc of a stage graph."""
    return [(stage, out.name, direction, name)
            for stage in graph.stages for out in stage.outputs
            for direction in ("rise", "fall") for name in stage.inputs]


def sharing(arcs) -> Tuple[int, int]:
    """(distinct canonical arcs, arcs): how much work inputs share."""
    forms: Dict[int, object] = {}
    keys = set()
    for stage, output, direction, name in arcs:
        form = forms.get(id(stage))
        if form is None:
            form = forms[id(stage)] = canonical_stage_form(stage)
        keys.add((form.fingerprint, form.net_ids[output], direction,
                  form.input_ids[name]))
    return len(keys), len(arcs)


def check_arrivals(graph, result,
                   reference: Optional[Dict[Event, float]] = None,
                   exact: bool = False) -> Dict[Event, str]:
    """Failing stage-output events of one STA answer, with reasons.

    Every stage output must have both edges, at a finite positive time
    and quality ``qwm``.  With a reference, times must match it exactly
    (``exact``) or within :data:`ARRIVAL_TOL`.
    """
    failures: Dict[Event, str] = {}
    for stage in graph.stages:
        for out in stage.outputs:
            for direction in ("rise", "fall"):
                event = (out.name, direction)
                arrival = result.arrivals.get(event)
                if arrival is None:
                    failures[event] = "missing"
                elif not (math.isfinite(arrival.time)
                          and arrival.time > 0):
                    failures[event] = f"time {arrival.time!r}"
                elif arrival.quality != "qwm":
                    failures[event] = f"quality {arrival.quality}"
                elif reference is not None and event in reference:
                    want = reference[event]
                    if exact and arrival.time != want:
                        failures[event] = "not bit-identical"
                    elif abs(arrival.time - want) > ARRIVAL_TOL:
                        failures[event] = (
                            f"off reference by "
                            f"{(arrival.time - want) * 1e12:+.4f} ps")
    return failures


def failed_arcs(graph, failures: Dict[Event, str]) -> int:
    """Arcs into the failing events (each input of the driving stage)."""
    return sum(len(graph.driver_of[net].inputs) for net, _ in failures)


def source_digest() -> str:
    """Digest of everything a serial answer depends on: the checkout's
    ``src`` and benchmark sources, the interpreter and numpy."""
    import numpy

    digest = hashlib.sha256(f"{sys.version}|{numpy.__version__}".encode())
    for base in (os.path.join(ROOT, "src"), HERE):
        for path in sorted(glob.glob(os.path.join(base, "**", "*.py"),
                                     recursive=True)):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def serial_arrivals(workload: "StaWorkload") -> Dict[Event, float]:
    """Arrivals of one serial, uncached answer (the ``sta-decoder4``
    answer), kept under :data:`OUT_DIR` per source digest.

    The serial answer is deterministic for given sources, so it is
    computed once per checkout and code version rather than once per run.
    """
    path = os.path.join(OUT_DIR, f"decoder{workload.bits}-serial-"
                                 f"{source_digest()}.json")
    if os.path.isfile(path):
        with open(path) as handle:
            payload = json.load(handle)
        return {tuple(key.split("|")): float.fromhex(value)
                for key, value in payload.items()}
    result = workload.analyzer().analyze(workload.graph)
    want = {event: arrival.time
            for event, arrival in result.arrivals.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump({f"{net}|{direction}": time_.hex()
                   for (net, direction), time_ in want.items()}, handle)
    os.replace(tmp, path)
    return want


def load_decoder4_reference() -> Dict[Event, float]:
    with open(DECODER4_REFERENCE) as handle:
        payload = json.load(handle)
    out = {}
    for key, value in payload["arrivals"].items():
        net, direction = key.split("|")
        out[(net, direction)] = float.fromhex(value)
    return out


class StaWorkload:
    """One ``analyze(graph)`` per answer on a gate-level design.

    Args:
        design: ``"decoder4"`` or ``"random"``.
        pooled: process backend with 2 workers and a fresh stage cache
            per answer (``repro sta --cache --backend process
            --workers 2``); otherwise serial and uncached.
    """

    min_answers = 1

    def __init__(self, seed: int, design: str, pooled: bool,
                 smoke: bool = False):
        self.seed = seed
        self.design = design
        self.pooled = pooled
        self.smoke = smoke
        self.results: List[object] = []
        # Events already counted failed, per answer (never counted twice).
        self.failed_events: List[set] = []
        self.cache: Optional[StageResultCache] = None
        self.notes: List[str] = []
        self.accuracy: Dict[str, float] = {}

    def build(self, tech, library: TableModelLibrary) -> None:
        self.tech = tech
        self.library = library
        if self.design == "decoder4":
            self.bits = 2 if self.smoke else 4
            netlist = builders.decoder_netlist(tech, bits=self.bits)
        else:
            netlist = gen.random_logic(tech, self.seed,
                                       gates=10 if self.smoke else 48)
        self.graph = extract_stages(netlist, tech=tech)
        self.arcs = sta_arcs(self.graph)
        self.reference = (load_decoder4_reference()
                          if self.design == "decoder4" and not self.smoke
                          else None)

    @property
    def arcs_per_answer(self) -> int:
        return len(self.arcs)

    def analyzer(self, execution: Optional[ExecutionConfig] = None,
                 cache: Optional[StageResultCache] = None):
        return StaticTimingAnalyzer(self.tech, self.library,
                                    execution=execution, cache=cache)

    def answer(self):
        if not self.pooled:
            self.cache = None
            return self.analyzer().analyze(self.graph)
        self.cache = StageResultCache()
        return self.analyzer(POOL, self.cache).analyze(self.graph)

    def check(self, result) -> int:
        """Failed arcs of one answer (also kept for :meth:`finish`)."""
        self.results.append(result)
        failures = check_arrivals(self.graph, result, self.reference)
        if self.design == "decoder4":
            for j in range(2 ** self.bits):
                for direction in ("rise", "fall"):
                    if (f"w{j}", direction) not in result.arrivals:
                        failures[(f"w{j}", direction)] = "missing"
        if len(self.results) > 1:
            first = {event: arrival.time for event, arrival
                     in self.results[0].arrivals.items()}
            for event, reason in check_arrivals(
                    self.graph, result, first, exact=True).items():
                failures.setdefault(event, f"repeat answer {reason}")
        self.failed_events.append(set())
        return self._count(len(self.results) - 1, failures)

    def finish(self) -> int:
        """Reference checks after the timed loop; returns failed arcs.

        Pooled decoder answers must be bit-identical to a serial,
        uncached run, the ``sta-decoder4`` answer (the engine's
        guarantee that workers and the stage cache change scheduling,
        never arithmetic); see :func:`serial_arrivals`.  Random logic is
        too slow to re-time serially in full, so a seeded sample of
        stages is re-timed arc by arc with a serial analyzer and must
        reproduce the pooled arrivals bit for bit.
        """
        if not self.pooled or not self.results:
            return 0
        failed = 0
        if self.design == "decoder4":
            want = serial_arrivals(self)
            for index, result in enumerate(self.results):
                failed += self._count(index, check_arrivals(
                    self.graph, result, want, exact=True), "vs serial: ")
            return failed
        analyzer = self.analyzer()
        rng = random.Random(self.seed)
        stages = rng.sample(self.graph.stages,
                            min(SPOT_CHECK_STAGES, len(self.graph.stages)))
        for index, result in enumerate(self.results):
            failures = {}
            for stage in stages:
                for event, want in retime_stage(analyzer, stage,
                                                result.arrivals).items():
                    got = result.arrivals.get(event)
                    if got is None or got.time != want:
                        failures[event] = "serial re-time differs"
            failed += self._count(index, failures, "vs serial: ")
        return failed

    def _count(self, index: int, failures: Dict[Event, str],
               prefix: str = "") -> int:
        """Failed arcs of answer ``index`` not counted before; notes."""
        fresh = {event: reason for event, reason in failures.items()
                 if event not in self.failed_events[index]}
        self.failed_events[index].update(fresh)
        for (net, direction), reason in sorted(fresh.items())[:5]:
            self.notes.append(f"{prefix}{net} {direction}: {reason}")
        return failed_arcs(self.graph, fresh)

    def properties(self) -> Dict[str, object]:
        distinct, total = sharing(self.arcs)
        return {"stages": len(self.graph.stages), "arcs": total,
                "distinct_arcs": distinct,
                "sharing_ratio": distinct / total}

    def cache_counts(self) -> Tuple[int, int, int]:
        """(hits, misses, distinct entries) of the last answer's cache."""
        if self.cache is None:
            return 0, 0, 0
        return self.cache.hits, self.cache.misses, len(self.cache)

    def escalated(self, result) -> int:
        return len(result.degraded())


def retime_stage(analyzer, stage, arrivals) -> Dict[Event, float]:
    """A stage's output arrivals recomputed arc by arc, serially.

    The single-input-switching recursion: worst over switching inputs
    of input arrival + ``stage_arc`` delay, inputs of the opposite edge.
    """
    out: Dict[Event, float] = {}
    for node in stage.outputs:
        for direction in ("rise", "fall"):
            in_dir = "fall" if direction == "rise" else "rise"
            best = None
            for name in stage.inputs:
                src = arrivals.get((name, in_dir))
                if src is None:
                    continue
                arc = analyzer.stage_arc(stage, node.name, direction, name)
                if arc is None:
                    continue
                t = src.time + arc[0]
                if best is None or t > best:
                    best = t
            if best is not None:
                out[(node.name, direction)] = best
    return out


# ----------------------------------------------------------------------
# paper-arcs
# ----------------------------------------------------------------------
@dataclass
class Case:
    """One single-stage arc with its stimulus, for QWM and SPICE."""

    name: str
    stage: object
    direction: str
    sources: dict
    t_input: float
    t_stop: float
    precharge: str = "dc"
    initial: Optional[dict] = None


def paper_cases(tech, seed: int, smoke: bool = False) -> List[Case]:
    """The 20-case golden grid plus one random-width stack per K = 5..10,
    in an order drawn from ``seed``.

    The stack widths are one fixed draw (:data:`gen.GATE_SEED`), equal
    for every seed: with widths drawn per seed, the K = 9 or 10 stack of
    about three seeds in ten takes a path with three times the table
    queries, which moved an answer's time by a tenth from seed to seed.
    The seed orders the cases, so a pass's delays must not depend on
    which case ran before.

    ``smoke`` keeps the first four grid cases and the K = 5 stack.
    """
    cases = []
    for golden in golden_cases()[:4 if smoke else None]:
        cases.append(Case(golden.name, golden.build(tech),
                          golden.direction, golden.sources(tech),
                          golden.t_input, T_STOP))
    widths_rng = random.Random(gen.GATE_SEED)
    for k in STACK_LENGTHS[:1 if smoke else None]:
        widths = [widths_rng.uniform(2.0, 8.0) * tech.wmin
                  for _ in range(k)]
        stage = builders.nmos_stack(tech, k, widths=widths, load=10e-15)
        sources = {"g1": StepSource(0.0, tech.vdd, T_SWITCH)}
        sources.update({f"g{j}": ConstantSource(tech.vdd)
                        for j in range(2, k + 1)})
        initial = {node.name: tech.vdd for node in stage.internal_nodes}
        cases.append(Case(f"stack{k}", stage, "fall", sources, T_SWITCH,
                          120e-12 + 130e-12 * k, precharge="full",
                          initial=initial))
    random.Random(seed).shuffle(cases)
    return cases


def accuracy(qwm: List[Optional[float]], spice: List[Optional[float]]
             ) -> Dict[str, float]:
    """Delay error of QWM against the 1 ps reference, in percent.

    ``optimism_max_pct`` is the largest amount by which QWM is faster
    than the reference (the unsafe direction for sign-off).
    """
    errors = [(q - s) / s * 100.0 for q, s in zip(qwm, spice)
              if q is not None and s]
    if not errors:
        return {"delay_err_mean_pct": math.nan,
                "delay_err_max_pct": math.nan,
                "optimism_max_pct": math.nan}
    return {"delay_err_mean_pct": sum(abs(e) for e in errors)
            / len(errors),
            "delay_err_max_pct": max(abs(e) for e in errors),
            "optimism_max_pct": max(-e for e in errors)}


def out_of_band(qwm, spice, band: float = DELAY_TOLERANCE_PCT) -> List[int]:
    """Indices of QWM delays with no reference or outside the band.

    A missing QWM delay is not listed: :meth:`PaperArcs.check` has
    already counted it.
    """
    return [index for index, (q, s) in enumerate(zip(qwm, spice))
            if q is not None and (not s or abs(q - s) / s * 100.0 > band)]


class PaperArcs:
    """The paper's single-stage comparison: QWM pass vs 1 ps SPICE."""

    min_answers = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.delays: List[List[Optional[float]]] = []
        self.accuracy: Dict[str, float] = {}
        self.notes: List[str] = []

    def build(self, tech, library: TableModelLibrary) -> None:
        self.tech = tech
        self.library = library
        self.cases = paper_cases(tech, self.seed, self.smoke)

    @property
    def arcs_per_answer(self) -> int:
        return len(self.cases)

    def answer(self) -> List[Optional[float]]:
        evaluator = WaveformEvaluator(self.tech, library=self.library)
        delays = []
        for case in self.cases:
            solution = evaluator.evaluate(
                case.stage, "out", case.direction, case.sources,
                initial=case.initial, precharge=case.precharge)
            delays.append(solution.delay(t_input=case.t_input))
        return delays

    def check(self, delays) -> int:
        """Cases with no crossing, or differing from the first pass."""
        self.delays.append(delays)
        first = self.delays[0]
        bad = [i for i, (d, f) in enumerate(zip(delays, first))
               if d is None or not math.isfinite(d) or d != f]
        for i in bad[:5]:
            self.notes.append(f"{self.cases[i].name}: qwm delay "
                              f"{delays[i]!r}")
        return len(bad)

    def reference(self) -> List[Optional[float]]:
        """The 1 ps SPICE pass over every case."""
        delays = []
        for case in self.cases:
            simulator = TransientSimulator(
                case.stage, self.tech,
                TransientOptions(t_stop=case.t_stop, dt=SPICE_DT))
            result = simulator.run(case.sources, initial=case.initial)
            delays.append(result.delay_50("out", self.tech.vdd,
                                          t_input=case.t_input,
                                          direction=case.direction))
        return delays

    def finish(self) -> int:
        """Every pass's arcs must sit inside the golden delay band."""
        start = time.perf_counter()
        spice = self.reference()
        self.accuracy = accuracy(self.delays[0], spice)
        self.accuracy["spice_1ps_s"] = time.perf_counter() - start
        bad = out_of_band(self.delays[0], spice)
        for i in bad:
            self.notes.append(f"{self.cases[i].name}: outside the "
                              f"{DELAY_TOLERANCE_PCT:g}% band")
        return len(bad) * len(self.delays)

    def properties(self) -> Dict[str, object]:
        # A case is its stage, switching input and input slew (the
        # 50% point); every one is distinct by construction.
        keys = set()
        for case in self.cases:
            form = canonical_stage_form(case.stage)
            switching = [name for name, src in case.sources.items()
                         if not isinstance(src, ConstantSource)]
            keys.add((form.fingerprint, case.direction, case.t_input,
                      tuple(form.input_ids[n] for n in switching)))
        return {"stages": len(self.cases), "arcs": len(self.cases),
                "distinct_arcs": len(keys),
                "sharing_ratio": len(keys) / len(self.cases)}

    def cache_counts(self) -> Tuple[int, int, int]:
        return 0, 0, 0

    def escalated(self, result) -> int:
        return 0


def make(name: str, seed: int, smoke: bool = False):
    """The workload object for a benchmark workload name.

    ``smoke`` shrinks the design (decoder-2, 10 random gates, 5 paper
    arcs) for the benchmark's own tests; no reported figure uses it.
    """
    if name == "sta-decoder4":
        return StaWorkload(seed, "decoder4", pooled=False, smoke=smoke)
    if name == "sta-decoder4-pool":
        return StaWorkload(seed, "decoder4", pooled=True, smoke=smoke)
    if name == "sta-random-logic":
        return StaWorkload(seed, "random", pooled=True, smoke=smoke)
    if name == "paper-arcs":
        return PaperArcs(seed, smoke=smoke)
    raise KeyError(name)


TECH = CMOSP35
