"""The evaluator's exact DC operating-point memo.

``WaveformEvaluator`` keys each converged DC precharge solve on every
floating-point input of the solve (the stage's static-residual key at
the input levels plus the Newton seed bytes), so a hit must hand back
the very bits a fresh solve computes.
"""

import pytest

import repro.spice.dc as dc
from repro.analysis import StaticTimingAnalyzer
from repro.analysis.golden import golden_cases, qwm_measure
from repro.circuit import builders, extract_stages
from repro.core import WaveformEvaluator
from repro.obs import recording
from repro.spice import StepSource
from repro.spice.mna import StageEquations

_COUNTERS = ("engine.dc.solves", "engine.dc.reused")


def _hex(value):
    return None if value is None else float(value).hex()


def _counts(bundle):
    return {name: bundle.metrics.counter(name).total()
            for name in _COUNTERS}


@pytest.fixture(scope="module")
def decoder3_graph(tech):
    return extract_stages(builders.decoder_netlist(tech, bits=3),
                          tech=tech)


def _nand2_fall(tech, evaluator, stage):
    inputs = {"a0": StepSource(0.0, tech.vdd, 0.0), "a1": tech.vdd}
    path = evaluator.extract(stage, "out", "fall", inputs)
    return evaluator.default_initial(path, "dc", inputs=inputs)


def test_golden_cases_bit_identical_to_fresh_evaluators(tech, library):
    warm = WaveformEvaluator(tech, library=library)
    with recording(metrics=True) as bundle:
        for case in golden_cases():
            fresh = WaveformEvaluator(tech, library=library)
            got = [_hex(v) for v in qwm_measure(case, tech, warm)]
            want = [_hex(v) for v in qwm_measure(case, tech, fresh)]
            assert got == want, case.name
        counts = _counts(bundle)
    # The grid repeats each circuit over loads, which DC ignores.
    assert counts["engine.dc.reused"] > 0


def test_decoder3_arcs_bit_identical_to_fresh_evaluators(
        tech, library, decoder3_graph):
    warm = StaticTimingAnalyzer(tech, library=library)
    arcs = [(stage, out.name, direction, name)
            for stage in decoder3_graph.stages for out in stage.outputs
            for direction in ("rise", "fall") for name in stage.inputs]
    assert len(arcs) == 70
    for arc in arcs:
        fresh = StaticTimingAnalyzer(tech, library=library)
        got, want = warm.stage_arc(*arc), fresh.stage_arc(*arc)
        assert (got is None) == (want is None), arc[1:]
        if got is not None:
            assert ([_hex(got[0]), _hex(got[1]), got[2]]
                    == [_hex(want[0]), _hex(want[1]), want[2]]), arc[1:]


def test_serial_decoder3_solves_each_dc_problem_once(
        tech, library, decoder3_graph, monkeypatch):
    calls = []
    solve = dc.solve_dc

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    # The evaluator resolves solve_dc on the module at call time.
    monkeypatch.setattr(dc, "solve_dc", counted)
    with recording(metrics=True) as bundle:
        StaticTimingAnalyzer(tech, library=library).analyze(decoder3_graph)
        counts = _counts(bundle)
    assert len(calls) == 9
    assert counts == {"engine.dc.solves": 9, "engine.dc.reused": 133}


def test_changed_width_or_gate_level_misses(tech, library):
    evaluator = WaveformEvaluator(tech, library=library)
    with recording(metrics=True) as bundle:
        base = _nand2_fall(tech, evaluator, builders.nand_gate(tech, 2))
        again = _nand2_fall(tech, evaluator, builders.nand_gate(tech, 2))
        assert _counts(bundle) == {"engine.dc.solves": 1,
                                   "engine.dc.reused": 1}
        assert again == base
        _nand2_fall(tech, evaluator,
                    builders.nand_gate(tech, 2, wn=3e-6))
        assert _counts(bundle)["engine.dc.solves"] == 2
    # A gate level is part of the key too.
    equations = StageEquations(builders.nand_gate(tech, 2), tech)
    high = equations.static_key({"a0": 0.0, "a1": tech.vdd})
    assert high == equations.static_key({"a0": 0.0, "a1": tech.vdd})
    assert high != equations.static_key({"a0": 0.0, "a1": 0.5 * tech.vdd})
    assert high != equations.static_key({"a0": -0.0, "a1": tech.vdd})


def test_evaluators_share_nothing_and_library_holds_no_memo(tech,
                                                             library):
    first = WaveformEvaluator(tech, library=library)
    second = WaveformEvaluator(tech, library=library)
    stage = builders.nand_gate(tech, 2)
    with recording(metrics=True) as bundle:
        _nand2_fall(tech, first, stage)
        _nand2_fall(tech, second, stage)
        counts = _counts(bundle)
    assert counts == {"engine.dc.solves": 2, "engine.dc.reused": 0}
    assert first._dc_memo is not second._dc_memo
    assert len(first._dc_memo) == len(second._dc_memo) == 1
    assert all(value is not first._dc_memo
               and value is not second._dc_memo
               for value in vars(library).values())
