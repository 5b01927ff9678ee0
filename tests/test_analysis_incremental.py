"""Tests for incremental STA and sizing sensitivity."""

import pytest

from repro.analysis import (
    IncrementalTimer,
    SizingSensitivity,
    StaticTimingAnalyzer,
    clone_stage,
)
from repro.analysis.parallel import arc_cache_key, canonical_form_for
from repro.circuit import builders, extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.circuit.stage import FlatNetlist
from repro.core import WaveformEvaluator
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.spice import ConstantSource, StepSource


def _inverter_chain(tech, stages=4):
    net = FlatNetlist("chain", vdd=tech.vdd)
    prev = "a"
    for i in range(stages):
        out = f"n{i}" if i < stages - 1 else "y"
        net.add_pmos(f"p{i}", gate=prev, src=VDD_NODE, snk=out,
                     w=2e-6, l=tech.lmin)
        net.add_nmos(f"m{i}", gate=prev, src=out, snk=GND_NODE,
                     w=1e-6, l=tech.lmin)
        prev = out
    net.mark_input("a")
    net.mark_output("y")
    net.set_load("y", 5e-15)
    return extract_stages(net, tech=tech)


class TestStageSignature:
    """The stage identity incremental re-timing keys its cache on.

    An unedited stage must keep its identity (so it hits) and a resize
    or load edit must change it (so the edited stage misses).
    """

    @staticmethod
    def _signature(tech, library, stage):
        analyzer = IncrementalTimer(tech, _inverter_chain(tech, 1),
                                    library=library).analyzer
        return canonical_form_for(stage, analyzer).fingerprint

    def test_stable_for_unchanged_stage(self, tech, library):
        a = builders.nand_gate(tech, 2)
        b = builders.nand_gate(tech, 2)
        assert self._signature(tech, library, a) \
            == self._signature(tech, library, b)

    def test_changes_with_width(self, tech, library):
        a = builders.nand_gate(tech, 2)
        b = builders.nand_gate(tech, 2, wn=3e-6)
        assert self._signature(tech, library, a) \
            != self._signature(tech, library, b)

    def test_changes_with_load(self, tech, library):
        a = builders.nand_gate(tech, 2, load=1e-15)
        b = builders.nand_gate(tech, 2, load=9e-15)
        assert self._signature(tech, library, a) \
            != self._signature(tech, library, b)


class TestIncrementalTimer:
    @pytest.fixture
    def timer(self, tech, library):
        return IncrementalTimer(tech, _inverter_chain(tech),
                                library=library)

    def test_first_pass_evaluates_everything(self, tech, library, timer):
        result = timer.analyze()
        assert result.worst is not None
        # Every distinct canonical arc is solved once; isomorphic
        # stages (the chain's three identically loaded inverters) share
        # it within the pass.
        keys = set()
        for stage in timer.graph.stages:
            form = canonical_form_for(stage, timer.analyzer)
            for out in stage.outputs:
                for direction in ("rise", "fall"):
                    for name in stage.inputs:
                        keys.add(arc_cache_key(
                            form.fingerprint, form.net_ids[out.name],
                            direction, form.input_ids[name], None))
        arcs = sum(2 * len(s.outputs) * len(s.inputs)
                   for s in timer.graph.stages)
        assert len(keys) < arcs
        assert timer.last_stats.arcs_evaluated == len(keys)
        assert timer.last_stats.total == arcs
        # Sharing is exact: isomorphic stages give the arrivals an
        # uncached serial run computes stage by stage, bit for bit.
        uncached = StaticTimingAnalyzer(tech, library=library).analyze(
            timer.graph)
        assert result.arrivals == uncached.arrivals

    def test_repeat_pass_is_fully_cached(self, timer):
        first = timer.analyze()
        second = timer.analyze()
        assert timer.last_stats.arcs_evaluated == 0
        assert timer.last_stats.arcs_cached > 0
        assert second.worst.time == pytest.approx(first.worst.time)

    def test_resize_invalidates_locally(self, timer):
        timer.analyze()
        total = timer.last_stats.total
        # Resize a device in the LAST stage of the 4-inverter chain.
        graph = timer.graph
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 2e-6)
        timer.analyze()
        # Dirty: the resized stage + its upstream driver (load change);
        # the first two stages of the chain stay cached.
        assert timer.last_stats.arcs_evaluated < total
        assert timer.last_stats.arcs_cached > 0

    def test_resize_changes_worst_arrival(self, timer):
        before = timer.analyze().worst.time
        graph = timer.graph
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 4e-6)
        after = timer.analyze().worst.time
        assert after != pytest.approx(before, rel=1e-3)

    def test_incremental_matches_full_reanalysis(self, tech, library,
                                                 timer):
        timer.analyze()
        graph = timer.graph
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 3e-6)
        incremental = timer.analyze()
        fresh = IncrementalTimer(tech, graph, library=library).analyze()
        assert incremental.worst.time == pytest.approx(fresh.worst.time,
                                                       rel=1e-9)

    def test_set_load_dirties_driver(self, timer):
        timer.analyze()
        timer.set_load("y", 20e-15)
        timer.analyze()
        assert timer.last_stats.arcs_evaluated > 0

    def test_cached_arcs_keep_their_quality_tag(self, timer):
        y_driver = timer.graph.stage_of_net["y"].name
        spec = FaultSpec("newton_nonconverge", stage=y_driver,
                         rungs=("qwm",))
        with faults.installed(FaultPlan((spec,))):
            first = timer.analyze()
        degraded = {event: arrival.quality
                    for event, arrival in first.degraded().items()}
        assert degraded == {("y", "rise"): "qwm-retry",
                            ("y", "fall"): "qwm-retry"}
        # The re-time is served from the cache; the arcs it reuses are
        # still the degraded ones and must still say so.
        second = timer.analyze()
        assert timer.last_stats.arcs_evaluated == 0
        assert second.arrivals == first.arrivals

    def test_set_load_unknown_net_rejected(self, timer):
        with pytest.raises(KeyError):
            timer.set_load("ghost", 1e-15)

    def test_resize_validation(self, timer):
        graph = timer.graph
        last = graph.stage_of_net["y"]
        with pytest.raises(ValueError):
            timer.resize_transistor(last.name, "m3", -1.0)


class TestCloneStage:
    def test_clone_is_independent(self, tech):
        stage = builders.nand_gate(tech, 2)
        copy = clone_stage(stage, {"MN0": 5e-6})
        assert copy.edge("MN0").w == pytest.approx(5e-6)
        assert stage.edge("MN0").w != pytest.approx(5e-6)
        assert copy.node("out").load_cap == stage.node("out").load_cap
        assert [n.name for n in copy.outputs] == ["out"]

    def test_unknown_device_rejected(self, tech):
        with pytest.raises(KeyError):
            clone_stage(builders.inverter(tech), {"ghost": 1e-6})


class TestSensitivity:
    @pytest.fixture(scope="class")
    def sens(self, tech, library):
        return SizingSensitivity(WaveformEvaluator(tech, library=library))

    def _inputs(self, tech, k):
        inputs = {"g1": StepSource(0, tech.vdd, 0)}
        inputs.update({f"g{j}": ConstantSource(tech.vdd)
                       for j in range(2, k + 1)})
        return inputs

    def test_upsizing_path_device_helps(self, tech, sens):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3,
                                 load=10e-15)
        result = sens.device(st, "M1", "out", "fall",
                             self._inputs(tech, 3))
        assert result.sensitivity < 0  # wider -> faster
        assert result.nominal_delay > 0

    def test_bottom_device_most_sensitive(self, tech, sens):
        st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4,
                                 load=10e-15)
        results = sens.all_path_devices(st, "out", "fall",
                                        self._inputs(tech, 4))
        by_name = {r.device: abs(r.normalized) for r in results}
        assert by_name["M1"] == max(by_name.values())

    def test_non_transistor_rejected(self, tech, sens):
        stage = builders.decoder_tree(tech, levels=1)
        with pytest.raises(ValueError):
            sens.device(stage, "W1", "t1", "fall", {
                "phi": ConstantSource(tech.vdd),
                "A0": ConstantSource(tech.vdd),
                "A0b": ConstantSource(0.0)})

    def test_rel_step_validated(self, tech, library):
        with pytest.raises(ValueError):
            SizingSensitivity(WaveformEvaluator(tech, library=library),
                              rel_step=0.9)
