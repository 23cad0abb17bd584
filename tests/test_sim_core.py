"""Tests for the batched cycle-simulation kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.rtl import Netlist, bus_input
from repro.rtl.netlist import Node
from repro.simulator import AcceleratorSimulator
from repro.simulator.core import CompiledNetlist


class TestCombinational:
    def test_gates(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.set_output("and", nl.g_and(a, b))
        nl.set_output("or", nl.g_or(a, b))
        nl.set_output("xor", nl.g_xor(a, b))
        nl.set_output("not", nl.g_not(a))
        sim = CompiledNetlist(nl, batch=4)
        sim.set_input("a", np.array([0, 0, 1, 1], dtype=np.uint8))
        sim.set_input("b", np.array([0, 1, 0, 1], dtype=np.uint8))
        sim.settle()
        assert sim.output("and").tolist() == [0, 0, 0, 1]
        assert sim.output("or").tolist() == [0, 1, 1, 1]
        assert sim.output("xor").tolist() == [0, 1, 1, 0]
        assert sim.output("not").tolist() == [1, 1, 0, 0]

    def test_mux(self):
        nl = Netlist()
        s = nl.add_input("s")
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.set_output("o", nl.g_mux(s, a, b))
        sim = CompiledNetlist(nl, batch=2)
        sim.set_input("s", np.array([1, 0], dtype=np.uint8))
        sim.set_input("a", 1)
        sim.set_input("b", 0)
        sim.settle()
        assert sim.output("o").tolist() == [1, 0]

    def test_deep_chain_settles_one_pass(self):
        nl = Netlist()
        x = nl.add_input("x")
        net = x
        for _ in range(50):
            net = nl.g_not(nl.g_not(nl.g_xor(net, nl.const(1))))
        nl.set_output("o", net)
        sim = CompiledNetlist(nl, batch=1)
        sim.set_input("x", 1)
        sim.settle()
        assert sim.output("o")[0] in (0, 1)

    def test_unknown_names_raise(self):
        nl = Netlist()
        nl.add_input("a")
        sim = CompiledNetlist(nl, batch=1)
        with pytest.raises(KeyError):
            sim.set_input("zzz", 1)
        with pytest.raises(KeyError):
            sim.output("zzz")
        with pytest.raises(KeyError):
            sim.set_bus("zzz", 3)


class TestSequential:
    def test_dff_basic_delay(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(d))
        sim = CompiledNetlist(nl, batch=1)
        out0 = sim.step(d=1)
        assert out0["q"][0] == 0  # init value visible before first edge
        out1 = sim.step(d=0)
        assert out1["q"][0] == 1  # captured the 1

    def test_dff_enable(self):
        nl = Netlist()
        d = nl.add_input("d")
        en = nl.add_input("en")
        nl.set_output("q", nl.dff(d, en=en))
        sim = CompiledNetlist(nl, batch=1)
        sim.step(d=1, en=0)
        assert sim.output("q")[0] == 0  # enable low: held
        sim.step(d=1, en=1)
        assert sim.output("q")[0] == 1

    def test_dff_sync_reset_wins(self):
        nl = Netlist()
        d = nl.add_input("d")
        rst = nl.add_input("rst")
        nl.set_output("q", nl.dff(d, rst=rst, init=1))
        sim = CompiledNetlist(nl, batch=1)
        sim.step(d=0, rst=0)
        assert sim.output("q")[0] == 0
        sim.step(d=1, rst=1)  # reset and data both asserted
        assert sim.output("q")[0] == 1  # reset wins, back to init

    def test_reset_restores_init(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(d, init=1))
        sim = CompiledNetlist(nl, batch=1)
        sim.step(d=0)
        assert sim.output("q")[0] == 0
        sim.reset()
        assert sim.output("q")[0] == 1
        assert sim.cycle == 0

    def test_counter(self):
        """2-bit counter built from xor/and counts clock edges."""
        nl = Netlist()
        b0 = nl.dff(nl.const(0), name="b0")
        b1 = nl.dff(nl.const(0), name="b1")
        nl.nodes[b0].fanins = (nl.g_not(b0), nl.const(1), nl.const(0))
        nl.nodes[b1].fanins = (nl.g_xor(b1, b0), nl.const(1), nl.const(0))
        nl.set_output("v[0]", b0)
        nl.set_output("v[1]", b1)
        sim = CompiledNetlist(nl, batch=1)
        seen = []
        for _ in range(6):
            seen.append(int(sim.output_bus("v")[0]))
            sim.clock()
        assert seen == [0, 1, 2, 3, 0, 1]

    def test_register_pins_sampled_before_the_edge(self):
        """A register resetting another one acts on the pre-edge value."""
        nl = Netlist()
        toggle = nl.dff(nl.const(0))
        nl.nodes[toggle].fanins = (nl.g_not(toggle), nl.const(1), nl.const(0))
        nl.set_output("q", nl.dff(nl.const(1), rst=toggle))
        sim = CompiledNetlist(nl, batch=1)
        seen = []
        for _ in range(4):
            sim.clock()
            seen.append(int(sim.output("q")[0]))
        assert seen == [1, 0, 1, 0]


class TestBatch:
    def test_lanes_independent(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(d))
        sim = CompiledNetlist(nl, batch=3)
        sim.step(d=np.array([1, 0, 1], dtype=np.uint8))
        assert sim.output("q").tolist() == [1, 0, 1]

    def test_bus_io(self):
        nl = Netlist()
        a = bus_input(nl, "a", 8)
        for i, bit in enumerate(a):
            nl.set_output(f"o[{i}]", bit)
        sim = CompiledNetlist(nl, batch=4)
        vals = np.array([0, 1, 170, 255], dtype=np.uint64)
        sim.set_bus("a", vals)
        sim.settle()
        assert np.array_equal(sim.output_bus("o"), vals.astype(np.int64))

    def test_signed_bus_read(self):
        nl = Netlist()
        a = bus_input(nl, "a", 4)
        for i, bit in enumerate(a):
            nl.set_output(f"o[{i}]", bit)
        sim = CompiledNetlist(nl, batch=2)
        sim.set_bus("a", np.array([15, 7], dtype=np.uint64))
        sim.settle()
        assert sim.output_bus("o", signed=True).tolist() == [-1, 7]

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CompiledNetlist(Netlist(), batch=0)

    def test_outputs_dict_mixes_scalars_and_buses(self):
        nl = Netlist()
        a = bus_input(nl, "a", 2)
        nl.set_output("o[0]", a[0])
        nl.set_output("o[1]", a[1])
        nl.set_output("flag", nl.g_and(a[0], a[1]))
        sim = CompiledNetlist(nl, batch=1)
        out = sim.step(a=3)
        assert out["o"][0] == 3
        assert out["flag"][0] == 1


class TestLazySettle:
    def test_clock_commits_the_inputs_currently_driven(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(nl.g_not(d)))
        sim = CompiledNetlist(nl, batch=2)
        sim.set_input("d", np.array([1, 0], dtype=np.uint8))
        sim.clock()  # no settle in between: the edge still sees d
        assert sim.output("q").tolist() == [0, 1]

    def test_run_batch_settles_once_per_cycle(self, monkeypatch, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        X = np.random.default_rng(1).integers(0, 2, size=(3, tiny_model.n_features))
        passes = []
        settle = CompiledNetlist.settle

        def counting_settle(self):
            passes.append(self._dirty)
            settle(self)

        monkeypatch.setattr(CompiledNetlist, "settle", counting_settle)
        report = AcceleratorSimulator(design, batch=len(X)).run_batch(X)
        assert np.array_equal(report.predictions, tiny_model.predict(X))
        assert sum(passes) <= report.cycles_run + 1


# --- packed simulator vs. a naive per-lane evaluator ------------------------

_GATE_ARITY = {"and": 2, "or": 2, "xor": 2, "not": 1, "mux": 3}


@st.composite
def _netlists(draw):
    """A random netlist with every node kind, registers (en/rst driven by
    any net, feedback included) and a scalar and a bus input."""
    nl = Netlist(share=False)
    for k in range(draw(st.integers(1, 3))):
        nl.add_input(f"i{k}")
    bus_input(nl, "bus", draw(st.integers(1, 3)))
    n_dffs = draw(st.integers(0, 4))
    dffs = [nl.dff(nl.const(0), init=draw(st.integers(0, 1))) for _ in range(n_dffs)]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(sorted(_GATE_ARITY)))
        fanins = draw(
            st.lists(
                st.integers(0, len(nl.nodes) - 1),
                min_size=_GATE_ARITY[kind],
                max_size=_GATE_ARITY[kind],
            )
        )
        nl.nodes.append(Node(kind=kind, fanins=tuple(fanins)))
    pins = st.integers(0, len(nl.nodes) - 1)
    # Register pins favour other registers, so that an edge can change a
    # register that drives another one's enable or reset.
    reg_pins = st.one_of(st.sampled_from(dffs), pins) if dffs else pins
    for r in dffs:
        nl.nodes[r].fanins = (draw(pins), draw(reg_pins), draw(reg_pins))
    for k, net in enumerate(draw(st.lists(pins, min_size=1, max_size=4))):
        nl.set_output(f"o{k}", net)
    for k, net in enumerate(draw(st.lists(pins, min_size=1, max_size=3))):
        nl.set_output(f"ob[{k}]", net)
    return nl


class _LaneModel:
    """Per-lane Python reference: the documented netlist semantics."""

    def __init__(self, nl, batch):
        self.nl = nl
        self.batch = batch
        self.reset()

    def reset(self):
        self.inputs = [dict.fromkeys(self.nl.inputs, 0) for _ in range(self.batch)]
        self.regs = [
            {i: n.init for i, n in enumerate(self.nl.nodes) if n.kind == "dff"}
            for _ in range(self.batch)
        ]

    def settled(self, lane):
        val = []
        names = {nid: name for name, nid in self.nl.inputs.items()}
        for i, node in enumerate(self.nl.nodes):
            f = [val[j] if j < i else None for j in node.fanins]
            if node.kind in ("const0", "const1"):
                v = int(node.kind == "const1")
            elif node.kind == "input":
                v = self.inputs[lane][names[i]]
            elif node.kind == "dff":
                v = self.regs[lane][i]
            elif node.kind == "and":
                v = f[0] & f[1]
            elif node.kind == "or":
                v = f[0] | f[1]
            elif node.kind == "xor":
                v = f[0] ^ f[1]
            elif node.kind == "not":
                v = 1 - f[0]
            else:
                v = f[1] if f[0] else f[2]
            val.append(v)
        return val

    def values(self):
        return np.array([self.settled(k) for k in range(self.batch)]).T

    def clock(self):
        for lane in range(self.batch):
            val = self.settled(lane)
            for i in self.regs[lane]:
                d, en, rst = (val[j] for j in self.nl.nodes[i].fanins)
                if rst:
                    self.regs[lane][i] = self.nl.nodes[i].init
                elif en:
                    self.regs[lane][i] = d


@settings(max_examples=60, deadline=None)
@given(
    nl=_netlists(),
    batch=st.sampled_from([1, 2, 63, 64, 65, 130]),
    data=st.data(),
)
def test_packed_simulator_matches_per_lane_reference(nl, batch, data):
    sim = CompiledNetlist(nl, batch=batch)
    ref = _LaneModel(nl, batch)
    width = sum(1 for name in nl.inputs if name.startswith("bus["))
    lanes = st.lists(st.integers(0, 1), min_size=batch, max_size=batch)
    scalars = sorted(name for name in nl.inputs if "[" not in name)
    ops = ["input", "bus", "settle", "clock", "peek", "values", "reset"]
    for op in data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=16)):
        if op == "input":
            name = data.draw(st.sampled_from(scalars))
            bits = data.draw(st.one_of(st.integers(0, 1), lanes))
            sim.set_input(name, np.asarray(bits, dtype=np.uint8))
            for k in range(batch):
                ref.inputs[k][name] = bits if isinstance(bits, int) else bits[k]
        elif op == "bus":
            words = st.integers(0, 2**width - 1)
            per_lane = st.lists(words, min_size=batch, max_size=batch)
            value = data.draw(st.one_of(words, per_lane))
            sim.set_bus("bus", np.asarray(value, dtype=np.uint64))
            for k in range(batch):
                word = value if isinstance(value, int) else value[k]
                for i in range(width):
                    ref.inputs[k][f"bus[{i}]"] = (word >> i) & 1
        elif op == "settle":
            sim.settle()
        elif op == "clock":
            sim.clock()
            ref.clock()
        elif op == "peek":
            net = data.draw(st.integers(0, len(nl.nodes) - 1))
            assert sim.peek(net).tolist() == ref.values()[net].tolist()
        elif op == "values":
            assert np.array_equal(sim.values, ref.values())
        else:
            sim.reset()
            ref.reset()
    expected = ref.values()
    assert sim.values.dtype == np.uint8
    assert np.array_equal(sim.values, expected)
    # No bit past the last lane is ever set, in any node's words.
    flips = np.bitwise_count(sim.packed()).reshape(len(nl.nodes), -1)
    assert flips.sum(axis=1).tolist() == expected.sum(axis=1).tolist()
    outputs = sim.outputs()
    for name, nid in nl.outputs.items():
        if "[" not in name:
            assert outputs[name].tolist() == expected[nid].tolist()
    bus = [nl.outputs[f"ob[{i}]"] for i in range(sum("ob[" in n for n in nl.outputs))]
    words = sum(expected[nid].astype(np.int64) << i for i, nid in enumerate(bus))
    assert outputs["ob"].tolist() == words.tolist()
    assert sim.output_bus("ob").tolist() == words.tolist()
