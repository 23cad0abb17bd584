"""Tests for the Verilog emitter and parser (round-trip verification)."""

import gc
import weakref

import pytest

from repro.flow.verify import netlists_equivalent
from repro.rtl import (
    Netlist,
    bus_dff,
    bus_input,
    emit_verilog,
    parse_verilog,
    popcount,
    port_groups,
    subtract,
)
from repro.rtl.parser import VerilogSyntaxError


def small_design(share=True):
    nl = Netlist("unit", share=share)
    a = bus_input(nl, "a", 4)
    b = bus_input(nl, "b", 4)
    en = nl.add_input("en")
    rst = nl.add_input("rst")
    diff = subtract(nl, a, b)
    reg = bus_dff(nl, diff, en=en, rst=rst, name="r")
    pc = popcount(nl, list(a))
    for i, bit in enumerate(reg):
        nl.set_output(f"d[{i}]", bit)
    for i, bit in enumerate(pc):
        nl.set_output(f"p[{i}]", bit)
    nl.set_output("any", nl.g_or_tree(list(a)))
    return nl


class TestPortGroups:
    def test_bus_and_scalar(self):
        groups = port_groups(["d[0]", "d[1]", "d[2]", "go"])
        assert groups == {"d": 3, "go": None}

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            port_groups(["d[0]", "d[2]"])

    def test_collision_rejected(self):
        with pytest.raises(ValueError):
            port_groups(["d[0]", "d"])


class TestEmit:
    def test_module_header(self):
        src = emit_verilog(small_design())
        assert "module unit (" in src
        assert "input  wire [3:0] a" in src
        assert "output wire [4:0] d" in src
        assert src.strip().endswith("endmodule")

    def test_dont_touch_attribute_when_unshared(self):
        src = emit_verilog(small_design(share=False))
        assert '(* DONT_TOUCH = "yes" *)' in src
        assert '(* DONT_TOUCH = "yes" *)' not in emit_verilog(small_design())

    def test_clock_port_only_with_registers(self):
        nl = Netlist("comb")
        a = nl.add_input("a")
        nl.set_output("o", nl.g_not(a))
        src = emit_verilog(nl)
        assert "clk" not in src

    def test_block_banners(self):
        nl = Netlist("blocks")
        a = nl.add_input("a")
        b = nl.add_input("b")
        with nl.block("hcb0"):
            g = nl.g_and(a, b)
        nl.set_output("o", g)
        assert "block: hcb0" in emit_verilog(nl)


class TestRoundTrip:
    def test_equivalence(self):
        nl = small_design()
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=32, seed=1)

    def test_equivalence_unshared(self):
        nl = small_design(share=False)
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=32, seed=2)

    def test_register_init_preserved(self):
        nl = Netlist("init")
        a = nl.add_input("a")
        r = nl.dff(a, init=1, name="r0")
        nl.set_output("o", r)
        re = parse_verilog(emit_verilog(nl))
        regs = [n for n in re.nodes if n.kind == "dff"]
        assert len(regs) == 1
        assert regs[0].init == 1

    def test_enable_only_register(self):
        nl = Netlist("en_only")
        a = nl.add_input("a")
        en = nl.add_input("en")
        nl.set_output("o", nl.dff(a, en=en))
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=24, seed=3)

    def test_rst_only_register(self):
        nl = Netlist("rst_only")
        a = nl.add_input("a")
        rst = nl.add_input("rst")
        nl.set_output("o", nl.dff(a, rst=rst, init=1))
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=24, seed=4)

    def test_free_running_register(self):
        nl = Netlist("free")
        a = nl.add_input("a")
        nl.set_output("o", nl.dff(a))
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=16, seed=5)

    def test_parse_leaves_no_cyclic_garbage(self):
        # The parsed netlist (and the parser's token list behind it) must
        # be freed by reference counting alone, not by a later gc pass.
        src = emit_verilog(small_design())
        gc.collect()
        gc.disable()
        try:
            re = parse_verilog(src)
            ref = weakref.ref(re)
            del re
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestParserErrors:
    def test_undefined_signal(self):
        src = (
            "module m (\n    input  wire a,\n    output wire o\n);\n"
            "  assign o = a & ghost;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_double_assignment(self):
        src = (
            "module m (\n    input  wire a,\n    output wire o\n);\n"
            "  wire w;\n  assign w = a & a;\n  assign w = ~a;\n"
            "  assign o = w;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_undriven_output(self):
        src = "module m (\n    input  wire a,\n    output wire o\n);\nendmodule\n"
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_garbage_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("module m (input wire a); %%% endmodule")

    def test_always_for_undeclared_reg(self):
        src = (
            "module m (\n    input  wire clk,\n    input  wire a,\n"
            "    output wire o\n);\n"
            "  always @(posedge clk) begin\n    r0 <= a;\n  end\n"
            "  assign o = a;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_cross_reference_wire_and_reg(self):
        """Wires may read registers defined textually later and vice versa."""
        src = (
            "module m (\n    input  wire clk,\n    input  wire a,\n"
            "    output wire o\n);\n"
            "  wire w;\n  reg r0 = 1'b0;\n"
            "  assign w = r0 & a;\n"
            "  always @(posedge clk) begin\n    r0 <= w;\n  end\n"
            "  assign o = w;\nendmodule\n"
        )
        nl = parse_verilog(src)
        assert nl.register_count() == 1
