"""Parser for the Verilog subset emitted by :mod:`repro.rtl.verilog`.

Part of the automated design-verification flow (the dark-pink path of
Fig. 6b): after generating Verilog we parse it back into a fresh
:class:`~repro.rtl.netlist.Netlist` and prove it equivalent to the design
we emitted, so a codegen bug cannot silently ship.

Grammar (everything the emitter produces):

.. code-block:: text

   module NAME ( port {, port} ) ;
   port      := ("input"|"output") "wire" [range] IDENT
   range     := "[" INT ":" "0" "]"
   item      := wire_decl | reg_decl | assign | always
   wire_decl := [attr] "wire" IDENT ";"
   reg_decl  := [attr] "reg" IDENT "=" BIT ";"
   assign    := "assign" lvalue "=" expr ";"
   expr      := atom (("&"|"|"|"^") atom)? | "~" atom | atom "?" atom ":" atom
   always    := "always" "@(posedge clk)" "begin" stmt* "end"

Attributes (``(* DONT_TOUCH = "yes" *)``) and comments are skipped.

Parsing is two-pass: statements are first collected as small expression
ASTs (wires may reference registers defined later and vice versa), then
lowered onto a netlist with registers created up front and their fanins
patched once every expression has resolved.
"""

from __future__ import annotations

import re
import sys

from .netlist import Netlist

__all__ = ["parse_verilog", "VerilogSyntaxError"]


class VerilogSyntaxError(ValueError):
    """Raised when the source deviates from the emitted subset."""


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|\(\*.*?\*\))
  | (?P<bit>1'b[01])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9$]*)
  | (?P<number>\d+)
  | (?P<punct><=|[()\[\]{},;:=&|^~?@.])
  | (?P<ws>\s+)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(src):
    """Yield the significant tokens of ``src``, skipping blanks and comments.

    A generator, so a parse holds only the tokens it peeks at, not the
    whole token list of a large module.
    """
    pos = 0
    for m in _TOKEN_RE.finditer(src):
        if m.start() != pos:
            break
        pos = m.end()
        if m.lastgroup not in ("ws", "comment"):
            yield m.group()
    if pos < len(src):
        raise VerilogSyntaxError(
            f"cannot tokenize at offset {pos}: {src[pos:pos + 30]!r}"
        )


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.ahead = []  # tokens peeked at but not yet consumed

    def peek(self, ahead=0):
        buf = self.ahead
        while len(buf) <= ahead:
            tok = next(self.tokens, None)
            if tok is None:
                return None
            buf.append(tok)
        return buf[ahead]

    def next(self):
        tok = self.peek()
        if tok is None:
            raise VerilogSyntaxError("unexpected end of input")
        del self.ahead[0]
        return tok

    def expect(self, *expected):
        tok = self.next()
        if tok not in expected:
            raise VerilogSyntaxError(f"expected one of {expected}, got {tok!r}")
        return tok


# Expression AST: 0/1 (a constant) | name (a net) | ("not", ast)
#               | ("and"/"or"/"xor", ast, ast) | ("mux", sel, a, b)
# Bare atoms keep the tens of thousands of collected gates small.


class _Parser:
    def __init__(self, src):
        self.cur = _Cursor(_tokenize(src))
        self.module_name = None
        self.input_bits = []      # flat bit names in port order
        self.output_bits = []
        self.wires = {}           # name -> expr AST
        self.regs = {}            # name -> dict(d, en, rst, init)
        self.out_drivers = {}     # output bit name -> expr AST

    # -- lexical helpers ---------------------------------------------------
    def _signal_name(self):
        name = self.cur.next()
        if not re.match(r"^[A-Za-z_]", name):
            raise VerilogSyntaxError(f"expected identifier, got {name!r}")
        if self.cur.peek() == "[":
            self.cur.next()
            idx = self.cur.next()
            self.cur.expect("]")
            return f"{name}[{idx}]"
        # Every use of a net shares one string with its declaration.
        return sys.intern(name)

    def _atom(self):
        tok = self.cur.peek()
        if tok in ("1'b0", "1'b1"):
            self.cur.next()
            return 1 if tok == "1'b1" else 0
        return self._signal_name()

    def _expr(self):
        if self.cur.peek() == "~":
            self.cur.next()
            return ("not", self._atom())
        a = self._atom()
        tok = self.cur.peek()
        if tok in ("&", "|", "^"):
            self.cur.next()
            op = {"&": "and", "|": "or", "^": "xor"}[tok]
            return (op, a, self._atom())
        if tok == "?":
            self.cur.next()
            t = self._atom()
            self.cur.expect(":")
            f = self._atom()
            return ("mux", a, t, f)
        return a

    # -- pass 1: collect ----------------------------------------------------
    def collect(self):
        self.cur.expect("module")
        self.module_name = self.cur.next()
        self.cur.expect("(")
        while True:
            direction = self.cur.expect("input", "output")
            self.cur.expect("wire")
            width = None
            if self.cur.peek() == "[":
                self.cur.next()
                hi = int(self.cur.next())
                self.cur.expect(":")
                lo = int(self.cur.next())
                self.cur.expect("]")
                if lo != 0:
                    raise VerilogSyntaxError("bus ranges must end at 0")
                width = hi + 1
            base = self.cur.next()
            bits = [base] if width is None else [f"{base}[{i}]" for i in range(width)]
            if direction == "input":
                self.input_bits.extend(bits)
            else:
                self.output_bits.extend(bits)
            if self.cur.peek() == ",":
                self.cur.next()
                continue
            self.cur.expect(")")
            break
        self.cur.expect(";")
        while self.cur.peek() != "endmodule":
            self._item()
        self.cur.expect("endmodule")
        return self

    def _item(self):
        tok = self.cur.peek()
        if tok == "wire":
            self.cur.next()
            self._signal_name()
            self.cur.expect(";")
        elif tok == "reg":
            self.cur.next()
            name = self._signal_name()
            self.cur.expect("=")
            init = self.cur.expect("1'b0", "1'b1")
            self.cur.expect(";")
            self.regs[name] = {
                "d": 0,
                "en": 1,
                "rst": 0,
                "init": 1 if init == "1'b1" else 0,
            }
        elif tok == "assign":
            self.cur.next()
            target = self._signal_name()
            self.cur.expect("=")
            expr = self._expr()
            self.cur.expect(";")
            if target in self.output_bits:
                self.out_drivers[target] = expr
            elif target in self.wires:
                raise VerilogSyntaxError(f"signal {target!r} assigned twice")
            else:
                self.wires[target] = expr
        elif tok == "always":
            self._always()
        else:
            raise VerilogSyntaxError(f"unexpected token {tok!r}")

    def _always(self):
        self.cur.expect("always")
        self.cur.expect("@")
        self.cur.expect("(")
        self.cur.expect("posedge")
        self.cur.expect("clk")
        self.cur.expect(")")
        self.cur.expect("begin")

        rst = 0
        en = 1

        if self.cur.peek() == "if":
            self.cur.next()
            self.cur.expect("(")
            cond = self._atom()
            self.cur.expect(")")
            self.cur.expect("begin")
            name = self._signal_name()
            self.cur.expect("<=")
            rhs = self.cur.peek()
            # `if (x) begin r <= CONST; end` is ambiguous between a reset
            # arm (followed by `else`) and an enable-only register whose
            # data input folded to a constant.  Disambiguate by lookahead:
            # tokens after `CONST ; end` are `else` only for the reset form.
            is_reset_form = rhs in ("1'b0", "1'b1") and self.cur.peek(3) == "else"
            if is_reset_form:
                # reset arm, then else (optionally with enable-if)
                self.cur.next()
                rst = cond
                self.cur.expect(";")
                self.cur.expect("end")
                self.cur.expect("else")
                self.cur.expect("begin")
                if self.cur.peek() == "if":
                    self.cur.next()
                    self.cur.expect("(")
                    en = self._atom()
                    self.cur.expect(")")
                    self.cur.expect("begin")
                    name2 = self._signal_name()
                    self.cur.expect("<=")
                    d = self._atom()
                    self.cur.expect(";")
                    self.cur.expect("end")
                else:
                    name2 = self._signal_name()
                    self.cur.expect("<=")
                    d = self._atom()
                    self.cur.expect(";")
                if name2 != name:
                    raise VerilogSyntaxError("register name mismatch across arms")
                self.cur.expect("end")
            else:
                # enable-only: if (en) begin r <= d; end  (d may be a const)
                en = cond
                d = self._atom()
                self.cur.expect(";")
                self.cur.expect("end")
        else:
            name = self._signal_name()
            self.cur.expect("<=")
            d = self._atom()
            self.cur.expect(";")
        self.cur.expect("end")

        if name not in self.regs:
            raise VerilogSyntaxError(f"always block drives undeclared reg {name!r}")
        self.regs[name].update(d=d, en=en, rst=rst)

    # -- pass 2: lower onto a netlist ----------------------------------------
    def lower(self):
        self._nl = nl = Netlist(name=self.module_name)
        self._env = env = {}
        self._resolving = set()
        for bit in self.input_bits:
            if bit == "clk":
                continue  # the clock is implicit in the IR
            env[bit] = nl.add_input(bit)
        # Registers first, with placeholder fanins patched afterwards.
        for name, info in self.regs.items():
            env[name] = nl.dff(nl.const(0), init=info["init"], name=name)

        for name, info in self.regs.items():
            nid = env[name]
            node = nl.nodes[nid]
            node.fanins = (
                self._resolve(info["d"]),
                self._resolve(info["en"]),
                self._resolve(info["rst"]),
            )
        for bit in self.output_bits:
            if bit not in self.out_drivers:
                raise VerilogSyntaxError(f"output {bit!r} never driven")
            nl.set_output(bit, self._resolve(self.out_drivers[bit]))
        return nl

    # Methods, not nested closures: two closures calling each other form a
    # reference cycle that keeps the parser and netlist alive until gc.
    def _resolve(self, ast):
        nl = self._nl
        if isinstance(ast, str):
            return self._resolve_name(ast)
        if isinstance(ast, int):
            return nl.const(ast)
        kind = ast[0]
        if kind == "not":
            return nl.g_not(self._resolve(ast[1]))
        if kind == "mux":
            return nl.g_mux(self._resolve(ast[1]), self._resolve(ast[2]),
                            self._resolve(ast[3]))
        a, b = self._resolve(ast[1]), self._resolve(ast[2])
        return {"and": nl.g_and, "or": nl.g_or, "xor": nl.g_xor}[kind](a, b)

    def _resolve_name(self, name):
        env = self._env
        if name in env:
            return env[name]
        if name not in self.wires:
            raise VerilogSyntaxError(f"use of undefined signal {name!r}")
        if name in self._resolving:
            raise VerilogSyntaxError(f"combinational cycle through {name!r}")
        self._resolving.add(name)
        net = self._resolve(self.wires[name])
        self._resolving.discard(name)
        env[name] = net
        return net


def parse_verilog(src):
    """Parse emitted Verilog back into a :class:`Netlist`."""
    return _Parser(src).collect().lower()
