"""Cycle-accurate, batch-parallel netlist simulation kernel.

The generated MATADOR accelerator is verified and characterized by
executing its gate-level netlist cycle by cycle, one independent
stimulus stream per *batch lane*.  :class:`CompiledNetlist` compiles the
netlist once into a levelized, kind-grouped schedule and evaluates each
group with a few vectorized numpy bitwise operations.

Lane packing
------------
Node values are ``uint64`` words: bit ``j`` of word ``w`` of a node is
batch lane ``64 * w + j``.  With ``batch <= 64`` the state is one word
per node, shape ``(n_nodes,)``; otherwise ``(n_nodes, ceil(batch / 64))``.
Every gate is a word-parallel bitwise operation (``not`` is ``x ^ lanes``,
``mux`` is ``b ^ (s & (a ^ b))``), and so is the register commit.  Bits
past the last lane are zero in every node, so they never reach an output.

The state stores nodes in schedule order, not netlist order: sources
(constants, inputs), then registers, then each (level, kind) run of
gates, so that each run writes one contiguous slice in place.  Node ids
are translated at the API boundary; callers only see netlist ids.

Lazy settle
-----------
Writing an input (:meth:`~CompiledNetlist.set_input`,
:meth:`~CompiledNetlist.set_bus`) or committing registers
(:meth:`~CompiledNetlist.clock`) only marks the combinational logic
stale.  The next read (``peek``, ``output``, ``output_bus``, ``outputs``,
``values``, ``packed``) or clock edge settles it first, in one levelized
pass.  So a clock edge always commits the registers from the inputs
currently driven, and :meth:`~CompiledNetlist.step` costs one settle per
cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CompiledNetlist"]

_LANES = 64
_ZERO = np.uint64(0)
_ONE = np.uint64(1)
# Gates are the codes from "and" to "mux", in the order of ``_GATES``.
_KIND_CODE = {
    "const0": 0,
    "const1": 1,
    "input": 2,
    "and": 3,
    "or": 4,
    "xor": 5,
    "not": 6,
    "mux": 7,
    "dff": 8,
}
_GATES = ("and", "or", "xor", "not", "mux")


def _bus_names(ports):
    """Bus base names among port names ``base[i]``, in first-seen order."""
    return list(dict.fromkeys(name[: name.index("[")] for name in ports if "[" in name))


def _bus_ids(ports, base):
    """Values of ``ports`` at ``base[0], base[1], ...`` up to the first gap."""
    ids = []
    while f"{base}[{len(ids)}]" in ports:
        ids.append(ports[f"{base}[{len(ids)}]"])
    return np.asarray(ids, dtype=np.int64)


class CompiledNetlist:
    """A netlist compiled for fast batched cycle simulation.

    Parameters
    ----------
    netlist:
        The :class:`repro.rtl.netlist.Netlist` to simulate.
    batch:
        Number of independent stimulus streams evaluated in parallel.
    """

    def __init__(self, netlist, batch=1):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.netlist = netlist
        self.batch = int(batch)
        self._words = -(-self.batch // _LANES)
        self._flat = self._words == 1
        tail = np.uint64((1 << (self.batch - _LANES * (self._words - 1))) - 1)
        if self._flat:
            self._ones = tail
        else:
            self._ones = np.full(self._words, ~_ZERO, dtype=np.uint64)
            self._ones[-1] = tail

        nodes = netlist.nodes
        n = len(nodes)
        kind = np.array([_KIND_CODE[node.kind] for node in nodes], dtype=np.int64)
        fanin = [(*node.fanins, 0, 0, 0)[:3] for node in nodes]
        fanin = np.array(fanin, dtype=np.int64).reshape(n, 3)
        is_gate = (kind >= _KIND_CODE["and"]) & (kind <= _KIND_CODE["mux"])
        is_dff = kind == _KIND_CODE["dff"]
        gates = np.flatnonzero(is_gate)
        level = np.asarray(netlist.levelize(), dtype=np.int64).reshape(n)
        gates = gates[np.lexsort((kind[gates], level[gates]))]
        dffs = np.flatnonzero(is_dff)
        sources = np.flatnonzero(~is_gate & ~is_dff)
        order = np.concatenate([sources, dffs, gates])
        # _row[node id] is that node's position in the state array.
        self._row = np.empty(n, dtype=np.int64)
        self._row[order] = np.arange(n)
        fanin_rows = self._row[fanin[order]]

        shape = (n,) if self._flat else (n, self._words)
        self._v = np.zeros(shape, dtype=np.uint64)
        self._const1 = self._row[kind == _KIND_CODE["const1"]]
        lo, hi = len(sources), len(sources) + len(dffs)
        self._regs = self._v[lo:hi]
        self._reg_d, self._reg_en, self._reg_rst = fanin_rows[lo:hi].T.copy()
        self._reg_init = self._spread(
            np.array([nodes[i].init for i in dffs], dtype=np.uint8)
        )
        # One (kind, out, a, b, c) entry per run of same-level same-kind
        # gates: ``out`` is the run's slice of the state, a/b/c its first,
        # second and third fanin rows.
        run_key = level[gates] * len(_KIND_CODE) + kind[gates]
        starts = np.flatnonzero(np.diff(run_key, prepend=-1))
        self._schedule = []
        for start, end in zip(starts, [*starts[1:], len(gates)]):
            rows = fanin_rows[hi + start : hi + end]
            a, b, c = rows.T.copy()
            out = self._v[hi + start : hi + end]
            gate = _GATES[kind[gates[start]] - _KIND_CODE["and"]]
            self._schedule.append((gate, out, a, b, c))

        self._output_ids = dict(netlist.outputs)
        self._in_rows = {
            name: int(self._row[nid]) for name, nid in netlist.inputs.items()
        }
        self._bus_ins = {
            base: _bus_ids(self._in_rows, base) for base in _bus_names(self._in_rows)
        }
        # Outputs unpack as one block; buses index rows of that block.
        outs = list(self._output_ids)
        self._out_rows = self._row[[self._output_ids[name] for name in outs]]
        self._scalar_outs = [
            (name, k) for k, name in enumerate(outs) if "[" not in name
        ]
        block = {name: k for k, name in enumerate(outs)}
        self._bus_outs = {base: _bus_ids(block, base) for base in _bus_names(block)}

        self.cycle = 0
        self.reset()

    # ------------------------------------------------------------------
    # Lane packing
    # ------------------------------------------------------------------
    def _spread(self, bits):
        """Per-node 0/1 flags -> words with every lane set to the flag."""
        words = np.where(bits[:, np.newaxis] != 0, self._ones, _ZERO)
        return words.reshape(len(bits)) if self._flat else words

    def _pack(self, bits):
        """``(..., batch)`` 0/1 lanes -> words ``(...)`` or ``(..., words)``."""
        packed = np.packbits(bits, axis=-1, bitorder="little")
        buf = np.zeros(packed.shape[:-1] + (8 * self._words,), dtype=np.uint8)
        buf[..., : packed.shape[-1]] = packed
        words = buf.view("<u8")
        return words[..., 0] if self._flat else words

    def _unpack(self, words):
        """Words ``(...)`` or ``(..., words)`` -> ``(..., batch)`` uint8 lanes."""
        words = np.asarray(words, dtype="<u8")
        if self._flat:
            words = words[..., np.newaxis]
        bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
        return bits[..., : self.batch]

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    def reset(self):
        """Power-on state: registers at their init values, inputs at 0."""
        self._v[:] = 0
        self._v[self._const1] = self._ones
        self._regs[:] = self._reg_init
        self.cycle = 0
        self._dirty = True

    def set_input(self, name, value):
        """Drive a scalar input (broadcast or per-batch array of 0/1)."""
        if name not in self._in_rows:
            raise KeyError(f"no input named {name!r}")
        value = np.asarray(value)
        if value.size == 1:
            word = self._ones if value.reshape(()) else _ZERO
        elif value.shape == (self.batch,):
            word = self._pack(value)
        else:
            raise ValueError(
                f"expected a scalar or {self.batch} lane values, "
                f"got shape {value.shape}"
            )
        self._v[self._in_rows[name]] = word
        self._dirty = True

    def set_bus(self, name, value):
        """Drive a bus input ``name[i]`` from integer word(s).

        ``value`` may be a scalar int or an array of ``batch`` ints.
        """
        rows = self._bus_ins.get(name)
        if rows is None or not len(rows):
            raise KeyError(f"no bus input named {name!r}")
        value = np.asarray(value, dtype=np.uint64)
        shifts = np.arange(len(rows), dtype=np.uint64)
        if value.size == 1:
            self._v[rows] = self._spread((value.reshape(()) >> shifts) & _ONE)
        else:
            bits = (value[np.newaxis, :] >> shifts[:, np.newaxis]) & _ONE
            self._v[rows] = self._pack(bits.astype(np.uint8))
        self._dirty = True

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def settle(self):
        """Propagate combinational logic if an input or register changed."""
        if not self._dirty:
            return
        v = self._v
        for kind, out, a, b, c in self._schedule:
            if kind == "and":
                np.bitwise_and(v[a], v[b], out=out)
            elif kind == "or":
                np.bitwise_or(v[a], v[b], out=out)
            elif kind == "xor":
                np.bitwise_xor(v[a], v[b], out=out)
            elif kind == "not":
                np.bitwise_xor(v[a], self._ones, out=out)
            else:  # mux: a ? b : c, as c ^ (a & (b ^ c))
                other = v[c]
                np.bitwise_xor(v[b], other, out=out)
                out &= v[a]
                out ^= other
        self._dirty = False

    def clock(self):
        """Advance one clock edge: commit registers from the driven inputs.

        The combinational logic settles first if it is stale; after the
        edge it is stale again until the next read or clock.
        """
        self.settle()
        if len(self._regs):
            v = self._v
            # Gather every pin before the first register changes.
            d, en, rst = v[self._reg_d], v[self._reg_en], v[self._reg_rst]
            q = self._regs
            # q = en ? d : q, then q = rst ? init : q, in place.
            q ^= (d ^ q) & en
            q ^= (self._reg_init ^ q) & rst
        self.cycle += 1
        self._dirty = True

    def step(self, **inputs):
        """Drive inputs, settle, return sampled outputs, then clock.

        The returned output values are those visible *before* the clock
        edge, i.e. what a registered downstream consumer would capture.
        """
        for name, value in inputs.items():
            if name in self._in_rows:
                self.set_input(name, value)
            else:
                self.set_bus(name, value)
        sampled = self.outputs()
        self.clock()
        return sampled

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def values(self):
        """Settled ``(n_nodes, batch)`` uint8 snapshot of every net."""
        return self._unpack(self.packed())

    def packed(self):
        """Settled node words in netlist order (a copy).

        Bit ``j`` of word ``w`` is lane ``64 * w + j``; the shape is
        ``(n_nodes,)`` for ``batch <= 64``, else ``(n_nodes, words)``.
        """
        self.settle()
        return self._v[self._row]

    def peek(self, net_id):
        """Current lane values of a net, shape ``(batch,)``.

        A list of net ids gives one row per net, ``(len(net_id), batch)``.
        """
        self.settle()
        return self._unpack(self._v[self._row[net_id]])

    def output(self, name):
        if name not in self._output_ids:
            raise KeyError(f"no output named {name!r}")
        return self.peek(self._output_ids[name])

    def output_bus(self, name, signed=False):
        """Read a bus output ``name[i]`` as integer word(s) per batch lane."""
        rows = self._bus_outs.get(name)
        if rows is None or not len(rows):
            raise KeyError(f"no bus output named {name!r}")
        self.settle()
        bits = self._unpack(self._v[self._out_rows[rows]])
        return self._bus_words(bits, signed)

    @staticmethod
    def _bus_words(bits, signed=False):
        """``(width, batch)`` lane bits -> ``(batch,)`` int64 words."""
        width = len(bits)
        weights = np.left_shift(1, np.arange(width, dtype=np.int64))
        words = weights @ bits.astype(np.int64)
        if signed:
            sign_bit = 1 << (width - 1)
            words = (words ^ sign_bit) - sign_bit
        return words

    def outputs(self):
        """All scalar outputs plus reconstructed buses as a dict."""
        self.settle()
        bits = self._unpack(self._v[self._out_rows])
        out = {name: bits[k] for name, k in self._scalar_outs}
        for base, rows in self._bus_outs.items():
            if len(rows):
                out[base] = self._bus_words(bits[rows])
        return out
