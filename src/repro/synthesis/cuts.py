"""LUT technology mapping over the gate-level netlist.

Stands in for Vivado's synthesis step.  Two mappers are provided:

* :func:`map_greedy` — linear-time fanout-free-cone packing: in
  topological order every gate tries to absorb single-fanout fanin cones
  while the merged support stays within ``k`` inputs.  Inverters are free
  (absorbed into consumer LUT input polarity), like real LUT mapping.
* :func:`map_priority_cuts` — a bounded priority-cuts mapper (classic
  depth-then-area cost) for small netlists, used by tests to sanity-check
  the greedy results.

Both return a :class:`Mapping` with one :class:`LUT` per mapped root,
levelized depth, and the F7/F8 wide-mux estimate used by the resource
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rtl.netlist import GATE_KINDS

__all__ = ["LUT", "Mapping", "map_greedy", "map_priority_cuts"]


@dataclass(slots=True)
class LUT:
    """One mapped K-input LUT rooted at a netlist gate."""

    root: int
    support: tuple
    block: str = None

    @property
    def n_inputs(self):
        return len(self.support)


@dataclass
class Mapping:
    """Result of technology mapping."""

    k: int
    luts: list = field(default_factory=list)
    lut_levels: dict = field(default_factory=dict)
    f7_muxes: int = 0
    f8_muxes: int = 0

    @property
    def n_luts(self):
        return len(self.luts)

    @property
    def depth(self):
        return max(self.lut_levels.values(), default=0)

    def luts_per_block(self):
        counts = {}
        for lut in self.luts:
            counts[lut.block] = counts.get(lut.block, 0) + 1
        return counts

    def input_histogram(self):
        hist = {}
        for lut in self.luts:
            hist[lut.n_inputs] = hist.get(lut.n_inputs, 0) + 1
        return hist


def _through_inverters(netlist, nid):
    """Follow NOT chains down to the first non-inverter driver."""
    node = netlist.nodes[nid]
    while node.kind == "not":
        nid = node.fanins[0]
        node = netlist.nodes[nid]
    return nid


def map_greedy(netlist, k=6, preserve_structure=False):
    """Fanout-free-cone greedy mapping into K-input LUTs.

    ``preserve_structure`` models the DON'T TOUCH pragma: every gate's
    output net must be preserved, so no cone absorption is possible and
    each gate (including inverters) occupies its own LUT — this is what
    inflates the Fig. 8 LUT counts.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    nodes = netlist.nodes
    fanout = netlist.fanout_counts()
    order = netlist.topological_order()

    if preserve_structure:
        return _map_preserved(netlist, k, nodes, order)

    # support[nid]: set of leaf nets (inputs/regs/multi-fanout roots) that
    # the LUT rooted at nid would need.  absorbed[nid]: folded into its
    # single consumer, so it is not its own LUT.
    support = {}
    absorbed = set()

    def leaf_ref(fid):
        """What a consumer sees when reading net fid: resolve inverters."""
        base = _through_inverters(netlist, fid)
        return base

    # F7/F8 wide-mux estimate: a mux that cannot absorb its (single-fanout)
    # mux data inputs because the merged support exceeds k is exactly where
    # Vivado would emit MUXF7 (one failed side) / MUXF8 (both sides).
    f7 = 0
    f8 = 0

    for nid in order:
        node = nodes[nid]
        if node.kind not in GATE_KINDS:
            continue
        if node.kind == "not":
            # Inverters never cost a LUT: polarity is folded into consumers.
            absorbed.add(nid)
            continue
        merged = set()
        failed_mux_sides = 0
        for pin, fid in enumerate(node.fanins):
            base = leaf_ref(fid)
            fnode = nodes[base]
            if (
                fnode.kind in GATE_KINDS
                and fnode.kind != "not"
                and base in support
                and fanout[base] == 1
                and base not in absorbed
            ):
                trial = merged | support[base]
                if len(trial) <= k:
                    merged = trial
                    absorbed.add(base)
                    continue
                if node.kind == "mux" and fnode.kind == "mux" and pin > 0:
                    failed_mux_sides += 1
            if fnode.kind in ("const0", "const1"):
                continue
            merged.add(base)
        if node.kind == "mux":
            if failed_mux_sides >= 2:
                f8 += 1
            elif failed_mux_sides == 1:
                f7 += 1
        if len(merged) > k:
            # Cannot fit even the direct fanins (only possible for k < 3);
            # fall back to direct support.
            merged = set()
            for fid in node.fanins:
                base = leaf_ref(fid)
                if nodes[base].kind not in ("const0", "const1"):
                    merged.add(base)
            ok = len(merged) <= k
            if not ok:
                raise ValueError("gate support exceeds LUT size; choose k >= 3")
        support[nid] = merged

    luts = []
    lut_level = {}

    def source_level(base):
        return lut_level.get(base, 0)

    for nid in order:
        node = nodes[nid]
        if node.kind not in GATE_KINDS or node.kind == "not":
            continue
        if nid in absorbed:
            continue
        sup = tuple(sorted(support[nid]))
        luts.append(LUT(root=nid, support=sup, block=node.block))
        lut_level[nid] = 1 + max((source_level(b) for b in sup), default=0)

    return Mapping(k=k, luts=luts, lut_levels=lut_level, f7_muxes=f7, f8_muxes=f8)


def _map_preserved(netlist, k, nodes, order):
    """DON'T TOUCH mapping: one LUT per gate, wide muxes still detected."""
    luts = []
    lut_level = {}
    f7 = 0
    f8 = 0
    for nid in order:
        node = nodes[nid]
        if node.kind not in GATE_KINDS:
            continue
        sup = tuple(
            sorted(
                f
                for f in node.fanins
                if nodes[f].kind not in ("const0", "const1")
            )
        )
        luts.append(LUT(root=nid, support=sup, block=node.block))
        lut_level[nid] = 1 + max((lut_level.get(s, 0) for s in sup), default=0)
        if node.kind == "mux":
            feeders = sum(1 for f in node.fanins[1:] if nodes[f].kind == "mux")
            if feeders >= 2:
                f8 += 1
            elif feeders == 1:
                f7 += 1
    return Mapping(k=k, luts=luts, lut_levels=lut_level, f7_muxes=f7, f8_muxes=f8)


def _merge_cuts(ca, cb, k):
    merged = ca | cb
    return merged if len(merged) <= k else None


def map_priority_cuts(netlist, k=6, max_cuts=8):
    """Priority-cuts mapping (depth-optimal then area-greedy).

    Exact-ish but O(nodes x max_cuts^2); intended for small netlists and
    cross-validation of :func:`map_greedy`.
    """
    nodes = netlist.nodes
    order = netlist.topological_order()
    # cuts[nid]: list of (leafset, depth) best-first.
    cuts = {}
    depth = {}

    for nid in order:
        node = nodes[nid]
        if node.kind not in GATE_KINDS:
            cuts[nid] = [(frozenset([nid]), 0)]
            depth[nid] = 0
            continue
        if node.kind == "not":
            src = node.fanins[0]
            cuts[nid] = cuts[src]
            depth[nid] = depth[src]
            continue
        fan = [f for f in node.fanins if nodes[f].kind not in ("const0", "const1")]
        if not fan:
            cuts[nid] = [(frozenset(), 0)]
            depth[nid] = 0
            continue
        candidates = {}
        fan_cut_lists = [cuts[f] for f in fan]

        def add_candidate(leafset):
            d = 1 + max(
                (depth[leaf] for leaf in leafset), default=0
            )
            prev = candidates.get(leafset)
            if prev is None or d < prev:
                candidates[leafset] = d

        # Trivial cut: the fanins themselves.
        add_candidate(frozenset(fan))
        # Merged cuts from fanin cut products.
        if len(fan) == 1:
            for c, _ in fan_cut_lists[0][:max_cuts]:
                add_candidate(c)
        elif len(fan) == 2:
            for ca, _ in fan_cut_lists[0][:max_cuts]:
                for cb, _ in fan_cut_lists[1][:max_cuts]:
                    m = _merge_cuts(ca, cb, k)
                    if m is not None:
                        add_candidate(frozenset(m))
        else:  # mux, 3 fanins
            for ca, _ in fan_cut_lists[0][: max_cuts // 2 or 1]:
                for cb, _ in fan_cut_lists[1][: max_cuts // 2 or 1]:
                    m1 = _merge_cuts(ca, cb, k)
                    if m1 is None:
                        continue
                    for cc, _ in fan_cut_lists[2][: max_cuts // 2 or 1]:
                        m2 = _merge_cuts(frozenset(m1), cc, k)
                        if m2 is not None:
                            add_candidate(frozenset(m2))
        ranked = sorted(candidates.items(), key=lambda kv: (kv[1], len(kv[0])))
        cuts[nid] = [(c, d) for c, d in ranked[:max_cuts]]
        depth[nid] = ranked[0][1]

    # Cover: walk back from roots choosing each node's best cut.
    fanout = netlist.fanout_counts()
    roots = set()
    for nid, node in enumerate(nodes):
        if node.kind == "dff":
            roots.update(
                f for f in node.fanins if nodes[f].kind in GATE_KINDS
            )
    for net in netlist.outputs.values():
        if nodes[net].kind in GATE_KINDS:
            roots.add(net)
    # Multi-fanout gates are natural roots too (simple area heuristic).
    for nid, node in enumerate(nodes):
        if node.kind in GATE_KINDS and node.kind != "not" and fanout[nid] > 1:
            roots.add(nid)

    luts = []
    lut_level = {}
    visited = set()
    stack = sorted(roots)
    while stack:
        nid = stack.pop()
        base = _through_inverters(netlist, nid)
        if base in visited or nodes[base].kind not in GATE_KINDS:
            continue
        visited.add(base)
        best_cut = cuts[base][0][0]
        sup = tuple(sorted(best_cut))
        luts.append(LUT(root=base, support=sup, block=nodes[base].block))
        for leaf in sup:
            lb = _through_inverters(netlist, leaf)
            if nodes[lb].kind in GATE_KINDS and lb not in visited:
                stack.append(lb)

    # Levels from cut structure.
    for lut in sorted(luts, key=lambda l: l.root):
        lut_level[lut.root] = 1 + max(
            (lut_level.get(_through_inverters(netlist, s), 0) for s in lut.support),
            default=0,
        )
    return Mapping(k=k, luts=luts, lut_levels=lut_level)
