"""Common-subexpression extraction over partial-clause conjunctions.

Section II of the paper: trained TM models show "significant sharing of
boolean expressions among the clauses within the class as well as among
the classes", which synthesis "logic absorption" turns into LUT savings.
This module is our model of that absorption: a greedy cube-factoring pass
(single-cube extraction, in the spirit of ``fast_extract``) applied to
all partial clauses of one HCB before any gates are created.

Algorithm: count literal-pair frequencies across the cubes, repeatedly
materialize the most frequent pair (ties: the pair of lowest symbols,
input symbols before factored ones, so the result never depends on
``PYTHONHASHSEED``) as a shared AND node and substitute it back into
every cube that contains it, until no pair occurs twice.  Each
substitution removes ``count - 1`` AND gates from the design.

Internally every symbol is an integer that sorts in that tie-break
order, and a symbol -> cube-index map limits each substitution to the
cubes holding both symbols of the pair.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import combinations

__all__ = ["factor_cubes", "FactorResult"]


class FactorResult:
    """Outcome of factoring: per-cube symbol sets plus the shared steps."""

    def __init__(self, cubes, steps):
        self.cubes = cubes  # list of tuples of symbols (net ids / step ids)
        self.steps = steps  # list of (new_symbol, a, b) in creation order
        self.n_extracted = len(steps)


def factor_cubes(cubes, min_count=2, max_steps=None):
    """Greedy pair extraction over conjunction cubes.

    Parameters
    ----------
    cubes:
        Iterable of iterables of integer symbols (net ids).
        Duplicated symbols within a cube are collapsed.
    min_count:
        Only extract pairs occurring at least this often (>= 2).
    max_steps:
        Optional cap on extraction rounds (safety valve).

    Returns
    -------
    :class:`FactorResult` whose ``cubes[i]`` is the factored symbol tuple
    for input cube ``i`` and whose ``steps`` list the shared AND nodes to
    materialize, in dependency order.  New symbols are ``("f", n)`` tuples
    so they can never collide with integer net ids.
    """
    if min_count < 2:
        raise ValueError("min_count must be >= 2")
    cubes = [set(c) for c in cubes]
    # Input symbol k is internal id k; step n creates internal id
    # len(symbols) + n, so integer order is the tie-break order.
    symbols = sorted(set().union(*cubes))
    index = {s: k for k, s in enumerate(symbols)}
    work = [{index[s] for s in cube} for cube in cubes]
    holders = {k: set() for k in range(len(symbols))}
    counts = Counter()
    for i, cube in enumerate(work):
        for s in cube:
            holders[s].add(i)
        counts.update(combinations(sorted(cube), 2))
    # Max-heap on (count, then the lower pair), not on Counter order.  A
    # queued pair's count only falls, so a popped entry whose count went
    # stale is re-queued at its current one.
    heap = [(-n, a, b) for (a, b), n in counts.items()]
    heapq.heapify(heap)
    steps = []

    while heap:
        neg, a, b = heapq.heappop(heap)
        best = counts.get((a, b), 0)
        if best != -neg:
            if best:
                heapq.heappush(heap, (-best, a, b))
            continue
        if best < min_count:
            break
        if max_steps is not None and len(steps) >= max_steps:
            break
        sym = len(symbols) + len(steps)
        steps.append((a, b))
        # Substitute into the cubes holding both symbols, updating the
        # pair counts incrementally.  ``sym`` is the highest id yet, so
        # (x, sym) is already a canonical pair key.
        touched = holders[a] & holders[b]
        for i in touched:
            cube = work[i]
            cube.discard(a)
            cube.discard(b)
            for x in cube:
                for y in (a, b):
                    pair = (x, y) if x < y else (y, x)
                    counts[pair] -= 1
                    if counts[pair] <= 0:
                        del counts[pair]
                counts[x, sym] += 1
            cube.add(sym)
        holders[a] -= touched
        holders[b] -= touched
        holders[sym] = touched
        del counts[a, b]
        for x in {x for i in touched for x in work[i]} - {sym}:
            heapq.heappush(heap, (-counts[x, sym], x, sym))

    def external(s):
        return symbols[s] if s < len(symbols) else ("f", s - len(symbols))

    def ordered(group):
        return tuple(sorted(map(external, group), key=repr))

    return FactorResult(
        cubes=[ordered(cube) for cube in work],
        steps=[(("f", n), *ordered(pair)) for n, pair in enumerate(steps)],
    )
