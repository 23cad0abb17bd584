"""Bit-packed word kernels shared by training and serving.

A Tsetlin clause fails on a sample iff any *included* literal is 0, i.e.
iff ``include & ~literals`` has any set bit.  Packing both operands turns
one clause/sample evaluation into a word-wise AND over
``ceil(2f / 64)`` uint64 words plus an any-reduction — the same kernel
the generated hardware's AND planes implement, which is why the packed
path is bit-identical with the dense reference semantics.

Two packing granularities live here:

* ``np.packbits`` bytes (``pack_include`` / ``pack_not_literals``) — the
  historical uint8 layout, still the generic :class:`TMBackend` fallback;
* uint64 **words** (``pack_words`` / ``pack_not_literal_words``) — the
  hot-path layout: 8x fewer elements per AND and per any-reduction.
  ``packed_clause_outputs`` / ``packed_class_sums`` accept either, as
  long as both operands agree.

On top of the evaluation kernels, :class:`PackedAutomataState` stores the
*automata strength counters themselves* as uint64 bit-planes, so Type
I/II feedback becomes word-parallel saturating add/subtract and the
include mask is literally the most-significant plane — no thresholding,
no unpacking on the training hot path.

These kernels are the single implementation behind:

* :meth:`VectorizedBackend.batch_outputs` and the packed feedback path,
* :meth:`TMBackend.packed_predict` (the fast path every backend offers),
* :class:`repro.serving.InferenceEngine` (the serving engine, which packs
  the include matrix once per model snapshot and reuses it per request).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_include",
    "pack_not_literals",
    "pack_words",
    "pack_not_literal_words",
    "unpack_words",
    "words_per",
    "packed_clause_outputs",
    "packed_class_sums",
    "PackedAutomataState",
]

WORD_BITS = 64

# Soft cap (bytes) on one chunk of the batched packed evaluation; keeps
# the (samples, clauses, bytes) AND intermediate inside cache-friendly
# working sets for large batches.  4 MiB evaluates 300 samples against
# 600 clauses of 25 words ~40% faster than 16 MiB did, and the freed
# chunk no longer leaves a 16 MiB hole in the process's resident set.
BATCH_CHUNK_BYTES = 1 << 22


def pack_include(include):
    """Pack an include matrix along its literal axis.

    Returns ``(inc_packed, nonempty)`` where ``inc_packed`` packs the
    trailing axis with :func:`np.packbits` and ``nonempty`` is the
    per-clause any-include mask (shape = ``include.shape[:-1]``) used to
    prune empty clauses under the hardware convention.
    """
    include = np.asarray(include, dtype=bool)
    return np.packbits(include, axis=-1), include.any(axis=-1)


def pack_not_literals(L):
    """Pack the *complement* of a literal matrix along its last axis.

    The kernels consume ``~L`` packed: a clause is violated iff
    ``include & ~L`` is non-zero anywhere.
    """
    return np.packbits(~np.asarray(L, dtype=bool), axis=-1)


def words_per(n_bits):
    """Number of uint64 words covering ``n_bits`` bits."""
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def pack_words(bits):
    """Pack a boolean array's last axis into big-endian uint64 words.

    The word layout is ``np.packbits`` bytes viewed as uint64, so byte
    ``i`` of word ``w`` covers bits ``64w + 8i .. 64w + 8i + 7`` (MSB
    first).  Pad bits beyond the last real literal are always 0, which
    keeps every AND/any kernel and the bit-plane carry arithmetic exact.
    """
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1)
    n_bytes = packed.shape[-1]
    pad = (-n_bytes) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed).view(np.uint64)


def pack_not_literal_words(L):
    """uint64-word packing of ``~L`` — the hot-path form of a batch."""
    return pack_words(~np.asarray(L, dtype=bool))


def unpack_words(words, n_bits):
    """Inverse of :func:`pack_words`: bool array with last axis ``n_bits``."""
    words = np.ascontiguousarray(words)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=int(n_bits))
    return bits.view(bool)


def packed_clause_outputs(nlp, inc_packed, nonempty=None,
                          chunk_bytes=BATCH_CHUNK_BYTES):
    """Clause outputs ``(samples, clauses...)`` from packed operands.

    Parameters
    ----------
    nlp:
        Packed ``~literals``, shape ``(samples, units)`` — uint8 bytes or
        uint64 words, matching ``inc_packed``.
    inc_packed:
        Packed include matrix, shape ``(clauses..., units)`` — any number
        of leading clause axes (e.g. ``(C, K)`` or flat ``(C * K,)``).
    nonempty:
        Optional bool mask of shape ``inc_packed.shape[:-1]``; when given,
        clauses with no includes are forced to 0 (the hardware pruning
        convention).  When omitted, empty clauses output 1.

    Returns a uint8 array of shape ``(samples, *clauses)``.
    """
    nlp = np.asarray(nlp)
    inc_packed = np.asarray(inc_packed)
    if nlp.dtype != inc_packed.dtype:
        raise ValueError(
            f"packed operand dtypes differ: {nlp.dtype} vs {inc_packed.dtype}"
        )
    if nlp.ndim == 1:
        nlp = nlp[np.newaxis]
    n = len(nlp)
    clause_shape = inc_packed.shape[:-1]
    n_units = inc_packed.shape[-1]
    flat = inc_packed.reshape(1, -1, n_units)
    n_rows = flat.shape[1]
    out = np.empty((n, n_rows), dtype=bool)
    chunk = max(1, chunk_bytes // max(1, n_rows * n_units * nlp.itemsize))
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        v = np.bitwise_and(nlp[a:b, None, :], flat)
        np.logical_not(v.any(axis=2), out=out[a:b])
    result = out.view(np.uint8).reshape((n,) + clause_shape)
    if nonempty is not None:
        result = result & np.asarray(nonempty)[np.newaxis].view(np.uint8)
    return result


def packed_class_sums(nlp, inc_packed, nonempty, weights,
                      chunk_bytes=BATCH_CHUNK_BYTES):
    """Class sums ``(samples, classes)`` straight from packed operands.

    ``inc_packed``/``nonempty`` carry clause axes ``(banks, clauses)``
    where ``banks`` is either ``n_classes`` (per-class clause banks) or 1
    (a coalesced shared pool).  ``weights`` is the ``(classes, clauses)``
    integer vote-weight matrix; the shared-pool case broadcasts the single
    bank against every class's weights.
    """
    out = packed_clause_outputs(nlp, inc_packed, nonempty,
                                chunk_bytes=chunk_bytes).astype(np.int32)
    weights = np.asarray(weights, dtype=np.int32)
    if out.shape[1] == 1 and weights.shape[0] != 1:
        return out[:, 0, :] @ weights.T
    return np.einsum("nck,ck->nc", out, weights)


class PackedAutomataState:
    """Automata strength counters as uint64 bit-planes.

    An automaton state lives in ``[1, 2N]`` with *include* iff
    ``state > N``.  Store ``value = state + offset`` across
    ``B = (2N).bit_length()`` bit-planes where
    ``offset = 2**(B-1) - (N + 1)``; then

    * ``include`` ⇔ ``value >= 2**(B-1)`` ⇔ the most-significant plane's
      bit is set — plane ``B-1`` *is* the packed include matrix, with no
      thresholding step, and
    * Type I/II feedback is a word-parallel saturating ±1: a ripple
      carry/borrow across the planes, pre-guarded by equality masks so
      states already at ``2N`` / ``1`` stay put (the reference clip
      semantics).

    Planes have shape ``(B, *lead, words)`` where ``lead`` are the team's
    clause axes (e.g. ``(C, K)``) and ``words = ceil(n_literals / 64)``.
    Pad bits beyond ``n_literals`` are kept at 0 by construction: every
    mask handed to the saturating ops has 0 pads (packed from real
    literal vectors), so carries never originate in — or propagate into —
    pad positions.

    For the default ``n_states = 127`` the layout is exact byte-planes of
    the state value itself (``B = 8``, ``offset = 0``).
    """

    def __init__(self, state, n_states):
        state = np.asarray(state)
        self.n_states = int(n_states)
        self.n_bits = state.shape[-1]
        self.n_planes = max(1, (2 * self.n_states).bit_length())
        self.offset = (1 << (self.n_planes - 1)) - (self.n_states + 1)
        self._vmin = 1 + self.offset
        self._vmax = 2 * self.n_states + self.offset
        value = state.astype(np.int64) + self.offset
        self.planes = np.stack(
            [pack_words((value >> b) & 1) for b in range(self.n_planes)]
        )

    # -- views ---------------------------------------------------------
    @property
    def include_words(self):
        """The MSB plane — the uint64-packed include matrix (a view)."""
        return self.planes[-1]

    def clause_rows(self, class_index, rows):
        """Copy of planes for ``rows`` of one bank: ``(B, R, words)``."""
        return self.planes[:, class_index][:, rows]

    def write_rows(self, class_index, rows, sub):
        """Write a :meth:`clause_rows` copy back into the planes."""
        self.planes[:, class_index][:, rows] = sub

    def decode(self, sub, dtype=np.int16):
        """Dense states from a ``(B, ..., words)`` plane stack."""
        bits = np.unpackbits(
            np.ascontiguousarray(sub).view(np.uint8), axis=-1,
            count=self.n_bits,
        )
        if self.n_planes <= 8:
            # Accumulate in uint8 (value < 256): one shift+or per plane
            # with no widening copies — this runs on every flush_state.
            value = bits[0].copy()
            for b in range(1, self.n_planes):
                value |= bits[b] << b
            out = value.astype(dtype)
        else:
            out = bits[0].astype(dtype)
            for b in range(1, self.n_planes):
                out |= bits[b].astype(dtype) << b
        out -= dtype(self.offset)
        return out

    # -- word-parallel saturating arithmetic ---------------------------
    def _equals(self, sub, value):
        """Per-bit-position mask: 1 where the stored value == ``value``."""
        acc = None
        for b in range(self.n_planes):
            plane = sub[b] if (value >> b) & 1 else ~sub[b]
            acc = plane if acc is None else acc & plane
        return acc

    def saturating_increment(self, sub, mask_words):
        """In-place ``+1`` at mask bits, saturating at state ``2N``."""
        carry = mask_words & ~self._equals(sub, self._vmax)
        for b in range(self.n_planes):
            plane = sub[b]
            nxt = carry & plane  # must be read before the xor below
            np.bitwise_xor(plane, carry, out=plane)
            carry = nxt

    def increment(self, sub, mask_words):
        """In-place ``+1`` at mask bits, *without* the saturation guard.

        Valid only when the caller can prove no masked state is at
        ``2N`` — e.g. Type II feedback, which bumps excluded automata
        (state <= N) so the result never exceeds ``N + 1 <= 2N``.  Skips
        the :meth:`_equals` scan, which is the bulk of the guarded cost.
        """
        carry = mask_words
        for b in range(self.n_planes):
            plane = sub[b]
            nxt = carry & plane  # must be read before the xor below
            np.bitwise_xor(plane, carry, out=plane)
            carry = nxt

    def saturating_decrement(self, sub, mask_words):
        """In-place ``-1`` at mask bits, saturating at state ``1``."""
        borrow = mask_words & ~self._equals(sub, self._vmin)
        for b in range(self.n_planes):
            plane = sub[b]
            nxt = borrow & ~plane  # must be read before the xor below
            np.bitwise_xor(plane, borrow, out=plane)
            borrow = nxt
