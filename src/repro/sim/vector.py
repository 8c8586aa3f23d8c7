"""Whole-warp helpers for the SASS and SI interpreters.

A per-lane interpreter spends most of its per-instruction budget on a
handful of tiny scalar loops and repeated small-array allocations:
bit-by-bit SIMT mask conversion, fresh ``np.full``/``np.zeros``
operands for every immediate, and lane-serialised atomic adds. This
module batches those over all lanes at once:

* :func:`mask_to_bools` / :func:`bools_to_mask` — SIMT masks via
  ``np.unpackbits``/``np.packbits`` with a bounded cache of immutable
  lane-bool arrays (the same few masks recur for almost every
  instruction of a run);
* :func:`const_u32` / :func:`const_bool` — cached read-only broadcast
  arrays for immediates, kernel parameters, RZ and PT;
* :func:`scatter_add_serialized` — the lane-ordered atomic-add
  semantics as grouped prefix sums instead of a per-lane loop.

Everything here is bit-identical to the per-lane reference loops: the
unit tests in tests/test_fastpath.py compare each helper against its
loop on random inputs, and the interpreters built on them still
reproduce the result stores the retired per-lane python interpreter
wrote (tests/test_transparency.py's ``backend-*`` rows). Cached arrays
are returned *read-only* and shared — callers treat operands as
immutable (the ISA semantics handlers are purely functional).
"""

from __future__ import annotations

import numpy as np

#: Bounded caches: cleared wholesale when full (the working set of one
#: run is a few dozen masks and a few hundred constants).
_CACHE_MAX = 4096

_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}
_CONST_CACHE: dict[tuple[int, int], np.ndarray] = {}
_BOOL_CACHE: dict[tuple[int, bool], np.ndarray] = {}


def mask_to_bools(mask: int, width: int) -> np.ndarray:
    """Lane-bool view of a SIMT mask (cached, read-only).

    Bit-identical to the reference per-bit loop for any mask with bits
    below ``width`` (the only masks the simulators produce: mask words
    are as wide as the warp).
    """
    key = (width, mask)
    out = _MASK_CACHE.get(key)
    if out is None:
        raw = np.frombuffer(
            int(mask).to_bytes((width + 7) // 8, "little"), dtype=np.uint8
        )
        out = np.unpackbits(raw, bitorder="little")[:width].astype(bool)
        out.setflags(write=False)
        if len(_MASK_CACHE) >= _CACHE_MAX:
            _MASK_CACHE.clear()
        _MASK_CACHE[key] = out
    return out


def bools_to_mask(bools: np.ndarray) -> int:
    """Integer SIMT mask from a lane-bool array (inverse of the above)."""
    return int.from_bytes(
        np.packbits(bools, bitorder="little").tobytes(), "little"
    )


def const_u32(width: int, value: int) -> np.ndarray:
    """Cached read-only ``np.full(width, value, uint32)`` broadcast."""
    key = (width, int(value))
    out = _CONST_CACHE.get(key)
    if out is None:
        out = np.full(width, value, dtype=np.uint32)
        out.setflags(write=False)
        if len(_CONST_CACHE) >= _CACHE_MAX:
            _CONST_CACHE.clear()
        _CONST_CACHE[key] = out
    return out


def const_bool(width: int, value: bool) -> np.ndarray:
    """Cached read-only all-``value`` lane-bool array (PT reads)."""
    key = (width, bool(value))
    out = _BOOL_CACHE.get(key)
    if out is None:
        out = (np.ones if value else np.zeros)(width, dtype=bool)
        out.setflags(write=False)
        _BOOL_CACHE[key] = out
    return out


def scatter_add_serialized(data: np.ndarray, index: np.ndarray,
                           values: np.ndarray) -> np.ndarray:
    """Lane-ordered atomic add into ``data``; returns per-lane old values.

    Reproduces the reference loop exactly: lanes hitting the same word
    are serialised in lane order, so lane *k*'s old value includes the
    adds of every lower lane on that word, and all arithmetic is mod
    2**32. Unique-index calls (the common case) are a pure gather +
    scatter; duplicates fall back to grouped prefix sums (stable sort
    keeps lane order within each address group).
    """
    n = index.size
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    vals = values.astype(np.uint32, copy=False)
    if np.unique(index).size == n:
        old = data[index].copy()
        data[index] = old + vals  # uint32 addition wraps mod 2**32
        return old
    order = np.argsort(index, kind="stable")
    sidx = index[order]
    svals = vals[order].astype(np.uint64)
    starts = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
    group = np.cumsum(np.r_[0, (sidx[1:] != sidx[:-1]).astype(np.int64)])
    csum = np.cumsum(svals)
    before = csum - svals                    # adds by all earlier lanes
    before -= before[starts][group]          # ... restricted to the group
    base = data[sidx[starts]].astype(np.uint64)[group]
    old = np.empty(n, dtype=np.uint32)
    old[order] = ((base + before) & 0xFFFFFFFF).astype(np.uint32)
    totals = np.add.reduceat(svals, starts)
    first = sidx[starts]
    data[first] = ((data[first].astype(np.uint64) + totals)
                   & 0xFFFFFFFF).astype(np.uint32)
    return old


def clear_caches() -> None:
    """Drop every cached array (tests and long-lived workers)."""
    _MASK_CACHE.clear()
    _CONST_CACHE.clear()
    _BOOL_CACHE.clear()
