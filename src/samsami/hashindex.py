"""Hash-table front end: k-byte suffix prefixes to rank ranges.

An open-addressing table (linear probing, load factor <= 0.5) maps the
first k bytes of the sampled suffixes to the rank interval they span, so
a query starts its binary search from that interval instead of the whole
array. Entries store only the two range integers; key identity is
confirmed by comparing the query against the text at the range start.
The table layout is fixed (64-bit FNV-1a, power-of-two capacity) so that
serialized indexes are portable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (MatchRange, QueryStats, SamsamiIndex, _prefix_range,
                   _verify_candidates)
from .errors import InvalidParams, PatternTooShort
from .minimizer import window_minimizer

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
EMPTY_SLOT = 0xFFFFFFFF


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(eq=False)
class PrefixRangeTable:
    """Open-addressing map from k-byte prefixes to sa rank ranges."""

    k: int
    capacity: int
    slots: np.ndarray = field(repr=False)  # (capacity, 2) uint32, lo/hi
    # the slots row by row as Python ints: lo of slot i at 2i, hi at 2i+1
    slot_view: memoryview = field(init=False, repr=False)

    def __post_init__(self):
        self.slot_view = memoryview(self.slots.reshape(-1))

    @property
    def occupied(self) -> int:
        return int(np.count_nonzero(self.slots[:, 0] != EMPTY_SLOT))


def build_table(idx: SamsamiIndex, k: int) -> PrefixRangeTable:
    """Group ranks by their k-byte suffix prefix and hash the groups.

    Sampled suffixes shorter than k bytes belong to no group; any string
    sought through the table is at least k bytes long, so they can never
    match and nothing is lost.
    """
    if k < 1:
        raise InvalidParams(f"prefix length k must be >= 1, got {k}")
    text, sa, n = idx.text, idx.sa, idx.n
    groups: list[tuple[bytes, int, int]] = []
    run_key = None
    run_lo = 0
    for r in range(len(sa)):
        pos = int(sa[r])
        if n - pos + 1 < k:
            if run_key is not None:
                groups.append((run_key, run_lo, r))
                run_key = None
            continue
        key = text[pos - 1:pos - 1 + k]
        if key != run_key:
            if run_key is not None:
                groups.append((run_key, run_lo, r))
            run_key = key
            run_lo = r
    if run_key is not None:
        groups.append((run_key, run_lo, len(sa)))

    capacity = 2
    while capacity < 2 * len(groups):
        capacity *= 2
    slots = np.full((capacity, 2), EMPTY_SLOT, dtype=np.uint32)
    mask = capacity - 1
    for key, lo, hi in groups:
        slot = fnv1a(key) & mask
        while slots[slot, 0] != EMPTY_SLOT:
            slot = (slot + 1) & mask
        slots[slot, 0] = lo
        slots[slot, 1] = hi
    return PrefixRangeTable(k=k, capacity=capacity, slots=slots)


def _probe(idx: SamsamiIndex, table: PrefixRangeTable, key: bytes) -> MatchRange | None:
    mask = table.capacity - 1
    slot = fnv1a(key) & mask
    slots, sa, text, k = table.slot_view, idx.sa_view, idx.text, table.k
    while True:
        lo = slots[2 * slot]
        if lo == EMPTY_SLOT:
            return None
        pos = sa[lo]
        if text[pos - 1:pos - 1 + k] == key:
            return MatchRange(lo, slots[2 * slot + 1])
        slot = (slot + 1) & mask


def min_pattern_length(params, k: int) -> int:
    return max(params.q - params.p + k, params.q)


def locate_hash(idx: SamsamiIndex, table: PrefixRangeTable, pattern: bytes,
                stats: QueryStats | None = None) -> list[int]:
    """Same result set as core.locate, requires m >= max(q-p+k, q)."""
    hits = _locate_hash_impl(idx, table, pattern, stats)
    hits.sort()
    return hits


def count_hash(idx: SamsamiIndex, table: PrefixRangeTable, pattern: bytes,
               stats: QueryStats | None = None) -> int:
    return len(_locate_hash_impl(idx, table, pattern, stats))


def _locate_hash_impl(idx, table, pattern, stats):
    q, p, k = idx.params.q, idx.params.p, table.k
    need = min_pattern_length(idx.params, k)
    if len(pattern) < need:
        raise PatternTooShort(
            f"pattern length {len(pattern)} < max(q-p+k, q) = {need}")
    j = window_minimizer(pattern[:q], p)
    ranged = _probe(idx, table, pattern[j - 1:j - 1 + k])
    if ranged is None:
        return []
    narrowed = _prefix_range(idx.text, idx.sa_view, ranged.lo, ranged.hi,
                             pattern[j - 1:])
    return _verify_candidates(idx.text, idx.sa_view, pattern, j, narrowed,
                              stats=stats, left=idx.left)
