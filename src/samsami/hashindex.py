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

from .core import (QueryStats, SamsamiIndex, _fences, _prefix_range,
                   _verify_candidates)
from .errors import InvalidParams, PatternTooShort
from .minimizer import _gram_keys, window_minimizer

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
EMPTY_SLOT = 0xFFFFFFFF


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def fnv1a_at(text: bytes, starts: np.ndarray, k: int) -> np.ndarray:
    """fnv1a(text[s:s + k]) for each 0-based start s, as uint64; every
    key must lie inside text. Array products wrap modulo 2**64."""
    symbols = np.frombuffer(text, dtype=np.uint8)
    h = np.full(len(starts), FNV_OFFSET, dtype=np.uint64)
    for t in range(k):
        h ^= symbols[starts + t]
        h *= np.uint64(FNV_PRIME)
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
    # ranks of the sampled suffixes with at least k bytes, and the rank of
    # each one's k-byte prefix among all k-grams of the text
    ranks = np.flatnonzero(sa <= n - k + 1)
    head = np.ones(len(ranks), dtype=bool)
    if len(ranks):
        keys = _gram_keys(text, k, n - k + 1)[sa[ranks] - 1]
        # a group starts where the prefix changes; no shorter suffix lies
        # inside a group, since one between two suffixes that share k
        # bytes would share them too
        head[1:] = keys[1:] != keys[:-1]
    los = ranks[head]
    # each group ends just before the next head, the last at the last rank
    his = ranks[np.roll(head, -1)] + 1

    capacity = 2
    while capacity < 2 * len(los):
        capacity *= 2
    mask = capacity - 1
    homes = fnv1a_at(text, sa[los].astype(np.int64) - 1, k) & np.uint64(mask)
    flat = [EMPTY_SLOT] * (2 * capacity)  # lo of slot i at 2i, hi at 2i+1
    for lo, hi, slot in zip(los.tolist(), his.tolist(), homes.tolist()):
        while flat[2 * slot] != EMPTY_SLOT:
            slot = (slot + 1) & mask
        flat[2 * slot] = lo
        flat[2 * slot + 1] = hi
    slots = np.array(flat, dtype=np.uint32).reshape(capacity, 2)
    return PrefixRangeTable(k=k, capacity=capacity, slots=slots)


def _probe(idx: SamsamiIndex, table: PrefixRangeTable,
           key: bytes) -> tuple[int, int] | None:
    mask = table.capacity - 1
    slot = fnv1a(key) & mask
    slots, sa, text, k = table.slot_view, idx.sa_view, idx.text, table.k
    while True:
        lo = slots[2 * slot]
        if lo == EMPTY_SLOT:
            return None
        pos = sa[lo]
        if text[pos - 1:pos - 1 + k] == key:
            return lo, slots[2 * slot + 1]
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
    group = _probe(idx, table, pattern[j - 1:j - 1 + k])
    if group is None:
        return []
    lo, hi = group
    # the index's own fences narrow the search inside the k-byte group,
    # which on source text can hold thousands of suffixes
    if idx.fences is None:
        idx.fences = _fences(idx.text, idx.sa_view)
    narrowed = _prefix_range(idx.text, idx.sa_view, lo, hi, pattern[j - 1:],
                             idx.fences)
    return _verify_candidates(idx.text, idx.sa_view, pattern, j, narrowed,
                              stats=stats, left=idx.left)
