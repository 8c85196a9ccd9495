"""Hash-table front end: k-byte suffix prefixes to rank ranges.

The sampled suffixes are grouped by their first k bytes, so a query
starts its binary search from its group's rank interval instead of the
whole array. A query looks the group up in a dict. Only index files
hold the open-addressing table (64-bit FNV-1a, linear probing,
power-of-two capacity, load factor <= 0.5), a fixed layout that keeps
them portable; its entries store only the two range integers, the key
being the first k bytes of the suffix at the range start.
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


def fnv1a_at(text: bytes, starts: np.ndarray, k: int) -> np.ndarray:
    """The 64-bit FNV-1a of text[s:s + k] for each 0-based start s, as
    uint64; every key must lie inside text. Array products wrap modulo
    2**64."""
    symbols = np.frombuffer(text, dtype=np.uint8)
    h = np.full(len(starts), FNV_OFFSET, dtype=np.uint64)
    for t in range(k):
        h ^= symbols[starts + t]
        h *= np.uint64(FNV_PRIME)
    return h


@dataclass(eq=False)
class PrefixRangeTable:
    """Map from k-byte prefixes to sa rank ranges.

    slots is the table an index file stores. Queries read groups, a dict
    from each slot's key to lo << 32 | hi, which the first search builds
    and nothing stores, as with SamsamiIndex.fences (no lock needed).
    """

    k: int
    capacity: int
    slots: np.ndarray = field(repr=False)  # (capacity, 2) uint32, lo/hi
    groups: dict[bytes, int] | None = field(init=False, repr=False,
                                            default=None)

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


def _groups(idx: SamsamiIndex, table: PrefixRangeTable) -> dict[bytes, int]:
    """Each occupied slot's key mapped to its range, lo << 32 | hi."""
    text, sa, k = idx.text, idx.sa_view, table.k
    used = table.slots[table.slots[:, 0] != EMPTY_SLOT]
    return {text[sa[lo] - 1:sa[lo] - 1 + k]: lo << 32 | hi
            for lo, hi in used.tolist()}


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
    if table.groups is None:
        table.groups = _groups(idx, table)
    group = table.groups.get(pattern[j - 1:j - 1 + k])
    if group is None:
        return []
    # the index's own fences narrow the search inside the k-byte group,
    # which on source text can hold thousands of suffixes
    if idx.fences is None:
        idx.fences = _fences(idx.text, idx.sa_view)
    narrowed = _prefix_range(idx.text, idx.sa_view, group >> 32,
                             group & 0xFFFFFFFF, pattern[j - 1:], idx.fences)
    return _verify_candidates(idx.text, idx.sa_view, pattern, j, narrowed,
                              stats=stats, left=idx.left)
