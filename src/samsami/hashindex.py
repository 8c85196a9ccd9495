"""Hash-table front end: k-byte suffix prefixes to rank ranges.

The sampled suffixes are grouped by their first k bytes, so a query
starts its binary search from its group's rank interval instead of the
whole array. A query looks the group up in a dict. The table holds the
groups' (lo, hi) rank ranges, one row per group in rank order; a
group's key is the first k bytes of the suffix at its lo. Index files
store only k, and loading recomputes the rows from the offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (QueryStats, SamsamiIndex, _heads, _prefix_range,
                   _verify_candidates, prepare, suffix_sa)
from .errors import InvalidParams, PatternTooShort
from .minimizer import _gram_keys, window_minimizer


@dataclass(eq=False)
class PrefixRangeTable:
    """Map from k-byte prefixes to sa rank ranges.

    slots holds one (lo, hi) row per group in rank order. Queries read
    groups, a dict from each row's key to lo << 32 | hi, which the first
    search builds right after core.prepare and nothing stores, as with
    SamsamiIndex.fences (no lock needed, for prepare's reasons).
    """

    k: int
    slots: np.ndarray = field(repr=False)  # (groups, 2) uint32, lo/hi
    groups: dict[bytes, int] | None = field(init=False, repr=False,
                                            default=None)

    @property
    def capacity(self) -> int:
        """Rows held; every row is occupied, as perfbench reads them."""
        return len(self.slots)

    occupied = capacity


def build_table(idx: SamsamiIndex, k: int) -> PrefixRangeTable:
    """Group ranks by their k-byte suffix prefix, one row per group.

    Sampled suffixes shorter than k bytes belong to no group; any string
    sought through the table is at least k bytes long, so they can never
    match and nothing is lost.
    """
    if k < 1:
        raise InvalidParams(f"prefix length k must be >= 1, got {k}")
    text, sa = idx.text, suffix_sa(idx)
    long = sa <= max(idx.n - k + 1, 0)  # the suffixes of k bytes or more
    # same[r]: the suffixes at ranks r and r + 1 are long and agree on k
    # bytes: their first min(k, 8) bytes, then, for the pairs still equal
    # when k > 8, the ranks of their k-grams
    heads = _heads(text, sa)
    heads >>= np.uint64(64 - 8 * min(k, 8))
    same = long[1:] & long[:-1] & (heads[1:] == heads[:-1])
    if k > 8 and same.any():
        pairs = np.flatnonzero(same)
        keys = _gram_keys(text, k, idx.n - k + 1)
        same[pairs] = keys[sa[pairs] - 1] == keys[sa[pairs + 1] - 1]
    # a run starts at each rank that shares nothing with the one before
    # and ends where the next starts; a short suffix is a run of its own
    head = np.ones(len(sa), dtype=bool)
    head[1:] = ~same
    runs = np.flatnonzero(head)
    ends = np.roll(runs, -1)
    ends[-1:] = len(sa)
    keep = long[runs]
    slots = np.stack([runs[keep], ends[keep]], axis=1).astype(np.uint32)
    return PrefixRangeTable(k=k, slots=slots)


def _groups(idx: SamsamiIndex, table: PrefixRangeTable) -> dict[bytes, int]:
    """Each row's key mapped to its range, lo << 32 | hi."""
    text, sa, k = idx.text, idx.sa_view, table.k
    return {text[sa[lo] - 1:sa[lo] - 1 + k]: lo << 32 | hi
            for lo, hi in table.slots.tolist()}


def min_pattern_length(params, k: int) -> int:
    q, p = params.q, params.p
    return q - p + k if k > p else q


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
        # the index's own fences narrow the search inside the k-byte
        # group, which on source text can hold thousands of suffixes
        prepare(idx)
        table.groups = _groups(idx, table)
    group = table.groups.get(pattern[j - 1:j - 1 + k])
    if group is None:
        return []
    narrowed = _prefix_range(idx.text, idx.sa_view, group >> 32,
                             group & 0xFFFFFFFF, pattern[j - 1:], idx.fences)
    return _verify_candidates(idx, pattern, j, narrowed, stats)
