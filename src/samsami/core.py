"""The basic sampled-suffix-array index.

Construction samples one suffix per window (the window's minimizer
position) and keeps those suffixes in lexicographic order. A pattern of
length m >= q is located with a single binary search for its suffix
starting at the q-prefix minimizer, followed by verification of the
skipped prefix symbols against the text.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, PatternTooShort, TextTooShort
from .minimizer import SamplingParams, sampled_positions, window_minimizer
from .suffix_sort import build_full_sa, extract_sampled


class MatchRange(NamedTuple):
    """Half-open rank interval [lo, hi) of suffixes sharing a prefix."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo


@dataclass
class QueryStats:
    """Optional instrumentation for a single query."""

    candidates: int = 0
    text_verifications: int = 0
    pruned: int = 0


@dataclass(eq=False)
class SamsamiIndex:
    """Immutable index over a text: safe to share across threads."""

    text: bytes
    params: SamplingParams
    sa: np.ndarray = field(repr=False)
    n: int = 0

    @property
    def n_sampled(self) -> int:
        return len(self.sa)


def build(text: bytes, params: SamplingParams) -> SamsamiIndex:
    """Sample the text's minimizer positions and suffix-sort them."""
    if len(text) < params.q:
        raise TextTooShort(f"text length {len(text)} < q={params.q}")
    sampled = sampled_positions(text, params)
    full = build_full_sa(text)
    sa = extract_sampled(full, sampled)
    return SamsamiIndex(text=text, params=params, sa=sa, n=len(text))


def suffix_range(idx: SamsamiIndex, seq: bytes) -> MatchRange:
    """Maximal rank interval whose suffixes start with seq."""
    if len(seq) == 0:
        raise InvalidParams("empty search string")
    return _prefix_range(idx.text, idx.sa, 0, len(idx.sa), seq)


def _prefix_range(text: bytes, sa, lo: int, hi: int, seq: bytes) -> MatchRange:
    # A suffix shorter than seq truncates and therefore compares smaller,
    # which is exactly the end-of-text-is-smallest order.
    def head(pos):
        pos = int(pos) - 1
        return text[pos:pos + len(seq)]

    lo_rank = bisect_left(sa, seq, lo, hi, key=head)
    hi_rank = bisect_right(sa, seq, lo_rank, hi, key=head)
    return MatchRange(lo_rank, hi_rank)


# Ranges with fewer candidates than this are verified one by one: the
# numpy kernel's fixed set-up (7-10 us) costs more than the loop it
# replaces (0.2-0.3 us per candidate). On 512 KiB of stdlib source
# (q=40, p=2; 2 vCPU, Python 3.11, numpy 2.4) the two paths broke even
# at about 36 candidates for 7-byte prefixes, 44 for 39-byte prefixes
# and 60 with delta pruning.
_VECTOR_MIN_CANDIDATES = 48


def _verify_candidates(text: bytes, sa: np.ndarray, pattern: bytes, j: int,
                       ranks: MatchRange, deltas: np.ndarray | None = None,
                       allowed: np.ndarray | None = None,
                       stats: QueryStats | None = None) -> list[int]:
    """Occurrence starts of pattern among the suffixes at ranks [lo, hi).

    The suffix at sa[r] matches pattern[j-1:]; the occurrence it stands
    for starts j-1 bytes earlier, which must lie inside the text and
    agree with the skipped prefix pattern[:j-1]. With delta nibbles and
    a prune mask's 16-entry allowed array, a candidate whose recorded
    predecessor distance d has allowed[d] false is dropped without
    touching the text. The result is in rank order.
    """
    lo, hi = ranks
    if lo == hi:
        return []
    if hi - lo >= _VECTOR_MIN_CANDIDATES:
        out, pruned, checked = _verify_vector(text, sa, pattern, j, lo, hi,
                                              deltas, allowed)
    else:
        shift = j - 1
        prefix = pattern[:shift]
        ok = allowed.tolist() if deltas is not None else None
        ds = deltas[lo:hi].tolist() if deltas is not None else None
        out = []
        pruned = checked = 0
        for i, s in enumerate(sa[lo:hi].tolist()):
            start = s - shift
            if start < 1:
                continue
            if ok is not None and not ok[ds[i]]:
                pruned += 1
                continue
            if shift:
                checked += 1
                if text[start - 1:s - 1] != prefix:
                    continue
            out.append(start)
    if stats is not None:
        stats.candidates += hi - lo
        stats.pruned += pruned
        stats.text_verifications += checked
    return out


def _verify_vector(text, sa, pattern, j, lo, hi, deltas, allowed):
    shift = j - 1
    begin = np.subtract(sa[lo:hi], j, dtype=np.int64)  # 0-based starts
    keep = begin >= 0
    pruned = 0
    if deltas is not None:
        inside = np.count_nonzero(keep)
        keep &= allowed[deltas[lo:hi]]
        pruned = int(inside - np.count_nonzero(keep))
    begin = begin[keep]
    checked = len(begin) if shift else 0
    # Compare the prefix nearest the anchor first, shrinking the set
    # after each step; once few candidates are left, the scalar compare
    # finishes them. The first step is one byte: gathering aligned bytes
    # costs about a third of gathering unaligned words, and on source
    # text one byte already rejects most candidates. Then 8-byte words
    # come through an in-place view of the text at every offset, or
    # single bytes when the prefix is shorter than a word.
    symbols = np.frombuffer(text, dtype=np.uint8)
    if shift:
        begin = begin[symbols[begin + (shift - 1)] == pattern[shift - 1]]
    if shift >= 8 and len(begin) >= _VECTOR_MIN_CANDIDATES:
        view, width = np.ndarray((len(text) - 7,), "<u8", buffer=text,
                                 strides=(1,)), 8
        steps = (max(off, 0) for off in range(shift - 8, -8, -8))
    else:
        view, width = symbols, 1
        steps = range(shift - 2, -1, -1)
    for off in steps:
        if len(begin) < _VECTOR_MIN_CANDIDATES:
            prefix = pattern[:shift]
            return ([b + 1 for b in begin.tolist()
                     if text[b:b + shift] == prefix], pruned, checked)
        want = int.from_bytes(pattern[off:off + width], "little")
        begin = begin[view[begin + off] == want]
    return (begin + 1).tolist(), pruned, checked


def _anchor_range(idx: SamsamiIndex, pattern: bytes) -> tuple[int, MatchRange]:
    """The pattern's q-prefix minimizer offset j and the ranks of pattern[j-1:]."""
    q, p = idx.params.q, idx.params.p
    if len(pattern) < q:
        raise PatternTooShort(f"pattern length {len(pattern)} < q={q}")
    j = window_minimizer(pattern[:q], p)
    return j, suffix_range(idx, pattern[j - 1:])


def _locate_impl(idx: SamsamiIndex, pattern: bytes,
                 stats: QueryStats | None = None, sort: bool = True):
    j, ranks = _anchor_range(idx, pattern)
    hits = _verify_candidates(idx.text, idx.sa, pattern, j, ranks, stats=stats)
    if sort:
        hits.sort()
    return hits


def locate(idx: SamsamiIndex, pattern: bytes,
           stats: QueryStats | None = None) -> list[int]:
    """All occurrence positions of pattern in the text, ascending."""
    return _locate_impl(idx, pattern, stats=stats)


def count(idx: SamsamiIndex, pattern: bytes,
          stats: QueryStats | None = None) -> int:
    """Number of occurrences of pattern in the text."""
    return len(_locate_impl(idx, pattern, stats=stats, sort=False))
