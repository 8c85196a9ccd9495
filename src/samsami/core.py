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

from .errors import InvalidParams, PatternTooShort
from .minimizer import SamplingParams, sampled_positions, window_minimizer
# build_full_sa is never called here: benchmark tracing wraps it by name
from .suffix_sort import build_full_sa, extract_sampled  # noqa: F401


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
    """Immutable index over a text: safe to share across threads.

    Two fields are derived on construction and never stored in an index
    file: sa_view, a memoryview of sa whose items read as Python ints,
    and left, the 4 text bytes before each sampled suffix as one uint32
    (the byte next to the suffix in the top bits, zero bytes before the
    text start), so that verification can compare the end of a
    pattern's skipped prefix in one contiguous scan. left costs 4 bytes
    of memory per sampled suffix.
    """

    text: bytes
    params: SamplingParams
    sa: np.ndarray = field(repr=False)
    n: int = 0
    sa_view: memoryview = field(init=False, repr=False)
    left: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.sa_view = memoryview(self.sa)
        # padded[s:s + 4] holds the 4 bytes before 1-based position s;
        # clipping only matters for stub indexes whose sa outruns text
        padded = bytes(5) + self.text
        words = np.ndarray((len(padded) - 3,), "<u4", buffer=padded,
                           strides=(1,))
        self.left = words.take(self.sa, mode="clip")

    @property
    def n_sampled(self) -> int:
        return len(self.sa)


def build(text: bytes, params: SamplingParams) -> SamsamiIndex:
    """Sample the text's minimizer positions and suffix-sort only them."""
    sampled = sampled_positions(text, params)  # rejects a too-short text
    sa = extract_sampled(text, sampled, params)
    return SamsamiIndex(text=text, params=params, sa=sa, n=len(text))


def suffix_range(idx: SamsamiIndex, seq: bytes) -> MatchRange:
    """Maximal rank interval whose suffixes start with seq."""
    if len(seq) == 0:
        raise InvalidParams("empty search string")
    return _prefix_range(idx.text, idx.sa_view, 0, len(idx.sa), seq)


def _prefix_range(text: bytes, sa, lo: int, hi: int, seq: bytes) -> MatchRange:
    """Ranks in [lo, hi) of the sorted 1-based positions sa whose suffix
    of text starts with seq.

    sa may be any sequence of ints; a memoryview of the numpy array
    makes each probe read a Python int. The lower bound is a binary
    search; the upper bound gallops from it (lower,
    +1, +2, +4, ...) and then bisects the last gap, so its cost grows
    with the size of the answer, not of [lo, hi) (Bentley and Yao, "An
    almost optimal algorithm for unbounded searching").
    """
    # A suffix shorter than seq truncates and therefore compares smaller,
    # which is exactly the end-of-text-is-smallest order.
    width = len(seq)

    def head(pos):
        return text[pos - 1:pos - 1 + width]

    first = bisect_left(sa, seq, lo, hi, key=head)
    known, probe, step = first, first, 1
    while probe < hi and head(sa[probe]) == seq:
        known = probe + 1
        probe = first + step
        step *= 2
    return MatchRange(first, bisect_right(sa, seq, known, min(probe, hi),
                                          key=head))


# Ranges with fewer candidates than this are verified one by one: the
# numpy kernel's fixed set-up (7-10 us) costs more than the loop it
# replaces (0.2-0.3 us per candidate). On 512 KiB of stdlib source
# (q=40, p=2; 2 vCPU, Python 3.11, numpy 2.4) the two paths broke even
# at about 36 candidates for 7-byte prefixes, 44 for 39-byte prefixes
# and 60 with delta pruning.
_VECTOR_MIN_CANDIDATES = 48


def _verify_candidates(text: bytes, sa: memoryview, pattern: bytes, j: int,
                       ranks: MatchRange, deltas: np.ndarray | None = None,
                       allowed: tuple[bool, ...] | None = None,
                       stats: QueryStats | None = None,
                       left: np.ndarray | None = None) -> list[int]:
    """Occurrence starts of pattern among the suffixes at ranks [lo, hi).

    sa is a memoryview of the sorted 1-based suffix positions, as in
    _prefix_range. The suffix at sa[r] matches pattern[j-1:]; the
    occurrence it stands for starts j-1 bytes earlier, which must lie
    inside the text and agree with the skipped prefix pattern[:j-1].
    With delta nibbles and a prune mask's 16-entry allowed tuple, a
    candidate whose recorded predecessor distance d has allowed[d]
    false is dropped without touching the text. left, an index's
    left-context column in sa order, lets large ranges check the
    prefix's last 4 bytes without touching the text either; it counts
    as the text verification it replaces. The result is in rank order.
    """
    lo, hi = ranks
    if lo == hi:
        return []
    if hi - lo >= _VECTOR_MIN_CANDIDATES:
        out, pruned, checked = _verify_vector(text, sa, pattern, j, lo, hi,
                                              deltas, allowed, left,
                                              stats is not None)
    else:
        shift = j - 1
        prefix = pattern[:shift]
        ds = deltas[lo:hi].tolist() if deltas is not None else None
        out = []
        pruned = checked = 0
        for i, s in enumerate(sa[lo:hi]):
            start = s - shift
            if start < 1:
                continue
            if ds is not None and not allowed[ds[i]]:
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


def _verify_vector(text, sa, pattern, j, lo, hi, deltas, allowed, left,
                   counting):
    shift = j - 1
    anchors = np.asarray(sa[lo:hi])
    if deltas is not None:
        deltas = deltas[lo:hi]
    pruned = checked = 0
    if counting:  # whole-range passes that only the statistics need
        inside = anchors >= j
        allowed_inside = inside
        if deltas is not None:
            allowed_inside = inside & np.take(allowed, deltas)
            pruned = int(np.count_nonzero(inside)
                         - np.count_nonzero(allowed_inside))
        checked = int(np.count_nonzero(allowed_inside)) if shift else 0
    # Compare the prefix nearest the anchor first, shrinking the set
    # after each step; once few candidates are left, the scalar compare
    # finishes them. The first step reads no scattered text: the
    # left-context column holds up to 4 prefix bytes in sa order, so one
    # contiguous compare leaves few candidates for the start and delta
    # checks. Without a column, one byte is gathered after those checks
    # (gathering aligned bytes costs about a third of gathering
    # unaligned words, and on source text one byte already rejects most
    # candidates). Then 8-byte words come through an in-place view of
    # the text at every offset, or single bytes when the rest of the
    # prefix is shorter than a word.
    rest = shift  # pattern[:rest] is still to compare
    if shift and left is not None:
        tail = min(shift, 4)
        want = int.from_bytes(pattern[shift - tail:shift].rjust(4, b"\0"),
                              "little")
        column = left[lo:hi]
        if tail < 4:  # the low bytes lie before the occurrence: ignore
            column = column & ((0xFFFFFFFF << 8 * (4 - tail)) & 0xFFFFFFFF)
        survivors = (column == want).nonzero()[0]
        anchors = anchors[survivors]
        if deltas is not None:
            deltas = deltas[survivors]
        rest -= tail
    keep = anchors >= j  # the occurrence starts inside the text
    if deltas is not None:
        keep &= np.take(allowed, deltas)
    begin = anchors[keep].astype(np.int64) - j  # 0-based starts
    symbols = np.frombuffer(text, dtype=np.uint8)
    if rest and left is None:
        begin = begin[symbols[begin + (rest - 1)] == pattern[rest - 1]]
        rest -= 1
    if rest >= 8 and len(begin) >= _VECTOR_MIN_CANDIDATES:
        view, width = np.ndarray((len(text) - 7,), "<u8", buffer=text,
                                 strides=(1,)), 8
        steps = (max(off, 0) for off in range(rest - 8, -8, -8))
    else:
        view, width = symbols, 1
        steps = range(rest - 1, -1, -1)
    for off in steps:
        if len(begin) < _VECTOR_MIN_CANDIDATES:
            prefix = pattern[:rest]
            return ([b + 1 for b in begin.tolist()
                     if text[b:b + rest] == prefix], pruned, checked)
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
    hits = _verify_candidates(idx.text, idx.sa_view, pattern, j, ranks,
                              stats=stats, left=idx.left)
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
