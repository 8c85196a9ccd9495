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

import numpy as np

from .errors import InvalidParams, PatternTooShort
from .minimizer import SamplingParams, sampled_positions, window_minimizer
# build_full_sa is never called here: benchmark tracing wraps it by name
from .suffix_sort import build_full_sa, extract_sampled  # noqa: F401


@dataclass
class QueryStats:
    """Optional instrumentation for a single query: a model of its
    candidate ranges, not a trace of the compares. A candidate whose
    occurrence starts inside the text is pruned if samsami2's mask rules
    out its nibble, else one text verification if a prefix is skipped."""

    candidates: int = 0
    text_verifications: int = 0
    pruned: int = 0


@dataclass(eq=False)
class SamsamiIndex:
    """Immutable index over a text: safe to share across threads.

    Two fields are derived on construction and never stored in an index
    file: sa_view, a memoryview of sa whose items read as Python ints,
    and left, the _left_column of sa.

    fences, the fence list of _fences, is filled in by the first search
    and never stored either. samsami and samsami-hash share it: the hash
    narrows inside its k-byte group through the same list. It needs no
    lock: two threads that race on the first search build equal lists,
    and either may be kept. It is a plain attribute, not a
    functools.cached_property: reading __dict__, as that does, makes
    every later attribute read of the index about 45 ns slower on
    CPython 3.11.
    """

    text: bytes
    params: SamplingParams
    sa: np.ndarray = field(repr=False)
    n: int = 0
    sa_view: memoryview = field(init=False, repr=False)
    left: np.ndarray | None = field(init=False, repr=False)
    fences: list[bytes] | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.sa_view = memoryview(self.sa)
        self.left = _left_column(self.text, self.sa)

    @property
    def n_sampled(self) -> int:
        return len(self.sa)


def _left_column(text: bytes, sa: np.ndarray) -> np.ndarray:
    """The left-context column of the 1-based suffix positions sa: the 4
    text bytes before each suffix as one uint32, in sa order, with the
    byte next to the suffix in the top bits and zero bytes before the
    text start. Verification compares the end of a pattern's skipped
    prefix against it in one contiguous scan. It costs 4 bytes of
    memory per suffix."""
    # padded[s:s + 4] holds the 4 bytes before 1-based position s;
    # clipping only matters for stub indexes whose sa outruns text
    padded = bytes(5) + text
    words = np.ndarray((len(padded) - 3,), "<u4", buffer=padded,
                       strides=(1,))
    return words.take(sa, mode="clip")


def build(text: bytes, params: SamplingParams) -> SamsamiIndex:
    """Sample the text's minimizer positions and suffix-sort only them."""
    sampled = sampled_positions(text, params)  # rejects a too-short text
    sa = extract_sampled(text, sampled, params)
    return SamsamiIndex(text=text, params=params, sa=sa, n=len(text))


def suffix_range(idx: SamsamiIndex, seq: bytes) -> tuple[int, int]:
    """Maximal rank interval (first, end) whose suffixes start with seq."""
    if len(seq) == 0:
        raise InvalidParams("empty search string")
    if idx.fences is None:
        idx.fences = _fences(idx.text, idx.sa_view)
    return _prefix_range(idx.text, idx.sa_view, 0, len(idx.sa), seq,
                         idx.fences)


# A fence list holds the first FENCE_WIDTH bytes of every FENCE_STRIDE-th
# sorted suffix, about 3.3 bytes of memory per suffix. 64 bytes cover
# every string perfbench searches (at most 50); with 32, whitespace runs
# in source text tie too many fences.
FENCE_STRIDE = 32
FENCE_WIDTH = 64


def _fences(text: bytes, sa) -> list[bytes]:
    """The fence list of the sorted 1-based positions sa over text."""
    return [text[s - 1:s - 1 + FENCE_WIDTH] for s in sa[::FENCE_STRIDE]]


def _prefix_range(text: bytes, sa, lo: int, hi: int, seq: bytes,
                  fences: list[bytes] | None = None) -> tuple[int, int]:
    """Ranks (first, end) in [lo, hi) of the sorted 1-based positions sa
    whose suffix of text starts with seq, as a plain tuple.

    sa may be any sequence of ints; a memoryview of the numpy array
    makes each probe read a Python int. The lower bound is a binary
    search. The search stops there when the suffix at the lower bound
    does not start with seq, and one read later when the next one does
    not; only a longer answer gallops (+2, +4, +8, ...) and, if the
    gallop overshoots, bisects the last gap, so its cost grows with the
    size of the answer, not of [lo, hi) (Bentley and Yao, "An almost
    optimal algorithm for unbounded searching"). fences, the _fences
    list of sa, lets one keyless bisect narrow the lower bound to one
    stride of ranks first, as the bucket table of Manber and Myers
    ("Suffix arrays: a new method for on-line string searches"). When
    the answer spans a whole stride and seq is no longer than a fence,
    a second keyless bisect, for seq's successor, narrows the upper
    bound to one stride as well, and nothing gallops.
    """
    # A suffix shorter than seq truncates and therefore compares smaller,
    # which is exactly the end-of-text-is-smallest order.
    width = len(seq)

    def head(pos):
        return text[pos - 1:pos - 1 + width]

    start, stop = lo, hi
    if fences is not None:
        # Truncation keeps suffix order: the suffixes up to a fence
        # below key lie below seq, and none from a fence above key
        # does. Nor does any from a fence equal to key when seq is no
        # longer than a fence, since that fence then starts with seq.
        key = seq[:FENCE_WIDTH]
        below = bisect_left(fences, key)
        above = (below if width <= FENCE_WIDTH
                 else bisect_right(fences, key, below))
        start = min(max(lo, (below - 1) * FENCE_STRIDE + 1), hi)
        # stop < start only when the answer is lo, which bisect returns
        stop = min(hi, above * FENCE_STRIDE)
    first = bisect_left(sa, seq, start, stop, key=head)
    if first == hi or head(sa[first]) != seq:
        return first, first
    if first + 1 == hi or head(sa[first + 1]) != seq:
        return first, first + 1
    if (fences is not None and below + 1 < len(fences)
            and fences[below + 1].startswith(seq)):
        # The answer spans a whole stride; a fence, cut to FENCE_WIDTH
        # bytes, never starts with a longer seq. The fences that start
        # with seq end where seq's successor (seq with trailing 0xFF
        # bytes dropped and its last byte raised) would go, so the answer
        # ends inside the stride below that fence, or at hi if lower.
        stem = seq.rstrip(b"\xff")
        upper = (bisect_left(fences, stem[:-1] + bytes([stem[-1] + 1]),
                             below + 2) if stem else len(fences))
        return first, bisect_right(sa, seq,
                                   min((upper - 1) * FENCE_STRIDE + 1, hi),
                                   min(upper * FENCE_STRIDE, hi), key=head)
    known, step = first + 2, 2  # ranks below known start with seq
    while first + step < hi and head(sa[first + step]) == seq:
        known = first + step + 1
        step *= 2
    end = min(first + step, hi)
    if known == end:
        return first, known
    return first, bisect_right(sa, seq, known, end, key=head)


# Ranges with fewer candidates than this are verified one by one, at
# about 0.15 us per candidate, and the kernel finishes fewer survivors
# than this in Python. On 512 KiB of stdlib source (q=40, p=2, m=50; 2
# vCPU, Python 3.11, numpy 2.4), timed on its own, the kernel costs
# about 2.5 us and breaks even with the loop at about 16 candidates.
# That break-even does not carry over to whole queries: entering the
# column kernel from 16 candidates left count p50 as it was and moved
# count p99 from 14.8 to 16.7 us on perfbench's code-phrase patterns and
# from 17.0 to 16.6 us on code-anchor's (16,384 patterns, 4 interleaved
# rounds, best of 4 per pattern); 16 for both entry and finish gave 18.3
# and 20.6 us. One constant serves both.
_VECTOR_MIN_CANDIDATES = 48


def _verify_candidates(text: bytes, sa: memoryview, pattern: bytes, j: int,
                       ranks: tuple[int, int],
                       stats: QueryStats | None = None,
                       left: np.ndarray | None = None) -> list[int]:
    """Occurrence starts of pattern among the suffixes at ranks [lo, hi),
    given as the pair ranks = (lo, hi).

    sa is a memoryview of the sorted 1-based suffix positions, as in
    _prefix_range. The suffix at sa[r] matches pattern[j-1:]; the
    occurrence it stands for starts j-1 bytes earlier, which must lie
    inside the text and agree with the skipped prefix pattern[:j-1].
    left, the _left_column of sa, lets large ranges check the prefix's
    last 4 bytes without touching the text; only j = 1 needs none. The
    result is in rank order. stats gets QueryStats' model of the range.
    """
    lo, hi = ranks
    if lo == hi:
        return []
    shift = j - 1
    if stats is not None:
        stats.candidates += hi - lo
        if shift:
            stats.text_verifications += int(
                np.count_nonzero(np.asarray(sa[lo:hi]) >= j))
    if not shift:  # every candidate is an occurrence
        return sa[lo:hi].tolist()
    if hi - lo >= _VECTOR_MIN_CANDIDATES:
        return _verify_vector(text, sa, pattern, j, lo, hi, left)
    prefix = pattern[:shift]
    out = []
    for s in sa[lo:hi]:
        start = s - shift
        if start >= 1 and text[start - 1:s - 1] == prefix:
            out.append(start)
    return out


def _verify_vector(text, sa, pattern, j, lo, hi, left):
    shift = j - 1
    # Compare the prefix nearest the anchor first, shrinking the set
    # after each step; once few candidates are left, the scalar compare
    # finishes them. The first step reads no scattered text: the
    # left-context column holds up to 4 prefix bytes in sa order, so one
    # contiguous compare leaves few candidates, which are finished in
    # Python before any other array is made. Then 8-byte words come
    # through an in-place view of the text at every offset, or single
    # bytes when the rest of the prefix is shorter than a word.
    tail = min(shift, 4)
    want = int.from_bytes(pattern[shift - tail:shift].rjust(4, b"\0"),
                          "little")
    column = left[lo:hi]
    if tail < 4:  # the low bytes lie before the occurrence: ignore
        column = column & ((0xFFFFFFFF << 8 * (4 - tail)) & 0xFFFFFFFF)
    kept = (column == want).nonzero()[0]
    rest = shift - tail  # pattern[:rest] is still to compare
    if len(kept) < _VECTOR_MIN_CANDIDATES:
        prefix = pattern[:rest]
        out = []
        for r in kept.tolist():
            s = sa[lo + r]  # s >= j: the occurrence starts in the text
            if s >= j and text[s - j:s - j + rest] == prefix:
                out.append(s - shift)
        return out
    anchors = np.asarray(sa[lo:hi])[kept]
    begin = anchors[anchors >= j].astype(np.int64) - j  # starts in text
    if rest >= 8 and len(begin) >= _VECTOR_MIN_CANDIDATES:
        view, width = np.ndarray((len(text) - 7,), "<u8", buffer=text,
                                 strides=(1,)), 8
        steps = (max(off, 0) for off in range(rest - 8, -8, -8))
    else:
        view, width = np.frombuffer(text, dtype=np.uint8), 1
        steps = range(rest - 1, -1, -1)
    for off in steps:
        if len(begin) < _VECTOR_MIN_CANDIDATES:
            prefix = pattern[:rest]
            return [b + 1 for b in begin.tolist()
                    if text[b:b + rest] == prefix]
        want = int.from_bytes(pattern[off:off + width], "little")
        begin = begin[view[begin + off] == want]
    return (begin + 1).tolist()


def _query(idx: SamsamiIndex, pattern: bytes,
           stats: QueryStats | None) -> tuple[int, tuple[int, int], list[int]]:
    """The pattern's q-prefix minimizer offset j, the ranks (first, end)
    of pattern[j-1:] and the occurrence starts among them, in rank order:
    the one search and verification behind samsami and samsami2."""
    q, p = idx.params.q, idx.params.p
    if len(pattern) < q:
        raise PatternTooShort(f"pattern length {len(pattern)} < q={q}")
    j = window_minimizer(pattern[:q], p)
    ranks = suffix_range(idx, pattern[j - 1:])
    return j, ranks, _verify_candidates(idx.text, idx.sa_view, pattern, j,
                                        ranks, stats, idx.left)


def locate(idx: SamsamiIndex, pattern: bytes,
           stats: QueryStats | None = None) -> list[int]:
    """All occurrence positions of pattern in the text, ascending."""
    hits = _query(idx, pattern, stats)[2]
    hits.sort()
    return hits


def count(idx: SamsamiIndex, pattern: bytes,
          stats: QueryStats | None = None) -> int:
    """Number of occurrences of pattern in the text."""
    return len(_query(idx, pattern, stats)[2])
