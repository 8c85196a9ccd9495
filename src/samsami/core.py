"""The basic sampled-suffix-array index.

Construction samples one suffix per window (the window's minimizer
position) and keeps those suffixes in lexicographic order. A pattern of
length m >= q is located with a single binary search for its suffix
starting at the q-prefix minimizer, followed by verification of the
skipped prefix symbols against the text.

Every suffix search reads a SortedSuffixes: this index, baselines'
suffix arrays and the phrase stream's codeword starts share its
first-search step (prepare), range search (_prefix_range) and kernel
(_verify_candidates), and differ in the suffixes they keep and the
pattern offsets they anchor at.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (CorruptIndex, InvalidParams, PatternTooShort,
                     SamsamiError)
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
class SortedSuffixes:
    """The 1-based starts sa of suffixes of text (n bytes), in suffix
    order, and three fields derived from them that no file stores:
    sa_view, a memoryview of sa whose items read as Python ints; fences,
    the _fences of sa, built by prepare; and left, the _left_column of
    sa, built by its one reader, the kernel, on its first range of
    _VECTOR_MIN_CANDIDATES or more that skips a prefix. They are plain
    attributes, not functools.cached_property:
    reading __dict__, as that does, makes every later attribute read
    about 45 ns slower on CPython 3.11.
    """

    text: bytes
    sa: np.ndarray | None = field(repr=False)
    n: int = 0
    sa_view: memoryview | None = field(init=False, repr=False, default=None)
    fences: list[bytes] | None = field(init=False, repr=False, default=None)
    left: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.sa is not None:
            self.sa_view = memoryview(self.sa)


@dataclass(eq=False, kw_only=True)
class SamsamiIndex(SortedSuffixes):
    """Immutable index over a text: safe to share across threads.

    An index loaded from a file that holds no offsets has sa None and
    its sampled positions, ascending, in ascending. prepare sorts them
    into sa and sa_view, so an index that never searches never sorts;
    until then suffix_sa refuses it. samsami and samsami-hash share the
    fences: the hash narrows inside its k-byte group through them.
    """

    params: SamplingParams
    ascending: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_sampled(self) -> int:
        return len(self.ascending if self.sa is None else self.sa)


def suffix_sa(idx: SamsamiIndex) -> np.ndarray:
    """idx.sa, or SamsamiError while the index holds its samples unsorted."""
    if idx.sa is None:
        raise SamsamiError("the index sorts its samples on its first "
                           "search and has not searched yet")
    return idx.sa


def prepare(col: SortedSuffixes) -> None:
    """The first search's step: build col's fence list, once. A
    SamsamiIndex loaded without offsets (sa None) sorts its samples
    first; they are guarded by the file's crc32 alone and
    extract_sampled sorts only the text's minimizer positions, so they
    must equal the positions sampled from the text. No lock is needed:
    threads that race here build equal values, either may be kept, and
    sa is set after sa_view, and fences last, so no reader finds what
    they imply missing.
    """
    if col.fences is not None:
        return
    if col.sa is None:
        sampled = sampled_positions(col.text, col.params)
        if not np.array_equal(sampled, col.ascending):
            raise CorruptIndex("the loaded samples differ from the text's "
                               "minimizer positions")
        sa = extract_sampled(col.text, sampled, col.params)
        col.sa_view = memoryview(sa)
        col.sa = sa
    col.fences = _fences(col.text, col.sa_view)


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


# positional arguments and a dtype object: ndarray's keywords and a dtype
# string cost about 1 us per call
_BIG_U8 = np.dtype(">u8")


def _heads(text: bytes, sa: np.ndarray) -> np.ndarray:
    """The 8 text bytes from each 1-based position in sa on, zero-padded
    at the text end, as one big-endian number each (native uint64)."""
    # words[s] packs text[s-1:s+7], so the 1-based sa indexes it as is;
    # one gather, then its bytes are swapped in place to native
    words = np.ndarray((len(text) + 1,), _BIG_U8,
                       bytes(1) + text + bytes(7), 0, (1,))
    heads = words[sa].byteswap(inplace=True)
    return heads.view(heads.dtype.newbyteorder())


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
        prepare(idx)
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
        # Comparisons, not min() and max(): every fenced search clamps,
        # and the three builtin calls took 0.43 us against 0.08 us for
        # these comparisons (timeit, CPython 3.11.7, 2 vCPU), beside a
        # whole samsami count of about 5 us.
        start = (below - 1) * FENCE_STRIDE + 1
        start = lo if start < lo else hi if start > hi else start
        # stop < start only when the answer is lo, which bisect returns
        stop = above * FENCE_STRIDE
        stop = stop if stop < hi else hi
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
        start, stop = (upper - 1) * FENCE_STRIDE + 1, upper * FENCE_STRIDE
        return first, bisect_right(sa, seq, start if start < hi else hi,
                                   stop if stop < hi else hi, key=head)
    known, step = first + 2, 2  # ranks below known start with seq
    while first + step < hi and head(sa[first + step]) == seq:
        known = first + step + 1
        step *= 2
    end = first + step if first + step < hi else hi
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
# and 20.6 us. One constant serves both, and the phrase variant's
# codeword ranges too: on 4,000 of perfbench's code-phrase patterns
# (q=8, p=2, m=32, best of 4 per pattern) thresholds of 16, 32, 48, 64
# and 128 gave phrase locate means of 15.9, 15.4, 15.2, 15.2 and 15.0
# us and p50s of 13.4-13.8 us.
_VECTOR_MIN_CANDIDATES = 48


def _verify_candidates(col: SortedSuffixes, pattern: bytes, j: int,
                       ranks: tuple[int, int],
                       stats: QueryStats | None) -> list[int]:
    """Occurrence starts of pattern among col's suffixes at ranks [lo, hi),
    given as the pair ranks = (lo, hi).

    The suffix at col.sa[r] matches pattern[j-1:]; the occurrence it
    stands for starts j-1 bytes earlier, which must lie inside the text
    and agree with the skipped prefix pattern[:j-1]. A large range
    checks the prefix's last 4 bytes against col.left first, which the
    first such range builds; only j = 1 needs no check. The result is
    in rank order. stats gets QueryStats' model of the range.
    """
    lo, hi = ranks
    if lo == hi:
        return []
    sa = col.sa_view
    shift = j - 1
    if stats is not None:
        stats.candidates += hi - lo
        if shift:
            stats.text_verifications += int(
                np.count_nonzero(np.asarray(sa[lo:hi]) >= j))
    if not shift:  # every candidate is an occurrence
        return sa[lo:hi].tolist()
    if hi - lo >= _VECTOR_MIN_CANDIDATES:
        return _verify_vector(col, pattern, j, lo, hi)
    text, prefix = col.text, pattern[:shift]
    out = []
    for s in sa[lo:hi]:
        start = s - shift
        if start >= 1 and text[start - 1:s - 1] == prefix:
            out.append(start)
    return out


def _verify_vector(col, pattern, j, lo, hi):
    text, sa, left = col.text, col.sa_view, col.left
    if left is None:  # threads that race here build equal columns
        left = col.left = _left_column(text, col.sa)
    shift = j - 1
    # Compare the prefix nearest the anchor first. The first step reads
    # no scattered text: the left-context column holds up to 4 prefix
    # bytes in sa order, so one contiguous compare leaves few
    # candidates, which are finished in Python before any other array
    # is made. _text_matches compares the rest.
    tail = shift if shift < 4 else 4
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
    return _text_matches(text, begin, pattern[:rest])


def _text_matches(text: bytes, begin: np.ndarray, prefix: bytes) -> list[int]:
    """The 0-based starts b in begin, int64, where text holds prefix, as
    the 1-based positions b + 1 in begin's order. Every b + len(prefix)
    must be at most len(text).

    The prefix is compared from its end, shrinking the set after each
    step, in 8-byte words through an in-place view of the text at every
    offset, or single bytes when the prefix is shorter than a word. Once
    fewer than _VECTOR_MIN_CANDIDATES are left, a scalar compare finishes
    them.
    """
    rest = len(prefix)
    if rest >= 8 and len(begin) >= _VECTOR_MIN_CANDIDATES:
        view, width = np.ndarray((len(text) - 7,), "<u8", buffer=text,
                                 strides=(1,)), 8
        steps = (*range(rest - 8, 0, -8), 0)  # the last word overlaps
    else:
        view, width = np.frombuffer(text, dtype=np.uint8), 1
        steps = range(rest - 1, -1, -1)
    for off in steps:
        if len(begin) < _VECTOR_MIN_CANDIDATES:
            return [b + 1 for b in begin.tolist()
                    if text[b:b + rest] == prefix]
        want = int.from_bytes(prefix[off:off + width], "little")
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
    return j, ranks, _verify_candidates(idx, pattern, j, ranks, stats)


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
