"""Lexicographic minimizers of fixed-length windows.

A window of length q has q-p+1 substrings of length p ("p-grams"); its
minimizer is the lexicographically smallest of them, ties resolved in
favor of the leftmost. Sliding the window over a text and collecting the
minimizer positions yields the sampled-position set that the index is
built on. All positions are 1-based; comparisons are unsigned bytewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, PatternTooShort, TextTooShort


@dataclass(frozen=True)
class SamplingParams:
    """Window length q and minimizer length p, with 1 <= p <= q."""

    q: int
    p: int

    def __post_init__(self):
        if self.p < 1 or self.q < self.p:
            raise InvalidParams(f"need 1 <= p <= q, got q={self.q} p={self.p}")


def window_minimizer(s: bytes, p: int) -> int:
    """Return the 1-based start of the leftmost smallest p-gram of s."""
    if p < 1:
        raise InvalidParams(f"p must be >= 1, got {p}")
    if len(s) < p:
        raise InvalidParams(f"window of length {len(s)} has no {p}-gram")
    return _leftmost_smallest(s, p, len(s) - p + 1) + 1


def _leftmost_smallest(s: bytes, p: int, starts: int) -> int:
    # 0-based start of the leftmost smallest p-gram among the first
    # `starts` ones. The smallest p-gram begins with the smallest byte
    # that can start one, so only that byte's occurrences are compared,
    # and min() and find() scan the bytes at C speed.
    low = min(s[:starts])
    best = s.find(low, 0, starts)
    if p == 1:
        return best
    best_gram = s[best:best + p]
    at = s.find(low, best + 1, starts)
    while at >= 0:
        gram = s[at:at + p]
        if gram < best_gram:
            best, best_gram = at, gram
        at = s.find(low, at + 1, starts)
    return best


# windows sampled per step: a step's temporaries are a few arrays of
# this many words (128 KiB each), whatever the text's length. Against
# 1 << 16, the 512 KiB perfbench texts sample about 0.8 ms slower at
# q=40 and the dna-search process peaks about 2 MiB lower.
_SAMPLE_BLOCK = 1 << 14


def sampled_positions(text: bytes, params: SamplingParams) -> np.ndarray:
    """Collect the minimizer positions of every length-q window of text.

    The result is an ascending uint32 array of 1-based positions: a
    window whose minimizer string recurred at a new position contributes
    a new sample, while re-selecting the same position does not. The
    windows are taken _SAMPLE_BLOCK at a time, each block keying only
    the grams it covers, so the temporaries do not grow with the text.
    """
    n = len(text)
    q, p = params.q, params.p
    if n < q:
        raise TextTooShort(f"text length {n} < window length q={q}")
    nwin = n - q + 1
    view = memoryview(text)
    blocks = []
    last = -1  # 0-based minimizer of the window before the block
    for lo in range(0, nwin, _SAMPLE_BLOCK):
        count = min(_SAMPLE_BLOCK, nwin - lo)
        at = _window_minima(view[lo:lo + count + q - 1], p, q - p + 1, count)
        at += np.uint32(lo)
        # window minimizers never move left, so a repeat is the one
        # before; positions, not keys, since a block ranks its own grams
        keep = np.empty(count, dtype=bool)
        keep[0] = int(at[0]) != last
        np.not_equal(at[1:], at[:-1], out=keep[1:])
        last = int(at[-1])
        at = at[keep]
        at += np.uint32(1)
        blocks.append(at)
    return np.concatenate(blocks)


def _window_minima(text, p: int, w: int, count: int) -> np.ndarray:
    # 0-based start of the leftmost smallest p-gram of each of the first
    # count windows of w grams in text, as uint32. Each gram's key and
    # its position are packed into one uint64, so the minimum of the
    # words is the leftmost smallest gram. Doubling in place leaves
    # mins[i] the minimum of the h words from i on, for the largest
    # power of two h <= w; a window is covered by the two such spans at
    # its start and ending at its end.
    ngrams = count + w - 1
    mins = _gram_keys(text, p, ngrams)
    mins <<= np.uint64(32)
    mins |= np.arange(ngrams, dtype=np.uint64)
    h = 1
    while 2 * h <= w:
        top = ngrams - 2 * h + 1  # words that now cover 2h grams
        np.minimum(mins[:top], mins[h:h + top], out=mins[:top])
        h *= 2
    win = mins[:count]
    np.minimum(win, mins[w - h:w - h + count], out=win)
    return win.astype(np.uint32)  # the position's bits


def _gram_keys(text: bytes, p: int, count: int) -> np.ndarray:
    # Keys below 2**32, ordered and tied as the p-grams that start at
    # text[0..count) compare bytewise (count + p - 1 <= len(text)). The
    # first min(p, 8) bytes of each gram are packed into one word: the
    # packed bytes are the key when p <= 4, else their dense rank. Longer
    # grams are ranked by doubling (Karp, Miller and Rosenberg): for
    # s <= h the h-grams at i and i+s cover the (h+s)-gram at i, so the
    # rank of their pair of keys orders it.
    arr = np.frombuffer(text, dtype=np.uint8)
    h = min(p, 8)
    total = count + p - h  # h-grams whose keys the doubling reads
    keys = np.zeros(total, dtype=np.uint64)
    for t in range(h):
        keys <<= np.uint64(8)
        keys |= arr[t:t + total]
    if p > 4:
        keys = _ranks(keys)
    while h < p:
        s = min(h, p - h)
        total -= s
        pairs = keys[:total] << np.uint64(32)
        pairs |= keys[s:s + total]
        keys = _ranks(pairs)
        h += s
    return keys


def _ranks(words: np.ndarray) -> np.ndarray:
    # dense 0-based rank of each word among the distinct words: one sort,
    # then the number of changes between neighbours up to each word
    order = np.argsort(words)
    ordered = words[order]
    rank = np.zeros(len(words), dtype=np.uint64)
    np.not_equal(ordered[1:], ordered[:-1], out=rank[1:])
    del ordered
    np.cumsum(rank, out=rank)
    out = np.empty_like(rank)
    out[order] = rank
    return out


def prune_mask(pattern: bytes, params: SamplingParams,
               j: int | None = None) -> np.ndarray:
    """The pattern's prune mask: a bool array indexed by the delta nibble
    (0..15), False where a candidate carrying that nibble is a proven
    mismatch.

    With the pattern's q-prefix minimizer at offset j, a candidate text
    alignment may show a sampled position d places earlier, at pattern
    offset g = j-d. That offset can only be sampled by a window hanging
    over the left pattern edge (any window fully inside the prefix also
    covers j's p-gram, which beats g's). Such a window ends between
    g+p-1 and j+p-2, so it starts at or before offset 0 (j <= q-p+1) and
    covers every fully-known p-gram left of g; the shortest one covers
    none right of g. g's p-gram therefore survives exactly when it is
    smaller than every p-gram before it (ties go to the leftmost): when
    it is a prefix-minimum record, the leftmost smallest of the first
    j-d p-grams. d = 0 (no recorded predecessor) and d >= j (no pattern
    offset to test) stay True.

    A caller that has already computed j, the q-prefix minimizer, may
    pass it to skip the second computation.
    """
    q, p = params.q, params.p
    if len(pattern) < q:
        raise PatternTooShort(f"pattern length {len(pattern)} < q={q}")
    if j is None:
        j = window_minimizer(pattern[:q], p)
    out = np.ones(16, dtype=bool)
    out[1:j] = False
    # The leftmost smallest of the first j-1 p-grams is the nearest
    # record left of j, and the leftmost smallest of the grams before a
    # record is the next one; only records within 15 of j fit a nibble.
    starts = j - 1
    while starts:
        g = _leftmost_smallest(pattern, p, starts) + 1
        if j - g > 15:
            break
        out[j - g] = True
        starts = g - 1
    return out
