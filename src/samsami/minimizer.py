"""Lexicographic minimizers of fixed-length windows.

A window of length q has q-p+1 substrings of length p ("p-grams"); its
minimizer is the lexicographically smallest of them, ties resolved in
favor of the leftmost. Sliding the window over a text and collecting the
minimizer positions yields the sampled-position set that the index is
built on. All positions are 1-based; comparisons are unsigned bytewise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, PatternTooShort, TextTooShort

# Below this size the plain deque is faster than setting up numpy arrays.
_VECTOR_MIN_N = 1 << 14


@dataclass(frozen=True)
class SamplingParams:
    """Window length q and minimizer length p, with 1 <= p <= q."""

    q: int
    p: int

    def __post_init__(self):
        if self.p < 1 or self.q < self.p:
            raise InvalidParams(f"need 1 <= p <= q, got q={self.q} p={self.p}")


@dataclass
class SampledPositions:
    """Strictly increasing 1-based minimizer positions of a length-n text."""

    positions: np.ndarray
    n: int

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class PruneMask:
    """Per-pattern verification filter for the delta-annotated variant.

    j is the minimizer offset in the pattern's q-prefix. possible[d] tells,
    for each distance d in 1..min(15, j-1), whether some text alignment
    admits a sampled position at pattern offset j-d. False entries are
    proven mismatches; absent distances carry no information. allowed is
    the same map as a 16-entry tuple of bools indexed by the delta
    nibble, true wherever possible has no false entry.
    """

    j: int
    possible: dict[int, bool]
    allowed: tuple[bool, ...] = field(repr=False, compare=False)


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


def sampled_positions(text: bytes, params: SamplingParams) -> SampledPositions:
    """Collect the minimizer positions of every length-q window of text.

    The result is an ascending set of positions: a window whose minimizer
    string recurred at a new position contributes a new sample, while
    re-selecting the same position does not.
    """
    n = len(text)
    q, p = params.q, params.p
    if n < q:
        raise TextTooShort(f"text length {n} < window length q={q}")
    if n >= _VECTOR_MIN_N and p <= 8:
        positions = _sampled_vectorized(text, q, p)
    else:
        positions = np.asarray(_sampled_deque(text, q, p), dtype=np.uint32)
    return SampledPositions(positions=positions, n=n)


def _sampled_deque(text: bytes, q: int, p: int) -> list[int]:
    # Monotone candidate list: p-grams non-decreasing front to back, so the
    # front is always the leftmost minimum of the live window. Equal grams
    # are kept to preserve the leftmost tie-break.
    out: list[int] = []
    cand: deque[tuple[int, bytes]] = deque()
    width = q - p
    for g in range(1, len(text) - p + 2):
        gram = text[g - 1:g - 1 + p]
        while cand and cand[-1][1] > gram:
            cand.pop()
        cand.append((g, gram))
        w = g - width
        if w >= 1:
            while cand[0][0] < w:
                cand.popleft()
            m = cand[0][0]
            # minimizer positions are non-decreasing window to window
            if not out or out[-1] != m:
                out.append(m)
    return out


def _sampled_vectorized(text: bytes, q: int, p: int) -> np.ndarray:
    # Pack each p-gram and its position into one uint64 so that the sliding
    # minimum picks the leftmost smallest gram; block prefix/suffix minima
    # give every window minimum in O(n) vectorized work.
    arr = np.frombuffer(text, dtype=np.uint8).astype(np.uint64)
    ngrams = len(text) - p + 1
    if p <= 4:
        keys = np.zeros(ngrams, dtype=np.uint64)
        for t in range(p):
            keys = (keys << np.uint64(8)) | arr[t:t + ngrams]
    else:
        raw = np.zeros(ngrams, dtype=np.uint64)
        for t in range(p):
            raw = (raw << np.uint64(8)) | arr[t:t + ngrams]
        # p-grams of 5..8 bytes fill the word; rank-compress to make room
        _, keys = np.unique(raw, return_inverse=True)
        keys = keys.astype(np.uint64)
    packed = (keys << np.uint64(32)) | np.arange(ngrams, dtype=np.uint64)

    window = q - p + 1
    pad = (-ngrams) % window
    if pad:
        packed = np.concatenate(
            [packed, np.full(pad, np.uint64(0xFFFFFFFFFFFFFFFF))])
    blocks = packed.reshape(-1, window)
    left = np.minimum.accumulate(blocks, axis=1).ravel()
    right = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    nwin = ngrams - window + 1
    mins = np.minimum(right[:nwin], left[window - 1:window - 1 + nwin])
    positions = np.unique(mins & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    return positions + np.uint32(1)


def prune_mask(pattern: bytes, params: SamplingParams,
               j: int | None = None) -> PruneMask:
    """Precompute which predecessor distances are feasible for a pattern.

    With the pattern's q-prefix minimizer at offset j, a candidate text
    alignment may show a sampled position d places earlier, at pattern
    offset g = j-d. That offset can only be sampled by a window hanging
    over the left pattern edge (any window fully inside the prefix also
    covers j's p-gram, which beats g's). Such a window ends between
    g+p-1 and j+p-2, so it starts at or before offset 0 (j <= q-p+1) and
    covers every fully-known p-gram left of g; the shortest one covers
    none right of g. g's p-gram therefore survives exactly when it is
    smaller than every p-gram before it (ties go to the leftmost), and
    one running minimum from the left settles every distance.

    A caller that has already computed j, the q-prefix minimizer, may
    pass it to skip the second computation.
    """
    q, p = params.q, params.p
    if len(pattern) < q:
        raise PatternTooShort(f"pattern length {len(pattern)} < q={q}")
    if j is None:
        j = window_minimizer(pattern[:q], p)
    possible: dict[int, bool] = {}
    allowed = [True] * 16
    # Only offsets within 15 of j fit a delta nibble; the p-grams left of
    # them matter only through their minimum.
    first = max(1, j - 15)
    low = None
    if first > 1:
        at = _leftmost_smallest(pattern, p, first - 1)
        low = pattern[at:at + p]
    for g in range(first, j):
        gram = pattern[g - 1:g - 1 + p]
        feasible = low is None or gram < low
        if feasible:
            low = gram
        possible[j - g] = allowed[j - g] = feasible
    return PruneMask(j=j, possible=possible, allowed=tuple(allowed))
