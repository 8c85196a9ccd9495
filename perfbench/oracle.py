"""Answers and properties the benchmark checks the index against.

The oracle does not use any samsami code: it hashes every length-m
window of the text with a polynomial hash, sorts the hashes once, and
confirms each hash hit by comparing the text bytes, so collisions can
never produce a wrong answer.
"""

from __future__ import annotations

import numpy as np

_BASE = 0x100000001B3
_MASK = (1 << 64) - 1


class WindowOracle:
    """Exact occurrence lists for patterns of one fixed length m."""

    def __init__(self, text: bytes, m: int):
        self.text = text
        self.m = m
        codes = np.frombuffer(text, dtype=np.uint8).astype(np.uint64)
        nwin = len(text) - m + 1
        hashes = np.zeros(nwin, dtype=np.uint64)
        base = np.uint64(_BASE)
        for t in range(m):
            # uint64 arithmetic wraps, matching the & _MASK of _hash
            hashes = hashes * base + codes[t:t + nwin]
        self._order = np.argsort(hashes, kind="stable")
        self._sorted = hashes[self._order]

    def positions(self, pattern: bytes) -> list[int]:
        """Ascending 1-based starts of every occurrence of pattern."""
        if len(pattern) != self.m:
            raise ValueError(f"oracle built for length {self.m}, got {len(pattern)}")
        key = np.uint64(_hash(pattern))
        lo = int(np.searchsorted(self._sorted, key, side="left"))
        hi = int(np.searchsorted(self._sorted, key, side="right"))
        text, m = self.text, self.m
        # the stable sort keeps equal hashes in ascending position order
        return [int(s) + 1 for s in self._order[lo:hi]
                if text[int(s):int(s) + m] == pattern]


def _hash(data: bytes) -> int:
    h = 0
    for b in data:
        h = (h * _BASE + b) & _MASK
    return h


def sorted_at_ranks(text: bytes, sa, ranks) -> int:
    """Count adjacent rank pairs (r, r+1) whose suffixes are out of order.

    A suffix that is a proper prefix of another sorts first, which is
    exactly how Python compares the two byte strings.
    """
    bad = 0
    for r in ranks:
        a, b = int(sa[r]), int(sa[r + 1])
        if not text[a - 1:] < text[b - 1:]:
            bad += 1
    return bad


def gaps_within_window(positions, q: int, p: int) -> bool:
    """Consecutive sampled positions are at most q-p+1 apart."""
    ordered = np.sort(np.asarray(positions, dtype=np.int64))
    return len(ordered) > 0 and int(np.diff(ordered).max(initial=0)) <= q - p + 1
