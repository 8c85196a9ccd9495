"""Reference searchers: naive scan and the sparse suffix array.

The naive scan is the ground-truth oracle every index variant is checked
against. The sparse suffix array keeps every step-th suffix and needs up to step
binary searches per query; with step 1 it degenerates to a plain suffix
array search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import QueryStats, _prefix_range, _verify_candidates
from .errors import InvalidParams, PatternTooShort
from .suffix_sort import build_full_sa, sort_starts


def naive_locate(text: bytes, pattern: bytes) -> list[int]:
    """Direct scan for all (overlapping) occurrences, 1-based."""
    if len(pattern) == 0:
        raise InvalidParams("empty pattern")
    out = []
    hit = text.find(pattern)
    while hit != -1:
        out.append(hit + 1)
        hit = text.find(pattern, hit + 1)
    return out


def naive_count(text: bytes, pattern: bytes) -> int:
    return len(naive_locate(text, pattern))


@dataclass(eq=False)
class SparseSuffixArray:
    """Suffixes at positions 1, 1+step, 1+2*step, ... in suffix order."""

    text: bytes
    step: int
    sa: np.ndarray = field(repr=False)
    n: int = 0
    sa_view: memoryview = field(init=False, repr=False)

    def __post_init__(self):
        self.sa_view = memoryview(self.sa)  # items read as Python ints


def spasa_build(text: bytes, step: int) -> SparseSuffixArray:
    """Suffix-sort only every step-th suffix; step 1 is the plain suffix
    array."""
    n = len(text)
    if not 1 <= step <= n:
        raise InvalidParams(f"need 1 <= step <= {n}, got {step}")
    if step == 1:
        sa = build_full_sa(text)
    else:
        starts = np.arange(1, n + 1, step, dtype=np.uint32)
        sa = sort_starts(text, starts, 0, 0, step)
    return SparseSuffixArray(text=text, step=step, sa=sa, n=n)


def spasa_locate(spasa: SparseSuffixArray, pattern: bytes,
                 stats: QueryStats | None = None) -> list[int]:
    """One search per alignment offset, each verified against the text.

    Every occurrence is reachable through exactly one offset (the one
    aligning its window to a sampled position), so no deduplication is
    needed.
    """
    m = len(pattern)
    if m < spasa.step:
        raise PatternTooShort(f"pattern length {m} < step {spasa.step}")
    text, sa = spasa.text, spasa.sa_view
    out = []
    for off in range(1, spasa.step + 1):
        ranks = _prefix_range(text, sa, 0, len(sa), pattern[off - 1:])
        out += _verify_candidates(text, sa, pattern, off, ranks, stats=stats)
    out.sort()
    return out


def spasa_count(spasa: SparseSuffixArray, pattern: bytes,
                stats: QueryStats | None = None) -> int:
    return len(spasa_locate(spasa, pattern, stats))
