"""Reference searchers: naive scan and the sparse suffix array.

The naive scan is the ground-truth oracle every index variant is checked
against. The sparse suffix array keeps every step-th suffix, so a query
has step alignments to search. One numpy searchsorted over the kept
suffixes' first 8 bytes bounds all of them at once. A non-empty bound of
a few suffixes is checked against the whole pattern suffix by suffix;
only a wider one is narrowed by a binary search and then verified. With
step 1 it is a plain suffix array, searched once through the fence list
as samsami is. Both are core.SortedSuffixes, so they share samsami's
first-search step, range search and verification kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (_BIG_U8, QueryStats, SortedSuffixes, _heads,
                   _prefix_range, _verify_candidates, prepare)
from .errors import InvalidParams, PatternTooShort
from .suffix_sort import build_full_sa, sort_starts

# Head bounds of fewer suffixes than this are checked against the whole
# pattern at each suffix, at about 0.15 us apiece, instead of paying for
# a keyed binary search first. On perfbench's step-8 patterns (8,192,
# seed 1) 28% / 56% / 28% of the non-empty bounds hold one suffix, 38% /
# 44% / 38% hold 2-15 and 35% / 0% / 34% hold 16 or more (code-anchor /
# dna-search / code-phrase; on DNA none holds more than 8). Timed in one
# process (8,192 patterns, 8 interleaved rounds, best per pattern; 2
# vCPU, Python 3.11, numpy 2.4), thresholds of 8, 16, 32 and 48 gave
# spasa count p50s of 9.17, 8.79, 8.95 and 8.92 us on code-anchor, where
# checking only one-suffix bounds directly gave 11.17, and p99s of 33.3,
# 31.3, 32.2 and 44.8 us; dna-search's p50 fell from 9.56 to 8.0-8.3 us
# at every threshold.
_NARROW_MIN_SUFFIXES = 16


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


@dataclass(eq=False, kw_only=True)
class SparseSuffixArray(SortedSuffixes):
    """Suffixes at positions 1, 1+step, 1+2*step, ... in suffix order.
    For step > 1 the first search fills in heads: each kept suffix's
    first 8 bytes, zero-padded at the text end, as a big-endian number."""

    step: int
    heads: np.ndarray | None = field(init=False, repr=False, default=None)


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
    """One rank range per alignment offset, each verified against the
    text.

    Every occurrence is reachable through exactly one offset (the one
    aligning its window to a sampled position), so no deduplication is
    needed. For step > 1, heads is non-decreasing in suffix order: zero
    padding packs a proper prefix no higher than its extensions. So the
    suffixes that start with seq = pattern[off-1:] lie between the
    searchsorted bounds of seq[:8] padded with 0x00 and with 0xFF (equal
    once seq has 8 bytes), and two calls bound every offset at once.
    A non-empty bound of fewer than _NARROW_MIN_SUFFIXES suffixes is
    answered directly: the occurrence a kept suffix s stands for starts
    at 0-based s - off, and is checked whole against the text. A wider
    bound is narrowed to the exact range of seq and then verified.
    """
    m = len(pattern)
    text, sa, step = spasa.text, spasa.sa_view, spasa.step
    if m < step:
        raise PatternTooShort(f"pattern length {m} < step {step}")
    if step == 1:  # one search: the fence bisect beats numpy's call cost
        if spasa.fences is None:
            prepare(spasa)
        hits = _verify_candidates(spasa, pattern, 1, _prefix_range(
            text, sa, 0, len(sa), pattern, spasa.fences), stats)
        hits.sort()
        return hits
    if spasa.heads is None:
        spasa.heads = _heads(text, spasa.sa)
    # row 0 packs each seq[:8] padded with 0x00, row 1 padded with 0xFF
    keys = np.ndarray((2, step), _BIG_U8, pattern + bytes(7) + pattern
                      + b"\xff" * 7, 0, (m + 7, 1)).astype(np.uint64)
    los = spasa.heads.searchsorted(keys[0]).tolist()
    his = spasa.heads.searchsorted(keys[1], "right").tolist()
    out = []
    for off, lo, hi in zip(range(1, step + 1), los, his):
        if lo == hi:  # an empty range adds nothing to stats
            continue
        if hi - lo < _NARROW_MIN_SUFFIXES:
            for s in sa[lo:hi]:  # the whole pattern, at each suffix
                b = s - off
                if b >= 0 and text[b:b + m] == pattern:
                    out.append(b + 1)
            if stats is not None:  # _verify_candidates' model of the range
                seq = pattern[off - 1:]
                for s in sa[lo:hi]:
                    if text[s - 1:s - 1 + len(seq)] == seq:
                        stats.candidates += 1
                        stats.text_verifications += off > 1 and s >= off
            continue
        ranks = _prefix_range(text, sa, lo, hi, pattern[off - 1:])
        out += _verify_candidates(spasa, pattern, off, ranks, stats)
    out.sort()
    return out


def spasa_count(spasa: SparseSuffixArray, pattern: bytes,
                stats: QueryStats | None = None) -> int:
    return len(spasa_locate(spasa, pattern, stats))
