"""Suffix sorting of a set of suffix starts that has a cover.

Suffix order uses an implicit end-of-text sentinel smaller than every
byte, so a suffix that is a prefix of another sorts first. The same
convention drives the binary-search comparators in the index modules.

One routine, sort_starts, sorts any ascending set of starts, and only
those: the full suffix array, a sparse array's every step-th suffix and
the minimizer samples of an index are three covers of it. It is prefix
doubling that re-sorts only tied groups, after Larsson and Sadakane
("Faster suffix sorting"). Bytes are ranked 1..σ (0 stands for past the
end) and as many ranked symbols as fit 63 bits are packed into one key
per start, so a single argsort orders the starts by their first
63 // σ.bit_length() symbols: 9 on source text, 21 on DNA. Groups that
split into singletons are final and drop out of later rounds.

Plain doubling keys a tied suffix s, whose first h symbols are known,
by the rank of s+h; that needs s+h to be sorted too, so it sorts every
suffix. A cover (lead, margin, gap) is what lets a sparse set double,
as a difference-cover sample does (Burkhardt and Kärkkäinen, "Fast
lightweight suffix array construction and checking"). With 0-based
positions, a text of n symbols and its end n counted as a start:

- every run of gap consecutive positions that ends at or before
  n-margin holds a start;
- for a suffix s of at least h symbols, whether s+d is a start, for
  lead <= d <= h-margin, depends only on the first h symbols of s.

Every suffix is the cover (0, 0, 1), which build_full_sa sorts, and
every step-th the cover (0, 0, step), which baselines.spasa_build
sorts. Minimizer samples with windows of q bytes and p-grams are the
cover (w-1, q, w), w = q-p+1, which extract_sampled(text, positions,
params) sorts: every window of w gram starts holds a sample, and a
position d >= w-1 places into s is selected only by windows that start
inside s, which end within h when d <= h-q.

Once h reaches h0 = max(lead, 1) + margin + gap - 1, the run of gap
positions ending at s+h-margin lies in s's determined range, so the
last start at or before s+h-margin is s+δ with the same δ for every
member of a tied group, and δ >= h-margin-gap+1 > 0. Keying s by
(rank(s), rank(s+δ)) orders it by δ+h symbols, so h grows to
2h-margin-gap+1. Before h0, tied groups are re-sorted by the next
packed symbols. A tied suffix never ends within h, since its h symbols
would hold the end marker, which no other suffix has at the same
place; the end of the text ranks below every start.

On 2 vCPUs with Python 3.11 and numpy 2.4, 512 KiB of stdlib source
sorts in full in 0.11-0.15 s, its q=40, p=2 samples (12% of the
suffixes) in 0.03-0.04 s and every eighth suffix in 0.02 s. On a unary
text nearly every suffix is a sample and stays tied, and the q=40
samples take 1.2 times as long as the full sort.
"""

from __future__ import annotations

import numpy as np

from .errors import TextTooShort
from .minimizer import SamplingParams


def build_full_sa(text: bytes) -> np.ndarray:
    """All 1-based suffix starts of text in suffix order, as uint32."""
    if len(text) == 0:
        raise TextTooShort("cannot build a suffix array of an empty text")
    sa = _suffix_order(text, None, 0, 0, 1)
    sa += 1
    return sa.view(np.uint32)


def extract_sampled(text: bytes, positions: np.ndarray,
                    params: SamplingParams) -> np.ndarray:
    """The suffixes of text that start at positions, in suffix order.

    positions are the 1-based starts that sampled_positions(text,
    params) returned, which the minimizer cover (w-1, q, w) sorts.
    """
    w = params.q - params.p + 1
    return sort_starts(text, positions, w - 1, params.q, w)


def sort_starts(text: bytes, starts: np.ndarray, lead: int, margin: int,
                gap: int) -> np.ndarray:
    """The 1-based ascending starts, a set with the cover (lead, margin,
    gap) described above, reordered into suffix order as uint32."""
    order = _suffix_order(text, starts.astype(np.int32) - 1, lead, margin,
                          gap)
    return starts[order].astype(np.uint32, copy=False)


def _suffix_order(text: bytes, pos: np.ndarray | None, lead: int,
                  margin: int, gap: int) -> np.ndarray:
    """Indexes into the ascending 0-based starts pos in suffix order, as
    int32. pos None stands for every position, each its own index, so
    that no index maps are built."""
    n = len(text)
    every = pos is None
    count = n if every else len(pos)
    symbols = np.frombuffer(text, dtype=np.uint8)
    present = np.zeros(256, dtype=bool)
    present[symbols] = True
    bits = int(np.count_nonzero(present)).bit_length()
    width = 63 // bits
    # packed[x]: the width symbols from 0-based x on, bits apiece and the
    # first highest, for every x in [0, n]
    padded = np.zeros(n + width, dtype=np.int16)
    padded[:n] = np.cumsum(present, dtype=np.int16)[symbols]
    packed = np.zeros(n + 1, dtype=np.int64)
    for t in range(width):
        packed <<= bits
        packed |= padded[t:t + n + 1]
    del padded

    key = packed[:n] if every else packed[pos]
    sa = np.argsort(key).astype(np.int32)
    head = _group_heads(key[sa])
    del key
    # sa: indexes into pos in suffix order. idx: the sa slots of every
    # start still in a tied group, ascending; head: which of them start a
    # group. rank[i] is the first sa slot of start i's group, so groups
    # keep their relative order as they split; rank[count] stands for
    # the end of the text.
    idx = np.arange(count, dtype=np.int32)
    rank = np.empty(count + 1, dtype=np.int32)
    rank[count] = -1
    h = width
    doubling_from = max(lead, 1) + margin + gap - 1
    more = (63 - count.bit_length()) // bits  # symbols that fit by a rank
    last = None
    while True:
        if h >= doubling_from:
            packed = None  # only the packed rounds read it
        rank[sa[idx]] = np.maximum.accumulate(np.where(head, idx, 0))
        tied = ~head
        tied[:-1] |= ~head[1:]
        idx = idx[tied]
        if len(idx) == 0:
            return sa
        own = sa[idx]
        s = own if every else pos[own]
        key = rank[own].astype(np.int64)
        if h < doubling_from:
            key <<= more * bits
            key |= packed[s + h] >> (width - more) * bits
            h += more
        else:
            at = s + (h - margin)
            if not every:
                if last is None:
                    last = _last_start(pos, n)
                at = last[at]
            later = rank[at]
            del at
            later += 1
            key *= count + 1
            key += later
            del later
            h = 2 * h - margin - gap + 1
        # Each temporary is as long as the tied set; dropping them before
        # the argsort keeps the peak down.
        del s
        order = np.argsort(key)
        sa[idx] = own[order]
        del own
        head = _group_heads(key[order])


def _last_start(pos: np.ndarray, n: int) -> np.ndarray:
    """For each 0-based x in [0, n], the index in pos of the last start
    at or before x; n itself, the end of the text, maps to len(pos)."""
    last = np.zeros(n + 1, dtype=np.int32)
    last[pos] = np.arange(len(pos), dtype=np.int32)
    last[n] = len(pos)
    return np.maximum.accumulate(last, out=last)


def _group_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a key differs from the one before it."""
    head = np.empty(len(sorted_keys), dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head
