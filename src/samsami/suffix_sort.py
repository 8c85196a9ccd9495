"""Full suffix array construction and extraction of sampled entries.

Suffix order uses an implicit end-of-text sentinel smaller than every
byte, so a suffix that is a prefix of another sorts first. The same
convention drives the binary-search comparators in the index modules.

The sort is prefix doubling that re-sorts only tied groups, after
Larsson and Sadakane ("Faster suffix sorting"). Bytes are ranked 1..σ
(0 stands for past the end) and as many ranked symbols as fit 63 bits
are packed into one integer key per suffix, so a single argsort orders
every suffix by its first 63 // σ.bit_length() symbols: 9 on source
text, 21 on DNA. Each later round doubles the sorted prefix length h,
but sorts only the suffixes whose group is still tied, keyed by their
group and the rank of the suffix h places on; groups that split into
singletons are final and drop out. There are at most
log2(n / width) rounds, rounded up, and only long repeats keep many
suffixes tied for many of them.
"""

from __future__ import annotations

import numpy as np

from .errors import TextTooShort


def build_full_sa(text: bytes) -> np.ndarray:
    """All 1-based suffix starts of text in suffix order, as uint32
    (packed keys, then tied groups only)."""
    if len(text) == 0:
        raise TextTooShort("cannot build a suffix array of an empty text")
    order = _doubling_sort(text)
    return (order + 1).astype(np.uint32)


def _group_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a key differs from the one before it."""
    head = np.empty(len(sorted_keys), dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


def _doubling_sort(text: bytes) -> np.ndarray:
    """0-based suffix starts in suffix order, as int32."""
    n = len(text)
    symbols = np.frombuffer(text, dtype=np.uint8)
    present = np.zeros(256, dtype=bool)
    present[symbols] = True
    bits = int(np.count_nonzero(present)).bit_length()
    width = 63 // bits
    padded = np.zeros(n + width, dtype=np.int16)
    padded[:n] = np.cumsum(present, dtype=np.int16)[symbols]
    key = np.zeros(n, dtype=np.int64)
    for t in range(width):
        key <<= bits
        key |= padded[t:t + n]
    del padded

    sa = np.argsort(key).astype(np.int32)
    head = _group_heads(key[sa])
    del key
    # idx: the sa slots of every suffix still in a tied group, ascending;
    # head: which of them start a group. rank[s] is the first sa slot of
    # suffix s's group, so groups keep their relative order as they split.
    idx = np.arange(n, dtype=np.int32)
    rank = np.empty(n, dtype=np.int32)
    h = width
    while True:
        rank[sa[idx]] = np.maximum.accumulate(np.where(head, idx, 0))
        tied = ~head
        tied[:-1] |= ~head[1:]
        idx = idx[tied]
        if len(idx) == 0:
            return sa
        head = _resort(sa, rank, idx, h)
        h *= 2


def _resort(sa: np.ndarray, rank: np.ndarray, idx: np.ndarray,
            h: int) -> np.ndarray:
    """Order the tied suffixes in slots idx by their first 2h symbols.

    Each group is already sorted by its first h symbols, so a suffix s
    is keyed by its group and then by the rank of suffix s+h, or 0 when
    s ends within h symbols. Returns which sorted slots start a group.
    """
    n = len(sa)
    s = sa[idx]
    # Still tied after h symbols, so h < n; clamping keeps s+h in int32.
    later = rank[np.minimum(s, n - 1 - h) + h]
    later += 1
    later[s >= n - h] = 0
    key = rank[s].astype(np.int64)
    key *= n + 1
    key += later
    # Each temporary is as long as the tied set; dropping them before the
    # argsort keeps a 10 MiB text's peak RSS below the old sort's.
    del later
    order = np.argsort(key)
    sa[idx] = s[order]
    del s
    return _group_heads(key[order])


def extract_sampled(full: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Keep the suffixes of full whose start is in positions, in suffix
    order; full is build_full_sa(text), positions 1-based starts."""
    keep = np.zeros(len(full) + 1, dtype=bool)
    keep[positions] = True
    return full[keep[full]]
