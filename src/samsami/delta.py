"""Delta-annotated variant: verification pruning without text access.

Each index entry gains 4 bits holding the distance to the previous
sampled position in text order (0 when there is none or it exceeds 15).
The pattern's prune mask proves a candidate with an infeasible distance
a mismatch without reading the text. Pruning only drops mismatches, so
answers go through core's kernel and only a query given QueryStats
builds the mask, to count the pruned candidates: in pure Python the mask
costs more than the compares it saves. An index file keeps the 4 bits
above the position bits of each offset field, which holds at most 32
bits, so texts are capped at 2^28 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import QueryStats, SamsamiIndex, _anchor_range, _verify_candidates
from .errors import TextTooLargeForDeltaVariant
from .minimizer import prune_mask

MAX_DELTA_TEXT = 1 << 28  # position bits left beside the nibble in 32


@dataclass(eq=False)
class DeltaAnnotation:
    """4-bit predecessor distances, aligned with the index's sa ranks."""

    delta: np.ndarray = field(repr=False)


def annotate(idx: SamsamiIndex) -> DeltaAnnotation:
    """Compute per-entry distances to the previous sampled position."""
    if idx.n > MAX_DELTA_TEXT:
        raise TextTooLargeForDeltaVariant(
            f"text of {idx.n} bytes exceeds the {MAX_DELTA_TEXT} delta limit")
    sa = idx.sa.astype(np.int64)
    order = np.argsort(sa, kind="stable")
    text_order = sa[order]
    gaps = np.zeros(len(sa), dtype=np.int64)
    if len(sa) > 1:
        gaps[1:] = text_order[1:] - text_order[:-1]
    gaps[(gaps < 1) | (gaps > 15)] = 0
    delta = np.zeros(len(sa), dtype=np.uint8)
    delta[order] = gaps.astype(np.uint8)
    return DeltaAnnotation(delta=delta)


def locate2(idx: SamsamiIndex, ann: DeltaAnnotation, pattern: bytes,
            stats: QueryStats | None = None) -> list[int]:
    """The answer of core.locate; stats also count the pruned candidates."""
    return sorted(_pruned_hits(idx, ann, pattern, stats))


def count2(idx: SamsamiIndex, ann: DeltaAnnotation, pattern: bytes,
           stats: QueryStats | None = None) -> int:
    return len(_pruned_hits(idx, ann, pattern, stats))


def _pruned_hits(idx, ann, pattern, stats):
    j, ranks = _anchor_range(idx, pattern)
    sa = idx.sa_view
    hits = _verify_candidates(idx.text, sa, pattern, j, ranks, stats,
                              idx.left)
    lo, hi = ranks
    if stats is None or lo == hi:
        return hits
    # a pruned candidate skips its text verification
    ruled_out = ~prune_mask(pattern, idx.params, j).table()[ann.delta[lo:hi]]
    pruned = int(np.count_nonzero(ruled_out & (np.asarray(sa[lo:hi]) >= j)))
    stats.pruned += pruned
    stats.text_verifications -= pruned
    return hits
