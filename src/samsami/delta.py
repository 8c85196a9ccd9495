"""Delta-annotated variant: verification pruning without text access.

Each index entry gains 4 bits holding the distance to the previous
sampled position in text order (0 when there is none or it exceeds 15).
At query time the pattern's prune mask rejects candidates whose recorded
distance is infeasible, saving the text lookup the verification would
otherwise need. An index file keeps the 4 bits in the top nibble of
each 32-bit offset, which caps texts at 2^28 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import QueryStats, SamsamiIndex, _anchor_range, _verify_candidates
from .errors import TextTooLargeForDeltaVariant
from .minimizer import prune_mask

DELTA_SHIFT = 28  # the nibble sits above this many position bits
MAX_DELTA_TEXT = 1 << DELTA_SHIFT
POS_MASK = MAX_DELTA_TEXT - 1


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
    """Same result set as core.locate, with delta-based pruning."""
    return sorted(_pruned_hits(idx, ann, pattern, stats))


def count2(idx: SamsamiIndex, ann: DeltaAnnotation, pattern: bytes,
           stats: QueryStats | None = None) -> int:
    return len(_pruned_hits(idx, ann, pattern, stats))


def _pruned_hits(idx, ann, pattern, stats):
    j, ranks = _anchor_range(idx, pattern)
    if ranks.lo == ranks.hi:  # no candidates, so nothing to prune
        return []
    mask = prune_mask(pattern, idx.params, j)
    return _verify_candidates(idx.text, idx.sa_view, pattern, j, ranks,
                              ann.delta, mask, stats, idx.left)
