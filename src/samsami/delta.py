"""Delta-annotated variant: verification pruning without text access.

Each index entry gains 4 bits holding the distance to the previous
sampled position in text order (0 when there is none or it exceeds 15).
The pattern's prune mask proves a candidate with an infeasible distance
a mismatch without reading the text. Pruning only drops mismatches, so
answers go through core's kernel and only a query given QueryStats
builds the mask, to count the pruned candidates: in pure Python the mask
costs more than the compares it saves. The nibbles are held in memory
only, one byte per entry: an index file keeps just the delta flag, and
loading recomputes them from the offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import QueryStats, SamsamiIndex, _query
from .minimizer import prune_mask


@dataclass(eq=False)
class DeltaAnnotation:
    """4-bit predecessor distances, aligned with the index's sa ranks."""

    delta: np.ndarray = field(repr=False)


def annotate(idx: SamsamiIndex,
             ascending: np.ndarray | None = None) -> DeltaAnnotation:
    """Compute per-entry distances to the previous sampled position.

    ascending, the index's positions sorted, spares the sort when the
    caller has it.
    """
    if ascending is None:
        ascending = np.sort(idx.sa)
    gaps = np.diff(ascending, prepend=ascending[:1])  # the first gets 0
    gaps[gaps > 15] = 0
    # each gap goes to its position, and from there to its rank; intp
    # indices and uint8 values take numpy's fast scatter
    by_position = np.zeros(idx.n + 1, dtype=np.uint8)
    by_position[ascending.astype(np.intp)] = gaps.astype(np.uint8)
    return DeltaAnnotation(delta=by_position.take(idx.sa))


def locate2(idx: SamsamiIndex, ann: DeltaAnnotation, pattern: bytes,
            stats: QueryStats | None = None) -> list[int]:
    """The answer of core.locate; stats also count the pruned candidates."""
    return sorted(_pruned_hits(idx, ann, pattern, stats))


def count2(idx: SamsamiIndex, ann: DeltaAnnotation, pattern: bytes,
           stats: QueryStats | None = None) -> int:
    return len(_pruned_hits(idx, ann, pattern, stats))


def _pruned_hits(idx, ann, pattern, stats):
    j, (lo, hi), hits = _query(idx, pattern, stats)
    if stats is None or lo == hi:
        return hits
    # a pruned candidate skips its text verification
    ruled_out = ~prune_mask(pattern, idx.params, j)[ann.delta[lo:hi]]
    pruned = int(np.count_nonzero(ruled_out
                                  & (np.asarray(idx.sa_view[lo:hi]) >= j)))
    stats.pruned += pruned
    stats.text_verifications -= pruned
    return hits
