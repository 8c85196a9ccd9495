"""Corpus statistics: sampling ratios and distinct q-gram counts."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .minimizer import SamplingParams, _gram_keys, sampled_positions


def sampled_share(text: bytes, params: SamplingParams) -> tuple[int, float]:
    """Suffixes retained by minimizer sampling: count and percentage."""
    kept = len(sampled_positions(text, params))
    return kept, 100.0 * kept / len(text)


def sampling_ratio(text: bytes, params: SamplingParams) -> float:
    """Percentage of suffixes retained by minimizer sampling."""
    return sampled_share(text, params)[1]


def distinct_qgrams(text: bytes, q: int) -> int:
    """Number of distinct length-q substrings of text."""
    n = len(text)
    if not 1 <= q <= n:
        raise InvalidParams(f"need 1 <= q <= {n}, got {q}")
    keys = np.sort(_gram_keys(text, q, n - q + 1))
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
