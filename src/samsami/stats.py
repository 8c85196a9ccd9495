"""Corpus statistics: sampling ratios and distinct q-gram counts."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidParams
from .minimizer import SamplingParams, _gram_keys, sampled_positions


def sampling_ratio(text: bytes, params: SamplingParams) -> float:
    """Percentage of suffixes retained by minimizer sampling."""
    kept = len(sampled_positions(text, params))
    return 100.0 * kept / len(text)


def distinct_qgrams(text: bytes, q: int) -> int:
    """Number of distinct length-q substrings of text."""
    n = len(text)
    if not 1 <= q <= n:
        raise InvalidParams(f"need 1 <= q <= {n}, got {q}")
    keys = np.sort(_gram_keys(text, q, n - q + 1))
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def sampling_report(text: bytes, pairs: Iterable[tuple[int, int]]) -> Iterator[tuple]:
    """Rows of (q, p, n_sampled, n, percent) for each parameter pair."""
    n = len(text)
    for q, p in pairs:
        kept = len(sampled_positions(text, SamplingParams(q, p)))
        yield q, p, kept, n, 100.0 * kept / n


def qgram_report(text: bytes, lengths: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Rows of (q, count) for each gram length."""
    for q in lengths:
        yield q, distinct_qgrams(text, q)
