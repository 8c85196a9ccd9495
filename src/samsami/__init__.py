"""Sampled suffix array with minimizers: compact full-text indexing.

The basic index keeps only the suffixes starting at window-minimizer
positions, answers locate/count for patterns of length >= q with one
binary search plus prefix verification, and comes in three flavors
(plain, delta-annotated for verification pruning, hash-accelerated),
alongside a sparse-suffix-array baseline and a phrase-compressed text
representation searchable without decoding.
"""

from .baselines import (SparseSuffixArray, naive_count, naive_locate,
                        spasa_build, spasa_count, spasa_locate)
from .core import (QueryStats, SamsamiIndex, build, count, locate,
                   suffix_range)
from .delta import DeltaAnnotation, annotate, count2, locate2
from .errors import (CorruptEncoding, CorruptIndex, InvalidParams,
                     PatternTooShort, SamsamiError, TextMismatch,
                     TextTooShort, UnsupportedFormat)
from .hashindex import (PrefixRangeTable, build_table, count_hash,
                        locate_hash, min_pattern_length)
from .minimizer import (SamplingParams, prune_mask, sampled_positions,
                        window_minimizer)
from .persistence import IndexBundle, build_bundle, load, save
from .phrase import (EncodedText, PhraseDictionary, decode_text,
                     encode_text, encoded_locate, parse_phrases)
from .stats import distinct_qgrams, sampling_ratio
from .suffix_sort import build_full_sa, extract_sampled
from .variants import Variant, build_variants, from_bundle

__version__ = "0.1.0"

__all__ = [
    "SamplingParams",
    "window_minimizer", "sampled_positions", "prune_mask",
    "build_full_sa", "extract_sampled",
    "SamsamiIndex", "QueryStats", "build", "suffix_range",
    "locate", "count",
    "DeltaAnnotation", "annotate", "locate2", "count2",
    "PrefixRangeTable", "build_table", "locate_hash", "count_hash",
    "min_pattern_length",
    "SparseSuffixArray", "naive_locate", "naive_count", "spasa_build",
    "spasa_locate", "spasa_count",
    "PhraseDictionary", "EncodedText", "parse_phrases", "encode_text",
    "decode_text", "encoded_locate",
    "sampling_ratio", "distinct_qgrams",
    "IndexBundle", "build_bundle", "save", "load",
    "Variant", "from_bundle", "build_variants",
    "SamsamiError", "InvalidParams", "TextTooShort", "PatternTooShort",
    "UnsupportedFormat", "CorruptIndex", "TextMismatch", "CorruptEncoding",
    "__version__",
]
