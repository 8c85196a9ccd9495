"""One record per index variant, the way every variant is queried.

A Variant is built from an IndexBundle, which implies its variant from
the sections it holds, or from a text by name, each index sorting only
the suffixes it keeps. Its locate and count are the variant's own
query functions with the index bound to them, so the CLI's locate,
count, phrase-locate and bench all dispatch through this one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from . import baselines, core, delta, hashindex, persistence, phrase
from .errors import SamsamiError
from .minimizer import SamplingParams

# bench runs the first five by default; phrase, which needs m >= 2q-p+1,
# only when named
NAMES = ("samsami", "samsami2", "samsami-hash", "spasa", "sa", "phrase")


@dataclass(frozen=True)
class Variant:
    """A ready-to-query index: its name, the (q, p, k) it was built with
    (the suffix arrays report (step, 0, 0)), the shortest pattern it
    answers, its locate and count, and the bytes of its index file,
    which size computes on the first read of index_bytes."""

    name: str
    qpk: tuple[int, int, int]
    min_len: int
    locate: Callable[[bytes], list[int]]
    count: Callable[[bytes], int]
    size: Callable[[], int] = field(repr=False, compare=False)

    @cached_property
    def index_bytes(self) -> int:
        return self.size()


def from_bundle(bundle: persistence.IndexBundle,
                name: str | None = None) -> Variant:
    """The variant that answers from bundle.

    Without a name it is the one the sections imply: the hash table
    first, then the delta nibbles, else plain samsami. A name must be
    one whose section the bundle holds.
    """
    idx, ann, table = bundle.index, bundle.delta, bundle.table
    if name is None:
        name = ("samsami-hash" if table is not None
                else "samsami2" if ann is not None else "samsami")
    params = idx.params
    min_len = params.q
    if name == "samsami":
        locate, count = partial(core.locate, idx), partial(core.count, idx)
    elif name == "samsami2" and ann is not None:
        locate = partial(delta.locate2, idx, ann)
        count = partial(delta.count2, idx, ann)
    elif name == "samsami-hash" and table is not None:
        min_len = hashindex.min_pattern_length(params, table.k)
        locate = partial(hashindex.locate_hash, idx, table)
        count = partial(hashindex.count_hash, idx, table)
    elif name == "phrase" and bundle.dictionary is not None:
        min_len = phrase.min_pattern_length(params)
        locate = partial(phrase.encoded_locate, bundle.dictionary,
                         bundle.encoded, idx.n, params=params)

        def count(pattern):
            return len(locate(pattern))
    elif name in ("spasa", "sa"):
        raise SamsamiError(f"variant {name!r} is built from the text, "
                           "not read from an index file")
    else:
        section = {"samsami2": "delta", "samsami-hash": "hash",
                   "phrase": "phrase"}.get(name)
        raise SamsamiError(f"index has no {section} section" if section
                           else f"unknown variant {name!r}")
    k = table.k if table is not None else 0
    return Variant(name, (params.q, params.p, k), min_len, locate, count,
                   lambda: len(persistence.serialized_bytes(bundle)))


def sections(name: str, k: int) -> dict:
    """The keyword arguments of persistence.annotate_index and
    build_bundle that add the section the variant name reads, if any;
    a hash table keys k bytes."""
    return {"with_delta": name == "samsami2",
            "hash_k": k if name == "samsami-hash" else None,
            "with_phrase": name == "phrase"}


def build_variants(text: bytes, names, q: int, p: int, k: int,
                   step: int) -> list[Variant]:
    """One variant per name, built over text.

    The samsami variants share one index sampled with (q, p), the hash
    table keys k bytes, and spasa keeps every step-th suffix; each value
    is read only by the variants that use it, and only sa sorts every
    suffix. An unknown name is rejected before anything is built.
    """
    for name in names:
        if name not in NAMES:
            raise SamsamiError(f"unknown variant {name!r}")
    idx = None
    out = []
    for name in names:
        if name in ("spasa", "sa"):
            sa = baselines.spasa_build(text, step if name == "spasa" else 1)
            # never saved: sized as an index file of its kept suffixes
            size = persistence.offsets_file_bytes(len(text), len(sa.sa))
            out.append(Variant(
                name, (sa.step, 0, 0), sa.step,
                partial(baselines.spasa_locate, sa),
                partial(baselines.spasa_count, sa), partial(int, size)))
            continue
        if idx is None:
            idx = core.build(text, SamplingParams(q, p))
        out.append(from_bundle(
            persistence.annotate_index(idx, **sections(name, k)), name))
    return out
