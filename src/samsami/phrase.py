"""Phrase-compressed variant: minimizer-delimited parsing plus byte code.

The text is cut at every sampled position, giving phrases whose starts
(after an optional unsampled leading piece) are exactly the sampled
positions. Phrases are ranked by frequency and written with a tagged
variable-byte code (7 data bits per byte, high bit set on the final
byte), which is prefix-free, so a concatenation of codewords matched at
a phrase-aligned stream offset pins down the underlying phrase sequence
exactly.

Searching parses the pattern the same way and keeps the boundaries that
are guaranteed stable under any text alignment. With two or more, the
phrases between them give one codeword string; with one, each phrase
the text could place at it gives a codeword of its own. Each string is
binary searched over phrase-aligned stream suffixes, and each candidate
whose occurrence lies inside the text is checked against the text,
through the kernel samsami's verification uses for a wide range. No
query walks every phrase.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import add

import numpy as np

from . import core
from .core import QueryStats, _fences, _prefix_range
from .errors import (CorruptEncoding, CorruptIndex, PatternTooShort,
                     SamsamiError)
from .minimizer import (SamplingParams, _ranks, sampled_positions,
                        window_minimizer)
# build_full_sa is never called here: benchmark tracing wraps it by name
from .suffix_sort import (_group_heads, _suffix_order,  # noqa: F401
                          build_full_sa)

# argmin copies a strided view to one buffer first; a pattern is parsed
# in blocks of windows whose copies stay within this many bytes
_PARSE_BLOCK_BYTES = 1 << 20

# positional arguments and a dtype object: ndarray's keywords and a dtype
# string cost about 1 us per call
_BIG_U2 = np.dtype(">u2")


@dataclass(eq=False)
class PhraseDictionary:
    """Distinct phrases ranked by decreasing frequency (ties: first seen),
    with each phrase's id and each id's codeword."""

    phrases: list[bytes]
    ids: dict[bytes, int] = field(repr=False)
    codewords: list[bytes] = field(repr=False)


@dataclass(eq=False)
class EncodedText:
    """Codeword stream plus per-phrase stream offsets and text positions.

    text is the text the stream encodes, which queries check their
    candidates against; never stored in an index file, it is None on
    rebuild_positions' output until load finds that the phrases spell
    it. The phrases of encode_text's output start at the text's
    minimizer positions by construction; a loaded stream's starts are
    checked against them once, by the first phrase query
    (_cuts_checked). suffix_order also builds a query loop's
    memoryviews, whose items read as Python ints, of its result
    (_order_view) and of text_positions (position_view).
    """

    stream: bytes = field(repr=False)
    stream_offsets: np.ndarray = field(repr=False)
    text_positions: np.ndarray = field(repr=False)
    phrase_ids: np.ndarray = field(repr=False)
    text: bytes | None = field(repr=False)
    _suffix_order: np.ndarray | None = field(default=None, repr=False)
    # set last: a query that finds it set uses every view without a lock
    _order_view: memoryview | None = field(default=None, repr=False)
    # 1-based stream positions of the phrases in suffix order, the
    # searched column of a codeword lookup, and its fence list; built
    # with the suffix order
    _ordered_starts: memoryview | None = field(default=None, repr=False)
    _fences: list[bytes] | None = field(default=None, repr=False)
    position_view: memoryview | None = field(default=None, repr=False)
    # True when the phrases are known to start at the text's minimizer
    # positions: set by encode_text, else by the first phrase query
    _cuts_checked: bool = field(default=False, repr=False)

    @property
    def phrase_count(self) -> int:
        return len(self.phrase_ids)

    def suffix_order(self) -> np.ndarray:
        """Phrase indexes ordered by bytewise rank of their stream suffix.

        Only the codeword starts are sorted. They are the cover (1, 0,
        longest codeword) of suffix_sort: for a start s, s+d is a start
        exactly when byte s+d-1 has its high bit set, and no run of
        codeword-length positions misses one.
        """
        if self._order_view is None:
            starts = self.stream_offsets
            longest = int(np.diff(starts, append=len(self.stream)).max())
            order = _suffix_order(self.stream, starts, 1, 0, longest)
            self.position_view = memoryview(self.text_positions)
            self._ordered_starts = memoryview(starts[order] + np.uint32(1))
            self._fences = _fences(self.stream, self._ordered_starts)
            self._suffix_order = order.astype(np.uint32)
            self._order_view = memoryview(self._suffix_order)
        return self._suffix_order


def parse_phrases(text: bytes, params: SamplingParams) -> list[tuple[int, int]]:
    """Cut text at each sampled position; returns (start, length) pairs."""
    starts = _phrase_starts(sampled_positions(text, params))
    lengths = np.diff(starts, append=len(text) + 1)
    return list(zip(starts.tolist(), lengths.tolist()))


def _phrase_starts(positions: np.ndarray) -> np.ndarray:
    # 1-based phrase starts: the ascending sampled positions, after an
    # unsampled leading piece when no sample is position 1
    if len(positions) and positions[0] == 1:
        return positions
    return np.concatenate((np.ones(1, positions.dtype), positions))


def gather_pieces(source: np.ndarray, first: np.ndarray, sizes: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """source[first[j]:first[j] + sizes[j]] for every j, end to end.

    starts[j] is where piece j begins, counted from any origin, so
    starts[j + 1] = starts[j] + sizes[j]. One index per output byte:
    bytes.join would instead hold an 80-byte buffer record per piece.
    """
    # output byte t, counted from the same origin as starts, lies in
    # some piece j and is source[first[j] + t - starts[j]]
    at = int(starts[0])
    gather = np.repeat(first - starts, sizes)
    gather += np.arange(at, at + len(gather))
    return source[gather]


def encode_id(phrase_id: int) -> bytes:
    """Tagged vbyte: 7 data bits per byte, high bit marks the last byte."""
    parts = [0x80 | (phrase_id & 0x7F)]
    phrase_id >>= 7
    while phrase_id:
        parts.append(phrase_id & 0x7F)
        phrase_id >>= 7
    return bytes(reversed(parts))


def codeword_table(count: int) -> list[bytes]:
    """encode_id(i) for every i < count, one array per codeword length."""
    out = []
    lo, width = 0, 1
    while lo < count:
        hi = min(count, 1 << (7 * width))
        ids = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, width), dtype=np.uint8)
        for k in range(width):
            digits[:, width - 1 - k] = (ids >> (7 * k)) & 0x7F
        digits[:, -1] |= 0x80
        # no codeword ends in a zero byte, which an "S" item would drop
        out += digits.view(f"S{width}").ravel().tolist()
        lo, width = hi, width + 1
    return out


def encode_text(text: bytes, params: SamplingParams,
                sampled: np.ndarray | None = None,
                ) -> tuple[PhraseDictionary, EncodedText]:
    """Parse, rank phrases by frequency, and emit the codeword stream.

    sampled, when given, must be sampled_positions(text, params); a
    caller that already has it saves sampling the text a second time.
    Occurrences of one phrase share an integer key (_phrase_keys), so
    one sort of the keys groups them: phrases are ranked by decreasing
    count, ties by first occurrence, and a bytes object is made only for
    each distinct phrase. The result is marked as cut at the samples,
    so its phrase queries never sample the text again.
    """
    if sampled is None:
        sampled = sampled_positions(text, params)
    starts = _phrase_starts(sampled)
    lengths = np.diff(starts.astype(np.int64), append=len(text) + 1)
    keys = _phrase_keys(text, starts, lengths)
    # group equal keys: sorted runs, each run's size and first occurrence
    order = np.argsort(keys)
    heads = np.flatnonzero(_group_heads(keys[order]))
    del keys
    counts = np.diff(heads, append=len(order))
    first_seen = np.minimum.reduceat(order, heads)
    ranked = np.lexsort((first_seen, -counts))  # groups in id order
    group_id = np.empty(len(ranked), dtype=np.uint32)
    group_id[ranked] = np.arange(len(ranked), dtype=np.uint32)
    ids_arr = np.empty(len(order), dtype=np.uint32)
    ids_arr[order] = np.repeat(group_id, counts)
    del order
    first_seen = first_seen[ranked]
    phrases = [text[a - 1:a - 1 + size]
               for a, size in zip(starts[first_seen].tolist(),
                                  lengths[first_seen].tolist())]
    ids = dict(zip(phrases, range(len(phrases))))
    words = codeword_table(len(phrases))

    word_sizes = np.array([len(c) for c in words], dtype=np.int64)
    sizes = word_sizes[ids_arr]
    offsets = np.zeros(len(ids_arr), dtype=np.uint32)
    offsets[1:] = np.cumsum(sizes[:-1])
    table = np.frombuffer(b"".join(words), dtype=np.uint8)
    first = np.cumsum(word_sizes) - word_sizes
    stream = gather_pieces(table, first[ids_arr], sizes, offsets).tobytes()
    dictionary = PhraseDictionary(phrases=phrases, ids=ids, codewords=words)
    encoded = EncodedText(
        stream=stream,
        stream_offsets=offsets,
        text_positions=starts.astype(np.uint32),
        phrase_ids=ids_arr,
        text=text,
        _cuts_checked=True,
    )
    return dictionary, encoded


def _phrase_keys(text: bytes, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    # One key per phrase, equal exactly for equal phrases: its bytes
    # ranked 1..σ, 0 past its end, packed as suffix_sort packs a suffix's
    # first symbols, 63 // σ.bit_length() to an int64 word. A phrase
    # longer than one word folds its words in one at a time by dense
    # rank, as minimizer._gram_keys folds long grams.
    symbols = np.frombuffer(text, dtype=np.uint8)
    present = np.zeros(256, dtype=bool)
    present[symbols] = True
    bits = int(np.count_nonzero(present)).bit_length()
    width = 63 // bits
    ranked = np.cumsum(present, dtype=np.int16)[symbols]
    full = (1 << bits * width) - 1
    # masks[r] keeps a word's first r symbols
    masks = np.array([full ^ (full >> bits * r) for r in range(width + 1)],
                     dtype=np.int64)
    at = starts.astype(np.int64) - 1  # the next byte to pack, per phrase
    longest = int(lengths.max())
    keys = None
    for lo in range(0, longest, width):
        # bytes read past the text's end lie past the phrase's end too
        word = np.zeros(len(at), dtype=np.int64)
        take = min(width, longest - lo)
        for _ in range(take):
            word <<= bits
            word |= ranked.take(at, mode="clip")
            at += 1
        word <<= bits * (width - take)
        word &= masks[np.clip(lengths - lo, 0, width)]
        keys = word if keys is None else _ranks(
            (_ranks(keys) << np.uint64(32)) | _ranks(word))
    return keys


def _split_stream(stream: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Phrase ids and 0-based codeword starts of a stream over count ids.

    Final codeword bytes are the ones with the high bit set, so the
    stream splits at them in one pass. Raises CorruptEncoding unless the
    stream is a concatenation of encode_id(i) for ids i < count: a
    stream that ends inside a codeword, a codeword longer than count
    ids need, one that starts with a zero padding byte and an id
    outside the dictionary are all rejected.
    """
    # uint32 columns and in-place steps keep the temporaries of a load
    # to a few bytes per codeword
    if len(stream) > 0xFFFFFFFF:
        raise CorruptEncoding("stream longer than 2**32 bytes")
    buf = np.frombuffer(stream, dtype=np.uint8)
    ends = np.flatnonzero(buf >= 0x80).astype(np.uint32)
    if len(buf) and (not len(ends) or ends[-1] != len(buf) - 1):
        raise CorruptEncoding("stream ends inside a codeword")
    starts = np.zeros(len(ends), dtype=np.uint32)
    np.add(ends[:-1], 1, out=starts[1:])
    # a one-byte codeword starts with its final byte, which is never zero
    if not buf[starts].all():
        raise CorruptEncoding("codeword padded with a leading zero byte")
    extra = ends - starts  # continuation bytes per codeword
    longest = int(extra.max()) + 1 if len(extra) else 0
    if longest > len(encode_id(max(count - 1, 0))):
        raise CorruptEncoding(f"{longest}-byte codeword, longer than "
                              f"{count} phrase ids need")
    # 5-byte codewords carry 35 bits
    ids = (buf[ends] & 0x7F).astype(np.int64 if longest > 4 else np.uint32)
    for back in range(1, longest):
        longer = np.flatnonzero(extra >= back)
        digit = buf[ends[longer] - back].astype(ids.dtype)
        ids[longer] |= digit << (7 * back)
    if len(ids) and int(ids.max()) >= count:
        raise CorruptEncoding(f"phrase id {int(ids.max())} outside dictionary")
    return ids.astype(np.uint32, copy=False), starts


def rebuild_positions(dictionary: PhraseDictionary, stream: bytes,
                      sizes: np.ndarray) -> EncodedText:
    """Reconstruct the per-phrase metadata of a bare codeword stream;
    sizes holds each phrase's length, by id, as int64. The result's text
    is None until the caller has shown that the phrases spell it."""
    ids, offsets = _split_stream(stream, len(dictionary.phrases))
    spans = sizes[ids]
    np.cumsum(spans, out=spans)  # now each phrase's end in the text
    if len(spans) and int(spans[-1]) > 0xFFFFFFFF:
        raise CorruptEncoding("phrases span more than 2**32 bytes")
    positions = np.ones(len(ids), dtype=np.uint32)
    np.add(spans[:-1], 1, out=positions[1:], casting="unsafe")
    return EncodedText(stream=stream, stream_offsets=offsets,
                       text_positions=positions, phrase_ids=ids, text=None)


_SPELL_BLOCK = 1 << 15  # phrases gathered per step, to bound the temporaries


def spell(source: np.ndarray, first: np.ndarray, sizes: np.ndarray,
          encoded: EncodedText) -> Iterator[np.ndarray]:
    """Yield, in text order, the uint8 blocks that encoded's phrases
    spell, id i being the sizes[i] bytes of source from first[i] on.
    The gather takes an 8-byte index per output byte."""
    for lo in range(0, encoded.phrase_count, _SPELL_BLOCK):
        ids = encoded.phrase_ids[lo:lo + _SPELL_BLOCK]
        yield gather_pieces(source, first[ids], sizes[ids],
                            encoded.text_positions[lo:lo + _SPELL_BLOCK])


def decode_text(dictionary: PhraseDictionary, encoded: EncodedText) -> bytes:
    """Exact inverse of encode_text: rebuild_positions and spell, the
    gather load checks a phrase section with, read the stream alone."""
    phrases = dictionary.phrases
    sizes = np.fromiter(map(len, phrases), dtype=np.int64, count=len(phrases))
    rebuilt = rebuild_positions(dictionary, encoded.stream, sizes)
    source = np.frombuffer(b"".join(phrases), dtype=np.uint8)
    return b"".join(spell(source, np.cumsum(sizes) - sizes, sizes, rebuilt))


def _stable_boundaries(pattern: bytes, params: SamplingParams) -> list[int]:
    # A boundary parsed from the pattern is guaranteed to split the text
    # the same way only left of m-q+2: beyond that, text windows hanging
    # over the occurrence's right edge may insert extra cuts the pattern
    # cannot see. These are the pattern's sampled positions up to that
    # cutoff. Row i of a zero-copy view over the pattern's bytes holds
    # window i's q-p+1 p-grams, each one item of a type that compares as
    # its bytes do: a big-endian 16-bit word for p = 2, the p of every
    # benchmark workload, else a p-byte string (numpy compares its full
    # width, zero bytes included). The rows reach exactly byte m, and
    # argmin keeps the leftmost of equal grams; the window that starts
    # at 1-based i samples i plus its argmin. Window minimizers never
    # move left, so a repeat is the one before and the kept starts ascend.
    q, p = params.q, params.p
    m = len(pattern)
    nwin, w = m - q + 1, q - p + 1
    wins = np.ndarray((nwin, w), _BIG_U2 if p == 2 else f"S{p}", pattern,
                      0, (1, 1))
    rows = max(1, _PARSE_BLOCK_BYTES // (w * p))
    if nwin <= rows:
        steps = wins.argmin(1).tolist()
    else:
        steps = []
        for lo in range(0, nwin, rows):
            steps += wins[lo:lo + rows].argmin(1).tolist()
    out = list(dict.fromkeys(map(add, range(1, nwin + 1), steps)))
    return out[:bisect_right(out, m - q + 2)]


def min_pattern_length(params: SamplingParams) -> int:
    return 2 * params.q - params.p + 1


def encoded_locate(dictionary: PhraseDictionary, encoded: EncodedText,
                   n: int, pattern: bytes, params: SamplingParams,
                   stats: QueryStats | None = None) -> list[int]:
    """All occurrences of pattern, m >= 2q-p+1, via the encoded stream.

    stats, when given, gains the size of the codeword ranges searched
    (candidates) and the candidates whose occurrence lies inside the
    text, each checked against encoded.text (text_verifications).
    """
    m = len(pattern)
    need = min_pattern_length(params)
    if m < need:
        raise PatternTooShort(f"pattern length {m} < 2q-p+1 = {need}")
    if encoded.text is None:
        raise SamsamiError("phrase queries check the text, which load "
                           "attaches once the phrases spell it")
    if not encoded._cuts_checked:
        # a loaded file's cuts are guarded by its crc32 alone, and a
        # phrase cut elsewhere hides the occurrences that cross it
        if not np.array_equal(
                _phrase_starts(sampled_positions(encoded.text, params)),
                encoded.text_positions):
            raise CorruptIndex("phrase starts differ from the text's "
                               "minimizer positions")
        encoded._cuts_checked = True
    stable = _stable_boundaries(pattern, params)
    j1 = stable[0]
    if len(stable) >= 2:
        ids, words = dictionary.ids, dictionary.codewords
        try:
            searches = [b"".join([words[ids[pattern[a - 1:b - 1]]]
                                  for a, b in zip(stable, stable[1:])])]
        except KeyError:
            return []  # a phrase absent from the text cannot occur in it
    else:
        # One stable boundary. Inside an occurrence the text samples
        # nothing in (j1, m-q+2] either, and it samples the minimizer
        # of the pattern window that starts after j1. So the text
        # phrase at j1 is pattern[j1-1:e-1] for an e between the two,
        # and each such phrase the dictionary holds is one codeword
        # string to search.
        q, p = params.q, params.p
        last = j1 + window_minimizer(pattern[j1:j1 + q], p)
        searches = []
        for e in range(m - q + 3, last + 1):
            pid = dictionary.ids.get(pattern[j1 - 1:e - 1])
            if pid is not None:
                searches.append(dictionary.codewords[pid])
    return _locate_by_codewords(encoded, n, pattern, j1, searches, stats)


def _locate_by_codewords(encoded, n, pattern, j1, searches, stats):
    # Each search is a codeword string; its hits are phrase-aligned
    # stream suffixes that it prefixes, with its first phrase placed at
    # pattern offset j1. A hit whose phrase starts at text position s
    # stands for the occurrence at 0-based b = s - j1, which lies inside
    # the text when j1 <= s <= last. Ranges of core._VECTOR_MIN_CANDIDATES
    # or more go to core's kernel, as samsami's wide ranges do; both
    # names are read at call time.
    if encoded._order_view is None:
        encoded.suffix_order()
    order, positions, text = (encoded._order_view, encoded.position_view,
                              encoded.text)
    m = len(pattern)
    last = n - m + j1
    out = []
    total = inside = 0
    for codewords in searches:
        lo, hi = _prefix_range(encoded.stream, encoded._ordered_starts, 0,
                               len(order), codewords, encoded._fences)
        total += hi - lo
        if hi - lo >= core._VECTOR_MIN_CANDIDATES:
            starts = encoded.text_positions[encoded._suffix_order[lo:hi]]
            starts = starts[(starts >= j1) & (starts <= last)]
            inside += len(starts)
            out += core._text_matches(text, starts.astype(np.int64) - j1,
                                      pattern)
            continue
        for pi in order[lo:hi]:
            s = positions[pi]
            if j1 <= s <= last:
                inside += 1
                b = s - j1
                if text[b:b + m] == pattern:
                    out.append(b + 1)
    if stats is not None:
        stats.candidates += total
        stats.text_verifications += inside
    out.sort()
    return out
