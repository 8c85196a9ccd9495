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
binary searched over phrase-aligned stream suffixes, and the uncovered
pattern prefix and tail are verified by decoding the neighboring
phrases. No query walks every phrase.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import QueryStats, _fences, _prefix_range
from .errors import CorruptEncoding, PatternTooShort
from .minimizer import SamplingParams, sampled_positions, window_minimizer
# build_full_sa is never called here: benchmark tracing wraps it by name
from .suffix_sort import _suffix_order, build_full_sa  # noqa: F401

# argmin copies a strided view to one buffer first; a pattern is parsed
# in blocks of windows whose copies stay within this many bytes
_PARSE_BLOCK_BYTES = 1 << 20


@dataclass(eq=False)
class PhraseDictionary:
    """Distinct phrases ranked by decreasing frequency (ties: first seen)."""

    phrases: list[bytes]
    ids: dict[bytes, int] = field(repr=False)
    codewords: list[bytes] = field(repr=False)


@dataclass(eq=False)
class EncodedText:
    """Codeword stream plus per-phrase stream offsets and text positions.

    id_view and position_view are memoryviews of phrase_ids and
    text_positions whose items read as Python ints, derived on
    construction for the per-phrase loops of a query.
    """

    stream: bytes = field(repr=False)
    stream_offsets: np.ndarray = field(repr=False)
    text_positions: np.ndarray = field(repr=False)
    phrase_ids: np.ndarray = field(repr=False)
    _suffix_order: np.ndarray | None = field(default=None, repr=False)
    # 1-based stream positions of the phrases in suffix order, the
    # searched column of a codeword lookup, and its fence list; built
    # with the suffix order
    _ordered_starts: memoryview | None = field(default=None, repr=False)
    _fences: list[bytes] | None = field(default=None, repr=False)
    id_view: memoryview = field(init=False, repr=False)
    position_view: memoryview = field(init=False, repr=False)

    def __post_init__(self):
        self.id_view = memoryview(self.phrase_ids)
        self.position_view = memoryview(self.text_positions)

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
        if self._suffix_order is None:
            starts = self.stream_offsets.astype(np.int32)
            longest = int(np.diff(starts, append=len(self.stream)).max())
            order = _suffix_order(self.stream, starts, 1, 0, longest)
            self._ordered_starts = memoryview(
                (starts[order] + 1).astype(np.uint32))
            self._fences = _fences(self.stream, self._ordered_starts)
            self._suffix_order = order.astype(np.uint32)
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
    """
    if sampled is None:
        sampled = sampled_positions(text, params)
    starts = _phrase_starts(sampled)
    cuts = (starts - 1).tolist() + [len(text)]
    raw = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    # Counter keeps first-seen order and the sort is stable, so equally
    # frequent phrases stay in the order they first appear.
    freq = Counter(raw)
    ranked = sorted(freq, key=freq.__getitem__, reverse=True)
    ids = {ph: i for i, ph in enumerate(ranked)}
    words = codeword_table(len(ranked))

    ids_arr = np.array([ids[ph] for ph in raw], dtype=np.uint32)
    del raw, freq  # one bytes object per phrase
    word_sizes = np.array([len(c) for c in words], dtype=np.int64)
    sizes = word_sizes[ids_arr]
    offsets = np.zeros(len(ids_arr), dtype=np.uint32)
    offsets[1:] = np.cumsum(sizes[:-1])
    table = np.frombuffer(b"".join(words), dtype=np.uint8)
    first = np.cumsum(word_sizes) - word_sizes
    stream = gather_pieces(table, first[ids_arr], sizes, offsets).tobytes()
    dictionary = PhraseDictionary(phrases=ranked, ids=ids, codewords=words)
    encoded = EncodedText(
        stream=stream,
        stream_offsets=offsets,
        text_positions=starts.astype(np.uint32),
        phrase_ids=ids_arr,
    )
    return dictionary, encoded


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


def decode_text(dictionary: PhraseDictionary, encoded: EncodedText) -> bytes:
    """Exact inverse of encode_text."""
    ids, _ = _split_stream(encoded.stream, len(dictionary.phrases))
    # bytes.join would hold an 80-byte buffer record per phrase
    out = bytearray()
    for pid in memoryview(ids):
        out += dictionary.phrases[pid]
    return bytes(out)


def rebuild_positions(dictionary: PhraseDictionary, stream: bytes) -> EncodedText:
    """Reconstruct the per-phrase metadata of a bare codeword stream."""
    count = len(dictionary.phrases)
    ids, offsets = _split_stream(stream, count)
    spans = np.fromiter(map(len, dictionary.phrases), dtype=np.int64,
                        count=count)[ids]
    np.cumsum(spans, out=spans)  # now each phrase's end in the text
    if len(spans) and int(spans[-1]) > 0xFFFFFFFF:
        raise CorruptEncoding("phrases span more than 2**32 bytes")
    positions = np.ones(len(ids), dtype=np.uint32)
    np.add(spans[:-1], 1, out=positions[1:], casting="unsafe")
    return EncodedText(stream=stream, stream_offsets=offsets,
                       text_positions=positions, phrase_ids=ids)


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
    # argmin keeps the leftmost of equal grams. Window minimizers never
    # move left, so a repeat is the one before and the kept starts ascend.
    q, p = params.q, params.p
    m = len(pattern)
    nwin, w = m - q + 1, q - p + 1
    wins = np.ndarray((nwin, w), ">u2" if p == 2 else f"S{p}",
                      buffer=pattern, strides=(1, 1))
    starts = np.arange(1, nwin + 1)  # 1-based start of each window
    rows = max(1, _PARSE_BLOCK_BYTES // (w * p))
    if nwin <= rows:
        starts += wins.argmin(axis=1)
    else:
        for lo in range(0, nwin, rows):
            starts[lo:lo + rows] += wins[lo:lo + rows].argmin(axis=1)
    out = list(dict.fromkeys(starts.tolist()))
    return out[:bisect_right(out, m - q + 2)]


def min_pattern_length(params: SamplingParams) -> int:
    return 2 * params.q - params.p + 1


def encoded_locate(dictionary: PhraseDictionary, encoded: EncodedText,
                   n: int, pattern: bytes, params: SamplingParams,
                   stats: QueryStats | None = None) -> list[int]:
    """All occurrences of pattern, m >= 2q-p+1, via the encoded stream.

    stats, when given, gains the size of the codeword ranges searched
    (candidates) and the candidates checked by decoding
    (text_verifications).
    """
    m = len(pattern)
    need = min_pattern_length(params)
    if m < need:
        raise PatternTooShort(f"pattern length {m} < 2q-p+1 = {need}")
    stable = _stable_boundaries(pattern, params)
    j1 = stable[0]
    if len(stable) >= 2:
        codewords = bytearray()
        for a, b in zip(stable, stable[1:]):
            pid = dictionary.ids.get(pattern[a - 1:b - 1])
            if pid is None:
                return []  # a phrase absent from the text cannot occur in it
            codewords += dictionary.codewords[pid]
        searches = [(bytes(codewords), len(stable) - 1, stable[-1])]
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
                searches.append((dictionary.codewords[pid], 1, e))
    return _locate_by_codewords(dictionary, encoded, n, pattern, j1,
                                searches, stats)


def _locate_by_codewords(dictionary, encoded, n, pattern, j1, searches,
                         stats):
    # Each search is (codeword string, phrases it covers, the 1-based
    # pattern offset the last of them ends before); its hits are
    # phrase-aligned stream suffixes that the string prefixes, with the
    # first of its phrases placed at pattern offset j1.
    m = len(pattern)
    order = encoded.suffix_order()
    phrases, ids, positions = (dictionary.phrases, encoded.id_view,
                               encoded.position_view)
    out = []
    total = skipped = 0
    for codewords, covered, reached in searches:
        lo, hi = _prefix_range(encoded.stream, encoded._ordered_starts, 0,
                               len(order), codewords, encoded._fences)
        total += hi - lo
        for pi in order[lo:hi].tolist():
            start = positions[pi] - j1 + 1
            if start < 1 or start + m - 1 > n:
                skipped += 1
                continue
            if _match_backward(phrases, ids, pi, pattern, j1 - 1) and \
               _match_forward(phrases, ids, pi + covered, pattern,
                              reached - 1):
                out.append(start)
    if stats is not None:
        stats.candidates += total
        stats.text_verifications += total - skipped
    out.sort()
    return out


def _match_backward(phrases, ids, pi, pattern, need):
    """Compare pattern[..need] against the text ending before phrase pi;
    ids reads the phrase ids in text order."""
    idx = pi - 1
    while need > 0:
        if idx < 0:
            return False
        ph = phrases[ids[idx]]
        take = min(len(ph), need)
        if ph[len(ph) - take:] != pattern[need - take:need]:
            return False
        need -= take
        idx -= 1
    return True


def _match_forward(phrases, ids, pi, pattern, done):
    """Compare pattern[done..] against the text starting at phrase pi."""
    m = len(pattern)
    count = len(ids)
    idx = pi
    while done < m:
        if idx >= count:
            return False
        ph = phrases[ids[idx]]
        take = min(len(ph), m - done)
        if ph[:take] != pattern[done:done + take]:
            return False
        done += take
        idx += 1
    return True
