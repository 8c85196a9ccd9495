"""Phrase-compressed variant: minimizer-delimited parsing plus byte code.

The text is cut at every sampled position, giving phrases whose starts
(after an optional unsampled leading piece) are exactly the sampled
positions. Phrases are ranked by frequency and written with a tagged
variable-byte code (7 data bits per byte, high bit set on the final
byte), which is prefix-free, so a concatenation of codewords matched at
a phrase-aligned stream offset pins down the underlying phrase sequence
exactly.

Searching parses the pattern the same way, encodes the phrases that are
guaranteed stable under any text alignment, binary searches the codeword
string over phrase-aligned stream suffixes, and verifies the uncovered
pattern prefix and tail by decoding the neighboring phrases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import _prefix_range
from .errors import CorruptEncoding, PatternTooShort
from .minimizer import SampledPositions, SamplingParams, sampled_positions
from .suffix_sort import build_full_sa


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
    # searched column of a codeword lookup; built with the suffix order
    _ordered_starts: memoryview | None = field(default=None, repr=False)
    id_view: memoryview = field(init=False, repr=False)
    position_view: memoryview = field(init=False, repr=False)

    def __post_init__(self):
        self.id_view = memoryview(self.phrase_ids)
        self.position_view = memoryview(self.text_positions)

    @property
    def phrase_count(self) -> int:
        return len(self.phrase_ids)

    def suffix_order(self) -> np.ndarray:
        """Phrase indexes ordered by bytewise rank of their stream suffix."""
        if self._suffix_order is None:
            full = build_full_sa(self.stream).sa.astype(np.int64) - 1
            starts = np.zeros(len(self.stream), dtype=bool)
            starts[self.stream_offsets.astype(np.int64)] = True
            aligned = full[starts[full]]
            self._ordered_starts = memoryview(
                (aligned + 1).astype(np.uint32))
            self._suffix_order = np.searchsorted(
                self.stream_offsets, aligned).astype(np.uint32)
        return self._suffix_order


def parse_phrases(text: bytes, params: SamplingParams) -> list[tuple[int, int]]:
    """Cut text at each sampled position; returns (start, length) pairs."""
    starts = _phrase_starts(text, params)
    lengths = np.diff(starts, append=len(text) + 1)
    return list(zip(starts.tolist(), lengths.tolist()))


def _phrase_starts(text: bytes, params: SamplingParams,
                   sampled: SampledPositions | None = None) -> np.ndarray:
    # 1-based phrase starts: the sampled positions, after an unsampled
    # leading piece when the first sample is not position 1
    if sampled is None:
        sampled = sampled_positions(text, params)
    starts = np.asarray(sampled.positions, dtype=np.int64)
    if starts[0] > 1:
        starts = np.concatenate(([1], starts))
    return starts


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
                sampled: SampledPositions | None = None,
                ) -> tuple[PhraseDictionary, EncodedText]:
    """Parse, rank phrases by frequency, and emit the codeword stream.

    sampled, when given, must be sampled_positions(text, params); a
    caller that already has it saves sampling the text a second time.
    """
    starts = _phrase_starts(text, params, sampled)
    cuts = (starts - 1).tolist() + [len(text)]
    raw = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    # Counter keeps first-seen order and the sort is stable, so equally
    # frequent phrases stay in the order they first appear.
    freq = Counter(raw)
    ranked = sorted(freq, key=freq.__getitem__, reverse=True)
    ids = {ph: i for i, ph in enumerate(ranked)}
    words = codeword_table(len(ranked))

    phrase_ids = [ids[ph] for ph in raw]
    ids_arr = np.array(phrase_ids, dtype=np.uint32)
    sizes = np.array([len(c) for c in words], dtype=np.int64)[ids_arr]
    offsets = np.zeros(len(raw), dtype=np.uint32)
    offsets[1:] = np.cumsum(sizes[:-1])
    dictionary = PhraseDictionary(phrases=ranked, ids=ids, codewords=words)
    encoded = EncodedText(
        stream=b"".join([words[i] for i in phrase_ids]),
        stream_offsets=offsets,
        text_positions=starts.astype(np.uint32),
        phrase_ids=ids_arr,
    )
    return dictionary, encoded


# Phrase ids fit the u32 phrase count of an index file: 5 codeword bytes.
_MAX_IDS = 1 << 32


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


def decode_ids(stream: bytes) -> list[int]:
    """Split a codeword stream back into phrase ids."""
    return _split_stream(stream, _MAX_IDS)[0].tolist()


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
    # cutoff, found with the sliding-window minimum of _sampled_deque
    # over p-grams sliced up front; since window minimizers never move
    # left, the scan stops at the first one past the cutoff.
    q, p = params.q, params.p
    m = len(pattern)
    cutoff = m - q + 2
    grams = [pattern[g:g + p] for g in range(m - p + 1)]
    width = q - p
    out = []
    stack = []  # 0-based gram starts, grams non-decreasing from head on
    head = 0
    for g, gram in enumerate(grams):
        while len(stack) > head and grams[stack[-1]] > gram:
            stack.pop()
        stack.append(g)
        if g >= width:  # the window of grams g-width..g is complete
            if stack[head] < g - width:
                head += 1
            b = stack[head] + 1
            if b > cutoff:
                break
            if not out or out[-1] != b:
                out.append(b)
    return out


def min_pattern_length(params: SamplingParams) -> int:
    return 2 * params.q - params.p + 1


def encoded_locate(dictionary: PhraseDictionary, encoded: EncodedText,
                   n: int, pattern: bytes, params: SamplingParams) -> list[int]:
    """All occurrences of pattern, m >= 2q-p+1, via the encoded stream."""
    m = len(pattern)
    need = min_pattern_length(params)
    if m < need:
        raise PatternTooShort(f"pattern length {m} < 2q-p+1 = {need}")
    stable = _stable_boundaries(pattern, params)
    j1 = stable[0]
    if len(stable) >= 2:
        return _locate_by_codewords(dictionary, encoded, n, pattern, stable)
    # No complete stable phrase: every sampled position is a candidate
    # alignment for the single boundary, verified purely by decoding.
    phrases, ids = dictionary.phrases, encoded.id_view
    out = []
    for pi, pos in enumerate(encoded.position_view):
        start = pos - j1 + 1
        if start < 1 or start + m - 1 > n:
            continue
        if _match_backward(phrases, ids, pi, pattern, j1 - 1) and \
           _match_forward(phrases, ids, pi, pattern, j1 - 1):
            out.append(start)
    return out


def _locate_by_codewords(dictionary, encoded, n, pattern, stable):
    m = len(pattern)
    j1, jend = stable[0], stable[-1]
    codeword_str = bytearray()
    for a, b in zip(stable, stable[1:]):
        pid = dictionary.ids.get(pattern[a - 1:b - 1])
        if pid is None:
            return []  # a phrase absent from the text cannot occur in it
        codeword_str += dictionary.codewords[pid]
    codeword_str = bytes(codeword_str)
    k_phrases = len(stable) - 1

    order = encoded.suffix_order()
    lo, hi = _prefix_range(encoded.stream, encoded._ordered_starts, 0,
                           len(order), codeword_str)

    phrases, ids, positions = (dictionary.phrases, encoded.id_view,
                               encoded.position_view)
    out = []
    for pi in order[lo:hi].tolist():
        start = positions[pi] - j1 + 1
        if start < 1 or start + m - 1 > n:
            continue
        if _match_backward(phrases, ids, pi, pattern, j1 - 1) and \
           _match_forward(phrases, ids, pi + k_phrases, pattern, jend - 1):
            out.append(start)
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
