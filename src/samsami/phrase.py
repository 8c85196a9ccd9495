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
from .errors import CorruptEncoding, PatternTooShort, TextTooShort
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
    """Codeword stream plus per-phrase stream offsets and text positions."""

    stream: bytes = field(repr=False)
    stream_offsets: np.ndarray = field(repr=False)
    text_positions: np.ndarray = field(repr=False)
    phrase_ids: np.ndarray = field(repr=False)
    _suffix_order: np.ndarray | None = field(default=None, repr=False)
    # 1-based stream positions of the phrases in suffix order, the
    # searched column of a codeword lookup; built with the suffix order
    _ordered_starts: memoryview | None = field(default=None, repr=False)

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
    if len(text) < params.q:
        raise TextTooShort(f"text length {len(text)} < q={params.q}")
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
    codewords = [encode_id(i) for i in range(len(ranked))]

    phrase_ids = [ids[ph] for ph in raw]
    ids_arr = np.array(phrase_ids, dtype=np.uint32)
    sizes = np.array([len(c) for c in codewords], dtype=np.int64)[ids_arr]
    offsets = np.zeros(len(raw), dtype=np.uint32)
    offsets[1:] = np.cumsum(sizes[:-1])
    dictionary = PhraseDictionary(phrases=ranked, ids=ids, codewords=codewords)
    encoded = EncodedText(
        stream=b"".join([codewords[i] for i in phrase_ids]),
        stream_offsets=offsets,
        text_positions=starts.astype(np.uint32),
        phrase_ids=ids_arr,
    )
    return dictionary, encoded


def decode_ids(stream: bytes) -> list[int]:
    """Split a codeword stream back into phrase ids."""
    out = []
    acc = 0
    pending = False
    for b in stream:
        if b & 0x80:
            out.append((acc << 7) | (b & 0x7F))
            acc = 0
            pending = False
        else:
            acc = (acc << 7) | b
            pending = True
    if pending:
        raise CorruptEncoding("stream ends inside a codeword")
    return out

def decode_text(dictionary: PhraseDictionary, encoded: EncodedText) -> bytes:
    """Exact inverse of encode_text."""
    out = bytearray()
    for pid in decode_ids(encoded.stream):
        if pid >= len(dictionary.phrases):
            raise CorruptEncoding(f"phrase id {pid} outside dictionary")
        out += dictionary.phrases[pid]
    return bytes(out)


def rebuild_positions(dictionary: PhraseDictionary, stream: bytes) -> EncodedText:
    """Reconstruct the per-phrase metadata of a bare codeword stream."""
    ids = decode_ids(stream)
    offsets = np.empty(len(ids), dtype=np.uint32)
    positions = np.empty(len(ids), dtype=np.uint32)
    off = 0
    pos = 1
    for i, pid in enumerate(ids):
        if pid >= len(dictionary.phrases):
            raise CorruptEncoding(f"phrase id {pid} outside dictionary")
        offsets[i] = off
        positions[i] = pos
        off += len(dictionary.codewords[pid])
        pos += len(dictionary.phrases[pid])
    return EncodedText(stream=stream, stream_offsets=offsets,
                       text_positions=positions,
                       phrase_ids=np.array(ids, dtype=np.uint32))


def _stable_boundaries(pattern: bytes, params: SamplingParams) -> list[int]:
    # A boundary parsed from the pattern is guaranteed to split the text
    # the same way only left of m-q+2: beyond that, text windows hanging
    # over the occurrence's right edge may insert extra cuts the pattern
    # cannot see.
    bounds = sampled_positions(pattern, params).positions
    cutoff = len(pattern) - params.q + 2
    return [int(b) for b in bounds if int(b) <= cutoff]


def encoded_locate(dictionary: PhraseDictionary, encoded: EncodedText,
                   n: int, pattern: bytes, params: SamplingParams) -> list[int]:
    """All occurrences of pattern, m >= 2q-p+1, via the encoded stream."""
    q, p = params.q, params.p
    m = len(pattern)
    if m < 2 * q - p + 1:
        raise PatternTooShort(f"pattern length {m} < 2q-p+1 = {2 * q - p + 1}")
    stable = _stable_boundaries(pattern, params)
    j1 = stable[0]
    if len(stable) >= 2:
        return _locate_by_codewords(dictionary, encoded, n, pattern, stable)
    # No complete stable phrase: every sampled position is a candidate
    # alignment for the single boundary, verified purely by decoding.
    out = []
    for pi in range(encoded.phrase_count):
        start = int(encoded.text_positions[pi]) - j1 + 1
        if start < 1 or start + m - 1 > n:
            continue
        if _match_backward(dictionary, encoded, pi, pattern, j1 - 1) and \
           _match_forward(dictionary, encoded, pi, pattern, j1 - 1):
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

    out = []
    for pi in order[lo:hi].tolist():
        start = int(encoded.text_positions[pi]) - j1 + 1
        if start < 1 or start + m - 1 > n:
            continue
        if _match_backward(dictionary, encoded, pi, pattern, j1 - 1) and \
           _match_forward(dictionary, encoded, pi + k_phrases, pattern, jend - 1):
            out.append(start)
    out.sort()
    return out


def _match_backward(dictionary, encoded, pi, pattern, need):
    """Compare pattern[..need] against the text ending before phrase pi."""
    idx = pi - 1
    while need > 0:
        if idx < 0:
            return False
        ph = dictionary.phrases[int(encoded.phrase_ids[idx])]
        take = min(len(ph), need)
        if ph[len(ph) - take:] != pattern[need - take:need]:
            return False
        need -= take
        idx -= 1
    return True


def _match_forward(dictionary, encoded, pi, pattern, done):
    """Compare pattern[done..] against the text starting at phrase pi."""
    m = len(pattern)
    idx = pi
    while done < m:
        if idx >= encoded.phrase_count:
            return False
        ph = dictionary.phrases[int(encoded.phrase_ids[idx])]
        take = min(len(ph), m - done)
        if ph[:take] != pattern[done:done + take]:
            return False
        done += take
        idx += 1
    return True
