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
phrases: candidate by candidate, or one pattern column at a time in
numpy for a wide range of candidates. No query walks every phrase.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .core import QueryStats, _fences, _prefix_range
from .errors import CorruptEncoding, PatternTooShort
from .minimizer import SamplingParams, sampled_positions, window_minimizer
# build_full_sa is never called here: benchmark tracing wraps it by name
from .suffix_sort import _suffix_order, build_full_sa  # noqa: F401

# argmin copies a strided view to one buffer first; a pattern is parsed
# in blocks of windows whose copies stay within this many bytes
_PARSE_BLOCK_BYTES = 1 << 20

# positional arguments and a dtype object: ndarray's keywords and a dtype
# string cost about 1 us per call
_BIG_U2 = np.dtype(">u2")


@dataclass(eq=False)
class PhraseDictionary:
    """Distinct phrases ranked by decreasing frequency (ties: first seen).

    _byte_table, built by the first wide codeword range of a query and
    never stored in an index file, lays the phrases out back to back.
    It needs no lock: two threads that race on it build equal tables,
    and either may be kept.
    """

    phrases: list[bytes]
    ids: dict[bytes, int] = field(repr=False)
    codewords: list[bytes] = field(repr=False)
    _table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)

    def _byte_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The phrases back to back as one uint8 array, the index in it
        of each phrase's first byte by id plus the total length, as
        int64, and the cuts: True at each of those indexes, else False.
        """
        if self._table is None:
            count = len(self.phrases)
            bounds = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, self.phrases), dtype=np.int64,
                                  count=count), out=bounds[1:])
            cuts = np.zeros(int(bounds[-1]) + 1, dtype=bool)
            cuts[bounds] = True
            self._table = (np.frombuffer(b"".join(self.phrases),
                                         dtype=np.uint8), bounds, cuts)
        return self._table


@dataclass(eq=False)
class EncodedText:
    """Codeword stream plus per-phrase stream offsets and text positions.

    id_view and position_view are memoryviews of phrase_ids and
    text_positions whose items read as Python ints, derived on
    construction for the per-phrase loops of a query. suffix_order
    fills in the memoryview _order_view of its result as well.
    """

    stream: bytes = field(repr=False)
    stream_offsets: np.ndarray = field(repr=False)
    text_positions: np.ndarray = field(repr=False)
    phrase_ids: np.ndarray = field(repr=False)
    _suffix_order: np.ndarray | None = field(default=None, repr=False)
    _order_view: memoryview | None = field(default=None, repr=False)
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
        ids, words = dictionary.ids, dictionary.codewords
        try:
            codewords = b"".join([words[ids[pattern[a - 1:b - 1]]]
                                  for a, b in zip(stable, stable[1:])])
        except KeyError:
            return []  # a phrase absent from the text cannot occur in it
        searches = [(codewords, len(stable) - 1, stable[-1])]
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


# Codeword ranges with at least this many candidates go to _verify_wide,
# which finishes fewer survivors than this with the phrase walkers. On
# 512 KiB of stdlib source (q=8, p=2, m=32, 4,000 patterns; 2 vCPU,
# Python 3.11, numpy 2.4) thresholds of 8, 16, 32, 64 and 128 gave mean
# locate times of 29.8, 26.5, 25.2, 25.4 and 26.3 us, against 48.0 us
# with the walkers alone; p50 stayed at 15.6-15.8 us.
_WIDE_MIN_CANDIDATES = 32


def _locate_by_codewords(dictionary, encoded, n, pattern, j1, searches,
                         stats):
    # Each search is (codeword string, phrases it covers, the 1-based
    # pattern offset the last of them ends before); its hits are
    # phrase-aligned stream suffixes that the string prefixes, with the
    # first of its phrases placed at pattern offset j1. A hit whose
    # phrase starts at text position s stands for the occurrence at
    # s - j1 + 1, which lies inside the text when j1 <= s <= last.
    if encoded._order_view is None:
        encoded.suffix_order()
    order, positions = encoded._order_view, encoded.position_view
    phrases, ids = dictionary.phrases, encoded.id_view
    last = n - len(pattern) + j1
    out = []
    total = inside = 0
    for codewords, covered, reached in searches:
        lo, hi = _prefix_range(encoded.stream, encoded._ordered_starts, 0,
                               len(order), codewords, encoded._fences)
        total += hi - lo
        if hi - lo >= _WIDE_MIN_CANDIDATES:
            found, checked = _verify_wide(dictionary, encoded, pattern, j1,
                                          covered, reached, lo, hi, last)
            out += found
            inside += checked
            continue
        for pi in order[lo:hi]:
            s = positions[pi]
            if j1 <= s <= last:
                inside += 1
                if _match_backward(phrases, ids, pi, pattern, j1 - 1) and \
                   _match_forward(phrases, ids, pi + covered, pattern,
                                  reached - 1):
                    out.append(s - j1 + 1)
    if stats is not None:
        stats.candidates += total
        stats.text_verifications += inside
    out.sort()
    return out


def _verify_wide(dictionary, encoded, pattern, j1, covered, reached, lo, hi,
                 last):
    """The occurrences of the hits at suffix ranks [lo, hi) of one search
    of _locate_by_codewords, and how many of them lie inside the text.

    The pattern bytes left of the codeword string, then right of it, are
    compared one column at a time by _compare_columns, nearest the
    string first. Fewer than _WIDE_MIN_CANDIDATES survivors are finished
    by the phrase walkers. No text is read.
    """
    positions = encoded.text_positions
    pis = encoded._suffix_order[lo:hi]
    starts = positions[pis]
    pis = pis[(starts >= j1) & (starts <= last)].astype(np.int64)
    inside = len(pis)
    # the occurrence lies in the text, so no step passes the first or
    # the last phrase
    pis, done = _compare_columns(dictionary, encoded, pattern,
                                 range(j1 - 2, -1, -1), pis, pis - 1)
    if done:
        pis, done = _compare_columns(dictionary, encoded, pattern,
                                     range(reached - 1, len(pattern)), pis,
                                     pis + covered)
    if done:
        return (positions[pis] - np.uint32(j1 - 1)).tolist(), inside
    phrases, ids, pos = (dictionary.phrases, encoded.id_view,
                         encoded.position_view)
    return [pos[pi] - j1 + 1 for pi in pis.tolist()
            if _match_backward(phrases, ids, pi, pattern, j1 - 1)
            and _match_forward(phrases, ids, pi + covered, pattern,
                               reached - 1)], inside


def _compare_columns(dictionary, encoded, pattern, columns, pis, k):
    """The candidates pis whose text agrees with pattern at each column
    of columns, a range of consecutive pattern offsets stepping away
    from the codeword string, and whether every column was compared:
    the loop stops once fewer than _WIDE_MIN_CANDIDATES are left.

    k holds, for each candidate, the text phrase that its first column
    lies in: the phrase next to the string. Each candidate keeps one
    column of a (3, count) array: pi, its text phrase k, and the index
    at of the current byte in the dictionary's bytes. A step that
    crosses a cut between dictionary phrases has left phrase k; k then
    moves to the next text phrase and at to that phrase's near end.
    """
    if not columns:
        return pis, True
    step = columns.step
    data, bounds, cuts = dictionary._byte_table()
    ends = bounds[1:]
    if step < 0:
        cuts = cuts[1:]  # at has left its phrase when at + 1 is a cut
    ids = encoded.phrase_ids
    pid = ids[k]
    state = np.stack((pis, k, bounds[pid] if step > 0 else ends[pid] - 1))
    for c in columns:
        if state.shape[1] < _WIDE_MIN_CANDIDATES:
            return state[0], False
        if c != columns[0]:  # step to column c
            _, k, at = state
            at += step
            moved = cuts[at].nonzero()[0]
            if len(moved):
                k[moved] += step
                pid = ids[k[moved]]
                at[moved] = bounds[pid] if step > 0 else ends[pid] - 1
        state = state.compress(data[state[2]] == pattern[c], axis=1)
    return state[0], True


# Every caller keeps only candidates whose occurrence lies inside the
# text (j1 <= s <= last), so neither walk passes the first or the last
# phrase.
def _match_backward(phrases, ids, pi, pattern, need):
    """Compare pattern[..need] against the text ending before phrase pi;
    ids reads the phrase ids in text order."""
    idx = pi - 1
    while need > 0:
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
    idx = pi
    while done < m:
        ph = phrases[ids[idx]]
        take = min(len(ph), m - done)
        if ph[:take] != pattern[done:done + take]:
            return False
        done += take
        idx += 1
    return True
