"""Shared brute-force oracles and input generators.

The oracles are deliberately naive re-statements of the definitions and
never share code with the implementations they check.
"""

from __future__ import annotations

import random
import struct
import zlib
from collections import Counter, deque

import numpy as np


def random_text(rng: random.Random, n: int, alphabet: int) -> bytes:
    return bytes(rng.randrange(alphabet) for _ in range(n))


def brute_minimizer(s: bytes, p: int) -> int:
    """Leftmost smallest p-gram by comparing every candidate."""
    grams = [(s[g:g + p], g + 1) for g in range(len(s) - p + 1)]
    smallest = min(g for g, _ in grams)
    return min(pos for g, pos in grams if g == smallest)


def reference_window_minimizer(s: bytes, p: int) -> int:
    """Reference for minimizer.window_minimizer: one pass over every
    p-gram, keeping the first strictly smaller one (1-based)."""
    best = 1
    best_gram = s[:p]
    for g in range(2, len(s) - p + 2):
        gram = s[g - 1:g - 1 + p]
        if gram < best_gram:
            best = g
            best_gram = gram
    return best


def brute_sampled(text: bytes, q: int, p: int) -> list[int]:
    """O(n*q*p) double loop over windows and offsets."""
    n = len(text)
    picked = set()
    for w in range(1, n - q + 2):
        best = w
        for g in range(w + 1, w + q - p + 1):  # p-gram starts in [w, w+q-p]
            if text[g - 1:g - 1 + p] < text[best - 1:best - 1 + p]:
                best = g
        picked.add(best)
    return sorted(picked)


def reference_sampled(text: bytes, q: int, p: int) -> list[int]:
    """Reference for minimizer.sampled_positions: a sliding-window
    minimum over the p-grams with a monotone deque, O(n*p).

    The deque keeps p-grams non-decreasing front to back, so its front
    is the leftmost minimum of the live window; equal grams are kept to
    preserve the leftmost tie-break.
    """
    out: list[int] = []
    cand: deque[tuple[int, bytes]] = deque()
    width = q - p
    for g in range(1, len(text) - p + 2):
        gram = text[g - 1:g - 1 + p]
        while cand and cand[-1][1] > gram:
            cand.pop()
        cand.append((g, gram))
        w = g - width
        if w >= 1:
            while cand[0][0] < w:
                cand.popleft()
            m = cand[0][0]
            # minimizer positions are non-decreasing window to window
            if not out or out[-1] != m:
                out.append(m)
    return out


def reference_gram_keys(text: bytes, p: int, count: int) -> np.ndarray:
    """Reference for minimizer._gram_keys: 8-byte chunks, last first.

    Each chunk of a gram is packed into one word; its key is the packed
    bytes when the whole gram fits 4 bytes, else the dense rank of its
    word combined with the key of the chunks after it, ranked again.
    """
    def ranks(words):
        return np.unique(words, return_inverse=True)[1].astype(np.uint64)

    arr = np.frombuffer(text, dtype=np.uint8).astype(np.uint64)
    keys = None
    for at in reversed(range(0, p, 8)):
        chunk = np.zeros(count, dtype=np.uint64)
        for t in range(at, min(at + 8, p)):
            chunk = (chunk << np.uint64(8)) | arr[t:t + count]
        if keys is not None:
            chunk = (ranks(chunk) << np.uint64(32)) | keys
        keys = chunk if p <= 4 else ranks(chunk)
    return keys


def slow_fnv1a(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time, as its specification states."""
    h = 14695981039346656037
    for b in data:
        h = h ^ b
        h = (h * 1099511628211) % (1 << 64)
    return h


def brute_group(text: bytes, sa, key: bytes) -> tuple[int, int] | None:
    """The rank range [lo, hi) of the sorted 1-based positions sa whose
    suffixes start with key, or None if none does: a scan of every
    suffix."""
    ranks = [r for r, pos in enumerate(int(v) for v in sa)
             if text[pos - 1:pos - 1 + len(key)] == key]
    return (ranks[0], ranks[-1] + 1) if ranks else None


def reference_groups(text: bytes, sa, k: int) -> dict[bytes, int]:
    """Reference for PrefixRangeTable.groups: the k-byte prefix of each
    sampled suffix with k bytes or more, mapped to its brute_group range
    packed as lo << 32 | hi."""
    keys = {text[pos - 1:pos - 1 + k] for pos in (int(v) for v in sa)
            if len(text) - pos + 1 >= k}
    return {key: lo << 32 | hi for key in keys
            for lo, hi in [brute_group(text, sa, key)]}


def reference_build_table(text: bytes, sa, k: int) -> np.ndarray:
    """Reference for hashindex.build_table's slots: one pass over the
    sampled suffixes in rank order, cutting a group wherever the k-byte
    prefix changes or a suffix shorter than k bytes intervenes, and
    emitting each group's (lo, hi) row as it closes.
    """
    n = len(text)
    rows = []
    run_key = None
    run_lo = 0
    for r, pos in enumerate(int(v) for v in sa):
        key = text[pos - 1:pos - 1 + k] if n - pos + 1 >= k else None
        if key != run_key:
            if run_key is not None:
                rows.append((run_lo, r))
            run_key, run_lo = key, r
    if run_key is not None:
        rows.append((run_lo, len(sa)))
    return np.array(rows, dtype=np.uint32).reshape(len(rows), 2)


def reference_annotate(positions) -> list[int]:
    """Reference for delta.annotate: one nibble per sampled position, in
    the given order: the distance back to the nearest smaller position,
    the one before it in the distinct positions sorted, 0 when there is
    none or it exceeds 15."""
    ranked = sorted(set(positions))
    before = dict(zip(ranked[1:], ranked))
    out = []
    for s in positions:
        gap = s - before[s] if s in before else 0
        out.append(gap if gap <= 15 else 0)
    return out


def brute_suffix_array(text: bytes) -> list[int]:
    """Comparison sort of all suffixes (implicit smallest sentinel)."""
    return sorted(range(1, len(text) + 1), key=lambda i: text[i - 1:])


def reference_suffix_sort(text: bytes) -> np.ndarray:
    """Reference for suffix_sort.build_full_sa: plain prefix doubling.

    One full lexsort of all suffixes per round; returns 0-based suffix
    starts in suffix order.
    """
    n = len(text)
    rank = np.frombuffer(text, dtype=np.uint8).astype(np.int32)
    shift = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int32)
        if shift < n:
            key2[:n - shift] = rank[shift:]
        order = np.lexsort((key2, rank))
        r1 = rank[order]
        r2 = key2[order]
        bump = np.empty(n, dtype=np.int32)
        bump[0] = 0
        bump[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        rank[order] = np.cumsum(bump, dtype=np.int32)
        if int(rank[order[-1]]) == n - 1:
            return order
        shift *= 2


def brute_locate(text: bytes, pattern: bytes) -> list[int]:
    """Position-by-position scan, independent of bytes.find."""
    m = len(pattern)
    return [i + 1 for i in range(len(text) - m + 1)
            if text[i:i + m] == pattern]


def reference_decode_ids(stream: bytes) -> list[int]:
    """Reference for the ids of phrase._split_stream: one byte at a time,
    accumulating 7 bits per byte until a byte with the high bit set ends
    the id.

    Raises ValueError when the stream ends inside a codeword.
    """
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
        raise ValueError("stream ends inside a codeword")
    return out


def reference_rebuild_positions(phrases: list[bytes], codewords: list[bytes],
                                stream: bytes):
    """Reference for phrase.rebuild_positions: walk the decoded ids,
    advancing the stream offset by each id's canonical codeword length
    and the text position by its phrase length.

    Returns (stream offsets, 1-based text positions, ids) as lists;
    raises ValueError for an id outside the dictionary.
    """
    ids = reference_decode_ids(stream)
    offsets, positions = [], []
    off = 0
    pos = 1
    for pid in ids:
        if pid >= len(phrases):
            raise ValueError(f"phrase id {pid} outside dictionary")
        offsets.append(off)
        positions.append(pos)
        off += len(codewords[pid])
        pos += len(phrases[pid])
    return offsets, positions, ids


def reference_encode_text(text: bytes, q: int, p: int,
                          sampled: list[int] | None = None):
    """Reference for phrase.encode_text: one bytes object per phrase
    occurrence, counted by a Counter, which keeps first-seen order, and
    ranked by a stable sort on decreasing count; each id's codeword is a
    tagged vbyte built digit by digit, and the stream is their join.

    The phrases start at sampled (reference_sampled by default), after
    an unsampled leading piece. Returns (phrases, ids, codewords,
    stream, stream offsets, 1-based text positions, phrase ids), the
    last three as lists.
    """
    if sampled is None:
        sampled = reference_sampled(text, q, p)
    starts = ([] if sampled[0] == 1 else [1]) + list(sampled)
    cuts = [s - 1 for s in starts] + [len(text)]
    raw = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    freq = Counter(raw)
    ranked = sorted(freq, key=freq.__getitem__, reverse=True)
    ids = {ph: i for i, ph in enumerate(ranked)}
    codewords = []
    for i in range(len(ranked)):
        digits = [0x80 | (i & 0x7F)]
        i >>= 7
        while i:
            digits.append(i & 0x7F)
            i >>= 7
        codewords.append(bytes(reversed(digits)))
    phrase_ids = [ids[ph] for ph in raw]
    offsets, at = [], 0
    for pid in phrase_ids:
        offsets.append(at)
        at += len(codewords[pid])
    stream = b"".join(codewords[pid] for pid in phrase_ids)
    return ranked, ids, codewords, stream, offsets, starts, phrase_ids


def reseal(data: bytes) -> bytes:
    """An index file with its header crc32 (bytes 36..39)
    recomputed over every other byte, so that a test's edit of the file
    reaches the check it targets instead of the crc's."""
    out = bytearray(data)
    struct.pack_into("<I", out, 36,
                     zlib.crc32(bytes(out[40:]), zlib.crc32(bytes(out[:36]))))
    return bytes(out)


def pack_fields(values, width: int) -> bytes:
    """Reference packer for index files: the fields as one little-endian
    number whose bits [i * width, (i + 1) * width) hold field i, written
    in whole bytes with zero bits on top."""
    bits = ""
    for v in values:
        assert 0 <= int(v) < 1 << width, (v, width)
        bits += format(int(v), f"0{width}b")[::-1]  # lowest bit first
    bits += "0" * (-len(bits) % 8)
    return int(bits[::-1] or "0", 2).to_bytes(len(bits) // 8, "little")


def unpack_fields(data: bytes, count: int, width: int) -> list[int]:
    """Reference unpacker: the first count width-bit fields that
    pack_fields wrote at the start of data."""
    size = -(-count * width // 8)
    bits = format(int.from_bytes(data[:size], "little"), f"0{8 * size}b")
    bits = bits[::-1]  # lowest bit first
    return [int(bits[i * width:(i + 1) * width][::-1], 2)
            for i in range(count)]


def offsets_span(data: bytes) -> tuple[int, int, int]:
    """(fields, field width in bits, end byte) of the offsets section of
    an index file: n' fields just wide enough for every offset 0..n-1
    (one bit at least) after the 48-byte header, 4 bits wider with the
    delta flag in a version-4 file, and no field when flag bit 3 says
    the file stores no offsets."""
    version, flags = struct.unpack_from("<2I", data, 4)
    n, count = struct.unpack_from("<QI", data, 24)
    if flags & 8:
        count = 0
    nibble = 4 if version == 4 and flags & 1 else 0
    width = max(1, (n - 1).bit_length()) + nibble
    return count, width, 48 + -(-count * width // 8)


def read_offsets(data: bytes) -> list[int]:
    """The offsets fields of an index file, version-4 nibbles included."""
    count, width, _ = offsets_span(data)
    return unpack_fields(data[48:], count, width)


def with_offsets(data: bytes, fields) -> bytes:
    """The index file data with its offsets fields replaced by fields,
    n' rewritten to their number, resealed."""
    _, width, end = offsets_span(data)
    head = bytearray(data[:48])
    struct.pack_into("<I", head, 32, len(fields))
    return reseal(bytes(head) + pack_fields(fields, width) + data[end:])


def phrase_file_with_a_moved_cut(text: bytes, q: int, p: int,
                                 rng: random.Random | None = None,
                                 moves: int = 1) -> bytes:
    """A phrase-only index file over text whose phrases start at the
    sampled positions but moves of them, each moved by a byte: the
    first cut that can move, or with rng random ones. Its phrases spell
    the text in 1 to q bytes each, n' counts their starts and the crc32
    matches, so it passes every check of load. Raises ValueError when
    fewer than moves cuts can move."""
    from samsami import SamplingParams, encode_text
    from samsami.core import SamsamiIndex
    from samsami.persistence import IndexBundle, serialized_bytes

    params = SamplingParams(q, p)
    cuts = reference_sampled(text, q, p)
    movable = set(range(1 if cuts[0] == 1 else 0, len(cuts)))  # never 1
    for _ in range(moves):
        bounds = ([] if cuts[0] == 1 else [1]) + cuts + [len(text) + 1]
        shift = len(bounds) - len(cuts) - 1  # cut i is bounds[i + shift]
        options = [(i, moved) for i in sorted(movable)
                   for moved in (cuts[i] - 1, cuts[i] + 1)
                   if moved > 1
                   and 0 < moved - bounds[i + shift - 1] <= q
                   and 0 < bounds[i + shift + 1] - moved <= q]
        if not options:
            raise ValueError("no cut of the text can move by a byte")
        i, moved = rng.choice(options) if rng else options[0]
        cuts[i] = moved
        movable.discard(i)  # a cut moved back would leave the file valid
    ascending = np.array(cuts, dtype=np.uint32)
    dictionary, encoded = encode_text(text, params, ascending)
    idx = SamsamiIndex(text=text, params=params, sa=None, n=len(text),
                       ascending=ascending)
    return serialized_bytes(IndexBundle(index=idx, dictionary=dictionary,
                                        encoded=encoded))


def as_version_4(data: bytes, text: bytes) -> bytes:
    """The version-4 file of the version-5 file data over text: with the
    delta flag, each offsets field widened by 4 bits above the position
    bits that hold its reference_annotate nibble; with the hash flag, the
    reference_build_table rows in rank order after the offsets, preceded
    by their count as a u64."""
    flags, _, _, k = struct.unpack_from("<4I", data, 8)
    _, b, at = offsets_span(data)
    fields = read_offsets(data)
    positions = [f + 1 for f in fields]
    out = bytearray(data[:48])
    struct.pack_into("<I", out, 4, 4)
    if flags & 1:
        nibbles = reference_annotate(positions)
        out += pack_fields([nib << b | f for f, nib in zip(fields, nibbles)],
                           b + 4)
    else:
        out += data[48:at]
    if flags & 2:
        rows = reference_build_table(text, positions, k)
        out += struct.pack("<Q", len(rows)) + rows.astype("<u4").tobytes()
    return reseal(bytes(out + data[at:]))


def as_version_3(data: bytes) -> bytes:
    """The version-3 file of the version-4 file data: each offsets field
    widened to a u32 holding its nibble in the top 4 bits, and each
    phrase length widened to a u32 in front of the phrase's bytes."""
    flags, q = struct.unpack_from("<2I", data, 8)
    count, width, at = offsets_span(data)
    fields = read_offsets(data)
    if flags & 1:
        b = width - 4
        fields = [(f >> b) << 28 | (f & ((1 << b) - 1)) for f in fields]
    out = bytearray(data[:48])
    struct.pack_into("<I", out, 4, 3)
    out += struct.pack(f"<{count}I", *fields)
    if flags & 2:
        (groups,) = struct.unpack_from("<Q", data, at)
        out += data[at:at + 8 + 8 * groups]
        at += 8 + 8 * groups
    if flags & 4:
        (phrases,) = struct.unpack_from("<I", data, at)
        at += 4
        sizes = unpack_fields(data[at:], phrases, q.bit_length())
        at += -(-phrases * q.bit_length() // 8)
        out += struct.pack("<I", phrases)
        for size in sizes:
            out += struct.pack("<I", size) + data[at:at + size]
            at += size
        out += data[at:]
    return reseal(bytes(out))


def as_version_2(data: bytes, text: bytes) -> bytes:
    """The version-2 file of the version-3 file data over text: the hash
    rows placed, in rank order, by the 64-bit FNV-1a of their keys and
    linear probing into the smallest power-of-two table >= 2 that they
    fill at most half of, preceded by its capacity; empty slots read
    0xFFFFFFFF."""
    k, _, count = struct.unpack_from("<IQI", data, 20)
    start = 48 + 4 * count
    sa = struct.unpack_from(f"<{count}I", data, 48)
    (groups,) = struct.unpack_from("<Q", data, start)
    rows = struct.unpack_from(f"<{2 * groups}I", data, start + 8)
    capacity = 2
    while capacity < 2 * groups:
        capacity *= 2
    slots = np.full((capacity, 2), 0xFFFFFFFF, dtype="<u4")
    for lo, hi in zip(rows[::2], rows[1::2]):
        at = (sa[lo] & ((1 << 28) - 1)) if data[8] & 1 else sa[lo]
        slot = slow_fnv1a(text[at:at + k]) % capacity
        while slots[slot, 0] != 0xFFFFFFFF:
            slot = (slot + 1) % capacity
        slots[slot] = lo, hi
    out = bytearray(data[:start] + struct.pack("<Q", capacity)
                    + slots.tobytes() + data[start + 8 + 8 * groups:])
    struct.pack_into("<I", out, 4, 2)
    return reseal(bytes(out))


def as_version_1(data: bytes, text: bytes) -> bytes:
    """The version-1 file of the version-2 file data over text: n'
    widened to a u64 and an FNV-1a of the text in place of the crc32
    and the digest."""
    flags, q, p, k = struct.unpack_from("<4I", data, 8)
    n, n_sampled = struct.unpack_from("<QI", data, 24)
    return struct.pack("<4s5I3Q", b"SSMI", 1, flags, q, p, k, n, n_sampled,
                       slow_fnv1a(text)) + data[48:]


def reference_prune_table(pattern: bytes, p: int, j: int) -> list[bool]:
    """Eager 16-entry prune table indexed by delta nibble: a running
    minimum over every p-gram left of offset j, marking the offsets
    whose p-gram is strictly smaller than all before it; distances with
    no pattern offset (0 and >= j) stay True."""
    table = [True] * 16
    low = None
    for g in range(1, j):
        gram = pattern[g - 1:g - 1 + p]
        smaller = low is None or gram < low
        if smaller:
            low = gram
        if j - g <= 15:
            table[j - g] = smaller
    return table


def reference_locate2(text: bytes, sa, deltas, pattern: bytes, q: int,
                      p: int) -> tuple[list[int], int, int, int]:
    """Reference for delta.locate2 with its query statistics: (hits,
    candidates, pruned, text_verifications). Every sampled suffix that
    starts with the pattern's part from its q-prefix minimizer on is a
    candidate; one inside the text whose delta the eager table rejects
    is pruned, any other with a non-empty skipped prefix is compared
    with the text."""
    j = reference_window_minimizer(pattern[:q], p)
    table = reference_prune_table(pattern, p, j)
    anchor = pattern[j - 1:]
    hits = []
    candidates = pruned = verified = 0
    for s, d in zip((int(v) for v in sa), (int(v) for v in deltas)):
        if text[s - 1:s - 1 + len(anchor)] != anchor:
            continue
        candidates += 1
        start = s - (j - 1)
        if start < 1:
            continue
        if not table[d]:
            pruned += 1
            continue
        if j > 1:
            verified += 1
        if text[start - 1:start - 1 + len(pattern)] == pattern:
            hits.append(start)
    return sorted(hits), candidates, pruned, verified


def reference_spasa_heads(text: bytes, sa) -> list[int]:
    """Reference for SparseSuffixArray.heads: each suffix's first 8
    bytes, zero-padded past the text end, read as a big-endian number."""
    return [int.from_bytes(text[s - 1:s + 7].ljust(8, b"\0"), "big")
            for s in (int(v) for v in sa)]


def reference_spasa_locate(spasa, pattern: bytes, stats=None) -> list[int]:
    """Reference for baselines.spasa_locate with its query statistics:
    one core._prefix_range over the whole suffix array for every
    alignment offset, with no fences and no head bounds, and each
    non-empty range verified by core._verify_candidates. It shares the
    search and the kernel with the code it checks on purpose: it pins
    down that bounding the alignments first changes neither the hits
    nor the statistics."""
    from samsami.core import _prefix_range, _verify_candidates

    text, sa = spasa.text, spasa.sa_view
    out = []
    for off in range(1, spasa.step + 1):
        ranks = _prefix_range(text, sa, 0, len(sa), pattern[off - 1:])
        if ranks[0] != ranks[1]:
            out += _verify_candidates(text, sa, pattern, off, ranks,
                                      stats, spasa.left)
    return sorted(out)
