"""Index file serialization.

Layout of version 2, the one version written and read (all integers
little-endian):

    magic   4 bytes  "SSMI"
    version u32      2
    flags   u32      bit0 delta nibbles, bit1 hash table, bit2 phrase section
    q, p, k u32      sampling params; k = 0 when no hash table
    n       u64      text length
    n'      u32      number of sampled suffixes
    crc32   u32      zlib.crc32 of every file byte except these four
    digest  u64      blake2b of the text, 8-byte digest (the text itself
                     is not stored)
    offsets n' * u32 (delta << 28) | (position - 1); delta 0 unless bit0
    [hash]  capacity u64, then capacity * (lo u32, hi u32); empty slot
            lo = hi = 0xFFFFFFFF
    [phrase] phrase count u32, then per phrase length u32 + raw bytes in
            id order, then stream length u64 + stream bytes

Version 1, whose only check was an FNV-1a of the text, is rejected
with UnsupportedFormat: since loading needs the text, rebuilding the
index from it replaces such a file.

Loading requires the original text (digest-verified); a rebuilt index
over the same text and params serializes to identical bytes.
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .core import SamsamiIndex, build
from .delta import (DELTA_SHIFT, MAX_DELTA_TEXT, POS_MASK, DeltaAnnotation,
                    annotate)
from .errors import CorruptIndex, SamsamiError, TextMismatch, UnsupportedFormat
from .hashindex import EMPTY_SLOT, PrefixRangeTable, build_table
from .minimizer import SamplingParams, window_minimizer
from .phrase import (EncodedText, PhraseDictionary, _phrase_starts,
                     codeword_table, encode_text, gather_pieces,
                     rebuild_positions)

MAGIC = b"SSMI"
VERSION = 2
FLAG_DELTA = 1
FLAG_HASH = 2
FLAG_PHRASE = 4

_HEADER = struct.Struct("<4s5IQIIQ")
_CRC_AT = 36  # offset of the crc32 field in the header
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def text_checksum(text: bytes) -> int:
    """The header's digest of the text."""
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "little")


def _file_crc(data) -> int:
    """crc32 of an index file's bytes, skipping the crc32 field itself."""
    view = memoryview(data)
    return zlib.crc32(view[_CRC_AT + 4:], zlib.crc32(view[:_CRC_AT]))


@dataclass(eq=False)
class IndexBundle:
    """A loaded or freshly built index plus its optional annotations."""

    index: SamsamiIndex
    delta: DeltaAnnotation | None = None
    table: PrefixRangeTable | None = None
    dictionary: PhraseDictionary | None = None
    encoded: EncodedText | None = None

    @property
    def flags(self) -> int:
        flags = 0
        if self.delta is not None:
            flags |= FLAG_DELTA
        if self.table is not None:
            flags |= FLAG_HASH
        if self.dictionary is not None:
            flags |= FLAG_PHRASE
        return flags


def build_bundle(text: bytes, params: SamplingParams, *, with_delta=False,
                 hash_k: int | None = None, with_phrase=False) -> IndexBundle:
    """Build the index and any requested annotations in one go."""
    return annotate_index(build(text, params), with_delta=with_delta,
                          hash_k=hash_k, with_phrase=with_phrase)


def annotate_index(idx: SamsamiIndex, *, with_delta=False,
                   hash_k: int | None = None, with_phrase=False) -> IndexBundle:
    """Bundle a built index with the requested annotations of it."""
    bundle = IndexBundle(index=idx)
    if with_delta:
        bundle.delta = annotate(idx)
    if hash_k is not None:
        bundle.table = build_table(idx, hash_k)
    if with_phrase:
        # The index holds exactly the sampled positions, in suffix order.
        bundle.dictionary, bundle.encoded = encode_text(idx.text, idx.params,
                                                        np.sort(idx.sa))
    return bundle


def save(bundle: IndexBundle, dest) -> int:
    """Serialize to a path or binary file object; returns bytes written."""
    if hasattr(dest, "write"):
        return _write(bundle, dest)
    with open(dest, "wb") as fh:
        return _write(bundle, fh)


def serialized_bytes(bundle: IndexBundle) -> bytes:
    buf = io.BytesIO()
    _write(bundle, buf)
    return buf.getvalue()


def _write(bundle: IndexBundle, fh) -> int:
    idx = bundle.index
    n_sampled = len(idx.sa)
    if n_sampled > 0xFFFFFFFF:
        raise SamsamiError(f"{n_sampled} sampled suffixes overflow the "
                           "header's u32 count")
    k = bundle.table.k if bundle.table is not None else 0
    data = bytearray(_HEADER.pack(
        MAGIC, VERSION, bundle.flags, idx.params.q, idx.params.p, k, idx.n,
        n_sampled, 0, text_checksum(idx.text)))

    offsets = idx.sa.astype(np.uint32) - np.uint32(1)
    if bundle.delta is not None:
        nibbles = bundle.delta.delta.astype(np.uint32)
        offsets = offsets | (nibbles << np.uint32(DELTA_SHIFT))
    data += offsets.astype("<u4").tobytes()

    if bundle.table is not None:
        data += _U64.pack(bundle.table.capacity)
        data += bundle.table.slots.astype("<u4").tobytes()

    if bundle.dictionary is not None:
        phrases = bundle.dictionary.phrases
        data += _U32.pack(len(phrases))
        for ph in phrases:
            data += _U32.pack(len(ph))
            data += ph
        data += _U64.pack(len(bundle.encoded.stream))
        data += bundle.encoded.stream

    _U32.pack_into(data, _CRC_AT, _file_crc(data))
    return fh.write(data)


def load(source, text: bytes) -> IndexBundle:
    """Read an index file back, re-attaching the text it was built from."""
    if hasattr(source, "read"):
        return _read(source.read(), text)
    with open(source, "rb") as fh:
        return _read(fh.read(), text)


def _need(data: bytes, at: int, count: int) -> None:
    """Raise CorruptIndex unless count bytes follow offset at."""
    if at + count > len(data):
        raise CorruptIndex(f"expected {count} bytes, file ends after "
                           f"{len(data) - at}")


def _read(data: bytes, text: bytes) -> IndexBundle:
    if len(data) < _HEADER.size:
        raise CorruptIndex("file shorter than the fixed header")
    magic, version = struct.unpack_from("<4sI", data)
    if magic != MAGIC:
        raise UnsupportedFormat(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedFormat(f"unsupported version {version}; rebuild "
                                "the index from its text")
    (_, _, flags, q, p, k, n, n_sampled, crc,
     checksum) = _HEADER.unpack_from(data)
    if flags & ~(FLAG_DELTA | FLAG_HASH | FLAG_PHRASE):
        raise UnsupportedFormat(f"unknown flag bits in {flags:#x}")
    if n != len(text):
        raise TextMismatch(f"index built over {n} bytes, text has {len(text)}")
    if checksum != text_checksum(text):
        raise TextMismatch("text checksum does not match the index header")
    if crc != _file_crc(data):
        raise CorruptIndex("file crc32 does not match the header")
    try:
        params = SamplingParams(q, p)
    except SamsamiError as exc:
        raise CorruptIndex(f"invalid sampling params in header: {exc}") from exc
    if q > n:
        raise CorruptIndex(f"window length q={q} exceeds the {n}-byte text")
    if flags & FLAG_DELTA and n > MAX_DELTA_TEXT:
        raise CorruptIndex("delta flag set but text exceeds the packed limit")
    if flags & FLAG_HASH and k < 1:
        raise CorruptIndex(f"hash flag set but prefix length k={k}")
    if not flags & FLAG_HASH and k:
        raise CorruptIndex(f"prefix length k={k} but no hash flag")

    at = _HEADER.size
    _need(data, at, 4 * n_sampled)
    packed = np.frombuffer(data, dtype="<u4", count=n_sampled, offset=at)
    at += 4 * n_sampled
    if flags & FLAG_DELTA:
        positions = (packed & np.uint32(POS_MASK)) + np.uint32(1)
        nibbles = (packed >> np.uint32(DELTA_SHIFT)).astype(np.uint8)
    else:
        # offset 0xFFFFFFFF wraps to position 0
        positions = packed + np.uint32(1)
        nibbles = None
    if len(positions) and (int(positions.max()) > n
                           or int(positions.min()) == 0):
        raise CorruptIndex("offset beyond the end of the text")
    # Only the first window can select position 1, and no later check
    # sees it: the phrase starts are the same with or without it.
    if bool((positions == 1).any()) != (window_minimizer(text[:q], p) == 1):
        raise CorruptIndex("offsets disagree with the first window on "
                           "whether position 1 is sampled")

    idx = SamsamiIndex(text=text, params=params, sa=positions, n=n)
    bundle = IndexBundle(index=idx)
    if nibbles is not None:
        bundle.delta = DeltaAnnotation(delta=nibbles)

    if flags & FLAG_HASH:
        _need(data, at, 8)
        (capacity,) = _U64.unpack_from(data, at)
        at += 8
        if capacity < 2 or capacity & (capacity - 1):
            raise CorruptIndex(f"hash capacity {capacity} not a power of two")
        _need(data, at, 8 * capacity)
        slots = np.frombuffer(data, dtype="<u4", count=2 * capacity, offset=at)
        slots = slots.reshape(capacity, 2).copy()
        at += 8 * capacity
        used = slots[:, 0] != EMPTY_SLOT
        lo, hi = slots[used].T
        if (hi > n_sampled).any():
            raise CorruptIndex("hash range beyond the sampled array")
        if (lo >= hi).any():
            raise CorruptIndex("hash range with lo >= hi")
        # linear probing ends only at an empty slot; the builder keeps
        # the load factor at or below one half
        occupied = int(np.count_nonzero(used))
        if occupied > capacity // 2:
            raise CorruptIndex(f"hash table has {occupied} of {capacity} "
                               "slots occupied, above the 0.5 load factor")
        bundle.table = PrefixRangeTable(k=k, capacity=int(capacity), slots=slots)

    if flags & FLAG_PHRASE:
        # the phrase section is the file's last: it runs to the end
        bundle.dictionary, bundle.encoded = _read_phrases(data[at:], idx)
    return bundle


def _read_phrases(buf: bytes, idx: SamsamiIndex,
                  ) -> tuple[PhraseDictionary, EncodedText]:
    """Parse a phrase section and check it against the loaded index.

    Besides decoding, the section must name each phrase once, start its
    phrases exactly at the index's sampled positions (after an unsampled
    leading piece), and spell the text byte for byte. A section that
    passes is the encoder's output up to the numbering of its phrases,
    so phrase queries answer as on the bundle that was saved.
    """
    if len(buf) < 4:
        raise CorruptIndex("phrase section truncated before its count")
    (count,) = _U32.unpack_from(buf)
    if 4 + 4 * count + 8 > len(buf):
        raise CorruptIndex(f"phrase count {count} exceeds the section")
    phrases = []
    at = 4
    unpack = _U32.unpack_from
    try:
        for _ in range(count):
            (size,) = unpack(buf, at)
            at += 4
            phrases.append(buf[at:at + size])
            at += size
        (stream_len,) = _U64.unpack_from(buf, at)
    except struct.error:
        raise CorruptIndex("phrase dictionary runs past the end of the "
                           "file") from None
    at += 8
    if at + stream_len > len(buf):
        raise CorruptIndex(f"phrase stream of {stream_len} bytes runs past "
                           "the end of the file")
    stream = buf[at:at + stream_len]

    ids = dict(zip(phrases, range(count)))
    if len(ids) != count:
        raise CorruptIndex("phrase dictionary holds a phrase twice")
    dictionary = PhraseDictionary(phrases=phrases, ids=ids,
                                  codewords=codeword_table(count))
    try:
        encoded = rebuild_positions(dictionary, stream)
    except SamsamiError as exc:
        raise CorruptIndex(f"phrase stream does not decode: {exc}") from exc

    sizes = np.fromiter(map(len, phrases), dtype=np.int64, count=count)
    span = 0
    if encoded.phrase_count:
        span = (int(encoded.text_positions[-1]) - 1
                + int(sizes[encoded.phrase_ids[-1]]))
    if span != idx.n:
        raise CorruptIndex("phrase stream does not span the text")
    if not np.array_equal(encoded.text_positions,
                          _phrase_starts(np.sort(idx.sa))):
        raise CorruptIndex("phrase starts differ from the sampled positions")
    # offset in buf of each phrase's first byte, by id
    first = 8 + 4 * np.arange(count, dtype=np.int64) + np.cumsum(sizes) - sizes
    if not _spells(buf, first, sizes, encoded, idx.text):
        raise CorruptIndex("phrases do not spell the text")
    return dictionary, encoded


_SPELL_BLOCK = 1 << 15  # phrases compared per step, to bound the temporaries


def _spells(buf: bytes, first: np.ndarray, sizes: np.ndarray,
            encoded: EncodedText, text: bytes) -> bool:
    """Whether the phrases of encoded, gathered from buf where first
    says each id's bytes begin, spell text byte for byte."""
    section = np.frombuffer(buf, dtype=np.uint8)
    target = np.frombuffer(text, dtype=np.uint8)
    for lo in range(0, encoded.phrase_count, _SPELL_BLOCK):
        ids = encoded.phrase_ids[lo:lo + _SPELL_BLOCK]
        starts = encoded.text_positions[lo:lo + _SPELL_BLOCK]
        spelled = gather_pieces(section, first[ids], sizes[ids], starts)
        at = int(starts[0]) - 1
        if not np.array_equal(spelled, target[at:at + len(spelled)]):
            return False
    return True
