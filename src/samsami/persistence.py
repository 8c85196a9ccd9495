"""Index file serialization.

Layout of version 5, the one version written and read (all integers
little-endian):

    magic   4 bytes  "SSMI"
    version u32      5
    flags   u32      bit0 delta annotation, bit1 hash table, bit2 phrase
                     section, bit3 no offsets section (set exactly when
                     bit2 is and bit0 and bit1 are not)
    q, p, k u32      sampling params; k = 0 when no hash table
    n       u64      text length
    n'      u32      number of sampled suffixes, whether or not the
                     offsets are stored
    crc32   u32      zlib.crc32 of every file byte except these four
    digest  u64      blake2b of the text, 8-byte digest (the text itself
                     is not stored)
    [offsets] n' fields of b = max(1, (n - 1).bit_length()) bits, each
            position - 1, in suffix order; absent when bit3 is set
    [phrase] phrase count u32, then one q.bit_length()-bit length per
            phrase and the phrases' bytes back to back, both in id order,
            then stream length u64 + stream bytes

A run of w-bit fields is packed little-endian: field i holds bits
[i * w, (i + 1) * w) of the run read as one little-endian number, and
zero bits pad it to a whole byte. Eight fields fill exactly w bytes.

The delta nibbles and the hash groups are functions of the offsets, so
the file keeps only their flags and k, and load computes them through
annotate_index, the builder's own path.

A file with a phrase section and neither annotation stores no offsets:
the phrases start at the sampled positions, after an unsampled leading
piece when the first window does not select position 1. Load takes the
samples from the stream's phrase starts, drops position 1 unless the
first window selects it, and checks that n' of them remain. The index
sorts them into suffix order in its first search's step (core.prepare),
which raises CorruptIndex unless they equal the positions it samples
from the text. At load, as with stored offsets, only the crc32 guards
the cut positions: a resealed file whose phrases start elsewhere but
spell the text, with n' to match, loads, and its first samsami search
refuses it. So does the first phrase query of any loaded bundle, with
or without offsets: phrase.encoded_locate samples the text once and
raises CorruptIndex unless the phrase starts are the ones the samples
give.

Versions 1 to 4 are refused with UnsupportedFormat: since loading
needs the text, rebuilding the index from it replaces such a file.

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

from .core import SamsamiIndex, build, suffix_sa
from .delta import annotate
from .errors import CorruptIndex, SamsamiError, TextMismatch, UnsupportedFormat
from .hashindex import PrefixRangeTable, build_table
from .minimizer import SamplingParams, window_minimizer
from .phrase import (EncodedText, PhraseDictionary, _phrase_starts,
                     codeword_table, encode_text, rebuild_positions,
                     spell)

MAGIC = b"SSMI"
VERSION = 5
FLAG_DELTA = 1
FLAG_HASH = 2
FLAG_PHRASE = 4
FLAG_NO_OFFSETS = 8

_HEADER = struct.Struct("<4s5IQIIQ")
_CRC_AT = 36  # offset of the crc32 field in the header
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def text_checksum(text: bytes) -> int:
    """The header's digest of the text."""
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "little")


def offsets_file_bytes(n: int, count: int) -> int:
    """Bytes of the index file over an n-byte text that holds count
    offsets and no other section."""
    return _HEADER.size + _packed_size(count, _offset_bits(n))


def _offset_bits(n: int) -> int:
    """Bits in each offsets field of the index file of an n-byte text."""
    return max(1, (n - 1).bit_length())


def _packed_size(count: int, width: int) -> int:
    """Bytes taken by count packed fields of width bits each."""
    return -(-count * width // 8)


def _pack(values: np.ndarray, width: int) -> bytes:
    """values, each below 2**width, as packed width-bit fields.

    Each group of eight fields fills width bytes. Field j of a group
    starts at bit j * width of it: its value, shifted by that bit
    offset mod 8 into a 64-bit word, is ORed into the group's bytes
    from the offset's byte on, up to the group's end.
    """
    groups = -(-len(values) // 8)
    out = np.zeros((groups, width), dtype=np.uint8)
    for j in range(8):
        start, shift = divmod(j * width, 8)
        end = min(start + 8, width)
        word = values[j::8].astype("<u8") << np.uint64(shift)
        out[:len(word), start:end] |= \
            word.view(np.uint8).reshape(-1, 8)[:, :end - start]
    return out.reshape(-1)[:_packed_size(len(values), width)].tobytes()


def _unpack(data: bytes, at: int, count: int, width: int) -> np.ndarray:
    """The count packed width-bit fields at byte at of data, as uint32.

    Each of the eight field slots of a group is copied from one strided
    little-endian u64 view, a group's width bytes apart, then takes one
    shift and one mask. Raises
    CorruptIndex when the fields run past the end of data or a padding
    bit is set.
    """
    size = _packed_size(count, width)
    _need(data, at, size)
    if not count:
        return np.zeros(0, dtype=np.uint32)
    if data[at + size - 1] >> ((count * width - 1) % 8 + 1):
        raise CorruptIndex("padding bits set after the last packed field")
    groups = -(-count // 8)
    # the last group's views read up to 8 bytes past it, so they read a
    # copy of the fields with 8 zero bytes on
    buf = bytearray(groups * width + 8)
    buf[:size] = memoryview(data)[at:at + size]
    fields = np.empty((groups, 8), dtype=np.uint32)
    words = np.empty(groups, dtype=np.uint64)  # aligned, for in-place ops
    mask = np.uint64((1 << width) - 1)
    for j in range(8):
        start, shift = divmod(j * width, 8)
        np.copyto(words, np.ndarray((groups,), "<u8", buf, start,
                                    (width,)))
        words >>= np.uint64(shift)
        words &= mask
        fields[:, j] = words
    return fields.reshape(-1)[:count]


def _file_crc(data) -> int:
    """crc32 of an index file's bytes, skipping the crc32 field itself."""
    view = memoryview(data)
    return zlib.crc32(view[_CRC_AT + 4:], zlib.crc32(view[:_CRC_AT]))


@dataclass(eq=False)
class IndexBundle:
    """A loaded or freshly built index plus its optional annotations."""

    index: SamsamiIndex
    delta: np.ndarray | None = None
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
            if flags == FLAG_PHRASE:  # the phrase starts give the samples
                flags |= FLAG_NO_OFFSETS
        return flags


def build_bundle(text: bytes, params: SamplingParams, *, with_delta=False,
                 hash_k: int | None = None, with_phrase=False) -> IndexBundle:
    """Build the index and any requested annotations in one go."""
    return annotate_index(build(text, params), with_delta=with_delta,
                          hash_k=hash_k, with_phrase=with_phrase)


def annotate_index(idx: SamsamiIndex, *, with_delta=False,
                   hash_k: int | None = None, with_phrase=False,
                   ascending: np.ndarray | None = None) -> IndexBundle:
    """Bundle an index with the requested annotations of it.

    ascending, the index's positions sorted, spares the sort when the
    caller has it, as load does; else the nibbles and phrases share one.
    """
    bundle = IndexBundle(index=idx)
    if with_phrase and ascending is None:
        ascending = np.sort(idx.sa)
    if with_delta:
        bundle.delta = annotate(idx, ascending)
    if hash_k is not None:
        bundle.table = build_table(idx, hash_k)
    if with_phrase:
        # The index holds exactly the sampled positions, in suffix order.
        bundle.dictionary, bundle.encoded = encode_text(idx.text, idx.params,
                                                        ascending)
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
    idx, flags = bundle.index, bundle.flags
    sa = None if flags & FLAG_NO_OFFSETS else suffix_sa(idx)
    n_sampled = idx.n_sampled if sa is None else len(sa)
    if n_sampled > 0xFFFFFFFF:
        raise SamsamiError(f"{n_sampled} sampled suffixes overflow the "
                           "header's u32 count")
    k = bundle.table.k if bundle.table is not None else 0
    data = bytearray(_HEADER.pack(
        MAGIC, VERSION, flags, idx.params.q, idx.params.p, k, idx.n,
        n_sampled, 0, text_checksum(idx.text)))

    width = _offset_bits(idx.n)
    if width > 32:
        raise SamsamiError(f"a {idx.n}-byte text overflows the index "
                           "file's 32-bit offsets")
    if sa is not None:
        offsets = sa.astype(np.uint32)
        offsets -= np.uint32(1)
        data += _pack(offsets, width)

    if bundle.dictionary is not None:
        phrases = bundle.dictionary.phrases
        data += _U32.pack(len(phrases))
        sizes = np.fromiter(map(len, phrases), dtype=np.uint32,
                            count=len(phrases))
        data += _pack(sizes, idx.params.q.bit_length())
        data += b"".join(phrases)
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
    if flags & ~(FLAG_DELTA | FLAG_HASH | FLAG_PHRASE | FLAG_NO_OFFSETS):
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
    if flags & FLAG_HASH and k < 1:
        raise CorruptIndex(f"hash flag set but prefix length k={k}")
    if not flags & FLAG_HASH and k:
        raise CorruptIndex(f"prefix length k={k} but no hash flag")
    if (flags & FLAG_NO_OFFSETS
            and flags & (FLAG_DELTA | FLAG_HASH | FLAG_PHRASE) != FLAG_PHRASE):
        raise CorruptIndex(f"flags {flags:#x} omit the offsets that only a "
                           "phrase section without annotations can spare")
    width = _offset_bits(n)
    if width > 32:
        raise CorruptIndex(f"a {n}-byte text overflows the 32-bit offsets")
    # Only the first window can select position 1, and no later check
    # sees it: the phrase starts are the same with or without it.
    first_sampled = window_minimizer(text[:q], p) == 1

    at = _HEADER.size
    if flags & FLAG_NO_OFFSETS:
        dictionary, encoded = _read_phrases(data[at:], text, q)
        # the phrase starts are the ascending samples, after a leading
        # piece at position 1 unless the first window selects it
        ascending = encoded.text_positions[0 if first_sampled else 1:]
        if len(ascending) != n_sampled:
            raise CorruptIndex(f"the phrases start {len(ascending)} sampled "
                               f"positions, the header counts {n_sampled}")
        idx = SamsamiIndex(text=text, params=params, sa=None, n=n,
                           ascending=ascending)
        return IndexBundle(index=idx, dictionary=dictionary, encoded=encoded)

    # the fields become the positions in place
    positions = _unpack(data, at, n_sampled, width)
    at += _packed_size(n_sampled, width)
    # at 32 bits, offset 0xFFFFFFFF wraps to position 0
    positions += np.uint32(1)
    ascending = np.sort(positions)
    if len(ascending) and (int(ascending[-1]) > n or int(ascending[0]) == 0):
        raise CorruptIndex("offset beyond the end of the text")
    # a position named twice would count its occurrences twice
    if (ascending[1:] == ascending[:-1]).any():
        raise CorruptIndex("offsets name a position more than once")
    if (len(ascending) > 0 and int(ascending[0]) == 1) != first_sampled:
        raise CorruptIndex("offsets disagree with the first window on "
                           "whether position 1 is sampled")

    idx = SamsamiIndex(text=text, params=params, sa=positions, n=n)
    bundle = annotate_index(idx, with_delta=bool(flags & FLAG_DELTA),
                            hash_k=k if flags & FLAG_HASH else None,
                            ascending=ascending)

    if flags & FLAG_PHRASE:
        # the phrase section is the file's last: it runs to the end
        bundle.dictionary, bundle.encoded = _read_phrases(data[at:], text, q)
        if not np.array_equal(bundle.encoded.text_positions,
                              _phrase_starts(ascending)):
            raise CorruptIndex("phrase starts differ from the sampled "
                               "positions")
    elif at != len(data):
        raise CorruptIndex(f"{len(data) - at} bytes after the last section")
    return bundle


def _read_phrases(buf: bytes, text: bytes, q: int,
                  ) -> tuple[PhraseDictionary, EncodedText]:
    """Parse a phrase section over text, sampled with windows of q bytes.

    Besides decoding, the section must give each phrase 1 to q bytes,
    name each phrase once, and spell the text byte for byte through
    spell, decode_text's gather. A section that passes, and whose
    phrases start at the sampled positions (after an unsampled leading
    piece; the first phrase query checks them), is the encoder's output
    up to the numbering of its phrases, so phrase queries answer as on
    the bundle that was saved.
    """
    if len(buf) < 4:
        raise CorruptIndex("phrase section truncated before its count")
    (count,) = _U32.unpack_from(buf)
    at = 4 + _packed_size(count, q.bit_length())
    # every phrase has a byte at least
    if at + count + 8 > len(buf):
        raise CorruptIndex(f"phrase count {count} exceeds the section")
    sizes = _unpack(buf, 4, count, q.bit_length()).astype(np.int64)
    if count and (sizes.min() == 0 or sizes.max() > q):
        raise CorruptIndex(f"phrase length outside 1..{q}")
    # offset in buf of each phrase's first byte, by id
    first = at + np.cumsum(sizes) - sizes
    at += int(sizes.sum())
    _need(buf, at, 8)
    phrases = [buf[lo:lo + size]
               for lo, size in zip(first.tolist(), sizes.tolist())]
    (stream_len,) = _U64.unpack_from(buf, at)
    at += 8
    if at + stream_len > len(buf):
        raise CorruptIndex(f"phrase stream of {stream_len} bytes runs past "
                           "the end of the file")
    if at + stream_len < len(buf):
        raise CorruptIndex(f"{len(buf) - at - stream_len} bytes after the "
                           "phrase stream")
    stream = buf[at:at + stream_len]

    ids = dict(zip(phrases, range(count)))
    if len(ids) != count:
        raise CorruptIndex("phrase dictionary holds a phrase twice")
    dictionary = PhraseDictionary(phrases=phrases, ids=ids,
                                  codewords=codeword_table(count))
    try:
        encoded = rebuild_positions(dictionary, stream, sizes)
    except SamsamiError as exc:
        raise CorruptIndex(f"phrase stream does not decode: {exc}") from exc

    # one block in memory at a time; the first that differs ends the check
    target, at = np.frombuffer(text, dtype=np.uint8), 0
    for piece in spell(np.frombuffer(buf, dtype=np.uint8), first, sizes,
                       encoded):
        if not np.array_equal(piece, target[at:at + len(piece)]):
            raise CorruptIndex("phrases do not spell the text")
        at += len(piece)
    if at != len(text):
        raise CorruptIndex("phrase stream does not span the text")
    encoded.text = text  # what phrase queries check their candidates against
    return dictionary, encoded
