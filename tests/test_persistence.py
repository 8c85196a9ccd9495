import hashlib
import io
import random
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samsami import (CorruptIndex, DeltaAnnotation, QueryStats,
                     SamplingParams, SamsamiError, TextMismatch,
                     UnsupportedFormat,
                     build_bundle, count, count2, decode_text,
                     encoded_locate, from_bundle, load, locate, locate2,
                     locate_hash, naive_count, naive_locate, save)
from samsami.persistence import IndexBundle, serialized_bytes
from samsami.phrase import encode_id

from helpers import (as_version_1, as_version_2, as_version_3, offsets_span,
                     pack_fields, random_text, read_offsets,
                     reference_rebuild_positions, reseal, unpack_fields,
                     with_offsets)

ABRA = b"abracadabra"
P42 = SamplingParams(4, 2)


def roundtrip(bundle, text):
    return load(io.BytesIO(serialized_bytes(bundle)), text)


def test_roundtrip_basic(tmp_path):
    bundle = build_bundle(ABRA, P42)
    path = tmp_path / "abra.ssmi"
    written = save(bundle, path)
    assert written == path.stat().st_size
    back = load(path, ABRA)
    assert list(back.index.sa) == [8, 1, 4, 6]
    assert back.index.params == P42
    assert locate(back.index, b"adab") == [6]
    assert count(back.index, b"abra") == 2


def test_header_layout():
    data = serialized_bytes(build_bundle(ABRA, P42))
    assert data[:4] == b"SSMI"
    version, flags, q, p, k = struct.unpack_from("<5I", data, 4)
    n, n_sampled, crc, digest = struct.unpack_from("<QIIQ", data, 24)
    assert (version, flags, q, p, k) == (4, 0, 4, 2, 0)
    assert (n, n_sampled) == (11, 4)
    assert crc == zlib.crc32(data[:36] + data[40:])
    assert digest.to_bytes(8, "little") == \
        hashlib.blake2b(ABRA, digest_size=8).digest()
    # positions 8,1,4,6 minus one, in 4 bits each: offsets up to 10
    assert offsets_span(data) == (4, 4, 50)
    assert data[48:] == bytes([0x07, 0x53])
    assert read_offsets(data) == [7, 0, 3, 5]


def test_delta_offsets_carry_nibbles():
    bundle = build_bundle(ABRA, P42, with_delta=True)
    data = serialized_bytes(bundle)
    assert offsets_span(data) == (4, 8, 52)  # the nibble on top
    assert data[48:] == bytes([0x27, 0x00, 0x33, 0x25])
    offsets = read_offsets(data)
    assert [off >> 4 for off in offsets] == [2, 0, 3, 2]
    assert [off & 15 for off in offsets] == [7, 0, 3, 5]
    back = roundtrip(bundle, ABRA)
    assert list(back.delta.delta) == [2, 0, 3, 2]
    assert locate2(back.index, back.delta, b"adab") == [6]


_DNA_TEXT = bytes(b"ACGT"[c] for c in random_text(random.Random(0xD17),
                                                   3000, 4))


@pytest.mark.parametrize("change", ["low bit of every nibble", "one nibble",
                                    "two nibbles swapped",
                                    "gaps above 15 as their low bits"])
def test_resealed_delta_nibbles_rejected(change):
    # Every low bit flipped would load unchecked and misreport the pruned
    # candidates of some 12-byte windows; answers never read the nibbles.
    q = 24 if change == "gaps above 15 as their low bits" else 8
    bundle = build_bundle(_DNA_TEXT, SamplingParams(q, 2), with_delta=True)
    nibbles = bundle.delta.delta.copy()
    if change == "low bit of every nibble":
        nibbles ^= 1
        windows = [_DNA_TEXT[i:i + 12] for i in range(0, 2989, 7)]
        kept, flipped = QueryStats(), QueryStats()
        for w in windows:
            expect = naive_count(_DNA_TEXT, w)
            assert count2(bundle.index, bundle.delta, w, kept) == expect
            assert count2(bundle.index, DeltaAnnotation(nibbles), w,
                          flipped) == expect
        assert flipped.pruned != kept.pruned
    elif change == "one nibble":
        nibbles[len(nibbles) // 2] = (nibbles[len(nibbles) // 2] + 1) % 16
    elif change == "two nibbles swapped":
        a, b = np.flatnonzero(nibbles != nibbles[0])[0], 0
        nibbles[a], nibbles[b] = nibbles[b], nibbles[a]
    else:
        # the unchanged file, whose gaps above 15 carry 0, loads
        assert load(io.BytesIO(serialized_bytes(bundle)), _DNA_TEXT)
        sa = bundle.index.sa.astype(np.int64)
        order = np.argsort(sa)
        gaps = np.diff(sa[order], prepend=sa[order][0])
        assert (gaps > 16).any()
        nibbles[order] = np.where(gaps > 15, gaps & 15, nibbles[order])
    data = serialized_bytes(bundle)
    _, width, _ = offsets_span(data)
    b = width - 4  # 12 bits for the 3,000-byte text
    assert b == 12
    fields = [(f & ((1 << b) - 1)) | (int(nib) << b)
              for f, nib in zip(read_offsets(data), nibbles)]
    with pytest.raises(CorruptIndex, match="delta nibbles differ"):
        load(io.BytesIO(with_offsets(data, fields)), _DNA_TEXT)


def test_roundtrip_hash():
    bundle = build_bundle(ABRA, P42, hash_k=2)
    back = roundtrip(bundle, ABRA)
    assert back.table.k == 2
    assert back.table.capacity == bundle.table.capacity
    assert locate_hash(back.index, back.table, b"adab") == [6]


def test_roundtrip_phrase():
    bundle = build_bundle(ABRA, P42, with_phrase=True)
    back = roundtrip(bundle, ABRA)
    assert back.dictionary.phrases == bundle.dictionary.phrases
    assert encoded_locate(back.dictionary, back.encoded, 11, b"racadab", P42) == [3]


def test_rebuild_is_byte_identical():
    rng = random.Random(0xB17E)
    for _ in range(10):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q, 200), rng.choice([4, 26]))
        first = serialized_bytes(build_bundle(
            text, SamplingParams(q, p), with_delta=True, hash_k=3,
            with_phrase=True))
        again = serialized_bytes(build_bundle(
            text, SamplingParams(q, p), with_delta=True, hash_k=3,
            with_phrase=True))
        assert first == again


def _golden_bundle():
    rng = random.Random(2718)
    words = [b"def", b"return", b"self", b"    ", b"\n", b"import", b"(", b")",
             b":", b"x", b"value", b"for", b"in", b"range", b"=", b"+", b"1", b"0"]
    out = bytearray()
    while len(out) < 65536:
        out += rng.choice(words) + b" "
    text = bytes(out[:65536])
    return text, build_bundle(text, SamplingParams(8, 2), with_delta=True,
                              hash_k=4, with_phrase=True)


def _with_hash_section(data: bytes, bundle, section: bytes) -> bytearray:
    """The file data of bundle with its hash section replaced."""
    start = offsets_span(data)[2]
    end = start + 8 + bundle.table.slots.nbytes
    return bytearray(data[:start] + section + data[end:])


def _with_rows(bundle, rows: np.ndarray) -> bytes:
    """The file of bundle with its hash rows replaced, resealed."""
    section = struct.pack("<Q", len(rows)) + rows.astype("<u4").tobytes()
    return reseal(_with_hash_section(serialized_bytes(bundle), bundle,
                                     section))


def test_bundle_bytes_golden():
    # The version-1 digest was recorded before the suffix sort and the
    # phrase encoder were rewritten, the version-2 one when the format
    # changed, the version-3 one when the hash section became rank
    # ordered rows, and the version-4 one when offsets and phrase
    # lengths were packed; any change that alters a single byte of an
    # index file changes them. The older files are rebuilt from the
    # version-4 one, so their digests still pin every section of it.
    text, bundle = _golden_bundle()
    data = serialized_bytes(bundle)
    assert hashlib.sha256(data).hexdigest() == (
        "3e929fa739b47b044e9b1b16f909778d"
        "d77bebce1d644a7107042d7e270a4b5b")
    v3 = as_version_3(data)
    assert hashlib.sha256(v3).hexdigest() == (
        "f34afc9c90e665fec508a89f7556677b"
        "e94de3cc6a7aa06b8ed051b12daff510")
    v2 = as_version_2(v3, text)
    assert hashlib.sha256(v2).hexdigest() == (
        "b857ba7b5867f4e689b2ace0a5c06e56"
        "3d759836cacc5a64c591939c8785520e")
    v1 = as_version_1(v2, text)
    assert hashlib.sha256(v1).hexdigest() == (
        "198bab637fd2c174ece0231cbe86a107"
        "910f94231e3ada33098e531baf8107c7")
    # older files are refused with a pointer to the cure
    for old in (v1, v2, v3):
        with pytest.raises(UnsupportedFormat,
                           match="rebuild the index from its text"):
            load(io.BytesIO(old), text)
    # the version-4 file answers as the built bundle
    back = load(io.BytesIO(data), text)
    rng = random.Random(0x01D)
    patterns = [text[i:i + m] for i, m in
                ((rng.randrange(len(text) - 40), rng.randint(15, 40))
                 for _ in range(50))] + [b"\xff" * 20]
    for name in ("samsami", "samsami2", "samsami-hash", "phrase"):
        built, loaded = from_bundle(bundle, name), from_bundle(back, name)
        for pattern in patterns:
            assert loaded.locate(pattern) == built.locate(pattern)


def test_roundtrip_preserves_queries_across_variants():
    rng = random.Random(0x10AD)
    for _ in range(20):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        n = rng.randint(max(q, 2 * q - p + 1), 250)
        text = random_text(rng, n, rng.choice([4, 26]))
        params = SamplingParams(q, p)
        bundle = build_bundle(text, params, with_delta=True, hash_k=2,
                              with_phrase=True)
        back = roundtrip(bundle, text)
        m = rng.randint(max(q - p + 2, q, 2 * q - p + 1), min(n, 2 * q + 20))
        i = rng.randint(1, n - m + 1)
        pattern = text[i - 1:i - 1 + m]
        expect = naive_locate(text, pattern)
        assert locate(back.index, pattern) == expect
        assert locate2(back.index, back.delta, pattern) == expect
        assert locate_hash(back.index, back.table, pattern) == expect
        assert encoded_locate(back.dictionary, back.encoded, n, pattern,
                              params) == expect


def test_loaded_index_rebuilds_the_left_context_column(monkeypatch):
    # the column is not in the file: load derives it again, and the
    # kernel (forced for every range) answers alike from both
    from samsami import core
    monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", 0)
    rng = random.Random(0x1EF7)
    text = b"\x00\x00" + bytes(rng.choice(b"\x00\x01\x02\xff")
                                for _ in range(2000))
    params = SamplingParams(8, 2)
    bundle = build_bundle(text, params, with_delta=True, hash_k=3)
    back = roundtrip(bundle, text)
    assert back.index.left.dtype == np.uint32
    assert back.index.left.tolist() == bundle.index.left.tolist()
    for _ in range(100):
        i = rng.randint(1, len(text) - 20)
        pattern = text[i - 1:i - 1 + rng.randint(9, 20)]
        expect = naive_locate(text, pattern)
        for b in (bundle, back):
            assert locate(b.index, pattern) == expect
            assert locate2(b.index, b.delta, pattern) == expect
            assert locate_hash(b.index, b.table, pattern) == expect


def test_bad_magic_rejected():
    data = bytearray(serialized_bytes(build_bundle(ABRA, P42)))
    data[:4] = b"XXXX"
    with pytest.raises(UnsupportedFormat):
        load(io.BytesIO(bytes(data)), ABRA)


def test_bad_version_rejected():
    data = bytearray(serialized_bytes(build_bundle(ABRA, P42)))
    struct.pack_into("<I", data, 4, 9)
    with pytest.raises(UnsupportedFormat):
        load(io.BytesIO(bytes(data)), ABRA)


def test_unknown_flags_rejected():
    data = bytearray(serialized_bytes(build_bundle(ABRA, P42)))
    struct.pack_into("<I", data, 8, 0x80)
    with pytest.raises(UnsupportedFormat):
        load(io.BytesIO(bytes(data)), ABRA)


def test_truncated_file_rejected():
    data = serialized_bytes(build_bundle(ABRA, P42))
    for cut in (3, 20, len(data) - 1):
        with pytest.raises(CorruptIndex):
            load(io.BytesIO(data[:cut]), ABRA)


def test_truncated_sections_rejected():
    hashed = serialized_bytes(build_bundle(ABRA, P42, hash_k=2))
    with pytest.raises(CorruptIndex, match="expected"):
        load(io.BytesIO(reseal(hashed[:-5])), ABRA)
    phrased = serialized_bytes(build_bundle(ABRA, P42, with_phrase=True))
    with pytest.raises(CorruptIndex, match="phrase stream"):
        load(io.BytesIO(reseal(phrased[:-1])), ABRA)


@pytest.mark.parametrize("build", [{}, {"hash_k": 2}, {"with_delta": True},
                                   {"with_phrase": True}],
                         ids=["offsets", "hash", "delta", "phrase"])
def test_bytes_after_the_last_section_rejected(build):
    # save writes no byte after the last section; resealed junk there
    # must not load, whichever section comes last
    data = serialized_bytes(build_bundle(ABRA, P42, **build))
    assert count(load(io.BytesIO(data), ABRA).index, b"abra") == 2
    with pytest.raises(CorruptIndex, match="4 bytes after the"):
        load(io.BytesIO(reseal(data + b"junk")), ABRA)


def test_position_past_text_end_rejected(monkeypatch):
    data = serialized_bytes(build_bundle(ABRA, P42))
    fields = read_offsets(data)
    for past in (11, 15):  # position 12 of an 11-byte text; the largest
        fields[0] = past   # 4-bit field
        with pytest.raises(CorruptIndex, match="beyond the end"):
            load(io.BytesIO(with_offsets(data, fields)), ABRA)
    # 32-bit fields, as in the file of a text over 2^31 bytes: the
    # largest offset wraps to position 0 in the u32 array
    from samsami import persistence
    monkeypatch.setattr(persistence, "_offset_bits", lambda n, delta=0: 32)
    wide = bytearray(serialized_bytes(build_bundle(ABRA, P42)))
    assert len(wide) == 48 + 4 * len(fields)
    load(io.BytesIO(bytes(wide)), ABRA)
    struct.pack_into("<I", wide, 48, 0xFFFFFFFF)
    with pytest.raises(CorruptIndex, match="beyond the end"):
        load(io.BytesIO(reseal(wide)), ABRA)


@pytest.mark.parametrize("width", range(1, 33))
def test_packed_fields_match_the_reference(width):
    from samsami.persistence import _pack, _unpack
    rng = random.Random(width)
    for count in (0, 1, 7, 8, 9, 16, 23):
        values = [rng.choice([0, (1 << width) - 1, rng.getrandbits(width)])
                  for _ in range(count)]
        packed = _pack(np.array(values, dtype=np.uint32), width)
        assert packed == pack_fields(values, width)
        assert unpack_fields(packed, count, width) == values
        assert _unpack(b"ab" + packed, 2, count, width).tolist() == values


_BOUNDARY_SIZES = [1, 2, 3, 4, 5, 1 << 16, (1 << 16) + 1]


@pytest.mark.parametrize("delta", [False, True], ids=["plain", "delta"])
@pytest.mark.parametrize("n", _BOUNDARY_SIZES)
def test_packed_offsets_roundtrip_at_width_boundaries(n, delta):
    # b = max(1, (n - 1).bit_length()) bits: 1, 1, 2, 2, 3, 16 and 17,
    # 4 more with the nibbles; q=1 keeps all n suffixes, so n' = 65,536
    # fills whole groups of 8 fields and the other n' end in a partial
    # one; q=3 keeps about half
    rng = random.Random(n)
    text = random_text(rng, n, 4)
    for params in {SamplingParams(1, 1), SamplingParams(min(n, 3), 1)}:
        bundle = build_bundle(text, params, with_delta=delta)
        data = serialized_bytes(bundle)
        count, width, end = offsets_span(data)
        assert count == bundle.index.n_sampled
        assert count == n or params.q > 1
        assert width == max(1, (n - 1).bit_length()) + 4 * delta
        assert len(data) == end == 48 + -(-count * width // 8)
        back = load(io.BytesIO(data), text)
        assert back.index.sa.dtype == np.uint32
        assert back.index.sa.tolist() == bundle.index.sa.tolist()
        if delta:
            assert back.delta.delta.tolist() == bundle.delta.delta.tolist()
        assert serialized_bytes(back) == data
        for i in range(0, n - params.q + 1, max(1, n // 7)):
            pattern = text[i:i + params.q + 2]
            assert from_bundle(back).count(pattern) == naive_count(text,
                                                                   pattern)
        # a field naming an offset at or past n is refused, whatever
        # its nibble; at n = 2**b no b-bit field can name one
        fields = read_offsets(data)
        b = width - 4 * delta
        for past in {v for v in (n, (1 << b) - 1) if n <= v < 1 << b}:
            edited = list(fields)
            edited[-1] = (edited[-1] >> b << b) | past
            with pytest.raises(CorruptIndex, match="beyond the end"):
                load(io.BytesIO(with_offsets(data, edited)), text)


@pytest.mark.parametrize("section", ["offsets", "phrase lengths"])
def test_set_padding_bit_rejected(section):
    # 3 offsets of 4 bits leave 4 padding bits in the section's last
    # byte; the 3 phrases' 3-bit lengths (q=4) leave 7 in theirs
    text = b"mississippi"
    bundle = build_bundle(text, P42, with_phrase=True)
    data = bytearray(serialized_bytes(bundle))
    count, width, end = offsets_span(data)
    assert (count, width) == (3, 4)
    at = end - 1
    if section == "phrase lengths":
        (phrases,) = struct.unpack_from("<I", data, end)
        assert phrases == 3
        at = end + 4 + 1
    assert load(io.BytesIO(reseal(data)), text)
    data[at] |= 0x80
    with pytest.raises(CorruptIndex, match="padding bits"):
        load(io.BytesIO(reseal(data)), text)


@pytest.mark.parametrize("delta", [False, True], ids=["plain", "delta"])
def test_offsets_section_one_byte_short_rejected(delta):
    data = serialized_bytes(build_bundle(ABRA, P42, with_delta=delta))
    assert offsets_span(data)[2] == len(data)
    with pytest.raises(CorruptIndex, match="expected"):
        load(io.BytesIO(reseal(data[:-1])), ABRA)
    # so is a header naming one field more than the section holds
    longer = bytearray(data)
    struct.pack_into("<I", longer, 32, 5)
    with pytest.raises(CorruptIndex, match="expected"):
        load(io.BytesIO(reseal(longer)), ABRA)


def _offsets_edited(text, params, edit, **build):
    """A saved bundle whose offsets section edit(list) rewrote, with n'
    and the crc32 to match."""
    data = serialized_bytes(build_bundle(text, params, **build))
    offsets = read_offsets(data)
    edit(offsets)
    return with_offsets(data, offsets)


@pytest.mark.parametrize("build", [{}, {"with_phrase": True}])
def test_dropped_position_one_rejected(build):
    # without the check the first file answers [4] for b"abca", where
    # the scan finds [1, 4]; the second, left with no offsets, counts 0
    for text, params in [(b"abcabcab", SamplingParams(4, 2)),
                         (b"abcab", SamplingParams(5, 1))]:
        assert 1 in build_bundle(text, params).index.sa
        data = _offsets_edited(text, params,
                               lambda offsets: offsets.remove(0), **build)
        with pytest.raises(CorruptIndex,
                           match="whether position 1 is sampled"):
            load(io.BytesIO(data), text)


def test_added_position_one_rejected():
    text = b"cabcabca"  # the first window, b"cabc", selects position 2
    params = SamplingParams(4, 2)
    data = _offsets_edited(text, params, lambda offsets: offsets.append(0))
    with pytest.raises(CorruptIndex, match="whether position 1 is sampled"):
        load(io.BytesIO(data), text)


def test_duplicated_offset_rejected():
    # sa 8, 5, 2 read as 8, 8, 2 would make count(b"ippi") answer 2
    # where the scan finds 1
    text = b"mississippi"

    def repeat_first(offsets):
        offsets[1] = offsets[0]

    data = _offsets_edited(text, P42, repeat_first)
    with pytest.raises(CorruptIndex, match="more than once"):
        load(io.BytesIO(data), text)


def test_window_longer_than_text_rejected():
    data = bytearray(serialized_bytes(build_bundle(ABRA, P42)))
    struct.pack_into("<I", data, 12, 12)  # q = 12 over an 11-byte text
    with pytest.raises(CorruptIndex, match="exceeds the 11-byte text"):
        load(io.BytesIO(reseal(data)), ABRA)


def test_text_mismatch_rejected():
    data = serialized_bytes(build_bundle(ABRA, P42))
    with pytest.raises(TextMismatch):
        load(io.BytesIO(data), b"abracadabrX")
    with pytest.raises(TextMismatch):
        load(io.BytesIO(data), b"abracadabra-longer")


_HASHED_TEXT = (b"abracadabra " * 55)[:660]


def _hashed_file(k_in_header: int | None = None, **build) -> bytearray:
    """A saved q=6, p=2 bundle over a 660-byte text, its header's k
    optionally rewritten."""
    bundle = build_bundle(_HASHED_TEXT, SamplingParams(6, 2), **build)
    data = bytearray(serialized_bytes(bundle))
    if k_in_header is not None:
        struct.pack_into("<I", data, 20, k_in_header)
    return data


def test_hash_flag_with_k_zero_rejected():
    # with k = 0 every hash probe would miss: 0 answers where 55 are due
    assert load(io.BytesIO(bytes(_hashed_file(hash_k=3))), _HASHED_TEXT)
    with pytest.raises(CorruptIndex, match="hash flag set but prefix length"):
        load(io.BytesIO(reseal(_hashed_file(0, hash_k=3))), _HASHED_TEXT)


def test_k_without_hash_flag_rejected():
    with pytest.raises(CorruptIndex, match="k=3 but no hash flag"):
        load(io.BytesIO(reseal(_hashed_file(3))), _HASHED_TEXT)
    with pytest.raises(CorruptIndex, match="k=3 but no hash flag"):
        load(io.BytesIO(reseal(_hashed_file(3, with_delta=True))),
             _HASHED_TEXT)


_RANDOM_HASHED_TEXT = random_text(random.Random(0x3A7), 400, 4)


@pytest.mark.parametrize("text, params, header_k", [
    # the rewritten k made count_hash(b"abracadabra") answer 0, not 55
    (_HASHED_TEXT, SamplingParams(6, 2), 2),
    (_RANDOM_HASHED_TEXT, SamplingParams(8, 2), 4),
    # no sampled suffix has k bytes, so the rows belong to no group
    (_HASHED_TEXT, SamplingParams(6, 2), len(_HASHED_TEXT) + 1),
    (_HASHED_TEXT, SamplingParams(6, 2), 2**31),
], ids=["lowered", "raised", "past-the-text", "2**31"])
def test_hash_k_rewritten_rejected(text, params, header_k):
    data = bytearray(serialized_bytes(build_bundle(text, params, hash_k=3)))
    assert load(io.BytesIO(bytes(data)), text).table.k == 3
    struct.pack_into("<I", data, 20, header_k)
    with pytest.raises(CorruptIndex,
                       match=f"groups of {header_k}-byte suffix prefixes"):
        load(io.BytesIO(reseal(data)), text)


def test_hash_k_raised_onto_equal_groups_loads_exact():
    # The 3-byte groups of this text are also its 4-byte groups, so a k
    # raised to 4 leaves the very file a k=4 build writes: each row's
    # key is read from the suffixes it holds, and nothing places a row
    # by its key, so the file answers as the text does.
    params = SamplingParams(6, 2)
    data = bytearray(serialized_bytes(build_bundle(_HASHED_TEXT, params,
                                                   hash_k=3)))
    struct.pack_into("<I", data, 20, 4)
    data = reseal(data)
    assert data == serialized_bytes(build_bundle(_HASHED_TEXT, params,
                                                 hash_k=4))
    back = load(io.BytesIO(data), _HASHED_TEXT)
    assert back.table.k == 4
    patterns = {_HASHED_TEXT[i:i + m] for i in range(12)
                for m in (8, 9, 11, 12, 23, 40)}
    patterns |= {pat[:x] + b"a" + pat[x + 1:] for pat in list(patterns)
                 for x in (0, 3, 7)}
    for pattern in patterns:
        assert locate_hash(back.index, back.table, pattern) == \
            naive_locate(_HASHED_TEXT, pattern)
    assert len(locate_hash(back.index, back.table, b"abracadabra")) == 55


def test_unary_hash_file_with_long_keys_loads_exact(tmp_path):
    # every sampled suffix of 1,024 bytes or more agrees with its
    # neighbour on all of them, so each pair stays equal through the
    # first 8 bytes and then through the 1,024-gram ranks, at build and
    # again at load
    text = b"a" * 4096
    bundle = build_bundle(text, SamplingParams(8, 2), hash_k=1024)
    assert len(bundle.table.slots) == 1
    save(bundle, tmp_path / "unary.ssmi")
    back = load(tmp_path / "unary.ssmi", text)
    assert back.table.slots.tolist() == bundle.table.slots.tolist()
    for m in (1030, 1031, 2048, 4095, 4096):
        for pattern in (b"a" * m, b"a" * (m - 1) + b"b",
                        b"b" + b"a" * (m - 1)):
            assert locate_hash(back.index, back.table, pattern) == \
                naive_locate(text, pattern)


# row 10 of this table's 3-byte groups ends where row 11 begins
_ROWS_TEXT = random_text(random.Random(0x3A8), 3000, 4)
_ROWS_BUNDLE = build_bundle(_ROWS_TEXT, SamplingParams(8, 2), hash_k=3)


def _edited_rows(change: str) -> np.ndarray:
    rows = _ROWS_BUNDLE.table.slots.astype(np.int64)
    i = 10
    assert rows[i, 1] == rows[i + 1, 0]
    if change == "out-of-order":
        rows[[i, i + 1]] = rows[[i + 1, i]]
    elif change == "overlapping":
        rows[i, 1] += 1
    elif change == "doubled":
        rows = np.insert(rows, i, rows[i], axis=0)
    else:  # emptied: the row taken out
        rows = np.delete(rows, i, axis=0)
    return rows


@pytest.mark.parametrize("change, message", [
    ("out-of-order", r"hash row 10 is \[466, 509\] where"),
    ("overlapping", r"hash row 10 is \[434, 467\] where"),
], ids=["out-of-order", "overlapping"])
def test_hash_rows_out_of_order_or_overlapping_rejected(change, message):
    # each row is still one whole group, or only overlaps its neighbour;
    # the rows no longer ascend disjointly
    with pytest.raises(CorruptIndex, match=message):
        load(io.BytesIO(_with_rows(_ROWS_BUNDLE, _edited_rows(change))),
             _ROWS_TEXT)


@pytest.mark.parametrize("change, message", [
    # patterns anchored on the missing group would answer 0
    ("emptied", "36 hash rows for the 37 groups of 3-byte"),
    # misses no answer, but the file is not one build_table writes
    ("doubled", "38 hash rows for the 37 groups of 3-byte"),
], ids=["emptied", "doubled"])
def test_hash_group_missing_or_doubled_rejected(change, message):
    with pytest.raises(CorruptIndex, match=message):
        load(io.BytesIO(_with_rows(_ROWS_BUNDLE, _edited_rows(change))),
             _ROWS_TEXT)


@pytest.mark.parametrize("shift", [0, -1])
def test_hash_slot_with_empty_range_rejected(shift):
    # every group the builder writes holds at least one suffix; rewrite
    # the hi of the last row to its lo, then to lo - 1
    bundle = build_bundle(_HASHED_TEXT, SamplingParams(6, 2), hash_k=3)
    data = bytearray(serialized_bytes(bundle))
    lo = int(bundle.table.slots[-1, 0])
    assert lo > 0
    struct.pack_into("<I", data, len(data) - 4, lo + shift)
    with pytest.raises(CorruptIndex,
                       match=rf"hash row 3 is \[{lo}, {lo + shift}\] where"):
        load(io.BytesIO(reseal(data)), _HASHED_TEXT)


def _phrase_section_start(bundle):
    # the phrase section follows the header and the offsets (no hash)
    assert bundle.table is None
    return offsets_span(serialized_bytes(bundle))[2]


def _with_phrase_section(bundle, phrases, stream, sizes=None):
    """bundle's file with a phrase section of phrases and stream, and
    the length column sizes in place of the phrases' lengths if given."""
    data = serialized_bytes(bundle)
    if sizes is None:
        sizes = [len(ph) for ph in phrases]
    width = bundle.index.params.q.bit_length()
    section = [struct.pack("<I", len(phrases)), pack_fields(sizes, width),
               *phrases, struct.pack("<Q", len(stream)), stream]
    return reseal(data[:_phrase_section_start(bundle)] + b"".join(section))


def _phrase_bundle(seed=0x9AD, n=2000):
    text = random_text(random.Random(seed), n, 4)
    return text, build_bundle(text, SamplingParams(8, 2), with_phrase=True)


def test_phrase_section_rewritten_unchanged_loads():
    text, bundle = _phrase_bundle()
    data = _with_phrase_section(bundle, bundle.dictionary.phrases,
                                bundle.encoded.stream)
    assert data == serialized_bytes(bundle)
    back = load(io.BytesIO(data), text)
    assert back.encoded.stream_offsets.tolist() == \
        bundle.encoded.stream_offsets.tolist()


def test_zero_padded_codeword_rejected():
    # A 0x00 continuation byte in front of a one-byte codeword decodes
    # to the same ids and text positions, so decode_text still restores
    # the text; but offsets advanced by the canonical codeword lengths
    # then point one byte early for every later phrase, and codeword
    # searches answer wrongly. The loader refuses the stream.
    text, bundle = _phrase_bundle()
    enc = bundle.encoded
    k = next(i for i in range(enc.phrase_count // 2, enc.phrase_count)
             if enc.phrase_ids[i] < 128)
    at = int(enc.stream_offsets[k])
    padded = enc.stream[:at] + b"\x00" + enc.stream[at:]
    # what the loader used to derive from it passes every older check
    offsets, positions, ids = reference_rebuild_positions(
        bundle.dictionary.phrases, bundle.dictionary.codewords, padded)
    assert ids == enc.phrase_ids.tolist()
    assert positions == enc.text_positions.tolist()
    assert offsets == enc.stream_offsets.tolist()
    with pytest.raises(CorruptIndex, match="leading zero"):
        load(io.BytesIO(_with_phrase_section(
            bundle, bundle.dictionary.phrases, padded)), text)


def test_duplicate_dictionary_phrase_rejected():
    # a second id for phrase 0, used by one of its occurrences, would
    # hide that occurrence from codeword searches
    text, bundle = _phrase_bundle()
    enc, phrases = bundle.encoded, bundle.dictionary.phrases
    k = int(np.flatnonzero(enc.phrase_ids == 0)[-1])
    at = int(enc.stream_offsets[k])
    stream = enc.stream[:at] + encode_id(len(phrases)) + enc.stream[at + 1:]
    data = _with_phrase_section(bundle, phrases + [phrases[0]], stream)
    with pytest.raises(CorruptIndex, match="twice"):
        load(io.BytesIO(data), text)


def test_phrases_off_the_sampled_positions_rejected():
    # two neighbouring phrases merged into one still spell the text,
    # but the merged phrase starts no sample
    text, bundle = _phrase_bundle()
    enc, phrases = bundle.encoded, bundle.dictionary.phrases
    k = enc.phrase_count // 2
    merged = phrases[enc.phrase_ids[k]] + phrases[enc.phrase_ids[k + 1]]
    assert merged not in bundle.dictionary.ids
    a, b = int(enc.stream_offsets[k]), int(enc.stream_offsets[k + 2])
    stream = enc.stream[:a] + encode_id(len(phrases)) + enc.stream[b:]
    data = _with_phrase_section(bundle, phrases + [merged], stream)
    with pytest.raises(CorruptIndex, match="sampled positions"):
        load(io.BytesIO(data), text)


def test_phrase_file_without_samples_rejected():
    # n' = 0 and no offsets: the phrase starts are checked against an
    # empty sampled set, which must reject the file, not raise IndexError
    text, bundle = _phrase_bundle()
    data = bytearray(serialized_bytes(bundle))
    del data[48:_phrase_section_start(bundle)]
    struct.pack_into("<I", data, 32, 0)
    with pytest.raises(CorruptIndex, match="sampled positions"):
        load(io.BytesIO(reseal(data)), text)


def test_misspelled_phrase_rejected():
    text, bundle = _phrase_bundle()
    phrases = list(bundle.dictionary.phrases)
    i = next(i for i, ph in enumerate(phrases)
             if ph[:-1] + b"x" not in bundle.dictionary.ids)
    phrases[i] = phrases[i][:-1] + b"x"
    data = _with_phrase_section(bundle, phrases, bundle.encoded.stream)
    with pytest.raises(CorruptIndex, match="spell"):
        load(io.BytesIO(data), text)


@pytest.mark.parametrize("change", ["zero", "above q", "swapped"])
def test_rewritten_phrase_length_rejected(change):
    text, bundle = _phrase_bundle()
    phrases = bundle.dictionary.phrases
    sizes = [len(ph) for ph in phrases]
    if change == "zero":
        sizes[len(sizes) // 2] = 0
    elif change == "above q":  # q=8 lengths have 4 bits, up to 15
        sizes[len(sizes) // 2] = 9
    else:  # the bytes stay, so the two phrases split differently
        i = next(i for i in range(1, len(sizes)) if sizes[i] != sizes[0])
        sizes[0], sizes[i] = sizes[i], sizes[0]
    data = _with_phrase_section(bundle, phrases, bundle.encoded.stream,
                                sizes)
    assert data != serialized_bytes(bundle)
    # swapped lengths are each in range: a later check sees the phrases
    message = None if change == "swapped" else r"phrase length outside 1\.\.8"
    with pytest.raises(CorruptIndex, match=message):
        load(io.BytesIO(data), text)


def test_phrase_count_beyond_section_rejected():
    text, bundle = _phrase_bundle()
    data = bytearray(serialized_bytes(bundle))
    struct.pack_into("<I", data, _phrase_section_start(bundle), 0xFFFFFFFF)
    with pytest.raises(CorruptIndex, match="exceeds the section"):
        load(io.BytesIO(reseal(data)), text)


_FUZZ_TEXT, _FUZZ_BUNDLE = _phrase_bundle(0xF022, 400)
_FUZZ_FILE = serialized_bytes(_FUZZ_BUNDLE)
_FUZZ_START = _phrase_section_start(_FUZZ_BUNDLE)
_FUZZ_PATTERNS = [_FUZZ_TEXT[i:i + m] for m in (15, 22) for i in
                  range(0, len(_FUZZ_TEXT) - m + 1, 5)] + [b"\xff" * 16]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, len(_FUZZ_FILE) - _FUZZ_START - 1),
                          st.integers(0, 255)), min_size=1, max_size=3))
def test_phrase_section_mutation_rejected_or_exact(edits):
    data = bytearray(_FUZZ_FILE)
    for at, value in edits:
        data[_FUZZ_START + at] = value
    try:
        back = load(io.BytesIO(reseal(data)), _FUZZ_TEXT)
    except SamsamiError:
        return
    assert decode_text(back.dictionary, back.encoded) == _FUZZ_TEXT
    for pattern in _FUZZ_PATTERNS:
        assert encoded_locate(back.dictionary, back.encoded, len(_FUZZ_TEXT),
                              pattern, _FUZZ_BUNDLE.index.params) == \
            naive_locate(_FUZZ_TEXT, pattern)


def test_crc_mismatch_rejected():
    data = bytearray(serialized_bytes(build_bundle(ABRA, P42, hash_k=2)))
    data[-1] ^= 1  # the top byte of the last hash row's hi
    with pytest.raises(CorruptIndex, match="crc32"):
        load(io.BytesIO(bytes(data)), ABRA)
    # the text digest is checked first, so a wrong text still reads as one
    with pytest.raises(TextMismatch):
        load(io.BytesIO(bytes(data)), b"abracadabrX")
    # past the crc, the structural checks read every hash byte
    with pytest.raises(CorruptIndex, match="hash row 2 is"):
        load(io.BytesIO(reseal(data)), ABRA)


def test_writer_rejects_sampled_count_beyond_u32():
    class Sized:
        def __len__(self):
            return 1 << 32

    stub = SimpleNamespace(text=b"", params=P42, n=1 << 33, sa=Sized())
    with pytest.raises(SamsamiError, match="u32"):
        serialized_bytes(IndexBundle(index=stub))


def test_writer_rejects_offsets_beyond_32_bits():
    # offset n - 1 needs 33 bits past 2**32 bytes, and 29 + 4 with delta
    sa = np.array([1], dtype=np.uint32)
    for n, delta in (((1 << 32) + 1, None), ((1 << 28) + 1,
                                            DeltaAnnotation(np.zeros(1)))):
        stub = SimpleNamespace(text=b"", params=P42, n=n, sa=sa)
        with pytest.raises(SamsamiError, match="32-bit offsets"):
            serialized_bytes(IndexBundle(index=stub, delta=delta))
    # at 2**32 bytes the offsets take 32 bits, and the file is written
    stub = SimpleNamespace(text=b"", params=P42, n=1 << 32, sa=sa)
    assert len(serialized_bytes(IndexBundle(index=stub))) == 48 + 4


_WHOLE_TEXT = random_text(random.Random(0x3A7), 400, 4)
_WHOLE_BUNDLE = build_bundle(_WHOLE_TEXT, SamplingParams(8, 2),
                             with_delta=True, hash_k=3, with_phrase=True)
_WHOLE_FILE = serialized_bytes(_WHOLE_BUNDLE)
_WHOLE_NAMES = ("samsami", "samsami2", "samsami-hash", "phrase")
_WHOLE_PATTERNS = [_WHOLE_TEXT[i:i + m] for m in (15, 22) for i in
                   range(0, len(_WHOLE_TEXT) - m + 1, 20)] + [b"\xff" * 16]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, len(_WHOLE_FILE) - 1),
                          st.integers(0, 255)), min_size=1, max_size=3))
def test_whole_file_mutation_rejected_or_exact(edits):
    # no reseal: a mutated file must be caught by whichever check comes
    # first, the header's own, the digest's or the crc32's
    data = bytearray(_WHOLE_FILE)
    for at, value in edits:
        data[at] = value
    try:
        back = load(io.BytesIO(bytes(data)), _WHOLE_TEXT)
    except SamsamiError:
        return
    for name in _WHOLE_NAMES:
        variant = from_bundle(back, name)
        for pattern in _WHOLE_PATTERNS:
            assert variant.locate(pattern) == naive_locate(_WHOLE_TEXT,
                                                           pattern)
