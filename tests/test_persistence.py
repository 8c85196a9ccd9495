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

from samsami import (CorruptIndex, DeltaAnnotation, SamplingParams,
                     SamsamiError, TextMismatch, UnsupportedFormat,
                     build_bundle, count, count2, decode_text,
                     encoded_locate, from_bundle, load, locate, locate2,
                     locate_hash, naive_count, naive_locate, save)
from samsami.persistence import IndexBundle, serialized_bytes
from samsami.phrase import encode_id

from helpers import (random_text, reference_rebuild_positions, reseal,
                     slow_fnv1a)

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
    assert (version, flags, q, p, k) == (2, 0, 4, 2, 0)
    assert (n, n_sampled) == (11, 4)
    assert crc == zlib.crc32(data[:36] + data[40:])
    assert digest.to_bytes(8, "little") == \
        hashlib.blake2b(ABRA, digest_size=8).digest()
    offsets = struct.unpack_from("<4I", data, 48)
    assert offsets == (7, 0, 3, 5)  # positions 8,1,4,6 minus one


def test_delta_offsets_carry_nibbles():
    bundle = build_bundle(ABRA, P42, with_delta=True)
    data = serialized_bytes(bundle)
    offsets = struct.unpack_from("<4I", data, 48)
    assert [off >> 28 for off in offsets] == [2, 0, 3, 2]
    assert [off & ((1 << 28) - 1) for off in offsets] == [7, 0, 3, 5]
    back = roundtrip(bundle, ABRA)
    assert list(back.delta.delta) == [2, 0, 3, 2]
    assert locate2(back.index, back.delta, b"adab") == [6]


_DNA_TEXT = bytes(b"ACGT"[c] for c in random_text(random.Random(0xD17),
                                                   3000, 4))


@pytest.mark.parametrize("change", ["low bit of every nibble", "one nibble",
                                    "two nibbles swapped",
                                    "gaps above 15 as their low bits"])
def test_resealed_delta_nibbles_rejected(change):
    # Every low bit flipped loaded, and count2 then answered wrong for
    # some 12-byte windows: a wrong nibble prunes occurrences.
    q = 24 if change == "gaps above 15 as their low bits" else 8
    bundle = build_bundle(_DNA_TEXT, SamplingParams(q, 2), with_delta=True)
    nibbles = bundle.delta.delta.copy()
    if change == "low bit of every nibble":
        nibbles ^= 1
        windows = [_DNA_TEXT[i:i + 12] for i in range(0, 2989, 7)]
        assert any(count2(bundle.index, DeltaAnnotation(nibbles), w)
                   != naive_count(_DNA_TEXT, w) for w in windows)
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
    data = bytearray(serialized_bytes(bundle))
    n = bundle.index.n_sampled
    offsets = np.frombuffer(data, "<u4", n, 48) & np.uint32((1 << 28) - 1)
    data[48:48 + 4 * n] = (offsets | (nibbles.astype("<u4") << 28)).tobytes()
    with pytest.raises(CorruptIndex, match="delta nibbles differ"):
        load(io.BytesIO(reseal(data)), _DNA_TEXT)


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


def _as_version_1(data: bytes, text: bytes) -> bytes:
    """The version-1 file of the same bundle: n' widened to a u64 and
    an FNV-1a of the text in place of the crc32 and the digest."""
    flags, q, p, k = struct.unpack_from("<4I", data, 8)
    n, n_sampled = struct.unpack_from("<QI", data, 24)
    return struct.pack("<4s5I3Q", b"SSMI", 1, flags, q, p, k, n, n_sampled,
                       slow_fnv1a(text)) + data[48:]


def test_bundle_bytes_golden():
    # The version-1 digest was recorded before the suffix sort and the
    # phrase encoder were rewritten, the version-2 one when the format
    # changed; any change that alters a single byte of an index file
    # changes them.
    text, bundle = _golden_bundle()
    data = serialized_bytes(bundle)
    assert hashlib.sha256(data).hexdigest() == (
        "b857ba7b5867f4e689b2ace0a5c06e56"
        "3d759836cacc5a64c591939c8785520e")
    old = _as_version_1(data, text)
    assert hashlib.sha256(old).hexdigest() == (
        "198bab637fd2c174ece0231cbe86a107"
        "910f94231e3ada33098e531baf8107c7")
    # a version-1 file is refused with a pointer to the cure
    with pytest.raises(UnsupportedFormat, match="rebuild the index"):
        load(io.BytesIO(old), text)
    # the version-2 file answers as the built bundle
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


def test_position_past_text_end_rejected():
    data = bytearray(serialized_bytes(build_bundle(ABRA, P42)))
    struct.pack_into("<I", data, 48, 11)  # position 12 of an 11-byte text
    with pytest.raises(CorruptIndex, match="beyond the end"):
        load(io.BytesIO(reseal(data)), ABRA)
    # the largest offset wraps to position 0 in the u32 array
    struct.pack_into("<I", data, 48, 0xFFFFFFFF)
    with pytest.raises(CorruptIndex, match="beyond the end"):
        load(io.BytesIO(reseal(data)), ABRA)


def _offsets_edited(text, params, edit, **build):
    """A saved bundle whose offsets section edit(list) rewrote, with n'
    and the crc32 to match."""
    bundle = build_bundle(text, params, **build)
    data = serialized_bytes(bundle)
    n_sampled = bundle.index.n_sampled
    offsets = np.frombuffer(data, dtype="<u4", count=n_sampled,
                            offset=48).tolist()
    edit(offsets)
    head = bytearray(data[:48])
    struct.pack_into("<I", head, 32, len(offsets))
    body = np.array(offsets, dtype="<u4").tobytes()
    return reseal(bytes(head) + body + data[48 + 4 * n_sampled:])


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


def test_overfull_hash_table_rejected():
    # a table with no empty slot would make every probe for an absent
    # key run forever
    text = b"abcde" * 6 + b"abc"
    bundle = build_bundle(text, P42, hash_k=2)
    assert bundle.table.capacity == 8
    data = bytearray(serialized_bytes(bundle))
    start = 48 + 4 * bundle.index.n_sampled + 8
    slots = np.frombuffer(bytes(data[start:start + 64]), dtype="<u4")
    slots = slots.reshape(8, 2).copy()
    slots[slots[:, 0] == 0xFFFFFFFF] = (0, 1)
    data[start:start + 64] = slots.astype("<u4").tobytes()
    with pytest.raises(CorruptIndex, match="load factor"):
        load(io.BytesIO(reseal(data)), text)


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
], ids=["lowered", "raised"])
def test_hash_k_rewritten_rejected(text, params, header_k):
    data = bytearray(serialized_bytes(build_bundle(text, params, hash_k=3)))
    assert load(io.BytesIO(bytes(data)), text).table.k == 3
    struct.pack_into("<I", data, 20, header_k)
    with pytest.raises(CorruptIndex,
                       match=f"groups of {header_k}-byte suffix prefixes"):
        load(io.BytesIO(reseal(data)), text)


def _with_slots(bundle, slots) -> bytes:
    # the file of bundle with its hash slots replaced, resealed
    data = bytearray(serialized_bytes(bundle))
    start = 48 + 4 * bundle.index.n_sampled + 8
    data[start:start + slots.nbytes] = slots.astype("<u4").tobytes()
    return reseal(data)


def test_hash_k_raised_off_probe_chains_rejected():
    # The 3-byte groups of this text are also its 4-byte groups, so a k
    # raised to 4 passes the group check; count_hash(b"abracadabra")
    # then answered 0, not 55, since each slot sits where the 3-byte
    # hash put it, off the chain the 4-byte hash probes.
    params = SamplingParams(6, 2)
    data = bytearray(serialized_bytes(build_bundle(_HASHED_TEXT, params,
                                                   hash_k=3)))
    struct.pack_into("<I", data, 20, 4)
    with pytest.raises(CorruptIndex, match="off its key's probe chain"):
        load(io.BytesIO(reseal(data)), _HASHED_TEXT)


def test_hash_slot_moved_off_its_probe_chain_rejected():
    # move one entry to the next empty slot: the slot it leaves empty
    # ends the entry's probe chain before the entry
    bundle = build_bundle(_HASHED_TEXT, SamplingParams(6, 2), hash_k=3)
    slots = bundle.table.slots.copy()
    capacity = len(slots)
    src = int(np.flatnonzero(slots[:, 0] != 0xFFFFFFFF)[0])
    dst = next(x % capacity for x in range(src + 1, src + capacity)
               if slots[x % capacity, 0] == 0xFFFFFFFF)
    slots[dst], slots[src] = slots[src], 0xFFFFFFFF
    with pytest.raises(CorruptIndex, match="off its key's probe chain"):
        load(io.BytesIO(_with_slots(bundle, slots)), _HASHED_TEXT)


@pytest.mark.parametrize("change", ["emptied", "doubled"])
def test_hash_group_missing_or_doubled_rejected(change):
    # Emptying the last slot of a probe chain leaves every chain intact;
    # the loaded table then answered 0 for patterns anchored on that
    # group. Doubling a group into an empty slot on its chain misses no
    # answer, but the file is not one build_table writes.
    text = random_text(random.Random(0x3A8), 3000, 4)
    bundle = build_bundle(text, SamplingParams(8, 2), hash_k=3)
    slots = bundle.table.slots.copy()
    used = slots[:, 0] != 0xFFFFFFFF
    capacity = len(slots)
    last = next(int(x) for x in np.flatnonzero(used)
                if not used[(x + 1) % capacity])
    if change == "emptied":
        slots[last] = 0xFFFFFFFF
    else:
        slots[(last + 1) % capacity] = slots[last]
    with pytest.raises(CorruptIndex, match="each 3-byte prefix group once"):
        load(io.BytesIO(_with_slots(bundle, slots)), text)


@pytest.mark.parametrize("shift", [0, -1])
def test_hash_slot_with_empty_range_rejected(shift):
    # every group the builder hashes holds at least one suffix; rewrite
    # the hi of the slot with the largest lo to lo, then to lo - 1
    bundle = build_bundle(_HASHED_TEXT, SamplingParams(6, 2), hash_k=3)
    data = bytearray(serialized_bytes(bundle))
    start = 48 + 4 * bundle.index.n_sampled + 8
    los = bundle.table.slots[:, 0].astype(np.int64)
    slot = int(np.argmax(np.where(los != 0xFFFFFFFF, los, -1)))
    lo = int(los[slot])
    assert lo > 0
    struct.pack_into("<I", data, start + 8 * slot + 4, lo + shift)
    with pytest.raises(CorruptIndex, match="lo >= hi"):
        load(io.BytesIO(reseal(data)), _HASHED_TEXT)


def _phrase_section_start(bundle):
    # the phrase section follows the header and the offsets (no hash)
    assert bundle.table is None
    return 48 + 4 * bundle.index.n_sampled


def _with_phrase_section(bundle, phrases, stream):
    """bundle's file with a phrase section of phrases and stream."""
    data = serialized_bytes(bundle)
    section = [struct.pack("<I", len(phrases))]
    for ph in phrases:
        section += [struct.pack("<I", len(ph)), ph]
    section += [struct.pack("<Q", len(stream)), stream]
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
    data[-1] ^= 1
    with pytest.raises(CorruptIndex, match="crc32"):
        load(io.BytesIO(bytes(data)), ABRA)
    # the text digest is checked first, so a wrong text still reads as one
    with pytest.raises(TextMismatch):
        load(io.BytesIO(bytes(data)), b"abracadabrX")
    assert load(io.BytesIO(reseal(data)), ABRA).table is not None


def test_writer_rejects_sampled_count_beyond_u32():
    class Sized:
        def __len__(self):
            return 1 << 32

    stub = SimpleNamespace(text=b"", params=P42, n=1 << 33, sa=Sized())
    with pytest.raises(SamsamiError, match="u32"):
        serialized_bytes(IndexBundle(index=stub))


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
