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

from samsami import (CorruptIndex, PatternTooShort, QueryStats,
                     SamplingParams, SamsamiError, TextMismatch,
                     UnsupportedFormat, annotate,
                     build_bundle, build_table, count, count2, decode_text,
                     encoded_locate, from_bundle, load, locate, locate2,
                     locate_hash, naive_count, naive_locate, save,
                     window_minimizer)
from samsami import persistence, phrase
from samsami.persistence import IndexBundle, serialized_bytes
from samsami.phrase import encode_id

from helpers import (as_version_1, as_version_2, as_version_3, as_version_4,
                     offsets_span, pack_fields, random_text, read_offsets,
                     reference_annotate, reference_build_table,
                     phrase_file_with_a_moved_cut,
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
    assert (version, flags, q, p, k) == (5, 0, 4, 2, 0)
    assert (n, n_sampled) == (11, 4)
    assert crc == zlib.crc32(data[:36] + data[40:])
    assert digest.to_bytes(8, "little") == \
        hashlib.blake2b(ABRA, digest_size=8).digest()
    # positions 8,1,4,6 minus one, in 4 bits each: offsets up to 10
    assert offsets_span(data) == (4, 4, 50)
    assert data[48:] == bytes([0x07, 0x53])
    assert read_offsets(data) == [7, 0, 3, 5]


_DNA_TEXT = bytes(b"ACGT"[c] for c in random_text(random.Random(0xD17),
                                                   3000, 4))


@pytest.mark.parametrize("phrase", [False, True], ids=["plain", "phrase"])
@pytest.mark.parametrize("build", [{"with_delta": True}, {"hash_k": 2},
                                   {"with_delta": True, "hash_k": 2}],
                         ids=["delta", "hash", "delta+hash"])
def test_delta_and_hash_flags_change_only_the_header(build, phrase):
    # the nibbles and the rows are recomputed at load, so a file holds
    # neither: it differs from the one without them in the flags, k and
    # crc32 alone, once the plain file's offsets are put back after the
    # header of a phrase file, which stores none without annotations
    def outside_the_fields(d):
        return d[:8] + d[12:20] + d[24:36] + d[40:]

    flags = 1 * ("with_delta" in build) + 2 * ("hash_k" in build)
    for text, params in ((ABRA, P42), (_DNA_TEXT, SamplingParams(8, 2))):
        bare = serialized_bytes(build_bundle(text, params,
                                             with_phrase=phrase))
        if phrase:
            plain = serialized_bytes(build_bundle(text, params))
            bare = bare[:48] + plain[48:] + bare[48:]
        data = serialized_bytes(build_bundle(text, params,
                                             with_phrase=phrase, **build))
        assert len(data) == len(bare)
        assert outside_the_fields(data) == outside_the_fields(bare)
        assert struct.unpack_from("<I", data, 8)[0] == flags + 4 * phrase
        assert struct.unpack_from("<I", data, 20)[0] == build.get("hash_k", 0)
    back = load(io.BytesIO(serialized_bytes(build_bundle(
        ABRA, P42, with_phrase=phrase, **build))), ABRA)
    if back.delta is not None:
        assert list(back.delta) == [2, 0, 3, 2]
        assert locate2(back.index, back.delta, b"adab") == [6]
    if back.table is not None:
        assert back.table.slots.tolist() == [[0, 2], [2, 3], [3, 4]]


@pytest.mark.parametrize("q", [8, 24])
def test_loaded_delta_file_prunes_as_the_built_bundle(q):
    # the recomputed nibbles are the built ones, so a loaded file counts
    # the same pruned candidates; q=24 leaves gaps above 15, which get 0
    bundle = build_bundle(_DNA_TEXT, SamplingParams(q, 2), with_delta=True)
    back = load(io.BytesIO(serialized_bytes(bundle)), _DNA_TEXT)
    assert back.delta.tolist() == bundle.delta.tolist()
    sa = np.sort(bundle.index.sa.astype(np.int64))
    assert (np.diff(sa) > 15).any() == (q == 24)
    built, loaded = QueryStats(), QueryStats()
    for i in range(0, 3000 - 30, 7):
        window = _DNA_TEXT[i:i + q + 4]
        expect = naive_count(_DNA_TEXT, window)
        assert count2(bundle.index, bundle.delta, window, built) == expect
        assert count2(back.index, back.delta, window, loaded) == expect
    assert built.pruned > 0
    assert loaded == built


@pytest.mark.parametrize("k", [1, 4, 9])
def test_loaded_annotations_match_the_reference_oracles(k):
    # k=9 groups by the first 8 bytes and then by 9-gram ranks
    rng = random.Random(k)
    for _ in range(8):
        q = rng.randint(1, 10)
        params = SamplingParams(q, rng.randint(1, q))
        text = random_text(rng, rng.randint(q, 300), rng.choice([2, 4, 26]))
        bundle = build_bundle(text, params, with_delta=True, hash_k=k)
        back = load(io.BytesIO(serialized_bytes(bundle)), text)
        sa = back.index.sa.tolist()
        assert sa == bundle.index.sa.tolist()
        assert back.delta.tolist() == reference_annotate(sa)
        assert back.table.slots.tolist() == \
            reference_build_table(text, sa, k).tolist()


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


def _golden_text():
    rng = random.Random(2718)
    words = [b"def", b"return", b"self", b"    ", b"\n", b"import", b"(", b")",
             b":", b"x", b"value", b"for", b"in", b"range", b"=", b"+", b"1", b"0"]
    out = bytearray()
    while len(out) < 65536:
        out += rng.choice(words) + b" "
    return bytes(out[:65536])


def _golden_bundle():
    text = _golden_text()
    return text, build_bundle(text, SamplingParams(8, 2), with_delta=True,
                              hash_k=4, with_phrase=True)


def test_bundle_bytes_golden():
    # The version-1 digest was recorded before the suffix sort and the
    # phrase encoder were rewritten, the version-2 one when the format
    # changed, the version-3 one when the hash section became rank
    # ordered rows, the version-4 one when offsets and phrase lengths
    # were packed, and the version-5 one when the delta nibbles and the
    # hash rows left the file; any change that alters a single byte of
    # an index file changes them. The older files are rebuilt from the
    # version-5 one, the nibbles and rows by the reference oracles, so
    # their digests still pin every section of it and show that it
    # holds all that a version-4 file held.
    text, bundle = _golden_bundle()
    data = serialized_bytes(bundle)
    assert hashlib.sha256(data).hexdigest() == (
        "8fdd661d3581d45bc3d3bfcc3a660bdf"
        "b0ba0ded23bc774581110c109f455d90")
    v4 = as_version_4(data, text)
    assert hashlib.sha256(v4).hexdigest() == (
        "3e929fa739b47b044e9b1b16f909778d"
        "d77bebce1d644a7107042d7e270a4b5b")
    v3 = as_version_3(v4)
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
    for old in (v1, v2, v3, v4):
        with pytest.raises(UnsupportedFormat,
                           match="rebuild the index from its text"):
            load(io.BytesIO(old), text)
    # the version-5 file answers as the built bundle
    back = load(io.BytesIO(data), text)
    rng = random.Random(0x01D)
    patterns = [text[i:i + m] for i, m in
                ((rng.randrange(len(text) - 40), rng.randint(15, 40))
                 for _ in range(50))] + [b"\xff" * 20]
    for name in ("samsami", "samsami2", "samsami-hash", "phrase"):
        built, loaded = from_bundle(bundle, name), from_bundle(back, name)
        for pattern in patterns:
            assert loaded.locate(pattern) == built.locate(pattern)


def test_phrase_only_bytes_golden():
    # The phrase-only layout, recorded when it stopped storing the
    # offsets (flag bit 3); its samples are the phrase starts. Loading it
    # and saving again writes the same bytes, and neither sorts them.
    text = _golden_text()
    bundle = build_bundle(text, SamplingParams(8, 2), with_phrase=True)
    data = serialized_bytes(bundle)
    assert hashlib.sha256(data).hexdigest() == (
        "1ac530a2cc07a54a84d771415c6f5155"
        "5389f4f2316a204707f160da9184afc1")
    assert struct.unpack_from("<I", data, 8)[0] == 4 | 8
    assert struct.unpack_from("<I", data, 32)[0] == bundle.index.n_sampled
    back = load(io.BytesIO(data), text)
    assert back.index.sa is None
    assert back.index.n_sampled == bundle.index.n_sampled
    out = io.BytesIO()
    save(back, out)
    assert out.getvalue() == data
    assert back.index.sa is None
    # the samples sorted by the first search are the built bundle's
    assert count(back.index, text[:20]) == naive_count(text, text[:20])
    assert back.index.sa.tolist() == bundle.index.sa.tolist()
    assert serialized_bytes(back) == data


@pytest.mark.parametrize("source, flags, k", [
    ("phrase", 4 | 8 | 1, None), ("phrase", 4 | 8 | 2, 2),
    ("phrase", 4 | 8 | 1 | 2, 2), ("delta+phrase", 4 | 8 | 1, None),
    ("plain", 8, None)], ids=["delta", "hash", "delta+hash",
                              "offsets-with-delta", "no-phrase"])
def test_no_offsets_flag_only_with_a_bare_phrase_section(source, flags, k):
    # the phrase starts stand in for the offsets only when nothing else
    # reads them; a hash or delta flag, or a missing phrase section,
    # leaves the file without its samples' order or without its samples
    build = {"phrase": {"with_phrase": True},
             "delta+phrase": {"with_phrase": True, "with_delta": True},
             "plain": {}}[source]
    data = bytearray(serialized_bytes(build_bundle(_DNA_TEXT,
                                                   SamplingParams(8, 2),
                                                   **build)))
    struct.pack_into("<I", data, 8, flags)
    if k is not None:
        struct.pack_into("<I", data, 20, k)
    with pytest.raises(CorruptIndex, match="omit the offsets"):
        load(io.BytesIO(reseal(data)), _DNA_TEXT)


@pytest.mark.parametrize("shift", [-1, 1, 1 << 20])
def test_sample_count_off_the_phrase_starts_rejected(shift):
    bundle = build_bundle(_DNA_TEXT, SamplingParams(8, 2), with_phrase=True)
    data = bytearray(serialized_bytes(bundle))
    assert load(io.BytesIO(bytes(data)), _DNA_TEXT)
    struct.pack_into("<I", data, 32, bundle.index.n_sampled + shift)
    with pytest.raises(CorruptIndex, match="sampled positions"):
        load(io.BytesIO(reseal(data)), _DNA_TEXT)


def test_phrase_only_files_answer_as_the_scan():
    # both the stream and samsami's lazily sorted samples; texts with
    # and without position 1 among the samples
    rng = random.Random(0x0FF5)
    first = set()
    for _ in range(40):
        q = rng.randint(1, 9)
        p = rng.randint(1, q)
        params = SamplingParams(q, p)
        n = rng.randint(max(q, 2 * q - p + 1), 260)
        text = random_text(rng, n, rng.choice([2, 4, 26]))
        first.add(window_minimizer(text[:q], p) == 1)
        data = serialized_bytes(build_bundle(text, params, with_phrase=True))
        assert offsets_span(data)[2] == 48
        back = load(io.BytesIO(data), text)
        assert back.index.sa is None
        for _ in range(12):
            m = rng.randint(max(q, 2 * q - p + 1), min(n, 2 * q + 12))
            i = rng.randint(0, n - m)
            pattern = text[i:i + m]
            if rng.random() < 0.3:
                x = rng.randrange(m)
                pattern = pattern[:x] + b"b" + pattern[x + 1:]
            expect = naive_locate(text, pattern)
            assert locate(back.index, pattern) == expect
            assert encoded_locate(back.dictionary, back.encoded, n, pattern,
                                  params) == expect
        assert back.index.sa.tolist() == build_bundle(
            text, params).index.sa.tolist()
    assert first == {True, False}


def test_first_search_of_a_phrase_only_index_sorts_once(monkeypatch):
    # load leaves the samples in text order; the first samsami query
    # sorts them with extract_sampled, and no later query sorts again
    from samsami import core
    text = _DNA_TEXT
    params = SamplingParams(8, 2)
    bundle = build_bundle(text, params, with_phrase=True)
    calls = []
    real = core.extract_sampled

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "extract_sampled", counting)
    back = load(io.BytesIO(serialized_bytes(bundle)), text)
    assert calls == [] and back.index.sa is None
    assert back.index.fences is None and back.index.left is None
    patterns = [text[i:i + m] for i in range(0, 2900, 37)
                for m in (8, 13, 30)] + [b"ACGTACGTACGTAAAA"]
    built, loaded = QueryStats(), QueryStats()
    for pattern in patterns:
        assert count(back.index, pattern, loaded) == count(
            bundle.index, pattern, built)
        assert locate(back.index, pattern) == locate(bundle.index, pattern)
        assert len(calls) == 1
    assert loaded == built and built.text_verifications > 0
    assert back.index.sa.tolist() == bundle.index.sa.tolist()
    assert back.index.left.tolist() == bundle.index.left.tolist()


def test_unsorted_index_refused_until_its_first_search():
    # annotate, build_table and a save that writes offsets read the
    # samples in suffix order, which a loaded phrase-only index sorts on
    # its first search; before it each raises one error that says so
    text, params = _DNA_TEXT, SamplingParams(8, 2)
    data = serialized_bytes(build_bundle(text, params, with_phrase=True))
    idx = load(io.BytesIO(data), text).index
    for call in (lambda: annotate(idx), lambda: build_table(idx, 3),
                 lambda: serialized_bytes(IndexBundle(index=idx))):
        with pytest.raises(SamsamiError, match="has not searched yet"):
            call()
    count(idx, text[:8])
    built = build_bundle(text, params, with_delta=True)
    assert annotate(idx).tolist() == built.delta.tolist()


@pytest.mark.parametrize("q,p", [(8, 2), (4, 1), (10, 10)])
def test_phrase_only_file_with_a_moved_cut_refused_by_samsami(q, p):
    # only the crc32 guards the cut positions at load, but samsami's
    # first search compares the samples with the text's minimizer
    # positions before it sorts them, and refuses the file; so does the
    # phrase variant's first query, before it sorts the stream
    text = random_text(random.Random(q * 31 + p), 600, 3)
    data = phrase_file_with_a_moved_cut(text, q, p)
    for query in (count, locate):
        back = load(io.BytesIO(data), text)
        with pytest.raises(CorruptIndex, match="minimizer positions"):
            query(back.index, text[100:100 + q])
        assert back.index.sa is None and back.index.fences is None
    back = load(io.BytesIO(data), text)
    pattern = text[100:100 + 2 * q - p + 1]
    for _ in range(2):  # the refusal marks nothing checked
        with pytest.raises(CorruptIndex, match="minimizer positions"):
            encoded_locate(back.dictionary, back.encoded, len(text), pattern,
                           SamplingParams(q, p))
        assert back.encoded._order_view is None


def test_phrase_files_with_moved_cuts_refused_or_exact():
    # one to three cuts moved by a byte, the phrases still spelling the
    # text: each file loads, and its first phrase query either refuses
    # it or every answer is the naive scan's
    rng = random.Random(0xC075)
    files = refused = 0
    while files < 400:
        q = rng.randint(2, 10)
        p = rng.randint(1, q)
        m = 2 * q - p + 1
        text = random_text(rng, rng.randint(m, 200), rng.randint(2, 4))
        try:
            data = phrase_file_with_a_moved_cut(text, q, p, rng,
                                                rng.randint(1, 3))
        except ValueError:
            continue
        files += 1
        back = load(io.BytesIO(data), text)
        patterns = [text[i:i + m] for i in range(len(text) - m + 1)]
        answers = []
        for pattern in patterns:
            try:
                answers.append(encoded_locate(back.dictionary, back.encoded,
                                              len(text), pattern,
                                              SamplingParams(q, p)))
            except CorruptIndex:
                assert not answers  # only the first query refuses
                refused += 1
                break
        else:
            assert answers == [naive_locate(text, x) for x in patterns]
    assert refused == files


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
        load(io.BytesIO(reseal(hashed[:-1])), ABRA)
    phrased = serialized_bytes(build_bundle(ABRA, P42, with_phrase=True))
    with pytest.raises(CorruptIndex, match="phrase stream"):
        load(io.BytesIO(reseal(phrased[:-1])), ABRA)
    # a phrase-only file's section runs from the header to the end:
    # every cut, resealed or not, is refused
    phrased = serialized_bytes(build_bundle(_DNA_TEXT, SamplingParams(8, 2),
                                            with_phrase=True))
    for cut in (49, 52, 60, len(phrased) // 2, len(phrased) - 8,
                len(phrased) - 1):
        for blob in (phrased[:cut], reseal(phrased[:cut])):
            with pytest.raises(CorruptIndex):
                load(io.BytesIO(blob), _DNA_TEXT)


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
    monkeypatch.setattr(persistence, "_offset_bits", lambda n: 32)
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
    # with or without the delta flag; q=1 keeps all n suffixes, so
    # n' = 65,536 fills whole groups of 8 fields and the other n' end in
    # a partial one; q=3 keeps about half
    rng = random.Random(n)
    text = random_text(rng, n, 4)
    for params in {SamplingParams(1, 1), SamplingParams(min(n, 3), 1)}:
        bundle = build_bundle(text, params, with_delta=delta)
        data = serialized_bytes(bundle)
        count, width, end = offsets_span(data)
        assert count == bundle.index.n_sampled
        assert count == n or params.q > 1
        assert width == max(1, (n - 1).bit_length())
        assert len(data) == end == 48 + -(-count * width // 8)
        back = load(io.BytesIO(data), text)
        assert back.index.sa.dtype == np.uint32
        assert back.index.sa.tolist() == bundle.index.sa.tolist()
        if delta:
            assert back.delta.tolist() == bundle.delta.tolist()
        assert serialized_bytes(back) == data
        for i in range(0, n - params.q + 1, max(1, n // 7)):
            pattern = text[i:i + params.q + 2]
            assert from_bundle(back).count(pattern) == naive_count(text,
                                                                   pattern)
        # a field naming an offset at or past n is refused; at n = 2**b
        # no b-bit field can name one
        fields = read_offsets(data)
        for past in {v for v in (n, (1 << width) - 1) if n <= v < 1 << width}:
            edited = list(fields)
            edited[-1] = past
            with pytest.raises(CorruptIndex, match="beyond the end"):
                load(io.BytesIO(with_offsets(data, edited)), text)


@pytest.mark.parametrize("section", ["offsets", "phrase lengths"])
def test_set_padding_bit_rejected(section):
    # 3 offsets of 4 bits leave 4 padding bits in the section's last
    # byte; the 3 phrases' 3-bit lengths (q=4) leave 7 in theirs. The
    # delta flag keeps the offsets in a file with a phrase section.
    text = b"mississippi"
    bundle = build_bundle(text, P42, with_delta=True, with_phrase=True)
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


@pytest.mark.parametrize("build", [{}, {"with_delta": True}, {"hash_k": 2}],
                         ids=["plain", "delta", "hash"])
def test_offsets_section_one_byte_short_rejected(build):
    data = serialized_bytes(build_bundle(ABRA, P42, **build))
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


@pytest.mark.parametrize("build", [{}, {"with_phrase": True,
                                       "with_delta": True}])
def test_dropped_position_one_rejected(build):
    # without the check the first file answers [4] for b"abca", where
    # the scan finds [1, 4]; the second, left with no offsets, counts 0.
    # With a phrase section the phrase starts are the same either way;
    # the delta flag keeps the offsets in that file.
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
    (_HASHED_TEXT, SamplingParams(6, 2), 2),
    (_RANDOM_HASHED_TEXT, SamplingParams(8, 2), 4),
    # the 3-byte groups of this text are also its 4-byte groups
    (_HASHED_TEXT, SamplingParams(6, 2), 4),
    # no sampled suffix has k bytes, so there is no group, and every
    # pattern is too short
    (_HASHED_TEXT, SamplingParams(6, 2), len(_HASHED_TEXT) + 1),
    (_HASHED_TEXT, SamplingParams(6, 2), 2**31),
], ids=["lowered", "raised", "raised-onto-equal-groups", "past-the-text",
        "2**31"])
def test_hash_k_rewritten_loads_as_a_build_at_that_k(text, params, header_k):
    # the file holds no rows: load groups the suffixes by the header's
    # k, so a rewritten k leaves the very file a build at that k writes,
    # and it answers as that build does
    data = bytearray(serialized_bytes(build_bundle(text, params, hash_k=3)))
    struct.pack_into("<I", data, 20, header_k)
    data = reseal(data)
    built = build_bundle(text, params, hash_k=header_k)
    assert data == serialized_bytes(built)
    back = load(io.BytesIO(data), text)
    assert back.table.k == header_k
    assert back.table.slots.tolist() == built.table.slots.tolist()
    patterns = {text[i:i + m] for i in range(12)
                for m in (8, 9, 11, 12, 23, 40)}
    patterns |= {pat[:x] + b"a" + pat[x + 1:] for pat in list(patterns)
                 for x in (0, 3, 7)}
    need = params.q - params.p + header_k
    for pattern in patterns:
        for bundle in (built, back):
            if len(pattern) < need:
                with pytest.raises(PatternTooShort):
                    locate_hash(bundle.index, bundle.table, pattern)
            else:
                assert locate_hash(bundle.index, bundle.table, pattern) == \
                    naive_locate(text, pattern)


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


def _phrase_bundle(seed=0x9AD, n=2000, with_delta=False):
    text = random_text(random.Random(seed), n, 4)
    return text, build_bundle(text, SamplingParams(8, 2),
                              with_delta=with_delta, with_phrase=True)


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


# A phrase-only file's samples are its phrase starts, so n' no longer
# matches them; a file with offsets compares the starts with those.
_OFF_THE_SAMPLES = [(False, "header counts"),
                    (True, "differ from the sampled positions")]


def test_phrases_off_the_sampled_positions_rejected():
    # two neighbouring phrases merged into one still spell the text,
    # but the merged phrase starts no sample
    for with_delta, message in _OFF_THE_SAMPLES:
        text, bundle = _phrase_bundle(with_delta=with_delta)
        enc, phrases = bundle.encoded, bundle.dictionary.phrases
        k = enc.phrase_count // 2
        merged = phrases[enc.phrase_ids[k]] + phrases[enc.phrase_ids[k + 1]]
        assert merged not in bundle.dictionary.ids
        a, b = int(enc.stream_offsets[k]), int(enc.stream_offsets[k + 2])
        stream = enc.stream[:a] + encode_id(len(phrases)) + enc.stream[b:]
        data = _with_phrase_section(bundle, phrases + [merged], stream)
        with pytest.raises(CorruptIndex, match=message):
            load(io.BytesIO(data), text)


def test_phrase_file_without_samples_rejected():
    # n' = 0: the phrase starts are checked against an empty sampled
    # set, which must reject the file, not raise IndexError
    for with_delta, message in _OFF_THE_SAMPLES:
        text, bundle = _phrase_bundle(with_delta=with_delta)
        data = bytearray(serialized_bytes(bundle))
        del data[48:_phrase_section_start(bundle)]
        struct.pack_into("<I", data, 32, 0)
        with pytest.raises(CorruptIndex, match=message):
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


def test_phrase_misspelled_only_in_a_later_block_rejected(monkeypatch):
    # the one phrase misspelled first occurs in the second spell block
    monkeypatch.setattr(phrase, "_SPELL_BLOCK", 7)
    text, bundle = _phrase_bundle()
    ids = bundle.encoded.phrase_ids.tolist()
    i = next(ids[k] for k in range(7, 14) if ids[k] not in ids[:7])
    phrases = list(bundle.dictionary.phrases)
    phrases[i] = phrases[i][:-1] + b"x"
    data = _with_phrase_section(bundle, phrases, bundle.encoded.stream)
    with pytest.raises(CorruptIndex, match="spell"):
        load(io.BytesIO(data), text)


@pytest.mark.parametrize("cut, message", [(-1, "span"), (1, "spell")])
def test_stream_short_or_long_of_the_text_rejected(cut, message):
    # a stream one codeword short spells a prefix of the text; one
    # codeword long runs past its end
    text, bundle = _phrase_bundle()
    stream = bundle.encoded.stream
    last = int(bundle.encoded.stream_offsets[-1])
    stream = stream[:last] if cut < 0 else stream + stream[last:]
    data = _with_phrase_section(bundle, bundle.dictionary.phrases, stream)
    with pytest.raises(CorruptIndex, match=message):
        load(io.BytesIO(data), text)


def test_spelling_check_stops_at_the_first_wrong_block(monkeypatch):
    monkeypatch.setattr(phrase, "_SPELL_BLOCK", 7)
    text, bundle = _phrase_bundle()
    phrases = list(bundle.dictionary.phrases)
    i = int(bundle.encoded.phrase_ids[0])
    phrases[i] = phrases[i][:-1] + b"x"
    data = _with_phrase_section(bundle, phrases, bundle.encoded.stream)
    gathered = []

    def spy(*args, gather=phrase.gather_pieces):
        gathered.append(len(args[1]))
        return gather(*args)
    monkeypatch.setattr(phrase, "gather_pieces", spy)
    with pytest.raises(CorruptIndex, match="spell"):
        load(io.BytesIO(data), text)
    assert gathered == [7]


@pytest.mark.parametrize("block", [1, 2, 7])
def test_decode_text_in_spell_blocks(monkeypatch, block):
    # built and loaded bundles, phrase-only and with offsets, over texts
    # whose first window samples position 1 and texts it leaves in an
    # unsampled leading piece
    monkeypatch.setattr(phrase, "_SPELL_BLOCK", block)
    first_sampled = set()
    for seed in range(40):
        text, bundle = _phrase_bundle(seed, 120, with_delta=seed % 2 == 1)
        first_sampled.add(window_minimizer(text[:8], 2) == 1)
        assert bundle.encoded.phrase_count > 2 * block
        for b in (bundle, roundtrip(bundle, text)):
            assert decode_text(b.dictionary, b.encoded) == text
    assert first_sampled == {False, True}


def test_load_and_decode_text_share_one_spell(monkeypatch):
    text, bundle = _phrase_bundle()
    calls = []

    def spy(*args, spell=phrase.spell):
        calls.append(args)
        return spell(*args)
    monkeypatch.setattr(phrase, "spell", spy)
    monkeypatch.setattr(persistence, "spell", spy)
    back = roundtrip(bundle, text)
    assert len(calls) == 1
    assert decode_text(back.dictionary, back.encoded) == text
    assert len(calls) == 2


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
    data[-1] ^= 0x80  # the top bit of the last offset: 5 becomes 13
    with pytest.raises(CorruptIndex, match="crc32"):
        load(io.BytesIO(bytes(data)), ABRA)
    # the text digest is checked first, so a wrong text still reads as one
    with pytest.raises(TextMismatch):
        load(io.BytesIO(bytes(data)), b"abracadabrX")
    # past the crc, the offsets checks see position 14 of 11
    with pytest.raises(CorruptIndex, match="beyond the end"):
        load(io.BytesIO(reseal(data)), ABRA)


def test_writer_rejects_sampled_count_beyond_u32():
    class Sized:
        def __len__(self):
            return 1 << 32

    stub = SimpleNamespace(text=b"", params=P42, n=1 << 33, sa=Sized())
    with pytest.raises(SamsamiError, match="u32"):
        serialized_bytes(IndexBundle(index=stub))


def test_writer_rejects_offsets_beyond_32_bits():
    # offset n - 1 needs 33 bits past 2**32 bytes, with or without delta
    sa = np.array([1], dtype=np.uint32)
    for delta in (None, np.zeros(1)):
        stub = SimpleNamespace(text=b"", params=P42, n=(1 << 32) + 1, sa=sa)
        with pytest.raises(SamsamiError, match="32-bit offsets"):
            serialized_bytes(IndexBundle(index=stub, delta=delta))
        # at 2**32 bytes the offsets take 32 bits, and at 2**28 + 1, 29:
        # the delta flag widens neither
        for n, width in ((1 << 32, 32), ((1 << 28) + 1, 29)):
            stub = SimpleNamespace(text=b"", params=P42, n=n, sa=sa)
            data = serialized_bytes(IndexBundle(index=stub, delta=delta))
            assert len(data) == 48 + -(-width // 8)


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
