import io
import random
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from samsami import (CorruptEncoding, EncodedText, PatternTooShort,
                     QueryStats, SamplingParams, SamsamiError, TextTooShort,
                     build_full_sa, decode_text, encode_text, encoded_locate,
                     naive_locate, parse_phrases, sampled_positions,
                     window_minimizer)
from samsami import build_bundle, core, load, locate, phrase
from samsami.persistence import serialized_bytes
from samsami.phrase import (PhraseDictionary, _split_stream,
                            _stable_boundaries, codeword_table, encode_id,
                            rebuild_positions)

from helpers import (random_text, reference_decode_ids, reference_encode_text,
                     reference_rebuild_positions)

ABRA = b"abracadabra"
P42 = SamplingParams(4, 2)


def decode_ids(stream):
    # every id an index file can count, so only the stream is checked
    return _split_stream(stream, 1 << 32)[0].tolist()


def _phrase_bytes(text, params):
    return [text[a - 1:a - 1 + ln] for a, ln in parse_phrases(text, params)]


def test_parse_phrases_abracadabra():
    assert _phrase_bytes(ABRA, P42) == [b"abr", b"ac", b"ad", b"abra"]


def test_parse_phrases_once_upon():
    got = _phrase_bytes(b"Once upon a time", SamplingParams(5, 1))
    assert got == [b"Once", b" upon", b" a", b" time"]


def test_parse_phrases_q_equals_p():
    text = b"badcfe"
    q = 3
    got = parse_phrases(text, SamplingParams(q, q))
    # boundaries at 1..n-q+1, then one q-long tail
    assert got == [(1, 1), (2, 1), (3, 1), (4, 3)]


def test_parse_phrases_concatenation_restores_text():
    rng = random.Random(88)
    for _ in range(50):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q, 200), rng.choice([2, 4, 26]))
        assert b"".join(_phrase_bytes(text, SamplingParams(q, p))) == text


def test_parse_phrases_too_short():
    with pytest.raises(TextTooShort):
        parse_phrases(b"ab", SamplingParams(4, 2))


def test_encode_id_tagging():
    assert encode_id(0) == b"\x80"
    assert encode_id(127) == b"\xff"
    assert encode_id(128) == b"\x01\x80"
    assert decode_ids(encode_id(0) + encode_id(128) + encode_id(5)) == [0, 128, 5]


def test_codewords_prefix_free():
    words = [encode_id(i) for i in range(4000)]
    assert len(set(words)) == len(words)
    by_first = sorted(words)
    for a, b in zip(by_first, by_first[1:]):
        assert not b.startswith(a) or a == b


def test_decode_ids_truncated_stream():
    with pytest.raises(CorruptEncoding):
        decode_ids(b"\x01")  # continuation byte with no final byte


def test_encode_text_abracadabra():
    dictionary, encoded = encode_text(ABRA, P42)
    assert len(dictionary.phrases) == 4
    assert encoded.phrase_count == 4
    assert len(encoded.stream) == 4  # four one-byte codewords
    assert decode_text(dictionary, encoded) == ABRA


def test_encode_text_frequency_ranking():
    text = b"ababababab" + b"zz"
    dictionary, encoded = encode_text(text, SamplingParams(2, 1))
    # the most frequent phrase takes id 0
    counts = {}
    for pid in encoded.phrase_ids:
        counts[int(pid)] = counts.get(int(pid), 0) + 1
    assert counts[0] == max(counts.values())
    assert decode_text(dictionary, encoded) == text


def test_encode_text_single_symbol():
    dictionary, encoded = encode_text(b"aaaaaaaa", SamplingParams(3, 1))
    assert len(dictionary.phrases) <= 2
    assert decode_text(dictionary, encoded) == b"aaaaaaaa"


def test_roundtrip_randomized():
    rng = random.Random(0xEC0DE)
    for _ in range(80):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q, 300), rng.choice([2, 4, 26, 96]))
        dictionary, encoded = encode_text(text, SamplingParams(q, p))
        assert decode_text(dictionary, encoded) == text


def _assert_encodes_as_reference(text, q, p, sampled=None):
    params = SamplingParams(q, p)
    (phrases, ids, codewords, stream, offsets, positions,
     phrase_ids) = reference_encode_text(text, q, p, sampled)
    dictionary, encoded = encode_text(text, params, sampled)
    assert dictionary.phrases == phrases
    assert dictionary.ids == ids
    assert dictionary.codewords == codewords
    assert encoded.stream == stream
    assert encoded.stream_offsets.tolist() == offsets
    assert encoded.phrase_ids.tolist() == phrase_ids
    assert encoded.text_positions.tolist() == positions
    assert encoded.phrase_ids.dtype == np.uint32
    assert encoded.text_positions.dtype == np.uint32


def test_encode_text_matches_reference():
    rng = random.Random(0x5EED)
    for _ in range(60):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q, 600), rng.choice([2, 4, 26]))
        _assert_encodes_as_reference(text, q, p)
        sampled = sampled_positions(text, SamplingParams(q, p))
        _assert_encodes_as_reference(text, q, p, sampled)


@pytest.mark.parametrize("letters", [2, 4, 26, 256])
def test_encode_text_matches_reference_over_alphabets(letters):
    # alphabets that hold 0x00 and 0xFF, whose symbols bound a key word
    # (2 bits to 9 bits a byte, 32 to 7 bytes a word), and q up to 40,
    # so the longest phrases span up to six words and fold by rank
    rng = random.Random(letters)
    alphabet = bytes([0x00, 0xFF] + rng.sample(range(1, 0xFF), letters - 2))
    folded, first_sampled = set(), set()
    for q in range(1, 41):
        for _ in range(3):
            p = rng.randint(1, q)
            n = rng.randint(q, 400)
            text = bytes(rng.choice(alphabet) for _ in range(n))
            first_sampled.add(window_minimizer(text[:q], p) == 1)
            _assert_encodes_as_reference(text, q, p)
            longest = max(ln for _, ln in parse_phrases(text,
                                                        SamplingParams(q, p)))
            folded.add(longest > 64 // len(set(text)).bit_length())
    assert folded == first_sampled == {False, True}


def test_rebuild_positions_matches_encoder():
    dictionary, encoded = encode_text(ABRA, P42)
    rebuilt = _rebuild(dictionary, encoded.stream)
    assert list(rebuilt.stream_offsets) == list(encoded.stream_offsets)
    assert list(rebuilt.text_positions) == list(encoded.text_positions)
    assert list(rebuilt.phrase_ids) == list(encoded.phrase_ids)


def test_suffix_order_equals_filtered_full_sort():
    # only the codeword starts are sorted; they must come out in the
    # order the full stream suffix array gives them, with 1-, 2- and
    # 3-byte codewords and repeated runs of phrases that tie for long
    rng = random.Random(0x50F7)
    for count in (3, 129, 300, 16385, 20000):
        dictionary = _dictionary(rng, count)
        for _ in range(4):
            block = [rng.randrange(count) for _ in range(rng.randint(1, 12))]
            ids = []
            while len(ids) < 400:
                ids += block if rng.random() < 0.7 else [rng.randrange(count)]
            stream = b"".join(dictionary.codewords[i] for i in ids)
            encoded = _rebuild(dictionary, stream)
            full = build_full_sa(stream).astype(np.int64) - 1
            is_start = np.zeros(len(stream), dtype=bool)
            is_start[encoded.stream_offsets] = True
            expect = full[is_start[full]]
            order = encoded.suffix_order()
            assert encoded.stream_offsets[order].tolist() == expect.tolist()
            assert encoded.column.sa.tolist() == (expect + 1).tolist()


def test_suffix_order_publishes_its_order_view_last():
    # a concurrent query that finds _order_view set reads every other
    # query view without a lock, so each must already be in place, the
    # searched column's fences included
    dictionary, encoded = encode_text(ABRA, P42)
    assigned = []

    class Spy(EncodedText):
        def __setattr__(self, name, value):
            if name == "_order_view":
                assert self.column.fences is not None
            assigned.append(name)
            super().__setattr__(name, value)
    encoded.__class__ = Spy
    encoded.suffix_order()
    assert assigned[-1] == "_order_view"
    assert {"position_view", "column", "_suffix_order"} <= set(assigned)
    assigned.clear()
    encoded.suffix_order()
    assert encoded_locate(dictionary, encoded, len(ABRA), b"abracadab",
                          P42) == [1]
    assert assigned == []


def test_encoded_locate_example():
    dictionary, encoded = encode_text(ABRA, P42)
    # m = 7 = 2q - p + 1 exactly
    assert encoded_locate(dictionary, encoded, len(ABRA), b"racadab", P42) == [3]
    assert naive_locate(ABRA, b"racadab") == [3]


def test_encoded_locate_whole_text():
    dictionary, encoded = encode_text(ABRA, P42)
    assert encoded_locate(dictionary, encoded, len(ABRA), ABRA, P42) == [1]


def test_encoded_locate_absent_phrase():
    dictionary, encoded = encode_text(ABRA, P42)
    assert encoded_locate(dictionary, encoded, len(ABRA), b"zzzzzzz", P42) == []


def test_encoded_locate_too_short():
    dictionary, encoded = encode_text(ABRA, P42)
    with pytest.raises(PatternTooShort):
        encoded_locate(dictionary, encoded, len(ABRA), b"racada", P42)


def _indented_text(rng, lines):
    # indented source lines: whitespace runs encode to codeword strings
    # shared by hundreds of stream suffixes
    words = [b"self", b"return", b"x", b"if", b"None", b"=", b":", b"def"]
    return b"\n".join(
        b" " * rng.choice([0, 4, 8, 8, 12, 16])
        + b" ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
        for _ in range(lines)) + b"\n"


def test_encoded_locate_over_wide_codeword_ranges():
    # each search's upper bound comes from the stream's fences
    text = _indented_text(random.Random(0x1DE), 1500)
    params = SamplingParams(8, 2)
    dictionary, encoded = encode_text(text, params)
    patterns = [b" " * 15, b" " * 16, b"\n" + b" " * 16]
    patterns += [b"\n" + b" " * k + word for k in (8, 12, 16)
                 for word in (b"self", b"return x", b"if None", b"def x")
                 if k + len(word) >= 14]  # m >= 2q - p + 1
    for pattern in patterns:
        stats = QueryStats()
        got = encoded_locate(dictionary, encoded, len(text), pattern, params,
                             stats)
        assert got == naive_locate(text, pattern), pattern
        assert stats.candidates >= 2 * core.FENCE_STRIDE, (pattern, stats)


WIDE = core._VECTOR_MIN_CANDIDATES
NEVER = 1 << 40  # a kernel threshold above every codeword range


def _answers(dictionary, encoded, text, patterns, params):
    out = []
    for pattern in patterns:
        stats = QueryStats()
        got = encoded_locate(dictionary, encoded, len(text), pattern, params,
                             stats)
        out.append((got, stats))
    return out


def _kernel_patterns(rng, text, params):
    # cuts of the text at and near whitespace runs, at its first and
    # last bytes, altered cuts, and the one-boundary patterns
    q, p = params.q, params.p
    n = len(text)
    runs = [i + 1 for i in range(n) if text.startswith(b"\n    ", i)]
    out = [b" " * 15, b" " * 16, b"\n" + b" " * 16, b" " * 16 + b"x"]
    for t in range(300):
        m = rng.randint(2 * q - p + 1, 3 * q + 8)
        i = (rng.choice(runs) + rng.randint(-6, 6) if t % 3 else
             rng.randint(1, n - m + 1))
        i = min(max(i, 1), n - m + 1)
        pattern = bytearray(text[i - 1:i - 1 + m])
        if t % 7 == 3:
            pattern[rng.randrange(m)] = rng.choice(b" x\n")
        out.append(bytes(pattern))
    out += [text[:m] for m in (2 * q - p + 1, 3 * q)]
    out += [text[-m:] for m in (2 * q - p + 1, 3 * q)]
    return out + _one_boundary_cases(rng, text, params, 300)


@pytest.mark.parametrize("threshold", [1, WIDE, NEVER],
                         ids=["every-range", "default", "never"])
def test_wide_kernel_matches_naive_and_walker_stats(monkeypatch, threshold):
    # with threshold 1 every codeword range is verified by core's kernel,
    # down to the last candidate; the scalar path (NEVER) gives
    # QueryStats that every threshold must repeat
    params = SamplingParams(8, 2)
    rng = random.Random(0x3C01)
    for text in (_indented_text(rng, 400), b"        " + _code_text(16384)
                 + b"\n        "):
        dictionary, encoded = encode_text(text, params)
        patterns = _kernel_patterns(rng, text, params)
        monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", NEVER)
        walked = _answers(dictionary, encoded, text, patterns, params)
        monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", threshold)
        got = _answers(dictionary, encoded, text, patterns, params)
        assert got == walked
        for pattern, (hits, _) in zip(patterns, got):
            assert hits == naive_locate(text, pattern), pattern
        # the search kinds and the edge cases were all reached
        counts = [(len(_stable_boundaries(pattern, params)), stats)
                  for pattern, (_, stats) in zip(patterns, got)]
        assert any(c == 1 and st.candidates for c, st in counts)
        wide = [st for c, st in counts if c > 1 and st.candidates >= WIDE]
        assert len(wide) > 20
        # candidates whose occurrence would start before 1 or end past n
        assert any(st.text_verifications < st.candidates for st in wide)


def test_wide_kernel_randomized_at_threshold_one(monkeypatch):
    # every q, p and alphabet, ranges of one candidate included, and
    # occurrences at both ends of the text
    rng = random.Random(0xC011)
    for _ in range(150):
        alphabet = rng.choice([1, 2, 4, 26])
        q = rng.randint(2, 8)
        p = rng.randint(1, q)
        floor = 2 * q - p + 1
        n = rng.randint(floor, 400)
        text = random_text(rng, n, alphabet)
        params = SamplingParams(q, p)
        dictionary, encoded = encode_text(text, params)
        patterns = []
        for _ in range(6):
            m = rng.randint(floor, min(n, floor + 24))
            i = rng.choice([1, n - m + 1, rng.randint(1, n - m + 1)])
            patterns.append(text[i - 1:i - 1 + m])
        monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", NEVER)
        walked = _answers(dictionary, encoded, text, patterns, params)
        monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", 1)
        assert _answers(dictionary, encoded, text, patterns, params) == walked
        for pattern, (hits, _) in zip(patterns, walked):
            assert hits == naive_locate(text, pattern), (text, pattern, q, p)


def test_wide_kernel_first_query_on_a_loaded_bundle():
    # the suffix order's view is built by the first query of a loaded
    # bundle, not by load; its candidates are checked against the text
    # that load attached
    text = _indented_text(random.Random(0x10AD), 1500)
    params = SamplingParams(8, 2)
    bundle = load(io.BytesIO(serialized_bytes(
        build_bundle(text, params, with_phrase=True))), text)
    dictionary, encoded = bundle.dictionary, bundle.encoded
    assert encoded._order_view is None and encoded.text is text
    pattern = b"\n" + b" " * 16 + b"self"
    stats = QueryStats()
    got = encoded_locate(dictionary, encoded, len(text), pattern, params,
                         stats)
    assert got == naive_locate(text, pattern)
    assert stats.candidates >= WIDE
    assert encoded._order_view is not None


def test_wide_phrase_and_samsami_ranges_share_one_kernel(monkeypatch):
    # one function of core checks the wide ranges of both variants: the
    # phrase variant's in-text candidates against the whole pattern,
    # samsami's column survivors against the rest of the skipped prefix
    text = _indented_text(random.Random(0x5A5A), 1500)
    params = SamplingParams(8, 2)
    bundle = build_bundle(text, params, with_phrase=True)
    calls = []
    real = core._text_matches

    def spy(text_, begin, prefix):
        calls.append((len(begin), prefix))
        return real(text_, begin, prefix)

    monkeypatch.setattr(core, "_text_matches", spy)
    pattern = b"x None\n        "
    expect = naive_locate(text, pattern)
    assert encoded_locate(bundle.dictionary, bundle.encoded, len(text),
                          pattern, params) == expect
    assert [prefix for _, prefix in calls] == [pattern]
    assert calls[0][0] >= WIDE
    calls.clear()
    assert locate(bundle.index, pattern) == expect
    j = window_minimizer(pattern[:params.q], params.p)
    assert [prefix for _, prefix in calls] == [pattern[:j - 1 - 4]]
    assert calls[0][0] >= WIDE


def test_encoded_locate_sparse_boundary_fallback():
    # "dcbadcba" parses to boundaries {4, 8}; only 4 is stable at m = 8,
    # leaving no complete phrase to encode: the phrase at 4 is searched
    # under each length it can have
    params = SamplingParams(4, 1)
    text = b"xxdcbadcbaxx"
    dictionary, encoded = encode_text(text, params)
    pattern = b"dcbadcba"
    got = encoded_locate(dictionary, encoded, len(text), pattern, params)
    assert got == naive_locate(text, pattern)


def test_stable_boundaries_map_to_sampled_text_positions():
    rng = random.Random(0x57AB)
    for _ in range(100):
        q = rng.randint(2, 8)
        p = rng.randint(1, q)
        n = rng.randint(2 * q + 4, 300)
        text = random_text(rng, n, rng.choice([2, 4, 26]))
        m = rng.randint(2 * q - p + 1, min(n, 2 * q - p + 24))
        i = rng.randint(1, n - m + 1)
        pattern = text[i - 1:i - 1 + m]
        text_samples = set(
            int(v) for v in sampled_positions(text, SamplingParams(q, p)))
        cutoff = m - q + 2
        for b in sampled_positions(pattern, SamplingParams(q, p)):
            if int(b) <= cutoff:
                assert i + int(b) - 1 in text_samples


def test_encoded_locate_matches_naive_randomized():
    rng = random.Random(0xFA5E)
    for _ in range(200):
        alphabet = rng.choice([2, 4, 26, 96])
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        floor = 2 * q - p + 1
        n = rng.randint(max(q, floor), 400)
        text = random_text(rng, n, alphabet)
        params = SamplingParams(q, p)
        dictionary, encoded = encode_text(text, params)
        for _ in range(3):
            m = rng.randint(floor, min(n, floor + 24))
            if rng.random() < 0.5:
                i = rng.randint(1, n - m + 1)
                pattern = text[i - 1:i - 1 + m]
            else:
                pattern = random_text(rng, m, alphabet)
            expect = naive_locate(text, pattern)
            got = encoded_locate(dictionary, encoded, n, pattern, params)
            assert got == expect, (text, pattern, q, p)
            stats = QueryStats()
            assert encoded_locate(dictionary, encoded, n, pattern, params,
                                  stats) == expect
            assert len(expect) <= stats.text_verifications <= stats.candidates


def _one_boundary_cases(rng, text, params, tries):
    # patterns of 2q-p+1 <= m < 3q-2p with a single stable boundary:
    # cut from the text (at its first and last start among others), cut
    # and altered, or random over 4 letters, which unary texts lack
    q, p = params.q, params.p
    n = len(text)
    out = []
    for t in range(tries):
        m = rng.randint(2 * q - p + 1, min(n, 3 * q - 2 * p - 1))
        i = (1, n - m + 1, rng.randint(1, n - m + 1))[t % 3]
        pattern = bytearray(text[i - 1:i - 1 + m])
        if t % 5 == 3:
            pattern[rng.randrange(m)] = rng.randrange(4)
        elif t % 5 == 4:
            pattern = random_text(rng, m, 4)
        pattern = bytes(pattern)
        if len(_stable_boundaries(pattern, params)) == 1:
            out.append(pattern)
    return out


def test_one_boundary_patterns_match_naive():
    rng = random.Random(0x1B0D)
    seen = {"first": 0, "last": 0, "absent": 0}
    cases = 0
    for _ in range(300):
        alphabet = rng.choice([1, 2, 4, 26])
        q = rng.randint(3, 11)
        p = rng.randint(1, q - 2)  # one boundary needs 2q-p+1 < 3q-2p
        n = rng.randint(3 * q, 300)
        text = random_text(rng, n, alphabet)
        params = SamplingParams(q, p)
        dictionary, encoded = encode_text(text, params)
        for pattern in _one_boundary_cases(rng, text, params, 24):
            expect = naive_locate(text, pattern)
            got = encoded_locate(dictionary, encoded, n, pattern, params)
            assert got == expect, (text, pattern, q, p)
            cases += 1
            seen["first"] += expect[:1] == [1]
            seen["last"] += expect[-1:] == [n - len(pattern) + 1]
            seen["absent"] += not expect
    assert cases > 300 and min(seen.values()) > 20, (cases, seen)


def test_one_boundary_search_reads_no_scan():
    # the one-boundary path searches a few codewords: its candidate
    # ranges stay far below the phrase count a scan would walk
    rng = random.Random(0x5CA)
    text = random_text(rng, 40000, 4)
    params = SamplingParams(12, 2)
    dictionary, encoded = encode_text(text, params)
    patterns = _one_boundary_cases(rng, text, params, 600)
    assert len(patterns) > 30
    worst = 0
    for pattern in patterns:
        stats = QueryStats()
        got = encoded_locate(dictionary, encoded, len(text), pattern, params,
                             stats)
        assert got == naive_locate(text, pattern)
        assert len(got) <= stats.text_verifications <= stats.candidates
        assert stats.pruned == 0
        worst = max(worst, stats.candidates)
    assert worst * 20 < encoded.phrase_count, (worst, encoded.phrase_count)


def test_codeword_table_matches_encode_id():
    for count in (0, 1, 127, 128, 129, 16383, 16384, 16385 + 300):
        assert codeword_table(count) == [encode_id(i) for i in range(count)]


def _rebuild(dictionary, stream):
    """rebuild_positions given the phrase lengths a phrase section holds."""
    sizes = np.array([len(ph) for ph in dictionary.phrases], dtype=np.int64)
    return rebuild_positions(dictionary, stream, sizes)


def _dictionary(rng, count):
    phrases = [bytes([i % 251]) * rng.randint(1, 6) + i.to_bytes(3, "big")
               for i in range(count)]
    return PhraseDictionary(phrases=phrases,
                            ids={ph: i for i, ph in enumerate(phrases)},
                            codewords=codeword_table(count))


def _check_against_reference(dictionary, stream):
    expect = reference_rebuild_positions(dictionary.phrases,
                                         dictionary.codewords, stream)
    assert decode_ids(stream) == reference_decode_ids(stream)
    got = _rebuild(dictionary, stream)
    assert got.stream_offsets.tolist() == expect[0]
    assert got.text_positions.tolist() == expect[1]
    assert got.phrase_ids.tolist() == expect[2]
    if got.phrase_count:  # an empty stream has no order to build
        got.suffix_order()  # which builds the query views
        assert got.position_view.tolist() == expect[1]


def test_encoded_locate_without_text_is_an_error():
    # rebuild_positions leaves the text to load, which attaches it once
    # the phrases spell it; a query on its bare output cannot check
    text = random_text(random.Random(0x7E1), 1500, 4)
    params = SamplingParams(8, 2)
    dictionary, encoded = encode_text(text, params)
    bare = _rebuild(dictionary, encoded.stream)
    assert bare.text is None
    pattern = text[700:732]
    expect = naive_locate(text, pattern)
    assert expect
    assert encoded_locate(dictionary, encoded, len(text), pattern,
                          params) == expect
    for _ in range(2):  # the refusal builds nothing that a retry skips
        with pytest.raises(SamsamiError, match="load attaches"):
            encoded_locate(dictionary, bare, len(text), pattern, params)


def test_decoder_matches_reference_on_codeword_length_edges():
    # ids at the 1/2-byte and 2/3-byte codeword boundaries
    rng = random.Random(0xDEC0)
    edges = [0, 1, 126, 127, 128, 129, 16382, 16383, 16384, 16385, 20000]
    dictionary = _dictionary(rng, 20001)
    for _ in range(60):
        ids = [rng.choice(edges) if rng.random() < 0.6 else
               rng.randrange(20001) for _ in range(rng.randint(1, 300))]
        stream = b"".join(encode_id(i) for i in ids)
        _check_against_reference(dictionary, stream)
        assert decode_ids(stream) == ids


def test_decoder_matches_reference_small_dictionaries():
    rng = random.Random(0xDEC1)
    for count in (1, 2, 127, 128, 129, 300):
        dictionary = _dictionary(rng, count)
        for _ in range(10):
            ids = [rng.randrange(count) for _ in range(rng.randint(0, 80))]
            _check_against_reference(
                dictionary, b"".join(encode_id(i) for i in ids))


def test_decoder_empty_stream():
    dictionary = _dictionary(random.Random(1), 5)
    _check_against_reference(dictionary, b"")
    assert decode_ids(b"") == []
    assert decode_text(dictionary, _rebuild(dictionary, b"")) == b""


@pytest.mark.parametrize("stream", [b"\x01", b"\x80\x01", b"\x85\x00\x00",
                                    b"\x80\x81\x7f"])
def test_decoder_truncated_stream(stream):
    with pytest.raises(ValueError):
        reference_decode_ids(stream)
    with pytest.raises(CorruptEncoding):
        decode_ids(stream)
    with pytest.raises(CorruptEncoding):
        _rebuild(_dictionary(random.Random(2), 200), stream)


def test_decoder_rejects_zero_padded_codeword():
    # b"\x00\x85" spells id 5 with a padding byte the reference skips
    # over; the offsets it then derives from encode_id(5) are one byte
    # short, so the decoder refuses the stream instead
    dictionary = _dictionary(random.Random(3), 200)
    stream = encode_id(7) + b"\x00\x85" + encode_id(9)
    assert reference_decode_ids(stream) == [7, 5, 9]
    offsets, _, _ = reference_rebuild_positions(
        dictionary.phrases, dictionary.codewords, stream)
    assert offsets == [0, 1, 2]
    for bad in (stream, b"\x00\x80", b"\x00\x01\x80",
                encode_id(5) + b"\x00\x00\x85"):
        with pytest.raises(CorruptEncoding):
            _rebuild(dictionary, bad)
        with pytest.raises(CorruptEncoding):
            decode_ids(bad)


def test_decoder_rejects_overlong_codewords():
    # a 2-byte codeword over a 128-id dictionary and a 3-byte one over
    # a 2-byte dictionary
    for count, stream in ((128, encode_id(128)), (200, encode_id(16384)),
                          (200, encode_id(5) + encode_id(1 << 14))):
        with pytest.raises(CorruptEncoding):
            _rebuild(_dictionary(random.Random(4), count), stream)
    # 6 bytes, and 10 bytes whose 70 bits would wrap to id 0 in 64
    for stream in (encode_id(1 << 35), b"\x02" + bytes(8) + b"\x80"):
        with pytest.raises(CorruptEncoding):
            decode_ids(stream)
    assert decode_ids(encode_id((1 << 32) - 1)) == [(1 << 32) - 1]


def test_decoder_rejects_ids_outside_dictionary():
    dictionary = _dictionary(random.Random(5), 200)
    for stream in (encode_id(200), encode_id(3) + encode_id(16383)):
        with pytest.raises(CorruptEncoding):
            _rebuild(dictionary, stream)
        empty = np.zeros(0, np.uint32)
        bare = EncodedText(stream=stream, stream_offsets=empty,
                           text_positions=empty, phrase_ids=empty, text=b"")
        with pytest.raises(CorruptEncoding):
            decode_text(dictionary, bare)


def _reference_stable_boundaries(pattern, params):
    # the definition: the pattern's sampled positions up to m-q+2
    cutoff = len(pattern) - params.q + 2
    return [int(b) for b in sampled_positions(pattern, params)
            if int(b) <= cutoff]


def test_stable_boundaries_match_sampled_positions():
    rng = random.Random(0xB0B0)
    for _ in range(20000):
        q = rng.randint(2, 20)
        p = rng.randint(1, q)
        m = rng.randint(2 * q - p + 1, 2 * q - p + 30)
        pattern = random_text(rng, m, rng.choice([2, 4, 26, 256]))
        params = SamplingParams(q, p)
        expect = _reference_stable_boundaries(pattern, params)
        assert _stable_boundaries(pattern, params) == expect, (pattern, q, p)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_stable_boundaries_every_gram_view(p):
    # p = 2 reads each gram as one big-endian word, any other p as a
    # p-byte string; both must order grams as their bytes do, zero
    # bytes and 0xFF included, and keep the leftmost of equal ones
    rng = random.Random(0x6A4 + p)
    pools = [b"\x00", b"\xff", b"\x00\x01", b"\x00\xff", b"\x7f\x80",
             bytes(range(256))]
    for _ in range(400):
        q = rng.randint(p, 40)
        params = SamplingParams(q, p)
        floor = 2 * q - p + 1
        m = rng.choice([floor, floor + 1, rng.randint(floor, floor + 60)])
        pool = rng.choice(pools)
        pattern = bytes(rng.choice(pool) for _ in range(m))
        expect = _reference_stable_boundaries(pattern, params)
        assert _stable_boundaries(pattern, params) == expect, (pattern, q, p)


@pytest.mark.parametrize("byte", [0x00, 0x01, 0x61, 0x80, 0xFF])
def test_stable_boundaries_single_byte_ties_go_left(byte):
    # every gram ties, so each window keeps its first gram and the
    # boundaries are 1, 2, ..., m-q+1, all left of the cutoff
    for q, p in [(4, 1), (4, 2), (6, 3), (9, 4), (12, 5), (16, 8), (30, 11)]:
        params = SamplingParams(q, p)
        for m in (2 * q - p + 1, 3 * q, 1000):
            pattern = bytes([byte]) * m
            expect = list(range(1, m - q + 2))
            assert _reference_stable_boundaries(pattern, params) == expect
            assert _stable_boundaries(pattern, params) == expect, (byte, q, p)


def test_stable_boundaries_zero_bytes_inside_string_grams():
    # 3-byte grams that differ only after a leading zero byte (00 02 05
    # at 2, 00 01 05 at 5, 00 00 09 at 8), or only in a trailing zero
    # (01 01 01 against 01 01 00), compare by every byte they hold
    for pattern, q, expect in [
            (b"\x05\x00\x02\x05\x00\x01\x05\x00\x00\x09\x09\x09\x09\x09", 8,
             [5, 8]),
            (b"\x01\x01\x01\x01\x01\x00", 4, [1, 2, 4])]:
        params = SamplingParams(q, 3)
        assert _reference_stable_boundaries(pattern, params) == expect
        assert _stable_boundaries(pattern, params) == expect


def test_stable_boundaries_long_patterns():
    rng = random.Random(0x10C0)
    for p in (1, 2, 3, 4, 6, 8, 13):
        for alphabet in (2, 4, 256):
            q = rng.randint(p, 40)
            params = SamplingParams(q, p)
            pattern = random_text(rng, rng.randint(1000, 3000), alphabet)
            expect = _reference_stable_boundaries(pattern, params)
            assert _stable_boundaries(pattern, params) == expect, (q, p)


@pytest.mark.parametrize("block_bytes", [1, 7, 64, 1000])
def test_stable_boundaries_in_blocks_of_windows(monkeypatch, block_bytes):
    # a block budget below one window's grams still parses one window
    # at a time; every block edge must leave each window's minimizer
    monkeypatch.setattr(phrase, "_PARSE_BLOCK_BYTES", block_bytes)
    rng = random.Random(0xB10C + block_bytes)
    for _ in range(200):
        q = rng.randint(2, 30)
        p = rng.randint(1, q)
        params = SamplingParams(q, p)
        m = rng.randint(2 * q - p + 1, 2 * q - p + 200)
        pattern = random_text(rng, m, rng.choice([2, 4, 256]))
        expect = _reference_stable_boundaries(pattern, params)
        assert _stable_boundaries(pattern, params) == expect, (pattern, q, p)


@pytest.mark.parametrize("q, p", [(200, 2), (120, 3)])
def test_stable_boundaries_memory_on_long_patterns(q, p):
    # argmin copies the strided view it reads into one buffer; read at
    # once, a 100,000-byte pattern's view would copy to m(q-p+1)p bytes
    # (about 40 MB here), so the windows are parsed in bounded blocks
    rng = random.Random(q)
    params = SamplingParams(q, p)
    pattern = random_text(rng, 100_000, 256)
    expect = _reference_stable_boundaries(pattern, params)
    tracemalloc.start()
    try:
        got = _stable_boundaries(pattern, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect
    assert peak < 12 * 2**20, peak


def _code_text(size):
    lib = Path(sysconfig.get_paths()["stdlib"])
    out = bytearray()
    for path in sorted(lib.glob("*.py")):
        out += path.read_bytes()
        if len(out) >= size:
            break
    if len(out) < size:
        pytest.skip("not enough standard-library source")
    return bytes(out[:size])


def test_phrase_locate_work_unchanged_by_boundary_parser(monkeypatch):
    # the stable boundaries decide which codeword strings are searched;
    # the parser must give the same answers with the same candidates
    # and decodes as the definition does, on code and on altered code
    text = _code_text(96 * 1024)
    params = SamplingParams(8, 2)
    dictionary, encoded = encode_text(text, params)
    n = len(text)
    rng = random.Random(0xC0DE)
    patterns = []
    for t in range(400):
        m = rng.choice([32, rng.randint(2 * 8 - 2 + 1, 60)])
        i = rng.randint(0, n - m)
        pattern = bytearray(text[i:i + m])
        if t % 4 == 3:
            pattern[rng.randrange(m)] = rng.randrange(256)
        patterns.append(bytes(pattern))

    def run():
        out = []
        for pattern in patterns:
            stats = QueryStats()
            got = encoded_locate(dictionary, encoded, n, pattern, params,
                                 stats)
            out.append((got, stats.candidates, stats.text_verifications))
        return out

    fast = run()
    monkeypatch.setattr(phrase, "_stable_boundaries",
                        _reference_stable_boundaries)
    assert run() == fast
    assert sum(c for _, c, _ in fast) > len(patterns)  # searches ran
    for pattern, (got, _, _) in zip(patterns[:100], fast):
        assert got == naive_locate(text, pattern)
