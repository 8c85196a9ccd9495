import io
import random
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samsami import (SamplingParams, SamsamiError, TextTooShort, build,
                     build_bundle, build_full_sa, count, extract_sampled,
                     load, naive_count, sampled_positions, spasa_build)
from samsami import suffix_sort
from samsami.persistence import serialized_bytes
from samsami.suffix_sort import sort_starts

from helpers import brute_suffix_array, random_text, reference_suffix_sort


def test_abracadabra():
    assert brute_suffix_array(b"abracadabra") == [11, 8, 1, 4, 6, 9, 2, 5, 7, 10, 3]
    assert list(build_full_sa(b"abracadabra")) == [11, 8, 1, 4, 6, 9, 2, 5, 7, 10, 3]


def test_shorter_suffix_sorts_first():
    assert list(build_full_sa(b"aaa")) == [3, 2, 1]


def test_single_byte():
    assert list(build_full_sa(b"b")) == [1]


def test_empty_text_rejected():
    with pytest.raises(TextTooShort):
        build_full_sa(b"")


def test_matches_comparison_sort_randomized():
    rng = random.Random(31337)
    for _ in range(120):
        alphabet = rng.choice([1, 2, 4, 26, 256])
        n = rng.randint(1, 500)
        text = random_text(rng, n, alphabet)
        assert list(build_full_sa(text)) == brute_suffix_array(text)


def test_matches_comparison_sort_larger():
    rng = random.Random(99)
    for alphabet in (2, 26):
        text = random_text(rng, 4096, alphabet)
        assert list(build_full_sa(text)) == brute_suffix_array(text)


def _same_as_reference(text):
    got = build_full_sa(text)
    want = reference_suffix_sort(text)
    assert got.dtype == np.uint32
    assert np.array_equal(got.astype(np.int64) - 1, want), text[:80]


@pytest.mark.parametrize("sigma", [1, 2, 4, 95, 256])
def test_matches_reference_every_short_length(sigma):
    # the packed first key holds 63 // sigma.bit_length() symbols (7 to
    # 63), so lengths 1..70 cover texts shorter than, equal to and just
    # longer than one key
    rng = random.Random(sigma)
    symbols = bytes(range(256)) if sigma == 256 else bytes(range(32, 32 + sigma))
    for n in range(1, 71):
        _same_as_reference(bytes(rng.choice(symbols) for _ in range(n)))
    # every symbol present, so the key packs sigma's full bit width
    _same_as_reference(symbols + bytes(rng.choice(symbols) for _ in range(3000)))


@pytest.mark.parametrize("period", [1, 2, 7])
def test_matches_reference_periodic(period):
    unit = b"acgtxyz"[:period]
    for n in range(1, 71):
        _same_as_reference((unit * n)[:n])
    _same_as_reference((unit * 5000)[:5000])


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


def test_matches_reference_256k_code():
    _same_as_reference(_code_text(256 * 1024))


def test_matches_reference_256k_dna():
    rng = random.Random(77)
    _same_as_reference(bytes(rng.choice(b"ACGT") for _ in range(256 * 1024)))


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=300))
def test_matches_comparison_sort_property(text):
    assert list(build_full_sa(text)) == brute_suffix_array(text)


def test_extract_sampled_example():
    params = SamplingParams(4, 2)
    sampled = sampled_positions(b"abracadabra", params)
    assert list(extract_sampled(b"abracadabra", sampled, params)) == [8, 1, 4, 6]


def test_extract_all_positions_is_identity():
    text = b"mississippi"
    params = SamplingParams(1, 1)
    sampled = sampled_positions(text, params)
    assert list(extract_sampled(text, sampled, params)) == list(build_full_sa(text))


def test_extract_singleton():
    text = b"banana"
    params = SamplingParams(len(text), 1)
    sampled = sampled_positions(text, params)
    # q = n leaves a single window; its minimizer is the only sample
    got = extract_sampled(text, sampled, params)
    assert len(got) == 1


def test_extracted_subsequence_stays_sorted():
    rng = random.Random(4242)
    for _ in range(40):
        text = random_text(rng, rng.randint(8, 300), 4)
        q = rng.randint(2, 8)
        p = rng.randint(1, q)
        if len(text) < q:
            continue
        params = SamplingParams(q, p)
        sampled = sampled_positions(text, params)
        got = [int(v) for v in extract_sampled(text, sampled, params)]
        suffixes = [text[s - 1:] for s in got]
        assert suffixes == sorted(suffixes)
        assert sorted(got) == [int(v) for v in sampled]


# Differential tests of the cover sort: each cover's sorted starts must
# equal the comparison-sorted suffix array filtered to the same starts.

_ALPHABETS = {1: b"\xff", 2: b"\x00\xff", 4: b"\x00a\x80\xff",
              26: bytes(range(97, 121)) + b"\x00\xff", 256: bytes(range(256))}


def _cover_texts(kind):
    rng = random.Random(f"cover/{kind}")
    lengths = list(range(1, 25)) + [31, 40, 64, 127, 300]
    for n in lengths:
        if kind == "unary":
            yield bytes([rng.choice(b"\x00a\xff")]) * n
        elif kind == "periodic":
            unit = bytes(rng.choice(b"\x00ab\xff")
                         for _ in range(rng.randint(2, 9)))
            yield (unit * n)[:n]
        else:
            yield bytes(rng.choice(_ALPHABETS[kind]) for _ in range(n))


def _filtered(full, starts):
    keep = set(starts)
    return [s for s in full if s in keep]


def _qp_pairs(n, rng):
    """Every (q, p) with 1 <= p <= q <= n, or 60 of them beyond n = 24,
    the extremes always among them."""
    if n <= 24:
        return [(q, p) for q in range(1, n + 1) for p in range(1, q + 1)]
    pairs = {(1, 1), (n, 1), (n, n), (2, 1), (n, n // 2)}
    while len(pairs) < 60:
        q = rng.randint(1, n)
        pairs.add((q, rng.randint(1, q)))
    return sorted(pairs)


@pytest.mark.parametrize("kind", [1, 2, 4, 26, 256, "periodic", "unary"])
def test_cover_sort_matches_filtered_full_sa(kind):
    rng = random.Random(f"pairs/{kind}")
    for text in _cover_texts(kind):
        n = len(text)
        full = brute_suffix_array(text)
        assert list(build_full_sa(text)) == full
        for q, p in _qp_pairs(n, rng):
            params = SamplingParams(q, p)
            sampled = sampled_positions(text, params)
            got = extract_sampled(text, sampled, params)
            assert got.dtype == np.uint32
            assert list(got) == _filtered(full, sampled.tolist()), (text, q, p)
        for step in range(1, n + 1):
            starts = range(1, n + 1, step)
            assert list(spasa_build(text, step).sa) == _filtered(full, starts), \
                (text, step)


def test_cover_sort_takes_any_ascending_cover():
    # the sparse array's cover (0, 0, step) and plain doubling's (0, 0, 1)
    # through the routine itself, on a text long enough for several rounds
    rng = random.Random(5)
    text = random_text(rng, 2000, 2)
    full = build_full_sa(text)
    for step in (1, 2, 3, 16, 97):
        starts = np.arange(1, len(text) + 1, step, dtype=np.uint32)
        got = sort_starts(text, starts, 0, 0, step)
        assert np.array_equal(got, full[(full - 1) % step == 0])


def test_texts_past_the_size_limit_refused(monkeypatch):
    # every sort goes through _suffix_order, whose ranks and indexes are
    # int32, so a text past the limit raises there before any is made; a
    # loaded phrase-only file (no offsets) sorts on its first query, and
    # a phrase stream on its first phrase query
    text = random_text(random.Random(0x517E), 400, 4)
    params = SamplingParams(8, 2)
    bundle = build_bundle(text, params, with_phrase=True)
    data = serialized_bytes(bundle)
    limit = min(len(text), len(bundle.encoded.stream)) - 1
    monkeypatch.setattr(suffix_sort, "MAX_TEXT_BYTES", limit)
    loaded = load(io.BytesIO(data), text).index
    assert loaded.sa is None
    for call in (lambda: build(text, params),
                 lambda: spasa_build(text, 1),
                 lambda: spasa_build(text, 8),
                 lambda: build_bundle(text, params, with_phrase=True),
                 bundle.encoded.suffix_order,
                 lambda: count(loaded, text[:8])):
        with pytest.raises(SamsamiError, match="suffix sort"):
            call()
    monkeypatch.setattr(suffix_sort, "MAX_TEXT_BYTES", len(text))
    assert count(loaded, text[:8]) == naive_count(text, text[:8])
    assert len(spasa_build(text, 8).sa) == 50
    assert len(bundle.encoded.suffix_order()) == len(
        bundle.encoded.stream_offsets)
