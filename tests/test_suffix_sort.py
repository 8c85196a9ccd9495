import random
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samsami import (SamplingParams, TextTooShort, build_full_sa,
                     extract_sampled, sampled_positions)
from samsami.suffix_sort import _doubling_sort

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
    got = _doubling_sort(text)
    want = reference_suffix_sort(text)
    assert got.dtype == np.int32
    assert np.array_equal(got, want), text[:80]


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
    full = build_full_sa(b"abracadabra")
    sampled = sampled_positions(b"abracadabra", SamplingParams(4, 2))
    assert list(extract_sampled(full, sampled)) == [8, 1, 4, 6]


def test_extract_all_positions_is_identity():
    text = b"mississippi"
    full = build_full_sa(text)
    sampled = sampled_positions(text, SamplingParams(1, 1))
    assert list(extract_sampled(full, sampled)) == list(full)


def test_extract_singleton():
    text = b"banana"
    full = build_full_sa(text)
    sampled = sampled_positions(text, SamplingParams(len(text), 1))
    # q = n leaves a single window; its minimizer is the only sample
    got = extract_sampled(full, sampled)
    assert len(got) == 1


def test_extracted_subsequence_stays_sorted():
    rng = random.Random(4242)
    for _ in range(40):
        text = random_text(rng, rng.randint(8, 300), 4)
        q = rng.randint(2, 8)
        p = rng.randint(1, q)
        if len(text) < q:
            continue
        full = build_full_sa(text)
        sampled = sampled_positions(text, SamplingParams(q, p))
        got = [int(v) for v in extract_sampled(full, sampled)]
        suffixes = [text[s - 1:] for s in got]
        assert suffixes == sorted(suffixes)
        assert sorted(got) == [int(v) for v in sampled]
