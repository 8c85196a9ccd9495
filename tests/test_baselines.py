import random

import pytest

from samsami import (InvalidParams, PatternTooShort, build_full_sa,
                     naive_count, naive_locate, spasa_build, spasa_count,
                     spasa_locate)

from helpers import brute_locate, brute_suffix_array, random_text


def test_naive_locate_examples():
    assert naive_locate(b"abracadabra", b"abra") == [1, 8]
    assert naive_locate(b"abracadabra", b"z") == []
    assert naive_locate(b"aaaa", b"aa") == [1, 2, 3]  # overlaps count
    assert naive_count(b"aaaa", b"aa") == 3


def test_naive_locate_empty_pattern():
    with pytest.raises(InvalidParams):
        naive_locate(b"abc", b"")


def test_naive_locate_matches_position_scan():
    rng = random.Random(11)
    for _ in range(100):
        text = random_text(rng, rng.randint(1, 200), rng.choice([2, 4, 26]))
        m = rng.randint(1, 6)
        pattern = random_text(rng, m, 4)
        assert naive_locate(text, pattern) == brute_locate(text, pattern)


def test_spasa_build_step1_is_plain_sa():
    spasa = spasa_build(b"abracadabra", 1)
    assert list(spasa.sa) == list(build_full_sa(b"abracadabra"))


def test_spasa_build_step4():
    # samples 1, 5, 9: suffixes "abracadabra" < "bra" < "cadabra"
    spasa = spasa_build(b"abracadabra", 4)
    suffixes = sorted(b"abracadabra"[s - 1:] for s in (1, 5, 9))
    assert [b"abracadabra"[int(v) - 1:] for v in spasa.sa] == suffixes
    assert list(spasa.sa) == [1, 9, 5]


def test_spasa_build_step_n():
    spasa = spasa_build(b"abracadabra", 11)
    assert list(spasa.sa) == [1]


def test_spasa_build_validation():
    with pytest.raises(InvalidParams):
        spasa_build(b"abc", 0)
    with pytest.raises(InvalidParams):
        spasa_build(b"abc", 4)


def test_spasa_locate_examples():
    spasa = spasa_build(b"abracadabra", 2)
    assert spasa_locate(spasa, b"abra") == [1, 8]
    spasa4 = spasa_build(b"abracadabra", 4)
    assert spasa_locate(spasa4, b"adab") == [6]
    assert spasa_count(spasa4, b"adab") == 1


def test_spasa_pattern_too_short():
    spasa = spasa_build(b"abracadabra", 4)
    with pytest.raises(PatternTooShort):
        spasa_locate(spasa, b"abr")


def test_spasa_matches_naive_randomized():
    rng = random.Random(0x5BA5A)
    for _ in range(150):
        alphabet = rng.choice([2, 4, 26, 96])
        n = rng.randint(2, 400)
        step = rng.randint(1, min(8, n))
        text = random_text(rng, n, alphabet)
        spasa = spasa_build(text, step)
        for _ in range(4):
            m = rng.randint(step, min(n, step + 20))
            if rng.random() < 0.5:
                i = rng.randint(1, n - m + 1)
                pattern = text[i - 1:i - 1 + m]
            else:
                pattern = random_text(rng, m, alphabet)
            got = spasa_locate(spasa, pattern)
            assert got == naive_locate(text, pattern)
            assert len(set(got)) == len(got)  # one offset per occurrence


def test_plain_sa_search_any_length():
    rng = random.Random(210)
    text = random_text(rng, 300, 4)
    plain = spasa_build(text, 1)
    for m in (1, 2, 5):
        pattern = random_text(rng, m, 4)
        assert spasa_locate(plain, pattern) == naive_locate(text, pattern)


def test_brute_suffix_array_helper_agrees():
    # keep the two independent oracles honest against each other
    rng = random.Random(3)
    text = random_text(rng, 64, 3)
    assert brute_suffix_array(text) == list(build_full_sa(text))
