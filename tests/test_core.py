import random

import pytest

from samsami import (MatchRange, PatternTooShort, QueryStats, SamplingParams,
                     TextTooShort, annotate, build, build_full_sa,
                     build_table, count, locate, locate2, locate_hash,
                     naive_locate, spasa_build, spasa_locate, suffix_range,
                     window_minimizer)
from samsami import core

from helpers import random_text

ABRA = b"abracadabra"


@pytest.fixture(scope="module")
def abra_index():
    return build(ABRA, SamplingParams(4, 2))


def test_build_example(abra_index):
    assert list(abra_index.sa) == [8, 1, 4, 6]
    assert abra_index.n_sampled == 4
    assert abra_index.n == 11


def test_build_q1_p1_keeps_every_suffix():
    idx = build(ABRA, SamplingParams(1, 1))
    assert list(idx.sa) == list(build_full_sa(ABRA).sa)


def test_build_once_upon():
    idx = build(b"Once upon a time", SamplingParams(5, 1))
    assert idx.n_sampled == 3


def test_build_too_short():
    with pytest.raises(TextTooShort):
        build(b"abc", SamplingParams(4, 2))


def test_suffix_range_examples(abra_index):
    assert suffix_range(abra_index, b"ab") == MatchRange(0, 2)
    lo, hi = suffix_range(abra_index, b"zz")
    assert lo == hi
    assert suffix_range(abra_index, b"acad") == MatchRange(2, 3)


def test_suffix_range_ignores_short_suffixes():
    # "a" suffix of "za" is shorter than the query and must not match
    idx = build(b"za", SamplingParams(1, 1))
    lo, hi = suffix_range(idx, b"ab")
    assert lo == hi


def test_locate_examples(abra_index):
    assert locate(abra_index, b"adab") == [6]
    assert locate(abra_index, b"acad") == [4]
    assert locate(abra_index, ABRA) == [1]


def test_locate_rejects_candidate_before_text_start(abra_index):
    # "adab" matches sampled suffix "ab..." at position 1 too, where the
    # candidate start would be -1
    stats = QueryStats()
    assert locate(abra_index, b"adab", stats) == [6]
    assert stats.candidates == 2


def test_count_examples(abra_index):
    assert count(abra_index, b"abra") == 2
    assert count(abra_index, b"abrz") == 0
    assert count(abra_index, b"adab") == 1


def test_pattern_too_short(abra_index):
    with pytest.raises(PatternTooShort):
        locate(abra_index, b"ab")
    with pytest.raises(PatternTooShort):
        count(abra_index, b"ab")


def test_locate_output_is_sorted_by_position():
    # rank order is lexicographic, not positional; output must be sorted
    text = b"abab" * 8 + b"xy"
    idx = build(text, SamplingParams(3, 1))
    got = locate(idx, b"aba")
    assert got == sorted(got)
    assert got == naive_locate(text, b"aba")


def test_differential_small_sweep():
    rng = random.Random(0xD1FF)
    for _ in range(150):
        alphabet = rng.choice([2, 4, 26, 96])
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        n = rng.randint(q, 400)
        text = random_text(rng, n, alphabet)
        idx = build(text, SamplingParams(q, p))
        for _ in range(4):
            m = rng.randint(q, min(n, q + 20))
            if rng.random() < 0.5:
                i = rng.randint(1, n - m + 1)
                pattern = text[i - 1:i - 1 + m]
            else:
                pattern = random_text(rng, m, alphabet)
            expect = naive_locate(text, pattern)
            assert locate(idx, pattern) == expect
            assert count(idx, pattern) == len(expect)


def test_every_occurrence_is_reachable():
    rng = random.Random(0xFACE)
    for _ in range(80):
        alphabet = rng.choice([2, 4, 26])
        q = rng.randint(1, 10)
        p = rng.randint(1, q)
        n = rng.randint(q + 2, 256)
        text = random_text(rng, n, alphabet)
        idx = build(text, SamplingParams(q, p))
        sampled = set(int(v) for v in idx.sa)
        m = rng.randint(q, min(n, q + 6))
        i = rng.randint(1, n - m + 1)
        pattern = text[i - 1:i - 1 + m]
        j = window_minimizer(pattern[:q], p)
        for occ in naive_locate(text, pattern):
            assert occ + j - 1 in sampled


def test_counting_is_monotone_under_left_extension():
    # occ(s) >= occ(xs): the prefix window is the right place to search
    rng = random.Random(0x5150)
    for _ in range(200):
        text = random_text(rng, rng.randint(10, 300), rng.choice([2, 4, 26]))
        m = rng.randint(2, 8)
        i = rng.randint(2, len(text) - m + 1)
        s = text[i - 1:i - 1 + m]
        xs = text[i - 2:i - 1 + m]
        assert len(naive_locate(text, s)) >= len(naive_locate(text, xs))


def _repetitive_text():
    line = b"ab" * 24 + b"\n" + b" " * 30 + b"x = ab\n"
    return line * 20 + b"    " * 50 + b"ab" * 300


def _random_text():
    return random_text(random.Random(0x5EED), 4000, 2)


@pytest.mark.parametrize("make_text", [_repetitive_text, _random_text])
def test_verification_paths_agree(make_text, monkeypatch):
    # the scalar loop and the numpy kernel must give the same answers
    # and the same QueryStats, whichever variant calls them; the default
    # cutoff also runs the kernel's scalar finish
    text = make_text()
    params = SamplingParams(12, 2)
    idx = build(text, params)
    ann = annotate(idx)
    table = build_table(idx, 3)
    spasa = spasa_build(text, 8)
    variants = {
        "locate": lambda pat, st: locate(idx, pat, st),
        "locate2": lambda pat, st: locate2(idx, ann, pat, st),
        "locate_hash": lambda pat, st: locate_hash(idx, table, pat, st),
        "spasa_locate": lambda pat, st: spasa_locate(spasa, pat, st),
    }
    rng = random.Random(0xB07)
    patterns = set()
    for _ in range(120):
        m = rng.randint(13, 40)
        i = rng.randint(1, len(text) - m + 1)
        pattern = bytearray(text[i - 1:i - 1 + m])
        if rng.random() < 0.3:
            pattern[rng.randrange(m)] = rng.choice(b"ab \n01")
        patterns.add(bytes(pattern))

    cutoff = core._VECTOR_MIN_CANDIDATES
    runs = {}
    for forced in (0, cutoff, 1 << 30):
        monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", forced)
        for name, fn in variants.items():
            for pattern in patterns:
                stats = QueryStats()
                runs.setdefault((name, pattern), []).append(
                    (fn(pattern, stats), stats))
    largest = 0
    for (name, pattern), results in runs.items():
        expect = naive_locate(text, pattern)
        first = results[0][1]
        for hits, stats in results:
            assert hits == expect, (name, pattern)
            assert stats == first, (name, pattern)
        largest = max(largest, first.candidates)
    assert largest > cutoff  # ranges the kernel serves by default
