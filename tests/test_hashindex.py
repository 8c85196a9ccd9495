import random

import pytest

from samsami import (InvalidParams, PatternTooShort, SamplingParams, build,
                     build_table, count_hash, locate, locate_hash,
                     min_pattern_length, naive_locate)

from helpers import random_text, reference_build_table


@pytest.fixture(scope="module")
def abra():
    idx = build(b"abracadabra", SamplingParams(4, 2))
    return idx, build_table(idx, 2)


def test_build_table_groups(abra):
    idx, table = abra
    assert table.capacity == table.occupied == 3
    # groups over sa [8,1,4,6]: "ab" ranks 0..2, "ac" 2..3, "ad" 3..4
    assert table.slots.tolist() == [[0, 2], [2, 3], [3, 4]]


def test_build_table_single_group():
    idx = build(b"aaaaaa", SamplingParams(2, 1))
    table = build_table(idx, 1)
    assert table.slots.tolist() == [[0, len(idx.sa)]]


def test_build_table_excludes_short_suffixes():
    # sampled position 8 has a 4-byte suffix; with k=5 it joins no group
    idx = build(b"abracadabra", SamplingParams(4, 2))
    table = build_table(idx, 5)
    covered = {r for lo, hi in table.slots.tolist() for r in range(lo, hi)}
    assert 0 not in covered  # rank 0 is position 8, suffix "abra"
    assert covered == {1, 2, 3}


def test_excluded_short_suffix_is_lossless():
    # the sought string is always >= k bytes, so a suffix shorter than k
    # could never match anyway
    idx = build(b"abracadabra", SamplingParams(4, 2))
    table = build_table(idx, 5)
    assert locate_hash(idx, table, b"abracad") == [1]
    assert locate_hash(idx, table, b"cadabra") == [5]
    assert locate_hash(idx, table, b"acadabr") == [4]
    with pytest.raises(PatternTooShort):
        locate_hash(idx, table, b"abraca")  # m=6 below max(q-p+k, q)=7


def test_build_table_k_validation(abra):
    idx, _ = abra
    with pytest.raises(InvalidParams):
        build_table(idx, 0)


def test_locate_hash_examples(abra):
    idx, table = abra
    assert locate_hash(idx, table, b"adab") == [6]
    assert count_hash(idx, table, b"adab") == 1


def test_locate_hash_missing_key(abra):
    idx, table = abra
    assert locate_hash(idx, table, b"zzzz") == []


def test_locate_hash_minimum_length(abra):
    idx, table = abra
    assert min_pattern_length(idx.params, 2) == 4
    with pytest.raises(PatternTooShort):
        locate_hash(idx, table, b"ada"[:3])
    table5 = build_table(idx, 5)
    assert min_pattern_length(idx.params, 5) == 7
    with pytest.raises(PatternTooShort):
        locate_hash(idx, table5, b"abraca")


def test_table_rows_ascending_and_disjoint():
    # one nonempty row per distinct k-byte prefix of the sampled
    # suffixes with k bytes or more, each ending where the next begins
    # or a shorter suffix lies
    rng = random.Random(777)
    for _ in range(40):
        alphabet = rng.choice([2, 4, 26])
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        n = rng.randint(q, 300)
        k = rng.randint(1, 6)
        text = random_text(rng, n, alphabet)
        idx = build(text, SamplingParams(q, p))
        rows = build_table(idx, k).slots.tolist()
        assert all(lo < hi for lo, hi in rows)
        assert all(a[1] <= b[0] for a, b in zip(rows, rows[1:]))
        keys = {text[pos - 1:pos - 1 + k] for pos in idx.sa.tolist()
                if pos <= n - k + 1}
        assert len(rows) == len(keys)


def test_locate_hash_equals_locate_randomized():
    rng = random.Random(0x4A54)
    for _ in range(150):
        alphabet = rng.choice([2, 4, 26, 96])
        q = rng.randint(1, 10)
        p = rng.randint(1, q)
        k = rng.randint(1, 6)
        n = rng.randint(q, 400)
        text = random_text(rng, n, alphabet)
        idx = build(text, SamplingParams(q, p))
        table = build_table(idx, k)
        floor = min_pattern_length(idx.params, k)
        if floor > n:
            continue
        for _ in range(3):
            m = rng.randint(floor, min(n, floor + 16))
            if rng.random() < 0.5:
                i = rng.randint(1, n - m + 1)
                pattern = text[i - 1:i - 1 + m]
            else:
                pattern = random_text(rng, m, alphabet)
            expect = naive_locate(text, pattern)
            assert locate_hash(idx, table, pattern) == expect
            assert locate(idx, pattern) == expect


def test_build_table_matches_reference_loop():
    # the numpy grouping must give the per-suffix loop's slots byte for
    # byte, over every alphabet size (0x00 included), k from 1 to 24
    # across the 8-byte word boundaries, k = n, and k beyond the text;
    # then over texts that repeat a block, whose neighbours share far
    # more than the first 8 bytes, some fewer than k
    rng = random.Random(0x7AB1)
    cases = []
    for alphabet in (1, 2, 4, 26, 256):
        for _ in range(10):
            n = rng.randint(1, 300)
            q = rng.randint(1, min(n, 12))
            p = rng.randint(1, q)
            text = random_text(rng, n, alphabet)
            cases.append((text, q, p, (*range(1, 10), 12, 16, 17, 24, n,
                                       n + 1)))
    for alphabet in (1, 2, 4):
        for _ in range(4):
            block = random_text(rng, rng.randint(70, 120), alphabet)
            text = block + block + random_text(rng, rng.randint(0, 40),
                                               alphabet)
            cases.append((text, 4, 2, (64, 65, 72, 100, 130)))
    for text, q, p, ks in cases:
        idx = build(text, SamplingParams(q, p))
        for k in ks:
            table = build_table(idx, k)
            expect = reference_build_table(text, idx.sa, k)
            assert table.capacity == len(expect), (text, q, p, k)
            assert table.slots.tobytes() == expect.tobytes(), (text, q, p, k)
