import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samsami import (InvalidParams, PatternTooShort, SamplingParams,
                     TextTooShort, prune_mask, sampled_positions,
                     window_minimizer)

from samsami import minimizer
from samsami.minimizer import _gram_keys

from helpers import (brute_minimizer, brute_sampled, random_text,
                     reference_gram_keys, reference_prune_table,
                     reference_sampled, reference_window_minimizer)


def test_params_validation():
    SamplingParams(4, 4)
    SamplingParams(1, 1)
    with pytest.raises(InvalidParams):
        SamplingParams(4, 5)
    with pytest.raises(InvalidParams):
        SamplingParams(0, 0)


def test_window_minimizer_examples():
    assert window_minimizer(b"ctgcc", 2) == 4     # smallest 2-gram is "cc"
    assert window_minimizer(b"aaaa", 2) == 1      # leftmost tie-break
    # "ab" appears at 1 and 8; the leftmost wins
    assert brute_minimizer(b"abracadabra", 2) == 1
    assert window_minimizer(b"abracadabra", 2) == 1


def test_window_minimizer_errors():
    with pytest.raises(InvalidParams):
        window_minimizer(b"ab", 3)
    with pytest.raises(InvalidParams):
        window_minimizer(b"ab", 0)


@given(st.binary(min_size=1, max_size=64), st.integers(1, 8))
def test_window_minimizer_matches_oracle(s, p):
    if len(s) < p:
        p = len(s)
    assert window_minimizer(s, p) == brute_minimizer(s, p)


def test_window_minimizer_matches_reference_loop():
    # the first-byte search must pick the same leftmost smallest p-gram
    # as the per-p-gram loop, whatever the alphabet and p
    rng = random.Random(0x3141)
    for _ in range(3000):
        s = random_text(rng, rng.randint(1, 60),
                        rng.choice([1, 2, 3, 4, 26, 256]))
        p = rng.randint(1, len(s))
        assert window_minimizer(s, p) == reference_window_minimizer(s, p), (
            s, p)
    # bytes 0x00 and 0xFF, runs of the smallest byte, and a smallest
    # byte that only the last p-1 positions hold (no p-gram starts there)
    for s, p in [(b"\xff\x00\x00\xff\x00", 2), (b"\x00" * 9, 3),
                 (b"bab\x00", 2), (b"cbcba\x00\x00", 3), (b"\xff" * 5, 5)]:
        assert window_minimizer(s, p) == reference_window_minimizer(s, p), (
            s, p)


def test_sampled_positions_paper_example():
    got = sampled_positions(b"Once upon a time", SamplingParams(5, 1))
    assert list(got) == [5, 10, 12]  # both blanks, then the third
    assert got.dtype == np.uint32


def test_sampled_positions_small_examples():
    assert brute_sampled(b"abracadabra", 4, 2) == [1, 4, 6, 8]
    got = sampled_positions(b"abracadabra", SamplingParams(4, 2))
    assert list(got) == [1, 4, 6, 8]


def test_sampled_positions_q_equals_p():
    text = b"mississippi"
    got = sampled_positions(text, SamplingParams(3, 3))
    assert list(got) == list(range(1, len(text) - 3 + 2))


def test_sampled_positions_single_window():
    got = sampled_positions(b"ctgcc", SamplingParams(5, 2))
    assert list(got) == [4]


def test_sampled_positions_too_short():
    with pytest.raises(TextTooShort):
        sampled_positions(b"abc", SamplingParams(4, 2))


def test_sampled_positions_matches_oracle_randomized():
    rng = random.Random(0xBEEF)
    for _ in range(300):
        alphabet = rng.choice([2, 4, 26, 256])
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        n = rng.randint(q, 300)
        text = random_text(rng, n, alphabet)
        got = sampled_positions(text, SamplingParams(q, p))
        assert list(got) == brute_sampled(text, q, p)


def test_sampled_positions_coverage():
    # every window keeps at least one sample within [w, w+q-p]
    rng = random.Random(0xC0FFEE)
    for _ in range(120):
        alphabet = rng.choice([2, 4, 26, 256])
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        n = rng.randint(q, 4096)
        text = random_text(rng, n, alphabet)
        pos = sampled_positions(text, SamplingParams(q, p))
        lo = np.searchsorted(pos, np.arange(1, n - q + 2), side="left")
        hi = np.searchsorted(pos, np.arange(1, n - q + 2) + (q - p), side="right")
        assert (hi > lo).all()


def test_sampled_positions_determinism_across_equal_windows():
    # equal windows sample equal relative offsets, and each window's
    # choice lands in the reported set
    rng = random.Random(7)
    text = random_text(rng, 700, 3)  # tiny alphabet forces repeats
    q, p = 6, 2
    pos = set(int(v) for v in
              sampled_positions(text, SamplingParams(q, p)))
    offsets = {}
    for w in range(1, len(text) - q + 2):
        window = text[w - 1:w - 1 + q]
        rel = brute_minimizer(window, p)
        if window in offsets:
            assert offsets[window] == rel
        offsets[window] = rel
        assert w + rel - 1 in pos
    assert len(offsets) < len(text) - q + 1  # repeats actually occurred


def test_vectorized_path_agrees_with_deque():
    rng = random.Random(123)
    # past p = 8 grams are ranked by 8-byte chunks; the unary and binary
    # texts make many grams share their first chunk
    for alphabet, p in [(2, 1), (4, 2), (26, 3), (256, 5), (4, 8), (1, 12),
                        (2, 9), (4, 16), (26, 17)]:
        text = random_text(rng, 20000, alphabet)
        for q in (p, p + 3, 12, 2 * p + 5):
            if q < p:
                continue
            fast = sampled_positions(text, SamplingParams(q, p))
            assert list(fast) == reference_sampled(text, q, p)


def test_vectorized_path_is_used_for_large_text():
    rng = random.Random(5)
    text = random_text(rng, 20000, 4)
    got = sampled_positions(text, SamplingParams(8, 2))
    assert list(got) == reference_sampled(text, 8, 2)


def test_sampled_positions_text_of_one_window():
    # n = q: one window, one sample, at every p including p > 8
    rng = random.Random(0x0E1)
    for _ in range(200):
        q = rng.randint(1, 24)
        p = rng.randint(1, q)
        text = random_text(rng, q, rng.choice([1, 2, 4, 256]))
        got = sampled_positions(text, SamplingParams(q, p))
        assert list(got) == reference_sampled(text, q, p)
        assert len(got) == 1


@pytest.mark.parametrize("p", [1, 2, 3, 9])
def test_sampled_positions_every_window_width(p):
    # a window of w grams is covered by two spans of the largest power of
    # two h <= w, so an off-by-one would show at widths next to one
    rng = random.Random(0x5A + p)
    for w in [*range(1, 34), 63, 64, 65]:
        q = w + p - 1
        for make in (random_text, _repetitive_text):
            text = make(rng, rng.randint(q, q + 200), rng.choice([2, 4, 256]))
            got = sampled_positions(text, SamplingParams(q, p))
            assert list(got) == reference_sampled(text, q, p), (w, text)


def _run_text(rng: random.Random, n: int, alphabet: int) -> bytes:
    """Runs of one byte, up to 40 long: a small byte followed by larger
    ones stays the minimizer for many windows, and a run of the smallest
    byte moves it one window at a time."""
    out = bytearray()
    while len(out) < n:
        out += bytes([rng.randrange(alphabet)]) * rng.randint(1, 40)
    return bytes(out[:n])


@pytest.mark.parametrize("p", [1, 2, 5, 9])
@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_sampled_positions_in_blocks_of_windows(monkeypatch, block, p):
    # a minimizer that serves windows on both sides of a block boundary
    # is one sample; past p = 4 each block ranks its own grams, so the
    # repeat is found by position
    monkeypatch.setattr(minimizer, "_SAMPLE_BLOCK", block)
    rng = random.Random(block * 100 + p)
    crossed = False
    for make in (random_text, _repetitive_text, _run_text):
        for _ in range(4):
            q = p + rng.randint(0, 12)
            n = rng.randint(q, 300)
            text = make(rng, n, rng.choice([1, 2, 4, 256]))
            got = sampled_positions(text, SamplingParams(q, p))
            assert got.dtype == np.uint32
            assert got.tolist() == reference_sampled(text, q, p), (q, text)
            crossed |= any(
                reference_window_minimizer(text[lo - 1:lo - 1 + q], p) - 1
                == reference_window_minimizer(text[lo:lo + q], p)
                for lo in range(block, n - q + 1, block))
    assert crossed


@pytest.mark.parametrize("q, p", [(8, 2), (12, 2), (12, 9)])
def test_sampled_positions_memory_is_bounded_by_blocks(q, p):
    # the temporaries are a few block-sized arrays, and the result's
    # blocks are joined once: over 512 KiB the peak stays within 4 MiB
    text = random_text(random.Random(q * 10 + p), 512 * 1024, 4)
    tracemalloc.start()
    try:
        got = sampled_positions(text, SamplingParams(q, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) > len(text) // (q - p + 2)
    assert peak <= 4 << 20, peak


def test_prune_mask_paper_example():
    mask = prune_mask(b"ctgccact", SamplingParams(5, 2))
    assert window_minimizer(b"ctgcc", 2) == 4
    assert not mask[1]  # "gc" can never be a minimizer here
    assert not mask[2]  # neither can "tg"
    assert mask[3]      # "ct" at the pattern start may be


def test_prune_mask_minimizer_at_front():
    mask = prune_mask(b"aazzzzzz", SamplingParams(4, 2))
    assert window_minimizer(b"aazz", 2) == 1
    assert mask.tolist() == [True] * 16  # no offset left of j to test


def test_prune_mask_errors():
    with pytest.raises(PatternTooShort):
        prune_mask(b"ab", SamplingParams(4, 2))


def test_prune_mask_is_sound():
    # whenever a candidate's true predecessor distance is d, the mask
    # must keep d possible
    rng = random.Random(0xACE)
    checked = 0
    for _ in range(250):
        alphabet = rng.choice([2, 4, 8, 26])
        q = rng.randint(2, 10)
        p = rng.randint(1, q)
        n = rng.randint(q + 4, 160)
        text = random_text(rng, n, alphabet)
        pos = [int(v) for v in
               sampled_positions(text, SamplingParams(q, p))]
        m = rng.randint(q, min(n, q + 12))
        i = rng.randint(1, n - m + 1)
        pattern = text[i - 1:i - 1 + m]
        mask = prune_mask(pattern, SamplingParams(q, p))
        j = window_minimizer(pattern[:q], p)
        s = i + j - 1
        assert s in pos  # every occurrence is reachable
        at = pos.index(s)
        if at == 0:
            continue
        d = s - pos[at - 1]
        if 1 <= d <= min(15, j - 1):
            assert mask[d], (text, pattern, q, p, d)
            checked += 1
    assert checked > 20


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(2, 8), st.integers(1, 4))
def test_prune_mask_distances_within_cap(seed, q, p):
    if p > q:
        p = q
    rng = random.Random(seed)
    pattern = random_text(rng, q + 4, 4)
    mask = prune_mask(pattern, SamplingParams(q, p))
    j = window_minimizer(pattern[:q], p)
    assert mask.dtype == bool and mask.shape == (16,)
    # only d in 1..min(15, j-1) has a pattern offset to test
    assert all(mask[d] for d in range(16) if d == 0 or d >= j)


def _prune_possible_reference(pattern, q, p):
    """The direct statement: try every window end, every p-gram in it."""
    j = window_minimizer(pattern[:q], p)
    possible = {}
    for d in range(1, min(15, j - 1) + 1):
        g = j - d
        g_gram = pattern[g - 1:g - 1 + p]
        feasible = False
        # candidate windows end before j's p-gram is fully covered
        for e in range(g + p - 1, j + p - 1):
            start = e - q + 1
            beaten = False
            for h in range(max(1, start), e - p + 2):
                if h == g:
                    continue
                h_gram = pattern[h - 1:h - 1 + p]
                if h_gram < g_gram or (h_gram == g_gram and h < g):
                    beaten = True
                    break
            if not beaten:
                feasible = True
                break
        possible[d] = feasible
    return possible


def test_prune_mask_matches_window_reference():
    rng = random.Random(0x9A5C)
    for _ in range(3000):
        q = rng.randint(2, 45)
        p = rng.randint(1, min(4, q))
        alphabet = rng.choice([2, 3, 4, 26, 256])
        pattern = random_text(rng, q + rng.randint(0, 10), alphabet)
        mask = prune_mask(pattern, SamplingParams(q, p))
        reference = _prune_possible_reference(pattern, q, p)
        assert mask.tolist() == [reference.get(d, True) for d in range(16)], (
            pattern, q, p)
        j = window_minimizer(pattern[:q], p)
        given_j = prune_mask(pattern, SamplingParams(q, p), j)
        assert given_j.tolist() == mask.tolist()


def test_prune_mask_distances_decided_one_at_a_time():
    # the one-pass table, given j or not, must agree with the eager
    # reference and with the direct statement at every distance
    rng = random.Random(0x1A2F)
    for q in range(2, 46):
        for p in range(1, min(4, q) + 1):
            for alphabet in (2, 3, 4, 26, 256):
                pattern = random_text(rng, q + rng.randint(0, 6), alphabet)
                params = SamplingParams(q, p)
                table = prune_mask(pattern, params).tolist()
                j = window_minimizer(pattern[:q], p)
                expect = reference_prune_table(pattern, p, j)
                assert table == expect, (pattern, q, p)
                assert prune_mask(pattern, params, j).tolist() == expect
                reference = _prune_possible_reference(pattern, q, p)
                for d in range(16):
                    assert expect[d] == reference.get(d, True), (
                        pattern, q, p, d)


def test_prune_mask_decides_nothing_until_read(monkeypatch):
    calls = []
    original = minimizer._leftmost_smallest

    def counted(s, p, starts):
        calls.append(starts)
        return original(s, p, starts)

    monkeypatch.setattr(minimizer, "_leftmost_smallest", counted)
    # "ct" is the only record among "ct", "tg", "gc": the table walks to
    # it with one scan, and no scan is left once it reaches offset 1; a
    # given j is not computed again
    mask = prune_mask(b"ctgccact", SamplingParams(5, 2), 4)
    assert mask.tolist() == [True, False, False] + [True] * 13
    assert calls == [3]


def _repetitive_text(rng: random.Random, n: int, alphabet: int) -> bytes:
    """A short random block repeated to length n with a few bytes changed,
    so that long grams recur and tie."""
    block = random_text(rng, rng.randint(1, 12), alphabet)
    text = bytearray((block * (n // len(block) + 1))[:n])
    for _ in range(rng.randint(0, 3)):
        text[rng.randrange(n)] = rng.randrange(alphabet)
    return bytes(text)


def test_gram_keys_order_and_tie_as_the_grams():
    # packed keys up to 4 bytes, dense ranks beyond, and ranks by
    # doubling past 8 bytes: each must order and tie as the bytes do
    rng = random.Random(0x6AA5)
    for p in range(1, 41):
        for alphabet in (1, 2, 4, 256):
            for make in (random_text, _repetitive_text):
                text = make(rng, rng.randint(p, p + 150), alphabet)
                for count in (1, len(text) - p + 1):
                    keys = _gram_keys(text, p, count)
                    assert len(keys) == count and int(keys.max()) < 1 << 32
                    grams = [text[i:i + p] for i in range(count)]
                    order = sorted(range(count), key=grams.__getitem__)
                    for a, b in zip(order, order[1:]):
                        assert keys[a] <= keys[b], (p, text)
                        assert (keys[a] == keys[b]) == (grams[a] == grams[b])
                    assert np.array_equal(
                        keys, reference_gram_keys(text, p, count)), (p, text)
