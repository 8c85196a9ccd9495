import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from samsami import (InvalidParams, PatternTooShort, QueryStats,
                     build_full_sa, naive_count, naive_locate, spasa_build,
                     spasa_count, spasa_locate)
from samsami import baselines, core

from helpers import (brute_locate, brute_suffix_array, random_text,
                     reference_spasa_heads, reference_spasa_locate)

# byte alphabets at the edges of the 8-byte head packing: the zero pad,
# the 0xFF pad, both, and a text of zero bytes only
EDGE_ALPHABETS = (b"\x00\xff", b"\x00\x01", b"\xfe\xff", b"\x00")


def _edge_text(rng: random.Random, alphabet: bytes, n: int) -> bytes:
    text = bytes(rng.choice(alphabet) for _ in range(n))
    if rng.random() < 0.3:  # end in a run of zero bytes
        run = rng.randint(1, min(n, 10))
        text = text[:n - run] + bytes(run)
    return text


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


def test_spasa_edge_bytes_match_naive_and_reference_stats():
    # m runs from step to step+12, so the last alignments' seeds are
    # shorter than 8 bytes and take the padded keys; cuts flush with the
    # text end and texts shorter than 8 bytes take the zero-padded heads
    rng = random.Random(0x8EAD5)
    cases = 0
    for alphabet in EDGE_ALPHABETS:
        for step in range(2, 13):
            for n in (step, step + 3, rng.randint(step + 8, 40),
                      rng.randint(60, 160)):
                text = _edge_text(rng, alphabet, n)
                spasa = spasa_build(text, step)
                for m in range(step, min(n, step + 12) + 1):
                    at = rng.randint(0, n - m)
                    for pattern in (text[n - m:], text[at:at + m],
                                    bytes(rng.choice(alphabet)
                                          for _ in range(m))):
                        got_stats, want_stats = QueryStats(), QueryStats()
                        got = spasa_locate(spasa, pattern, got_stats)
                        assert got == naive_locate(text, pattern)
                        assert got == reference_spasa_locate(
                            spasa, pattern, want_stats)
                        assert got_stats == want_stats
                        cases += 1
    assert cases > 4000


def test_spasa_heads_are_non_decreasing_in_suffix_order():
    # the property the head search rests on, with texts shorter than
    # 8 bytes and texts that end in runs of zero bytes
    rng = random.Random(0x4EAD)
    for alphabet in EDGE_ALPHABETS + (b"ACGT",):
        for step in range(2, 13):
            for n in (step, rng.randint(step, 12), rng.randint(30, 200)):
                text = _edge_text(rng, alphabet, n)
                spasa = spasa_build(text, step)
                spasa_locate(spasa, text[:step])
                heads = spasa.heads
                assert heads.tolist() == reference_spasa_heads(text,
                                                               spasa.sa)
                assert bool(np.all(heads[1:] >= heads[:-1]))


@pytest.mark.parametrize("threshold", [0, core._VECTOR_MIN_CANDIDATES])
def test_spasa_column_kernel_matches_naive_and_rank_ranges(threshold,
                                                           monkeypatch):
    # spasa with step > 1 verifies through the left-context column as
    # samsami does. Per alignment off, each kept suffix that starts with
    # pattern[off-1:] is a candidate and, when off > 1 and the
    # occurrence would start inside the text, a text verification; the
    # kept suffix at position 1 stands for one that would start before
    # it. On 1-letter texts every range holds n/step candidates.
    monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", threshold)
    entered = []
    real = core._verify_vector

    def spy(*args):
        entered.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_verify_vector", spy)
    rng = random.Random(0xC07)
    before_text = 0
    for alphabet in (1, 2, 4):
        text = random_text(rng, 900, alphabet)
        assert spasa_build(text, 1).left is None  # j is always 1
        for step in range(2, 9):
            spasa = spasa_build(text, step)
            kept = spasa.sa.tolist()
            padded = bytes(4) + text
            assert spasa.left.tolist() == [
                int.from_bytes(padded[s - 1:s + 3], "little") for s in kept]
            for m in (step, step + 3, step + 7):
                at = rng.randint(0, len(text) - m)
                for pattern in (text[:m], text[-m:], text[at:at + m],
                                random_text(rng, m, alphabet)):
                    want = QueryStats()
                    for off in range(1, step + 1):
                        seq = pattern[off - 1:]
                        hits = [s for s in kept
                                if text[s - 1:s - 1 + len(seq)] == seq]
                        want.candidates += len(hits)
                        if off > 1:
                            want.text_verifications += sum(
                                s >= off for s in hits)
                            before_text += sum(s < off for s in hits)
                    stats = QueryStats()
                    assert spasa_locate(spasa, pattern, stats) == \
                        naive_locate(text, pattern), (step, pattern)
                    assert stats == want, (step, pattern)
    assert before_text > 0
    # at the default threshold, every range of 48 or more reaches it
    assert len(entered) > 20


@pytest.mark.parametrize("threshold", [0, 1, 2, 1000,
                                       baselines._NARROW_MIN_SUFFIXES])
def test_spasa_direct_bounds_match_naive_and_reference_stats(threshold,
                                                             monkeypatch):
    # A head bound of fewer than threshold suffixes is checked suffix by
    # suffix and never reaches _prefix_range; a wider one is narrowed.
    # The bounds are recomputed here from reference heads, and seeds of
    # 0x00 or 0xFF bytes alone put the padded keys at 0 and 2**64 - 1.
    monkeypatch.setattr(baselines, "_NARROW_MIN_SUFFIXES", threshold)
    narrowed = []

    def spy(text, sa, lo, hi, seq, fences=None):
        narrowed.append((lo, hi))
        return core._prefix_range(text, sa, lo, hi, seq, fences)

    monkeypatch.setattr(baselines, "_prefix_range", spy)
    rng = random.Random(0xD12EC7 + threshold)
    wide = 0
    for alphabet in EDGE_ALPHABETS:
        for step in range(2, 13):
            for n in (step, rng.randint(step + 8, 40), rng.randint(60, 160)):
                text = _edge_text(rng, alphabet, n)
                spasa = spasa_build(text, step)
                heads = reference_spasa_heads(text, spasa.sa)
                for m in range(step, min(n, step + 12) + 1):
                    at = rng.randint(0, n - m)
                    for pattern in (text[at:at + m], bytes(m), b"\xff" * m,
                                    bytes(m // 2) + b"\xff" * (m - m // 2),
                                    bytes(rng.choice(alphabet)
                                          for _ in range(m))):
                        want_narrowed = []
                        for off in range(1, step + 1):
                            seed = pattern[off - 1:off + 7]
                            lo = bisect_left(heads, int.from_bytes(
                                seed.ljust(8, b"\0"), "big"))
                            hi = bisect_right(heads, int.from_bytes(
                                seed.ljust(8, b"\xff"), "big"))
                            if hi > lo and hi - lo >= threshold:
                                want_narrowed.append((lo, hi))
                        narrowed.clear()
                        got_stats, want_stats = QueryStats(), QueryStats()
                        got = spasa_locate(spasa, pattern, got_stats)
                        assert got == naive_locate(text, pattern)
                        assert got == reference_spasa_locate(
                            spasa, pattern, want_stats)
                        assert got_stats == want_stats
                        assert narrowed == want_narrowed
                        wide += len(narrowed)
    assert (wide == 0) == (threshold == 1000)
