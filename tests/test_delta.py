import random

import numpy as np

from samsami import (QueryStats, SamplingParams, annotate, build,
                     build_table, count2, locate, locate2, locate_hash,
                     min_pattern_length, naive_locate)
from samsami import core, delta
from samsami.core import _VECTOR_MIN_CANDIDATES, SamsamiIndex

from helpers import random_text, reference_annotate, reference_locate2


def _index_with_positions(positions, n):
    # annotate only reads sa and n, so a stub index is enough
    return SamsamiIndex(text=b"", params=SamplingParams(1, 1),
                        sa=np.array(positions, dtype=np.uint32), n=n)


def test_annotate_worked_example():
    # sampled text positions 3, 10, 12, 15, 20 -> distances 0, 7, 2, 3, 5
    idx = _index_with_positions([3, 10, 12, 15, 20], 24)
    ann = annotate(idx)
    assert list(ann) == [0, 7, 2, 3, 5]


def test_annotate_abracadabra_rank_alignment():
    idx = build(b"abracadabra", SamplingParams(4, 2))
    ann = annotate(idx)
    # text order 1,4,6,8 gives 0,3,2,2; sa order is [8,1,4,6]
    assert list(ann) == [2, 0, 3, 2]


def test_annotate_single_position():
    ann = annotate(_index_with_positions([5], 9))
    assert list(ann) == [0]


def test_annotate_gap_above_fifteen_becomes_zero():
    ann = annotate(_index_with_positions([1, 17], 20))
    assert list(ann) == [0, 0]
    ann = annotate(_index_with_positions([1, 16], 20))
    assert list(ann) == [0, 15]


def test_annotate_matches_reference_loop():
    # one sample (at position 1 and elsewhere), gaps of 15 and 16 on
    # either side of the cut to 0, then random sample sets in rank order
    cases = {(1,): [0], (7,): [0], (16, 1): [15, 0], (1, 17): [0, 0],
             (31, 1, 16, 47): [15, 0, 15, 0]}
    for positions, nibbles in cases.items():
        assert reference_annotate(positions) == nibbles
    rng = random.Random(0xA11)
    for _ in range(60):
        n = rng.randint(1, 200)
        spread = rng.choice([2, 8, 16, 24])
        positions = sorted({rng.randint(1, n)
                            for _ in range(max(1, n // spread))})
        rng.shuffle(positions)
        cases[tuple(positions)] = reference_annotate(positions)
    for positions, nibbles in cases.items():
        got = annotate(_index_with_positions(list(positions),
                                             max(positions) + 3))
        assert got.tolist() == nibbles, positions


def test_annotate_returns_the_nibble_array():
    # the array a bundle holds and locate2 / count2 take
    rng = random.Random(0xA12)
    for _ in range(20):
        text = random_text(rng, rng.randint(20, 400), rng.choice([2, 4, 26]))
        q = rng.randint(2, 12)
        p = rng.randint(1, min(4, q))
        idx = build(text, SamplingParams(q, p))
        got = annotate(idx)
        assert isinstance(got, np.ndarray) and got.dtype == np.uint8
        assert len(got) == idx.n_sampled
        assert got.tolist() == reference_annotate(idx.sa.tolist())


def test_locate2_equals_locate_randomized():
    rng = random.Random(0xDE17A)
    for _ in range(150):
        alphabet = rng.choice([2, 4, 26, 96])
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        n = rng.randint(q, 400)
        text = random_text(rng, n, alphabet)
        idx = build(text, SamplingParams(q, p))
        ann = annotate(idx)
        for _ in range(3):
            m = rng.randint(q, min(n, q + 16))
            if rng.random() < 0.5:
                i = rng.randint(1, n - m + 1)
                pattern = text[i - 1:i - 1 + m]
            else:
                pattern = random_text(rng, m, alphabet)
            expect = naive_locate(text, pattern)
            assert locate2(idx, ann, pattern) == expect
            assert count2(idx, ann, pattern) == len(expect)


def _find_pruning_case():
    """A text where the paper's pattern has a candidate pruned by distance."""
    pattern = b"ctgccact"
    rng = random.Random(0x9E7)
    for _ in range(4000):
        text = bytes(rng.choice(b"acgt") for _ in range(48))
        spot = rng.randrange(0, len(text) - 5)
        text = text[:spot] + b"ccact" + text[spot + 5:]
        idx = build(text, SamplingParams(5, 2))
        ann = annotate(idx)
        plain, pruned = QueryStats(), QueryStats()
        a = locate(idx, pattern, plain)
        b = locate2(idx, ann, pattern, pruned)
        assert a == b == naive_locate(text, pattern)
        if pruned.pruned > 0:
            return plain, pruned
    raise AssertionError("no pruning case found")


def test_pruning_skips_text_access():
    plain, pruned = _find_pruning_case()
    assert pruned.text_verifications < plain.text_verifications
    assert pruned.pruned >= 1


def test_prune_mask_only_for_nonempty_ranges(monkeypatch):
    calls = []
    original = delta.prune_mask

    def counted(pattern, params, j=None):
        calls.append(pattern)
        return original(pattern, params, j)

    monkeypatch.setattr(delta, "prune_mask", counted)
    rng = random.Random(0xE4B7)
    absent = present = 0
    for _ in range(60):
        q = rng.randint(2, 10)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q + 20, 300), 4)
        idx = build(text, SamplingParams(q, p))
        ann = annotate(idx)
        for _ in range(4):
            pattern = random_text(rng, rng.randint(q, q + 8), 4)
            plain, pruned = QueryStats(), QueryStats()
            expect = locate(idx, pattern, plain)
            before = len(calls)
            assert count2(idx, ann, pattern, pruned) == len(expect)
            if plain.candidates == 0:
                absent += 1
                assert len(calls) == before
                assert pruned == QueryStats()
            else:
                present += 1
                assert len(calls) == before + 1
                assert pruned.candidates == plain.candidates
    assert absent > 20 and present > 20


def _repeated_block_text(rng, alphabet):
    # a block repeated to 2000 bytes, a few bytes changed: ranges fall
    # on both sides of the vector kernel's threshold
    block = random_text(rng, rng.randint(3, 40), alphabet)
    text = bytearray((block * (2000 // len(block) + 1))[:2000])
    for _ in range(rng.randint(0, 40)):
        text[rng.randrange(len(text))] = rng.randrange(alphabet)
    return bytes(text)


def _window_or_mutant(rng, text, m, alphabet):
    i = rng.randint(0, len(text) - m)
    pattern = text[i:i + m]
    if rng.random() < 0.3:
        at = rng.randrange(m)
        pattern = (pattern[:at] + bytes([rng.randrange(alphabet)])
                   + pattern[at + 1:])
    return pattern


def test_locate2_stats_match_eager_reference_on_both_paths(monkeypatch):
    # answers and statistics must be those of the eager one-pass prune
    # table whether the scalar loop or the vector kernel serves a range;
    # samsami and samsami-hash count the same candidates, none pruned,
    # each inside the text verified
    rng = random.Random(0x5CA1)
    sides = set()
    for _ in range(40):
        alphabet = rng.choice([2, 4, 26])
        text = _repeated_block_text(rng, alphabet)
        q = rng.randint(4, 16)
        p = rng.randint(1, min(4, q))
        idx = build(text, SamplingParams(q, p))
        ann = annotate(idx)
        table = build_table(idx, 2)
        hashed = min_pattern_length(idx.params, 2)
        for _ in range(8):
            m = rng.randint(q, q + 10)
            pattern = _window_or_mutant(rng, text, m, alphabet)
            hits, candidates, pruned, verified = reference_locate2(
                text, idx.sa, ann, pattern, q, p)
            expect = QueryStats(candidates, verified, pruned)
            plain = QueryStats(candidates, verified + pruned, 0)
            for threshold in (1, 10**9):
                monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", threshold)
                for query in (locate2, count2):
                    stats = QueryStats()
                    got = query(idx, ann, pattern, stats)
                    assert got == (hits if query is locate2 else len(hits))
                    assert stats == expect, (text, pattern, q, p, threshold)
                stats = QueryStats()
                assert locate(idx, pattern, stats) == hits
                assert stats == plain, (text, pattern, q, p, threshold)
                if m >= hashed:
                    stats = QueryStats()
                    assert locate_hash(idx, table, pattern, stats) == hits
                    assert stats == plain, (text, pattern, q, p, threshold)
            assert hits == naive_locate(text, pattern)
            if pruned:
                sides.add(candidates >= _VECTOR_MIN_CANDIDATES)
    assert sides == {False, True}  # pruning seen in ranges of both sizes


def test_answers_never_build_the_prune_mask(monkeypatch):
    # the mask only feeds QueryStats: without them, ranges on both sides
    # of the vector kernel's threshold answer without one
    def refuse(*args):
        raise AssertionError("prune mask built for an answer")

    monkeypatch.setattr(delta, "prune_mask", refuse)
    rng = random.Random(0xA5C)
    sizes = set()
    for _ in range(30):
        alphabet = rng.choice([2, 4, 26])
        text = _repeated_block_text(rng, alphabet)
        q = rng.randint(4, 16)
        p = rng.randint(1, min(4, q))
        idx = build(text, SamplingParams(q, p))
        ann = annotate(idx)
        for _ in range(8):
            pattern = _window_or_mutant(rng, text, rng.randint(q, q + 10),
                                        alphabet)
            expect = naive_locate(text, pattern)
            assert locate2(idx, ann, pattern) == expect
            assert count2(idx, ann, pattern) == len(expect)
            stats = QueryStats()
            locate(idx, pattern, stats)
            sizes.add(stats.candidates >= _VECTOR_MIN_CANDIDATES)
    assert sizes == {False, True}


def test_random_nibbles_never_change_answers(monkeypatch):
    # nibbles only decide which candidates count as pruned, on either
    # path, and candidates starting before the text are never pruned
    rng = random.Random(0x4B1B)
    for _ in range(30):
        alphabet = rng.choice([2, 4, 26])
        text = _repeated_block_text(rng, alphabet)
        q = rng.randint(4, 16)
        p = rng.randint(1, min(4, q))
        idx = build(text, SamplingParams(q, p))
        noise = np.array(
            [rng.randrange(16) for _ in range(idx.n_sampled)], np.uint8)
        for _ in range(8):
            pattern = _window_or_mutant(rng, text, rng.randint(q, q + 10),
                                        alphabet)
            expect = naive_locate(text, pattern)
            _, candidates, pruned, verified = reference_locate2(
                text, idx.sa, noise, pattern, q, p)
            for threshold in (1, 10**9):
                monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", threshold)
                stats = QueryStats()
                assert locate2(idx, noise, pattern) == expect
                assert locate2(idx, noise, pattern, stats) == expect
                assert count2(idx, noise, pattern) == len(expect)
                assert stats == QueryStats(candidates, verified, pruned)
