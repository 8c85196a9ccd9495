import builtins
import io
import math
import random
import sys
import threading
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from samsami import (PatternTooShort, QueryStats, SamplingParams, TextTooShort,
                     annotate, build, build_bundle, build_full_sa,
                     build_table, count, count2, count_hash, encode_text,
                     encoded_locate, load, locate, locate2, locate_hash,
                     naive_locate, parse_phrases, sampled_positions,
                     spasa_build, spasa_locate, suffix_range,
                     window_minimizer)
from samsami import baselines, core, hashindex, phrase
from samsami.persistence import serialized_bytes

from helpers import (brute_group, brute_suffix_array, random_text,
                     reference_groups, reference_locate2,
                     reference_spasa_heads, wide_pattern)

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
    assert list(idx.sa) == list(build_full_sa(ABRA))


def test_build_once_upon():
    idx = build(b"Once upon a time", SamplingParams(5, 1))
    assert idx.n_sampled == 3


def test_build_too_short():
    with pytest.raises(TextTooShort):
        build(b"abc", SamplingParams(4, 2))


def test_too_short_text_has_one_message():
    # the index builder, the phrase encoder and the sampler reject a
    # text shorter than q in one place, with one message
    for fn in (build, encode_text, parse_phrases, sampled_positions):
        with pytest.raises(TextTooShort) as err:
            fn(bytes(2000), SamplingParams(3000, 2))
        assert str(err.value) == "text length 2000 < window length q=3000"


def test_suffix_range_examples(abra_index):
    assert suffix_range(abra_index, b"ab") == (0, 2)
    lo, hi = suffix_range(abra_index, b"zz")
    assert lo == hi
    assert suffix_range(abra_index, b"acad") == (2, 3)


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


def _brute_prefix_range(text, sa, lo, hi, seq):
    # in a sorted run of heads, seq's range is bounded by the count of
    # heads below it and the count of heads not above it
    heads = [text[s - 1:s - 1 + len(seq)] for s in sa[lo:hi]]
    return (lo + sum(h < seq for h in heads),
            lo + sum(h <= seq for h in heads))


def test_prefix_range_gallop_matches_sorted_scan():
    rng = random.Random(0x6A11)
    texts = [
        b"a" * 200,  # one suffix per length: ranges run up to hi
        bytes([0x00, 0xFF]) * 60 + b"\x00" * 20,
        random_text(rng, 400, 2),
        bytes(rng.choice(b"\x00\x01\xfe\xff") for _ in range(500)),
    ]
    for text in texts:
        sa = memoryview(np.array(brute_suffix_array(text), dtype=np.uint32))
        n = len(sa)
        seqs = {text[i:i + k] for i in rng.sample(range(len(text)), 40)
                for k in (1, 2, 5, 17)}
        seqs |= {b"\x00", b"\xff", b"\x00" * 3, b"\xff" * 3,
                 text + b"\x00", text + b"\xff",  # longer than every suffix
                 b"\xff" * (len(text) + 1)}
        for seq in seqs:
            bounds = [(0, n), (n, n)]
            bounds += [tuple(sorted(rng.sample(range(n + 1), 2)))
                       for _ in range(4)]  # sub-ranges, as the hash path
            for lo, hi in bounds:
                got = core._prefix_range(text, sa, lo, hi, seq)
                assert tuple(got) == _brute_prefix_range(text, sa, lo, hi,
                                                         seq), (seq, lo, hi)


@pytest.mark.parametrize("stride, width", [(1, 1), (2, 3), (3, 2), (8, 5)])
def test_fenced_prefix_range_equals_fence_free(stride, width, monkeypatch):
    # tiny fences, so that searched strings outrun them and many fences
    # tie; sparse subsets keep suffix order with gaps, as samsami does
    monkeypatch.setattr(core, "FENCE_STRIDE", stride)
    monkeypatch.setattr(core, "FENCE_WIDTH", width)
    rng = random.Random(0xFE9 + 10 * stride + width)
    clamped = {"start below lo": 0, "start above hi": 0, "stop above hi": 0}
    texts = [b"\x00" * 60, b"\xff" * 60, b"a" * 60,
             bytes([0x00, 0xFF]) * 30 + b"\x00" * 10,
             random_text(rng, 150, 2),
             bytes(rng.choice(b"\x00\x01\xfe\xff") for _ in range(150))]
    for text in texts:
        full = brute_suffix_array(text)
        subsets = [full, full[::3], [s for s in full if s % 4 == 1],
                   [s for s in full if rng.random() < 0.4]]
        seqs = {text[i:i + k] for i in rng.sample(range(len(text)), 12)
                for k in (1, width, width + 1, 2 * width + 3, 40)}
        seqs |= {b"\x00", b"\xff", b"\x00" * (width + 2),
                 b"\xff" * (width + 2), text + b"\x00"}
        for positions in subsets:
            sa = memoryview(np.array(positions, dtype=np.uint32))
            fences = core._fences(text, sa)
            assert len(fences) == -(-len(sa) // stride)
            n = len(sa)
            bounds = [(0, n)] + [tuple(sorted(rng.sample(range(n + 1), 2)))
                                 for _ in range(3)]
            for seq in seqs:
                # answers of size 0, 1 and 2 that end at hi
                first, end = _brute_prefix_range(text, sa, 0, n, seq)
                ending = [(lo, first + size) for size in (0, 1, 2)
                          if first + size <= end
                          for lo in (0, rng.randrange(first + 1))]
                # bounds that cut seq's fence strides, so that the search
                # clamps their ranks [start, stop) to [lo, hi)
                key = seq[:width]
                below = bisect_left(fences, key)
                above = (below if len(seq) <= width
                         else bisect_right(fences, key, below))
                start, stop = (below - 1) * stride + 1, above * stride
                cuts = [(lo, hi) for lo, hi in
                        [(start + 1, n), (0, start - 1), (0, stop - 1)]
                        if 0 <= lo <= hi <= n]
                for lo, hi in bounds + ending + cuts:
                    clamped["start below lo"] += start < lo
                    clamped["start above hi"] += start > hi
                    clamped["stop above hi"] += stop > hi
                    got = core._prefix_range(text, sa, lo, hi, seq, fences)
                    assert got == core._prefix_range(text, sa, lo, hi, seq)
                    assert tuple(got) == _brute_prefix_range(
                        text, sa, lo, hi, seq), (seq, lo, hi)
    assert all(clamped.values()), clamped


class _CountingSA:
    """A sequence over sa that counts the entries read from it."""

    def __init__(self, sa):
        self.sa, self.reads = sa, 0

    def __getitem__(self, rank):
        self.reads += 1
        return self.sa[rank]


def _fence_bounded_reads(stride):
    # one bisect inside the stride below the lower bound, the two reads
    # that rule out an answer of one or two suffixes, one bisect inside
    # the stride below the upper bound
    return 2 * math.log2(stride) + 4


@pytest.mark.parametrize("stride, width", [(1, 1), (2, 3), (3, 2), (8, 5)])
def test_fence_bounded_upper_bound(stride, width, monkeypatch):
    # answers that span two or more strides take their upper bound from
    # the fences: equal to the fence-free search and the sorted scan,
    # with lo and hi also clipped inside the answer, for seqs of only
    # 0xFF bytes (no successor) and seqs just past the fence width
    monkeypatch.setattr(core, "FENCE_STRIDE", stride)
    monkeypatch.setattr(core, "FENCE_WIDTH", width)
    rng = random.Random(0xB0D + 10 * stride + width)
    texts = [b"a" * 80, b"\xff" * 80, b"\x00" * 40 + b"\xff" * 40,
             b"\xfe" + b"\xff" * 30 + b"\xfe\xff" * 25, b"ab" * 40,
             random_text(rng, 200, 2)]
    spanned = {"fenced": 0, "only 0xff": 0, "longer than a fence": 0}
    for text in texts:
        full = brute_suffix_array(text)
        seqs = {run * k for run in (b"a", b"\xff", b"\xfe\xff", b"ab")
                for k in range(1, width + 3)}
        seqs |= {text[i:i + k] for i in rng.sample(range(len(text)), 10)
                 for k in (1, width, width + 1)}
        for positions in (full, [s for s in full if s % 3 != 1]):
            sa = memoryview(np.array(positions, dtype=np.uint32))
            fences = core._fences(text, sa)
            n = len(sa)
            for seq in seqs:
                first, end = _brute_prefix_range(text, sa, 0, n, seq)
                if end - first < 2 * stride:
                    continue
                inside = [rng.randrange(first, end) for _ in range(3)]
                bounds = [(0, n), (first, end)]
                bounds += [(lo, n) for lo in inside]  # lo clipped
                bounds += [(0, hi + 1) for hi in inside]  # hi clipped
                bounds += [tuple(sorted((a + 1, b))) for a, b in
                           zip(inside, reversed(inside))]  # both
                for lo, hi in bounds:
                    got = core._prefix_range(text, sa, lo, hi, seq, fences)
                    assert got == core._prefix_range(text, sa, lo, hi, seq)
                    assert tuple(got) == _brute_prefix_range(
                        text, sa, lo, hi, seq), (seq, lo, hi)
                counted = _CountingSA(sa)
                core._prefix_range(text, counted, 0, n, seq, fences)
                if len(seq) <= width:
                    assert counted.reads <= _fence_bounded_reads(stride)
                    spanned["fenced"] += 1
                    spanned["only 0xff"] += not seq.strip(b"\xff")
                elif len(seq) == width + 1:
                    spanned["longer than a fence"] += 1
    assert all(spanned.values()), spanned


def test_fence_bounded_search_reads_few_entries():
    # an answer of thousands of suffixes costs two bisects of one stride
    # each, while a seq longer than a fence still gallops
    rng = random.Random(0x5EA)
    text = (random_text(rng, 500, 4) + b"\n" + b" " * 3000
            + random_text(rng, 500, 4) + b"\xff" * 2500)
    sa = memoryview(build_full_sa(text))
    fences = core._fences(text, sa)
    bound = _fence_bounded_reads(core.FENCE_STRIDE)
    for run in (b" ", b"\xff"):
        for width in (1, 10, core.FENCE_WIDTH, core.FENCE_WIDTH + 1):
            seq = run * width
            counted = _CountingSA(sa)
            first, end = core._prefix_range(text, counted, 0, len(sa), seq,
                                            fences)
            assert (first, end) == core._prefix_range(text, sa, 0, len(sa),
                                                      seq)
            assert end - first >= 2000
            if width <= core.FENCE_WIDTH:
                assert counted.reads <= bound, (seq, counted.reads)
            else:  # gallops: its reads grow with the answer
                assert counted.reads > bound, (seq, counted.reads)


@pytest.mark.parametrize("stride, width", [(1, 1), (2, 3), (3, 2), (8, 5)])
def test_hash_slot_search_through_fences(stride, width, monkeypatch):
    # samsami-hash narrows inside its k-byte group through the index's
    # fences; tiny fences make groups start and end mid-stride
    monkeypatch.setattr(core, "FENCE_STRIDE", stride)
    monkeypatch.setattr(core, "FENCE_WIDTH", width)
    rng = random.Random(0x4A5 + 10 * stride + width)
    params, k = SamplingParams(6, 2), 3
    mid_lo = mid_hi = False
    passed = []  # the fence list each hash search is given

    def spy(text, sa, lo, hi, seq, fences=None):
        passed.append(fences)
        return prefix_range(text, sa, lo, hi, seq, fences)

    prefix_range = core._prefix_range
    monkeypatch.setattr(hashindex, "_prefix_range", spy)
    for text in (random_text(rng, 600, 2), random_text(rng, 600, 4),
                 b"a" * 202):
        idx = build(text, params)
        table = build_table(idx, k)
        for lo, hi in table.slots.tolist():
            mid_lo |= lo % stride != 0
            mid_hi |= hi % stride != 0
        starts = rng.sample(range(len(text) - 40), 30)
        patterns = {text[i:i + m] for i in starts for m in (7, 9, 16, 40)}
        patterns |= {pat[:-1] + bytes([pat[-1] ^ 1]) for pat in list(patterns)}
        patterns |= {b"a" * m for m in (7, 8, 20, 40, 197, 198)}
        for pat in patterns:
            assert count_hash(idx, table, pat) == len(naive_locate(text, pat))
            j = window_minimizer(pat[:params.q], params.p)
            key = pat[j - 1:j - 1 + k]
            group = brute_group(text, idx.sa, key)
            assert table.groups.get(key) == (
                None if group is None else group[0] << 32 | group[1])
            if group is not None:
                lo, hi = group
                assert prefix_range(
                    text, idx.sa_view, lo, hi, pat[j - 1:], idx.fences
                ) == prefix_range(text, idx.sa_view, lo, hi, pat[j - 1:])
        assert idx.fences == core._fences(text, idx.sa_view)
        assert passed and all(f is idx.fences for f in passed)
        passed.clear()
        assert len(idx.fences) == -(-idx.n_sampled // stride)
    assert mid_lo and mid_hi or stride == 1


def test_fences_are_built_on_the_first_search_only():
    # load must not pay for them: see load_s in perfbench. Nor for the
    # left column, which the kernel builds on its first range of
    # _VECTOR_MIN_CANDIDATES or more whose anchor skips a prefix; a
    # column whose anchors skip nothing (sa, the phrase stream) never
    # builds it
    text = random_text(random.Random(0xFE1), 3000, 4)
    params = SamplingParams(8, 2)
    bundle = build_bundle(text, params, with_delta=True, hash_k=3,
                          with_phrase=True)
    back = load(io.BytesIO(serialized_bytes(bundle)), text)
    fresh = build(text, params)
    wide = wide_pattern(text, params)
    groups = []
    for idx, table in ((fresh, build_table(fresh, 3)),
                       (bundle.index, bundle.table), (back.index, back.table)):
        assert idx.fences is None and table.groups is None
        assert idx.left is None
        count_hash(idx, table, text[100:120])  # the index's own list
        fences, groups_of_table = idx.fences, table.groups
        assert fences == core._fences(text, idx.sa_view)
        count(idx, text[100:120])
        count_hash(idx, table, text[200:220])
        assert idx.fences is fences  # shared with samsami, built once
        assert table.groups is groups_of_table  # built once
        groups.append(groups_of_table)
        assert idx.left is None  # no range was wide
        assert count(idx, wide) == len(naive_locate(text, wide))
        left = idx.left
        assert left.tolist() == core._left_column(text, idx.sa).tolist()
        count(idx, wide)
        assert idx.left is left  # built once
    assert groups[0] == groups[1] == groups[2] == reference_groups(
        text, fresh.sa, 3)  # a loaded table's dict is the built one's
    plain = spasa_build(text, 1)  # one search, through the fence list
    assert plain.fences is None and plain.heads is None
    spasa_locate(plain, text[100:120])
    assert plain.fences == core._fences(text, plain.sa_view)
    assert plain.heads is None
    assert spasa_locate(plain, wide[:2]) == naive_locate(text, wide[:2])
    assert plain.left is None  # hundreds of candidates, none skipping
    spasa = spasa_build(text, 4)  # one head search for every alignment
    assert spasa.fences is None and spasa.heads is None
    spasa_locate(spasa, text[100:120])
    heads = spasa.heads
    assert heads.tolist() == reference_spasa_heads(text, spasa.sa)
    spasa_locate(spasa, text[200:220])
    assert spasa.heads is heads  # built once
    assert spasa.fences is None and spasa.left is None
    # the last alignment's 1-byte seed is narrowed and verified wide
    assert spasa_locate(spasa, wide[:4]) == naive_locate(text, wide[:4])
    assert spasa.left.tolist() == core._left_column(text, spasa.sa).tolist()
    assert spasa.fences is None
    encoded = back.encoded
    assert encoded.column is None
    encoded_locate(back.dictionary, encoded, len(text), text[100:140], params)
    column = encoded.column
    assert column.fences == core._fences(encoded.stream, column.sa_view)
    assert column.left is None


def test_hash_first_query_builds_the_shared_fences_once(monkeypatch):
    # core.prepare is the one first-search step: a samsami-hash query
    # builds the fences through it, and samsami and samsami2 reuse them
    text = random_text(random.Random(0xF1C), 3000, 4)
    params = SamplingParams(8, 2)
    built = []

    def spy(text, sa):
        built.append(len(sa))
        return fences(text, sa)

    fences = core._fences
    monkeypatch.setattr(core, "_fences", spy)
    bundle = build_bundle(text, params, with_delta=True, hash_k=3)
    back = load(io.BytesIO(serialized_bytes(bundle)), text)
    for fresh in (bundle, back):
        idx = fresh.index
        pat = text[100:120]
        expect = len(naive_locate(text, pat))
        assert count_hash(idx, fresh.table, pat) == expect
        assert count(idx, pat) == expect
        assert count2(idx, fresh.delta, pat) == expect
        assert built == [idx.n_sampled]
        assert idx.fences == fences(text, idx.sa_view)
        built.clear()


def test_threads_racing_on_the_first_search_agree():
    # Many threads run the first searches of shared fresh indexes at
    # once, switching often; whichever fence list is kept, every
    # answer must equal the scan's. The index loaded from a phrase file
    # sorts its samples in that first search too, and its phrase queries
    # check the file's cuts and prepare the stream's column. Each
    # thread's first query on a loaded delta file, through samsami2,
    # enters the column kernel, so the left column is built in the race.
    rng = random.Random(0xFE2)
    text = random_text(rng, 3000, 4)
    params = SamplingParams(8, 2)
    idx = build(text, params)
    table = build_table(idx, 3)
    loaded = load(io.BytesIO(serialized_bytes(build_bundle(
        text, params, with_phrase=True))), text)
    lazy = loaded.index
    assert lazy.sa is None and not loaded.encoded._cuts_checked
    delta = load(io.BytesIO(serialized_bytes(build_bundle(
        text, params, with_delta=True))), text)
    wide = wide_pattern(text, params)
    assert delta.index.left is None
    # step 20 leaves 5-byte seeds for the last alignments of a 24-byte
    # pattern, which take the padded head keys
    spasas = [spasa_build(text, step) for step in (1, 4, 20)]
    dictionary, encoded = encode_text(text, params)
    patterns = [text[i:i + 24] for i in rng.sample(range(len(text) - 24), 40)]
    expect = [naive_locate(text, pat) for pat in patterns]
    barrier = threading.Barrier(8)
    results = []
    heads_seen = []
    groups_seen = []
    wide_seen = []

    def work():
        barrier.wait()
        wide_seen.append(locate2(delta.index, delta.delta, wide))
        got = []
        for pat in patterns:
            got.append((count_hash(idx, table, pat), locate(idx, pat),
                        locate(lazy, pat),
                        *(spasa_locate(spasa, pat) for spasa in spasas),
                        encoded_locate(dictionary, encoded, len(text), pat,
                                       params),
                        encoded_locate(loaded.dictionary, loaded.encoded,
                                       len(text), pat, params),
                        locate2(delta.index, delta.delta, pat)))
            if len(got) == 1:  # what this thread's first search saw
                heads_seen.append([s.heads for s in spasas[1:]])
                groups_seen.append(table.groups)
        results.append(got)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 8
    for got in results:
        assert got == [(len(hits), *[hits] * 8) for hits in expect]
    assert wide_seen == [naive_locate(text, wide)] * 8
    assert idx.fences == core._fences(text, idx.sa_view)
    assert lazy.sa.tolist() == idx.sa.tolist()
    assert lazy.fences == idx.fences
    assert delta.index.fences == idx.fences
    assert delta.index.left.tolist() == core._left_column(text,
                                                          idx.sa).tolist()
    assert loaded.encoded._cuts_checked
    column = loaded.encoded.column
    assert column.fences == core._fences(column.text, column.sa_view)
    assert column.sa.tolist() == encoded.column.sa.tolist()
    assert spasas[0].fences == core._fences(text, spasas[0].sa_view)
    assert len(heads_seen) == 8
    for spasa in spasas[1:]:
        assert spasa.heads.tolist() == reference_spasa_heads(text, spasa.sa)
    for seen in heads_seen:
        for spasa, heads in zip(spasas[1:], seen):
            assert np.array_equal(heads, spasa.heads)
    assert len(groups_seen) == 8
    expect_groups = reference_groups(text, idx.sa, 3)
    assert all(groups == expect_groups for groups in groups_seen)


def test_left_context_column_holds_the_four_bytes_before_each_suffix(
        monkeypatch):
    # the kernel builds the column on its first range of
    # _VECTOR_MIN_CANDIDATES or more, here any range, that skips a prefix
    monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", 0)
    rng = random.Random(0xC01)
    for text in (ABRA, b"\x00" * 30,
                 bytes(rng.choice(b"\x00\x01\xff") for _ in range(300))):
        idx = build(text, SamplingParams(4, 2))
        padded = bytes(4) + text  # zero bytes stand in before the text
        assert idx.left is None
        core._verify_candidates(idx, text[:5], 2, (0, len(idx.sa)), None)
        assert idx.left.dtype == np.uint32
        assert idx.left.tolist() == [
            int.from_bytes(padded[s - 1:s + 3], "little")
            for s in idx.sa.tolist()]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 12])
def test_column_filter_matches_text_compare(q, monkeypatch):
    # every range goes through the kernel; the answers equal the naive
    # scan and QueryStats the values of the rank range, for prefixes of
    # 0-3 bytes (partial masks) and longer ones
    monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", 0)
    rng = random.Random(q)
    text = b"\x00\x00\x01" + bytes(rng.choice(b"\x00\x01\x02\xff")
                                    for _ in range(3000))
    params = SamplingParams(q, 2)
    idx = build(text, params)
    ann = annotate(idx)
    table = build_table(idx, 2)
    starts = list(range(1, 7)) + [rng.randint(1, len(text) - q - 8)
                                  for _ in range(150)]
    patterns = set()
    for i in starts:  # the first few occur within 4 bytes of the start
        pattern = bytearray(text[i - 1:i - 1 + q + rng.randint(0, 8)])
        if rng.random() < 0.3:
            pattern[rng.randrange(len(pattern))] = rng.choice(b"\x00\x01\xff")
        patterns.add(bytes(pattern))
    shifts = set()
    for pattern in patterns:
        expect = naive_locate(text, pattern)
        j = window_minimizer(pattern[:q], 2)
        shifts.add(j - 1)
        ranked = idx.sa[slice(*suffix_range(idx, pattern[j - 1:]))]
        verified = int((ranked >= j).sum()) if j > 1 else 0
        _, _, pruned, _ = reference_locate2(text, idx.sa, ann,
                                            pattern, q, 2)
        for ask, model in (
                (lambda st: locate(idx, pattern, st), QueryStats(
                    len(ranked), verified)),
                (lambda st: locate2(idx, ann, pattern, st), QueryStats(
                    len(ranked), verified - pruned, pruned)),
                (lambda st: locate_hash(idx, table, pattern, st), QueryStats(
                    len(ranked), verified))):
            stats = QueryStats()
            assert ask(stats) == expect, pattern
            assert stats == model, pattern
            assert ask(None) == expect, pattern  # no statistics pass
    assert set(range(min(q - 1, 5))) <= shifts


def test_column_padding_cannot_admit_a_start_before_the_text(monkeypatch):
    # The suffix at position 4 has one zero padding byte in its column
    # word, and the pattern's 4-byte prefix starts with a zero byte, so
    # the column alone would accept an occurrence starting at position 0.
    monkeypatch.setattr(core, "_VECTOR_MIN_CANDIDATES", 0)
    text = b"\x05\x05\x05\x00\x01" + b"\x07" * 20
    idx = build(text, SamplingParams(6, 2))
    pattern = b"\x00\x05\x05\x05\x00\x01"
    assert window_minimizer(pattern, 2) == 5
    rank = idx.sa.tolist().index(4)
    stats = QueryStats()
    assert locate(idx, pattern, stats) == []
    assert idx.left[rank] == int.from_bytes(pattern[:4], "little")
    assert stats == QueryStats(candidates=1)
    assert locate(idx, pattern) == []


def test_column_first_kernel_at_the_real_threshold():
    # Every range holds 48 or more candidates. The column leaves fewer
    # than 48 of them (finished in Python) or 48 or more (numpy), for
    # skipped prefixes of 1-3 bytes (masked column) and longer ones; the
    # text starts with a short record, so some candidates' occurrences
    # would start before the text. Hits come in rank order.
    rng = random.Random(0xC0F)
    records = [b"xyz"]
    records += [random_text(rng, 12, 2) for _ in range(200)]
    records += [random_text(rng, 8, 2) + b"wxyz" for _ in range(200)]
    records += [random_text(rng, 11, 2) + b"q" for _ in range(10)]
    text = b"|anchor|".join(records) + b"|anchor|"
    anchor = b"|anchor|"
    idx = core.SamsamiIndex(text=text, params=SamplingParams(1, 1),
                            sa=build_full_sa(text), n=len(text))
    sa, cutoff = idx.sa_view, core._VECTOR_MIN_CANDIDATES
    padded = bytes(4) + text
    patterns = [record[-k:] + anchor for record in records[:12] + records[-3:]
                + records[201:204] for k in (1, 2, 3, 4, 8, len(record))]
    patterns += [b"\x00xyz" + anchor, b"ab\x00xyz" + anchor,
                 b"ab" + records[0] + anchor]
    seen = set()
    for pattern in patterns:
        shift = len(pattern) - len(anchor)
        j = shift + 1
        lo, hi = core._prefix_range(text, sa, 0, len(sa), anchor)
        assert hi - lo >= cutoff
        tail = pattern[max(shift - 4, 0):shift]
        survivors = [s for s in sa[lo:hi]
                     if padded[s + 3 - len(tail):s + 3] == tail]
        expect = [s - shift for s in sa[lo:hi]
                  if s >= j and text[s - j:s - 1] == pattern[:shift]]
        stats = QueryStats()
        got = core._verify_candidates(idx, pattern, j, (lo, hi), stats)
        assert got == expect, pattern
        assert stats == QueryStats(
            candidates=hi - lo,
            text_verifications=sum(s >= j for s in sa[lo:hi]))
        assert sorted(expect) == naive_locate(text, pattern)
        seen.add((min(shift, 4), len(survivors) >= cutoff))
        if any(s < j for s in survivors):
            seen.add("starts before the text")
    assert {(k, many) for k in (1, 2, 3, 4) for many in (False, True)} <= seen
    assert "starts before the text" in seen


def test_anchor_at_pattern_start_skips_the_kernel(monkeypatch):
    # with j = 1 nothing is skipped, so every candidate is an occurrence:
    # even a range far above the vector threshold compares nothing
    def refuse(*args):
        raise AssertionError("vector kernel entered at j = 1")

    monkeypatch.setattr(core, "_verify_vector", refuse)
    text = b"ab" * 300 + b"c"
    sa = spasa_build(text, 1)
    for pattern in (b"ab", b"abab", b"ba"):
        expect = naive_locate(text, pattern)
        assert len(expect) >= core._VECTOR_MIN_CANDIDATES
        stats = QueryStats()
        assert spasa_locate(sa, pattern, stats) == expect
        assert stats == QueryStats(candidates=len(expect))
    idx = build(text, SamplingParams(4, 2))
    assert window_minimizer(b"abab", 2) == 1
    stats = QueryStats()
    assert locate(idx, b"ababab", stats) == naive_locate(text, b"ababab")
    assert stats.candidates >= core._VECTOR_MIN_CANDIDATES
    assert stats.text_verifications == 0


def test_one_suffix_range_call_per_query(monkeypatch):
    # perfbench's core.search_us is the time per suffix_range call and
    # stands for one search per samsami or samsami2 query, with or
    # without QueryStats, absent patterns and empty ranges included
    calls = []
    original = core.suffix_range

    def counted(idx, seq):
        calls.append(seq)
        return original(idx, seq)

    monkeypatch.setattr(core, "suffix_range", counted)
    rng = random.Random(0x51F7)
    text = random_text(rng, 3000, 4)
    idx = build(text, SamplingParams(8, 2))
    ann = annotate(idx)
    patterns = [text[i:i + 12] for i in range(0, 2900, 97)]
    patterns += [random_text(rng, 12, 4) for _ in range(10)]
    asks = [lambda pattern, st: locate(idx, pattern, st),
            lambda pattern, st: count(idx, pattern, st),
            lambda pattern, st: locate2(idx, ann, pattern, st),
            lambda pattern, st: count2(idx, ann, pattern, st)]
    for ask in asks:
        for pattern in patterns:
            for stats in (None, QueryStats()):
                calls.clear()
                ask(pattern, stats)
                assert len(calls) == 1, (pattern, stats)


def test_queries_call_no_builtin_min_or_max():
    # builtin min() and max() cost a call each, so the query paths clamp
    # with comparisons; the one min() left is the pattern minimizer's
    # reduction over its window's bytes. The text repeats a block 100
    # times, whose q-prefix minimizer "ab" lies at j = 15, and two more
    # 2 and 5 times, so the patterns reach answers of 0, 1 and 2
    # suffixes, a gallop, an answer spanning a fence stride, 48 or more
    # survivors (the left column and the 8-byte steps), phrase queries
    # with one stable boundary and with several, and narrowed spasa bounds
    rng = random.Random(0xC1A)

    def filler(n):
        return bytes(rng.choice(b"cdefghij") for _ in range(n))

    block = filler(14) + b"ab" + filler(32)
    pair, five = (filler(14) + b"ba" + filler(30) for _ in range(2))
    parts = []
    for i in range(100):
        parts += [filler(rng.randint(10, 60)), block]
        parts += [pair] * (i < 2) + [five] * (i < 5)
    text = b"".join(parts) + filler(50)
    params = SamplingParams(16, 2)
    bundle = build_bundle(text, params, with_delta=True, hash_k=4,
                          with_phrase=True)
    idx = bundle.index
    spasa, plain = spasa_build(text, 4), spasa_build(text, 1)
    patterns = [block[:40], block[:31], pair[:40], five[:40], filler(40)]
    patterns += [text[i:i + m] for i in rng.sample(range(len(text) - 40), 30)
                 for m in (31, 40)]
    asks = [lambda pattern: locate(idx, pattern),
            lambda pattern: count(idx, pattern, QueryStats()),
            lambda pattern: locate2(idx, bundle.delta, pattern, QueryStats()),
            lambda pattern: locate_hash(idx, bundle.table, pattern,
                                        QueryStats()),
            lambda pattern: encoded_locate(bundle.dictionary, bundle.encoded,
                                           idx.n, pattern, params,
                                           QueryStats()),
            lambda pattern: spasa_locate(spasa, pattern, QueryStats()),
            lambda pattern: spasa_locate(plain, pattern)]
    for ask in asks:  # the first searches build fences, groups and heads
        ask(patterns[0])
    reached = set()
    for pattern in patterns:
        j = window_minimizer(pattern[:16], 2)
        seq = pattern[j - 1:]
        first, end = suffix_range(idx, seq)
        below = bisect_left(idx.fences, seq[:core.FENCE_WIDTH])
        spans = (below + 1 < len(idx.fences)
                 and idx.fences[below + 1].startswith(seq))
        reached.add(end - first if end - first <= 2
                    else "span" if spans else "gallop")
        if j >= 13 and len(naive_locate(text, pattern)) >= 48:
            reached.add("8-byte steps")
        stable = len(phrase._stable_boundaries(pattern, params))
        reached.add("one boundary" if stable == 1 else "boundaries")
        heads = [pattern[off:off + 8] for off in range(4)]
        if any(sum(text[s - 1:s + 7] == head for s in spasa.sa.tolist())
               >= baselines._NARROW_MIN_SUFFIXES for head in heads):
            reached.add("narrowed")
    assert reached == {0, 1, 2, "gallop", "span", "8-byte steps",
                       "one boundary", "boundaries", "narrowed"}
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and (arg is builtins.min or arg is builtins.max):
            calls.append((arg.__name__, frame.f_code.co_name))

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        for ask in asks:
            for pattern in patterns:
                ask(pattern)
    finally:
        sys.setprofile(before)
    assert calls and set(calls) == {("min", "_leftmost_smallest")}
