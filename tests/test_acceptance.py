"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4 and 5 need
the standard 50 MB / 200 MB benchmark datasets (dna, english, proteins,
sources, xml) under $SAMSAMI_CORPUS_DIR or ./corpora and are skipped
when absent.
"""

import io
import os
import random
import sysconfig
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from samsami import (QueryStats, SamplingParams, SamsamiIndex,
                     UnsupportedFormat, CorruptIndex, annotate, build,
                     build_bundle, build_full_sa, build_table, count, count2,
                     count_hash, distinct_qgrams, encode_text, encoded_locate,
                     extract_sampled, load, locate, locate2, locate_hash,
                     min_pattern_length, naive_locate, prune_mask,
                     sampled_positions, sampling_ratio, spasa_build,
                     spasa_count, spasa_locate, window_minimizer)
from samsami.baselines import SparseSuffixArray
from samsami.cli import extract_patterns
from samsami.persistence import serialized_bytes

from helpers import brute_sampled, random_text

MB50 = 52_428_800
MB200 = 209_715_200
DATASETS = ("dna", "english", "proteins", "sources", "xml")

# percentage of suffixes sampled on the 50 MB datasets, per (q, p)
SAMPLING_TABLE = {
    (4, 1): (46.1, 39.7, 40.5, 46.1, 45.8),
    (4, 2): (55.2, 51.0, 51.0, 55.8, 54.1),
    (5, 1): (40.9, 32.3, 34.0, 38.8, 39.3),
    (5, 2): (44.9, 39.9, 40.8, 46.2, 45.9),
    (6, 1): (37.6, 27.7, 29.4, 34.5, 32.5),
    (6, 2): (38.0, 32.3, 34.1, 38.8, 39.3),
    (8, 1): (33.7, 22.1, 23.2, 28.3, 22.0),
    (8, 2): (29.5, 23.8, 25.5, 30.5, 26.6),
    (10, 1): (31.8, 19.3, 19.4, 25.0, 17.1),
    (10, 2): (24.5, 18.5, 20.5, 25.9, 18.5),
    (10, 3): (25.8, 20.8, 22.7, 27.9, 21.9),
    (12, 1): (30.7, 17.9, 16.8, 22.5, 13.7),
    (12, 2): (21.2, 15.4, 17.1, 22.8, 15.1),
    (12, 3): (21.4, 16.8, 18.6, 24.2, 17.0),
    (16, 1): (29.7, 16.4, 13.7, 19.3, 11.0),
    (16, 2): (17.1, 12.0, 12.9, 18.6, 11.3),
    (16, 3): (16.1, 12.6, 13.7, 19.4, 11.9),
    (24, 2): (13.3, 8.4, 8.7, 13.6, 7.1),
    (24, 3): (11.1, 8.7, 9.0, 13.9, 7.4),
    (32, 2): (11.7, 6.5, 6.6, 10.6, 5.1),
    (32, 3): (8.7, 6.7, 6.7, 10.6, 5.4),
    (40, 2): (10.8, 5.3, 5.3, 8.5, 4.2),
    (40, 3): (7.3, 5.4, 5.3, 8.4, 4.3),
    (64, 2): (9.8, 2.9, 3.4, 4.7, 3.1),
    (64, 3): (5.4, 3.0, 3.3, 4.4, 2.6),
    (64, 4): (4.4, 3.1, 3.4, 4.3, 2.7),
    (80, 2): (9.6, 1.9, 2.7, 3.5, 2.9),
    (80, 3): (4.8, 1.8, 2.7, 3.1, 2.2),
    (80, 4): (3.7, 1.9, 2.7, 3.0, 2.2),
}

# distinct q-gram counts on the 200 MB datasets
QGRAM_TABLE = {
    1: (16, 225, 25, 230, 96),
    2: (152, 10_829, 607, 9_525, 7_054),
    3: (683, 102_666, 11_607, 253_831, 141_783),
    4: (2_222, 589_230, 224_132, 1_719_387, 908_131),
    5: (5_892, 2_150_525, 3_623_281, 5_252_826, 2_716_438),
    6: (12_804, 5_566_993, 36_525_895, 10_669_627, 5_555_190),
    7: (28_473, 11_599_445, 94_488_651, 17_826_241, 8_957_209),
    8: (80_397, 20_782_043, 112_880_347, 26_325_724, 12_534_152),
}


def _corpus_file(name: str, size: str) -> bytes | None:
    root = Path(os.environ.get("SAMSAMI_CORPUS_DIR", "corpora"))
    exact = root / f"{name}.{size}"
    if exact.exists():
        data = exact.read_bytes()
        return data[:MB50] if size == "50MB" else data[:MB200]
    if size == "50MB":
        big = root / f"{name}.200MB"
        if big.exists():
            return big.read_bytes()[:MB50]
    return None


# ---------------------------------------------------------------------------
# criterion 1 (plus raw material for 6 and 7): the differential sweep
# ---------------------------------------------------------------------------

N_CASES = 1000


@dataclass
class Sweep:
    cases: int = 0
    patterns: int = 0
    hash_patterns: int = 0
    phrase_patterns: int = 0
    elapsed: float = 0.0
    table_rows_ok: bool = True
    prune_report: tuple = field(default=None)


_sweep_cache = []


def _case_size(rng, case, q):
    if case % 50 == 0:
        n = rng.randint(2049, 65536)
    elif case % 5 == 0:
        n = rng.randint(321, 2048)
    else:
        n = rng.randint(2, 320)
    return max(n, q)


def _run_sweep() -> Sweep:
    if _sweep_cache:
        return _sweep_cache[0]
    rng = random.Random(0x5A11)
    out = Sweep()
    t0 = time.perf_counter()
    for case in range(N_CASES):
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        alphabet = rng.choice([2, 4, 26, 96])
        n = _case_size(rng, case, q)
        text = random_text(rng, n, alphabet)
        params = SamplingParams(q, p)

        idx = build(text, params)
        ann = annotate(idx)
        k = rng.randint(1, 6)
        table = build_table(idx, k)
        lo, hi = table.slots.T.astype(np.int64)
        keys = {text[pos - 1:pos - 1 + k] for pos in idx.sa.tolist()
                if pos <= n - k + 1}
        if ((lo >= hi).any() or (lo[1:] < hi[:-1]).any()
                or len(lo) != len(keys)):
            out.table_rows_ok = False
        step = rng.randint(1, min(12, n))
        spasa = spasa_build(text, step)
        plain = spasa_build(text, 1)
        dictionary, encoded = encode_text(text, params)

        hash_floor = min_pattern_length(params, k)
        phrase_floor = 2 * q - p + 1
        for _ in range(5):
            floor = max(q, step)
            m = rng.randint(floor, min(n, floor + 40))
            if rng.random() < 0.6:
                i = rng.randint(1, n - m + 1)
                pattern = text[i - 1:i - 1 + m]
            else:
                pattern = random_text(rng, m, alphabet)
            expect = naive_locate(text, pattern)

            assert locate(idx, pattern) == expect, (text, pattern, q, p)
            assert count(idx, pattern) == len(expect)
            assert locate2(idx, ann, pattern) == expect, (text, pattern, q, p)
            assert count2(idx, ann, pattern) == len(expect)
            assert spasa_locate(spasa, pattern) == expect, (text, pattern, step)
            assert spasa_count(spasa, pattern) == len(expect)
            assert spasa_locate(plain, pattern) == expect
            if m >= hash_floor:
                assert locate_hash(idx, table, pattern) == expect, \
                    (text, pattern, q, p, k)
                assert count_hash(idx, table, pattern) == len(expect)
                out.hash_patterns += 1
            if m >= phrase_floor:
                got = encoded_locate(dictionary, encoded, n, pattern, params)
                assert got == expect, (text, pattern, q, p)
                out.phrase_patterns += 1
            out.patterns += 1
        out.cases += 1
    out.elapsed = time.perf_counter() - t0
    out.prune_report = _find_pruning_win()
    _sweep_cache.append(out)
    return out


def _find_pruning_win():
    # plant the worked pattern's suffix in small texts until a candidate
    # is rejected by distance alone
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
        if pruned.pruned > 0 and pruned.text_verifications < plain.text_verifications:
            return plain.text_verifications, pruned.text_verifications
    return None


def test_criterion_1_differential_correctness():
    sweep = _run_sweep()
    assert sweep.cases >= 1000
    assert sweep.elapsed < 120, f"sweep took {sweep.elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: {sweep.cases} cases / {sweep.patterns} "
          f"patterns across 5 variants match the naive scan "
          f"({sweep.elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: sampling oracle and coverage
# ---------------------------------------------------------------------------

def test_criterion_2_sampling_oracle():
    rng = random.Random(0x0AC1E)
    checked = 0
    for _ in range(300):
        alphabet = rng.choice([2, 4, 26, 256])
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        n = max(rng.randint(2, 512), q)
        text = random_text(rng, n, alphabet)
        got = [int(v) for v in
               sampled_positions(text, SamplingParams(q, p))]
        assert got == brute_sampled(text, q, p), (text, q, p)
        checked += 1
    for _ in range(80):
        alphabet = rng.choice([2, 4, 26, 256])
        q = rng.randint(1, 12)
        p = rng.randint(1, q)
        n = max(rng.randint(q, 4096), q)
        text = random_text(rng, n, alphabet)
        pos = sampled_positions(text, SamplingParams(q, p))
        starts = np.arange(1, n - q + 2)
        lo = np.searchsorted(pos, starts, side="left")
        hi = np.searchsorted(pos, starts + (q - p), side="right")
        assert (hi > lo).all(), (q, p, alphabet, n)
    once = sampled_positions(b"Once upon a time", SamplingParams(5, 1))
    assert list(once) == [5, 10, 12]
    print(f"\nACCEPTANCE 2 PASS: oracle equality on {checked} cases, "
          f"coverage universal, both blanks of the worked example sampled")


# ---------------------------------------------------------------------------
# criterion 3: worked-example fidelity
# ---------------------------------------------------------------------------

def test_criterion_3_worked_examples():
    stub = SamsamiIndex(text=b"", params=SamplingParams(1, 1),
                        sa=np.array([3, 10, 12, 15, 20], dtype=np.uint32),
                        n=24)
    assert list(annotate(stub).delta) == [0, 7, 2, 3, 5]
    mask = prune_mask(b"ctgccact", SamplingParams(5, 2))
    assert window_minimizer(b"ctgcc", 2) == 4
    assert not mask[1]
    assert not mask[2]
    assert mask[3]
    print("\nACCEPTANCE 3 PASS: delta list 0,7,2,3,5 and prune mask "
          "(j=4, 1/2 impossible, 3 possible) reproduced")


# ---------------------------------------------------------------------------
# criterion 4: sampling-ratio table on the 50 MB datasets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("column, name", list(enumerate(DATASETS)))
def test_criterion_4_sampling_table(column, name):
    text = _corpus_file(name, "50MB")
    if text is None:
        pytest.skip(f"{name}.50MB not present")
    worst = 0.0
    for (q, p), row in sorted(SAMPLING_TABLE.items()):
        got = sampling_ratio(text, SamplingParams(q, p))
        diff = abs(got - row[column])
        worst = max(worst, diff)
        assert diff <= 0.2, (name, q, p, got, row[column])
    print(f"\nACCEPTANCE 4 PASS ({name}): all {len(SAMPLING_TABLE)} rows "
          f"within 0.2pp (worst {worst:.3f}pp)")


# ---------------------------------------------------------------------------
# criterion 5: distinct q-grams, table scale and desk scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("column, name", list(enumerate(DATASETS)))
def test_criterion_5_qgram_table(column, name):
    text = _corpus_file(name, "200MB")
    if text is None:
        pytest.skip(f"{name}.200MB not present")
    for q, row in sorted(QGRAM_TABLE.items()):
        assert distinct_qgrams(text, q) == row[column], (name, q)
    print(f"\nACCEPTANCE 5 PASS ({name}): q-gram counts exact for q=1..8")


def test_criterion_5_desk_scale():
    rng = random.Random(0xDE5C)
    text = random_text(rng, 1 << 20, 26)
    for q in range(1, 9):
        grams = {text[i:i + q] for i in range(len(text) - q + 1)}
        assert distinct_qgrams(text, q) == len(grams), q
    text = random_text(rng, 1 << 18, 5)
    grams = {text[i:i + 12] for i in range(len(text) - 11)}
    assert distinct_qgrams(text, 12) == len(grams)
    print("\nACCEPTANCE 5 PASS (desk scale): 1 MB hash-set brute force "
          "matches for q=1..8 and the long-gram path")


# ---------------------------------------------------------------------------
# criterion 6: variant equivalence and pruning soundness
# ---------------------------------------------------------------------------

def test_criterion_6_variant_equivalence():
    sweep = _run_sweep()
    assert sweep.hash_patterns >= 500
    assert sweep.table_rows_ok
    assert sweep.prune_report is not None, "no pruning case was exercised"
    before, after = sweep.prune_report
    assert after < before
    print(f"\nACCEPTANCE 6 PASS: delta/hash variants equal on every case "
          f"({sweep.hash_patterns} hash patterns), hash rows ascending, "
          f"disjoint and one per k-byte prefix group, "
          f"pruning cut text accesses {before} -> {after}")


# ---------------------------------------------------------------------------
# criterion 7: phrase codec round-trip and differential
# ---------------------------------------------------------------------------

def test_criterion_7_phrase_codec():
    sweep = _run_sweep()
    assert sweep.phrase_patterns >= 500
    rng = random.Random(0x700D)
    from samsami import decode_text
    for _ in range(60):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q, 400), rng.choice([2, 4, 26, 96]))
        dictionary, encoded = encode_text(text, SamplingParams(q, p))
        assert decode_text(dictionary, encoded) == text
    print(f"\nACCEPTANCE 7 PASS: decode(encode) identity on 60 texts, "
          f"encoded search matched the oracle on {sweep.phrase_patterns} "
          f"patterns")


# ---------------------------------------------------------------------------
# criterion 8: persistence round-trip and rejection of bad files
# ---------------------------------------------------------------------------

def test_criterion_8_persistence():
    rng = random.Random(0x8E51)
    for _ in range(12):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        n = rng.randint(max(q, 2 * q - p + 1, q - p + 3), 300)
        text = random_text(rng, n, rng.choice([4, 26, 96]))
        params = SamplingParams(q, p)
        bundle = build_bundle(text, params, with_delta=True, hash_k=3,
                              with_phrase=True)
        blob = serialized_bytes(bundle)
        assert blob == serialized_bytes(build_bundle(
            text, params, with_delta=True, hash_k=3, with_phrase=True))
        back = load(io.BytesIO(blob), text)
        m = rng.randint(max(q, q - p + 3, 2 * q - p + 1), n)
        i = rng.randint(1, n - m + 1)
        pattern = text[i - 1:i - 1 + m]
        expect = naive_locate(text, pattern)
        assert locate(back.index, pattern) == expect
        assert locate2(back.index, back.delta, pattern) == expect
        assert locate_hash(back.index, back.table, pattern) == expect
        assert encoded_locate(back.dictionary, back.encoded, n, pattern,
                              params) == expect

    blob = serialized_bytes(build_bundle(b"abracadabra", SamplingParams(4, 2)))
    with pytest.raises(UnsupportedFormat):
        load(io.BytesIO(b"XXXX" + blob[4:]), b"abracadabra")
    for cut in (10, 40, len(blob) - 2):
        with pytest.raises(CorruptIndex):
            load(io.BytesIO(blob[:cut]), b"abracadabra")
    print("\nACCEPTANCE 8 PASS: byte-identical rebuilds, query-identical "
          "round-trips, bad magic and truncations rejected")


# ---------------------------------------------------------------------------
# criterion 9: directional performance against the plain suffix array
# ---------------------------------------------------------------------------

def _real_text_corpus(target: int) -> bytes:
    site = Path(sysconfig.get_paths()["purelib"])
    chunks: list[bytes] = []
    total = 0
    for ext in ("*.txt", "*.md", "*.rst", "*.js", "*.py"):
        for path in sorted(site.rglob(ext)):
            if total >= target:
                break
            try:
                data = path.read_bytes()
            except OSError:
                continue
            chunks.append(data)
            total += len(data)
        if total >= target:
            break
    return b"\n".join(chunks)[:target]


def test_criterion_9_performance_directional():
    target = 10 * 1024 * 1024 + 256 * 1024
    text = _real_text_corpus(target)
    if len(text) < 10 * 1024 * 1024:
        pytest.skip("could not assemble a 10 MB real-text corpus")
    params = SamplingParams(40, 2)

    full = build_full_sa(text)
    plain = SparseSuffixArray(text=text, step=1, sa=full, n=len(text))
    sampled = sampled_positions(text, params)
    idx = SamsamiIndex(text=text, params=params,
                       sa=extract_sampled(text, sampled, params),
                       n=len(text))

    retention = idx.n_sampled / len(full)
    assert retention <= 0.12, f"retained {retention:.2%} of the offsets"

    patterns = extract_patterns(text, 50, 1200, seed=2024)
    sam_counts = [count(idx, pat) for pat in patterns]  # warm both paths
    plain_counts = [spasa_count(plain, pat) for pat in patterns]
    assert sam_counts == plain_counts

    # interleaved rounds and a median keep one scheduler stall from
    # deciding the verdict on a shared machine
    sam_rounds, plain_rounds = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        for pat in patterns:
            count(idx, pat)
        sam_rounds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for pat in patterns:
            spasa_count(plain, pat)
        plain_rounds.append(time.perf_counter() - t0)
    sam_time = sorted(sam_rounds)[len(sam_rounds) // 2]
    plain_time = sorted(plain_rounds)[len(plain_rounds) // 2]

    ratio = sam_time / plain_time
    sam_us = sam_time / len(patterns) * 1e6
    plain_us = plain_time / len(patterns) * 1e6
    verdict = "within" if ratio <= 1.5 else "ABOVE"
    print(f"\nACCEPTANCE 9 {'PASS' if ratio <= 3.0 else 'FAIL'}: "
          f"{len(text) / 2**20:.1f} MiB corpus, m=50, q=40, p=2: "
          f"samsami {sam_us:.1f}us vs plain {plain_us:.1f}us per count "
          f"query (ratio {ratio:.2f}, {verdict} the 1.5x target) at "
          f"{retention:.2%} offsets retained")
    assert ratio <= 3.0, f"count-query ratio {ratio:.2f} exceeds 3x"
