import random

import pytest

from samsami import InvalidParams, SamplingParams, distinct_qgrams, sampling_ratio
from samsami.cli import main

from helpers import random_text


def test_sampling_ratio_abracadabra():
    got = sampling_ratio(b"abracadabra", SamplingParams(4, 2))
    assert got == pytest.approx(100 * 4 / 11)


def test_sampling_ratio_is_consistent_with_sampling():
    rng = random.Random(1234)
    for _ in range(30):
        q = rng.randint(1, 10)
        p = rng.randint(1, q)
        text = random_text(rng, rng.randint(q, 300), rng.choice([2, 26]))
        pct = sampling_ratio(text, SamplingParams(q, p))
        assert 0 < pct <= 100


def test_distinct_qgrams_example():
    # ab, br, ra, ac, ca, ad, da
    assert distinct_qgrams(b"abracadabra", 2) == 7


def test_distinct_qgrams_single_symbol():
    assert distinct_qgrams(b"aaaa", 1) == 1
    assert distinct_qgrams(b"aaaa", 3) == 1


def test_distinct_qgrams_validation():
    with pytest.raises(InvalidParams):
        distinct_qgrams(b"abc", 0)
    with pytest.raises(InvalidParams):
        distinct_qgrams(b"abc", 4)


def test_distinct_qgrams_matches_hash_set():
    rng = random.Random(0x06A7)
    for _ in range(60):
        text = random_text(rng, rng.randint(1, 600), rng.choice([2, 4, 26, 256]))
        q = rng.randint(1, min(12, len(text)))
        grams = {text[i:i + q] for i in range(len(text) - q + 1)}
        assert distinct_qgrams(text, q) == len(grams)


def test_distinct_qgrams_long_grams():
    rng = random.Random(0x06A8)
    text = random_text(rng, 400, 3)
    for q in (9, 12, 30):
        grams = {text[i:i + q] for i in range(len(text) - q + 1)}
        assert distinct_qgrams(text, q) == len(grams)


def test_distinct_qgrams_equals_set_of_slices():
    # packed keys (q <= 4), one ranking (q <= 8) and doubling (q > 8),
    # on random and on repetitive texts, where long grams recur
    rng = random.Random(0x06A9)
    for alphabet in (1, 2, 4, 26, 256):
        for _ in range(6):
            n = rng.randint(1, 400)
            text = random_text(rng, n, alphabet)
            if rng.random() < 0.5:
                text = (text[:rng.randint(1, 12)] * n)[:n]
            for q in (1, 4, 5, 8, 9, 12, 16, 33, n):
                if q <= n:
                    grams = {text[i:i + q] for i in range(n - q + 1)}
                    assert distinct_qgrams(text, q) == len(grams), (text, q)


def _stats_rows(tmp_path, capsys, *options):
    path = tmp_path / "abra.txt"
    path.write_bytes(b"abracadabra")
    assert main(["stats", "--text", str(path), *options]) == 0
    return capsys.readouterr().out.strip().split("\n")[1:]


def test_sampling_report_rows(tmp_path, capsys):
    rows = _stats_rows(tmp_path, capsys, "--pairs", "4:2,4:1")
    assert rows[0] == "4,2,4,11,36.3636"  # 100 * 4 / 11
    assert rows[1].startswith("4,1,")


def test_qgram_report_rows(tmp_path, capsys):
    rows = _stats_rows(tmp_path, capsys, "--mode", "qgrams", "--q-list", "1,2")
    assert rows == ["1,5", "2,7"]  # a, b, r, c, d
