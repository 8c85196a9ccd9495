"""The variant table: every variant, built or loaded, answers as the
naive scan does, from its minimum pattern length on."""

import io
import random

import pytest

from samsami import (PatternTooShort, SamplingParams, SamsamiError,
                     build_bundle, build_variants, from_bundle, load,
                     naive_locate, save)
from samsami import baselines, core, persistence

from helpers import random_text

NAMES = ("samsami", "samsami2", "samsami-hash", "phrase", "spasa", "sa")
SAVED = NAMES[:4]  # the suffix arrays have no index file


def _cases(name):
    """(text, q, p, k, step) over 1-, 2-, 4- and 26-letter alphabets."""
    rng = random.Random(f"variants/{name}")
    for case in range(40):
        q = rng.randint(1, 8)
        p = rng.randint(1, q)
        n = rng.randint(2 * q + 4, 300)
        yield (random_text(rng, n, [1, 2, 4, 26][case % 4]), q, p,
               rng.randint(1, 4), rng.randint(1, min(8, n)))


def _patterns(rng, text, shortest):
    """Patterns at the text's first and last positions, cut from the
    middle, and random ones that mostly do not occur."""
    n = len(text)
    out = [text[:shortest], text[n - shortest:]]
    for _ in range(6):
        m = rng.randint(shortest, min(n, shortest + 12))
        start = rng.randint(0, n - m)
        out += [text[:m], text[n - m:], text[start:start + m],
                random_text(rng, m, max(text) + 2)]
    return out


@pytest.mark.parametrize("name", NAMES)
def test_variant_answers_like_naive_scan(name):
    rng = random.Random(name)
    for text, q, p, k, step in _cases(name):
        (variant,) = build_variants(text, [name], q, p, k, step)
        assert variant.name == name
        shortest = variant.min_len
        if shortest > 1:
            with pytest.raises(PatternTooShort):
                variant.locate(text[:shortest - 1])
            with pytest.raises(PatternTooShort):
                variant.count(text[:shortest - 1])
        for pattern in _patterns(rng, text, shortest):
            expect = naive_locate(text, pattern)
            assert variant.locate(pattern) == expect, (text, pattern, q, p)
            assert variant.count(pattern) == len(expect)


@pytest.mark.parametrize("name", SAVED)
def test_loaded_variant_answers_as_built(name):
    rng = random.Random(f"loaded/{name}")
    for text, q, p, k, step in _cases(name):
        (built,) = build_variants(text, [name], q, p, k, step)
        bundle = build_bundle(text, SamplingParams(q, p),
                              with_delta=name == "samsami2",
                              hash_k=k if name == "samsami-hash" else None,
                              with_phrase=name == "phrase")
        buf = io.BytesIO()
        save(bundle, buf)
        buf.seek(0)
        again = from_bundle(load(buf, text),
                            "phrase" if name == "phrase" else None)
        assert (again.name, again.qpk, again.min_len, again.index_bytes) == \
            (built.name, built.qpk, built.min_len, built.index_bytes)
        for pattern in _patterns(rng, text, built.min_len):
            assert again.locate(pattern) == built.locate(pattern)
            assert again.count(pattern) == built.count(pattern)


def test_from_bundle_rejects_missing_sections_and_unknown_names():
    text = bytes(random.Random(7).choice(b"acgt") for _ in range(200))
    bundle = build_bundle(text, SamplingParams(6, 2))
    assert from_bundle(bundle).name == "samsami"
    for name, message in [("phrase", "index has no phrase section"),
                          ("samsami2", "index has no delta section"),
                          ("samsami-hash", "index has no hash section"),
                          ("fm-index", "unknown variant 'fm-index'")]:
        with pytest.raises(SamsamiError, match=message):
            from_bundle(bundle, name)

def test_build_variants_rejects_an_unknown_name_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the names were checked")

    monkeypatch.setattr(baselines, "spasa_build", refuse)
    monkeypatch.setattr(core, "build", refuse)
    text = bytes(random.Random(7).choice(b"acgt") for _ in range(200))
    with pytest.raises(SamsamiError, match="unknown variant 'fm-index'"):
        build_variants(text, ["sa", "samsami", "fm-index"], 6, 2, 3, 4)


def test_build_variants_sorts_the_text_once(monkeypatch):
    text = bytes(random.Random(8).choice(b"ab ") for _ in range(500))
    sorted_texts = []
    real = baselines.build_full_sa

    def counting(data):
        sorted_texts.append(data)
        return real(data)

    # the samsami variants and spasa sort only the suffixes they keep
    for module in (core, baselines):
        monkeypatch.setattr(module, "build_full_sa", counting)
    built = build_variants(text, NAMES, 5, 2, 3, 4)
    assert [v.name for v in built] == list(NAMES)
    assert sorted_texts == [text]


@pytest.mark.parametrize("name", SAVED)
def test_index_bytes_serialized_on_first_read(name, monkeypatch):
    # locate and count never print a size, so they must not pay for one
    text = random_text(random.Random(f"size/{name}"), 400, 4)
    bundle = build_bundle(text, SamplingParams(6, 2),
                          with_delta=name == "samsami2",
                          hash_k=3 if name == "samsami-hash" else None,
                          with_phrase=name == "phrase")
    expect = len(persistence.serialized_bytes(bundle))
    calls = []
    real = persistence.serialized_bytes

    def counting(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(persistence, "serialized_bytes", counting)
    variant = from_bundle(bundle, name)
    variant.count(text[:20])
    assert calls == []
    assert variant.index_bytes == expect
    assert variant.index_bytes == expect
    assert calls == [bundle]


def test_every_variant_sized_at_the_same_bits_per_suffix():
    # 300 bytes need 9 bits per offset (0..299): the suffix arrays are
    # sized as index files holding their kept suffixes' offsets, as a
    # samsami file without sections holds its sampled ones
    text = random_text(random.Random("bits"), 300, 4)
    samsami, sa, spasa = build_variants(text, ["samsami", "sa", "spasa"],
                                        6, 2, 3, 4)
    n_sampled = build_bundle(text, SamplingParams(6, 2)).index.n_sampled
    for variant, kept in ((samsami, n_sampled), (sa, 300), (spasa, 75)):
        assert variant.index_bytes == 48 + -(-kept * 9 // 8), variant.name
    assert (sa.index_bytes, spasa.index_bytes) == (48 + 338, 48 + 85)
