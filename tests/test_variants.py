"""The variant table: every variant, built or loaded, answers as the
naive scan does, from its minimum pattern length on."""

import io
import random

import pytest

from samsami import (PatternTooShort, SamplingParams, SamsamiError,
                     build_bundle, build_variants, from_bundle, load,
                     naive_locate, save)
from samsami import baselines, core

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
    with pytest.raises(SamsamiError, match="unknown variant"):
        build_variants(text, ["sa", "fm-index"], 6, 2, 3, 4)


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
