#!/usr/bin/env python3
"""Benchmark of samsami through its public API: set-up, load, size, latency.

    python3 perfbench/run.py --workload code-anchor --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One process and one thread drive the library in a closed loop: each query
is issued after the previous one returns and is timed alone. Every answer
is checked against an oracle of the benchmark's own (oracle.py). With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. README.md maps each per-layer metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracle import WindowOracle, gaps_within_window, sorted_at_ranks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# 512 KiB keeps the three full suffix sorts of one set-up near 4 s on
# 2 vCPU, so three set-ups and a 10 s measurement fit in about 30 s.
TEXT_BYTES = 512 * 1024
SETUP_REPEATS = 3
LOAD_REPEATS = 7
POOL = 16384              # distinct patterns per run, each asked of every variant
BLOCK = 32                # patterns every variant answers before the next variant
RANK_SAMPLES = 256        # adjacent-rank pairs checked per suffix array
LOADED_PATTERNS = 128     # patterns asked of both the built and the loaded index
CODE_ALPHABET = bytes([10]) + bytes(range(32, 127))
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str       # "stdlib" or "dna"
    q: int
    p: int
    k: int            # hash-table prefix length
    step: int         # sparse suffix array step
    m: int            # pattern length
    odd_every: int    # every odd_every-th pattern is mutated (stdlib) or random (dna)


WORKLOADS = {w.name: w for w in (
    Workload("code-anchor", "stdlib", q=40, p=2, k=4, step=8, m=50, odd_every=4),
    Workload("dna-search", "dna", q=12, p=2, k=4, step=8, m=24, odd_every=2),
    Workload("code-phrase", "stdlib", q=8, p=2, k=4, step=8, m=32, odd_every=4),
)}

# The phrase variant always samples with q=8, p=2: at the workloads' own
# q=40 (m=50) or q=12 (m=24) it needs m >= 2q-p+1 or falls back to
# scanning every phrase. On code-phrase it shares the index's sampling.
PHRASE_Q, PHRASE_P = 8, 2

# (variant, operation, entry-point span, percentiles reported)
VARIANTS = (
    ("samsami", "count", "count", (50, 99)),
    ("samsami2", "count", "count2", (50, 99)),
    ("samsami-hash", "count", "count_hash", (50, 99)),
    ("phrase", "locate", "encoded_locate", (50,)),
    ("sa", "count", "spasa_count:sa", (50,)),
    ("spasa", "count", "spasa_count:spasa", (50,)),
)

END_TO_END = ["setup_s", "load_s", "peak_rss_mib", "samsami.index_bytes",
              "phrase.index_bytes"] + [
    f"{name}.{op}_p{pct}_us" for name, op, _, pcts in VARIANTS for pct in pcts]


def import_samsami():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (SRC / "samsami" / "__init__.py").is_file():
        sys.exit(f"run.py: no samsami sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import samsami
    if Path(samsami.__file__).resolve().parent != SRC / "samsami":
        sys.exit(f"run.py: imported samsami from {samsami.__file__}, not {SRC}")
    return samsami


# --- inputs -----------------------------------------------------------------

def stdlib_corpus(budget: int) -> tuple[bytes, int]:
    """The interpreter's stdlib *.py files, sorted by path, cut to budget."""
    root = sysconfig.get_paths()["stdlib"]
    rel = []
    for here, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d != "site-packages"]
        rel += [os.path.relpath(os.path.join(here, f), root)
                for f in files if f.endswith(".py")]
    buf = bytearray()
    used = 0
    for path in sorted(rel):
        if len(buf) >= budget:
            break
        with open(os.path.join(root, path), "rb") as fh:
            buf += fh.read()
        used += 1
    if len(buf) < budget:
        sys.exit(f"run.py: stdlib at {root} has only {len(buf)} bytes of *.py")
    return bytes(buf[:budget]), used


def dna_text(seed: int, n: int) -> bytes:
    import numpy as np
    codes = np.random.default_rng([seed, 2]).integers(0, 4, n, dtype=np.uint8)
    return np.frombuffer(b"ACGT", dtype=np.uint8)[codes].tobytes()


class Patterns:
    """Seeded pattern stream: cut from the text, or altered.

    Cut positions follow a golden-ratio sequence from a seeded offset, so
    any prefix of the stream covers the text evenly: the share of
    patterns that hit a heavy candidate cluster, which sets the p99,
    varies much less from seed to seed than with independent draws.
    """

    def __init__(self, wl: Workload, text: bytes, seed: int, stream: str):
        self.wl, self.text = wl, text
        self.rng = random.Random(f"{wl.name}/{seed}/{stream}")
        self.offset = self.rng.random()
        self.made = 0

    def block(self, size: int) -> list[bytes]:
        return [self._next() for _ in range(size)]

    def _next(self) -> bytes:
        wl, rng = self.wl, self.rng
        odd = self.made % wl.odd_every == wl.odd_every - 1
        self.made += 1
        if odd and wl.corpus == "dna":
            return bytes(rng.choice(b"ACGT") for _ in range(wl.m))
        spot = (self.offset + self.made * GOLDEN) % 1.0
        start = int(spot * (len(self.text) - wl.m + 1))
        pat = self.text[start:start + wl.m]
        if odd:
            at = rng.randrange(wl.m)
            sub = rng.choice([c for c in CODE_ALPHABET if c != pat[at]])
            pat = pat[:at] + bytes([sub]) + pat[at + 1:]
        return pat


# --- the indexes under test -------------------------------------------------

@dataclass
class Indexes:
    main: object      # IndexBundle: samsami, delta nibbles, hash table
    phrase: object    # IndexBundle carrying the phrase section (may be main)
    sa: object        # SparseSuffixArray with step 1, the plain suffix array
    spasa: object     # SparseSuffixArray with the workload's step

    def bundles(self) -> list:
        return [self.main] if self.phrase is self.main else [self.main, self.phrase]


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def set_up(sm, text: bytes, wl: Workload, span=direct) -> Indexes:
    """Every index of the workload, from the text bytes to ready to answer."""
    params = sm.SamplingParams(wl.q, wl.p)
    phrase_params = sm.SamplingParams(PHRASE_Q, PHRASE_P)
    shared = params == phrase_params
    main = span("build_bundle", sm.build_bundle, text, params, with_delta=True,
                hash_k=wl.k, with_phrase=shared)
    phrase = main if shared else span("build_bundle", sm.build_bundle, text,
                                      phrase_params, with_phrase=True)
    # The stream sort is lazy; forcing it here keeps it out of the first query.
    order = getattr(phrase.encoded, "suffix_order", None)
    if order is not None:
        order()
    sa = span("spasa_build", sm.spasa_build, text, 1)
    spasa = span("spasa_build", sm.spasa_build, text, wl.step)
    return Indexes(main, phrase, sa, spasa)


@dataclass
class Variant:
    name: str
    op: str
    entry: str
    pcts: tuple
    call: Callable    # (pattern, stats=None) -> count, or positions for locate


def variants(sm, ix: Indexes, n: int) -> list[Variant]:
    idx, ann, table = ix.main.index, ix.main.delta, ix.main.table
    dictionary, encoded = ix.phrase.dictionary, ix.phrase.encoded
    pparams = ix.phrase.index.params
    sa, spasa = ix.sa, ix.spasa
    calls = {
        "samsami": lambda pat, st=None: sm.count(idx, pat, st),
        "samsami2": lambda pat, st=None: sm.count2(idx, ann, pat, st),
        "samsami-hash": lambda pat, st=None: sm.count_hash(idx, table, pat, st),
        "phrase": lambda pat, st=None: sm.encoded_locate(
            dictionary, encoded, n, pat, pparams),
        "sa": lambda pat, st=None: sm.spasa_count(sa, pat, st),
        "spasa": lambda pat, st=None: sm.spasa_count(spasa, pat, st),
    }
    return [Variant(name, op, entry, pcts, calls[name])
            for name, op, entry, pcts in VARIANTS]


# --- checking ---------------------------------------------------------------

class Tally:
    """Operations attempted, failed (raised or answered wrong), and wrong."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, ok: bool | None, count: int = 1):
        """Record count operations; ok None means they raised."""
        self.attempted += count
        if not ok:
            self.failed += count
        if ok is False:
            self.wrong += count


def answer_ok(variant: Variant, got, expected: list[int]) -> bool | None:
    if got is _RAISED:
        return None
    return got == (expected if variant.op == "locate" else len(expected))


_RAISED = object()


def check_properties(sm, text, wl, seed, ix: Indexes, loaded: list, tally: Tally):
    rng = random.Random(f"{wl.name}/{seed}/ranks")
    arrays = [b.index.sa for b in ix.bundles()] + [ix.sa.sa, ix.spasa.sa]
    for sa in arrays:
        ranks = [rng.randrange(len(sa) - 1) for _ in range(RANK_SAMPLES)]
        bad = sorted_at_ranks(text, sa, ranks)
        tally.add(True, RANK_SAMPLES - bad)
        tally.add(False, bad)
    for b in ix.bundles():
        tally.add(gaps_within_window(b.index.sa, b.index.params.q, b.index.params.p))
    tally.add(sm.decode_text(ix.phrase.dictionary, ix.phrase.encoded) == text)

    back = Indexes(loaded[0], loaded[-1], ix.sa, ix.spasa)
    pats = Patterns(wl, text, seed, "loaded").block(LOADED_PATTERNS)
    for built, again in zip(variants(sm, ix, len(text)), variants(sm, back, len(text))):
        if built.name in ("sa", "spasa"):
            continue  # never saved
        for pat in pats:
            tally.add(_ask(sm, built, pat) == _ask(sm, again, pat))


def _ask(sm, variant: Variant, pat: bytes):
    try:
        return variant.call(pat)
    except sm.SamsamiError:
        return _RAISED


# --- measurement ------------------------------------------------------------

class SpeedProbe:
    """Times a fixed piece of work shaped like samsami's binary search.

    The machine alternates, for seconds at a time, between a fast phase
    and one where Python code runs about 1.9x slower. Query code slows by
    the same factor as this probe does (within 5% for every variant), so
    timings scaled by NOMINAL_NS / (probe duration) do not depend on the
    phase. NOMINAL_NS is the probe's duration in the fast phase of a
    2 vCPU machine with Python 3.11, so scaled figures read as
    microseconds on that machine.
    """

    NOMINAL_NS = 4600

    def __init__(self):
        import numpy as np
        self.text = bytes(range(256)) * 16
        self.sa = np.arange(1, len(self.text), 16, dtype=np.uint32)
        self.key = bytes([128]) * 8

    def __call__(self) -> int:
        text = self.text

        def head(pos):
            pos = int(pos) - 1
            return text[pos:pos + 8]

        return (bisect.bisect_left(self.sa, self.key, key=head)
                + bisect.bisect_right(self.sa, self.key, key=head))

    def scale(self, runs: int = 16) -> float:
        """NOMINAL_NS over the probe's median duration right now."""
        clock = time.perf_counter_ns
        took = []
        for _ in range(runs):
            t0 = clock()
            self()
            took.append(clock() - t0)
        return self.NOMINAL_NS / statistics.median(took)


def timed_pass(sm, vs, block, expected, tally, probe, times, repeats=1,
               tracer=None, stats=None):
    """Each variant answers the whole block `repeats` times; each query is timed alone.

    The probe runs before every query, and a round's timings are scaled
    by NOMINAL_NS over the probe's median duration in that round. Each
    pattern's best scaled time over the rounds is appended to
    times[variant]. Traced answers pass a QueryStats, which goes with the
    answer to stats[variant] if given.
    """
    clock = time.perf_counter_ns
    for v in vs:
        best = [float("inf")] * len(block)
        for _ in range(repeats):
            raw, probed = [], []
            for pat, exp in zip(block, expected):
                c0 = clock()
                probe()
                if tracer is None:
                    t0 = clock()
                    try:
                        got = v.call(pat)
                    except sm.SamsamiError:
                        got = _RAISED
                    t1 = clock()
                else:
                    st = sm.QueryStats()
                    t0 = clock()
                    try:
                        got = tracer.call(v.entry, v.call, pat, st)
                    except sm.SamsamiError:
                        got = _RAISED
                    t1 = clock()
                    if stats is not None:
                        stats[v.name].append((st, got))
                probed.append(t0 - c0)
                raw.append(t1 - t0)
                tally.add(answer_ok(v, got, exp))
            scale = probe.NOMINAL_NS / statistics.median(probed)
            best = [min(b, ns * scale) for b, ns in zip(best, raw)]
        times[v.name].extend(best)


def measure(sm, vs, pool, expected, seconds, tally, probe, tracer=None):
    """Passes over the pool until `seconds` have passed.

    Returns the untraced and traced timings of every pass, and the traced
    first pass's (QueryStats, answer) pairs. Untraced, every block is
    answered twice and a pattern's faster time counts: a query and its
    repeat are 32 queries apart, so a one-off interruption rarely hits
    both. With a tracer every block is answered once untraced and once
    traced, so the two sets cover the same queries alike.
    """
    plain = {v.name: array("d") for v in vs}
    traced = {v.name: array("d") for v in vs}
    stats = {v.name: [] for v in vs}
    gc.collect()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for b in range(0, len(pool), BLOCK):
            block, exp = pool[b:b + BLOCK], expected[b:b + BLOCK]
            timed_pass(sm, vs, block, exp, tally, probe, plain,
                       repeats=1 if tracer else 2)
            if tracer is not None:
                with tracer.installed():
                    timed_pass(sm, vs, block, exp, tally, probe, traced, 1, tracer,
                               stats if passes == 0 else None)
        passes += 1
    print(f"passes over {len(pool)} patterns: {passes}")
    return plain, traced, stats


def pct(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def load_all(sm, paths, text, clear_checksum, probe, span=direct) -> tuple[float, list]:
    """Load every saved index with the text-checksum cache cold.

    Returns the seconds taken, scaled by the speed probe around the loads.
    """
    before = probe.scale()
    total, out = 0.0, []
    for path in paths:
        clear_checksum()
        t0 = time.perf_counter()
        out.append(span("load", sm.load, path, text))
        total += time.perf_counter() - t0
    return total * (before + probe.scale()) / 2, out


def checksum_clearer(sm):
    """The checksum cache's clear, or a no-op once the cache is gone."""
    cached = getattr(sm.persistence, "text_checksum", None)
    return getattr(cached, "cache_clear", lambda: None)


def saved_bytes(sm, bundle) -> int:
    return sm.save(bundle, io.BytesIO())


# --- the two kinds of run ---------------------------------------------------

def run_plain(sm, wl, seed, seconds, text, oracle, workdir, tally) -> tuple[dict, dict]:
    """End-to-end metrics and, per latency metric, its sample count."""
    setups = []
    for _ in range(SETUP_REPEATS):
        ix = None
        gc.collect()
        t0 = time.perf_counter()
        ix = set_up(sm, text, wl)
        setups.append(time.perf_counter() - t0)

    paths = []
    for i, b in enumerate(ix.bundles()):
        paths.append(workdir / f"index{i}.ssmi")
        sm.save(b, paths[-1])
    clear = checksum_clearer(sm)
    probe = SpeedProbe()
    loads = []
    for _ in range(LOAD_REPEATS):
        seconds_taken, loaded = load_all(sm, paths, text, clear, probe)
        loads.append(seconds_taken)
    check_properties(sm, text, wl, seed, ix, loaded, tally)
    vs = variants(sm, ix, len(text))
    pool = Patterns(wl, text, seed, "timed").block(POOL)
    # the program's peak is set-up, save and load; the timings kept below are the benchmark's
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, _, _ = measure(sm, vs, pool, [oracle.positions(x) for x in pool],
                          seconds, tally, probe)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "load_s": (statistics.median(loads), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "samsami.index_bytes": (saved_bytes(sm, sm.IndexBundle(index=ix.main.index)), "bytes"),
        "phrase.index_bytes": (saved_bytes(sm, sm.IndexBundle(
            index=ix.phrase.index, dictionary=ix.phrase.dictionary,
            encoded=ix.phrase.encoded)), "bytes"),
    }
    samples = {}
    for v in vs:
        ts = sorted(plain[v.name])
        for p in v.pcts:
            name = f"{v.name}.{v.op}_p{p}_us"
            metrics[name] = (pct(ts, p) / 1e3, "us")
            samples[name] = len(ts)
    return metrics, samples


PER_LAYER = {
    "minimizer.sample_s": "s", "minimizer.sampled_fraction": "ratio",
    "minimizer.window_us": "us", "minimizer.prune_mask_us": "us",
    "suffix_sort.full_sa_s": "s", "suffix_sort.extract_s": "s",
    "core.search_us": "us", "core.verify_us": "us",
    "core.candidates_p50": "count", "core.candidates_p99": "count",
    "core.text_verifications": "count", "core.matches_per_candidate": "ratio",
    "delta.annotate_s": "s", "delta.pruned_per_candidate": "ratio",
    "delta.verify_us": "us",
    "hashindex.build_table_s": "s", "hashindex.table_bytes": "bytes",
    "hashindex.load_factor": "ratio", "hashindex.count_self_us": "us",
    "phrase.encode_s": "s", "phrase.suffix_order_s": "s",
    "phrase.stream_bytes": "bytes", "phrase.dictionary_bytes": "bytes",
    "phrase.locate_self_us": "us",
    "baselines.sa_search_us": "us", "baselines.spasa_candidates_per_match": "ratio",
    "persistence.checksum_s": "s", "persistence.load_sections_s": "s",
    "persistence.save_s": "s", "persistence.section_bytes.offsets": "bytes",
    "persistence.section_bytes.hash": "bytes",
    "persistence.section_bytes.phrase": "bytes",
    "trace.overhead_pct": "%",
}


def run_traced(sm, wl, seed, seconds, text, oracle, workdir, tally) -> tuple[dict, dict]:
    """Per-layer metrics and the number of traced queries per variant."""
    tracer = Tracer()
    probe = SpeedProbe()
    clear = checksum_clearer(sm)
    with tracer.installed():
        tracer.phase = "setup"
        ix = set_up(sm, text, wl, tracer.call)
        tracer.phase = "save"
        paths = []
        for i, b in enumerate(ix.bundles()):
            paths.append(workdir / f"index{i}.ssmi")
            tracer.call("save", sm.save, b, paths[-1])
        tracer.phase = "load"
        _, loaded = load_all(sm, paths, text, clear, probe, tracer.call)
    check_properties(sm, text, wl, seed, ix, loaded, tally)
    tracer.phase = "query"
    vs = variants(sm, ix, len(text))
    pool = Patterns(wl, text, seed, "timed").block(POOL)
    plain, traced, stats = measure(sm, vs, pool, [oracle.positions(x) for x in pool],
                                   seconds, tally, probe, tracer)
    tot = tracer.totals()

    def seconds_in(phase, name, self_time=False):
        row = tot.get((phase, name))
        return row[2 if self_time else 1] / 1e9 if row else 0.0

    def us_per_call(name, self_time=False):
        row = tot.get(("query", name))
        return row[2 if self_time else 1] / row[0] / 1e3 if row else 0.0

    def summed(variant, field):
        return sum(getattr(st, field) for st, _ in stats[variant])

    def ratio(a, b):
        return a / b if b else 0.0

    idx, table, ph = ix.main.index, ix.main.table, ix.phrase
    cands = sorted(st.candidates for st, _ in stats["samsami"])
    matches = sum(got for _, got in stats["samsami"] if isinstance(got, int))
    spasa_matches = sum(got for _, got in stats["spasa"] if isinstance(got, int))
    phrase_section = (4 + sum(4 + len(x) for x in ph.dictionary.phrases)
                      + 8 + len(ph.encoded.stream))
    untraced_ns = sum(sum(ts) for ts in plain.values())
    traced_ns = sum(sum(ts) for ts in traced.values())
    values = {
        "minimizer.sample_s": seconds_in("setup", "sampled_positions"),
        "minimizer.sampled_fraction": idx.n_sampled / idx.n,
        "minimizer.window_us": us_per_call("window_minimizer"),
        "minimizer.prune_mask_us": us_per_call("prune_mask"),
        "suffix_sort.full_sa_s": seconds_in("setup", "build_full_sa"),
        "suffix_sort.extract_s": seconds_in("setup", "extract_sampled"),
        "core.search_us": us_per_call("suffix_range"),
        "core.verify_us": us_per_call("count", self_time=True),
        "core.candidates_p50": pct(cands, 50),
        "core.candidates_p99": pct(cands, 99),
        "core.text_verifications": ratio(summed("samsami", "text_verifications"), len(cands)),
        "core.matches_per_candidate": ratio(matches, summed("samsami", "candidates")),
        "delta.annotate_s": seconds_in("setup", "annotate"),
        "delta.pruned_per_candidate": ratio(summed("samsami2", "pruned"),
                                            summed("samsami2", "candidates")),
        "delta.verify_us": us_per_call("count2", self_time=True),
        "hashindex.build_table_s": seconds_in("setup", "build_table"),
        "hashindex.table_bytes": table.slots.nbytes,
        "hashindex.load_factor": table.occupied / table.capacity,
        "hashindex.count_self_us": us_per_call("count_hash", self_time=True),
        "phrase.encode_s": seconds_in("setup", "encode_text"),
        "phrase.suffix_order_s": seconds_in("setup", "suffix_order"),
        "phrase.stream_bytes": len(ph.encoded.stream),
        "phrase.dictionary_bytes": sum(len(x) for x in ph.dictionary.phrases),
        "phrase.locate_self_us": us_per_call("encoded_locate", self_time=True),
        "baselines.sa_search_us": us_per_call("spasa_count:sa", self_time=True),
        "baselines.spasa_candidates_per_match": ratio(summed("spasa", "candidates"),
                                                      spasa_matches),
        "persistence.checksum_s": seconds_in("load", "text_checksum"),
        "persistence.load_sections_s": (seconds_in("load", "load")
                                        - seconds_in("load", "text_checksum")),
        "persistence.save_s": seconds_in("save", "save"),
        "persistence.section_bytes.offsets": 4 * idx.n_sampled,
        "persistence.section_bytes.hash": 8 + 8 * table.capacity,
        "persistence.section_bytes.phrase": phrase_section,
        "trace.overhead_pct": 100.0 * (traced_ns - untraced_ns) / untraced_ns,
    }
    print(f"spans recorded: {len(tracer.spans)}")
    print(f"{'phase':<7}{'span':<22}{'calls':>9}{'total_ms':>13}{'self_ms':>13}")
    for (phase, name), (calls, total, own) in sorted(tot.items()):
        print(f"{phase:<7}{name:<22}{calls:>9}{total / 1e6:>13.3f}{own / 1e6:>13.3f}")
    for name in sorted(tracer.absent):
        print(f"absent span site: {name}")
    metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}
    samples = {f"traced {v.name} queries": len(traced[v.name]) for v in vs}
    return metrics, samples


def run_one(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    sm = import_samsami()
    if wl.corpus == "stdlib":
        text, files = stdlib_corpus(TEXT_BYTES)
        origin = f"stdlib *.py, {files} files in sorted path order"
    else:
        text = dna_text(seed, TEXT_BYTES)
        origin = f"uniform ACGT from seed {seed}"
    print(f"workload {wl.name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"corpus {origin}: {len(text)} bytes, "
          f"sha256 {hashlib.sha256(text).hexdigest()}")
    print(f"params q={wl.q} p={wl.p} k={wl.k} step={wl.step} m={wl.m}; "
          f"phrase q={PHRASE_Q} p={PHRASE_P}")
    oracle = WindowOracle(text, wl.m)
    tally = Tally()
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if trace else run_plain
        metrics, samples = runner(sm, wl, seed, seconds, text, oracle, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"{name:<38}{value:>16.4f} {unit:<6}" + (f" n={n}" if n else ""))
    for name, n in samples.items():
        if name not in metrics:
            print(f"{name}: {n}")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}, "
          f"wrong answers {tally.wrong}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and caches are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            print(f"workload {name} exited with {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
        print()
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
